package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"tcrowd/internal/cluster/member"
)

// Membership-change handoff. With static membership the ring only moves
// when the operator edits -peers and restarts, so rebalancing is a boot
// activity: each node walks its local projects, and any project whose
// ring home is now a peer is handed off — full WAL plus latest published
// generation pushed to the new home over the internal API, then the local
// copy demotes to a read replica. Only moved projects transfer; the ring
// keeps everything else exactly where it was.

// rebalanceRetryDelay paces retries while the new home is unreachable
// (e.g. the whole cluster is restarting into the new spec and the peer is
// not up yet).
const rebalanceRetryDelay = 2 * time.Second

// StartRebalance runs Rebalance in the background, retrying until a pass
// completes without errors or the node closes. Meant for boot: serving
// starts immediately, misplaced projects keep answering writes as before
// until their handoff lands.
func (n *Node) StartRebalance() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			if err := n.Rebalance(); err == nil {
				return
			}
			select {
			case <-n.stop:
				return
			case <-time.After(rebalanceRetryDelay):
			}
		}
	}()
}

// Rebalance performs one reconciliation pass over the local projects:
// projects homed here stay; home-mode projects the ring now places on a
// peer are handed off and demoted; follower-mode projects pointing at a
// stale home address are re-pointed. Returns the joined errors of the
// failed handoffs (nil when the node is fully reconciled).
func (n *Node) Rebalance() error {
	ids := n.p.ProjectIDs()
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		if n.set.IsHome(id) {
			continue
		}
		home := n.set.HomeOf(id)
		follower, curHome, err := n.p.IsFollower(id)
		if err != nil {
			continue // deleted mid-walk
		}
		if follower {
			if curHome != home.Addr {
				_ = n.p.DemoteToReplica(id, home.Addr)
			}
			continue
		}
		if err := n.handoff(id, home); err != nil {
			errs = append(errs, fmt.Errorf("handoff %q to %s: %w", id, home.ID, err))
		}
	}
	return errors.Join(errs...)
}

// handoff pushes one project's WAL and latest generation to its new home,
// then demotes the local copy. Any 2xx from the adopt endpoint — adopted
// or already-home duplicate — clears this node to demote: either way the
// receiver owns the project now.
func (n *Node) handoff(id string, home member.Member) error {
	segs, err := n.p.ShipWAL(id)
	if err != nil {
		// Without a WAL there is no durable history to move, and demoting
		// would orphan the in-memory answers. Refuse: cluster mode expects
		// -wal-dir (cmd enforces it).
		return err
	}
	env := walShipEnvelope{Segments: segs}
	if g, ok, err := n.p.LatestReplicated(id); err == nil && ok {
		env.Latest = &g
	}
	body, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), internalTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		home.Addr+"/v1/internal/projects/"+url.PathEscape(id)+"/wal",
		bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(homeHeader, n.set.Self().Addr)
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("adopt endpoint answered %s", resp.Status)
	}
	return n.p.DemoteToReplica(id, home.Addr)
}
