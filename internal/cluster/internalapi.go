package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tcrowd/internal/platform"
)

// The internal replication API. Peer-only surface under /v1/internal/ —
// nodes are expected to firewall it from clients (same trust posture as
// a database replication port). Every mutation carries X-Tcrowd-Home so
// followers always know the current home's base URL.

// internalRouteTable drives both mux registration and the API-drift
// listing (cmd/tcrowd-apiroutes renders it into docs/api-routes.txt).
var internalRouteTable = []struct {
	method  string
	pattern string
	handler func(*Node, http.ResponseWriter, *http.Request)
	doc     string
}{
	{http.MethodPost, "/v1/internal/projects/{id}/generations", (*Node).applyGeneration,
		"home -> follower: install one published generation, then mirror the live WAL segments it carries (creates the follower project on first contact)"},
	{http.MethodPost, "/v1/internal/projects/{id}/wal", (*Node).adoptWAL,
		"old home -> new home: push the full WAL and latest generation; the receiver adopts the project (membership handoff)"},
	{http.MethodDelete, "/v1/internal/projects/{id}", (*Node).removeReplica,
		"home -> follower: drop the replica of a deleted project"},
}

// registerInternalRoutes installs the internal API on the node's mux.
func (n *Node) registerInternalRoutes() {
	for _, r := range internalRouteTable {
		h := r.handler
		n.mux.HandleFunc(r.method+" "+r.pattern, func(w http.ResponseWriter, req *http.Request) {
			h(n, w, req)
		})
	}
}

// InternalRoute is one documented internal endpoint, exposed for the
// API-drift listing.
type InternalRoute struct {
	Method  string
	Pattern string
	Doc     string
}

// InternalRoutes returns the internal route table in registration order.
func InternalRoutes() []InternalRoute {
	out := make([]InternalRoute, len(internalRouteTable))
	for i, r := range internalRouteTable {
		out[i] = InternalRoute{Method: r.method, Pattern: r.pattern, Doc: r.doc}
	}
	return out
}

// applyGeneration handles POST .../generations: install a replicated
// generation and mirror its WAL segments before answering, so a removal
// the home sends after this post finds the mirror written.
func (n *Node) applyGeneration(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var g platform.ReplicatedGeneration
	// Non-sentinel errors render as 400 bad_request via the fallback row.
	if err := json.NewDecoder(r.Body).Decode(&g); err != nil {
		platform.WriteError(w, fmt.Errorf("malformed replicated generation: %w", err))
		return
	}
	if g.Project != id {
		platform.WriteError(w, errors.New("payload project does not match URL"))
		return
	}
	if err := n.p.ApplyReplicatedGeneration(&g, r.Header.Get(homeHeader)); err != nil {
		platform.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// adoptWAL handles POST .../wal: a handoff push from the previous home.
// Responds {"adopted":true} when the project changed hands, false when it
// was already homed here (duplicate push) — either way the sender is
// clear to demote.
func (n *Node) adoptWAL(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var env walShipEnvelope
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		platform.WriteError(w, fmt.Errorf("malformed WAL push: %w", err))
		return
	}
	adopted, err := n.p.AdoptWAL(id, env.Segments, env.Latest)
	if err != nil {
		platform.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]bool{"adopted": adopted})
}

// removeReplica handles DELETE .../{id}: drop a follower replica after
// the home deleted the project. Idempotent — an already-absent project is
// success.
func (n *Node) removeReplica(w http.ResponseWriter, r *http.Request) {
	if err := n.p.RemoveReplica(r.PathValue("id")); err != nil && !errors.Is(err, platform.ErrNoProject) {
		platform.WriteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
