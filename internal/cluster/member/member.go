// Package member implements static cluster membership: parsing the
// -peers flag into a validated member set and mapping project IDs to
// their home node over the same consistent-hash ring construction the
// in-process shard scheduler uses (shard.Ring on node IDs). Placement is
// a pure function of (member IDs, project ID) — every node that agrees on
// the flag agrees on every project's home with no coordination, which is
// the whole cluster design: membership is configuration, not consensus.
//
//tcrowd:deterministic
package member

import (
	"fmt"
	"net/url"
	"sort"
	"strings"

	"tcrowd/internal/shard"
)

// Member is one cluster node: a stable ID (the ring key — renaming a node
// moves its projects) and the base URL peers reach it at.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Set is a validated, immutable member set with its placement ring.
type Set struct {
	self    Member
	members []Member // sorted by ID
	byID    map[string]Member
	ring    *shard.Ring
}

// Parse builds a Set from the -node-id/-peers flags. spec is
// comma-separated "id=base-url" entries and must include selfID — the
// flag describes the WHOLE cluster, identically on every node, so each
// node finds its own address there too:
//
//	n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080,n3=http://10.0.0.3:8080
//
// IDs must be unique and '='/','-free; addresses must be absolute
// http(s) URLs without path, query or fragment (trailing slash is
// trimmed). An empty spec with an empty selfID returns nil — the
// single-node, cluster-off configuration.
func Parse(selfID, spec string) (*Set, error) {
	if spec == "" {
		if selfID == "" {
			return nil, nil
		}
		return nil, fmt.Errorf("member: -node-id %q given without -peers", selfID)
	}
	if selfID == "" {
		return nil, fmt.Errorf("member: -peers given without -node-id")
	}
	s := &Set{byID: make(map[string]Member)}
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, addr, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("member: entry %q is not id=url", ent)
		}
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if id == "" {
			return nil, fmt.Errorf("member: entry %q has an empty node id", ent)
		}
		if _, dup := s.byID[id]; dup {
			return nil, fmt.Errorf("member: duplicate node id %q", id)
		}
		u, err := url.Parse(addr)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("member: node %q address %q is not an absolute http(s) URL", id, addr)
		}
		if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
			return nil, fmt.Errorf("member: node %q address %q must be scheme://host[:port] only", id, addr)
		}
		m := Member{ID: id, Addr: u.Scheme + "://" + u.Host}
		s.byID[id] = m
		s.members = append(s.members, m)
	}
	if len(s.members) == 0 {
		return nil, fmt.Errorf("member: -peers %q lists no nodes", spec)
	}
	self, ok := s.byID[selfID]
	if !ok {
		return nil, fmt.Errorf("member: -node-id %q does not appear in -peers (the spec must list every node, this one included)", selfID)
	}
	s.self = self
	sort.Slice(s.members, func(i, j int) bool { return s.members[i].ID < s.members[j].ID })
	ids := make([]string, len(s.members))
	for i, m := range s.members {
		ids[i] = m.ID
	}
	s.ring = shard.NewRing(ids)
	return s, nil
}

// Self returns this node's own entry.
func (s *Set) Self() Member { return s.self }

// Members lists every node sorted by ID (a copy; callers may not mutate
// the set).
func (s *Set) Members() []Member { return append([]Member(nil), s.members...) }

// Peers lists every node except self, sorted by ID.
func (s *Set) Peers() []Member {
	out := make([]Member, 0, len(s.members)-1)
	for _, m := range s.members {
		if m.ID != s.self.ID {
			out = append(out, m)
		}
	}
	return out
}

// Lookup resolves a node ID.
func (s *Set) Lookup(id string) (Member, bool) {
	m, ok := s.byID[id]
	return m, ok
}

// Size returns the member count.
func (s *Set) Size() int { return len(s.members) }

// HomeOf maps a project ID to its home node: the ring owner of the key.
// Every node computes the same answer from the same -peers flag.
func (s *Set) HomeOf(projectID string) Member {
	return s.byID[s.ring.Locate(projectID)]
}

// IsHome reports whether this node is projectID's home.
func (s *Set) IsHome(projectID string) bool {
	return s.ring.Locate(projectID) == s.self.ID
}
