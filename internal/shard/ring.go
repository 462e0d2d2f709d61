package shard

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring: every shard owns Replicas virtual points
// on a uint64 circle, and a key belongs to the shard owning the first point
// clockwise of the key's hash. Consistent hashing (rather than hash mod N)
// keeps the key→shard map stable under resizing: growing from N to N+1
// workers moves only ~1/(N+1) of the keys, so a restart with a different
// GOMAXPROCS does not reshuffle every project's home shard — warm models,
// logs and metrics stay put for the vast majority of projects.
type ring struct {
	points []uint64 // sorted virtual-node positions
	owner  []int    // owner[i] is the shard owning points[i]
}

// hashKey positions a key on the circle: FNV-1a (stable across processes
// and platforms) followed by a 64-bit finalizer mix. Raw FNV-1a has weak
// avalanche on short, similar keys ("project-1", "project-2", ...) and
// clusters them on the circle badly enough to skew shard ownership by >5x;
// the murmur3-style fmix64 finalizer restores uniformity while keeping the
// hash stable. The FNV loop is hand-rolled rather than hash/fnv because
// hashKey sits on the per-answer Submit hot path (under the platform
// mutex): ranging the string directly avoids the hash-object and []byte
// allocations of the stdlib interface.
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the murmur3 fmix64 finalizer (full avalanche on all 64 bits).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing places replicas virtual points per shard.
func buildRing(shards, replicas int) ring {
	r := ring{
		points: make([]uint64, 0, shards*replicas),
		owner:  make([]int, 0, shards*replicas),
	}
	type vnode struct {
		point uint64
		shard int
	}
	vs := make([]vnode, 0, shards*replicas)
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			vs = append(vs, vnode{hashKey(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	// Ties (64-bit collisions are ~never, but determinism must not depend
	// on luck) break toward the lower shard index.
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].point != vs[j].point {
			return vs[i].point < vs[j].point
		}
		return vs[i].shard < vs[j].shard
	})
	for _, v := range vs {
		r.points = append(r.points, v.point)
		r.owner = append(r.owner, v.shard)
	}
	return r
}

// locate returns the shard owning key.
func (r ring) locate(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) { // wrap past the highest point
		i = 0
	}
	return r.owner[i]
}

// DefaultRingVnodes is the virtual-node count NewRing uses when vnodes
// is zero — the same density the in-process shard ring runs with, so
// cluster-level placement inherits the measured ownership uniformity.
const DefaultRingVnodes = 128

// Ring is the exported, string-keyed consistent-hash ring: the same
// FNV-1a+fmix64 circle the in-process shard scheduler places projects
// with, promoted to arbitrary node keys so a cluster layer can make
// every project's home NODE stable-by-key exactly like its home shard.
// Stability is the point: restarting a cluster with one peer added or
// removed moves only ~1/(N+1) of the projects, so handoff transfers the
// moved projects' state and nothing else.
//
// A Ring is immutable after NewRing and safe for concurrent use.
type Ring struct {
	points []uint64 // sorted virtual-node positions
	owner  []string // owner[i] is the node owning points[i]
}

// NewRing builds a ring over the given node keys with vnodes virtual
// points per node (0 = DefaultRingVnodes). Duplicate node keys collapse
// to one; an empty node set yields a ring whose Locate returns "".
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultRingVnodes
	}
	distinct := append([]string(nil), nodes...)
	sort.Strings(distinct)
	distinct = slicesCompact(distinct)
	r := &Ring{
		points: make([]uint64, 0, len(distinct)*vnodes),
		owner:  make([]string, 0, len(distinct)*vnodes),
	}
	type vnode struct {
		point uint64
		node  string
	}
	vs := make([]vnode, 0, len(distinct)*vnodes)
	for _, n := range distinct {
		for v := 0; v < vnodes; v++ {
			vs = append(vs, vnode{hashKey(fmt.Sprintf("node-%s-vnode-%d", n, v)), n})
		}
	}
	// Ties (64-bit collisions are ~never, but determinism must not depend
	// on luck) break toward the lexically lower node key, mirroring the
	// lower-shard-index rule of the in-process ring.
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].point != vs[j].point {
			return vs[i].point < vs[j].point
		}
		return vs[i].node < vs[j].node
	})
	for _, v := range vs {
		r.points = append(r.points, v.point)
		r.owner = append(r.owner, v.node)
	}
	return r
}

// slicesCompact deduplicates a sorted slice in place (stdlib
// slices.Compact spelled out to keep the package's import surface flat).
func slicesCompact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Locate returns the node owning key ("" on an empty ring): the node
// owning the first virtual point clockwise of the key's hash.
func (r *Ring) Locate(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) { // wrap past the highest point
		i = 0
	}
	return r.owner[i]
}
