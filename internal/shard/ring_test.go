package shard

import (
	"fmt"
	"testing"
)

// TestRingDeterministic pins that placement is a pure function of the
// node set and key — two independently built rings agree on every key,
// whatever order the nodes were listed in.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 0)
	b := NewRing([]string{"n3", "n1", "n2", "n2"}, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("project-%d", i)
		if got, want := b.Locate(key), a.Locate(key); got != want {
			t.Fatalf("Locate(%q) = %q on reordered ring, %q on original", key, got, want)
		}
	}
}

// TestRingBalance checks ownership uniformity: with the default vnode
// density no node of three should own more than half of 3000 keys (raw
// FNV without the finalizer mix skews far worse than this).
func TestRingBalance(t *testing.T) {
	nodes := []string{"node-a", "node-b", "node-c"}
	r := NewRing(nodes, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Locate(fmt.Sprintf("project-%d", i))]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys", n)
		}
		if counts[n] > 1500 {
			t.Fatalf("node %s owns %d/3000 keys — ring badly skewed", n, counts[n])
		}
	}
}

// TestRingStability pins the consistent-hashing contract the cluster
// layer's handoff depends on: adding one node to three moves only keys
// that now belong to the NEW node — no key moves between surviving
// nodes, so restarting with a changed peer list transfers only the
// moved projects.
func TestRingStability(t *testing.T) {
	before := NewRing([]string{"n1", "n2", "n3"}, 0)
	after := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("project-%d", i)
		was, is := before.Locate(key), after.Locate(key)
		if was == is {
			continue
		}
		moved++
		if is != "n4" {
			t.Fatalf("key %q moved %s -> %s: only moves to the new node are allowed", key, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new node — ring ignores membership")
	}
	if moved > 2000/2 {
		t.Fatalf("%d/2000 keys moved adding one node to three — expected ~1/4", moved)
	}
}

// TestRingEmpty pins the degenerate cases.
func TestRingEmpty(t *testing.T) {
	if got := NewRing(nil, 0).Locate("x"); got != "" {
		t.Fatalf("empty ring located %q", got)
	}
	one := NewRing([]string{"solo"}, 4)
	for i := 0; i < 10; i++ {
		if got := one.Locate(fmt.Sprintf("k%d", i)); got != "solo" {
			t.Fatalf("single-node ring located %q", got)
		}
	}
}
