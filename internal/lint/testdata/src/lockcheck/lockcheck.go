// Package lockcheck exercises the lockcheck analyzer: guarded fields
// (directive and legacy prose forms), caller-holds contracts, TryLock
// idioms, lock-order directives (unexported owners included; malformed or
// stale ones are reported), goroutine escapes and waivers.
//
//tcrowd:lockorder Counter.feedMu < Counter.mu
//tcrowd:lockorder shipper.sendMu < shipper.mu
//tcrowd:lockorder Counter.gone < Counter.mu // want `names Counter.gone, but the package declares no such mutex field`
//tcrowd:lockorder Missing.mu < Counter.n // want `names Missing.mu, but` // want `names Counter.n, but`
//tcrowd:lockorder Counter.feedMu Counter.mu // want `malformed lock-order directive "Counter.feedMu Counter.mu"`
//tcrowd:lockorder feedMu < Counter.mu // want `malformed lock-order directive`
package lockcheck

import "sync"

type Counter struct {
	mu sync.Mutex
	// n is the running count. guarded by mu.
	n int
	//tcrowd:guardedby mu
	total int

	feedMu sync.Mutex
	//tcrowd:guardedby feedMu
	feed []int
}

type Reader struct {
	//tcrowd:guardedby Counter.mu
	view int
}

// Queue has a struct-level contract: every non-sync field is guarded.
//
//tcrowd:guardedby mu
type Queue struct {
	mu    sync.Mutex
	items []int
	depth int
}

func pushBad(q *Queue, v int) {
	q.items = append(q.items, v) // want `guarded by Queue.mu`
}

func pushGood(q *Queue, v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.depth++
	q.mu.Unlock()
}

func good(c *Counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func bad(c *Counter) {
	c.n++ // want `guarded by Counter.mu`
}

func afterUnlock(c *Counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.total++ // want `guarded by Counter.mu`
}

func deferred(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.total++
}

// addLocked bumps the count. Caller holds c.mu.
func (c *Counter) addLocked(d int) {
	c.n += d
}

//tcrowd:locked mu
func (c *Counter) resetLocked() {
	c.n = 0
	c.total = 0
}

func callsLocked(c *Counter) {
	c.addLocked(1) // want `requires Counter.mu held`
	c.mu.Lock()
	c.addLocked(1)
	c.resetLocked()
	c.mu.Unlock()
	c.resetLocked() // want `requires Counter.mu held`
}

func tryLock(c *Counter) {
	if c.mu.TryLock() {
		c.n++
		c.mu.Unlock()
	}
	if !c.mu.TryLock() {
		return
	}
	c.total++
	c.mu.Unlock()
}

func branchLocksDoNotEscape(c *Counter, cond bool) {
	if cond {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n++ // want `guarded by Counter.mu`
}

func order(c *Counter) {
	c.feedMu.Lock()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.feedMu.Unlock()

	c.mu.Lock()
	c.feedMu.Lock() // want `lock order violation`
	c.feed = nil
	c.feedMu.Unlock()
	c.mu.Unlock()
}

func crossType(c *Counter, r *Reader) {
	_ = r.view // want `guarded by Counter.mu`
	c.mu.Lock()
	_ = r.view
	c.mu.Unlock()
}

func construct() *Counter {
	// Composite-literal keys are field names, not unguarded reads.
	return &Counter{n: 1, total: 2}
}

func goroutineHoldsNothing(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `guarded by Counter.mu`
	}()
}

func inlineClosureKeepsLocks(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn := func() {
		c.n++
	}
	fn()
}

func waived(c *Counter) {
	//lint:allow lockcheck single-goroutine init path
	c.n = 0 // waived `guarded by Counter.mu`
}

type shipper struct{ sendMu, mu sync.Mutex }

func shipOutOfOrder(s *shipper) {
	s.mu.Lock()
	s.sendMu.Lock() // want `lock order violation`
	s.sendMu.Unlock()
	s.mu.Unlock()
}
