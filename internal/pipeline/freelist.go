package pipeline

import "repro/internal/prog"

// FreeList is a bounded free list of idle cores, for a caller that runs
// many short simulations one after another (the intervals of one sampled
// job). Get hands out a core reset for the requested configuration — a
// recycled one when any is idle, a new one otherwise — and Put takes it
// back. Since a core is only built when none is idle, a free list never
// holds more cores than its callers ran at once, and it keeps at most max
// of them idle. It is safe for concurrent use.
type FreeList struct {
	idle chan *Core
}

// NewFreeList returns an empty free list that keeps at most max idle cores.
func NewFreeList(max int) *FreeList {
	// The buffer is the idle bound: Put drops a core when it is full.
	return &FreeList{idle: make(chan *Core, max)}
}

// Get returns a core in the state New(cfg, p) would build.
func (l *FreeList) Get(cfg Config, p *prog.Program) *Core {
	select {
	case c := <-l.idle:
		c.Reset(cfg, p)
		return c
	default:
		return New(cfg, p)
	}
}

// Put returns c to the free list; the caller must not use c afterwards.
// A core beyond the idle bound is left to the garbage collector.
func (l *FreeList) Put(c *Core) {
	select {
	case l.idle <- c:
	default:
	}
}
