package pipeline

import (
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/rename"
)

// This file holds the allocation-free bookkeeping structures of the hot
// simulation loop: the issue-queue entry pool, the per-tag consumer (waiter)
// lists that replace the O(IQ) wakeup broadcast, the seq-ordered ready list
// that replaces the per-cycle IQ rescan, and the calendar ring that replaces
// the map-based writeback event queue. All of them reach a steady state with
// zero heap allocations per simulated cycle (asserted by TestCoreStepZeroAllocs).

// iqWaiter records one issue-queue source slot waiting for a (class, tag)
// value. slot/gen identify the pool entry at registration time: a squashed or
// reallocated entry changes gen, so stale waiters are skipped on wakeup
// without any eager cleanup.
type iqWaiter struct {
	slot int32
	src  int8
	gen  uint32
}

// classIdx maps a register class to the 0/1 index used by per-class arrays.
//
//repro:hotpath
func classIdx(class isa.RegClass) int {
	if class == isa.FPReg {
		return 1
	}
	return 0
}

// tagIdx flattens a wakeup tag into the waiter-table index for its class.
//
//repro:hotpath
func tagIdx(tag rename.Tag) int {
	return int(tag.Reg)*(regfile.MaxShadow+1) + int(tag.Ver)
}

// ---- issue-queue pool ----

// allocIQ takes a free pool slot; the caller must have checked capacity
// (iqCount < cfg.IQSize). The slot's generation is bumped so waiter refs
// registered against a previous occupant can never wake the new one. The
// payload fields are NOT cleared here: both dispatch sites (dispatchFill and
// dispatchMicro) assign every one of them, so zeroing the whole entry first
// would only duplicate those stores in the hottest loop of the simulator.
//
//repro:hotpath
func (c *Core) allocIQ() int32 {
	n := len(c.iqFree) - 1
	idx := c.iqFree[n]
	c.iqFree = c.iqFree[:n]
	c.iqCount++
	e := &c.iqPool[idx]
	e.gen++
	e.active = true
	e.pending = 0
	return idx
}

// freeIQ returns a pool slot. Waiter or ready-list references to it become
// stale and are filtered by their holders (gen/active checks).
//
//repro:hotpath
func (c *Core) freeIQ(idx int32) {
	c.iqPool[idx].active = false
	c.iqFree = append(c.iqFree, idx)
	c.iqCount--
}

// resetIQ empties the pool entirely (full pipeline flush).
func (c *Core) resetIQ() {
	c.iqFree = c.iqFree[:0]
	for i := range c.iqPool {
		c.iqPool[i].active = false
		c.iqFree = append(c.iqFree, int32(i))
	}
	c.iqCount = 0
	c.readyList = c.readyList[:0]
}

// pushReady inserts a pool entry into the ready list, keeping it sorted by
// sequence number so issue always considers ready instructions oldest first
// (the same selection order as a full IQ scan).
//
//repro:hotpath
func (c *Core) pushReady(idx int32) {
	rl := append(c.readyList, idx)
	seq := c.iqPool[idx].seq
	i := len(rl) - 1
	for i > 0 && c.iqPool[rl[i-1]].seq > seq {
		rl[i] = rl[i-1]
		i--
	}
	rl[i] = idx
	c.readyList = rl
}

// addWaiter subscribes src slot si of pool entry slot to its operand's
// wakeup tag.
//
//repro:hotpath
func (c *Core) addWaiter(slot int32, si int, s *iqSrc) {
	ti := tagIdx(s.tag)
	ci := classIdx(s.class)
	c.waiters[ci][ti] = append(c.waiters[ci][ti],
		iqWaiter{slot: slot, src: int8(si), gen: c.iqPool[slot].gen})
}

// registerSrc finalizes one dispatched source slot: capture the value if it
// has been produced, otherwise subscribe to its producer's wakeup.
//
//repro:hotpath
func (c *Core) registerSrc(slot int32, si int, micro bool) {
	ent := &c.iqPool[slot]
	s := &ent.src[si]
	if !s.used {
		s.ready = true
		return
	}
	c.captureIfReady(s, micro)
	if !s.ready {
		ent.pending++
		c.addWaiter(slot, si, s)
	}
}

// finishDispatch marks a fully-registered entry ready if no source is
// outstanding.
//
//repro:hotpath
func (c *Core) finishDispatch(slot int32) {
	if c.iqPool[slot].pending == 0 {
		c.pushReady(slot)
	}
}

// ---- writeback event ring ----

// evRingSize is the calendar ring's initial bucket count. It only needs to
// exceed the longest writeback latency in flight; schedule grows the ring
// on demand.
const evRingSize = 1024

// schedule files ev for the given future cycle. The ring is indexed by
// cycle & (len-1); the invariant that every pending event is less than one
// ring length ahead of the current cycle keeps buckets single-cycle.
//
//repro:hotpath
func (c *Core) schedule(cycle uint64, ev wbEvent) {
	for cycle-c.cycle >= uint64(len(c.evRing)) {
		c.growEvents()
	}
	b := &c.evRing[cycle&uint64(len(c.evRing)-1)]
	*b = append(*b, ev)
	c.evPending++
}

// growEvents doubles the ring, remapping pending buckets. A bucket at old
// index i holds events for the unique pending cycle >= c.cycle congruent to
// i modulo the old size.
func (c *Core) growEvents() {
	old := c.evRing
	oldSize := uint64(len(old))
	next := make([][]wbEvent, 2*len(old))
	for i := range old {
		if len(old[i]) == 0 {
			continue
		}
		cyc := c.cycle + (uint64(i)-c.cycle)%oldSize
		next[cyc&uint64(len(next)-1)] = old[i]
	}
	c.evRing = next
}

// clearEvents drops every pending event (full pipeline flush).
func (c *Core) clearEvents() {
	if c.evPending == 0 {
		return
	}
	for i := range c.evRing {
		c.evRing[i] = c.evRing[i][:0]
	}
	c.evPending = 0
}

// ---- fetch/load/store queue rings ----
//
// The three in-order queues were previously plain slices popped with
// q = q[1:], which discards capacity and reallocates on every refill. Each is
// now a fixed-capacity ring addressed by (head, count).

//repro:hotpath
func (c *Core) fetchQAt(i int) *fetchRec {
	j := c.fqHead + i
	if j >= len(c.fetchQ) {
		j -= len(c.fetchQ)
	}
	return &c.fetchQ[j]
}

//repro:hotpath
func (c *Core) fetchQPop() {
	c.fqHead++
	if c.fqHead == len(c.fetchQ) {
		c.fqHead = 0
	}
	c.fqCount--
}

//repro:hotpath
func (c *Core) lqAt(i int) *lqEntry {
	j := c.lqHead + i
	if j >= len(c.lq) {
		j -= len(c.lq)
	}
	return &c.lq[j]
}

//repro:hotpath
func (c *Core) lqPush(e lqEntry) {
	*c.lqAt(c.lqCnt) = e
	c.lqCnt++
}

//repro:hotpath
func (c *Core) lqPopFront() {
	c.lqHead++
	if c.lqHead == len(c.lq) {
		c.lqHead = 0
	}
	c.lqCnt--
}

//repro:hotpath
func (c *Core) sqAt(i int) *sqEntry {
	j := c.sqHead + i
	if j >= len(c.sq) {
		j -= len(c.sq)
	}
	return &c.sq[j]
}

//repro:hotpath
func (c *Core) sqPush(e sqEntry) {
	*c.sqAt(c.sqCnt) = e
	c.sqCnt++
}

//repro:hotpath
func (c *Core) sqPopFront() {
	c.sqHead++
	if c.sqHead == len(c.sq) {
		c.sqHead = 0
	}
	c.sqCnt--
}
