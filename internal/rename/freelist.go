package rename

import "repro/internal/recycle"

// freeRing is a circular free list designed for checkpoint/rollback.
// Allocation pops at the head; release pushes at the tail; the free
// registers are the ring slots in [head, tail).
//
// A branch checkpoint records only the head counter. Restoring the head
// returns every register allocated on the wrong path (their identities are
// still in the slots the head skipped over), while releases that happened
// after the checkpoint — pushed at the tail by committing instructions —
// are preserved. A naive slice snapshot would lose those releases and leak
// registers on every squash.
//
// The tail can never overwrite the region a restore needs: free count plus
// in-flight allocations is always strictly less than capacity while any
// architectural register is live.
type freeRing struct {
	buf        []PhysReg
	mask       uint64 // len(buf)-1; buf is sized to a power of two
	cap        int    // logical capacity (physical registers backing the ring)
	head, tail uint64 // absolute counters; free slots are [head, tail)
}

// resetRing returns f (or a new ring when f is nil) emptied and sized for
// capacity registers, reusing f's storage when it is large enough.
func resetRing(f *freeRing, capacity int) *freeRing {
	if f == nil {
		f = &freeRing{}
	}
	// Ring storage is rounded up to a power of two so the hot push/pop
	// index is a mask instead of a runtime division.
	n := 1
	for n < capacity {
		n <<= 1
	}
	*f = freeRing{buf: recycle.Zeroed(f.buf, n), mask: uint64(n - 1), cap: capacity}
	return f
}

//repro:hotpath
func (f *freeRing) len() int { return int(f.tail - f.head) }

//repro:hotpath
func (f *freeRing) push(p PhysReg) {
	if f.len() == f.cap {
		panic("rename: free list overflow (double free?)")
	}
	f.buf[f.tail&f.mask] = p
	f.tail++
}

//repro:hotpath
func (f *freeRing) pop() (PhysReg, bool) {
	if f.head == f.tail {
		return 0, false
	}
	p := f.buf[f.head&f.mask]
	f.head++
	return p, true
}

// mark returns the checkpoint cookie (the head counter).
//
//repro:hotpath
func (f *freeRing) mark() uint64 { return f.head }

// rewind restores the head to a cookie from mark, returning wrong-path
// allocations to the free pool.
//
//repro:hotpath
func (f *freeRing) rewind(mark uint64) {
	if mark > f.head {
		panic("rename: free list rewind into the future")
	}
	f.head = mark
}

// reset empties the ring (used when rebuilding from the retirement map).
func (f *freeRing) reset() { f.head, f.tail = 0, 0 }
