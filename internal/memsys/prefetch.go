package memsys

import "repro/internal/recycle"

// StridePrefetcher is a PC-indexed stride prefetcher (Table I: degree 1).
// Each table entry tracks the last address and stride seen by one load/store
// PC; after two consistent strides it becomes confident and emits prefetch
// addresses degree lines ahead.
type StridePrefetcher struct {
	entries []strideEntry
	degree  int
	buf     []uint64 // reused Observe result buffer

	Issued uint64
}

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     uint8
	valid    bool
}

// NewStridePrefetcher builds a direct-mapped table of the given size.
func NewStridePrefetcher(tableSize, degree int) *StridePrefetcher {
	p := &StridePrefetcher{}
	p.Reset(tableSize, degree)
	return p
}

// Reset puts p into the state NewStridePrefetcher(tableSize, degree)
// builds, reusing its arrays when they are large enough.
func (p *StridePrefetcher) Reset(tableSize, degree int) {
	if tableSize <= 0 || degree <= 0 {
		panic("memsys: bad prefetcher config")
	}
	*p = StridePrefetcher{
		entries: recycle.Zeroed(p.entries, tableSize),
		degree:  degree,
		buf:     recycle.Empty(p.buf, degree),
	}
}

// Observe records a demand access by the instruction at pc and returns the
// addresses to prefetch (nil most of the time). The returned slice aliases
// an internal buffer and is only valid until the next call.
func (p *StridePrefetcher) Observe(pc, addr uint64) []uint64 {
	e := &p.entries[(pc>>2)%uint64(len(p.entries))]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAddr = addr
	if e.conf < 2 {
		return nil
	}
	out := p.buf[:0]
	for d := 1; d <= p.degree; d++ {
		next := int64(addr) + int64(d)*e.stride
		if next <= 0 {
			break
		}
		// Only cross-line prefetches are useful.
		if uint64(next)/LineBytes != addr/LineBytes {
			out = append(out, uint64(next))
			p.Issued++
		}
	}
	return out
}
