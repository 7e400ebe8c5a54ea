package memsys

import "repro/internal/recycle"

// TLBConfig sizes the fully-associative L1 TLB (Table I: 48 entries) and the
// page-walk cost charged on a miss.
type TLBConfig struct {
	Entries     int
	PageBytes   uint64
	WalkLatency uint64
}

// DefaultTLBConfig mirrors Table I with a 30-cycle hardware walk.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 48, PageBytes: 4096, WalkLatency: 30}
}

type tlbEntry struct {
	page  uint64
	valid bool
	lru   uint64
}

// TLB is a fully-associative, LRU translation buffer. It models latency
// only; the simulated machine is physically addressed.
type TLB struct {
	cfg      TLBConfig
	entries  []tlbEntry
	lruClock uint64

	Hits   uint64
	Misses uint64
}

// NewTLB builds an empty TLB.
func NewTLB(cfg TLBConfig) *TLB {
	t := &TLB{}
	t.Reset(cfg)
	return t
}

// Reset puts t into the state NewTLB(cfg) builds, reusing its entry array
// when it is large enough.
func (t *TLB) Reset(cfg TLBConfig) {
	if cfg.Entries <= 0 || cfg.PageBytes == 0 {
		panic("memsys: bad TLB config")
	}
	*t = TLB{cfg: cfg, entries: recycle.Zeroed(t.entries, cfg.Entries)}
}

// Access translates addr, returning the extra latency (0 on a hit, the walk
// latency on a miss) and whether it missed.
func (t *TLB) Access(addr uint64) (extra uint64, miss bool) {
	page := addr / t.cfg.PageBytes
	t.lruClock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.lruClock
			t.Hits++
			return 0, false
		}
	}
	t.Misses++
	victim := &t.entries[0]
	for i := 1; i < len(t.entries); i++ {
		e := &t.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = tlbEntry{page: page, valid: true, lru: t.lruClock}
	return t.cfg.WalkLatency, true
}

// Flush invalidates all entries (taken on exception handler entry).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// PageBytes returns the configured page size.
func (t *TLB) PageBytes() uint64 { return t.cfg.PageBytes }
