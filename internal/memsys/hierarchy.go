package memsys

// Config assembles the full hierarchy (Table I defaults in DefaultConfig).
type Config struct {
	L1I  CacheConfig
	L1D  CacheConfig
	L2   CacheConfig
	TLB  TLBConfig
	DRAM DRAMConfig
	// PrefetchDegree is the stride-prefetcher degree (Table I: 1); zero
	// disables prefetching.
	PrefetchDegree int
}

// DefaultConfig mirrors the paper's Table I.
func DefaultConfig() Config {
	return Config{
		L1I:            CacheConfig{Name: "L1I", SizeBytes: 48 * 1024, Assoc: 3, HitLatency: 1},
		L1D:            CacheConfig{Name: "L1D", SizeBytes: 32 * 1024, Assoc: 2, HitLatency: 1},
		L2:             CacheConfig{Name: "L2", SizeBytes: 1024 * 1024, Assoc: 16, HitLatency: 12},
		TLB:            DefaultTLBConfig(),
		DRAM:           DefaultDRAMConfig(),
		PrefetchDegree: 1,
	}
}

// Hierarchy ties the levels together and exposes the two operations the
// pipeline needs: instruction-fetch latency and data-access latency.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	TLB  *TLB
	DRAM *DRAM
	Pref *StridePrefetcher
}

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(cfg)
	return h
}

// Reset puts h into the state New(cfg) builds: every cache, TLB entry and
// prefetcher slot invalid, every DRAM bank idle, all counters cleared. The
// level objects and their arrays are reused wherever they are large
// enough, so resetting for an unchanged cfg allocates nothing.
func (h *Hierarchy) Reset(cfg Config) {
	h.L1I = resetCache(h.L1I, cfg.L1I)
	h.L1D = resetCache(h.L1D, cfg.L1D)
	h.L2 = resetCache(h.L2, cfg.L2)
	if h.TLB == nil {
		h.TLB = &TLB{}
	}
	h.TLB.Reset(cfg.TLB)
	if h.DRAM == nil {
		h.DRAM = &DRAM{}
	}
	h.DRAM.Reset(cfg.DRAM)
	if cfg.PrefetchDegree <= 0 {
		h.Pref = nil
		return
	}
	if h.Pref == nil {
		h.Pref = &StridePrefetcher{}
	}
	h.Pref.Reset(64, cfg.PrefetchDegree)
}

func resetCache(c *Cache, cfg CacheConfig) *Cache {
	if c == nil {
		c = &Cache{}
	}
	c.Reset(cfg)
	return c
}

// fillFromL2 charges the L2 (and DRAM beyond it) for a line fill and
// installs the line in the given L1. It returns the added latency.
func (h *Hierarchy) fillFromL2(l1 *Cache, addr uint64, write bool, now uint64, prefetch bool) uint64 {
	lat := h.L2.HitLatency()
	if !h.L2.Access(addr, false) {
		lat += h.DRAM.Access(addr, now+lat)
		if h.L2.Fill(addr, false, prefetch) {
			// Dirty L2 victim: model the writeback as a DRAM access in the
			// background (bank occupancy) without charging the reader.
			h.DRAM.Access(addr^0x40000, now+lat)
		}
	}
	if l1.Fill(addr, write, prefetch) {
		// Dirty L1 victim written back into L2; charge nothing (write
		// buffer), but keep L2 state truthful.
		h.L2.Access(addr, true)
	}
	return lat
}

// FetchLatency returns the latency of fetching the instruction line at pc,
// starting at cycle now.
func (h *Hierarchy) FetchLatency(pc uint64, now uint64) uint64 {
	lat := h.L1I.HitLatency()
	if !h.L1I.Access(pc, false) {
		lat += h.fillFromL2(h.L1I, pc, false, now, false)
	}
	return lat
}

// DataAccess returns the latency of a load or store to addr starting at
// cycle now, including TLB translation, and reports whether the TLB missed.
// The stride prefetcher observes every access (keyed by the load/store PC)
// and may install the next line into the L1D.
func (h *Hierarchy) DataAccess(pc, addr uint64, write bool, now uint64) (lat uint64, tlbMiss bool) {
	extra, miss := h.TLB.Access(addr)
	lat = extra + h.L1D.HitLatency()
	if !h.L1D.Access(addr, write) {
		lat += h.fillFromL2(h.L1D, addr, write, now, false)
	}
	if h.Pref != nil {
		for _, pf := range h.Pref.Observe(pc, addr) {
			if !h.L1D.Lookup(pf) {
				// Prefetches ride the bus in the background: install the
				// line and charge DRAM bank occupancy, not the load.
				if !h.L2.Access(pf, false) {
					h.DRAM.Access(pf, now)
					h.L2.Fill(pf, false, true)
				}
				h.L1D.Fill(pf, false, true)
			}
		}
	}
	return lat, miss
}
