package memsys

import "repro/internal/recycle"

// DRAMConfig models a DDR3-1600-style part at the granularity that matters
// for a CPU study: open-row hits vs row conflicts, per-bank serialization,
// and a fixed controller overhead. Timings are expressed in CPU cycles
// (Table I: tCAS = tRCD = tRP = 13.75 ns ≈ 28 cycles at 2 GHz).
type DRAMConfig struct {
	Ranks        int
	BanksPerRank int
	RowBytes     uint64
	TCas         uint64 // column access (row already open)
	TRcd         uint64 // row activate
	TRp          uint64 // precharge (row conflict)
	Controller   uint64 // fixed queueing/controller overhead
}

// DefaultDRAMConfig mirrors Table I at a 2 GHz core clock.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Ranks:        2,
		BanksPerRank: 8,
		RowBytes:     8 * 1024,
		TCas:         28,
		TRcd:         28,
		TRp:          28,
		Controller:   20,
	}
}

type dramBank struct {
	openRow uint64
	hasOpen bool
	freeAt  uint64 // cycle when the bank can start a new access
}

// DRAM is the open-row timing model.
type DRAM struct {
	cfg   DRAMConfig
	banks []dramBank

	Accesses uint64
	RowHits  uint64
	RowMiss  uint64
}

// NewDRAM builds the bank state.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{}
	d.Reset(cfg)
	return d
}

// Reset puts d into the state NewDRAM(cfg) builds — no open rows, every
// bank idle, counters cleared — reusing its bank array when it is large
// enough.
func (d *DRAM) Reset(cfg DRAMConfig) {
	n := cfg.Ranks * cfg.BanksPerRank
	if n <= 0 || cfg.RowBytes == 0 {
		panic("memsys: bad DRAM config")
	}
	*d = DRAM{cfg: cfg, banks: recycle.Zeroed(d.banks, n)}
}

// Access returns the latency of a memory access beginning at cycle now,
// including bank queueing behind earlier requests.
func (d *DRAM) Access(addr uint64, now uint64) uint64 {
	d.Accesses++
	row := addr / d.cfg.RowBytes
	bank := &d.banks[row%uint64(len(d.banks))]

	start := now
	if bank.freeAt > start {
		start = bank.freeAt
	}
	var svc uint64
	switch {
	case bank.hasOpen && bank.openRow == row:
		d.RowHits++
		svc = d.cfg.TCas
	case bank.hasOpen:
		d.RowMiss++
		svc = d.cfg.TRp + d.cfg.TRcd + d.cfg.TCas
	default:
		d.RowMiss++
		svc = d.cfg.TRcd + d.cfg.TCas
	}
	bank.openRow = row
	bank.hasOpen = true
	bank.freeAt = start + svc
	return (start - now) + svc + d.cfg.Controller
}

// RowHitRate reports the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}
