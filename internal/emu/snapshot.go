package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Snapshot is a complete architectural checkpoint of a machine: registers,
// PC, memory image, and the dynamic instruction count at which it was taken.
// It carries no microarchitectural state, so any simulator — the functional
// emulator or the detailed core — can boot from it and continue the same
// program mid-stream (internal/ckpt serializes it to disk).
type Snapshot struct {
	X         [isa.NumIntRegs]uint64
	F         [isa.NumFPRegs]float64
	PC        uint64
	InstCount uint64
	Halted    bool
	Mem       *Memory // frozen: owns no pages, so it is only ever cloned
}

// Snapshot captures the machine's architectural state. The memory is cloned
// copy-on-write: the snapshot and the machine share every page, neither
// owns any, and whichever machine writes a page later copies it first. The
// snapshot stays valid as the machine runs on, and any number of machines
// may boot from it concurrently.
func (s *State) Snapshot() *Snapshot {
	return &Snapshot{
		X:         s.X,
		F:         s.F,
		PC:        s.PC,
		InstCount: s.count,
		Halted:    s.halted,
		Mem:       s.Mem.Clone(),
	}
}

// Restore rewinds (or fast-forwards) the machine to a snapshot. The loaded
// program is unchanged; only architectural state moves. The memory is a
// copy-on-write clone, so Restore costs O(pages) and never writes sn.
func (s *State) Restore(sn *Snapshot) {
	s.X = sn.X
	s.F = sn.F
	s.PC = sn.PC
	s.count = sn.InstCount
	s.halted = sn.Halted
	s.Mem = sn.Mem.Clone()
}

// NewFromSnapshot creates a machine running p whose architectural state is
// the snapshot's — the mid-program analogue of New. The caller is
// responsible for p being the same program the snapshot was taken from
// (internal/ckpt enforces this with a content digest).
func NewFromSnapshot(p *prog.Program, sn *Snapshot) *State {
	s := &State{prog: p}
	s.Restore(sn)
	return s
}

// Equal reports whether two snapshots describe the same architectural state
// (registers compared bit-exactly, NaN payloads included; memories compared
// page by page with absent pages reading as zero).
func (sn *Snapshot) Equal(o *Snapshot) bool {
	if sn.PC != o.PC || sn.InstCount != o.InstCount || sn.Halted != o.Halted {
		return false
	}
	for i := range sn.X {
		if sn.X[i] != o.X[i] {
			return false
		}
	}
	for i := range sn.F {
		if math.Float64bits(sn.F[i]) != math.Float64bits(o.F[i]) {
			return false
		}
	}
	return memEqual(sn.Mem, o.Mem) && memEqual(o.Mem, sn.Mem)
}

// memEqual checks every page of a against the corresponding bytes of b.
func memEqual(a, b *Memory) bool {
	for _, pn := range a.PageNumbers() {
		pa := a.PageData(pn)
		pb := b.PageData(pn)
		if pb == nil {
			for _, v := range pa {
				if v != 0 {
					return false
				}
			}
			continue
		}
		if *pa != *pb {
			return false
		}
	}
	return true
}

// String summarizes a snapshot for diagnostics.
func (sn *Snapshot) String() string {
	return fmt.Sprintf("snapshot{inst=%d pc=%#x halted=%v pages=%d}",
		sn.InstCount, sn.PC, sn.Halted, len(sn.Mem.PageNumbers()))
}
