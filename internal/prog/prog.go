// Package prog represents a loaded program: an instruction image, an initial
// data image, an entry point, and a symbol table. It is the interface between
// the assembler, the functional emulator, and the timing simulator.
//
//repro:deterministic
package prog

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/isa"
)

// Default memory layout. Text and data live in disjoint regions of a flat
// 64-bit address space.
const (
	// TextBase is the address of the first instruction.
	TextBase uint64 = 0x0000_1000
	// DataBase is the address where the assembled data section begins.
	DataBase uint64 = 0x0010_0000
	// HeapBase is scratch space above the data section that workloads may
	// use freely (the assembler never places anything here).
	HeapBase uint64 = 0x0100_0000
	// StackTop is the initial stack pointer handed to programs in x29.
	StackTop uint64 = 0x0800_0000
)

// The initial data image is kept in pages of this size — the same page the
// emulator's memory uses, so a machine boots by installing page pointers.
const (
	PageBits = 12
	PageSize = 1 << PageBits
)

// DataPage is one page of a Program's initial data image: page number PN
// (address >> PageBits) and its contents, uninitialized bytes reading zero.
// Data is shared by every machine booted from the Program and must never be
// written.
type DataPage struct {
	PN   uint64
	Data *[PageSize]byte
	init *initMask
}

// initMask marks which bytes of one DataPage the program initialized: bit
// i%64 of word i/64 is set for byte offset i. It keeps InitialData and
// DataLen exact (an initialized zero byte is distinct from an untouched one)
// without a per-byte map.
type initMask [PageSize / 64]uint64

// Program is an immutable loaded program.
type Program struct {
	insts   []isa.Inst
	uops    *UOpTable
	pages   []DataPage // ascending PN
	dataLen int
	symbols map[string]uint64
	entry   uint64
}

// New builds a Program from the given instruction sequence (laid out
// contiguously from TextBase), initial data bytes keyed by absolute address,
// and symbol table. The entry point is TextBase.
func New(insts []isa.Inst, data map[uint64]byte, symbols map[string]uint64) (*Program, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("prog: empty program")
	}
	for i, in := range insts {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("prog: instruction %d: %w", i, err)
		}
	}
	pages, err := buildImage(data, TextBase+uint64(len(insts)*isa.InstBytes))
	if err != nil {
		return nil, err
	}
	s := make(map[string]uint64, len(symbols))
	for k, v := range symbols {
		s[k] = v
	}
	return &Program{
		insts: insts, uops: buildUOps(insts),
		pages: pages, dataLen: len(data),
		symbols: s, entry: TextBase,
	}, nil
}

// buildImage lays the initialized bytes out as ascending pages. Each byte
// lands in its own slot, so filling the pages in map order is harmless; the
// text-overlap check then scans the finished image in ascending address
// order, so the reported byte does not depend on map iteration order.
func buildImage(data map[uint64]byte, textEnd uint64) ([]DataPage, error) {
	present := make(map[uint64]bool)
	for a := range data {
		present[a>>PageBits] = true
	}
	pns := make([]uint64, 0, len(present))
	for pn := range present {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	pages := make([]DataPage, len(pns))
	byPN := make(map[uint64]*DataPage, len(pns))
	for i, pn := range pns {
		pages[i] = DataPage{PN: pn, Data: new([PageSize]byte), init: new(initMask)}
		byPN[pn] = &pages[i]
	}
	for a, b := range data {
		pg := byPN[a>>PageBits]
		off := a & (PageSize - 1)
		pg.Data[off] = b
		pg.init[off/64] |= 1 << (off % 64)
	}
	var err error
	eachInit(pages, func(a uint64, _ byte) {
		if err == nil && a >= TextBase && a < textEnd {
			err = fmt.Errorf("prog: data byte at %#x overlaps text", a)
		}
	})
	if err != nil {
		return nil, err
	}
	return pages, nil
}

// eachInit calls fn for every initialized byte of the image in ascending
// address order.
func eachInit(pages []DataPage, fn func(addr uint64, b byte)) {
	for _, pg := range pages {
		base := pg.PN << PageBits
		for w, m := range pg.init {
			for m != 0 {
				off := uint64(w*64 + bits.TrailingZeros64(m))
				fn(base+off, pg.Data[off])
				m &= m - 1
			}
		}
	}
}

// Entry returns the entry-point PC.
func (p *Program) Entry() uint64 { return p.entry }

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }

// TextEnd returns the first address past the text section.
func (p *Program) TextEnd() uint64 { return TextBase + uint64(len(p.insts)*isa.InstBytes) }

// Fetch returns the instruction at pc. ok is false when pc lies outside the
// text section or is misaligned — the simulator treats such fetches as
// wrong-path bubbles, and the emulator treats them as a crash.
//
// Instructions were validated once at New, so fetch is pure index
// arithmetic: pc < TextBase wraps the subtraction around to a huge index
// that the single length comparison rejects, covering both ends of the text
// section with one branch.
func (p *Program) Fetch(pc uint64) (isa.Inst, bool) {
	idx := (pc - TextBase) / isa.InstBytes
	if idx >= uint64(len(p.insts)) || pc&(isa.InstBytes-1) != 0 {
		return isa.Inst{}, false
	}
	return p.insts[idx], true
}

// Insts exposes the pre-decoded text image for fast-forward interpreters
// that index it directly instead of calling Fetch per instruction. Callers
// must treat the slice as read-only.
func (p *Program) Insts() []isa.Inst { return p.insts }

// Symbol resolves a label to its address.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.symbols[name]
	return a, ok
}

// Symbols returns the symbol names in deterministic (sorted) order.
func (p *Program) Symbols() []string {
	names := make([]string, 0, len(p.symbols))
	for n := range p.symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InitialData invokes fn for every initialized data byte in ascending
// address order, so consumers (checkpoint digests) observe a deterministic
// sequence.
func (p *Program) InitialData(fn func(addr uint64, b byte)) { eachInit(p.pages, fn) }

// DataLen returns the number of initialized data bytes.
func (p *Program) DataLen() int { return p.dataLen }

// DataPages returns the initial data image as pages in ascending PN order.
// The slice and every page it points to are shared by all machines booted
// from p; callers must treat both as read-only (emu.Memory installs the
// pages copy-on-write).
func (p *Program) DataPages() []DataPage { return p.pages }
