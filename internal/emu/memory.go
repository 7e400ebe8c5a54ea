package emu

import (
	"encoding/binary"
	"sort"

	"repro/internal/prog"
)

const (
	pageBits = prog.PageBits
	pageSize = prog.PageSize
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian 64-bit byte-addressable memory.
// Unwritten locations read as zero. The zero value is ready to use.
//
// Pages are copy-on-write. Each map entry carries an owned bit: an owned
// page is referenced by this memory alone and is written in place, while an
// unowned page may be shared — with a Program's data image, a Snapshot, or
// another Memory — and is copied before this memory's first write to it.
// Clone therefore costs one pointer per page, and so do program load,
// Snapshot and Restore.
//
// The hot word-granularity accessors (LoadWord64/StoreWord64) keep a
// one-entry page cache: workloads touch the same page many times in a row
// (stack frames, array walks), so most accesses skip the map probe entirely.
type Memory struct {
	pages map[uint64]pageRef
	owned int // entries with owned set; Freeze is a no-op at zero

	// Last-page cache. readTag is pn+1 for the page lastPage serves (0 =
	// empty, so the zero value needs no set-up); writeTag equals readTag
	// when this memory owns that page, else 0. Folding the writable bit
	// into its own tag keeps both word fast paths at one compare.
	readTag  uint64
	writeTag uint64
	lastPage *[pageSize]byte
}

// pageRef is one page-table entry: the backing page and whether this
// memory holds the only reference to it.
type pageRef struct {
	p     *[pageSize]byte
	owned bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]pageRef)}
}

// ProgramMemory returns a memory holding p's initial data image. The image
// pages are installed shared, so the cost is one map entry per page and the
// Program's pages are never written.
func ProgramMemory(p *prog.Program) *Memory {
	img := p.DataPages()
	m := &Memory{pages: make(map[uint64]pageRef, len(img))}
	for _, pg := range img {
		m.pages[pg.PN] = pageRef{p: pg.Data}
	}
	return m
}

// cache points the last-page cache at page pn.
func (m *Memory) cache(pn uint64, r pageRef) {
	m.readTag, m.lastPage = pn+1, r.p
	if r.owned {
		m.writeTag = pn + 1
	} else {
		m.writeTag = 0
	}
}

// readPage returns the page holding addr for reading, nil when it was never
// written.
func (m *Memory) readPage(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	r, ok := m.pages[pn]
	if !ok {
		return nil
	}
	m.cache(pn, r)
	return r.p
}

// writePage returns the page holding addr for writing: allocated when
// absent, copied first when shared.
func (m *Memory) writePage(addr uint64) *[pageSize]byte {
	if m.pages == nil {
		m.pages = make(map[uint64]pageRef)
	}
	pn := addr >> pageBits
	r := m.pages[pn]
	if !r.owned {
		np := new([pageSize]byte)
		if r.p != nil {
			*np = *r.p
		}
		r = pageRef{p: np, owned: true}
		m.pages[pn] = r
		m.owned++
	}
	m.cache(pn, r)
	return r.p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.readPage(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.writePage(addr)[addr&pageMask] = b
}

// LoadWord64 loads the 8-byte little-endian word at addr through the
// single-page fast path: when the word lies inside the cached page it is one
// bounds-checked slice read, with no map probe. Page-straddling accesses
// fall back to the byte loop.
func (m *Memory) LoadWord64(addr uint64) uint64 {
	off := addr & pageMask
	if off <= pageSize-8 {
		if addr>>pageBits+1 == m.readTag {
			return binary.LittleEndian.Uint64(m.lastPage[off : off+8])
		}
		if p := m.readPage(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// StoreWord64 stores an 8-byte little-endian word at addr through the
// single-page fast path (see LoadWord64); the fast path applies only to an
// owned cached page, so a shared page is always copied first.
func (m *Memory) StoreWord64(addr uint64, v uint64) {
	off := addr & pageMask
	if off <= pageSize-8 {
		if addr>>pageBits+1 == m.writeTag {
			binary.LittleEndian.PutUint64(m.lastPage[off:off+8], v)
			return
		}
		binary.LittleEndian.PutUint64(m.writePage(addr)[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// Read64 loads the 8-byte little-endian word at addr. The address must be
// 8-byte aligned; callers enforce alignment (the emulator faults first).
func (m *Memory) Read64(addr uint64) uint64 { return m.LoadWord64(addr) }

// Write64 stores an 8-byte little-endian word at addr.
func (m *Memory) Write64(addr uint64, v uint64) { m.StoreWord64(addr, v) }

// PageNumber returns the page index containing addr (used by the demand-
// paging fault model in the timing simulator).
func (m *Memory) PageNumber(addr uint64) uint64 { return addr >> pageBits }

// PageSize returns the page size in bytes.
func PageSize() uint64 { return pageSize }

// Clone returns a memory with the same contents. Pages are shared, not
// copied: Clone freezes m and the copy owns nothing, so whichever side
// writes a page first copies it. Cloning a frozen memory only reads it, so
// any number of goroutines may clone one frozen memory (a Snapshot's)
// concurrently.
func (m *Memory) Clone() *Memory {
	m.Freeze()
	c := &Memory{pages: make(map[uint64]pageRef, len(m.pages))}
	for pn, r := range m.pages {
		c.pages[pn] = r
	}
	return c
}

// Freeze gives up ownership of every page, so any later write — through
// this memory or another sharing its pages — copies the page first. It
// writes nothing when the memory is already frozen.
func (m *Memory) Freeze() {
	if m.owned == 0 {
		return
	}
	for pn, r := range m.pages {
		m.pages[pn] = pageRef{p: r.p}
	}
	m.owned, m.writeTag = 0, 0
}

// PageNumbers returns the numbers of every allocated page in ascending
// order — the deterministic iteration order the checkpoint format needs.
func (m *Memory) PageNumbers() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// PageData returns the raw 4 KiB backing array of page pn (nil when the page
// was never written). Callers must treat it as read-only.
func (m *Memory) PageData(pn uint64) *[pageSize]byte {
	return m.pages[pn].p
}

// SetPageData installs a copy of a full page image at page pn, replacing
// any prior contents. The checkpoint loader uses it to rebuild a memory
// without going through 4096 byte stores.
func (m *Memory) SetPageData(pn uint64, data *[pageSize]byte) {
	if m.pages == nil {
		m.pages = make(map[uint64]pageRef)
	}
	np := new([pageSize]byte)
	*np = *data
	if !m.pages[pn].owned {
		m.owned++
	}
	m.pages[pn] = pageRef{p: np, owned: true}
	m.readTag, m.writeTag, m.lastPage = 0, 0, nil
}
