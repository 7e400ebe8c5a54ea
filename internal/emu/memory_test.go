package emu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x1234560) != 0 {
		t.Error("unwritten memory not zero")
	}
	if m.LoadByte(99) != 0 {
		t.Error("unwritten byte not zero")
	}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	f := func(addr uint64, val uint64) bool {
		addr &= 0x7FFF_FFF8 // aligned, bounded
		m := NewMemory()
		m.Write64(addr, val)
		return m.Read64(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	// 8-byte value straddling a 4 KB page boundary (byte granularity path).
	addr := uint64(4096 - 4)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.LoadByte(4095) != 0x55 || m.LoadByte(4096) != 0x44 {
		t.Errorf("byte split wrong: %#x %#x", m.LoadByte(4095), m.LoadByte(4096))
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	r := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 50)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<20)) &^ 7
		m.Write64(addrs[i], uint64(i)*3)
	}
	c := m.Clone()
	for i, a := range addrs {
		if c.Read64(a) != uint64(i)*3 {
			t.Fatalf("clone missing value at %#x", a)
		}
	}
	// Mutating the clone must not affect the original.
	c.Write64(addrs[0], 999)
	if m.Read64(addrs[0]) == 999 {
		t.Error("clone aliases original")
	}
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var m Memory
	if m.Read64(64) != 0 {
		t.Error("zero-value read")
	}
	m.Write64(64, 42)
	if m.Read64(64) != 42 {
		t.Error("zero-value write")
	}
}

func TestPageNumber(t *testing.T) {
	m := NewMemory()
	if m.PageNumber(4095) != 0 || m.PageNumber(4096) != 1 {
		t.Error("page arithmetic")
	}
	if PageSize() != 4096 {
		t.Errorf("page size = %d", PageSize())
	}
}

// BenchmarkLoadWord64 measures the single-page word fast path against the
// eight-byte-probe loop it replaced (simulated here via LoadByte), on the
// sequential same-page pattern the emulator's stack and array traffic shows.
func BenchmarkLoadWord64(b *testing.B) {
	m := NewMemory()
	for a := uint64(0); a < 1<<16; a += 8 {
		m.StoreWord64(a, a)
	}
	b.Run("fastpath", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += m.LoadWord64(uint64(i*8) & 0xFFF8)
		}
		benchSink = sink
	})
	b.Run("byteloop", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i*8) & 0xFFF8
			var v uint64
			for j := uint64(0); j < 8; j++ {
				v |= uint64(m.LoadByte(addr+j)) << (8 * j)
			}
			sink += v
		}
		benchSink = sink
	})
}

func BenchmarkStoreWord64(b *testing.B) {
	m := NewMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StoreWord64(uint64(i*8)&0xFFF8, uint64(i))
	}
}

var benchSink uint64

// TestWordFastPathStraddle pins the fallback: a word write straddling two
// pages must land byte-exactly where eight byte stores would put it.
func TestWordFastPathStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(2*4096 - 4)
	m.StoreWord64(addr, 0x1122334455667788)
	for i, want := range []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11} {
		if got := m.LoadByte(addr + uint64(i)); got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	if got := m.LoadWord64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling load = %#x", got)
	}
}

// TestWordFastPathCacheInvalidation: SetPageData must not leave a stale
// cached page pointer serving reads of replaced contents.
func TestWordFastPathCacheInvalidation(t *testing.T) {
	m := NewMemory()
	m.StoreWord64(0x1000, 0xAA) // caches page 1
	var page [4096]byte
	page[0] = 0xBB
	m.SetPageData(1, &page)
	if got := m.LoadWord64(0x1000); got != 0xBB {
		t.Fatalf("read after SetPageData = %#x, want 0xBB", got)
	}
}

// TestCopyOnWriteIsolation: a clone, its source, and machines restored from
// one snapshot share pages until written, and no write through any of them
// shows through to another.
func TestCopyOnWriteIsolation(t *testing.T) {
	const a, b = 0x2000, 0x2008 // same page
	m := NewMemory()
	m.StoreWord64(a, 1)
	m.StoreWord64(b, 2)

	c := m.Clone()
	if c.PageData(2) != m.PageData(2) {
		t.Fatal("clone copied a page instead of sharing it")
	}
	c.StoreWord64(a, 10)
	m.StoreWord64(b, 20) // m cached page 2 as writable before the Clone
	if m.LoadWord64(a) != 1 || c.LoadWord64(b) != 2 {
		t.Fatalf("writes crossed: source a=%d, clone b=%d", m.LoadWord64(a), c.LoadWord64(b))
	}
	if c.LoadWord64(a) != 10 || m.LoadWord64(b) != 20 {
		t.Fatalf("writes lost: clone a=%d, source b=%d", c.LoadWord64(a), m.LoadWord64(b))
	}

	// Byte stores and fresh pages go through the same ownership check.
	d := c.Clone()
	d.StoreByte(a, 0xEE)
	d.StoreWord64(0x9000, 7)
	if c.LoadByte(a) != 10 || c.LoadWord64(0x9000) != 0 {
		t.Fatal("byte store or new page leaked from clone of clone")
	}

	// Machines restored from one snapshot diverge independently, and the
	// snapshot itself never changes.
	s := &State{Mem: m}
	sn := s.Snapshot()
	r1, r2 := &State{}, &State{}
	r1.Restore(sn)
	r2.Restore(sn)
	r1.Mem.StoreWord64(a, 100)
	r2.Mem.StoreWord64(a, 200)
	s.Mem.StoreWord64(a, 300)
	if got := [4]uint64{sn.Mem.LoadWord64(a), r1.Mem.LoadWord64(a), r2.Mem.LoadWord64(a), s.Mem.LoadWord64(a)}; got != [4]uint64{1, 100, 200, 300} {
		t.Fatalf("snapshot/restored/source a = %v, want [1 100 200 300]", got)
	}
}

// TestFreezeMakesCloneReadOnly: cloning a frozen memory must not write to
// it (the race-freedom argument for concurrent boots from one snapshot).
func TestFreezeMakesCloneReadOnly(t *testing.T) {
	m := NewMemory()
	m.StoreWord64(0x1000, 1)
	m.StoreWord64(0x5000, 2)
	m.Freeze()
	before := m.pages[1]
	for i := 0; i < 3; i++ {
		m.Clone().StoreWord64(0x1000, uint64(10+i))
	}
	if m.pages[1] != before || m.LoadWord64(0x1000) != 1 {
		t.Fatal("Clone or a clone's store modified a frozen memory")
	}
	for pn, r := range m.pages {
		if r.owned {
			t.Fatalf("frozen memory owns page %d", pn)
		}
	}
}

// TestNewAllocsBoundedByPages: loading a program installs page pointers,
// so emu.New allocates per page (the map), not per initialized byte.
func TestNewAllocsBoundedByPages(t *testing.T) {
	p := assembleWorkload(t, "listwalk", 4)
	pages := len(p.DataPages())
	if p.DataLen() < 100*pages {
		t.Fatalf("workload too sparse to tell pages from bytes: %d bytes in %d pages", p.DataLen(), pages)
	}
	allocs := testing.AllocsPerRun(20, func() { New(p) })
	if allocs > float64(pages) {
		t.Errorf("emu.New: %.0f allocs for %d pages (%d initialized bytes)", allocs, pages, p.DataLen())
	}
}
