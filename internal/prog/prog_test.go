package prog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

func mkProg(t *testing.T, insts []isa.Inst, data map[uint64]byte) *Program {
	t.Helper()
	p, err := New(insts, data, map[string]uint64{"start": TextBase})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFetchBounds(t *testing.T) {
	p := mkProg(t, []isa.Inst{{Op: isa.NOP}, {Op: isa.HALT}}, nil)
	if in, ok := p.Fetch(TextBase); !ok || in.Op != isa.NOP {
		t.Errorf("fetch entry: %v %v", in, ok)
	}
	if in, ok := p.Fetch(TextBase + 4); !ok || in.Op != isa.HALT {
		t.Errorf("fetch second: %v %v", in, ok)
	}
	if _, ok := p.Fetch(TextBase + 8); ok {
		t.Error("fetch past end succeeded")
	}
	if _, ok := p.Fetch(TextBase - 4); ok {
		t.Error("fetch before start succeeded")
	}
	if _, ok := p.Fetch(TextBase + 2); ok {
		t.Error("misaligned fetch succeeded")
	}
	if p.TextEnd() != TextBase+8 {
		t.Errorf("TextEnd = %#x", p.TextEnd())
	}
	if p.NumInsts() != 2 {
		t.Errorf("NumInsts = %d", p.NumInsts())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("empty program accepted")
	}
	bad := []isa.Inst{{Op: isa.Op(250)}}
	if _, err := New(bad, nil, nil); err == nil {
		t.Error("invalid instruction accepted")
	}
	overlap := map[uint64]byte{TextBase: 1}
	if _, err := New([]isa.Inst{{Op: isa.HALT}}, overlap, nil); err == nil {
		t.Error("data overlapping text accepted")
	}
}

func TestSymbolsSortedAndData(t *testing.T) {
	p, err := New([]isa.Inst{{Op: isa.HALT}},
		map[uint64]byte{DataBase: 0xAB, DataBase + 1: 0xCD},
		map[string]uint64{"zeta": 1, "alpha": 2})
	if err != nil {
		t.Fatal(err)
	}
	syms := p.Symbols()
	if len(syms) != 2 || syms[0] != "alpha" || syms[1] != "zeta" {
		t.Errorf("symbols = %v", syms)
	}
	if a, ok := p.Symbol("zeta"); !ok || a != 1 {
		t.Errorf("Symbol(zeta) = %d %v", a, ok)
	}
	if _, ok := p.Symbol("missing"); ok {
		t.Error("missing symbol found")
	}
	seen := map[uint64]byte{}
	p.InitialData(func(addr uint64, b byte) { seen[addr] = b })
	if seen[DataBase] != 0xAB || seen[DataBase+1] != 0xCD {
		t.Errorf("data = %v", seen)
	}
	if p.DataLen() != 2 {
		t.Errorf("DataLen = %d", p.DataLen())
	}
}

// TestDataImage: initialized bytes — zero-valued ones included — land in
// ascending pages, and InitialData walks exactly them in address order.
func TestDataImage(t *testing.T) {
	data := map[uint64]byte{
		DataBase + PageSize + 7: 0x11,
		DataBase:                0,
		DataBase + 3:            0xFF,
		HeapBase - 1:            0x22,
	}
	p, err := New([]isa.Inst{{Op: isa.HALT}}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	p.InitialData(func(a uint64, b byte) {
		if data[a] != b {
			t.Errorf("byte %#x = %#x, want %#x", a, b, data[a])
		}
		addrs = append(addrs, a)
	})
	want := []uint64{DataBase, DataBase + 3, DataBase + PageSize + 7, HeapBase - 1}
	if fmt.Sprint(addrs) != fmt.Sprint(want) || p.DataLen() != len(want) {
		t.Errorf("InitialData visits %#x (DataLen %d), want %#x", addrs, p.DataLen(), want)
	}
	pages := p.DataPages()
	if len(pages) != 3 || pages[0].PN != DataBase>>PageBits || pages[1].PN != pages[0].PN+1 ||
		pages[2].PN != (HeapBase-1)>>PageBits {
		t.Fatalf("pages = %+v", pages)
	}
	if pages[0].Data[3] != 0xFF || pages[1].Data[7] != 0x11 || pages[2].Data[PageSize-1] != 0x22 {
		t.Error("page contents do not match the initialized bytes")
	}
}

// TestOverlapReportsLowestAddress: with several data bytes inside the text
// section, the error names the lowest one regardless of map order.
func TestOverlapReportsLowestAddress(t *testing.T) {
	insts := make([]isa.Inst, 8)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.HALT}
	}
	data := map[uint64]byte{TextBase + 20: 1, TextBase + 4: 2, TextBase + 12: 3}
	for i := 0; i < 20; i++ {
		_, err := New(insts, data, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", TextBase+4)) {
			t.Fatalf("error = %v, want one naming %#x", err, TextBase+4)
		}
	}
}

func TestLayoutConstants(t *testing.T) {
	if !(TextBase < DataBase && DataBase < HeapBase && HeapBase < StackTop) {
		t.Error("memory layout regions out of order")
	}
}
