package workloads

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// maxInsts bounds any single small-scale workload in tests.
const maxInsts = 30_000_000

func TestSmallWorkloadsMatchReference(t *testing.T) {
	for _, w := range Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Program()
			s := emu.New(p)
			n, err := s.RunToHalt(maxInsts, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got := s.X[CheckReg]; got != w.Want {
				t.Errorf("%s: checksum = %#x, want %#x", w.Name, got, w.Want)
			}
			if n < 5_000 {
				t.Errorf("%s: only %d dynamic instructions; too small to be meaningful", w.Name, n)
			}
			t.Logf("%s: %d dynamic instructions", w.Name, n)
		})
	}
}

func TestReferenceScaleWorkloadsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference scale in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := emu.New(w.Program())
			n, err := s.RunToHalt(200_000_000, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got := s.X[CheckReg]; got != w.Want {
				t.Errorf("%s: checksum = %#x, want %#x", w.Name, got, w.Want)
			}
			t.Logf("%s: %d dynamic instructions", w.Name, n)
		})
	}
}

// TestHashJoinScale3 covers a scale whose 2048*scale² table size is not a
// power of two: generation must still terminate (the table is rounded up
// for the slot mask) and the program must reproduce the reference checksum.
func TestHashJoinScale3(t *testing.T) {
	done := make(chan Workload, 1)
	go func() {
		w, _ := ByName("hashjoin", 3)
		done <- w
	}()
	var w Workload
	select {
	case w = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ByName(hashjoin, 3) did not return")
	}
	s := emu.New(w.Program())
	if _, err := s.RunToHalt(maxInsts, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("hashjoin@3 did not reach HALT")
	}
	if got := s.X[CheckReg]; got != w.Want {
		t.Errorf("hashjoin@3: checksum = %#x, want %#x", got, w.Want)
	}
}

func TestRegistryLookups(t *testing.T) {
	names := Names()
	if len(names) != 33 {
		t.Errorf("expected 33 workloads, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload name %q", n)
		}
		seen[n] = true
		if _, ok := ByName(n, 1); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("nonexistent", 1); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestSuiteGrouping(t *testing.T) {
	bySuite := BySuite(Small())
	wantMin := map[Suite]int{SPECint: 11, SPECfp: 11, Media: 7, Cognitive: 4}
	for s, min := range wantMin {
		if len(bySuite[s]) < min {
			t.Errorf("suite %s has %d workloads, want >= %d", s, len(bySuite[s]), min)
		}
	}
	for _, s := range Suites() {
		if got := SuiteOf(s, 1); len(got) != len(bySuite[s]) {
			t.Errorf("SuiteOf(%s) = %d workloads, BySuite = %d", s, len(got), len(bySuite[s]))
		}
	}
}

func TestScalesDiffer(t *testing.T) {
	small, _ := ByName("hashjoin", 1)
	big, _ := ByName("hashjoin", 4)
	if small.Source == big.Source {
		t.Error("scale parameter has no effect on hashjoin")
	}
	if small.Want == 0 || big.Want == 0 {
		t.Error("degenerate zero checksums")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := All()
	b := All()
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Want != b[i].Want {
			t.Errorf("%s: generation is not deterministic", a[i].Name)
		}
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, w := range Small() {
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
		if w.Suite == "" {
			t.Errorf("%s: missing suite", w.Name)
		}
	}
}

// TestDisassemblyRoundTrip: re-assembling every workload's disassembly
// (instruction String() forms, with absolute branch targets) must reproduce
// the identical instruction sequence — a strong property tying the
// assembler, the disassembler and the ISA together.
func TestDisassemblyRoundTrip(t *testing.T) {
	for _, w := range Small() {
		p := w.Program()
		var sb strings.Builder
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			in, ok := p.Fetch(pc)
			if !ok {
				t.Fatalf("%s: fetch hole at %#x", w.Name, pc)
			}
			sb.WriteString(in.String())
			sb.WriteByte('\n')
		}
		p2, err := asm.Assemble(sb.String())
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v", w.Name, err)
		}
		if p2.NumInsts() != p.NumInsts() {
			t.Fatalf("%s: %d instructions reassembled, want %d", w.Name, p2.NumInsts(), p.NumInsts())
		}
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			a, _ := p.Fetch(pc)
			b, _ := p2.Fetch(pc)
			if a != b {
				t.Fatalf("%s: instruction mismatch at %#x: %v vs %v", w.Name, pc, a, b)
			}
		}
	}
}

// TestBinaryEncodingRoundTrip serializes every workload instruction through
// the 12-byte record format and back.
func TestBinaryEncodingRoundTrip(t *testing.T) {
	var buf [isa.EncodedBytes]byte
	for _, w := range Small() {
		p := w.Program()
		for pc := p.Entry(); pc < p.TextEnd(); pc += 4 {
			in, _ := p.Fetch(pc)
			isa.Encode(in, buf[:])
			out, err := isa.Decode(buf[:])
			if err != nil {
				t.Fatalf("%s: decode at %#x: %v", w.Name, pc, err)
			}
			if out != in {
				t.Fatalf("%s: codec mismatch at %#x: %v vs %v", w.Name, pc, in, out)
			}
		}
	}
}

// TestByNameMemoized: after the first call, ByName hands back the cached
// workload instead of re-running the generator (which allocates thousands
// of times building the source text), at every scale and in any order
// relative to All/Small.
func TestByNameMemoized(t *testing.T) {
	first, _ := ByName("listwalk", 2) // a scale no other test here populates
	allocs := testing.AllocsPerRun(20, func() {
		if w, _ := ByName("listwalk", 2); unsafe.StringData(w.Source) != unsafe.StringData(first.Source) {
			t.Fatal("ByName regenerated the workload")
		}
	})
	if allocs != 0 {
		t.Errorf("repeated ByName allocates %.0f times per call; want 0 (memoized)", allocs)
	}
	for _, w := range Small() {
		got, _ := ByName(w.Name, 1)
		if unsafe.StringData(got.Source) != unsafe.StringData(w.Source) {
			t.Errorf("%s: ByName and Small hold different generated sources", w.Name)
		}
	}
}

// TestDataPagesMatchInitialData: every workload's page image holds exactly
// the initialized bytes InitialData reports, zero elsewhere, in ascending
// non-repeating pages.
func TestDataPagesMatchInitialData(t *testing.T) {
	for _, w := range Small() {
		p := w.Program()
		want := map[uint64]byte{}
		var prev uint64
		p.InitialData(func(a uint64, b byte) {
			if len(want) > 0 && a <= prev {
				t.Fatalf("%s: InitialData not ascending at %#x", w.Name, a)
			}
			prev = a
			want[a] = b
		})
		if len(want) != p.DataLen() {
			t.Fatalf("%s: InitialData yields %d bytes, DataLen %d", w.Name, len(want), p.DataLen())
		}
		covered := 0
		for i, pg := range p.DataPages() {
			if i > 0 && pg.PN <= p.DataPages()[i-1].PN {
				t.Fatalf("%s: pages not ascending at PN %#x", w.Name, pg.PN)
			}
			for off, b := range pg.Data {
				a := pg.PN<<prog.PageBits + uint64(off)
				v, ok := want[a]
				if ok {
					covered++
				}
				if b != v {
					t.Fatalf("%s: page byte %#x = %#x, InitialData %#x (initialized %v)", w.Name, a, b, v, ok)
				}
			}
		}
		if covered != len(want) {
			t.Fatalf("%s: pages cover %d of %d initialized bytes", w.Name, covered, len(want))
		}
	}
}
