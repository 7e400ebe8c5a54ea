package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/workloads"
)

func assemble(t testing.TB, name string, scale int) *prog.Program {
	t.Helper()
	w, ok := workloads.ByName(name, scale)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestProgramDigestSensitivity(t *testing.T) {
	base := assemble(t, "poly_horner", 1)
	same := assemble(t, "poly_horner", 1)
	if ProgramDigest(base) != ProgramDigest(same) {
		t.Fatal("identical programs must digest equal")
	}
	if ProgramDigest(base) == ProgramDigest(assemble(t, "poly_horner", 2)) {
		t.Fatal("different scale must digest differently")
	}
	if ProgramDigest(base) == ProgramDigest(assemble(t, "fir", 1)) {
		t.Fatal("different workloads must digest differently")
	}

	// A single changed data byte must flip the digest.
	a, err := asm.Assemble("movi x1, #1\nhalt\n.data\ndata: .word 7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Assemble("movi x1, #1\nhalt\n.data\ndata: .word 8")
	if err != nil {
		t.Fatal(err)
	}
	if ProgramDigest(a) == ProgramDigest(b) {
		t.Fatal("changed data byte must flip digest")
	}
}

// TestProgramDigestPinned pins the digests of fixed workloads to values
// recorded before the data image moved from a per-byte map to shared pages.
// Every checkpoint key is derived from this digest, so a change here would
// silently orphan every stored checkpoint.
func TestProgramDigestPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale int
		want  string
	}{
		{"dgemm", 1, "2ed9e4b5679ef1a85f2ff1aec5e19fff6738fdf5c1562098f694f9f78832410a"},
		{"listwalk", 4, "b56e8dcbc0a929a1a8daa9fd6d430e02ee97e981f9b975b9a5852e4e4dc07c9a"},
		{"hashjoin", 1, "6880a2884815fe74036f6bf3bb1dcdac0fa9d5307506890d4842bbbbef8ea96b"},
		{"hashjoin", 2, "188a86c8f7aa2fcf96fa62a876359798f3e9e1bef03050777c9356b72c6e153b"},
		{"hashjoin", 4, "18fcd2354eb6232ef73f5b032ee36e85a23049bae8a29d70d0d4a10253c03c31"},
	} {
		if got := ProgramDigest(assemble(t, c.name, c.scale)).String(); got != c.want {
			t.Errorf("%s@%d: digest %s, want %s", c.name, c.scale, got, c.want)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	want, err := FastForward(p, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(d, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load(d, 2000)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !got.Equal(want) {
		t.Fatalf("round trip not faithful:\nwant %v\n got %v", want, got)
	}

	// Replaying from the loaded snapshot finishes identically to an
	// uninterrupted functional run.
	ref := emu.New(p)
	if _, err := ref.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	resumed := emu.NewFromSnapshot(p, got)
	if _, err := resumed.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	if !ref.Snapshot().Equal(resumed.Snapshot()) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

func TestStoreMisses(t *testing.T) {
	p := assemble(t, "poly_horner", 1)
	d := ProgramDigest(p)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := st.Load(d, 500); ok || err != nil {
		t.Fatalf("absent file: ok=%v err=%v", ok, err)
	}

	sn, err := FastForward(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(d, sn); err != nil {
		t.Fatal(err)
	}

	// Wrong instruction count and wrong digest are misses.
	if _, ok, _ := st.Load(d, 501); ok {
		t.Fatal("wrong instcount must miss")
	}
	var other Digest
	other[0] = 0xFF
	if _, ok, _ := st.Load(other, 500); ok {
		t.Fatal("wrong digest must miss")
	}

	// Corruption anywhere in the file is a miss, not an error or a wrong
	// snapshot.
	path := filepath.Join(st.Dir(), st.Key(d, 500))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 12, 60, len(data) / 2, len(data) - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Load(d, 500); ok || err != nil {
			t.Fatalf("corrupt byte at %d: ok=%v err=%v", off, ok, err)
		}
	}
	// Truncation too.
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Load(d, 500); ok || err != nil {
		t.Fatalf("truncated: ok=%v err=%v", ok, err)
	}
}

func TestPrepare(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	d := ProgramDigest(p)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const skip, warmup = 3000, 1000

	bs, hit, err := Prepare(st, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Prepare must miss")
	}
	if bs.Boot.InstCount != skip {
		t.Fatalf("boot at inst %d, want %d", bs.Boot.InstCount, skip)
	}
	if len(bs.Warmup) != warmup {
		t.Fatalf("warmup trace has %d commits, want %d", len(bs.Warmup), warmup)
	}
	if first := bs.Warmup[0].Seq; first != skip-warmup {
		t.Fatalf("warmup starts at seq %d, want %d", first, skip-warmup)
	}
	if last := bs.Warmup[warmup-1].NextPC; last != bs.Boot.PC {
		t.Fatalf("warmup trace ends at pc %#x, boot pc %#x", last, bs.Boot.PC)
	}

	bs2, hit2, err := Prepare(st, p, d, skip, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second Prepare must hit the stored checkpoint")
	}
	if !bs2.Boot.Equal(bs.Boot) {
		t.Fatal("hit and miss paths produced different boot snapshots")
	}

	// Oversized warmup clamps to the start of the program.
	bs3, _, err := Prepare(nil, p, d, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs3.Warmup) != 100 || bs3.Boot.InstCount != 100 {
		t.Fatalf("clamped warmup: %d commits, boot at %d", len(bs3.Warmup), bs3.Boot.InstCount)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("1000:2000:50000")
	if err != nil {
		t.Fatal(err)
	}
	if p != (Plan{Warmup: 1000, Detail: 2000, Interval: 50000}) {
		t.Fatalf("parsed %+v", p)
	}
	// "1000:2000:3500" leaves room for warmup+detail but not for the
	// detailed warmup too (interval must cover 2*warmup+detail).
	for _, bad := range []string{"", "1:2", "a:b:c", "1000:0:50000", "1000:2000:2500", "1000:2000:3500"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
}

// TestSampleFunctional drives Sample with a detail runner that is itself the
// functional emulator reporting one cycle per instruction. The estimate must
// come out at exactly IPC 1 with zero standard error, the instruction
// accounting must cover the whole program, and the returned final snapshot
// must match an uninterrupted run (checksum included).
func TestSampleFunctional(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	w, _ := workloads.ByName("dgemm", 1)

	var intervals int
	run := func(bs *BootState, warmup, detail uint64) (IntervalStats, error) {
		intervals++
		s := emu.NewFromSnapshot(p, bs.Boot)
		if _, err := s.StepN(warmup); err != nil {
			return IntervalStats{}, err
		}
		n, err := s.StepN(detail)
		if err != nil {
			return IntervalStats{}, err
		}
		return IntervalStats{Cycles: n, Insts: n}, nil
	}

	plan := Plan{Warmup: 200, Detail: 500, Interval: 5000}
	est, final, err := Sample(p, plan, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples == 0 || est.Samples != intervals {
		t.Fatalf("samples=%d intervals=%d", est.Samples, intervals)
	}
	if est.IPCMean != 1 || est.IPCStdErr != 0 {
		t.Fatalf("IPC %v ± %v, want exactly 1 ± 0", est.IPCMean, est.IPCStdErr)
	}
	if est.DetailInsts+est.FFInsts != est.TotalInsts {
		t.Fatalf("accounting: %d detail + %d ff != %d total",
			est.DetailInsts, est.FFInsts, est.TotalInsts)
	}
	if cov := est.CoverageRatio(); cov <= 0 || cov >= 0.5 {
		t.Fatalf("coverage %v outside (0, 0.5)", cov)
	}

	ref := emu.New(p)
	if _, err := ref.RunToHalt(1<<32, nil); err != nil {
		t.Fatal(err)
	}
	if !final.Equal(ref.Snapshot()) {
		t.Fatal("sampled walker's final state diverged from uninterrupted run")
	}
	if final.X[workloads.CheckReg] != w.Want {
		t.Fatalf("checksum %#x, want %#x", final.X[workloads.CheckReg], w.Want)
	}
}

// TestSampleNDeterminism runs the same sampled program with 1, 2, 3 and 8
// workers. The runner reports interval-dependent statistics (so any merge
// reordering would change the estimate) and the resulting Estimates must be
// bit-identical: interval results are folded in interval-index order no
// matter which worker finishes first.
func TestSampleNDeterminism(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	plan := Plan{Warmup: 200, Detail: 500, Interval: 4000}

	sampleWith := func(workers int) *Estimate {
		run := func(bs *BootState, warmup, detail uint64) (IntervalStats, error) {
			s := emu.NewFromSnapshot(p, bs.Boot)
			if _, err := s.StepN(warmup); err != nil {
				return IntervalStats{}, err
			}
			n, err := s.StepN(detail)
			if err != nil {
				return IntervalStats{}, err
			}
			// Cycles depend on the interval's position, so IPC differs
			// per interval and the mean/stderr are order-sensitive
			// unless merging is index-ordered.
			return IntervalStats{
				Cycles:    n + bs.Boot.InstCount%977,
				Insts:     n,
				ReuseHits: bs.Boot.InstCount % 131,
			}, nil
		}
		est, final, err := SampleN(p, plan, 0, workers, run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if final == nil || !final.Halted {
			t.Fatalf("workers=%d: walker did not finish", workers)
		}
		return est
	}

	want := sampleWith(1)
	if want.Samples < 4 {
		t.Fatalf("want several intervals, got %d", want.Samples)
	}
	for _, workers := range []int{2, 3, 8} {
		if got := sampleWith(workers); *got != *want {
			t.Errorf("workers=%d: estimate %+v != serial %+v", workers, got, want)
		}
	}
}

// TestSampleNReusesWarmupBuffers pins the warmup-buffer recycling: however
// many intervals a run samples, it fills at most 2*workers distinct warmup
// buffers, and every interval still sees exactly its own trace — the
// commits immediately preceding its boot point, ending at the boot PC.
func TestSampleNReusesWarmupBuffers(t *testing.T) {
	p := assemble(t, "dgemm", 1)
	plan := Plan{Warmup: 200, Detail: 500, Interval: 3000}
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		buffers := map[*emu.Commit]bool{}
		run := func(bs *BootState, warmup, detail uint64) (IntervalStats, error) {
			w := bs.Warmup
			if uint64(len(w)) != plan.Warmup {
				return IntervalStats{}, fmt.Errorf("warmup trace has %d commits, want %d", len(w), plan.Warmup)
			}
			if first := w[0].Seq; first != bs.Boot.InstCount-plan.Warmup {
				return IntervalStats{}, fmt.Errorf("warmup starts at seq %d, want %d", first, bs.Boot.InstCount-plan.Warmup)
			}
			for i := 1; i < len(w); i++ {
				if w[i].Seq != w[i-1].Seq+1 || w[i].PC != w[i-1].NextPC {
					return IntervalStats{}, fmt.Errorf("warmup trace breaks at entry %d", i)
				}
			}
			if w[len(w)-1].NextPC != bs.Boot.PC {
				return IntervalStats{}, fmt.Errorf("warmup ends at %#x, boot PC %#x", w[len(w)-1].NextPC, bs.Boot.PC)
			}
			mu.Lock()
			buffers[&w[0]] = true
			mu.Unlock()
			return IntervalStats{Cycles: detail, Insts: detail}, nil
		}
		est, _, err := SampleN(p, plan, 0, workers, run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if est.Samples < 6*workers {
			t.Fatalf("workers=%d: only %d intervals; want several batches", workers, est.Samples)
		}
		if len(buffers) > 2*workers {
			t.Errorf("workers=%d: %d intervals used %d warmup buffers, want at most %d",
				workers, est.Samples, len(buffers), 2*workers)
		}
	}
}
