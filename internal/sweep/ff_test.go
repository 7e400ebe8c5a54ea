package sweep

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
)

func counterVal(t *testing.T, m *Metrics, name string) uint64 {
	t.Helper()
	for _, c := range m.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestFastForwardSharesCheckpoint is the acceptance scenario: three schemes
// of one workload with a fast-forward prefix must do the functional
// fast-forward work once (one checkpoint miss at pre-warm, hits for every
// job), and the detailed results must be consistent with each other.
func TestFastForwardSharesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.NewStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	spec := Spec{
		Name:        "ff-share",
		Workloads:   []string{"dgemm"},
		Schemes:     []string{"baseline", "reuse", "early"},
		Scale:       1,
		FastForward: 3000,
		Warmup:      500,
	}
	res, err := Run(context.Background(), spec, Options{Ckpt: store, Metrics: m, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Executed != 3 {
		t.Fatalf("stats = %+v, want 3 executed", res.Stats)
	}
	if misses := counterVal(t, m, "sweep_ckpt_misses"); misses != 1 {
		t.Fatalf("sweep_ckpt_misses = %d, want exactly 1 (shared fast-forward)", misses)
	}
	if hits := counterVal(t, m, "sweep_ckpt_hits"); hits != 3 {
		t.Fatalf("sweep_ckpt_hits = %d, want 3", hits)
	}
	for i, r := range res.Results {
		if !r.ChecksumOK {
			t.Fatalf("job %d failed checksum", i)
		}
		if r.FFInsts != 3000 {
			t.Fatalf("job %d FFInsts = %d, want 3000", i, r.FFInsts)
		}
		if r.Cycles == 0 || r.Insts == 0 {
			t.Fatalf("job %d has no detailed region: %+v", i, r)
		}
	}
}

// TestFastForwardMatchesFullRun: with fast-forward the detailed region's
// committed instruction count must be exactly the full run's minus the
// prefix, and the run must still checksum — the bit-exactness of the suffix
// itself is pinned by pipeline.TestCheckpointResumeEquivalence.
func TestFastForwardMatchesFullRun(t *testing.T) {
	full, err := Execute(Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Execute(Job{Workload: "poly_horner", Scheme: "reuse", Scale: 1, FastForward: 5000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if ff.Insts != full.Insts-5000 {
		t.Fatalf("detailed insts %d, want %d-5000", ff.Insts, full.Insts)
	}
	if !ff.ChecksumOK || ff.FFInsts != 5000 {
		t.Fatalf("ff result: %+v", ff)
	}
	if ff.Cycles >= full.Cycles {
		t.Fatalf("fast-forward did not skip cycles: %d >= %d", ff.Cycles, full.Cycles)
	}
}

// TestSampledJob: a sampled job produces a bounded-error IPC estimate, the
// functional walker validates the checksum, and the estimate lands near the
// full-fidelity IPC.
func TestSampledJob(t *testing.T) {
	m := NewMetrics()
	j := Job{Workload: "dgemm", Scheme: "reuse", Scale: 1, Sample: "200:500:5000"}
	r, err := ExecuteWith(j, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled == nil || r.Sampled.Samples == 0 {
		t.Fatalf("no samples: %+v", r)
	}
	if !r.ChecksumOK {
		t.Fatal("sampled run failed checksum")
	}
	if r.Sampled.Coverage <= 0 || r.Sampled.Coverage >= 1 {
		t.Fatalf("coverage %v out of range", r.Sampled.Coverage)
	}
	if got := counterVal(t, m, "sweep_jobs_sampled"); got != 1 {
		t.Fatalf("sweep_jobs_sampled = %d, want 1", got)
	}

	full, err := Execute(Job{Workload: "dgemm", Scheme: "reuse", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The estimate should be in the right neighborhood; 3 sigma plus a 15%
	// tolerance band guards against flakiness without letting the estimate
	// be garbage.
	lo := r.Sampled.IPCMean - 3*r.Sampled.IPCStdErr - 0.15*full.IPC
	hi := r.Sampled.IPCMean + 3*r.Sampled.IPCStdErr + 0.15*full.IPC
	if full.IPC < lo || full.IPC > hi {
		t.Fatalf("full IPC %.3f outside sampled band [%.3f, %.3f] (est %.3f ± %.3f, %d samples)",
			full.IPC, lo, hi, r.Sampled.IPCMean, r.Sampled.IPCStdErr, r.Sampled.Samples)
	}
}

// TestSampledSpecThroughEngine runs a sampled spec end to end through the
// engine and checks results are cacheable (second run = pure cache hits).
func TestSampledSpecThroughEngine(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:      "sampled",
		Workloads: []string{"poly_horner"},
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sample:    "200:500:4000",
	}
	cold, err := Run(context.Background(), spec, Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed != 2 {
		t.Fatalf("cold stats %+v", cold.Stats)
	}
	warm, err := Run(context.Background(), spec, Options{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != 2 || warm.Stats.Executed != 0 {
		t.Fatalf("warm stats %+v", warm.Stats)
	}
	for i := range cold.Results {
		a, b := cold.Results[i], warm.Results[i]
		if a.Sampled == nil || b.Sampled == nil || *a.Sampled != *b.Sampled {
			t.Fatalf("sampled summary %d differs across cache: %+v vs %+v", i, a.Sampled, b.Sampled)
		}
	}
}

// TestSampledRecycledCoresConcurrent runs each sampled job's intervals on
// two workers, each recycling cores from the job's free list, and requires
// the result — estimate and summed counters — to be bit-identical to the
// serial run. Under -race it also pins that concurrent intervals never
// share a core.
func TestSampledRecycledCoresConcurrent(t *testing.T) {
	for _, j := range []Job{
		{Workload: "dgemm", Scheme: "reuse", Scale: 1, Sample: "200:500:3000"},
		{Workload: "qsortint", Scheme: "baseline", Scale: 1, Size: 64, Sample: "200:500:3000"},
		{Workload: "fir", Scheme: "early", Scale: 1, Sample: "200:500:3000"},
	} {
		serial, err := ExecuteWithWorkers(j, nil, nil, 1)
		if err != nil {
			t.Fatalf("%s/%s serial: %v", j.Workload, j.Scheme, err)
		}
		if serial.Sampled == nil || serial.Sampled.Samples < 4 {
			t.Fatalf("%s/%s: want several intervals, got %+v", j.Workload, j.Scheme, serial.Sampled)
		}
		conc, err := ExecuteWithWorkers(j, nil, nil, 2)
		if err != nil {
			t.Fatalf("%s/%s workers=2: %v", j.Workload, j.Scheme, err)
		}
		if *conc.Sampled != *serial.Sampled {
			t.Errorf("%s/%s: workers=2 estimate %+v != serial %+v", j.Workload, j.Scheme, conc.Sampled, serial.Sampled)
		}
		conc.Sampled, serial.Sampled = nil, nil
		if conc != serial {
			t.Errorf("%s/%s: workers=2 counters %+v != serial %+v", j.Workload, j.Scheme, conc, serial)
		}
	}
}
