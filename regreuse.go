// Package regreuse is the public API of this repository: a reproduction of
// "A Novel Register Renaming Technique for Out-of-Order Processors"
// (Tabani, Arnau, Tubella, González — HPCA 2018).
//
// The package wraps a from-scratch, cycle-level out-of-order core
// (internal/pipeline) that models both the conventional merged-register-file
// renaming baseline and the paper's physical-register-reuse scheme: a
// Physical Register Table with Read bits and 2-bit version counters, a
// multi-bank register file with embedded shadow cells, a register type
// predictor, and precise exceptions recovered from shadow cells.
//
// Quick start:
//
//	res, err := regreuse.RunWorkload("dgemm", 1, regreuse.Config{Scheme: regreuse.Reuse})
//	fmt.Printf("IPC = %.2f, reuses = %d\n", res.IPC, res.Reuses)
//
// The experiment entry points (Motivation, SpeedupSweep, AggregateSweep,
// PredictorBreakdown, OccupancyStudy, AreaTable, EqualAreaTable,
// EnergyComparison) regenerate every figure and table of the paper's
// evaluation; cmd/paper drives them all and EXPERIMENTS.md records the
// results.
package regreuse

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/rename"
	"repro/internal/workloads"
)

// Scheme selects a renaming scheme.
type Scheme = pipeline.Scheme

// The renaming schemes under comparison: the conventional baseline, the
// paper's reuse scheme, and the early-release related-work comparator
// (§VII).
const (
	Baseline     = pipeline.Baseline
	Reuse        = pipeline.Reuse
	EarlyRelease = pipeline.EarlyRelease
)

// ParseScheme maps a scheme name ("baseline", "reuse", "early") to its
// Scheme value. CLI flags and sweep specs all validate through this one
// function, so every surface accepts the same spellings with one error
// message.
func ParseScheme(s string) (Scheme, error) { return pipeline.ParseScheme(s) }

// SchemeNames lists the accepted scheme spellings.
func SchemeNames() []string { return pipeline.SchemeNames() }

// Suite re-exports the benchmark suite labels.
type Suite = workloads.Suite

// Suite labels (mirroring the paper's benchmark grouping).
const (
	SPECint   = workloads.SPECint
	SPECfp    = workloads.SPECfp
	Media     = workloads.Media
	Cognitive = workloads.Cognitive
)

// Config selects the simulation parameters exposed at the API surface; zero
// values take the paper's Table I defaults.
type Config struct {
	Scheme Scheme
	// IntRegs/FPRegs: physical register file layouts (bank sizes indexed
	// by shadow-cell count). Zero value: 128 registers in the layout
	// appropriate for the scheme.
	IntRegs regfile.BankSizes
	FPRegs  regfile.BankSizes
	// MaxInsts stops the simulation after that many committed
	// instructions (0 = run to HALT).
	MaxInsts uint64
	// ReuseDepth caps reuse-chain length (0 = the paper's 3).
	ReuseDepth int
	// DisableSpeculativeReuse keeps only the guaranteed (redefining)
	// reuse, the ablation of §IV-D.
	DisableSpeculativeReuse bool
	// InterruptEvery injects a timer interrupt each N cycles (0 = off).
	InterruptEvery uint64
	// CheckOracle runs the lockstep architectural oracle.
	CheckOracle bool
	// Observer attaches an instruction-lifecycle/core-event observer
	// (internal/obs: tracer, pipeline view, metrics — combine with
	// obs.Combine). nil = observability off, the zero-overhead path.
	Observer obs.Observer

	// FastForward skips the first N instructions at functional-emulator
	// speed (~40x the detailed core) and boots the detailed core
	// mid-program with the exact architectural state (0 = off). The
	// committed instruction stream from that point on is bit-identical to
	// an uninterrupted run's suffix.
	FastForward uint64
	// Warmup replays the last N fast-forwarded instructions (clamped to
	// FastForward) into the caches and branch predictor before detailed
	// simulation starts, shrinking the cold-boot bias.
	Warmup uint64
	// Sample enables interval sampling with plan "warmup:detail:interval"
	// (see internal/ckpt.Plan): the run alternates functional fast-forward
	// with short detailed intervals and reports IPC/reuse-rate estimates
	// with standard errors in Result.Sampled. Mutually exclusive with
	// FastForward. The checksum is still validated on the complete
	// functional execution.
	Sample string
	// SampleWorkers fans the detailed intervals of a sampled run across
	// up to N goroutines (0 or 1 = serial, <0 = GOMAXPROCS). The estimate
	// is bit-identical for every worker count: interval results are merged
	// in interval-index order regardless of completion order.
	SampleWorkers int
	// CkptDir, when non-empty, persists fast-forward checkpoints in a
	// content-addressed on-disk store so repeated runs of the same
	// workload skip the functional prefix entirely.
	CkptDir string
}

func (c Config) pipelineConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig(c.Scheme)
	if c.IntRegs.Total() > 0 {
		cfg.IntRegs = c.IntRegs
	}
	if c.FPRegs.Total() > 0 {
		cfg.FPRegs = c.FPRegs
	}
	cfg.MaxInsts = c.MaxInsts
	if c.ReuseDepth > 0 {
		cfg.ReuseCfg.MaxVersions = uint8(c.ReuseDepth)
	}
	cfg.ReuseCfg.SpeculativeReuse = !c.DisableSpeculativeReuse
	cfg.InterruptEvery = c.InterruptEvery
	cfg.CheckOracle = c.CheckOracle
	cfg.Observer = c.Observer
	cfg.MaxCycles = 1 << 36
	return cfg
}

// Result summarizes one simulation.
type Result struct {
	Workload string
	Suite    Suite
	Scheme   Scheme

	Cycles     uint64
	Insts      uint64
	IPC        float64
	MPKI       float64
	Halted     bool
	Checksum   uint64
	ChecksumOK bool

	// Renaming behaviour.
	Allocations  uint64
	Reuses       uint64
	ReusesByVer  [4]uint64
	ReuseSameLog uint64
	ReusePredict uint64
	Repairs      uint64
	MicroOps     uint64

	// Stall accounting.
	StallNoReg uint64
	StallROB   uint64
	StallIQ    uint64

	// Recovery.
	PageFaults       uint64
	Interrupts       uint64
	ShadowRecoveries uint64

	// FFInsts counts instructions executed at functional speed instead of
	// in the detailed core (fast-forward prefix or skipped sampled
	// regions); Cycles/Insts and the counters above cover only the
	// detailed portion.
	FFInsts uint64
	// Sampled carries the statistical estimates of an interval-sampled run
	// (nil for full-fidelity runs).
	Sampled *SampleEstimate

	// Full detail for power users.
	Pipeline *pipeline.Stats
	RenInt   *rename.Stats
	RenFP    *rename.Stats
	Hier     *memsys.Hierarchy
}

// SampleEstimate reports an interval-sampled run's estimates: sample means
// across the measured detail intervals with the standard error of each mean.
type SampleEstimate struct {
	Plan        string // "warmup:detail:interval"
	Samples     int    // measured intervals
	IPCMean     float64
	IPCStdErr   float64
	ReuseMean   float64 // reuse hits per committed instruction
	ReuseStdErr float64
	TotalInsts  uint64 // functionally executed end to end
	DetailInsts uint64 // of those, measured in detail
	Coverage    float64
}

// RunWorkload simulates a named workload (scale 1 = small/test, 4 =
// reference) under cfg.
func RunWorkload(name string, scale int, cfg Config) (Result, error) {
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return Result{}, fmt.Errorf("regreuse: unknown workload %q (see workloads: %v)", name, workloads.Names())
	}
	return runW(w, cfg)
}

// RunProgram simulates an arbitrary assembled program under cfg.
func RunProgram(p *prog.Program, cfg Config) (Result, error) {
	return run(p, Result{Workload: "custom"}, 0, false, cfg)
}

func runW(w workloads.Workload, cfg Config) (Result, error) {
	seed := Result{Workload: w.Name, Suite: w.Suite}
	return run(w.Program(), seed, w.Want, true, cfg)
}

func run(p *prog.Program, seed Result, want uint64, check bool, cfg Config) (Result, error) {
	if cfg.Sample != "" {
		if cfg.FastForward > 0 {
			return Result{}, fmt.Errorf("regreuse: Sample and FastForward are mutually exclusive")
		}
		return runSampled(p, seed, want, check, cfg)
	}
	pcfg := cfg.pipelineConfig()
	var ffInsts uint64
	if cfg.FastForward > 0 {
		var store *ckpt.Store
		if cfg.CkptDir != "" {
			var err error
			if store, err = ckpt.NewStore(cfg.CkptDir); err != nil {
				return Result{}, fmt.Errorf("regreuse: checkpoint store: %w", err)
			}
		}
		bs, _, err := ckpt.Prepare(store, p, ckpt.ProgramDigest(p), cfg.FastForward, cfg.Warmup)
		if err != nil {
			return Result{}, fmt.Errorf("regreuse: fast-forward: %w", err)
		}
		if bs.Boot.Halted {
			// The program ended inside the fast-forward prefix: no detailed
			// simulation, but the checksum still validates the functional run.
			res := seed
			res.Scheme = cfg.Scheme
			res.Halted = true
			res.Checksum = bs.Boot.X[workloads.CheckReg]
			res.ChecksumOK = !check || res.Checksum == want
			res.FFInsts = bs.FFInsts
			if check && !res.ChecksumOK {
				return res, fmt.Errorf("regreuse: %s checksum %#x, want %#x", seed.Workload, res.Checksum, want)
			}
			return res, nil
		}
		pcfg.Boot = bs.Boot
		pcfg.BootWarmup = bs.Warmup
		ffInsts = bs.FFInsts
	}
	core := pipeline.New(pcfg, p)
	if err := core.Run(); err != nil {
		return Result{}, err
	}
	seed.FFInsts = ffInsts
	st := core.Stats()
	ri, rf := core.RenStats(0), core.RenStats(1)
	x, _ := core.ArchRegs()
	res := seed
	res.Scheme = cfg.Scheme
	res.Cycles = st.Cycles
	res.Insts = st.Committed
	res.IPC = st.IPC()
	res.MPKI = st.MPKI()
	res.Halted = core.Halted()
	res.Checksum = x[workloads.CheckReg]
	res.ChecksumOK = !check || !core.Halted() || res.Checksum == want
	res.Allocations = ri.Allocations + rf.Allocations
	res.Reuses = ri.TotalReuses() + rf.TotalReuses()
	for v := 1; v < 4; v++ {
		res.ReusesByVer[v] = ri.ReusesByVer[v] + rf.ReusesByVer[v]
	}
	res.ReuseSameLog = ri.ReuseSameLog + rf.ReuseSameLog
	res.ReusePredict = ri.ReusePredict + rf.ReusePredict
	res.Repairs = ri.Repairs + rf.Repairs
	res.MicroOps = st.MicroOps
	res.StallNoReg = st.StallNoRegInt + st.StallNoRegFP
	res.StallROB = st.StallROB
	res.StallIQ = st.StallIQ
	res.PageFaults = st.PageFaults
	res.Interrupts = st.Interrupts
	res.ShadowRecoveries = st.ShadowRecoveries
	res.Pipeline = st
	res.RenInt = ri
	res.RenFP = rf
	res.Hier = core.Hierarchy()
	if check && core.Halted() && res.Checksum != want {
		return res, fmt.Errorf("regreuse: %s checksum %#x, want %#x", seed.Workload, res.Checksum, want)
	}
	return res, nil
}

// runSampled runs the interval-sampling mode: a functional machine walks the
// whole program while short detailed intervals (each with a detailed,
// unmeasured warmup prefix) are booted from in-memory snapshots along the
// way. Result.Cycles/Insts/Reuses/Allocations accumulate over the measured
// regions only; Result.IPC is the interval-mean estimate; the full-detail
// stats pointers stay nil because no single core runs end to end.
func runSampled(p *prog.Program, seed Result, want uint64, check bool, cfg Config) (Result, error) {
	plan, err := ckpt.ParsePlan(cfg.Sample)
	if err != nil {
		return Result{}, fmt.Errorf("regreuse: %w", err)
	}
	var aggMu sync.Mutex
	var agg struct {
		cycles, insts, micro uint64
		allocs, reuses       uint64
		stallNoReg, rob, iq  uint64
	}
	workers := cfg.SampleWorkers
	switch {
	case workers == 0:
		workers = 1
	case workers < 0:
		workers = runtime.GOMAXPROCS(0)
	}
	// Intervals run on recycled cores: at most one per sample worker.
	cores := pipeline.NewFreeList(workers)
	run := func(bs *ckpt.BootState, warmup, detail uint64) (ckpt.IntervalStats, error) {
		pcfg := cfg.pipelineConfig()
		pcfg.Boot = bs.Boot
		pcfg.BootWarmup = bs.Warmup
		pcfg.MaxInsts = warmup + detail
		core := cores.Get(pcfg, p)
		if err := core.RunTo(warmup); err != nil {
			return ckpt.IntervalStats{}, err
		}
		st := core.Stats()
		ri, rf := core.RenStats(0), core.RenStats(1)
		base := []uint64{st.Cycles, st.Committed, st.MicroOps,
			ri.Allocations + rf.Allocations, ri.TotalReuses() + rf.TotalReuses(),
			st.StallNoRegInt + st.StallNoRegFP, st.StallROB, st.StallIQ}
		if err := core.RunTo(warmup + detail); err != nil {
			return ckpt.IntervalStats{}, err
		}
		is := ckpt.IntervalStats{
			Cycles:    st.Cycles - base[0],
			Insts:     st.Committed - base[1],
			ReuseHits: ri.TotalReuses() + rf.TotalReuses() - base[4],
		}
		// Sums are order-independent, so a mutex (not interval-ordered
		// merging) is enough to keep the aggregate deterministic when
		// intervals run concurrently.
		aggMu.Lock()
		agg.cycles += is.Cycles
		agg.insts += is.Insts
		agg.micro += st.MicroOps - base[2]
		agg.allocs += ri.Allocations + rf.Allocations - base[3]
		agg.reuses += is.ReuseHits
		agg.stallNoReg += st.StallNoRegInt + st.StallNoRegFP - base[5]
		agg.rob += st.StallROB - base[6]
		agg.iq += st.StallIQ - base[7]
		aggMu.Unlock()
		cores.Put(core)
		return is, nil
	}
	est, final, err := ckpt.SampleN(p, plan, cfg.MaxInsts, workers, run)
	if err != nil {
		return Result{}, fmt.Errorf("regreuse: %w", err)
	}
	res := seed
	res.Scheme = cfg.Scheme
	res.Cycles = agg.cycles
	res.Insts = agg.insts
	res.IPC = est.IPCMean
	res.MicroOps = agg.micro
	res.Allocations = agg.allocs
	res.Reuses = agg.reuses
	res.StallNoReg = agg.stallNoReg
	res.StallROB = agg.rob
	res.StallIQ = agg.iq
	res.Halted = final.Halted
	res.Checksum = final.X[workloads.CheckReg]
	res.ChecksumOK = !check || !final.Halted || res.Checksum == want
	res.FFInsts = est.FFInsts
	res.Sampled = &SampleEstimate{
		Plan:        plan.String(),
		Samples:     est.Samples,
		IPCMean:     est.IPCMean,
		IPCStdErr:   est.IPCStdErr,
		ReuseMean:   est.ReuseMean,
		ReuseStdErr: est.ReuseStdErr,
		TotalInsts:  est.TotalInsts,
		DetailInsts: est.DetailInsts,
		Coverage:    est.CoverageRatio(),
	}
	if check && final.Halted && res.Checksum != want {
		return res, fmt.Errorf("regreuse: %s sampled checksum %#x, want %#x", seed.Workload, res.Checksum, want)
	}
	return res, nil
}

// Workloads lists the available workload names.
func Workloads() []string { return workloads.Names() }

// FastForwardWorkload runs a named workload end to end on the functional
// fast-forward interpreter (no detailed simulation, no checkpointing) and
// returns the instruction count. It exists for profiling and calibration:
// the ratio of this rate to the detailed core's is the fast-forward speedup.
func FastForwardWorkload(name string, scale int) (uint64, error) {
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return 0, fmt.Errorf("regreuse: unknown workload %q", name)
	}
	sn, err := ckpt.FastForward(w.Program(), 1<<62)
	if err != nil {
		return 0, err
	}
	if sn.Halted && sn.X[workloads.CheckReg] != w.Want {
		return sn.InstCount, fmt.Errorf("regreuse: %s checksum %#x, want %#x", name, sn.X[workloads.CheckReg], w.Want)
	}
	return sn.InstCount, nil
}

// AnalyzeWorkload runs the functional emulator over a workload and returns
// the single-use / consumer-count / reuse-chain report (Figures 1-3). It
// rides the streaming collector on the batched commit-sink path; the
// per-commit reference collector (analysis.Analyze) produces an identical
// report, pinned by test.
func AnalyzeWorkload(name string, scale int) (analysis.Report, error) {
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return analysis.Report{}, fmt.Errorf("regreuse: unknown workload %q", name)
	}
	return analysis.AnalyzeProgram(w.Program(), 1<<32)
}
