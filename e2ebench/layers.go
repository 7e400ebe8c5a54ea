package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// setupRuns is how many cold loads setup_s takes the median of: the
// benchmark process's own, plus fresh child processes for the rest.
const setupRuns = 5

// probeEnv, when set to "<scale> <kernel,kernel,...>", turns the binary
// into a set-up probe: it loads the kernels once in a cold process and
// prints the seconds that took.
const probeEnv = "E2EBENCH_PROBE_LOAD"

// loadKernels generates, assembles and pre-decodes each kernel at scale:
// the set-up every workload pays before its first op. It goes through
// workloads.ByName, not workloads.All, so the process-wide generator cache
// stays as cold as a sweep job sees it.
func loadKernels(names []string, scale int, tr *tracer, parent int32) (time.Duration, error) {
	t0 := time.Now()
	for _, n := range names {
		id := tr.begin("workloads.load", parent, -1)
		w, ok := workloads.ByName(n, scale)
		if !ok {
			return 0, fmt.Errorf("unknown kernel %q", n)
		}
		w.Program()
		tr.end(id)
	}
	return time.Since(t0), nil
}

func probeMain(spec string) int {
	scaleText, list, _ := strings.Cut(spec, " ")
	scale, err := strconv.Atoi(scaleText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench probe:", err)
		return 2
	}
	d, err := loadKernels(strings.Split(list, ","), scale, nil, -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench probe:", err)
		return 1
	}
	fmt.Println(d.Seconds())
	return 0
}

// setupSeconds loads the kernels in this process and, for an untraced run,
// in setupRuns-1 cold child processes, and sets setup_s to the median. A
// traced run records the in-process load as workloads.load_s instead.
func setupSeconds(cfg config, rep *report, names []string, scale int) error {
	root := rep.tr.begin("setup", -1, -1)
	first, err := loadKernels(names, scale, rep.tr, root)
	rep.tr.end(root)
	if err != nil {
		return err
	}
	if cfg.trace {
		rep.values["workloads.load_s"] = first.Seconds()
		return nil
	}
	samples := []float64{first.Seconds()}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for len(samples) < setupRuns {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d %s", probeEnv, scale, strings.Join(names, ",")))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("set-up probe output %q: %w", out, err)
		}
		samples = append(samples, s)
	}
	rep.values["setup_s"] = median(samples)
	rep.infof("setup_s = median of %d cold loads of %d kernels at scale %d: %.4g s", len(samples), len(names), scale, samples)
	return nil
}

// nopSink discards the committed stream, leaving the batched interpreter
// loop alone on the clock.
type nopSink struct{}

func (nopSink) CommitBatch(uint64, []uint32) {}

// emuNewReps repeats emu.New per kernel so its mean is resolvable.
const emuNewReps = 5

// probeLayers times the functional layers alone, one kernel at a time on
// one goroutine, over the workload's own kernels: emu.New, the batched
// commit loop with a sink that does nothing, the fast-forward interpreter,
// and the streaming analysis that rides the batched loop. The analysis
// layer's own cost is the analysis time minus the no-sink batch time.
func probeLayers(names []string, scale int, rep *report) error {
	tr := rep.tr
	root := tr.begin("probe", -1, -1)
	defer tr.end(root)
	var newT, batchT, ffT, anaT time.Duration
	var batchN, ffN, anaN uint64
	timed := func(name string, acc *time.Duration, fn func() error) error {
		id := tr.begin(name, root, -1)
		t := time.Now()
		err := fn()
		*acc += time.Since(t)
		tr.end(id)
		return err
	}
	for _, n := range names {
		w, ok := workloads.ByName(n, scale)
		if !ok {
			return fmt.Errorf("unknown kernel %q", n)
		}
		p := w.Program()
		for range emuNewReps {
			_ = timed("emu.New", &newT, func() error { emu.New(p); return nil })
		}
		err := timed("emu.RunToHaltBatch", &batchT, func() error {
			k, err := emu.New(p).RunToHaltBatch(1<<32, nopSink{})
			batchN += k
			return err
		})
		if err == nil {
			err = timed("ckpt.FastForward", &ffT, func() error {
				sn, err := ckpt.FastForward(p, math.MaxUint64)
				if err == nil {
					ffN += sn.InstCount
				}
				return err
			})
		}
		if err == nil {
			err = timed("analysis.AnalyzeProgram", &anaT, func() error {
				r, err := analysis.AnalyzeProgram(p, 1<<32)
				anaN += r.TotalInsts
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("layer probe %s: %w", n, err)
		}
	}
	if batchN != ffN || batchN != anaN {
		rep.problem("layer probe instruction counts differ: batch %d, fast-forward %d, analysis %d", batchN, ffN, anaN)
	}
	rep.values["emu.new_ms"] = newT.Seconds() * 1e3 / float64(emuNewReps*len(names))
	rep.values["emu.batch_minst_per_s"] = float64(batchN) / batchT.Seconds() / 1e6
	rep.values["emu.ff_minst_per_s"] = float64(ffN) / ffT.Seconds() / 1e6
	rep.values["analysis.minst_per_s"] = float64(anaN) / anaT.Seconds() / 1e6
	rep.values["analysis.self_s"] = (anaT - batchT).Seconds()
	rep.infof("layer probe: %d kernels at scale %d, %d instructions each through batch, fast-forward and analysis", len(names), scale, batchN)
	return nil
}

// jobConfig mirrors the sweep engine's derivation of a job's core
// configuration (the Figure 10/11 conventions). The traced run checks its
// simulated results against the engine's, so a drift here shows up as
// failed ops rather than as silently different work.
func jobConfig(j sweep.Job) (pipeline.Config, error) {
	sch, err := pipeline.ParseScheme(j.Scheme)
	if err != nil {
		return pipeline.Config{}, err
	}
	cfg := pipeline.DefaultConfig(sch)
	if j.Size > 0 {
		ample := regfile.Uniform(128, 0)
		swept := area.EqualAreaConfig(j.Size, 64)
		if sch == pipeline.Baseline {
			swept = regfile.Uniform(j.Size, 0)
		}
		if workloads.FPHeavy(j.Workload) {
			cfg.FPRegs, cfg.IntRegs = swept, ample
		} else {
			cfg.IntRegs, cfg.FPRegs = swept, ample
		}
	}
	if j.ReuseDepth > 0 {
		cfg.ReuseCfg.MaxVersions = uint8(j.ReuseDepth)
	}
	cfg.ReuseCfg.SpeculativeReuse = !j.DisableSpeculativeReuse
	cfg.MaxInsts = j.MaxInsts
	cfg.MaxCycles = 1 << 36
	return cfg, nil
}

// probeOp is the op id of the probe's spans, clear of any workload's ops.
const probeOp = 1 << 24

// probeUnreached gives a measured value to the per-layer metrics of every
// layer this workload's own ops never reach, by driving those layers with
// a small grid over the workload's first two kernels at scale 1: four
// detailed jobs through the traced engine path and the same kernels
// sampled, each only where the workload did not measure that layer itself,
// and in every traced run a sweepd that fills and then serves that grid
// from its cache. The sweepd probe owns the sweepd metrics and the cache
// hit metrics, since no workload's own passes ever hit the cache.
func probeUnreached(cfg config, scratch string, rep *report, names []string) error {
	mini := sweep.Spec{
		Name:      "e2ebench-probe",
		Workloads: names[:min(2, len(names))],
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sizes:     []int{64},
	}
	unset := func(name string) bool {
		_, ok := rep.values[name]
		return !ok
	}
	fill := func(m map[string]float64) {
		for k, v := range m {
			if unset(k) {
				rep.values[k] = v
			}
		}
	}
	var probed []string
	if unset("pipeline.run_s") {
		m, err := probeGrid(cfg, filepath.Join(scratch, "probe-detail"), rep, mini)
		if err != nil {
			return err
		}
		fill(m)
		probed = append(probed, "pipeline", "sweep")
	}
	if unset("ckpt.detail_s") {
		sampled := mini
		sampled.Sizes, sampled.Sample = nil, "1000:2000:20000"
		m, err := probeGrid(cfg, filepath.Join(scratch, "probe-sampled"), rep, sampled)
		if err != nil {
			return err
		}
		fill(m)
		probed = append(probed, "ckpt")
	}
	if len(probed) > 0 {
		rep.infof("layers this workload does not reach, measured on a probe grid of %v at scale 1: %v", mini.Workloads, probed)
	}
	m, err := probeSweepd(cfg, filepath.Join(scratch, "probe-sweepd"), rep, mini)
	if err != nil {
		return err
	}
	for k, v := range m {
		rep.values[k] = v
	}
	rep.infof("sweepd and cache hits measured on the probe grid of %v at scale 1", mini.Workloads)
	return nil
}

// probeGrid runs spec through sweep.Run for reference results, then once
// through the traced engine path, and returns the per-layer metrics.
func probeGrid(cfg config, dir string, rep *report, spec sweep.Spec) (map[string]float64, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	var ms []float64
	var busy float64
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), spec, sweep.Options{
		Workers: cfg.workers,
		OnJob: func(o sweep.JobOutcome) {
			ms = append(ms, o.Elapsed.Seconds()*1e3)
			busy += o.Elapsed.Seconds()
		},
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("probe grid: %w", err)
	}
	_, m, err := tracedGridPass(cfg, rep, rep.tr, jobs, res.Results, dir, probeOp)
	if err != nil {
		return nil, err
	}
	m["sweep.job_ms_p50"] = median(ms)
	m["sweep.idle_worker_s"] = float64(cfg.workers)*wall - busy
	return m, os.RemoveAll(dir)
}

// cacheGetReps repeats the probe's cache reads so their mean is resolvable.
const cacheGetReps = 25

// probeSweepd starts a sweepd, fills its cache with spec, and times one
// traced resubmission, which must be served wholly from the cache. Both the
// fill's and the resubmission's results.json must be byte-identical to an
// in-process sweep.Run of spec. It then times sweep.Cache.Get hits on the
// server's own cache directory, every one of which must find its job.
func probeSweepd(cfg config, dir string, rep *report, spec sweep.Spec) (map[string]float64, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	refRes, err := sweep.Run(context.Background(), spec, sweep.Options{Workers: cfg.workers})
	if err != nil {
		return nil, fmt.Errorf("probe in-process reference: %w", err)
	}
	ref, err := sweep.MarshalResults(refRes)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	first, err := srv.submit(specJSON, fillPoll, nil, -1, -1)
	if err != nil {
		return nil, fmt.Errorf("probe fill: %w", err)
	}
	root := rep.tr.begin("op", -1, probeOp)
	leg, err := srv.submit(specJSON, pollEvery, rep.tr, root, probeOp)
	rep.tr.end(root)
	ok := err == nil && leg.status.State == "done" && leg.status.CacheHits == leg.status.Jobs &&
		bytes.Equal(first.body, ref) && bytes.Equal(leg.body, ref)
	if !ok {
		rep.problem("probe sweepd: err %v, state %q, %d/%d cache hits, fill and rerun results match in-process sweep.Run: %t, %t",
			err, leg.status.State, leg.status.CacheHits, leg.status.Jobs, bytes.Equal(first.body, ref), bytes.Equal(leg.body, ref))
	}

	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	root = rep.tr.begin("probe.cache", -1, probeOp)
	var getT time.Duration
	for range cacheGetReps {
		for _, j := range jobs {
			id := rep.tr.begin("sweep.Cache.Get", root, probeOp)
			t := time.Now()
			_, hit := cache.Get(j.Key())
			getT += time.Since(t)
			rep.tr.end(id)
			if !hit {
				ok = false
				rep.problem("probe sweepd: %s/%s not in the server's cache after the fill", j.Workload, j.Scheme)
			}
		}
	}
	rep.tr.end(root)
	rep.op(ok)
	m := map[string]float64{
		"sweep.cache_get_ms":    getT.Seconds() * 1e3 / float64(cacheGetReps*len(jobs)),
		"sweepd.submit_ms":      leg.submit * 1e3,
		"sweepd.wait_ms":        leg.wait * 1e3,
		"sweepd.results_ms":     leg.results * 1e3,
		"sweepd.results_bytes":  float64(len(leg.body)),
		"sweepd.polls":          float64(leg.polls),
		"sweep.cache_hit_ratio": ratio(float64(leg.status.CacheHits), float64(leg.status.Jobs)),
	}
	met, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	for _, x := range met {
		if x.Name == "sweep_job_ms" && x.Hist != nil {
			m["sweepd.job_ms_p50"] = float64(x.Hist.P50)
		}
	}
	return m, nil
}
