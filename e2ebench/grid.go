package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/area"
	"repro/internal/ckpt"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// detailSpec is the Fig 10-shaped grid: every kernel at scale 1, baseline
// and reuse, at three Table III sizes. The seed orders the kernels and
// picks one size from each third of the table (small, middle, large), so
// every seed spans the curve and does about the same amount of work.
func detailSpec(cfg config) sweep.Spec {
	rng := rand.New(rand.NewSource(cfg.seed))
	names := kernelOrder(cfg, rng)
	all := area.Table3Sizes()
	sizes := make([]int, 3)
	for k := range sizes {
		band := all[k*len(all)/3 : (k+1)*len(all)/3]
		sizes[k] = band[rng.Intn(len(band))]
	}
	return sweep.Spec{
		Name:      "e2ebench-detail_grid",
		Workloads: names,
		Schemes:   []string{"baseline", "reuse"},
		Scale:     1,
		Sizes:     sizes,
	}
}

// sampledIntervals is the small fixed range the seed picks sampled_grid's
// interval from. The range is narrow so that the amount of detailed work,
// which scales with 1/interval, stays within a few percent across seeds.
var sampledIntervals = []int{19500, 19750, 20000, 20250, 20500}

// sampledSpec is every kernel at reference scale, baseline and reuse,
// interval-sampled with a 1000-instruction warmup and 2000 measured
// instructions per interval.
func sampledSpec(cfg config) sweep.Spec {
	rng := rand.New(rand.NewSource(cfg.seed))
	names := kernelOrder(cfg, rng)
	return sweep.Spec{
		Name:      "e2ebench-sampled_grid",
		Workloads: names,
		Schemes:   []string{"baseline", "reuse"},
		Scale:     4,
		Sample:    fmt.Sprintf("1000:2000:%d", sampledIntervals[rng.Intn(len(sampledIntervals))]),
	}
}

func runDetailGrid(cfg config, scratch string, rep *report) error {
	return runGrid(cfg, scratch, rep, detailSpec(cfg))
}

func runSampledGrid(cfg config, scratch string, rep *report) error {
	return runGrid(cfg, scratch, rep, sampledSpec(cfg))
}

// gridInsts is the instructions a job accounts for: committed ones for a
// detailed job, the whole functionally executed program for a sampled one.
func gridInsts(r sweep.JobResult) uint64 {
	if r.Sampled != nil {
		return r.Sampled.TotalInsts
	}
	return r.Insts
}

// runGrid measures passes of a sweep grid. Each pass runs the whole grid
// through sweep.Run with a fresh result cache and run directory, as
// `paper -cache auto` does on first use; an op is one job. The first pass
// is an untimed warm-up. A traced run rotates such passes with traced
// passes, which drive the same jobs through the layers directly, and bare
// passes, which take the traced path with spans off so the spans' cost can
// be told from the path's.
func runGrid(cfg config, scratch string, rep *report, spec sweep.Spec) error {
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	rep.infof("grid: %d jobs, scale %d, sizes %v, sample %q, %d workers", len(jobs), spec.Scale, spec.Sizes, spec.Sample, cfg.workers)
	if err := setupSeconds(cfg, rep, spec.Workloads, spec.Scale); err != nil {
		return err
	}
	specJSON, _ := json.Marshal(spec)

	var (
		ref        []sweep.JobResult // the first pass's results, per job
		refJSON    [][]byte
		refDigest  string
		crossRunOK = true
		walls      []float64
		rates      []float64
		jobMS      = make([][]float64, len(jobs)) // per job, one latency per pass
		allocMB    []float64
		idle       []float64
		tWalls     []float64
		tLayers    []map[string]float64
		bareWalls  []float64
	)
	start := time.Now()
	for pass := 0; !measured(cfg, start, len(walls), len(tWalls), len(bareWalls)); pass++ {
		dir := filepath.Join(scratch, fmt.Sprintf("pass%d", pass))
		if kind := pass % 3; cfg.trace && kind != 0 {
			tr := rep.tr
			if kind == 2 {
				tr = nil
			}
			wall, layers, err := tracedGridPass(cfg, rep, tr, jobs, ref, dir, int32(pass*len(jobs)))
			if err != nil {
				return err
			}
			if tr == nil {
				bareWalls = append(bareWalls, wall)
			} else {
				tWalls = append(tWalls, wall)
				tLayers = append(tLayers, layers)
			}
			_ = os.RemoveAll(dir)
			continue
		}
		p, err := gridPass(cfg, spec, jobs, dir)
		if err != nil {
			return err
		}
		_ = os.RemoveAll(dir)
		passOK := true
		if p.digest == "" {
			passOK = false
			rep.problem("pass %d: no results.json (%v)", pass, p.runErr)
		}
		if ref == nil {
			ref, refJSON, refDigest = p.results, p.resultJSON, p.digest
			ok, err := checkDigest(cfg, string(specJSON), p.digest)
			if err != nil {
				return err
			}
			if !ok {
				crossRunOK = false
				rep.problem("results digest %s differs from an earlier run with the same seed", p.digest)
			}
		} else if p.digest != refDigest {
			passOK = false
			rep.problem("pass %d: results digest %s, first pass %s", pass, p.digest, refDigest)
		}
		var insts uint64
		var busy float64
		for i := range jobs {
			ok := passOK && crossRunOK && p.jobErr[i] == nil && p.results[i].ChecksumOK &&
				bytes.Equal(p.resultJSON[i], refJSON[i])
			if !ok && p.jobErr[i] != nil {
				rep.problem("pass %d job %d (%s/%s@%d): %v", pass, i, jobs[i].Workload, jobs[i].Scheme, jobs[i].Size, p.jobErr[i])
			}
			rep.op(ok)
			insts += gridInsts(p.results[i])
			busy += p.elapsed[i].Seconds()
		}
		if pass == 0 {
			// The first pass warms the process (heap, generator caches,
			// code) and sets the reference results; it is checked but not
			// timed.
			rep.infof("warm-up pass (checked, not timed): wall %.4g s", p.wall)
			start = time.Now()
			continue
		}
		for i := range jobs {
			jobMS[i] = append(jobMS[i], p.elapsed[i].Seconds()*1e3)
		}
		walls = append(walls, p.wall)
		rates = append(rates, float64(insts)/p.wall/1e6)
		allocMB = append(allocMB, p.allocMB)
		idle = append(idle, float64(cfg.workers)*p.wall-busy)
	}
	rep.digest = refDigest
	// An op's latency is its job's median over the passes, so the op count
	// (and with it the tail's percentile) is the grid size whatever the
	// number of passes, and a burst of host noise in one pass does not
	// decide the tail.
	opMS := make([]float64, len(jobs))
	for i, ms := range jobMS {
		opMS[i] = median(ms)
	}
	rep.infof("passes: %d untraced, wall %.4g s; results digest %s", len(walls), walls, refDigest)
	rep.infof("Go heap allocated per pass: %.4g MB", allocMB)
	if !cfg.trace {
		rep.values["wall_s"] = median(walls)
		rep.values["minst_per_s"] = median(rates)
		rep.values["alloc_mb"] = median(allocMB)
		rep.opTimes(opMS, "sweep jobs (each the job's median over the passes)")
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.values["peak_rss_mb"] = rss
		return nil
	}
	for _, m := range perLayer {
		if vs := layerSeries(tLayers, m.name); vs != nil {
			rep.values[m.name] = median(vs)
		}
	}
	rep.values["sweep.job_ms_p50"] = median(opMS)
	rep.values["sweep.idle_worker_s"] = median(idle)
	rep.values["trace.overhead_s"] = median(tWalls) - median(bareWalls)
	rep.infof("traced passes: wall %.4g s; with spans off: %.4g s; trace.overhead_s = the difference of their medians", tWalls, bareWalls)
	rep.infof("the traced path with spans off minus sweep.Run (a different code path, not span cost): %.4g s", median(bareWalls)-median(walls))
	return probeLayers(spec.Workloads, spec.Scale, rep)
}

// layerSeries collects one metric across traced passes (nil if absent).
func layerSeries(passes []map[string]float64, name string) []float64 {
	var out []float64
	for _, m := range passes {
		if v, ok := m[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// gridPassResult is one untraced pass through sweep.Run.
type gridPassResult struct {
	wall       float64
	results    []sweep.JobResult
	resultJSON [][]byte
	jobErr     []error
	elapsed    []time.Duration
	digest     string // sha256 of results.json; "" if the run wrote none
	runErr     error
	allocMB    float64
}

func gridPass(cfg config, spec sweep.Spec, jobs []sweep.Job, dir string) (gridPassResult, error) {
	p := gridPassResult{jobErr: make([]error, len(jobs)), elapsed: make([]time.Duration, len(jobs))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return p, err
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{
		Dir:     filepath.Join(dir, "run"),
		Cache:   cache,
		Workers: cfg.workers,
		OnJob: func(o sweep.JobOutcome) {
			p.jobErr[o.Index], p.elapsed[o.Index] = o.Err, o.Elapsed
		},
	})
	p.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	if res == nil {
		return p, err
	}
	p.runErr = err
	p.results = res.Results
	p.resultJSON = make([][]byte, len(jobs))
	for i := range res.Results {
		if p.resultJSON[i], err = json.Marshal(res.Results[i]); err != nil {
			return p, err
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "run", sweep.ResultsFile)); err == nil {
		p.digest = sha(data)
	}
	return p, nil
}

// simCounts sums the simulated statistics of every core a traced pass
// built. They are deterministic for a seed: a change meant only to speed
// the simulator up must leave them identical.
type simCounts struct {
	mu sync.Mutex
	cycles, committed, fetched, squashed,
	stallROB, stallIQ, stallLSQ, stallNoReg,
	allocs, reuses, repairs, l1dMiss, l2Miss, mispredicts uint64
}

func (s *simCounts) add(core *pipeline.Core) {
	st := core.Stats()
	ri, rf := core.RenStats(0), core.RenStats(1)
	h := core.Hierarchy()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cycles += st.Cycles
	s.committed += st.Committed
	s.fetched += st.FetchedInsts
	s.squashed += st.SquashedInsts
	s.stallROB += st.StallROB
	s.stallIQ += st.StallIQ
	s.stallLSQ += st.StallLSQ
	s.stallNoReg += st.StallNoRegInt + st.StallNoRegFP
	s.allocs += ri.Allocations + rf.Allocations
	s.reuses += ri.TotalReuses() + rf.TotalReuses()
	s.repairs += ri.Repairs + rf.Repairs
	s.l1dMiss += h.L1D.Misses
	s.l2Miss += h.L2.Misses
	s.mispredicts += st.Mispredicts
}

// tracedGridPass drives the grid's jobs through the layers directly, with
// the same parallelism as sweep.Run, mirroring what the engine does per
// job: a cache lookup, the program load, the simulation (pipeline.New and
// Run, or ckpt.SampleN with a callback mirroring the engine's sampled
// execution), a cache put and a fsynced manifest append. Each job's
// simulated result is checked against the untraced pass's. It returns the
// pass wall time and, when tr is set, its per-layer metrics.
func tracedGridPass(cfg config, rep *report, tr *tracer, jobs []sweep.Job, ref []sweep.JobResult, dir string, opBase int32) (float64, map[string]float64, error) {
	cache, err := sweep.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return 0, nil, err
	}
	man, err := sweep.OpenManifest(filepath.Join(dir, sweep.ManifestFile))
	if err != nil {
		return 0, nil, err
	}
	defer man.Close()
	var (
		sc    simCounts
		manMu sync.Mutex
		oks   = make([]bool, len(jobs))
		fatal = make([]error, len(jobs))
	)
	root := tr.begin("pass", -1, -1)
	t0 := time.Now()
	_ = par.ForEachCtx(context.Background(), len(jobs), cfg.workers, func(i int) error {
		j, op := jobs[i], opBase+int32(i)
		js := tr.begin("sweep.job", root, op)
		defer tr.end(js)
		key := j.Key()
		id := tr.begin("sweep.Cache.Get", js, op)
		_, hit := cache.Get(key)
		tr.end(id)
		id = tr.begin("workloads.load", js, op)
		w, _ := workloads.ByName(j.Workload, j.Scale)
		p := w.Program()
		tr.end(id)
		simulate := tracedDetail
		if j.Sample != "" {
			simulate = tracedSampled
		}
		err := simulate(j, w, p, ref[i], tr, js, op, &sc)
		if err != nil {
			rep.problem("traced job %d (%s/%s@%d): %v", i, j.Workload, j.Scheme, j.Size, err)
		}
		// Every pass starts on an empty cache, so a hit is a failure.
		oks[i] = err == nil && !hit
		id = tr.begin("sweep.Cache.Put", js, op)
		err = cache.Put(key, j, ref[i])
		tr.end(id)
		if err == nil {
			manMu.Lock()
			id = tr.begin("sweep.Manifest.Append", js, op)
			err = man.Append(sweep.ManifestEntry{Key: key, Source: "run", Result: ref[i]})
			tr.end(id)
			manMu.Unlock()
		}
		fatal[i] = err
		return nil
	})
	wall := time.Since(t0).Seconds()
	tr.end(root)
	for i, err := range fatal {
		if err != nil {
			return 0, nil, fmt.Errorf("traced job %d: %w", i, err)
		}
	}
	for _, ok := range oks {
		rep.op(ok)
	}
	if tr == nil {
		return wall, nil, nil
	}

	lt := tr.summarize(root)
	get := func(name string) (float64, int) {
		if l := lt[name]; l != nil {
			return l.Total, l.Count
		}
		return 0, 0
	}
	m := map[string]float64{}
	newS, newN := get("pipeline.New")
	runS, _ := get("pipeline.Run")
	runToS, _ := get("pipeline.RunTo")
	runS += runToS
	m["pipeline.new_calls"] = float64(newN)
	m["pipeline.new_s"] = newS
	m["pipeline.new_ms"] = ratio(newS*1e3, float64(newN))
	m["pipeline.run_s"] = runS
	m["pipeline.ns_per_cycle"] = ratio(runS*1e9, float64(sc.cycles))
	m["pipeline.ns_per_inst"] = ratio(runS*1e9, float64(sc.committed))
	m["pipeline.cycles"] = float64(sc.cycles)
	m["pipeline.committed"] = float64(sc.committed)
	m["pipeline.fetched"] = float64(sc.fetched)
	m["pipeline.useful_ratio"] = ratio(float64(sc.committed), float64(sc.fetched))
	m["pipeline.squashed"] = float64(sc.squashed)
	m["pipeline.stall_rob"] = float64(sc.stallROB)
	m["pipeline.stall_iq"] = float64(sc.stallIQ)
	m["pipeline.stall_lsq"] = float64(sc.stallLSQ)
	m["rename.allocations"] = float64(sc.allocs)
	m["rename.reuses"] = float64(sc.reuses)
	m["rename.reuse_ratio"] = ratio(float64(sc.reuses), float64(sc.allocs+sc.reuses))
	m["rename.repairs"] = float64(sc.repairs)
	m["rename.stall_noreg"] = float64(sc.stallNoReg)
	m["memsys.l1d_misses"] = float64(sc.l1dMiss)
	m["memsys.l2_misses"] = float64(sc.l2Miss)
	m["bpred.mpki"] = ratio(1000*float64(sc.mispredicts), float64(sc.committed))
	if detailS, n := get("ckpt.RunDetail"); n > 0 {
		m["ckpt.intervals"] = float64(n)
		m["ckpt.detail_s"] = detailS
		m["ckpt.self_s"] = lt["ckpt.SampleN"].Self
	}
	putS, putN := get("sweep.Cache.Put")
	appS, appN := get("sweep.Manifest.Append")
	m["sweep.cache_put_ms"] = ratio(putS*1e3, float64(putN))
	m["sweep.manifest_append_ms"] = ratio(appS*1e3, float64(appN))
	return wall, m, nil
}

// tracedDetail runs one fully detailed job: pipeline.New, then Run.
func tracedDetail(j sweep.Job, w workloads.Workload, p *prog.Program, ref sweep.JobResult, tr *tracer, parent, op int32, sc *simCounts) error {
	cfg, err := jobConfig(j)
	if err != nil {
		return err
	}
	id := tr.begin("pipeline.New", parent, op)
	core := pipeline.New(cfg, p)
	tr.end(id)
	id = tr.begin("pipeline.Run", parent, op)
	err = core.Run()
	tr.end(id)
	if err != nil {
		return err
	}
	sc.add(core)
	x, _ := core.ArchRegs()
	st := core.Stats()
	if core.Halted() && x[workloads.CheckReg] != w.Want {
		return fmt.Errorf("checksum %#x, want %#x", x[workloads.CheckReg], w.Want)
	}
	if st.Cycles != ref.Cycles || st.Committed != ref.Insts {
		return fmt.Errorf("traced %d cycles / %d insts, sweep.Run %d / %d", st.Cycles, st.Committed, ref.Cycles, ref.Insts)
	}
	return nil
}

// tracedSampled runs one interval-sampled job through ckpt.SampleN with a
// callback that mirrors the engine's: boot a core at the interval, run the
// unmeasured warmup, then the measured detail, and report the delta.
func tracedSampled(j sweep.Job, w workloads.Workload, p *prog.Program, ref sweep.JobResult, tr *tracer, parent, op int32, sc *simCounts) error {
	plan, err := ckpt.ParsePlan(j.Sample)
	if err != nil {
		return err
	}
	cfg, err := jobConfig(j)
	if err != nil {
		return err
	}
	sid := tr.begin("ckpt.SampleN", parent, op)
	est, final, err := ckpt.SampleN(p, plan, j.MaxInsts, 1, func(bs *ckpt.BootState, warmup, detail uint64) (ckpt.IntervalStats, error) {
		rid := tr.begin("ckpt.RunDetail", sid, op)
		defer tr.end(rid)
		c := cfg
		c.Boot, c.BootWarmup, c.MaxInsts = bs.Boot, bs.Warmup, warmup+detail
		id := tr.begin("pipeline.New", rid, op)
		core := pipeline.New(c, p)
		tr.end(id)
		id = tr.begin("pipeline.RunTo", rid, op)
		defer tr.end(id)
		if err := core.RunTo(warmup); err != nil {
			return ckpt.IntervalStats{}, err
		}
		st := core.Stats()
		cyc, ins, reu := st.Cycles, st.Committed, core.RenStats(0).TotalReuses()+core.RenStats(1).TotalReuses()
		if err := core.RunTo(warmup + detail); err != nil {
			return ckpt.IntervalStats{}, err
		}
		sc.add(core)
		return ckpt.IntervalStats{
			Cycles:    st.Cycles - cyc,
			Insts:     st.Committed - ins,
			ReuseHits: core.RenStats(0).TotalReuses() + core.RenStats(1).TotalReuses() - reu,
		}, nil
	})
	tr.end(sid)
	if err != nil {
		return err
	}
	if final.Halted && final.X[workloads.CheckReg] != w.Want {
		return fmt.Errorf("sampled checksum %#x, want %#x", final.X[workloads.CheckReg], w.Want)
	}
	if s := ref.Sampled; s == nil || est.Samples != s.Samples || est.IPCMean != s.IPCMean || est.TotalInsts != s.TotalInsts {
		return fmt.Errorf("traced estimate (%d samples, ipc %v, %d insts) differs from sweep.Run's %+v", est.Samples, est.IPCMean, est.TotalInsts, ref.Sampled)
	}
	return nil
}
