// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the simulator's public entry point, sweep.Run with
// Options.OnJob, for a fixed number of host seconds, checks every output,
// and prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	bash e2ebench/run.sh --workload detail_grid --seed 1 --seconds 45 --trace 0
//
// With --trace 1 the same jobs are instead driven through each layer's
// public functions, with a span around every call, and the per-layer
// metrics are printed; a traced run also probes the HTTP surface of
// cmd/sweepd. NOTES.md gives the reason for each workload and the
// end-to-end metric each layer metric is expected to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/workloads"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string   // checkout root: hashed into the host stamp
	source   string   // sha256 of the checkout's Go sources (sourceDigest)
	out      string   // scratch, digests and run records, inside the checkout
	sweepd   string   // sweepd binary built from this checkout
	kernels  []string // kernels to run; nil = all 33 (the smoke test narrows it)
	workers  int      // load parallelism: sweep workers, sweepd -workers
}

// runners maps each workload name to its driver.
var runners = map[string]func(cfg config, scratch string, r *report) error{
	"detail_grid":  runDetailGrid,
	"sampled_grid": runSampledGrid,
}

// report collects what a run measured and checked.
type report struct {
	attempted, failed int
	mu                sync.Mutex // guards problems: traced passes check jobs in parallel
	problems          []string
	values            map[string]float64
	info              []string
	digest            string  // sha256 of the workload's simulated outputs
	tr                *tracer // nil for untraced runs
}

func newReport(trace bool) *report {
	r := &report{values: map[string]float64{}}
	if trace {
		r.tr = newTracer()
	}
	return r
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	const keep = 20
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// op counts one timed operation and whether it passed its checks.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// opTimes sets op_ms_p50 and op_ms_tail and logs the tail's percentile.
func (r *report) opTimes(ms []float64, what string) {
	r.values["op_ms_p50"] = median(ms)
	v, pct := tail(ms)
	r.values["op_ms_tail"] = v
	r.infof("op_ms_tail = p%.1f of %d %s (the highest percentile with >= 10 ops beyond it)", pct, len(ms), what)
}

func main() {
	if spec := os.Getenv(probeEnv); spec != "" {
		os.Exit(probeMain(spec))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	cfg.source = sourceDigest(cfg.root)
	st := hostStamp(cfg)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, st, rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		cfg     config
		seconds int
		trace   int
	)
	fl.StringVar(&cfg.workload, "workload", "", "detail_grid | sampled_grid")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed: kernel order, detail_grid sizes, sampled_grid interval")
	fl.IntVar(&seconds, "seconds", 15, "host seconds to measure for (at least one op always runs)")
	fl.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fl.StringVar(&cfg.root, "root", ".", "checkout root")
	fl.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files, digests and run records")
	fl.StringVar(&cfg.sweepd, "sweepd", ".bench_build/bin/sweepd", "sweepd binary (traced runs' sweepd probe)")
	if err := fl.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := runners[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if seconds < 0 || trace < 0 || trace > 1 {
		return cfg, fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	cfg.seconds, cfg.trace = float64(seconds), trace == 1
	cfg.workers = runtime.NumCPU()
	return cfg, nil
}

// run executes the configured workload in a scratch directory of its own
// and fills every metric its mode prints.
func run(cfg config) (*report, error) {
	scratch := filepath.Join(cfg.out, "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rep := newReport(cfg.trace)
	if err := runners[cfg.workload](cfg, scratch, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		names := kernelOrder(cfg, rand.New(rand.NewSource(cfg.seed)))
		if err := probeUnreached(cfg, scratch, rep, names); err != nil {
			return nil, fmt.Errorf("%s: layer probe: %w", cfg.workload, err)
		}
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			if _, ok := rep.values[m.name]; !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, m.name)
			}
		}
	}
	return rep, nil
}

// kernelOrder is the run's kernel list in the order the seed picks.
func kernelOrder(cfg config, rng *rand.Rand) []string {
	names := cfg.kernels
	if names == nil {
		names = workloads.Names()
	}
	names = append([]string(nil), names...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// record is the run's full account, kept in <out>/results.
type record struct {
	Host     stamp       `json:"host"`
	Result   result      `json:"result"`
	FailFrac float64     `json:"fail_frac"`
	Problems []string    `json:"problems,omitempty"`
	Info     []string    `json:"info"`
	Layers   []layerTime `json:"span_summary,omitempty"`
}

// emit prints the human-readable account, writes the run record (and the
// spans of a traced run), and prints the result object as the last line.
func emit(w io.Writer, cfg config, st stamp, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		rep.values["trace.spans"] = float64(rep.tr.count())
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]valueUnit{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = valueUnit{rep.values[m.name], m.unit}
	}
	rec := record{Host: st, Result: res, Problems: rep.problems, Info: rep.info}
	if rep.attempted > 0 {
		rec.FailFrac = float64(rep.failed) / float64(rep.attempted)
	}

	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%.16s\n",
		st.CPUModel, st.NProc, st.GOMAXPROCS, st.GoVersion, st.GitCommit, st.SourceSHA256)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%t ops=%d failed=%d fail_frac=%g\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.attempted, rep.failed, rec.FailFrac)
	for _, line := range rep.info {
		fmt.Fprintln(w, "  "+line)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  FAILED CHECK: "+p)
	}
	for _, m := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, rep.values[m.name], m.unit)
	}

	stem := fmt.Sprintf("%s-seed%d-trace%d-%s", cfg.workload, cfg.seed, b2i(cfg.trace),
		time.Now().UTC().Format("20060102T150405.000"))
	if rep.tr != nil {
		rec.Layers = sortedTimes(rep.tr.summarize(-1))
		if err := os.MkdirAll(filepath.Join(cfg.out, "traces"), 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.out, "traces", stem+".spans.json")
		if err := rep.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "  spans: %s\n", path)
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "results"), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results", stem+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sha(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// checkDigest compares an output digest with the one an earlier run of the
// same inputs and the same source code recorded, recording it on first use.
// Simulated outputs are deterministic, so any difference is a failure. The
// source digest is part of the key: a change that alters the outputs on
// purpose starts a fresh record instead of failing against an older
// commit's.
func checkDigest(cfg config, inputs, digest string) (bool, error) {
	dir := filepath.Join(cfg.out, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%.16s-%.16s.sha256", cfg.workload, cfg.source, sha([]byte(inputs))))
	prev, err := os.ReadFile(path)
	if err == nil {
		return strings.TrimSpace(string(prev)) == digest, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	return true, os.WriteFile(path, []byte(digest+"\n"), 0o644)
}

// measured reports whether a measurement loop that started at start is
// done: never before its first op, and in a traced run never before it has
// an untraced, a traced and a bare sample (the traced path with spans off).
func measured(cfg config, start time.Time, untraced, traced, bare int) bool {
	if untraced == 0 || (cfg.trace && (traced == 0 || bare == 0)) {
		return false
	}
	return time.Since(start).Seconds() >= cfg.seconds
}
