package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// Set-up probes re-execute the running binary, here the test binary.
	if spec := os.Getenv(probeEnv); spec != "" {
		os.Exit(probeMain(spec))
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for its warm-up and one timed pass (two
// kernels, zero seconds) at a fixed seed: untraced twice, then traced. Each
// run must pass its checks, print exactly the metrics BENCHMARK.json names
// with their units, and reproduce the same output digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		if runners[wl.Name] == nil {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not run", wl.Name)
		}
	}
	dir := t.TempDir()
	sweepd := filepath.Join(dir, "sweepd")
	if out, err := exec.Command("go", "build", "-o", sweepd, "repro/cmd/sweepd").CombinedOutput(); err != nil {
		t.Fatalf("build sweepd: %v\n%s", err, out)
	}
	source := sourceDigest("..")
	for name := range runners {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for _, trace := range []bool{false, false, true} {
				cfg := config{
					workload: name, seed: 7, trace: trace, root: "..", source: source,
					out: filepath.Join(dir, "out"), sweepd: sweepd,
					kernels: []string{"poly_horner", "bitops"}, workers: 2,
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := emit(&buf, cfg, hostStamp(cfg), rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%t: correct=%t attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, buf.String())
				}
				want := map[string]string{}
				for _, m := range bench.EndToEnd {
					want[m.Name] = m.Unit
				}
				if trace {
					want = map[string]string{}
					for _, m := range bench.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%t: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("trace=%t: metric %s printed as %+v (present %t), want unit %s", trace, name, got, ok, unit)
					}
				}
				if got := res.Metrics["sweep.cache_hit_ratio"]; trace && got.Value != 1 {
					t.Errorf("sweep.cache_hit_ratio = %v on the sweepd probe, want 1", got.Value)
				}
				digests = append(digests, rep.digest)
			}
			if digests[0] == "" || digests[0] != digests[1] || digests[0] != digests[2] {
				t.Errorf("output digests do not repeat: %q", digests)
			}
		})
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 20 || pct != 100*20.0/30 {
		t.Errorf("tail of 1..30 = %v at p%v, want 20 at p66.7", v, pct)
	}
	if v, pct := tail(xs[:10]); v != 10 || pct != 100 {
		t.Errorf("tail of 1..10 = %v at p%v, want the maximum", v, pct)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "job", Start: 10, End: 50, Parent: 0},
		{Name: "job", Start: 30, End: 70, Parent: 0}, // overlaps the first job
		{Name: "new", Start: 10, End: 20, Parent: 1},
	}}
	lt := tr.summarize(0)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
	if got := lt["pass"].Self; !near(got, 40e-9) {
		t.Errorf("pass self = %v s, want 40ns", got)
	}
	if got := lt["job"].Self; !near(got, 70e-9) {
		t.Errorf("job self = %v s, want 70ns", got)
	}
	if got := lt["job"].Count; got != 2 {
		t.Errorf("job count = %d, want 2", got)
	}
}
