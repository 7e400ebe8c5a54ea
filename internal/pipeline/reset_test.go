package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/prog"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// stateDiff walks a and b — pointers, interfaces, structs (unexported
// fields included), arrays, slices and maps — and describes the first
// difference it finds, or returns "" when they match. Nil and empty slices
// and maps compare equal, since no code path tells them apart. Fields named
// ckptPool are skipped: they are renamer scratch pools, every field of a
// pooled checkpoint is overwritten before it is used, and a recycled core
// keeps its pool on purpose.
func stateDiff(path string, a, b reflect.Value) string {
	if a.Kind() != b.Kind() {
		return fmt.Sprintf("%s: kind %v vs %v", path, a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return "" // shared, read-only inputs: the program, snapshot pages
		}
		return stateDiff(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: dynamic type %v vs %v", path, a.Elem().Type(), b.Elem().Type())
		}
		return stateDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if name == "ckptPool" {
				continue
			}
			if d := stateDiff(path+"."+name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		bv := make(map[string]reflect.Value, b.Len())
		for it := b.MapRange(); it.Next(); {
			bv[fmt.Sprint(it.Key())] = it.Value()
		}
		for it := a.MapRange(); it.Next(); {
			k := fmt.Sprint(it.Key())
			v, ok := bv[k]
			if !ok {
				return fmt.Sprintf("%s[%s]: missing", path, k)
			}
			if d := stateDiff(fmt.Sprintf("%s[%s]", path, k), it.Value(), v); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func, reflect.Chan:
		if a.Pointer() != b.Pointer() {
			return fmt.Sprintf("%s: %v differs", path, a.Kind())
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %v", path, a.Kind())
	}
	return ""
}

func coreDiff(a, b *Core) string {
	return stateDiff("Core", reflect.ValueOf(a), reflect.ValueOf(b))
}

// dirtyCore returns a core that has run an interval of another workload
// under another scheme and a different machine shape — larger or smaller
// register files and queues depending on parity, with the optional
// structures (store-wait table, lifetime tracking, occupancy histogram,
// interrupts) switched on — booted from a snapshot and stopped with
// instructions in flight.
func dirtyCore(t *testing.T, w workloads.Workload, scheme Scheme, parity int) *Core {
	t.Helper()
	cfg := DefaultConfig(scheme)
	if parity%2 == 0 {
		cfg.IntRegs, cfg.FPRegs = regfile.BankSizes{100, 20, 20, 20}, regfile.BankSizes{120, 16, 16, 8}
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.FetchQSize = 192, 64, 48, 40, 48
	} else {
		cfg.IntRegs, cfg.FPRegs = regfile.BankSizes{40, 4, 4, 4}, regfile.BankSizes{44, 2, 2, 2}
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.FetchQSize = 64, 24, 16, 12, 16
	}
	if scheme == Baseline {
		cfg.IntRegs = regfile.Uniform(cfg.IntRegs.Total(), 0)
		cfg.FPRegs = regfile.Uniform(cfg.FPRegs.Total(), 0)
	}
	if scheme == Reuse {
		cfg.OccupancySampleInterval = 7
	}
	cfg.MemSpeculation = true
	cfg.MeasureLifetimes = true
	cfg.InterruptEvery = 900
	cfg.FUCount[2] = 3
	p := w.Program()
	bs, _, err := ckpt.Prepare(nil, p, ckpt.ProgramDigest(p), 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Boot, cfg.BootWarmup = bs.Boot, bs.Warmup
	c := New(cfg, p)
	if err := c.RunTo(2500); err != nil {
		t.Fatalf("dirty %s/%v: %v", w.Name, scheme, err)
	}
	return c
}

// runBoth runs a recycled and a fresh core to target and requires the same
// architectural registers and the same complete state afterwards: Stats,
// renamer stats, every cache line and counter of the hierarchy, and the
// predictor tables.
func runBoth(t *testing.T, what string, recycled, fresh *Core, target uint64) {
	t.Helper()
	if d := coreDiff(recycled, fresh); d != "" {
		t.Fatalf("%s: after Reset, recycled core differs from New: %s", what, d)
	}
	errR, errF := recycled.RunTo(target), fresh.RunTo(target)
	if errR != nil || errF != nil {
		t.Fatalf("%s: run: recycled %v, fresh %v", what, errR, errF)
	}
	xr, fr := recycled.ArchRegs()
	xf, ff := fresh.ArchRegs()
	if xr != xf || fr != ff {
		t.Fatalf("%s: architectural registers differ", what)
	}
	if d := coreDiff(recycled, fresh); d != "" {
		t.Fatalf("%s: after the run, recycled core differs from a fresh one: %s", what, d)
	}
}

// TestResetMatchesNew pins the Reset ≡ New contract for every workload under
// every scheme: a dirty core reset for (cfg, p) is structurally identical to
// New(cfg, p) and then simulates identically, both for a full run from reset
// and for a snapshot-booted sampled interval, and so does a core recycled
// under its own scheme.
func TestResetMatchesNew(t *testing.T) {
	ws := workloads.Small()
	schemes := []Scheme{Baseline, Reuse, EarlyRelease}
	for i, w := range ws {
		if raceEnabled && i%11 != 0 {
			// The race detector slows the core about tenfold, and this test
			// shares only read-only inputs between its parallel subtests;
			// three workloads still cover all three schemes. The full
			// matrix runs in the ordinary test run and in make ckpt-tests.
			continue
		}
		for j, scheme := range schemes {
			i, j, w, scheme := i, j, w, scheme
			t.Run(w.Name+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				other := ws[(i+1)%len(ws)]
				otherScheme := schemes[(j+1)%len(schemes)]
				p := w.Program()
				cfg := DefaultConfig(scheme)

				c := dirtyCore(t, other, otherScheme, i+j)
				c.Reset(cfg, p)
				runBoth(t, "full run", c, New(cfg, p), 0)
				if !c.Halted() {
					t.Fatal("full run did not halt")
				}

				bs, _, err := ckpt.Prepare(nil, p, ckpt.ProgramDigest(p), 4000, 1000)
				if err != nil {
					t.Fatal(err)
				}
				icfg := cfg
				icfg.Boot, icfg.BootWarmup = bs.Boot, bs.Warmup
				c = dirtyCore(t, other, otherScheme, i+j+1)
				c.Reset(icfg, p)
				runBoth(t, "booted interval", c, New(icfg, p), 3000)

				// The same scheme again, as a sampled job's free list
				// recycles it, stopped with branches in flight: once with
				// larger register files (pooled checkpoints no longer
				// fit), once with the original ones.
				big := icfg
				if scheme == Baseline {
					big.IntRegs, big.FPRegs = regfile.Uniform(160, 0), regfile.Uniform(160, 0)
				} else {
					big.IntRegs, big.FPRegs = regfile.BankSizes{120, 16, 16, 8}, regfile.BankSizes{120, 16, 16, 8}
				}
				c.Reset(big, p)
				runBoth(t, "same scheme, larger files", c, New(big, p), 3000)
				c.Reset(icfg, p)
				runBoth(t, "same scheme, same shape", c, New(icfg, p), 3000)
			})
		}
	}
}

// bootedInterval returns the configuration of a sampled interval on
// listwalk at reference scale (the largest data image), booted 100k
// instructions in with a 1000-instruction warmup trace.
func bootedInterval(t testing.TB) (Config, *prog.Program) {
	w, _ := workloads.ByName("listwalk", 4)
	p := w.Program()
	bs, _, err := ckpt.Prepare(nil, p, ckpt.ProgramDigest(p), 100_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Reuse)
	cfg.Boot, cfg.BootWarmup = bs.Boot, bs.Warmup
	return cfg, p
}

// allocBytes returns the mean heap bytes one call of f allocates over n
// calls.
func allocBytes(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestResetAllocs pins the point of recycling: in steady state, resetting a
// core and running a booted 3000-instruction interval on it allocates less
// than a tenth of the bytes, and a hundredth of the objects, that building
// a new core for the same interval does.
func TestResetAllocs(t *testing.T) {
	cfg, p := bootedInterval(t)
	const target = 3000
	run := func(c *Core) {
		if err := c.RunTo(target); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func() { run(New(cfg, p)) }
	c := New(cfg, p)
	recycled := func() {
		c.Reset(cfg, p)
		run(c)
	}
	recycled() // reach the steady state: waiter lists, buckets, checkpoint pools

	newBytes, resetBytes := allocBytes(5, fresh), allocBytes(5, recycled)
	newAllocs, resetAllocs := testing.AllocsPerRun(5, fresh), testing.AllocsPerRun(5, recycled)
	t.Logf("per interval: New+RunTo %d B in %.0f allocs, Reset+RunTo %d B in %.0f allocs",
		newBytes, newAllocs, resetBytes, resetAllocs)
	if resetBytes*10 >= newBytes {
		t.Errorf("Reset+RunTo allocates %d B, want < 1/10 of New+RunTo's %d B", resetBytes, newBytes)
	}
	// The object count is held tighter: what remains is the memory clone
	// and its copy-on-write pages. Checkpoints left in flight by the
	// previous interval and not reclaimed by Reset would cost ~60 more.
	if resetAllocs*100 >= newAllocs {
		t.Errorf("Reset+RunTo makes %.0f allocations, want < 1/100 of New+RunTo's %.0f", resetAllocs, newAllocs)
	}
}
