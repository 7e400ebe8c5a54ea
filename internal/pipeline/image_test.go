package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// imageDigest hashes a program's shared data-page image.
func imageDigest(p *prog.Program) [sha256.Size]byte {
	h := sha256.New()
	for _, pg := range p.DataPages() {
		h.Write(binary.LittleEndian.AppendUint64(nil, pg.PN))
		h.Write(pg.Data[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// TestDataImageNeverWritten runs every workload's shared (memoized) Program
// through the functional emulator, a detailed core from reset, and a
// detailed core booted from a mid-program snapshot, and requires the data
// pages every machine boots from to be byte-identical afterwards: all
// stores land in copied pages.
func TestDataImageNeverWritten(t *testing.T) {
	for _, w := range workloads.Small() {
		p := w.Program()
		before := imageDigest(p)

		s := emu.New(p)
		n, err := s.RunToHalt(30_000_000, nil)
		if err != nil {
			t.Fatalf("%s: emu: %v", w.Name, err)
		}
		c := New(DefaultConfig(Baseline), p)
		if err := c.Run(); err != nil {
			t.Fatalf("%s: detailed: %v", w.Name, err)
		}
		sn, err := ckpt.FastForward(p, n/2)
		if err != nil {
			t.Fatalf("%s: fast-forward: %v", w.Name, err)
		}
		cfg := DefaultConfig(Reuse)
		cfg.Boot = sn
		if err := New(cfg, p).Run(); err != nil {
			t.Fatalf("%s: booted: %v", w.Name, err)
		}
		if imageDigest(p) != before {
			t.Fatalf("%s: a run wrote into the program's shared data image", w.Name)
		}
	}
}

// TestConcurrentBootFromStoredSnapshot boots several cores at once from one
// snapshot decoded by the checkpoint store — the sampled-sweep shape. Each
// core (and its lockstep oracle) clones the snapshot's memory and then
// stores into the workload's arrays; under -race this pins that cloning a
// store-loaded snapshot only reads it. Every core must reach the reference
// checksum and the snapshot must be unchanged.
func TestConcurrentBootFromStoredSnapshot(t *testing.T) {
	w, _ := workloads.ByName("qsortint", 1)
	p := w.Program()
	d := ckpt.ProgramDigest(p)
	const at = 5000
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ckpt.FastForward(p, at)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(d, sn); err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := store.Load(d, at)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}

	schemes := []Scheme{Baseline, Reuse, EarlyRelease, Reuse, Baseline}
	got := make([][isa.NumIntRegs]uint64, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, scheme := range schemes {
		wg.Add(1)
		go func(i int, scheme Scheme) {
			defer wg.Done()
			cfg := DefaultConfig(scheme)
			cfg.Boot = loaded
			cfg.CheckOracle = true
			c := New(cfg, p)
			errs[i] = c.Run()
			got[i], _ = c.ArchRegs()
		}(i, scheme)
	}
	wg.Wait()
	for i := range schemes {
		if errs[i] != nil {
			t.Fatalf("core %d (%v): %v", i, schemes[i], errs[i])
		}
		if got[i][workloads.CheckReg] != w.Want {
			t.Errorf("core %d (%v): checksum %#x, want %#x", i, schemes[i], got[i][workloads.CheckReg], w.Want)
		}
	}
	if !loaded.Equal(sn) {
		t.Error("booting cores changed the stored snapshot")
	}
}
