package rename

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFreeRingBasic(t *testing.T) {
	f := resetRing(nil, 4)
	if _, ok := f.pop(); ok {
		t.Error("pop from empty ring succeeded")
	}
	f.push(10)
	f.push(11)
	if f.len() != 2 {
		t.Errorf("len = %d", f.len())
	}
	if p, _ := f.pop(); p != 10 {
		t.Errorf("FIFO order violated: got %d", p)
	}
}

func TestFreeRingRewindRestoresWrongPathAllocs(t *testing.T) {
	f := resetRing(nil, 8)
	for i := PhysReg(0); i < 6; i++ {
		f.push(i)
	}
	mark := f.mark()
	a, _ := f.pop()
	b, _ := f.pop()
	// Releases after the checkpoint must survive the rewind.
	f.push(100)
	f.rewind(mark)
	if f.len() != 7 {
		t.Fatalf("len after rewind = %d, want 7", f.len())
	}
	// The wrong-path registers come back in their original order.
	if p, _ := f.pop(); p != a {
		t.Errorf("first pop after rewind = %d, want %d", p, a)
	}
	if p, _ := f.pop(); p != b {
		t.Errorf("second pop after rewind = %d, want %d", p, b)
	}
}

func TestFreeRingOverflowPanics(t *testing.T) {
	f := resetRing(nil, 2)
	f.push(1)
	f.push(2)
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	f.push(3)
}

func TestFreeRingRewindForwardPanics(t *testing.T) {
	f := resetRing(nil, 2)
	f.push(1)
	defer func() {
		if recover() == nil {
			t.Error("forward rewind did not panic")
		}
	}()
	f.rewind(f.mark() + 1)
}

// Property: under random alloc / release / checkpoint-rewind traffic that
// respects the renaming protocol (only in-flight-allocated regs may rewind;
// only released regs re-enter), the ring never loses or duplicates a
// register.
func TestFreeRingConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 16
		ring := resetRing(nil, n)
		free := map[PhysReg]bool{}
		for i := PhysReg(0); i < n; i++ {
			ring.push(i)
			free[i] = true
		}
		type ckpt struct {
			mark  uint64
			taken []PhysReg // allocations after this checkpoint
		}
		var cks []ckpt
		var released []PhysReg // registers "live" that may later be released
		for step := 0; step < 300; step++ {
			switch r.Intn(4) {
			case 0: // alloc
				if p, ok := ring.pop(); ok {
					if !free[p] {
						return false // double allocation
					}
					delete(free, p)
					for i := range cks {
						cks[i].taken = append(cks[i].taken, p)
					}
					released = append(released, p)
				}
			case 1: // commit-release a live register
				// Only instructions older than every live checkpoint can
				// commit (in-order commit frees a branch's checkpoint
				// before anything younger retires), so only registers
				// absent from every taken-list are eligible.
				eligible := func(p PhysReg) bool {
					for _, c := range cks {
						for _, q := range c.taken {
							if q == p {
								return false
							}
						}
					}
					return true
				}
				for tries := 0; tries < 3 && len(released) > 0; tries++ {
					i := r.Intn(len(released))
					p := released[i]
					if !eligible(p) {
						continue
					}
					released = append(released[:i], released[i+1:]...)
					ring.push(p)
					free[p] = true
					break
				}
			case 2: // checkpoint
				if len(cks) < 4 {
					cks = append(cks, ckpt{mark: ring.mark()})
				}
			case 3: // squash to a random checkpoint
				if len(cks) > 0 {
					i := r.Intn(len(cks))
					c := cks[i]
					ring.rewind(c.mark)
					for _, p := range c.taken {
						free[p] = true
						for j := len(released) - 1; j >= 0; j-- {
							if released[j] == p {
								released = append(released[:j], released[j+1:]...)
							}
						}
					}
					cks = cks[:i]
				}
			}
			if ring.len() != len(free) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
