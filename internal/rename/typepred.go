package rename

import "repro/internal/recycle"

// TypePredictor is the paper's register type predictor (§IV-D): a PC-indexed
// table of 2-bit entries. Entry value 0 predicts a normal register (no
// shadow cells); values 1..3 predict a register that will be reused, to be
// allocated from the bank with that many shadow cells.
//
// Updates follow §IV-D:
//   - at release, if not all allocated shadow copies were used, the entry is
//     decremented;
//   - when a predicted-single-use register is observed to have a second
//     consumer, the entry is reset to zero;
//   - when a reuse is blocked because the register lacks shadow cells, the
//     entry is incremented.
//
// One predictor is shared by the integer and floating-point renamers, as a
// single hardware table would be.
type TypePredictor struct {
	entries []uint8

	Lookups    uint64
	Increments uint64
	Decrements uint64
	Resets     uint64
}

// NewTypePredictor builds a table with the given entry count (power of two;
// the paper uses 512). All entries start at 1, biasing new code toward
// single-shadow registers.
func NewTypePredictor(entries int) *TypePredictor {
	t := &TypePredictor{}
	t.ResetTable(entries)
	return t
}

// ResetTable puts t into the state NewTypePredictor(entries) builds, reusing
// its table when it is large enough. (Reset clears a single entry.)
func (t *TypePredictor) ResetTable(entries int) {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("rename: predictor size must be a positive power of two")
	}
	*t = TypePredictor{entries: recycle.Zeroed(t.entries, entries)}
	for i := range t.entries {
		t.entries[i] = 1
	}
}

// Index hashes an instruction PC to a table index.
func (t *TypePredictor) Index(pc uint64) int {
	h := (pc >> 2) ^ (pc >> 11)
	return int(h & uint64(len(t.entries)-1))
}

// Predict returns the predicted shadow-cell count (0..3) for the entry.
func (t *TypePredictor) Predict(idx int) uint8 {
	t.Lookups++
	return t.entries[idx]
}

// Increment nudges the entry toward more shadow cells.
func (t *TypePredictor) Increment(idx int) {
	if idx < 0 {
		return
	}
	if t.entries[idx] < 3 {
		t.entries[idx]++
		t.Increments++
	}
}

// Decrement nudges the entry toward fewer shadow cells.
func (t *TypePredictor) Decrement(idx int) {
	if idx < 0 {
		return
	}
	if t.entries[idx] > 0 {
		t.entries[idx]--
		t.Decrements++
	}
}

// Reset clears the entry to "normal register".
func (t *TypePredictor) Reset(idx int) {
	if idx < 0 {
		return
	}
	if t.entries[idx] != 0 {
		t.entries[idx] = 0
		t.Resets++
	}
}

// SizeBits returns the table's storage cost in bits (§VI-D: 1 Kbit for 512
// entries).
func (t *TypePredictor) SizeBits() int { return 2 * len(t.entries) }
