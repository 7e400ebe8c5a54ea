package rename

import (
	"fmt"

	"repro/internal/recycle"
	"repro/internal/regfile"
)

// BaselineRenamer is the conventional merged-register-file scheme (§II):
// every destination allocates a fresh physical register from a single free
// list, and the previous mapping is released when the redefining instruction
// commits. All tags use version 0.
type BaselineRenamer struct {
	numLog    int
	mapTable  []Tag
	retireMap []Tag
	// retireRefs counts, per physical register, how many logical registers
	// the retirement map currently maps to it (0 or 1 in the baseline).
	retireRefs []uint8
	freeList   *freeRing
	rf         *regfile.File
	stats      Stats
	ckptPool   []*baselineCkpt
}

type baselineCkpt struct {
	mapTable []Tag
	freeMark uint64
}

var _ Renamer = (*BaselineRenamer)(nil)

// NewBaseline creates a baseline renamer for numLog logical registers backed
// by rf (which must be a uniform 0-shadow file at least numLog+1 large, so
// renaming can make progress).
func NewBaseline(numLog int, rf *regfile.File) *BaselineRenamer {
	b := &BaselineRenamer{}
	b.Reset(numLog, rf)
	return b
}

// Reset puts b into the state NewBaseline(numLog, rf) builds, reusing its
// arrays where they are large enough. Pooled checkpoints are kept when
// numLog is unchanged: Checkpoint overwrites every field of a pooled one.
func (b *BaselineRenamer) Reset(numLog int, rf *regfile.File) {
	if rf.Size() <= numLog {
		panic(fmt.Sprintf("rename: register file of %d cannot back %d logical registers", rf.Size(), numLog))
	}
	pool := b.ckptPool
	if numLog != b.numLog {
		pool = nil
	}
	*b = BaselineRenamer{
		numLog:     numLog,
		mapTable:   recycle.Zeroed(b.mapTable, numLog),
		retireMap:  recycle.Zeroed(b.retireMap, numLog),
		retireRefs: recycle.Zeroed(b.retireRefs, rf.Size()),
		freeList:   resetRing(b.freeList, rf.Size()),
		rf:         rf,
		ckptPool:   pool,
	}
	for l := 0; l < numLog; l++ {
		t := Tag{Reg: PhysReg(l)}
		b.mapTable[l] = t
		b.retireMap[l] = t
		b.retireRefs[l] = 1
		rf.Write(PhysReg(l), 0, 0) // architectural zero
	}
	for p := numLog; p < rf.Size(); p++ {
		b.freeList.push(PhysReg(p))
	}
}

// PeekSrc implements Renamer.
//
//repro:hotpath
func (b *BaselineRenamer) PeekSrc(log uint8) SrcInfo {
	return SrcInfo{Tag: b.mapTable[log]}
}

// MarkSrcRead implements Renamer (the baseline has no Read bits).
//
//repro:hotpath
func (b *BaselineRenamer) MarkSrcRead(log uint8) Tag { return b.mapTable[log] }

// RenameDest implements Renamer: always allocate.
//
//repro:hotpath
func (b *BaselineRenamer) RenameDest(pc uint64, destLog uint8, srcLogs []uint8) (DestResult, bool) {
	p, ok := b.freeList.pop()
	if !ok {
		return DestResult{}, false
	}
	b.rf.ResetOnAlloc(p)
	b.mapTable[destLog] = Tag{Reg: p}
	b.stats.Allocations++
	b.stats.AllocsPerBank[0]++
	return DestResult{Log: destLog, Tag: Tag{Reg: p}, Allocated: true}, true
}

// RepairSteal implements Renamer; the baseline never steals registers.
func (b *BaselineRenamer) RepairSteal(log uint8) (Repair, bool) {
	panic("rename: baseline has no stolen mappings")
}

// Commit implements Renamer: retire the mapping and release the previous
// physical register of the redefined logical register.
//
//repro:hotpath
func (b *BaselineRenamer) Commit(r DestResult) {
	b.retireRefs[r.Tag.Reg]++
	old := b.retireMap[r.Log]
	b.retireMap[r.Log] = r.Tag
	b.retireRefs[old.Reg]--
	if b.retireRefs[old.Reg] == 0 {
		b.freeList.push(old.Reg)
		b.stats.Releases++
	}
}

// Checkpoint implements Renamer, recycling released snapshots.
func (b *BaselineRenamer) Checkpoint() Checkpoint {
	var c *baselineCkpt
	if n := len(b.ckptPool); n > 0 {
		c = b.ckptPool[n-1]
		b.ckptPool = b.ckptPool[:n-1]
		copy(c.mapTable, b.mapTable)
	} else {
		c = &baselineCkpt{mapTable: append([]Tag(nil), b.mapTable...)}
	}
	c.freeMark = b.freeList.mark()
	return c
}

// ReleaseCheckpoint implements Renamer.
func (b *BaselineRenamer) ReleaseCheckpoint(c Checkpoint) {
	if ck, ok := c.(*baselineCkpt); ok && len(b.ckptPool) < 256 {
		b.ckptPool = append(b.ckptPool, ck)
	}
}

// Restore implements Renamer; the baseline needs no register recoveries.
func (b *BaselineRenamer) Restore(c Checkpoint) int {
	ck := c.(*baselineCkpt)
	copy(b.mapTable, ck.mapTable)
	b.freeList.rewind(ck.freeMark)
	return 0
}

// RestoreArch implements Renamer: copy the retirement map and rebuild the
// free list from it.
func (b *BaselineRenamer) RestoreArch() int {
	copy(b.mapTable, b.retireMap)
	b.freeList.reset()
	for p := 0; p < b.rf.Size(); p++ {
		if b.retireRefs[p] == 0 {
			b.freeList.push(PhysReg(p))
		}
	}
	return 0
}

// FreeRegs implements Renamer.
//
//repro:hotpath
func (b *BaselineRenamer) FreeRegs() int { return b.freeList.len() }

// Stats implements Renamer.
func (b *BaselineRenamer) Stats() *Stats { return &b.stats }

// RetireTag exposes the architectural mapping of a logical register (used by
// the pipeline's oracle checks).
//
//repro:hotpath
func (b *BaselineRenamer) RetireTag(log uint8) Tag { return b.retireMap[log] }
