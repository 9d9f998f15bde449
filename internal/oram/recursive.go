package oram

import (
	"encoding/binary"
	"fmt"
)

// RecursiveMap implements the recursive position map of Fletcher et al.
// (§4.4): the data ORAM's PosMap is itself stored as a chain of smaller
// ORAM trees in untrusted NVM. Each posmap block packs EntriesPerBlock
// leaf labels; level 1 maps data addresses, level 2 maps level-1 blocks,
// and so on until a level is small enough to live on chip as a flat map.
//
// Every data access walks the chain top-down. At each level the parent
// block is accessed with a read-modify-write that (a) yields the child's
// current leaf and (b) splices in the child's freshly drawn leaf — so
// the whole mapping stays consistent without any extra accesses, and the
// untrusted copy is rewritten on every access exactly as the paper's
// Rcr-Baseline does.
type RecursiveMap struct {
	DataTree        Tree
	EntriesPerBlock int
	// Levels holds the posmap ORAMs, Levels[0] being level 1 (maps data
	// addresses). Each is a fully functional Path ORAM whose block
	// payloads are packed leaf labels.
	Levels []*Controller
	// Top is the flat on-chip map for the smallest level: it maps block
	// indices of Levels[len(Levels)-1] to their leaves. When Levels is
	// empty, Top maps data addresses directly (recursion degenerated).
	Top *PosMap

	// PostAccess, when non-nil, runs after each level access during
	// Translate. The Rcr-PS-ORAM controller uses it to guarantee the
	// accessed posmap block actually left the stash (flushing it with an
	// extra eviction pass when greedy placement failed), so the parent's
	// durably written child leaf always points at a resident block.
	PostAccess func(level int, ctl *Controller, addr Addr, newLeaf Leaf) error

	// OnTopUpdate, when non-nil, observes updates to the on-chip Top map
	// (the persistent controller stages them into its WPQ batch).
	OnTopUpdate func(idx Addr, old, new Leaf)
}

// RecursiveParams configures the hierarchy.
type RecursiveParams struct {
	DataBlocks      uint64
	DataTree        Tree
	BlockBytes      int
	EntriesPerBlock int
	// OnChipEntries is the largest level kept as the flat Top map.
	OnChipEntries uint64
	StashEntries  int
	Seed          uint64
	Key           []byte
}

// RecursiveTrace reports the chain work of one translation, for timing
// and traffic accounting.
type RecursiveTrace struct {
	// LevelLeaves[i] is the path read in Levels[i].
	LevelLeaves []Leaf
	// BlocksRead is the total posmap-ORAM blocks fetched.
	BlocksRead int
	// BlocksWritten is the total posmap-ORAM blocks written back.
	BlocksWritten int
}

// NewRecursiveMap builds the hierarchy for the given data ORAM size.
func NewRecursiveMap(p RecursiveParams) (*RecursiveMap, error) {
	if p.EntriesPerBlock <= 0 {
		return nil, fmt.Errorf("oram: EntriesPerBlock must be positive")
	}
	if p.EntriesPerBlock*4 > p.BlockBytes {
		return nil, fmt.Errorf("oram: %d entries of 4 bytes exceed the %dB block", p.EntriesPerBlock, p.BlockBytes)
	}
	m := &RecursiveMap{DataTree: p.DataTree, EntriesPerBlock: p.EntriesPerBlock}

	seed := p.Seed
	n := p.DataBlocks
	for n > p.OnChipEntries {
		nBlocks := (n + uint64(p.EntriesPerBlock) - 1) / uint64(p.EntriesPerBlock)
		// Size a tree for nBlocks at <=50% utilization.
		levels := 2
		for {
			t := NewTree(levels, p.DataTree.Z)
			if t.Slots()/2 >= nBlocks {
				break
			}
			levels++
		}
		seed++
		ctl, err := New(Params{
			Levels:       levels,
			Z:            p.DataTree.Z,
			BlockBytes:   p.BlockBytes,
			StashEntries: maxInt(p.StashEntries, NewTree(levels, p.DataTree.Z).PathBlocks()*3),
			NumBlocks:    nBlocks,
			Seed:         seed,
			Key:          p.Key,
		})
		if err != nil {
			return nil, fmt.Errorf("oram: building posmap level %d: %w", len(m.Levels)+1, err)
		}
		m.Levels = append(m.Levels, ctl)
		n = nBlocks
	}
	// The flat Top map covers the smallest level's blocks using the
	// *child* tree's leaf space: Top entries are leaves in that child.
	var topTree Tree
	if len(m.Levels) == 0 {
		topTree = p.DataTree
	} else {
		topTree = m.Levels[len(m.Levels)-1].Tree
	}
	// Reuse the child's own PosMap as Top so initial placement matches.
	if len(m.Levels) == 0 {
		// Degenerate: behave like a flat map over data addresses. The
		// caller supplies the data controller's own PosMap in that case;
		// build one here for standalone use.
		m.Top = NewPosMapFromTree(p.DataBlocks, topTree, seed+1000)
	} else {
		m.Top = m.Levels[len(m.Levels)-1].PosMap
	}

	// Initialize level payloads: each level-i block must hold the actual
	// current leaves of its children (level i-1 blocks, or data blocks
	// for level 1). Level-1 initial content is synced by SyncLevel1 once
	// the data ORAM exists.
	for i := len(m.Levels) - 1; i >= 1; i-- {
		parent, child := m.Levels[i], m.Levels[i-1]
		if err := m.fillLevel(parent, child.PosMap); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// NewPosMapFromTree builds a flat posmap (helper for the degenerate case).
func NewPosMapFromTree(n uint64, t Tree, seed uint64) *PosMap {
	return newPosMapSeed(n, t, seed)
}

// SyncLevel1 writes the data ORAM's current PosMap into the level-1
// blocks (called once at construction of a recursive system, before any
// accesses).
func (m *RecursiveMap) SyncLevel1(dataMap *PosMap) error {
	if len(m.Levels) == 0 {
		return nil
	}
	return m.fillLevel(m.Levels[0], dataMap)
}

// fillLevel overwrites parent's block payloads with child leaves, in
// place in both tree image and stash (initialization only).
func (m *RecursiveMap) fillLevel(parent *Controller, child *PosMap) error {
	k := uint64(m.EntriesPerBlock)
	for blockIdx := uint64(0); blockIdx < parent.NumBlocks(); blockIdx++ {
		data := make([]byte, parent.Image.BlockBytes())
		for off := uint64(0); off < k; off++ {
			childIdx := blockIdx*k + off
			if childIdx >= child.Len() {
				break
			}
			binary.LittleEndian.PutUint32(data[off*4:], uint32(child.Lookup(Addr(childIdx))))
		}
		if err := initOverwrite(parent, Addr(blockIdx), data); err != nil {
			return err
		}
	}
	return nil
}

// initOverwrite rewrites a block's payload in the image without a
// protocol access (initialization only; finds the block wherever it is).
func initOverwrite(c *Controller, addr Addr, data []byte) error {
	l := c.PosMap.Lookup(addr)
	for _, bucket := range c.Tree.Path(l) {
		for z := 0; z < c.Tree.Z; z++ {
			b, err := OpenSlot(c.Engine, c.Image.Slot(bucket, z))
			if err != nil {
				return err
			}
			if b.Addr == addr && b.Leaf == l {
				b.Data = data
				c.Image.PutSlot(bucket, z, SealBlock(c.Engine, b, c.nextIV))
				return nil
			}
		}
	}
	return fmt.Errorf("oram: init overwrite could not locate block %d", addr)
}

// Translate resolves the data address's current leaf and replaces it with
// newLeaf, walking the whole chain. It returns the old leaf.
func (m *RecursiveMap) Translate(addr Addr, newLeaf Leaf) (Leaf, RecursiveTrace, error) {
	var tr RecursiveTrace
	if len(m.Levels) == 0 {
		old := m.Top.Lookup(addr)
		m.Top.Set(addr, newLeaf)
		if m.OnTopUpdate != nil {
			m.OnTopUpdate(addr, old, newLeaf)
		}
		return old, tr, nil
	}
	k := uint64(m.EntriesPerBlock)

	// Child indices bottom-up: idx[0] is the data address's level-1
	// block, idx[i] is idx[i-1]'s level-(i+1) block.
	idx := make([]Addr, len(m.Levels))
	cur := uint64(addr)
	for i := range m.Levels {
		cur = cur / k
		idx[i] = Addr(cur)
	}

	// Walk top-down. At each level the parent access both reads the
	// child's current leaf and installs the child's next leaf, which the
	// parent ORAM itself just drew during its own access below (for the
	// data level, newLeaf is the caller's draw).
	var old Leaf
	childNew := newLeaf
	childOff := uint64(addr) % k
	// For levels above 1 the "child" is a posmap block whose fresh leaf
	// is assigned by that level's own controller during its access; we
	// therefore walk bottom-up in two phases: phase 1 performs accesses
	// from the top level down, but each level's RMW needs the child's
	// new leaf *before* the child's access happens. We resolve this the
	// way hardware does: the child's next leaf is drawn eagerly here and
	// forced on the child's controller when its access runs.
	forced := make([]Leaf, len(m.Levels))
	for i := range m.Levels {
		forced[i] = m.Levels[i].RandomLeaf()
	}

	for i := len(m.Levels) - 1; i >= 0; i-- {
		lvl := m.Levels[i]
		var blockIdx Addr
		var off uint64
		var next Leaf
		if i == 0 {
			blockIdx, off, next = idx[0], childOff, childNew
		} else {
			blockIdx = idx[i]
			off = uint64(idx[i-1]) % k
			next = forced[i-1]
		}
		if i == len(m.Levels)-1 && m.OnTopUpdate != nil {
			// The top-most level's own leaf lives in the on-chip Top map
			// (aliased to its flat PosMap); surface the update.
			m.OnTopUpdate(blockIdx, lvl.PosMap.Lookup(blockIdx), forced[i])
		}
		var got Leaf
		trace, err := lvl.accessRMWForcedLeaf(blockIdx, forced[i], func(data []byte) bool {
			got = Leaf(binary.LittleEndian.Uint32(data[off*4:]))
			binary.LittleEndian.PutUint32(data[off*4:], uint32(next))
			return true
		})
		if err != nil {
			return 0, tr, fmt.Errorf("oram: posmap level %d access: %w", i+1, err)
		}
		if m.PostAccess != nil {
			if err := m.PostAccess(i, lvl, blockIdx, forced[i]); err != nil {
				return 0, tr, fmt.Errorf("oram: posmap level %d post-access: %w", i+1, err)
			}
		}
		tr.LevelLeaves = append(tr.LevelLeaves, trace.PathLeaf)
		tr.BlocksRead += lvl.Tree.PathBlocks()
		tr.BlocksWritten += lvl.Tree.PathBlocks()
		if i == 0 {
			old = got
		} else {
			// got is the child's current leaf; the child's controller
			// must agree (its own posmap is authoritative in this
			// simulation — verify coherence).
			if lvl2 := m.Levels[i-1]; lvl2.PosMap.Lookup(idx[i-1]) != got {
				return 0, tr, fmt.Errorf("oram: recursive map incoherent at level %d: packed %d, posmap %d",
					i, got, lvl2.PosMap.Lookup(idx[i-1]))
			}
		}
	}
	return old, tr, nil
}

// accessRMWForcedLeaf is AccessRMW with an externally chosen new leaf,
// used by the recursion so parents can record children leaves before the
// children's accesses run.
func (c *Controller) accessRMWForcedLeaf(addr Addr, forced Leaf, mutate func([]byte) bool) (AccessTrace, error) {
	if uint64(addr) >= c.nReal {
		return AccessTrace{}, fmt.Errorf("oram: access to addr %d outside [0,%d)", addr, c.nReal)
	}
	l := c.PosMap.Lookup(addr)
	if err := c.loadPath(l); err != nil {
		return AccessTrace{}, err
	}
	c.PosMap.Set(addr, forced)
	blk := c.Stash.Get(addr)
	if blk == nil {
		return AccessTrace{}, fmt.Errorf("oram: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	if mutate != nil && mutate(blk.Data) {
		blk.Dirty = true
	}
	blk.Leaf = forced
	evicted := c.evictPath(l, nil)
	if c.Stash.Overflowed() {
		return AccessTrace{}, fmt.Errorf("oram: %w (%d > %d)", ErrStashOverflow, c.Stash.Len(), c.Stash.Capacity())
	}
	return AccessTrace{PathLeaf: l, Evicted: evicted, StashAfter: c.Stash.Len()}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newPosMapSeed builds a flat random posmap without exposing rng plumbing.
func newPosMapSeed(n uint64, t Tree, seed uint64) *PosMap {
	// Small local LCG is fine for the degenerate case.
	p := &PosMap{leaves: make([]Leaf, n), tree: t}
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range p.leaves {
		s = s*6364136223846793005 + 1442695040888963407
		p.leaves[i] = Leaf((s >> 33) % uint64(t.Leaves()))
	}
	return p
}
