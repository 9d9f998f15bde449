package core

import (
	"repro/internal/oram"
)

// This file holds the controller's stash-block recycling. The serving
// hot path (load path -> serve -> seal -> commit) would otherwise
// allocate a fresh StashBlock + payload per loaded block; in steady
// state each has an exact counterpart dying in the same access (the
// blocks evicted), so the freelist below lets the path run
// allocation-free. Sealed slots need no freelist: the image copies them
// into its arena, so seal buffers are plain per-access scratch.

// getStashBlock returns a zeroed stash block whose Data buffer has
// BlockBytes capacity (length 0).
func (c *Controller) getStashBlock() *oram.StashBlock {
	if n := len(c.freeBlocks); n > 0 {
		b := c.freeBlocks[n-1]
		c.freeBlocks[n-1] = nil
		c.freeBlocks = c.freeBlocks[:n-1]
		return b
	}
	return &oram.StashBlock{Data: make([]byte, 0, c.Cfg.BlockBytes)}
}

// putStashBlock resets every protocol field of b and returns it to the
// freelist. The caller must guarantee no live reference remains (b has
// been removed from the stash and its Data is not aliased).
func (c *Controller) putStashBlock(b *oram.StashBlock) {
	data := b.Data[:0]
	*b = oram.StashBlock{Data: data}
	c.freeBlocks = append(c.freeBlocks, b)
}

// ApplyEntry is the mem.Applier hook: it applies one tagged batch entry
// at commit. Non-negative tags index c.applySlots (a data-slot write);
// negative tags encode a PosMap merge for slot index -tag-1.
func (c *Controller) ApplyEntry(tag int) {
	if tag >= 0 {
		s := &c.applySlots[tag]
		if s.lazy {
			// Deferred seal: the image writes the pre-drawn IVs and the
			// plaintext into the slot's record (copying the payload, so
			// the stash block recycles as usual). AES runs only if some
			// reader later observes the sealed slot.
			if s.block == nil {
				c.ORAM.Image.PutLazyDummy(s.bucket, s.z, s.iv1, s.iv2)
			} else {
				c.ORAM.Image.PutLazyBlock(s.bucket, s.z, s.iv1, s.iv2, oram.Block{
					Addr: s.block.Addr, Leaf: s.leaf, Ver: s.ver, Data: s.block.Data,
				})
			}
			return
		}
		c.ORAM.Image.PutSlot(s.bucket, s.z, s.sealed)
		return
	}
	b := c.applySlots[-tag-1].block
	c.durable.Put(b.Addr, b.Leaf)
	c.mirrorLeaf(b.Addr, b.Leaf)
	c.ORAM.PosMap.Put(b.Addr, b.Leaf)
	c.Temp.Delete(b.Addr)
}

// Eviction-order sorters. sort.Sort on these pointer receivers is
// allocation-free, unlike sort.Slice whose comparator closure escapes.
// Comparator semantics match the originals in evictionOrder /
// planIdentity exactly; all orders are total (ties broken by Addr, and
// no partition holds two blocks of one address), so the sort choice
// cannot change the result.

// depthSorter orders deepest intersection level first, then by address.
// prepare folds each block's sort rank into one integer key — (L - depth)
// in the high bits, the address below — so Less never recomputes
// IntersectLevel/TargetLeaf per comparison (O(n) leaf walks instead of
// O(n log n) on the eviction hot path). Ascending key order is exactly
// the old comparator's order.
type depthSorter struct {
	t    oram.Tree
	l    oram.Leaf
	b    []*oram.StashBlock
	keys []uint64
}

func (s *depthSorter) prepare() {
	s.keys = s.keys[:0]
	for _, b := range s.b {
		d := s.t.IntersectLevel(s.l, b.TargetLeaf())
		s.keys = append(s.keys, uint64(s.t.L-d)<<48|uint64(b.Addr))
	}
}

func (s *depthSorter) Len() int { return len(s.b) }
func (s *depthSorter) Swap(i, j int) {
	s.b[i], s.b[j] = s.b[j], s.b[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *depthSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }

// seqSorter orders pending remaps oldest first.
type seqSorter struct{ b []*oram.StashBlock }

func (s *seqSorter) Len() int      { return len(s.b) }
func (s *seqSorter) Swap(i, j int) { s.b[i], s.b[j] = s.b[j], s.b[i] }
func (s *seqSorter) Less(i, j int) bool {
	return s.b[i].RemapSeq < s.b[j].RemapSeq
}

// moverSorter is planIdentity's displaced-block order: pending remaps
// first (oldest first), then by address.
type moverSorter struct{ b []*oram.StashBlock }

func (s *moverSorter) Len() int      { return len(s.b) }
func (s *moverSorter) Swap(i, j int) { s.b[i], s.b[j] = s.b[j], s.b[i] }
func (s *moverSorter) Less(i, j int) bool {
	a, b := s.b[i], s.b[j]
	if a.PendingRemap != b.PendingRemap {
		return a.PendingRemap
	}
	if a.PendingRemap && a.RemapSeq != b.RemapSeq {
		return a.RemapSeq < b.RemapSeq
	}
	return a.Addr < b.Addr
}
