package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/cryptoeng"
	"repro/internal/mem"
	"repro/internal/oram"
)

// plannedSlot flattens an eviction plan entry for batch construction.
// The IVs and seal version are drawn at plan time, pinning the slot's
// ciphertext; `lazy` entries carry the plaintext forward and seal on
// demand (sealSlots eagerly, or the image at first observation).
type plannedSlot struct {
	bucket uint64
	z      int
	block  *oram.StashBlock // nil = dummy
	leaf   oram.Leaf        // target leaf captured at plan time
	ver    uint32
	iv1    uint64
	iv2    uint64
	lazy   bool
	sealed oram.Slot
}

// planSlots lays out the eviction (step 5-A's bookkeeping half): which
// block lands in which slot, under which IVs and version. The draw order
// — version then both IVs per real slot, both IVs per dummy — matches
// what the fused seal loop produced, so the IV/version streams and every
// resulting ciphertext are unchanged. No AES runs here. The returned
// slice is c.scratch.slots (valid until the next planSlots call).
func (c *Controller) planSlots(l oram.Leaf, plan [][]*oram.StashBlock) []plannedSlot {
	t := c.ORAM.Tree
	c.scratch.path = t.PathInto(c.scratch.path[:0], l)
	n := len(c.scratch.path) * t.Z
	out := c.scratch.slots
	if cap(out) < n {
		out = make([]plannedSlot, n)
	}
	out = out[:n]
	i, dirty := 0, 0
	for k, bucket := range c.scratch.path {
		for z := 0; z < t.Z; z++ {
			b := plan[k][z]
			// Filled in place through the pointer: plannedSlot is large
			// enough that building it as a local and appending would copy
			// ~100B per slot (runtime.duffcopy on the eviction hot path).
			ps := &out[i]
			i++
			ps.bucket, ps.z, ps.block, ps.lazy = bucket, z, b, true
			ps.sealed = oram.Slot{}
			ps.leaf, ps.ver = 0, 0
			if b != nil {
				ps.leaf = b.TargetLeaf()
				ps.ver = c.ORAM.NextVer()
				if !b.Backup && b.PendingRemap {
					dirty++
				}
			}
			ps.iv1 = c.ORAM.NextIV()
			ps.iv2 = c.ORAM.NextIV()
		}
	}
	c.scratch.slots = out
	c.scratch.planDirty = dirty
	return out
}

// sealSlots materializes every planned seal eagerly (step 5-A's AES
// half) into the controller's seal scratch, fanning the per-slot work
// across the crypto pool. Each slot gets its own region of the scratch,
// so only the data-independent AES fans out. The scratch is reused by
// the next call: every caller copies the sealed slots into the image
// (directly or at batch commit) before planning again. With a one-worker
// pool this runs inline on the controller's engine, byte-identical to
// the fused loop it replaced.
func (c *Controller) sealSlots(slots []plannedSlot) {
	rec := oram.HeaderBytes + c.Cfg.BlockBytes
	if n := len(slots) * rec; len(c.scratch.seal) < n {
		c.scratch.seal = make([]byte, n)
	}
	for i := range slots {
		s := &slots[i]
		if !s.lazy {
			continue
		}
		buf := c.scratch.seal[i*rec : (i+1)*rec : (i+1)*rec]
		s.sealed = oram.Slot{SealedHeader: buf[:oram.HeaderBytes], SealedData: buf[oram.HeaderBytes:]}
	}
	c.sealing = slots
	c.pool.Run(len(slots), c.sealRangeFn)
	c.sealing = nil
	for i := range slots {
		slots[i].lazy = false
	}
}

// sealPlan plans and eagerly seals an eviction in one call — the
// recursive schemes commit sealed bytes through access-spanning batches
// and never defer.
func (c *Controller) sealPlan(l oram.Leaf, plan [][]*oram.StashBlock) []plannedSlot {
	slots := c.planSlots(l, plan)
	c.sealSlots(slots)
	return slots
}

// sealRange seals c.sealing[lo:hi] on the given engine (one pool chunk).
func (c *Controller) sealRange(e *cryptoeng.Engine, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := &c.sealing[i]
		if !s.lazy {
			continue
		}
		hdr, data := s.sealed.SealedHeader, s.sealed.SealedData
		if s.block == nil {
			s.sealed = oram.DummySlotIVs(e, c.Cfg.BlockBytes, s.iv1, s.iv2, hdr, data)
		} else {
			s.sealed = oram.SealBlockIVs(e, oram.Block{
				Addr: s.block.Addr, Leaf: s.leaf, Ver: s.ver, Data: s.block.Data,
			}, s.iv1, s.iv2, hdr, data)
		}
	}
}

// evictPersistent implements PS-ORAM eviction (§4.2.2): seal the path,
// identify the dirty PosMap entries, push both into the WPQs between the
// drainer's start/end signals, and flush. Naïve-PS-ORAM differs only in
// flushing a PosMap entry for every slot on the path instead of just the
// dirty ones.
//
// On success the controller's durable state advanced atomically; dirty
// temporary-PosMap entries of evicted blocks are merged into the durable
// PosMap and dropped from the temporary one.
func (c *Controller) evictPersistent(l oram.Leaf, plan [][]*oram.StashBlock) (int, int, error) {
	slots := c.planSlots(l, plan)
	// With the image's lazy sealing armed, the single-batch path
	// commits plaintext records and defers the AES entirely; every
	// other configuration (durable backend, integrity, ordered fallback)
	// needs the sealed bytes now.
	lazySeal := c.ORAM.Image.LazySeal() && c.Merkle == nil
	if !lazySeal {
		c.sealSlots(slots)
	}
	c.stageAdd(StageCrypto)
	// If one atomic batch cannot fit the WPQs, fall back to the ordered
	// multi-batch eviction for limited persistence domains (§4.2.3).
	needData := len(slots)
	needPos := c.scratch.planDirty // posMapEntriesFor, folded into planSlots
	if c.Scheme == config.SchemeNaivePSORAM {
		needPos = len(slots)
	}
	if c.Merkle != nil {
		needPos += c.ORAM.Tree.Levels() + 1 // hash entries + root
	}
	if needData > c.Cfg.DataWPQEntries || needPos > c.Cfg.PosMapWPQEntries {
		if c.Merkle != nil {
			// Ordered multi-batch eviction cannot keep the hash tree and
			// the data atomic; construction should have prevented this.
			return 0, 0, fmt.Errorf("core: integrity eviction exceeds WPQs (%d data, %d posmap entries)", needData, needPos)
		}
		if lazySeal {
			// Ordered eviction moves sealed bytes between slots (bounce
			// writes copy them), so the deferred seals materialize first.
			c.sealSlots(slots)
			c.stageAdd(StageCrypto)
		}
		return c.evictOrdered(l, slots)
	}

	batch := c.Mem.BeginBatch()
	real, dirty := c.stageBatch(batch, slots)
	// Integrity: the new path-node hashes and the new root ride in the
	// same batch as the data — tree and root can never diverge.
	if c.Merkle != nil {
		t := c.ORAM.Tree
		newSlots := make([][]oram.Slot, t.L+1)
		for k := 0; k <= t.L; k++ {
			row := make([]oram.Slot, t.Z)
			for z := 0; z < t.Z; z++ {
				row[z] = slots[k*t.Z+z].sealed
			}
			newSlots[k] = row
		}
		up := c.Merkle.ComputeUpdate(l, newSlots)
		for _, b := range up.Buckets {
			batch.AddPosMapBlock(c.Mem.PosMapLocation((1<<23)+b), nil)
		}
		mt := c.Merkle
		batch.AddPosMapBlock(c.Mem.PosMapLocation(1<<24), func() { mt.Apply(up) })
		c.counters.Inc("integrity.root_updates")
	}
	// Crash points while the WPQs fill, before the drainer's "end"
	// signal: the whole batch is discarded (step 5-B/5-C of §4.2.2 —
	// "the original data blocks on the write-back path still exist and
	// will not be overwritten").
	for i := range slots {
		if c.maybeCrash(5, i) {
			batch.Abandon()
			return 0, 0, ErrCrashed
		}
	}
	c.stageAdd(StageEvict)
	done, err := batch.Commit(c.now)
	if err != nil {
		return 0, 0, fmt.Errorf("core: eviction batch: %w", err)
	}
	c.now = done
	// Single-batch path: the evicted stash blocks are dead once the
	// batch commits (the image copied their payloads), so they recycle.
	c.finishEvicted(slots, true)
	c.stageAdd(StageSeal)
	c.counters.Add("psoram.dirty_entries", int64(dirty))
	return real, dirty, nil
}

// posMapEntriesFor counts the PosMap WPQ demand of a slot set under the
// current scheme. The hot path avoids it for full plans — planSlots
// folds that tally into its own pass (c.scratch.planDirty) — but the
// ordered evictor still counts arbitrary subsets here.
func (c *Controller) posMapEntriesFor(slots []plannedSlot) int {
	if c.Scheme == config.SchemeNaivePSORAM {
		return len(slots)
	}
	n := 0
	for _, s := range slots {
		if s.block != nil && !s.block.Backup && s.block.PendingRemap {
			n++
		}
	}
	return n
}

// stageBatch stages data and PosMap entries for the given slots into an
// open batch as tagged entries: the functional applies — slot writes
// updating the tree image, PosMap merges folding the pending remap into
// the durable map — run through ApplyEntry at commit, with no closure
// per entry. Returns (#real blocks, #posmap entries staged).
func (c *Controller) stageBatch(batch *mem.Batch, slots []plannedSlot) (int, int) {
	c.applySlots = slots
	batch.SetApplier(c)
	real, dirty := 0, 0
	for i := range slots {
		s := &slots[i]
		batch.AddDataTagged(c.Mem.TreeBlockLocation(s.bucket, s.z), i)
		if s.block != nil {
			real++
		}

		isDirty := s.block != nil && !s.block.Backup && s.block.PendingRemap
		switch {
		case isDirty:
			batch.AddPosMapTagged(c.Mem.PosMapLocation(uint64(s.block.Addr)), -i-1)
			dirty++
		case c.Scheme == config.SchemeNaivePSORAM:
			// Naïve mode rewrites an entry per path slot regardless:
			// for real clean blocks the unchanged entry, for dummies a
			// dummy entry. Functionally a no-op; the cost is the point.
			var idx uint64
			if s.block != nil && !s.block.Backup {
				idx = uint64(s.block.Addr)
			} else {
				idx = uint64(s.bucket)*uint64(c.Cfg.Z) + uint64(s.z)
			}
			batch.AddPosMap(c.Mem.PosMapLocation(idx), nil)
		}
	}
	return real, dirty
}

// finishEvicted removes committed blocks from the stash and emits
// durability events for every value the committed batch made reachable
// from the durable PosMap. With recycle set the removed blocks return
// to the freelist (their only remaining reference is the plan scratch,
// which the next access overwrites).
func (c *Controller) finishEvicted(slots []plannedSlot, recycle bool) {
	for _, s := range slots {
		b := s.block
		if b == nil {
			continue
		}
		if b.Backup {
			c.ORAM.Stash.RemoveBackup(b)
			// A backup is durable-reachable iff the durable PosMap still
			// points at its path.
			if c.durable.Lookup(b.Addr) == b.BackupLeaf {
				c.markDurable(b.Addr, b.Data)
			}
		} else {
			c.ORAM.Stash.Remove(b.Addr)
			b.PendingRemap = false
			// Live block: reachable iff the durable map agrees with the
			// leaf it was sealed under (true when its entry merged in
			// this batch, or it never had a pending remap).
			if c.durable.Lookup(b.Addr) == b.Leaf {
				c.markDurable(b.Addr, b.Data)
			}
		}
		if recycle {
			c.putStashBlock(b)
		}
	}
}

// drainOldestPending performs a background eviction access on the oldest
// pending block's current path so its temporary-PosMap entry can merge.
// Used when the temporary PosMap runs full (§4.2.3: C_TPos is sized for
// the worst case; the drain is the overflow valve).
func (c *Controller) drainOldestPending() error {
	addr, ok := c.Temp.Oldest()
	if !ok {
		return nil
	}
	l := c.currentLeaf(addr)
	c.epoch++
	loaded, loadDone, err := c.loadPathTimed(l, addr, c.now)
	if err != nil {
		return err
	}
	c.markOrigin(loaded)
	c.now = maxCycle(c.now, loadDone) + mem.Cycle(c.ORAM.Engine.DecryptLatency(len(loaded)))
	if _, _, err := c.evictTimed(l); err != nil {
		return err
	}
	if _, still := c.Temp.Lookup(addr); still {
		return fmt.Errorf("core: drain access did not merge pending entry for %d", addr)
	}
	c.counters.Inc("psoram.temp_drains")
	return nil
}
