package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/oram"
)

// Wall-time stage indices for StageNanos: where an access's real time
// goes, as opposed to the simulated NVM cycles the timing model tracks.
const (
	StageLoad    = 0 // path fetch + header/payload decode
	StageCrypto  = 1 // eviction seal AES (near-zero under lazy seal)
	StageEvict   = 2 // eviction planning + batch staging
	StageSeal    = 3 // batch commit + write-back bookkeeping
	StagePersist = 4 // durable persist barrier (fsync; enqueue cost under group commit)
	NumStages    = 5
)

// StageNames labels StageNanos indices for display layers.
var StageNames = [NumStages]string{"load", "crypto", "evict", "seal", "persist"}

// StageNanos returns cumulative wall nanoseconds per protocol stage.
// Serving layers difference consecutive snapshots to build per-access
// stage histograms.
func (c *Controller) StageNanos() [NumStages]int64 { return c.stageNanos }

// stageMark/stageAdd maintain a single wall-clock cursor across the
// stage boundaries of one access: each stageAdd charges the time since
// the previous mark (or add) to one stage and advances the cursor, so a
// chain of adjacent stages costs one clock read per boundary instead of
// a start/stop pair per stage.
func (c *Controller) stageMark() { c.tMark = time.Now() }

func (c *Controller) stageAdd(stage int) {
	now := time.Now()
	c.stageNanos[stage] += int64(now.Sub(c.tMark))
	c.tMark = now
}

// prefetchedHdr is one decoded slot header from a Prefetch pass.
type prefetchedHdr struct {
	addr oram.Addr
	leaf oram.Leaf
	ver  uint32
	ok   bool
}

// Prefetch decodes the slot headers of addr's current path into the
// controller's prefetch cache, so a subsequent Access(addr) skips those
// header opens. It performs no protocol step: no PosMap mutation, no
// stash change, no simulated NVM traffic — the physical access sequence
// of the following Access is exactly what it would have been. Validity
// is tracked per bucket via the image write sequence, so an intervening
// access that rewrites part of the path only invalidates the buckets it
// touched. Only armed for in-memory lazy-seal images (durable backends
// do not track write sequences).
func (c *Controller) Prefetch(addr oram.Addr) {
	if c.crashed || uint64(addr) >= c.ORAM.NumBlocks() || !c.ORAM.Image.LazySeal() {
		return
	}
	img := c.ORAM.Image
	eng := c.ORAM.Engine
	t := c.ORAM.Tree
	pf := &c.prefetch
	l := c.currentLeaf(addr)
	pf.path = t.PathInto(pf.path[:0], l)
	pf.seqs = pf.seqs[:0]
	pf.hdrs = pf.hdrs[:0]
	for _, bucket := range pf.path {
		pf.seqs = append(pf.seqs, img.BucketSeq(bucket))
		for z := 0; z < t.Z; z++ {
			var h prefetchedHdr
			if a, lf, v, dummy, ok := img.PlainHeader(bucket, z); ok {
				if dummy {
					h = prefetchedHdr{addr: oram.DummyAddr, ok: true}
				} else {
					h = prefetchedHdr{addr: a, leaf: lf, ver: v, ok: true}
				}
			} else if a, lf, v, err := oram.OpenSlotHeader(eng, img.Slot(bucket, z)); err == nil {
				h = prefetchedHdr{addr: a, leaf: lf, ver: v, ok: true}
			}
			pf.hdrs = append(pf.hdrs, h)
		}
	}
	pf.leaf = l
	pf.valid = true
	c.counters.Inc("core.prefetches")
}

// Result reports what one access did, for the timing and traffic layers.
//
// Value aliases a controller-owned buffer that the next Access on the
// same controller overwrites: consume or copy it before the next call.
type Result struct {
	Value      []byte    // value read (OpRead) or previous value (OpWrite)
	Start, End mem.Cycle // access latency window in core cycles
	PathLeaf   oram.Leaf
	// DirtyEntries is the number of PosMap entries persisted this access.
	DirtyEntries int
	// EvictedBlocks is the number of real blocks (incl. backups) written.
	EvictedBlocks int
	// ChainBlocks is the recursive PosMap path work (Rcr-* schemes).
	ChainBlocks int
}

// Access performs one ORAM access under the controller's scheme. The
// returned error is ErrCrashed when the injected crash fired; the caller
// then owns calling Recover and (if desired) retrying the access.
func (c *Controller) Access(op oram.Op, addr oram.Addr, data []byte) (Result, error) {
	if c.crashed {
		return Result{}, fmt.Errorf("core: access after crash without Recover")
	}
	if uint64(addr) >= c.ORAM.NumBlocks() {
		return Result{}, fmt.Errorf("core: access to addr %d outside [0,%d)", addr, c.ORAM.NumBlocks())
	}
	if op == oram.OpWrite && len(data) != c.Cfg.BlockBytes {
		return Result{}, fmt.Errorf("core: write of %d bytes, block size %d", len(data), c.Cfg.BlockBytes)
	}
	var (
		res Result
		err error
	)
	switch c.Scheme {
	case config.SchemeRcrBaseline, config.SchemeRcrPSORAM:
		res, err = c.accessRecursive(op, addr, data)
	default:
		res, err = c.accessFlat(op, addr, data)
	}
	if err != nil {
		return res, err
	}
	// Durable backend: commit this access's mutations — with one persist
	// barrier per access by default, or into the open commit group under
	// GroupCommit — so the on-disk state only transitions between access
	// boundaries. An interrupted access never reaches this point and
	// leaves the previous boundary committed.
	if c.storage != nil {
		c.stageMark()
		perr := c.commitDurable()
		c.stageAdd(StagePersist)
		if perr != nil {
			return res, perr
		}
	}
	c.accessN++
	c.counters.Inc("oram.accesses")
	return res, nil
}

// accessFlat runs the 5-step protocol for the non-recursive schemes.
func (c *Controller) accessFlat(op oram.Op, addr oram.Addr, data []byte) (Result, error) {
	start := c.now
	persistent := c.Scheme == config.SchemeNaivePSORAM || c.Scheme == config.SchemePSORAM

	// Make room in the temporary PosMap before remapping a new address
	// (the controller drains the oldest pending block with a background
	// eviction access, §4.2.3 discussion).
	if persistent {
		if _, pending := c.Temp.Lookup(addr); !pending {
			for c.Temp.Full() {
				if err := c.drainOldestPending(); err != nil {
					return Result{}, err
				}
			}
		}
	}

	// -- Step 1: check stash (the path access proceeds either way; a hit
	// only means the value is served from the stash copy).
	c.epoch++

	// -- Step 2: access PosMap, draw the new leaf, back up the label.
	l := c.currentLeaf(addr)
	lNew := c.ORAM.RandomLeaf()
	var remapSeq uint64
	switch {
	case persistent:
		// PS-ORAM: the fresh label goes to the *temporary* PosMap; the
		// durable PosMap is untouched until the block's eviction commits.
		remapSeq = c.Temp.Set(addr, lNew)
	case c.Scheme == config.SchemeFullNVM || c.Scheme == config.SchemeFullNVMSTT:
		// FullNVM: the on-chip PosMap is NVM — the update is durable the
		// moment it is written (and that is exactly the atomicity bug:
		// the paper's Case 1b).
		c.ORAM.PosMap.Put(addr, lNew)
		c.durable.Put(addr, lNew)
		c.mirrorLeaf(addr, lNew)
		c.timeOnChipNVM(nvm.Read) // lookup
		c.timeOnChipNVM(nvm.Write)
	default:
		// Baseline / eADR: volatile working map.
		c.ORAM.PosMap.Put(addr, lNew)
		c.inflight.active = true
		c.inflight.addr = addr
		c.inflight.oldLeaf = l
	}
	if c.maybeCrash(2, -1) {
		return Result{}, ErrCrashed
	}

	// -- Step 3: load path l.
	c.stageMark()
	loaded, loadDone, err := c.loadPathTimed(l, addr, start)
	c.stageAdd(StageLoad)
	if err != nil {
		return Result{}, err
	}
	c.markOrigin(loaded)
	c.now = maxCycle(c.now, loadDone) + mem.Cycle(c.ORAM.Engine.DecryptLatency(len(loaded)))

	// Serve the request from the stash.
	blk := c.ORAM.Stash.Get(addr)
	if blk == nil {
		return Result{}, fmt.Errorf("core: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	c.scratch.prev = append(c.scratch.prev[:0], blk.Data...)
	prev := c.scratch.prev
	if op == oram.OpWrite {
		copy(blk.Data, data)
		blk.Dirty = true
	}

	// -- Step 4: update stash and back up the data block. From here the
	// stash copy carries the new leaf, so the remap is no longer
	// cancellable (eADR's drain now preserves stash + map coherently).
	blk.Leaf = lNew
	c.inflight.active = false
	if persistent {
		blk.PendingRemap = true
		blk.RemapSeq = remapSeq
		bak := c.getStashBlock()
		bak.Addr = addr
		bak.Leaf = lNew
		bak.Data = append(bak.Data, blk.Data...)
		bak.Backup = true
		bak.BackupLeaf = l
		if blk.OriginEpoch == c.epoch {
			// The backup replaces the target's just-consumed copy: give
			// it the same slot so the ordered eviction stays cycle-free.
			bak.OriginEpoch = c.epoch
			bak.OriginBucket = blk.OriginBucket
			bak.OriginSlot = blk.OriginSlot
		}
		c.ORAM.Stash.PutBackup(bak)
		c.counters.Inc("psoram.backups")
	}
	if c.maybeCrash(4, -1) {
		return Result{}, ErrCrashed
	}

	// -- Step 5: evict path l.
	evicted, dirty, err := c.evictTimed(l)
	if err != nil {
		return Result{}, err
	}
	if c.ORAM.Stash.Overflowed() {
		return Result{}, fmt.Errorf("core: %w (%d > %d)", oram.ErrStashOverflow, c.ORAM.Stash.Len(), c.ORAM.Stash.Capacity())
	}
	if c.maybeCrash(6, -1) {
		return Result{}, ErrCrashed
	}
	return Result{
		Value:         prev,
		Start:         start,
		End:           c.now,
		PathLeaf:      l,
		DirtyEntries:  dirty,
		EvictedBlocks: evicted,
	}, nil
}

// markOrigin tags freshly loaded blocks with the current epoch so the
// evictor knows which blocks MUST return to this path.
func (c *Controller) markOrigin(loaded []*oram.StashBlock) {
	for _, b := range loaded {
		b.OriginEpoch = c.epoch
	}
}

// loadPathTimed reads the path both functionally (into the stash) and on
// the device model. target is the in-flight address whose header still
// carries the pre-remap leaf (relevant to FullNVM, which remaps before
// the load). Crash points fire after each bucket.
func (c *Controller) loadPathTimed(l oram.Leaf, target oram.Addr, earliest mem.Cycle) ([]*oram.StashBlock, mem.Cycle, error) {
	oracle := func(a oram.Addr) oram.Leaf {
		if a == target {
			return l
		}
		return c.currentLeaf(a)
	}
	clear(c.endangered)
	c.scratch.path = c.ORAM.Tree.PathInto(c.scratch.path[:0], l)
	path := c.scratch.path
	// Integrity: verify the path against the trusted root before any of
	// it is consumed. The sibling hashes come from NVM (one per level).
	if c.Merkle != nil {
		for _, bucket := range path {
			c.Mem.ReadBytes(c.Mem.PosMapLocation((1<<23)+bucket), earliest, integrity.HashSize)
		}
		if err := c.Merkle.VerifyPath(l, c.bucketSlots); err != nil {
			return nil, 0, err
		}
		c.counters.Inc("integrity.verified_paths")
	}
	// Timing: all Z slots of each bucket, buckets issue in parallel
	// across banks/channels.
	var done mem.Cycle
	c.scratch.loaded = c.scratch.loaded[:0]
	for i, bucket := range path {
		for z := 0; z < c.Cfg.Z; z++ {
			loc := c.Mem.TreeBlockLocation(bucket, z)
			if d := c.Mem.ReadBlock(loc, earliest); d > done {
				done = d
			}
		}
		// Functional load of this bucket.
		before := len(c.scratch.loaded)
		if err := c.loadBucket(i, bucket, oracle); err != nil {
			return nil, 0, err
		}
		if c.onchipNVM != nil {
			// FullNVM: each fetched block is written into the NVM stash.
			for range c.scratch.loaded[before:] {
				c.timeOnChipNVM(nvm.Write)
			}
		}
		if c.maybeCrash(3, i) {
			return nil, 0, ErrCrashed
		}
	}
	return c.scratch.loaded, done, nil
}

// loadBucket is the functional half of loading one bucket: blocks it
// brings into the stash are appended to c.scratch.loaded. Headers come
// from the cheapest valid source — a still-valid prefetch entry, the
// plaintext header of a deferred seal, or a real header open — and a
// payload is only decrypted for blocks that actually enter (or refresh)
// the stash. Deferred payloads copy plaintext directly:
// the steady-state bucket load runs without any AES at all. pi is the
// bucket's index on the current path (for prefetch matching).
func (c *Controller) loadBucket(pi int, bucket uint64, oracle func(oram.Addr) oram.Leaf) error {
	eng := c.ORAM.Engine
	img := c.ORAM.Image
	pf := &c.prefetch
	usePf := pf.valid && pi < len(pf.seqs) && pi < len(pf.path) &&
		pf.path[pi] == bucket && pf.seqs[pi] == img.BucketSeq(bucket)
	for z := 0; z < c.ORAM.Tree.Z; z++ {
		var (
			addr  oram.Addr
			leaf  oram.Leaf
			ver   uint32
			plain []byte // deferred plaintext payload, nil if sealed
			have  bool
		)
		if usePf {
			if h := pf.hdrs[pi*c.ORAM.Tree.Z+z]; h.ok {
				addr, leaf, ver, have = h.addr, h.leaf, h.ver, true
				*c.hPfHit++
			}
		}
		if !have {
			if a, lf, v, dummy, ok := img.PlainHeader(bucket, z); ok {
				if dummy {
					continue
				}
				addr, leaf, ver, have = a, lf, v, true
			}
		}
		if !have {
			a, lf, v, err := oram.OpenSlotHeader(eng, img.Slot(bucket, z))
			if err != nil {
				return fmt.Errorf("core: bucket %d slot %d: %w", bucket, z, err)
			}
			addr, leaf, ver = a, lf, v
		}
		if addr == oram.DummyAddr {
			continue
		}
		plain = img.PlainData(bucket, z)
		if uint64(addr) >= c.ORAM.NumBlocks() {
			return fmt.Errorf("core: tree contains out-of-range addr %d", addr)
		}
		// A copy on this path whose header leaf matches the *durable*
		// PosMap while a fresher pending copy sits in the stash is the
		// block's durable continuation (typically a backup from an
		// earlier access). Overwriting the path destroys it, so record
		// it: the eviction will write a replacement backup.
		if c.wpqPersistent() {
			if sb := c.ORAM.Stash.Get(addr); sb != nil && sb.PendingRemap &&
				c.durable.Lookup(addr) == leaf {
				c.endangered[addr] = endangeredCopy{leaf: leaf, bucket: bucket, slot: z}
			}
		}
		if oracle(addr) != leaf {
			continue // stale copy (superseded backup): reads as dummy
		}
		if existing := c.ORAM.Stash.Get(addr); existing != nil {
			// A copy resident from an earlier access is always fresher.
			// Between copies loaded this access (leaf collision between
			// a block and its backup), the higher seal version wins.
			if existing.OriginEpoch == c.epoch && ver > existing.Ver {
				existing.Ver = ver
				if plain != nil {
					existing.Data = append(existing.Data[:0], plain...)
				} else {
					existing.Data = oram.OpenSlotDataInto(eng, img.Slot(bucket, z), existing.Data[:0])
				}
			}
			continue
		}
		sb := c.getStashBlock()
		sb.Addr, sb.Leaf, sb.Ver = addr, leaf, ver
		if plain != nil {
			sb.Data = append(sb.Data, plain...)
		} else {
			sb.Data = oram.OpenSlotDataInto(eng, img.Slot(bucket, z), sb.Data)
		}
		sb.OriginBucket, sb.OriginSlot = bucket, z
		c.ORAM.Stash.Put(sb)
		c.scratch.loaded = append(c.scratch.loaded, sb)
	}
	return nil
}

// timeOnChipNVM schedules one op on the FullNVM on-chip device and
// advances the time cursor (on-chip structure accesses serialize with
// the protocol).
func (c *Controller) timeOnChipNVM(op nvm.Op) {
	if c.onchipNVM == nil {
		return
	}
	ratio := mem.Cycle(c.Cfg.CoreCyclesPerNVMCycle())
	comp := c.onchipNVM.Schedule(op, int(c.now)%c.onchipNVM.Banks(), int64(c.now>>6), nvm.Cycle(c.now/ratio))
	c.now = mem.Cycle(comp.Done) * ratio
	c.counters.Inc("onchip.nvm.ops")
}

// evictionOrder builds the crash-consistent candidate order:
//  1. backups and clean path-origin blocks (they must return to this
//     path or a partial write-back strands them — Fig. 3; the remapped
//     target is exempt because its backup is its durable continuation),
//     deepest target first;
//  2. blocks with pending temporary-PosMap entries, oldest first (their
//     metadata can only become durable by evicting them);
//  3. everything else, deepest first.
func (c *Controller) evictionOrder(l oram.Leaf) []*oram.StashBlock {
	if !c.wpqPersistent() {
		// Non-persistent schemes have no crash-consistency obligations:
		// plain greedy Path ORAM eviction.
		return c.ORAM.DefaultEvictionOrder(l)
	}
	t := c.ORAM.Tree
	must := append(c.scratch.must[:0], c.ORAM.Stash.Backups()...)
	pending := c.scratch.pending[:0]
	rest := c.scratch.rest[:0]
	for _, b := range c.ORAM.Stash.AppendLive(c.scratch.order[:0]) {
		switch {
		case b.OriginEpoch == c.epoch && c.epoch != 0 && !b.PendingRemap:
			must = append(must, b)
		case b.PendingRemap:
			pending = append(pending, b)
		default:
			rest = append(rest, b)
		}
	}
	c.depthS.t, c.depthS.l = t, l
	c.depthS.b = must
	c.depthS.prepare()
	sort.Sort(&c.depthS)
	c.seqS.b = pending
	sort.Sort(&c.seqS)
	c.depthS.b = rest
	c.depthS.prepare()
	sort.Sort(&c.depthS)
	c.scratch.must, c.scratch.pending, c.scratch.rest = must, pending, rest
	order := append(c.scratch.order[:0], must...)
	order = append(order, pending...)
	order = append(order, rest...)
	c.scratch.order = order
	return order
}

// evictTimed runs step 5 for the flat schemes, dispatching on the
// persistence mode. Returns (#real blocks written, #posmap entries
// persisted).
func (c *Controller) evictTimed(l oram.Leaf) (int, int, error) {
	// Replace endangered durable continuations: each gets a fresh backup
	// sealed under its durable leaf, written back with this path (legal:
	// the destroyed copy sat on this path at a level both paths share).
	for addr, cp := range c.endangered {
		sb := c.ORAM.Stash.Get(addr)
		if sb == nil {
			continue // evicted meanwhile; its entry merge will cover it
		}
		dup := false
		for _, b := range c.ORAM.Stash.Backups() {
			if b.Addr == addr && b.BackupLeaf == cp.leaf {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bak := c.getStashBlock()
		bak.Addr = addr
		bak.Leaf = sb.Leaf
		bak.Data = append(bak.Data, sb.Data...)
		bak.Backup = true
		bak.BackupLeaf = cp.leaf
		// Replace the endangered copy in place.
		bak.OriginEpoch = c.epoch
		bak.OriginBucket = cp.bucket
		bak.OriginSlot = cp.slot
		c.ORAM.Stash.PutBackup(bak)
		c.counters.Inc("psoram.rescue_backups")
	}
	clear(c.endangered)

	c.stageMark()
	smallWPQ := c.ORAM.Tree.PathBlocks() > c.Cfg.DataWPQEntries ||
		(c.Scheme == config.SchemeNaivePSORAM && c.ORAM.Tree.PathBlocks() > c.Cfg.PosMapWPQEntries)
	var plan [][]*oram.StashBlock
	var unplaced []*oram.StashBlock
	if c.wpqPersistent() && smallWPQ {
		// Ordered multi-batch mode: identity placement kills the
		// displacement cycles that small WPQs cannot commit atomically.
		plan, unplaced = c.planIdentity(l)
	} else {
		plan = c.scratch.plan
		c.scratch.unplaced = c.ORAM.PlanEvictionInto(l, c.evictionOrder(l), plan, c.scratch.planUsed, c.scratch.unplaced)
		unplaced = c.scratch.unplaced
	}
	// Crash-consistency check: every must-evict candidate placed
	// (persistent schemes only; the baselines tolerate lingering).
	if c.wpqPersistent() {
		for _, b := range unplaced {
			if b.Backup || (b.OriginEpoch == c.epoch && c.epoch != 0 && !b.PendingRemap) {
				return 0, 0, fmt.Errorf("core: must-evict block %d did not fit path %d", b.Addr, l)
			}
		}
	}
	c.now += mem.Cycle(c.ORAM.Engine.EncryptLatency(c.ORAM.Tree.PathBlocks()))
	c.stageAdd(StageEvict)

	switch c.Scheme {
	case config.SchemeNaivePSORAM, config.SchemePSORAM:
		return c.evictPersistent(l, plan)
	default:
		return c.evictPosted(l, plan)
	}
}

// planIdentity builds an eviction plan for the ordered small-WPQ mode:
// clean path-origin blocks return to their exact original slots (no
// displacement, hence no write-order cycles); backups, pending blocks,
// and any other stash blocks fill the remaining slots greedily.
func (c *Controller) planIdentity(l oram.Leaf) ([][]*oram.StashBlock, []*oram.StashBlock) {
	t := c.ORAM.Tree
	// On-path test via the shared path-index table: a bucket is on the
	// path to l iff the level-of-bucket lookup maps back to it.
	onPathLevel := func(bucket uint64) (int, bool) {
		k := c.pathIdx.LevelOf(bucket)
		return k, k <= t.L && c.pathIdx.Bucket(l, k) == bucket
	}
	plan := c.scratch.plan
	for k := range plan {
		row := plan[k]
		for z := range row {
			row[z] = nil
		}
	}
	movers := c.scratch.movers[:0]
	// Identity placement for backups that replace a known slot (the
	// consumed target copy or an endangered rescue): a backup written to
	// the very slot it replaces is its own continuation — no write-order
	// edge at all.
	looseBackups := c.scratch.loose[:0]
	for _, b := range c.ORAM.Stash.Backups() {
		if b.OriginEpoch == c.epoch && c.epoch != 0 {
			k, ok := onPathLevel(b.OriginBucket)
			if ok && b.OriginSlot < t.Z && plan[k][b.OriginSlot] == nil {
				plan[k][b.OriginSlot] = b
				continue
			}
		}
		looseBackups = append(looseBackups, b)
	}
	for _, b := range c.ORAM.Stash.AppendLive(c.scratch.rest[:0]) {
		if b.OriginEpoch == c.epoch && c.epoch != 0 && !b.PendingRemap {
			k, ok := onPathLevel(b.OriginBucket)
			if ok && b.OriginSlot < t.Z && plan[k][b.OriginSlot] == nil {
				plan[k][b.OriginSlot] = b
				continue
			}
		}
		movers = append(movers, b)
	}
	// Remaining backups first (must evict), then pending by age, then
	// the rest.
	order := append(c.scratch.order[:0], looseBackups...)
	c.moverS.b = movers
	sort.Sort(&c.moverS)
	order = append(order, movers...)
	c.scratch.movers, c.scratch.loose, c.scratch.order = movers, looseBackups, order
	unplaced := c.scratch.unplaced[:0]
	for _, b := range order {
		deepest := t.IntersectLevel(l, b.TargetLeaf())
		placed := false
		for k := deepest; k >= 0 && !placed; k-- {
			for z := 0; z < t.Z; z++ {
				if plan[k][z] == nil {
					plan[k][z] = b
					placed = true
					break
				}
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	c.scratch.unplaced = unplaced
	return plan, unplaced
}

// evictPosted writes the plan through the volatile write buffer
// (Baseline, FullNVM, eADR): fast, coalesced, and lost on crash before
// completion.
func (c *Controller) evictPosted(l oram.Leaf, plan [][]*oram.StashBlock) (int, int, error) {
	img := c.ORAM.Image
	proceed := c.now
	slotIdx := 0
	crashedMid := false
	real := c.ORAM.ApplyEviction(l, plan, func(bucket uint64, z int, s oram.Slot, b *oram.StashBlock) {
		if crashedMid {
			return
		}
		loc := c.Mem.TreeBlockLocation(bucket, z)
		p := c.Mem.WriteBlockPosted(loc, c.now, func() func() {
			return img.SetSlot(bucket, z, s)
		})
		if p > proceed {
			proceed = p
		}
		if c.onchipNVM != nil && b != nil {
			c.timeOnChipNVM(nvm.Read) // read the block out of the NVM stash
		}
		crashedMid = c.maybeCrash(5, slotIdx)
		slotIdx++
	})
	if crashedMid {
		return 0, 0, ErrCrashed
	}
	c.now = proceed
	// Volatile PosMap schemes persist nothing here. The durable events of
	// the always-durable schemes (FullNVM: NVM stash; eADR: flush-on-
	// crash) are emitted at access end by the caller via markDurable —
	// see accessEndDurability.
	c.accessEndDurability(plan)
	return real, 0, nil
}

// accessEndDurability emits durability events for schemes whose stash
// survives power failure (FullNVM, eADR): once the access completes, the
// target's value is durable wherever it sits.
func (c *Controller) accessEndDurability(plan [][]*oram.StashBlock) {
	switch c.Scheme {
	case config.SchemeFullNVM, config.SchemeFullNVMSTT, config.SchemeEADRORAM:
		for _, row := range plan {
			for _, b := range row {
				if b != nil && !b.Backup {
					c.markDurable(b.Addr, b.Data)
				}
			}
		}
		for _, b := range c.ORAM.Stash.Live() {
			c.markDurable(b.Addr, b.Data)
		}
	}
}
