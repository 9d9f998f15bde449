package oram

import (
	"fmt"
	"sort"

	"repro/internal/cryptoeng"
	"repro/internal/rng"
)

// Op is the request type of a memory access.
type Op int

const (
	// OpRead returns the block's current value.
	OpRead Op = iota
	// OpWrite replaces the block's value.
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// AccessTrace records what a single ORAM access touched, for the timing
// layer and the tests: which path was read, which slots changed, how many
// PosMap entries became dirty.
type AccessTrace struct {
	PathLeaf     Leaf
	Evicted      int // real blocks (incl. backups) written back
	DirtyPosMap  int // posmap entries persisted (PS-ORAM variants)
	StashAfter   int
	BackupsAdded int
}

// Controller is the baseline Path ORAM controller: volatile stash and
// PosMap, no crash consistency. It is the reference against which the
// persistent controllers in internal/core are built and compared.
type Controller struct {
	Tree   Tree
	Image  *Image
	Stash  *Stash
	PosMap *PosMap
	Engine *cryptoeng.Engine

	rng    *rng.Rand
	nextIV func() uint64
	nReal  uint64
	verSeq uint32

	// OnSlotWrite, when non-nil, intercepts every eviction slot write in
	// place of the direct image update. The persistent controllers use
	// it to route posmap-ORAM write-backs through the memory
	// controller's write buffer or WPQ batches; the hook owns applying
	// (or staging) the image mutation. The Slot views a scratch buffer
	// that the next slot write reuses: copy it in before returning.
	OnSlotWrite func(bucket uint64, z int, s Slot, b *StashBlock)

	sealBuf []byte // ApplyEviction's per-slot seal scratch
}

// Params bundles the knobs for constructing a functional ORAM.
type Params struct {
	Levels       int
	Z            int
	BlockBytes   int
	StashEntries int
	NumBlocks    uint64 // logical blocks (must fit the tree at <=100% util)
	Seed         uint64
	Key          []byte // 16-byte AES key; nil selects a fixed test key
	// Storage, when non-nil, backs the tree image instead of process
	// memory. New seals the initial image into it; NewAttached expects
	// it to already hold a recovered image.
	Storage Storage
}

// DefaultKey is the AES key used when Params.Key is nil.
var DefaultKey = []byte("ps-oram-repro-k1")

// Validate checks parameter sanity.
func (p Params) Validate() error {
	t := NewTree(p.Levels, p.Z)
	if p.NumBlocks == 0 || p.NumBlocks > t.Slots() {
		return fmt.Errorf("oram: %d blocks do not fit a tree with %d slots", p.NumBlocks, t.Slots())
	}
	if float64(p.NumBlocks) > 0.95*float64(t.Slots()) {
		// The paper runs at 50% utilization to keep stash occupancy
		// small; we allow up to 95% so the stash-pressure experiment can
		// measure why (beyond that, initialization itself can fail).
		return fmt.Errorf("oram: utilization %d/%d exceeds 95%%; raise Levels", p.NumBlocks, t.Slots())
	}
	if p.StashEntries <= t.PathBlocks() {
		return fmt.Errorf("oram: stash (%d) must exceed one path (%d)", p.StashEntries, t.PathBlocks())
	}
	if p.BlockBytes <= 0 {
		return fmt.Errorf("oram: BlockBytes must be positive")
	}
	return nil
}

// New builds a functional baseline ORAM with NumBlocks zero-initialized
// logical blocks already resident in the tree.
func New(p Params) (*Controller, error) {
	return build(p, false)
}

// NewAttached builds a controller around p.Storage without sealing or
// materializing anything: the storage already holds a recovered image.
// The PosMap starts with the usual random initialization — the caller
// (the §4.3 recovery path) owns overwriting every entry from the
// durable copy, along with restoring the seal-version cursor.
func NewAttached(p Params) (*Controller, error) {
	if p.Storage == nil {
		return nil, fmt.Errorf("oram: NewAttached requires Params.Storage")
	}
	return build(p, true)
}

func build(p Params, attach bool) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key := p.Key
	if key == nil {
		key = DefaultKey
	}
	eng, err := cryptoeng.New(key)
	if err != nil {
		return nil, err
	}
	r := rng.New(p.Seed)
	t := NewTree(p.Levels, p.Z)
	nextIV := NewIVSource(r.Split())
	c := &Controller{
		Tree:   t,
		Stash:  NewStash(p.StashEntries),
		PosMap: NewPosMap(p.NumBlocks, t, r.Split()),
		Engine: eng,
		rng:    r.Split(),
		nextIV: nextIV,
		nReal:  p.NumBlocks,
	}
	if attach {
		c.Image = NewImageOn(p.Storage, t, p.BlockBytes)
		return c, nil
	}
	if p.Storage != nil {
		c.Image = NewImageInto(p.Storage, t, eng, p.BlockBytes, nextIV)
	} else {
		c.Image = NewImage(t, eng, p.BlockBytes, nextIV)
	}
	// Materialize the initial blocks on their mapped paths. Every block
	// starts zeroed, so they all seal from one shared zero payload.
	zero := make([]byte, p.BlockBytes)
	blocks := make([]Block, p.NumBlocks)
	for i := range blocks {
		blocks[i] = Block{Addr: Addr(i), Leaf: c.PosMap.Lookup(Addr(i)), Data: zero}
	}
	for _, b := range c.Image.InitBlocks(eng, blocks, nextIV) {
		// Oversubscribed paths (possible above ~50% utilization): the
		// leftover blocks start life in the stash.
		c.Stash.Put(&StashBlock{Addr: b.Addr, Leaf: b.Leaf, Data: make([]byte, p.BlockBytes), Dirty: true})
	}
	if c.Stash.Overflowed() {
		return nil, fmt.Errorf("oram: initial placement overflowed the stash (%d blocks; utilization too high): %w", c.Stash.Len(), ErrStashOverflow)
	}
	return c, nil
}

// NumBlocks returns the logical block count.
func (c *Controller) NumBlocks() uint64 { return c.nReal }

// RandomLeaf draws a fresh uniform leaf.
func (c *Controller) RandomLeaf() Leaf { return Leaf(c.rng.Uint64n(c.Tree.Leaves())) }

// NextIV exposes the IV source for persistent controllers layered on top.
func (c *Controller) NextIV() uint64 { return c.nextIV() }

// NextVer returns a fresh seal version (monotonically increasing).
func (c *Controller) NextVer() uint32 {
	c.verSeq++
	return c.verSeq
}

// VerSeq returns the current seal-version cursor (snapshot support).
func (c *Controller) VerSeq() uint32 { return c.verSeq }

// SetVerSeq restores the seal-version cursor after loading a snapshot;
// it must be at least the highest version sealed into the image or
// freshness comparisons would invert.
func (c *Controller) SetVerSeq(v uint32) {
	if v > c.verSeq {
		c.verSeq = v
	}
}

// Access performs one baseline Path ORAM access (§2.2.2): check stash,
// look up and remap the leaf, load the path into the stash, serve the
// request, evict greedily back onto the same path. It returns the value
// read (for OpRead) or the previous value (for OpWrite), plus a trace.
//
// This baseline applies stash and PosMap updates to volatile state and
// writes the path back without any atomicity. A crash loses the stash and
// the volatile PosMap deltas — exactly the failure the paper's §3.3 case
// studies dissect.
func (c *Controller) Access(op Op, addr Addr, data []byte) ([]byte, AccessTrace, error) {
	if uint64(addr) >= c.nReal {
		return nil, AccessTrace{}, fmt.Errorf("oram: access to addr %d outside [0,%d)", addr, c.nReal)
	}
	// Step 2: PosMap lookup + remap. (Step 1's stash check cannot skip
	// the path access: obliviousness requires the full sequence either
	// way, so we always read the mapped path.) The PosMap entry is
	// overwritten only after the path load: the loader uses the mapping
	// to tell live copies from stale ones, and the target's tree copy is
	// live precisely under its old leaf.
	l := c.PosMap.Lookup(addr)
	lNew := c.RandomLeaf()

	// Step 3: load path l into the stash.
	if err := c.loadPath(l); err != nil {
		return nil, AccessTrace{}, err
	}
	c.PosMap.Set(addr, lNew)

	// Serve the request from the stash; the block must exist now.
	blk := c.Stash.Get(addr)
	if blk == nil {
		return nil, AccessTrace{}, fmt.Errorf("oram: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	prev := append([]byte(nil), blk.Data...)
	if op == OpWrite {
		if len(data) != c.Image.BlockBytes() {
			return nil, AccessTrace{}, fmt.Errorf("oram: write of %d bytes, block size %d", len(data), c.Image.BlockBytes())
		}
		copy(blk.Data, data)
		blk.Dirty = true
	}
	// Step 4: update the stash copy's leaf.
	blk.Leaf = lNew

	// Step 5: evict path l.
	evicted := c.evictPath(l, nil)

	if c.Stash.Overflowed() {
		return nil, AccessTrace{}, fmt.Errorf("oram: %w (%d > %d)", ErrStashOverflow, c.Stash.Len(), c.Stash.Capacity())
	}
	return prev, AccessTrace{
		PathLeaf:   l,
		Evicted:    evicted,
		StashAfter: c.Stash.Len(),
	}, nil
}

// AccessRMW performs one ORAM access that atomically (with respect to
// the protocol) reads block addr, applies mutate to its payload, and
// marks it dirty if mutate reports a change. Recursive position-map
// updates use this to splice a child's fresh leaf into its parent block
// during the parent's own access.
func (c *Controller) AccessRMW(addr Addr, mutate func(data []byte) bool) (AccessTrace, error) {
	if uint64(addr) >= c.nReal {
		return AccessTrace{}, fmt.Errorf("oram: access to addr %d outside [0,%d)", addr, c.nReal)
	}
	l := c.PosMap.Lookup(addr)
	lNew := c.RandomLeaf()
	if err := c.loadPath(l); err != nil {
		return AccessTrace{}, err
	}
	c.PosMap.Set(addr, lNew)
	blk := c.Stash.Get(addr)
	if blk == nil {
		return AccessTrace{}, fmt.Errorf("oram: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	if mutate != nil && mutate(blk.Data) {
		blk.Dirty = true
	}
	blk.Leaf = lNew
	evicted := c.evictPath(l, nil)
	if c.Stash.Overflowed() {
		return AccessTrace{}, fmt.Errorf("oram: %w (%d > %d)", ErrStashOverflow, c.Stash.Len(), c.Stash.Capacity())
	}
	return AccessTrace{PathLeaf: l, Evicted: evicted, StashAfter: c.Stash.Len()}, nil
}

// loadPath decrypts every slot on the path to l into the stash. Blocks
// whose header leaf disagrees with the controller's current mapping are
// stale copies (PS-ORAM backups superseded later) and are dropped as
// dummies, per footnote 1 of the paper.
func (c *Controller) loadPath(l Leaf) error {
	_, err := c.LoadPathWith(l, func(addr Addr) Leaf { return c.PosMap.Lookup(addr) })
	return err
}

// LoadPathWith is loadPath with an injectable current-leaf oracle, so the
// PS-ORAM controller can overlay its temporary PosMap. It returns the
// blocks newly brought into the stash by this load (the "path-origin"
// blocks, which a crash-consistent eviction must return to this path).
func (c *Controller) LoadPathWith(l Leaf, currentLeaf func(Addr) Leaf) ([]*StashBlock, error) {
	var loaded []*StashBlock
	for _, bucket := range c.Tree.Path(l) {
		blocks, err := c.Image.ReadBucket(c.Engine, bucket)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if b.Dummy() {
				continue
			}
			if uint64(b.Addr) >= c.nReal {
				return nil, fmt.Errorf("oram: tree contains out-of-range addr %d", b.Addr)
			}
			if currentLeaf(b.Addr) != b.Leaf {
				// Stale copy: treat as dummy.
				continue
			}
			if existing := c.Stash.Get(b.Addr); existing != nil {
				// A stash-resident copy from an earlier access is always
				// fresher. Between two copies loaded from THIS path (a
				// leaf collision between a block and its backup), the
				// higher seal version wins.
				if loadedThisCall(loaded, existing) && b.Ver > existing.Ver {
					existing.Ver = b.Ver
					existing.Data = b.Data
				}
				continue
			}
			sb := &StashBlock{Addr: b.Addr, Leaf: b.Leaf, Ver: b.Ver, Data: b.Data}
			c.Stash.Put(sb)
			loaded = append(loaded, sb)
		}
	}
	return loaded, nil
}

func loadedThisCall(loaded []*StashBlock, b *StashBlock) bool {
	for _, x := range loaded {
		if x == b {
			return true
		}
	}
	return false
}

// TargetLeaf returns the leaf a stash block is evicted toward: backups
// go to their recorded backup leaf, live blocks to their current leaf.
func (b *StashBlock) TargetLeaf() Leaf {
	if b.Backup {
		return b.BackupLeaf
	}
	return b.Leaf
}

// PlanEviction computes the greedy Path ORAM eviction onto path l for an
// explicitly ordered candidate list: each candidate is placed at the
// deepest level of the path its target leaf allows, earlier candidates
// first. It returns the plan ((level, slot) -> block; nil means dummy)
// and the candidates that did not fit (they stay in the stash).
//
// The order is the crash-consistency policy knob: the PS-ORAM controller
// in internal/core orders path-origin blocks and backups first (they
// must return to this path or a partial write-back loses them — Fig. 3),
// then blocks with pending PosMap remaps, then the rest.
func (c *Controller) PlanEviction(l Leaf, ordered []*StashBlock) (plan [][]*StashBlock, unplaced []*StashBlock) {
	t := c.Tree
	plan = make([][]*StashBlock, t.L+1)
	for k := range plan {
		plan[k] = make([]*StashBlock, t.Z)
	}
	used := make([]int, t.L+1)
	for _, b := range ordered {
		deepest := t.IntersectLevel(l, b.TargetLeaf())
		placed := false
		for k := deepest; k >= 0 && !placed; k-- {
			if used[k] < t.Z {
				plan[k][used[k]] = b
				used[k]++
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	return plan, unplaced
}

// PlanEvictionInto is PlanEviction writing into caller-provided plan
// rows and used counters: plan must have L+1 rows of Z slots each, and
// used must have L+1 entries; both are fully overwritten. unplaced is
// appended to the (emptied) caller slice and returned. Placement
// semantics are identical to PlanEviction.
func (c *Controller) PlanEvictionInto(l Leaf, ordered []*StashBlock, plan [][]*StashBlock, used []int, unplaced []*StashBlock) []*StashBlock {
	t := c.Tree
	for k := 0; k <= t.L; k++ {
		row := plan[k]
		for z := range row {
			row[z] = nil
		}
		used[k] = 0
	}
	unplaced = unplaced[:0]
	for _, b := range ordered {
		deepest := t.IntersectLevel(l, b.TargetLeaf())
		placed := false
		for k := deepest; k >= 0 && !placed; k-- {
			if used[k] < t.Z {
				plan[k][used[k]] = b
				used[k]++
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	return unplaced
}

// DefaultEvictionOrder is the baseline policy: backups first (deepest
// target first), then live blocks ordered by pending remap age and
// placement depth.
func (c *Controller) DefaultEvictionOrder(l Leaf) []*StashBlock {
	t := c.Tree
	backups := append([]*StashBlock(nil), c.Stash.Backups()...)
	sort.Slice(backups, func(i, j int) bool {
		return t.IntersectLevel(l, backups[i].TargetLeaf()) > t.IntersectLevel(l, backups[j].TargetLeaf())
	})
	live := c.Stash.Live()
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.PendingRemap != b.PendingRemap {
			return a.PendingRemap
		}
		if a.PendingRemap && a.RemapSeq != b.RemapSeq {
			return a.RemapSeq < b.RemapSeq
		}
		da := t.IntersectLevel(l, a.Leaf)
		db := t.IntersectLevel(l, b.Leaf)
		if da != db {
			return da > db
		}
		return a.Addr < b.Addr
	})
	return append(backups, live...)
}

// evictPath writes the eviction plan back to the NVM image and removes
// evicted blocks from the stash. onWrite, if non-nil, intercepts each
// slot write (the persistent controllers route writes through WPQ
// batches); when nil the write is applied to the image directly.
// It returns the number of real blocks written.
func (c *Controller) evictPath(l Leaf, onWrite func(bucket uint64, z int, s Slot, b *StashBlock)) int {
	plan, _ := c.PlanEviction(l, c.DefaultEvictionOrder(l))
	return c.ApplyEviction(l, plan, onWrite)
}

// ApplyEviction seals and writes a previously computed plan. Exposed so
// the PS-ORAM controller can wrap plan computation and write-out
// separately. Each slot is sealed into one scratch buffer, so onWrite
// must copy the Slot in (Image.SetSlot does) before it returns.
func (c *Controller) ApplyEviction(l Leaf, plan [][]*StashBlock, onWrite func(bucket uint64, z int, s Slot, b *StashBlock)) int {
	if onWrite == nil {
		onWrite = c.OnSlotWrite
	}
	t := c.Tree
	path := t.Path(l)
	bb := c.Image.BlockBytes()
	if len(c.sealBuf) < headerBytes+bb {
		c.sealBuf = make([]byte, headerBytes+bb)
	}
	hdr, data := c.sealBuf[:headerBytes], c.sealBuf[headerBytes:headerBytes+bb]
	real := 0
	for k, bucket := range path {
		for z := 0; z < t.Z; z++ {
			b := plan[k][z]
			var slot Slot
			if b == nil {
				slot = DummySlotInto(c.Engine, bb, c.nextIV, hdr, data)
			} else {
				leaf := b.Leaf
				if b.Backup {
					leaf = b.BackupLeaf
				}
				slot = SealBlockInto(c.Engine, Block{Addr: b.Addr, Leaf: leaf, Ver: c.NextVer(), Data: b.Data}, c.nextIV, hdr, data)
				real++
			}
			if onWrite != nil {
				onWrite(bucket, z, slot, b)
			} else {
				c.Image.PutSlot(bucket, z, slot)
			}
			if b != nil {
				if b.Backup {
					c.Stash.RemoveBackup(b)
				} else {
					c.Stash.Remove(b.Addr)
				}
			}
		}
	}
	return real
}

// CrashVolatile models the power failure's effect on the baseline
// controller's volatile state: stash gone. (The volatile PosMap deltas
// are handled by the caller, which knows which mem-layer writes
// survived.)
func (c *Controller) CrashVolatile() {
	c.Stash.Clear()
}

// ReadAll sweeps every logical address and returns the values; used by
// the consistency checker. Unlike Access it does not mutate any state: it
// peeks the stash, then scans the block's mapped path in the image.
func (c *Controller) ReadAll() (map[Addr][]byte, error) {
	out := make(map[Addr][]byte, c.nReal)
	for a := Addr(0); uint64(a) < c.nReal; a++ {
		v, err := c.Peek(a)
		if err != nil {
			return nil, err
		}
		out[a] = v
	}
	return out, nil
}

// Peek returns addr's current value without performing an ORAM access
// (test/diagnostic use only; real hardware would never do this).
func (c *Controller) Peek(addr Addr) ([]byte, error) {
	return c.PeekWith(addr, func(a Addr) Leaf { return c.PosMap.Lookup(a) })
}

// PeekWith is Peek with an injectable leaf oracle. Among several
// matching tree copies (leaf collisions between a block and its
// backups), the highest seal version is the fresh one.
func (c *Controller) PeekWith(addr Addr, currentLeaf func(Addr) Leaf) ([]byte, error) {
	if b := c.Stash.Get(addr); b != nil {
		return append([]byte(nil), b.Data...), nil
	}
	l := currentLeaf(addr)
	var best []byte
	bestVer := uint32(0)
	found := false
	for _, bucket := range c.Tree.Path(l) {
		blocks, err := c.Image.ReadBucket(c.Engine, bucket)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if b.Addr == addr && b.Leaf == l {
				if !found || b.Ver > bestVer {
					best, bestVer, found = b.Data, b.Ver, true
				}
			}
		}
	}
	if found {
		return best, nil
	}
	return nil, fmt.Errorf("oram: block %d unreachable (mapped to leaf %d but absent)", addr, l)
}
