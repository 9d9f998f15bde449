package oram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/cryptoeng"
	"repro/internal/rng"
)

// Image is the functional NVM image of an ORAM tree: every bucket's
// sealed slots. It plays the role of the NVM-ORAM tree in the paper's
// figures; the mem package decides which mutations of it survive a
// crash, and the Storage backend decides where the slots physically
// live (process memory by default, a crash-consistent file store for
// real process-kill recovery). Either way the slots are records of the
// backend's Arena.
type Image struct {
	Tree   Tree
	store  Storage
	arena  *Arena
	blockB int

	// Lazy seal. The controller that writes a slot is the only party
	// that later reads it, and it wrote the plaintext itself — so in
	// steady state the ciphertext is dead work: sealed at eviction,
	// decrypted back at the next load of the bucket, overwritten again.
	// With lazy sealing armed, eviction writes the pre-drawn IVs and the
	// plaintext header and payload into the slot's own record and sets
	// the slot's deferred bit; the first observer of the sealed bytes
	// (snapshots, integrity checks, the persist barrier, equivalence
	// tests) seals the record in place. The protocol's IV/version
	// streams, and therefore every observable ciphertext, are unchanged.
	lazy     bool
	engine   *cryptoeng.Engine
	deferred []uint64 // bitset over slot index bucket*Z+z
	seq      []uint64 // per-bucket write sequence (prefetch invalidation)
	// pending lists slots deferred since the last MaterializePending. It
	// is kept only when the backend serializes the arena at a persist
	// barrier (barrier); the bare in-memory arena never needs it.
	barrier bool
	pending []uint64

	// undo is carve-out space for SetSlot's captured previous records:
	// one allocation per undoRecords captures, not one per slot.
	undo []byte
}

// undoRecords is how many SetSlot undo captures share one allocation.
const undoRecords = 64

// NewImage allocates an in-memory image with every slot sealed as a
// dummy.
func NewImage(t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	return NewImageInto(NewArena(t, blockBytes), t, e, blockBytes, nextIV)
}

// NewImageInto builds a fresh image on an existing (empty) storage
// backend, sealing a dummy straight into every slot record. The IV
// order — bucket by bucket, slot by slot, IV1 then IV2 — is the same on
// every backend, so every ciphertext is byte-for-byte the same too.
func NewImageInto(st Storage, t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	img := NewImageOn(st, t, blockBytes)
	for bucket := uint64(0); bucket < t.Buckets(); bucket++ {
		for z := 0; z < t.Z; z++ {
			iv1, iv2 := nextIV(), nextIV()
			hdr, data := stampIVs(img.arena.record(bucket, z), iv1, iv2)
			DummySlotIVs(e, blockBytes, iv1, iv2, hdr, data)
		}
		st.Touch(bucket)
	}
	return img
}

// NewImageOn attaches an image to an already-populated storage backend
// without writing anything — the recovery path: the slots are whatever
// the durable store reconstructed.
func NewImageOn(st Storage, t Tree, blockBytes int) *Image {
	a := st.Arena()
	if a.rec != ivBytes+headerBytes+blockBytes || uint64(len(a.buf)) != t.Slots()*uint64(a.rec) {
		panic("oram: storage arena does not match the image geometry")
	}
	return &Image{Tree: t, store: st, arena: a, blockB: blockBytes}
}

// Storage returns the backing store.
func (img *Image) Storage() Storage { return img.store }

// EnableLazySeal arms lazy sealing. A backend that serializes the arena
// at a persist barrier must see sealed bytes there, so a durable caller
// must run MaterializePending before every persist — the seal is then
// deferred only as far as the barrier, never past it.
func (img *Image) EnableLazySeal(e *cryptoeng.Engine) {
	img.lazy = true
	img.engine = e
	img.deferred = make([]uint64, (img.Tree.Slots()+63)/64)
	img.seq = make([]uint64, img.Tree.Buckets())
	img.barrier = img.store != Storage(img.arena)
}

// LazySeal reports whether lazy sealing is armed.
func (img *Image) LazySeal() bool { return img.lazy }

// DisableLazySeal seals every deferred slot in place and disarms lazy
// sealing: afterwards the image behaves exactly like an eager one, with
// the arena holding the same bytes the eager path would have written.
// Equivalence tests use it to compare a lazy image against an eager
// reference slot-by-slot.
func (img *Image) DisableLazySeal() {
	if !img.lazy {
		return
	}
	for w, word := range img.deferred {
		for ; word != 0; word &= word - 1 {
			img.materialize(uint64(w)*64 + uint64(bits.TrailingZeros64(word)))
		}
	}
	img.lazy = false
	img.deferred, img.seq, img.pending, img.engine = nil, nil, nil, nil
}

// BucketSeq returns the bucket's write sequence number; any write to any
// slot of the bucket bumps it. Prefetched header decodes are valid only
// while the sequence they were taken under is unchanged.
func (img *Image) BucketSeq(bucket uint64) uint64 {
	if img.seq == nil {
		return 0
	}
	return img.seq[bucket]
}

func (img *Image) index(bucket uint64, z int) uint64 {
	return bucket*uint64(img.Tree.Z) + uint64(z)
}

func (img *Image) isDeferred(i uint64) bool { return img.deferred[i/64]&(1<<(i%64)) != 0 }

// overwrite prepares slot (bucket, z) for a full overwrite: its deferred
// bit (if any) drops and the bucket's write sequence moves on.
func (img *Image) overwrite(bucket uint64, z int) {
	if img.lazy {
		i := img.index(bucket, z)
		img.deferred[i/64] &^= 1 << (i % 64)
		img.seq[bucket]++
	}
}

// stampIVs writes a record's IVs and returns its header and payload.
func stampIVs(r []byte, iv1, iv2 uint64) (hdr, data []byte) {
	binary.LittleEndian.PutUint64(r, iv1)
	binary.LittleEndian.PutUint64(r[8:], iv2)
	return r[ivBytes : ivBytes+headerBytes], r[ivBytes+headerBytes:]
}

// putDeferred writes a deferred seal's IVs and plaintext header into the
// record and marks the slot deferred. It returns the payload region.
func (img *Image) putDeferred(bucket uint64, z int, iv1, iv2 uint64, addr Addr, leaf Leaf, ver uint32) []byte {
	hdr, data := stampIVs(img.arena.record(bucket, z), iv1, iv2)
	putHeader(hdr, addr, leaf, ver)
	i := img.index(bucket, z)
	if !img.isDeferred(i) {
		img.deferred[i/64] |= 1 << (i % 64)
		if img.barrier {
			img.pending = append(img.pending, i)
		}
	}
	img.seq[bucket]++
	return data
}

// PutLazyBlock records a deferred seal of b at (bucket, z) under the
// pre-drawn IVs and the version already baked into b.Ver. The payload is
// copied into the record — callers recycle b.Data freely.
func (img *Image) PutLazyBlock(bucket uint64, z int, iv1, iv2 uint64, b Block) {
	copy(img.putDeferred(bucket, z, iv1, iv2, b.Addr, b.Leaf, b.Ver), b.Data)
}

// PutLazyDummy records a deferred dummy seal at (bucket, z). The stale
// payload bytes stay: sealing a dummy overwrites them with keystream.
func (img *Image) PutLazyDummy(bucket uint64, z int, iv1, iv2 uint64) {
	img.putDeferred(bucket, z, iv1, iv2, DummyAddr, 0, 0)
}

// MaterializePending is the persist-time materialization barrier: every
// slot deferred since the last call is sealed in place (and touched, so
// a durable backend serializes it), and the arena holds exactly the
// bytes the eager path would have written. Slots already overwritten or
// sealed by a reader are skipped. A slot rewritten N times within one
// group is sealed once, with its final content — the amortization that
// makes lazy sealing pay off under group commit. No-op unless lazy
// sealing is armed over a backend with a persist barrier.
func (img *Image) MaterializePending() {
	for _, i := range img.pending {
		if img.isDeferred(i) {
			img.materialize(i)
		}
	}
	img.pending = img.pending[:0]
}

// PlainHeader is the lazy-seal fast path for header inspection: if the
// slot holds a deferred seal, its header fields come back with ok=true
// and zero AES work.
func (img *Image) PlainHeader(bucket uint64, z int) (addr Addr, leaf Leaf, ver uint32, dummy, ok bool) {
	if !img.lazy || !img.isDeferred(img.index(bucket, z)) {
		return 0, 0, 0, false, false
	}
	addr, leaf, ver = getHeader(img.arena.record(bucket, z)[ivBytes:])
	return addr, leaf, ver, addr == DummyAddr, true
}

// PlainData returns the plaintext payload of a deferred real block (nil
// otherwise). It is a view into the arena: read, then copy.
func (img *Image) PlainData(bucket uint64, z int) []byte {
	if !img.lazy || !img.isDeferred(img.index(bucket, z)) {
		return nil
	}
	r := img.arena.record(bucket, z)
	if Addr(binary.LittleEndian.Uint64(r[ivBytes:])) == DummyAddr {
		return nil
	}
	return r[ivBytes+headerBytes:]
}

// materialize seals deferred slot i in place: the record's plaintext
// header and payload become exactly the bytes SealBlockIVs (or, for a
// dummy, DummySlotIVs) produces under the record's IVs.
func (img *Image) materialize(i uint64) {
	zz := uint64(img.Tree.Z)
	bucket := i / zz
	r := img.arena.record(bucket, int(i%zz))
	iv1, iv2 := binary.LittleEndian.Uint64(r), binary.LittleEndian.Uint64(r[8:])
	hdr, data := r[ivBytes:ivBytes+headerBytes], r[ivBytes+headerBytes:]
	if Addr(binary.LittleEndian.Uint64(hdr)) == DummyAddr {
		img.engine.PadInto(iv2, data)
	} else {
		img.engine.SealInto(iv2, data, data)
	}
	img.engine.SealInto(iv1, hdr, hdr)
	img.deferred[i/64] &^= 1 << (i % 64)
	img.store.Touch(bucket)
}

// Slot returns a view of the sealed slot at (bucket, z), sealing a
// deferred slot in place on first observation.
func (img *Image) Slot(bucket uint64, z int) Slot {
	if img.lazy {
		if i := img.index(bucket, z); img.isDeferred(i) {
			img.materialize(i)
		}
	}
	return img.arena.Slot(bucket, z)
}

// SetSlot copies s into the slot at (bucket, z) and returns an undo
// closure restoring the previous sealed bytes (used for crash rollback
// of in-flight writes). A deferred slot is sealed first, so the capture
// is the ciphertext the eager path would hold. Captures are carved out
// of a shared buffer, so the undo costs no allocation per slot beyond
// the closure itself.
func (img *Image) SetSlot(bucket uint64, z int, s Slot) (undo func()) {
	img.Slot(bucket, z) // seals a deferred slot
	rec := img.arena.record(bucket, z)
	if len(img.undo) < len(rec) {
		img.undo = make([]byte, undoRecords*len(rec))
	}
	prev := img.undo[:len(rec):len(rec)]
	img.undo = img.undo[len(rec):]
	copy(prev, rec)
	img.PutSlot(bucket, z, s)
	return func() {
		img.overwrite(bucket, z)
		copy(img.arena.record(bucket, z), prev)
		img.store.Touch(bucket)
	}
}

// PutSlot copies s into the slot at (bucket, z) with no undo: the
// commit-time write of an atomic batch, which is never rolled back.
func (img *Image) PutSlot(bucket uint64, z int, s Slot) {
	img.overwrite(bucket, z)
	img.store.SetSlot(bucket, z, s)
}

// BlockBytes returns the payload size of each block.
func (img *Image) BlockBytes() int { return img.blockB }

// InitBlocks seals the given blocks into the tree, each on the path of
// its leaf, filling from the leaf level upward, straight into the slot
// records. It is used to build an initial ORAM state with real resident
// blocks (plus the already-sealed dummies everywhere else). Blocks whose
// paths are already full are returned unplaced — at high utilization
// the controller starts them in the stash, exactly as a real warm-up
// would.
func (img *Image) InitBlocks(e *cryptoeng.Engine, blocks []Block, nextIV func() uint64) []Block {
	t := img.Tree
	used := make([]uint8, t.Buckets()) // slots consumed per bucket (Z <= 64)
	path := make([]uint64, 0, t.Levels())
	var unplaced []Block
	for _, b := range blocks {
		placed := false
		path = t.PathInto(path[:0], b.Leaf)
		for k := t.L; k >= 0 && !placed; k-- {
			bucket := path[k]
			if z := int(used[bucket]); z < t.Z {
				iv1, iv2 := nextIV(), nextIV()
				hdr, data := stampIVs(img.arena.record(bucket, z), iv1, iv2)
				SealBlockIVs(e, b, iv1, iv2, hdr, data)
				img.store.Touch(bucket)
				used[bucket]++
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	return unplaced
}

// ReadBucket opens every slot of a bucket.
func (img *Image) ReadBucket(e *cryptoeng.Engine, bucket uint64) ([]Block, error) {
	out := make([]Block, 0, img.Tree.Z)
	for z := 0; z < img.Tree.Z; z++ {
		b, err := OpenSlot(e, img.Slot(bucket, z))
		if err != nil {
			return nil, fmt.Errorf("oram: bucket %d slot %d: %w", bucket, z, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// CountReal returns the number of non-dummy blocks in the whole tree
// (slow; for tests and consistency checks).
func (img *Image) CountReal(e *cryptoeng.Engine) (int, error) {
	n := 0
	for b := uint64(0); b < img.Tree.Buckets(); b++ {
		blocks, err := img.ReadBucket(e, b)
		if err != nil {
			return 0, err
		}
		for _, blk := range blocks {
			if !blk.Dummy() {
				n++
			}
		}
	}
	return n, nil
}

// NewIVSource returns a monotonically unique IV generator seeded from r.
// IVs must never repeat under one key; a 64-bit counter starting at a
// random offset suffices for simulation lifetimes.
func NewIVSource(r *rng.Rand) func() uint64 {
	ctr := r.Uint64()
	return func() uint64 {
		ctr++
		return ctr
	}
}
