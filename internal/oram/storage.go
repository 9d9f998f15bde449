package oram

import "encoding/binary"

// Storage is the slot-granular backing store of an ORAM tree image: the
// physical medium the sealed buckets live on. The in-memory backend (a
// bare Arena) models NVM the way the rest of the simulator does —
// mutations survive exactly when the mem layer says they do — while
// internal/storage/filestore keeps the image on disk behind a
// crash-consistent persist barrier, so a real process kill exercises the
// paper's §4.3 recovery against durable state.
//
// Every backend keeps its slots in one Arena. SetSlot copies the
// caller's bytes into the slot's record, so the caller may reuse its
// buffers as soon as it returns. Slot returns views into the arena: no
// copy and no allocation, valid until the next write of that slot; a
// caller that keeps a view across a write must copy it. The image also
// writes the arena in place (tree build, deferred seals; see Image) and
// calls Touch whenever that changes a bucket's sealed bytes, so a
// durable backend knows which buckets its next persist barrier must
// serialize.
type Storage interface {
	// Slot returns a view of the sealed slot at (bucket, z).
	Slot(bucket uint64, z int) Slot
	// SetSlot copies s into the slot at (bucket, z).
	SetSlot(bucket uint64, z int, s Slot)
	// Arena returns the arena holding every slot record.
	Arena() *Arena
	// Touch records that bucket's sealed bytes were changed in place.
	Touch(bucket uint64)
}

// StoreGeometry identifies the shape (and scheme) of a stored image, so
// a durable backend can be reopened without external metadata.
type StoreGeometry struct {
	Scheme     uint64 // config.Scheme, widened to avoid an import cycle
	Levels     int
	Z          int
	BlockBytes int
	NumBlocks  uint64
}

// ivBytes is the record prefix holding IV1 and IV2 (little-endian).
const ivBytes = 16

// Arena is a tree image as one contiguous, pointer-free byte slab. It is
// bucket-major: slot (bucket, z) is record bucket*Z+z, and each record is
//
//	iv1 (8, LE) | iv2 (8, LE) | sealed header (HeaderBytes) | sealed payload
//
// — byte for byte the slot record of filestore's data chunks, so a
// chunk serializes and recovers as one copy of a bucket range. The bare
// Arena is the in-memory Storage backend: it has nothing to persist, so
// Touch is a no-op.
type Arena struct {
	z   int
	rec int
	buf []byte
}

// NewArena allocates a zeroed arena for tree t with blockBytes payloads.
func NewArena(t Tree, blockBytes int) *Arena {
	rec := ivBytes + headerBytes + blockBytes
	return &Arena{z: t.Z, rec: rec, buf: make([]byte, t.Slots()*uint64(rec))}
}

// record returns the slot's record, capacity-limited to it.
func (a *Arena) record(bucket uint64, z int) []byte {
	off := (bucket*uint64(a.z) + uint64(z)) * uint64(a.rec)
	end := off + uint64(a.rec)
	return a.buf[off:end:end]
}

// Buckets returns the records of buckets [lo, hi) as one contiguous range
// of the arena (not a copy).
func (a *Arena) Buckets(lo, hi uint64) []byte {
	per := uint64(a.z) * uint64(a.rec)
	return a.buf[lo*per : hi*per]
}

// Slot returns a view of the slot at (bucket, z).
func (a *Arena) Slot(bucket uint64, z int) Slot { return recordSlot(a.record(bucket, z)) }

// SetSlot copies s into the slot at (bucket, z). s must be full-sized:
// a HeaderBytes header and a payload of the arena's block size.
func (a *Arena) SetSlot(bucket uint64, z int, s Slot) { putRecord(a.record(bucket, z), s) }

// Arena returns a itself: the bare arena is the in-memory backend.
func (a *Arena) Arena() *Arena { return a }

// Touch is a no-op: process memory needs no persist barrier.
func (a *Arena) Touch(uint64) {}

// recordSlot views a record as a Slot.
func recordSlot(r []byte) Slot {
	return Slot{
		IV1:          binary.LittleEndian.Uint64(r),
		IV2:          binary.LittleEndian.Uint64(r[8:]),
		SealedHeader: r[ivBytes : ivBytes+headerBytes : ivBytes+headerBytes],
		SealedData:   r[ivBytes+headerBytes:],
	}
}

// putRecord copies s into record r.
func putRecord(r []byte, s Slot) {
	if len(s.SealedHeader) != headerBytes || len(s.SealedData) != len(r)-ivBytes-headerBytes {
		panic("oram: slot does not match the arena record size")
	}
	binary.LittleEndian.PutUint64(r, s.IV1)
	binary.LittleEndian.PutUint64(r[8:], s.IV2)
	copy(r[ivBytes:], s.SealedHeader)
	copy(r[ivBytes+headerBytes:], s.SealedData)
}
