package oram

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cryptoeng"
)

// headerBytes is the plaintext header length: addr(8) + leaf(4) + ver(4).
const headerBytes = 16

// HeaderBytes exposes the sealed-header length for callers that manage
// their own seal buffers.
const HeaderBytes = headerBytes

// Slot is one block slot of a bucket as it exists in NVM: two plaintext
// IVs plus the sealed header and sealed payload (Fletcher et al.: IV1
// seals the header, IV2 the data). A freshly initialized slot holds a
// sealed dummy block — on the bus, dummies are indistinguishable from
// real blocks.
type Slot struct {
	IV1, IV2     uint64
	SealedHeader []byte
	SealedData   []byte
}

// Block is a decrypted block as the controller sees it. Ver is a
// seal-time sequence number carried in the sealed header: when leaf
// collisions leave several copies of one address that all match the
// position map (a backup sealed under the block's next leaf, say), the
// highest version is the fresh one — recovery and path loading use it
// to resolve the ambiguity deterministically.
type Block struct {
	Addr Addr
	Leaf Leaf
	Ver  uint32
	Data []byte
}

// Dummy reports whether the block carries the reserved dummy address.
func (b Block) Dummy() bool { return b.Addr == DummyAddr }

// putHeader packs a plaintext header into h[:headerBytes].
func putHeader(h []byte, addr Addr, leaf Leaf, ver uint32) {
	binary.LittleEndian.PutUint64(h[0:8], uint64(addr))
	binary.LittleEndian.PutUint32(h[8:12], uint32(leaf))
	binary.LittleEndian.PutUint32(h[12:16], ver)
}

// getHeader unpacks a plaintext header.
func getHeader(h []byte) (Addr, Leaf, uint32) {
	return Addr(binary.LittleEndian.Uint64(h[0:8])),
		Leaf(binary.LittleEndian.Uint32(h[8:12])),
		binary.LittleEndian.Uint32(h[12:16])
}

// SealBlock encrypts b into a fresh Slot using IVs drawn from nextIV.
func SealBlock(e *cryptoeng.Engine, b Block, nextIV func() uint64) Slot {
	return SealBlockInto(e, b, nextIV, make([]byte, headerBytes), make([]byte, len(b.Data)))
}

// OpenSlot decrypts a slot back into a Block.
func OpenSlot(e *cryptoeng.Engine, s Slot) (Block, error) {
	addr, leaf, ver, err := openHeaderInto(e, s.IV1, s.SealedHeader)
	if err != nil {
		return Block{}, err
	}
	return Block{Addr: addr, Leaf: leaf, Ver: ver, Data: e.Open(s.IV2, s.SealedData)}, nil
}

// DummySlot seals a dummy block with throwaway payload of blockBytes.
func DummySlot(e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) Slot {
	return SealBlock(e, Block{Addr: DummyAddr, Data: make([]byte, blockBytes)}, nextIV)
}

// SealBlockInto seals b into a Slot using the caller-provided header and
// data buffers (each must have capacity for headerBytes / len(b.Data)).
// It draws IVs from nextIV in the same order as SealBlock, so the two are
// interchangeable ciphertext-for-ciphertext.
func SealBlockInto(e *cryptoeng.Engine, b Block, nextIV func() uint64, hdr, data []byte) Slot {
	iv1, iv2 := nextIV(), nextIV()
	return SealBlockIVs(e, b, iv1, iv2, hdr, data)
}

// SealBlockIVs seals b under pre-drawn IVs into caller-provided buffers.
// Splitting the IV draw from the seal lets callers pin the IV stream
// order up front and run (or defer) the AES work independently —
// identical ciphertext to SealBlockInto for the same IVs.
func SealBlockIVs(e *cryptoeng.Engine, b Block, iv1, iv2 uint64, hdr, data []byte) Slot {
	var h [headerBytes]byte
	putHeader(h[:], b.Addr, b.Leaf, b.Ver)
	return Slot{
		IV1:          iv1,
		IV2:          iv2,
		SealedHeader: e.SealInto(iv1, h[:], hdr),
		SealedData:   e.SealInto(iv2, b.Data, data),
	}
}

// DummySlotInto seals a dummy block into caller-provided buffers. A
// sealed all-zero payload is exactly the keystream, so the payload is
// produced by PadInto without a zero plaintext — byte-identical to
// DummySlot for the same IVs.
func DummySlotInto(e *cryptoeng.Engine, blockBytes int, nextIV func() uint64, hdr, data []byte) Slot {
	iv1, iv2 := nextIV(), nextIV()
	return DummySlotIVs(e, blockBytes, iv1, iv2, hdr, data)
}

// DummySlotIVs is DummySlotInto under pre-drawn IVs.
func DummySlotIVs(e *cryptoeng.Engine, blockBytes int, iv1, iv2 uint64, hdr, data []byte) Slot {
	var h [headerBytes]byte
	putHeader(h[:], DummyAddr, 0, 0)
	data = data[:blockBytes]
	e.PadInto(iv2, data)
	return Slot{
		IV1:          iv1,
		IV2:          iv2,
		SealedHeader: e.SealInto(iv1, h[:], hdr),
		SealedData:   data,
	}
}

// OpenSlotHeader unseals only a slot's header — enough to tell dummies
// and stale versions apart without paying for the payload decrypt.
func OpenSlotHeader(e *cryptoeng.Engine, s Slot) (Addr, Leaf, uint32, error) {
	return openHeaderInto(e, s.IV1, s.SealedHeader)
}

// openHeaderInto unseals and unpacks a header without allocating: the
// plaintext lands in a stack array that never escapes.
func openHeaderInto(e *cryptoeng.Engine, iv1 uint64, sealed []byte) (Addr, Leaf, uint32, error) {
	if len(sealed) != headerBytes {
		return 0, 0, 0, fmt.Errorf("oram: sealed header has %d bytes, want %d", len(sealed), headerBytes)
	}
	var h [headerBytes]byte
	e.OpenInto(iv1, sealed, h[:])
	a, l, v := getHeader(h[:])
	return a, l, v, nil
}

// OpenSlotDataInto unseals a slot's payload into dst (capacity must
// cover len(s.SealedData)) and returns the filled prefix.
func OpenSlotDataInto(e *cryptoeng.Engine, s Slot, dst []byte) []byte {
	return e.OpenInto(s.IV2, s.SealedData, dst)
}
