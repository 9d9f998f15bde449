package oram_test

import (
	"bytes"
	"testing"

	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// TestStorageCopyInContract runs the Storage contract against both
// backends: SetSlot copies the caller's bytes (mutating the caller's
// buffers afterwards leaves the stored slot unchanged), Slot returns
// views of the stored bytes without allocating, and a write to one slot
// leaves every other slot's view untouched.
func TestStorageCopyInContract(t *testing.T) {
	g := oram.StoreGeometry{Levels: 4, Z: 4, BlockBytes: 32, NumBlocks: 10}
	tree := oram.NewTree(g.Levels, g.Z)
	fs, err := filestore.Create(t.TempDir(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	backends := []struct {
		name string
		st   oram.Storage
	}{
		{"memory", oram.NewArena(tree, g.BlockBytes)},
		{"filestore", fs},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			st := be.st
			hdr := bytes.Repeat([]byte{0x11}, oram.HeaderBytes)
			data := bytes.Repeat([]byte{0x22}, g.BlockBytes)
			st.SetSlot(5, 2, oram.Slot{IV1: 7, IV2: 8, SealedHeader: hdr, SealedData: data})
			st.SetSlot(5, 3, oram.Slot{IV1: 9, IV2: 10, SealedHeader: hdr, SealedData: data})
			for i := range hdr {
				hdr[i] = 0xee
			}
			for i := range data {
				data[i] = 0xff
			}
			got := st.Slot(5, 2)
			if got.IV1 != 7 || got.IV2 != 8 ||
				!bytes.Equal(got.SealedHeader, bytes.Repeat([]byte{0x11}, oram.HeaderBytes)) ||
				!bytes.Equal(got.SealedData, bytes.Repeat([]byte{0x22}, g.BlockBytes)) {
				t.Fatal("mutating the caller's buffers after SetSlot changed the stored slot")
			}
			// The neighbour's write lands in its own record only.
			st.SetSlot(5, 3, oram.Slot{IV1: 11, IV2: 12, SealedHeader: hdr, SealedData: data})
			if again := st.Slot(5, 2); again.IV1 != 7 || again.SealedData[0] != 0x22 || got.SealedHeader[0] != 0x11 {
				t.Fatal("writing slot (5,3) changed slot (5,2)")
			}
			if n := testing.AllocsPerRun(100, func() { _ = st.Slot(5, 2) }); n != 0 {
				t.Fatalf("Slot allocates %.0f objects per read, want views", n)
			}
		})
	}
}
