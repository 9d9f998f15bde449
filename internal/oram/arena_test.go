package oram

import (
	"bytes"
	"testing"
)

// sameSlot reports whether two slots hold identical bytes.
func sameSlot(a, b Slot) bool {
	return a.IV1 == b.IV1 && a.IV2 == b.IV2 &&
		bytes.Equal(a.SealedHeader, b.SealedHeader) && bytes.Equal(a.SealedData, b.SealedData)
}

// TestSetSlotUndoUnderDeferredSeal: SetSlot's undo restores the slot's
// previous bytes when that slot held a deferred seal — the restored
// bytes are exactly the eager seal of the deferred block under its
// pre-drawn IVs — and the captures cost no allocation per slot beyond
// the undo closure itself.
func TestSetSlotUndoUnderDeferredSeal(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	img := NewImage(NewTree(3, 2), e, 64, iv)
	img.EnableLazySeal(e)

	b := Block{Addr: 5, Leaf: 3, Ver: 9, Data: bytes.Repeat([]byte{0xab}, 64)}
	img.PutLazyBlock(4, 1, 1001, 1002, b)
	want := SealBlockIVs(e, b, 1001, 1002, make([]byte, HeaderBytes), make([]byte, 64))
	img.PutLazyDummy(6, 0, 2001, 2002)
	wantDummy := DummySlotIVs(e, 64, 2001, 2002, make([]byte, HeaderBytes), make([]byte, 64))

	repl := DummySlot(e, 64, iv)
	undo := img.SetSlot(4, 1, repl)
	undoDummy := img.SetSlot(6, 0, repl)
	if !sameSlot(img.Slot(4, 1), repl) || !sameSlot(img.Slot(6, 0), repl) {
		t.Fatal("SetSlot did not apply")
	}
	// A later deferred write to the slot is rolled back too.
	img.PutLazyBlock(4, 1, 3001, 3002, b)
	undo()
	undoDummy()
	if !sameSlot(img.Slot(4, 1), want) {
		t.Fatal("undo did not restore the deferred block's sealed bytes")
	}
	if !sameSlot(img.Slot(6, 0), wantDummy) {
		t.Fatal("undo did not restore the deferred dummy's sealed bytes")
	}
	if _, _, _, _, ok := img.PlainHeader(4, 1); ok {
		t.Fatal("restored slot still reads as deferred")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		undo = img.SetSlot(4, 1, repl)
	})
	if allocs > 1 {
		t.Fatalf("SetSlot allocates %.0f objects per slot, want at most the undo closure", allocs)
	}
}

// TestImageLayoutConstantObjects is the layout guard: building an image
// allocates the same number of heap objects whatever the tree size, so
// no per-bucket or per-slot object can creep back into the image.
func TestImageLayoutConstantObjects(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	build := func(levels int) float64 {
		return testing.AllocsPerRun(2, func() {
			img := NewImage(NewTree(levels, 4), e, 64, iv)
			img.EnableLazySeal(e)
		})
	}
	small, large := build(10), build(14)
	if small != large {
		t.Fatalf("NewImage allocates %.0f objects at L=10 but %.0f at L=14", small, large)
	}
	t.Logf("NewImage + EnableLazySeal: %.0f heap objects at any size", small)
}
