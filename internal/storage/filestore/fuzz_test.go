package filestore_test

// FuzzFilestoreRecovery hands the recovery scanner an adversarial
// directory: a pristine two-epoch store with one fuzzer-chosen file
// patched, truncated, or deleted. The contract under ANY such damage:
// Open either recovers a committed state or refuses with a typed error
// (ErrNoStore / ErrCorrupted) — it never panics, never returns an
// untyped error, and whatever it recovers must survive an immediate
// reopen at the same epoch (recovery is idempotent, including its
// garbage collection).

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// fuzzTargets is the fixed file list of the template store (keepOld
// keeps both epochs on disk for a richer damage surface). Stable
// ordering keeps the corpus meaningful across runs.
var fuzzTargets = []string{
	"meta",
	"version",
	"chunks/d0-1",
	"chunks/d0-2",
	"chunks/d1-1",
	"chunks/d1-2",
	"chunks/s-1",
	"chunks/s-2",
}

func FuzzFilestoreRecovery(f *testing.F) {
	tmpl := buildFuzzTemplate(f)

	f.Add(uint8(1), uint8(0), uint32(70), []byte{0xff})         // patch the version file
	f.Add(uint8(3), uint8(1), uint32(9), []byte(nil))           // truncate a committed chunk
	f.Add(uint8(7), uint8(2), uint32(0), []byte(nil))           // delete the committed state chunk
	f.Add(uint8(0), uint8(0), uint32(5), []byte{1, 2, 3, 4})    // patch meta
	f.Add(uint8(5), uint8(3), uint32(0), []byte("replacement")) // rewrite a chunk wholesale

	f.Fuzz(func(t *testing.T, fileSel, op uint8, off uint32, patch []byte) {
		dir := t.TempDir()
		copyTree(t, tmpl, dir)

		target := filepath.Join(dir, filepath.FromSlash(fuzzTargets[int(fileSel)%len(fuzzTargets)]))
		switch op % 4 {
		case 0: // patch bytes at an offset
			raw, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > 0 {
				o := int(off) % len(raw)
				n := copy(raw[o:], patch)
				if n == 0 {
					raw[o] ^= 0x80
				}
				if err := os.WriteFile(target, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // truncate
			raw, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(target, raw[:int(off)%(len(raw)+1)], 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			if err := os.Remove(target); err != nil {
				t.Fatal(err)
			}
		case 3: // replace wholesale
			if err := os.WriteFile(target, patch, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		st, err := filestore.Open(dir)
		if err != nil {
			if !errors.Is(err, filestore.ErrNoStore) && !errors.Is(err, filestore.ErrCorrupted) {
				t.Fatalf("Open returned an untyped error: %v", err)
			}
			return
		}
		epoch, verSeq := st.Epoch(), st.VerSeq()
		if err := st.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		st2, err := filestore.Open(dir)
		if err != nil {
			t.Fatalf("recovery not idempotent: second Open failed: %v", err)
		}
		if st2.Epoch() != epoch || st2.VerSeq() != verSeq {
			t.Fatalf("recovery not idempotent: epoch/verSeq %d/%d then %d/%d",
				epoch, verSeq, st2.Epoch(), st2.VerSeq())
		}
		st2.Close()
	})
}

// buildFuzzTemplate creates the pristine two-epoch store the fuzzer
// copies and damages, and sanity-checks fuzzTargets against it.
func buildFuzzTemplate(f *testing.F) string {
	f.Helper()
	dir := f.TempDir()
	g := oram.StoreGeometry{Levels: 4, Z: 2, BlockBytes: 8, NumBlocks: 6}
	st, err := filestore.Create(dir, g)
	if err != nil {
		f.Fatal(err)
	}
	st.TestingKeepSuperseded()
	tree := oram.NewTree(g.Levels, g.Z)
	mk := func(tag uint64) oram.Slot {
		return oram.Slot{
			IV1:          tag,
			IV2:          ^tag,
			SealedHeader: make([]byte, 16),
			SealedData:   make([]byte, g.BlockBytes),
		}
	}
	for b := uint64(0); b < tree.Buckets(); b++ {
		for z := 0; z < g.Z; z++ {
			st.SetSlot(b, z, mk(1))
		}
	}
	st.SetVerSeq(1)
	if err := st.Persist(); err != nil {
		f.Fatal(err)
	}
	st.SetSlot(0, 0, mk(2))
	st.SetSlot(9, 1, mk(2))
	st.SetVerSeq(2)
	if err := st.Persist(); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	for _, rel := range fuzzTargets {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(rel))); err != nil {
			f.Fatalf("template store is missing expected file %s: %v", rel, err)
		}
	}
	return dir
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dst, "chunks"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rel := range fuzzTargets {
		raw, err := os.ReadFile(filepath.Join(src, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.FromSlash(rel)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
