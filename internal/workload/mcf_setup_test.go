package workload

import (
	"runtime"
	"testing"

	"eole/internal/prog"
)

// TestMcfSetup pins mcf's initial state — its registers and every
// word of the pages its Setup fills, the 32 MB node cycle and the
// 512 KB arc-cost array — to the image oracle's digest, read here
// through a private machine rather than a fork of an image, whose
// fills write every page at once. Beside those pages Setup allocates
// what it holds: the 8 MB int32 cycle (the []int one was 16 MB) and
// the stream states, which an image keeps as the backing data its
// node pages are built from, and the private memory's map of its
// pages. A map slot is a 16-byte entry and a control byte; with the
// tables it outgrows on the way, which TotalAlloc counts, the map
// reads ~71 B per page, and the bound allows 96.
func TestMcfSetup(t *testing.T) {
	const nodes = 1 << 21
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := privateMachine(w)
	runtime.ReadMemStats(&after)
	pages := uint64(m.Mem.Footprint())
	image := pages * 8 * prog.PageWords
	held := uint64(4*nodes + 8*nodes/(streamStride/2))
	if extra, limit := after.TotalAlloc-before.TotalAlloc-image, held+96*pages; extra > limit {
		t.Errorf("Setup allocated %.1f MB beside its %.1f MB of pages, want at most %.1f (%.1f held, %d pages mapped)",
			float64(extra)/(1<<20), float64(image)/(1<<20), float64(limit)/(1<<20), float64(held)/(1<<20), pages)
	}
	mcf := oracle["mcf"]
	got, spanned, _ := imageDigest(m, mcf.regions)
	// Every page Setup wrote lies in the regions, so the digest covers
	// the whole image.
	if n := m.Mem.Footprint(); n != spanned {
		t.Fatalf("mcf's image has %d pages, the digested regions %d", n, spanned)
	}
	if got != mcf.digest {
		t.Errorf("mcf image digest %s, want %s", got, mcf.digest)
	}
}
