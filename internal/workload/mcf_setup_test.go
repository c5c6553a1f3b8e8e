package workload

import (
	"runtime"
	"testing"

	"eole/internal/prog"
)

// TestMcfSetup pins mcf's initial state — its registers and every
// word of the pages its Setup fills, the 32 MB node cycle and the
// 512 KB arc-cost array — to the image oracle's digest, read here
// through a private machine rather than a fork of an image. It holds what Setup allocates beside those pages to their page map
// and the 8 MB of the int32 cycle (the []int one was 16 MB), which an
// image keeps as the backing data its node pages are built from. The
// machine here is a private one, so its fills write every page at once.
func TestMcfSetup(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := privateMachine(w)
	runtime.ReadMemStats(&after)
	image := uint64(m.Mem.Footprint()) * 8 * prog.PageWords
	if extra := after.TotalAlloc - before.TotalAlloc - image; extra > 10<<20 {
		t.Errorf("Setup allocated %.1f MB beside its %.1f MB of pages, want at most 10",
			float64(extra)/(1<<20), float64(image)/(1<<20))
	}
	mcf := oracle["mcf"]
	got, pages := imageDigest(m, mcf.regions)
	// Every page Setup wrote lies in the regions, so the digest covers
	// the whole image.
	if n := m.Mem.Footprint(); n != pages {
		t.Fatalf("mcf's image has %d pages, the digested regions %d", n, pages)
	}
	if got != mcf.digest {
		t.Errorf("mcf image digest %s, want %s", got, mcf.digest)
	}
}
