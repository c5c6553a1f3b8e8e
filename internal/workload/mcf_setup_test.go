package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestMcfSetup pins mcf's initial state — its registers and every
// word of the pages its Setup fills, the 32 MB node cycle and the
// 512 KB arc-cost array — to a SHA-256 taken while Setup's permutation
// was still []int and every page was written before the first µ-op.
// It holds what Setup allocates beside those pages to their page map
// and the 8 MB of the int32 cycle (the []int one was 16 MB), which an
// image keeps as the backing data its node pages are built from. The
// machine here is a private one, so its fills write every page at once.
func TestMcfSetup(t *testing.T) {
	const want = "c9e5ba858d66b28020d76a8dbfd686087790efa9297d0f131831e2a8237e92dc"
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := privateMachine(w)
	runtime.ReadMemStats(&after)
	const pageBytes = 4096
	image := uint64(m.Mem.Footprint()) * pageBytes
	if extra := after.TotalAlloc - before.TotalAlloc - image; extra > 10<<20 {
		t.Errorf("Setup allocated %.1f MB beside its %.1f MB of pages, want at most 10",
			float64(extra)/(1<<20), float64(image)/(1<<20))
	}
	h := sha256.New()
	var word [8]byte
	for _, r := range m.Regs {
		h.Write(binary.LittleEndian.AppendUint64(word[:0], r))
	}
	regions := []struct {
		base  uint64
		bytes int
	}{{heapA, 32 << 20}, {heapB, 512 << 10}}
	pages := 0
	buf := make([]byte, 0, pageBytes)
	for _, r := range regions {
		for off := 0; off < r.bytes; off += pageBytes {
			buf = buf[:0]
			for a := off; a < off+pageBytes; a += 8 {
				buf = binary.LittleEndian.AppendUint64(buf, m.Mem.Read(r.base+uint64(a)))
			}
			h.Write(buf)
			pages++
		}
	}
	// Every page Setup wrote lies in the regions, so the digest covers
	// the whole image.
	if got := m.Mem.Footprint(); got != pages {
		t.Fatalf("mcf's image has %d pages, the digested regions %d", got, pages)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("mcf image digest %s, want %s", got, want)
	}
}
