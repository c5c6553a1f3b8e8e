package prog

import (
	"sync"
	"sync/atomic"
	"testing"

	"eole/internal/isa"
)

// Tests for Image and the copy-on-write Memory under it: a machine
// forked from an image sees exactly the state Setup built, whatever it
// stores stays its own, and Footprint keeps counting distinct pages.

const imageBase = 0x1000_0000

// imageWords is what the test image holds at imageBase: three pages,
// word i = i+1.
const imageWords = 3 * PageWords

// rmwLoop returns a program that walks n words from the address in
// r1, adding r2 to each in place (load, add, store), then halts.
func rmwLoop(n int64) *Program {
	b := NewBuilder("rmw")
	ptr, inc, i, lim, v := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4), isa.IntReg(5)
	b.Movi(i, 0)
	b.Movi(lim, n)
	b.Label("loop")
	b.Ld(v, ptr, 0)
	b.Add(v, v, inc)
	b.St(v, ptr, 0)
	b.Addi(ptr, ptr, 8)
	b.Addi(i, i, 1)
	b.Blt(i, lim, "loop")
	b.Halt()
	return b.MustBuild()
}

func testImage(p *Program) *Image {
	return NewImage(p, func(m *Machine) {
		m.SetReg(isa.IntReg(1), imageBase)
		m.SetReg(isa.IntReg(2), 1000)
		for i := 0; i < imageWords; i++ {
			m.Mem.Write(imageBase+uint64(i)*8, uint64(i)+1)
		}
	})
}

func checkWords(t *testing.T, what string, mem *Memory, add uint64) {
	t.Helper()
	for i := 0; i < imageWords; i++ {
		if got, want := mem.Read(imageBase+uint64(i)*8), uint64(i)+1+add; got != want {
			t.Fatalf("%s: word %d = %d, want %d", what, i, got, want)
		}
	}
}

func TestImageMachineStartsFromSetupState(t *testing.T) {
	img := testImage(rmwLoop(imageWords))
	m := img.NewMachine()
	if m.Regs[isa.IntReg(1)] != imageBase || m.Regs[isa.IntReg(2)] != 1000 {
		t.Fatalf("registers not taken from the image: r1=%#x r2=%d", m.Regs[isa.IntReg(1)], m.Regs[isa.IntReg(2)])
	}
	if m.Seq() != 0 || m.Halted() {
		t.Fatal("forked machine is not at the program entry")
	}
	checkWords(t, "fresh fork", m.Mem, 0)
	if got := m.Mem.Read(imageBase - 8); got != 0 {
		t.Fatalf("read below the image = %d, want 0", got)
	}
}

// A machine that rewrites every word of the image must leave the image
// as Setup built it: for a sibling created before, one created after,
// and for a second read of the writer's own view.
func TestImageStoresStayPrivate(t *testing.T) {
	img := testImage(rmwLoop(imageWords))
	before := img.NewMachine()
	writer := img.NewMachine()
	writer.Run(1<<30, nil)
	if !writer.Halted() {
		t.Fatal("writer did not finish")
	}
	after := img.NewMachine()

	checkWords(t, "writer", writer.Mem, 1000)
	checkWords(t, "sibling created before the stores", before.Mem, 0)
	checkWords(t, "machine created after the stores", after.Mem, 0)

	// The siblings then run the same program and get the same result
	// from the same starting point.
	before.Run(1<<30, nil)
	checkWords(t, "sibling after its own run", before.Mem, 1000)
	checkWords(t, "untouched machine, after both runs", after.Mem, 0)
}

// The one-entry page cache must not hand an image page to Write: a
// load caches the shared page, the store right behind it hits the same
// key.
func TestImageWriteAfterCachedRead(t *testing.T) {
	img := testImage(rmwLoop(1))
	a, b := img.NewMachine(), img.NewMachine()
	addr := uint64(imageBase + 5*8)
	if got := a.Mem.Read(addr); got != 6 {
		t.Fatalf("read = %d, want 6", got)
	}
	a.Mem.Write(addr, 77) // same page as the read just cached
	if got := a.Mem.Read(addr); got != 77 {
		t.Fatalf("own read after write = %d, want 77", got)
	}
	if got := a.Mem.Read(addr + 8); got != 7 {
		t.Fatalf("neighbour word lost in the page copy: %d, want 7", got)
	}
	if got := b.Mem.Read(addr); got != 6 {
		t.Fatalf("sibling sees the store: %d, want 6", got)
	}
	if got := img.NewMachine().Mem.Read(addr); got != 6 {
		t.Fatalf("image sees the store: %d, want 6", got)
	}
}

// Footprint counts the distinct pages visible — image pages plus
// private pages that shadow none — so a store to an image page does
// not count twice and a store beyond the image counts once.
func TestImageFootprint(t *testing.T) {
	img := testImage(rmwLoop(1))
	m := img.NewMachine()
	const imagePages = imageWords / PageWords
	if got := m.Mem.Footprint(); got != imagePages {
		t.Fatalf("fresh fork footprint = %d, want %d", got, imagePages)
	}
	m.Mem.Write(imageBase, 9) // shadows an image page
	m.Mem.Write(imageBase+8, 9)
	if got := m.Mem.Footprint(); got != imagePages {
		t.Fatalf("footprint after shadowing a page = %d, want %d", got, imagePages)
	}
	m.Mem.Write(0x7000_0000, 1) // a page the image does not have
	if got := m.Mem.Footprint(); got != imagePages+1 {
		t.Fatalf("footprint after a new page = %d, want %d", got, imagePages+1)
	}
	if got := img.NewMachine().Mem.Footprint(); got != imagePages {
		t.Fatalf("sibling footprint = %d, want %d", got, imagePages)
	}
}

// Many machines storing over one image at once: run under -race, this
// is the check that no goroutine ever writes a page another can read.
func TestImageConcurrentMachines(t *testing.T) {
	img := testImage(rmwLoop(imageWords))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := img.NewMachine()
			m.Run(1<<30, nil)
			for i := 0; i < imageWords; i++ {
				if got, want := m.Mem.Read(imageBase+uint64(i)*8), uint64(i)+1001; got != want {
					t.Errorf("word %d = %d, want %d", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkWords(t, "image after concurrent writers", img.NewMachine().Mem, 0)
}

// fillTest is a Fill generator, word i = i*3+1, that counts the words
// it has built.
func fillTest(built *atomic.Int64) func(int, []uint64) {
	return func(first int, words []uint64) {
		built.Add(int64(len(words)))
		for j := range words {
			words[j] = uint64(first+j)*3 + 1
		}
	}
}

// fillWords is n words over 5 pages from fillAddr: fillHead on the
// first, fillTail on the last, 3 whole pages between. The partial
// pages hold fillHead+fillTail words, less than one page.
const (
	fillHead, fillTail = 10, PageWords - 20
	fillWords          = fillHead + 3*PageWords + fillTail
	fillAddr           = imageBase + (PageWords-fillHead)*8
)

// checkFill checks the fill's words in mem, but for word i = written.
func checkFill(t *testing.T, what string, mem *Memory, written int) {
	t.Helper()
	for i := 0; i < fillWords; i++ {
		want := uint64(i)*3 + 1
		if i == written {
			want = 31
		}
		if got := mem.Read(fillAddr + uint64(i)*8); got != want {
			t.Fatalf("%s: word %d = %d, want %d", what, i, got, want)
		}
	}
	if got := mem.Read(fillAddr - 8); got != 0 {
		t.Fatalf("%s: word before the fill = %d, want 0", what, got)
	}
}

// Outside an image's Setup, Fill writes every word now, over what was
// there.
func TestFillWritesNowOutsideAnImage(t *testing.T) {
	var built atomic.Int64
	mem := NewMemory()
	mem.Write(imageBase+PageWords*8, 5)
	mem.Fill(fillAddr, fillWords, fillTest(&built))
	if built.Load() != fillWords || mem.Footprint() != 5 || mem.Resident() != 5 {
		t.Fatalf("Fill built %d words, footprint %d, resident %d; want %d, 5, 5",
			built.Load(), mem.Footprint(), mem.Resident(), fillWords)
	}
	checkFill(t, "plain memory", mem, -1)
}

// In an image's Setup, Fill writes the partial pages at either end now
// and builds each whole page once, on a machine's first read or write
// of it: Footprint counts it from the start, Resident from then.
func TestFillBuildsPagesOnFirstTouch(t *testing.T) {
	var built atomic.Int64
	img := NewImage(rmwLoop(1), func(m *Machine) {
		m.Mem.Write(imageBase+PageWords*8, 5) // replaced by the fill's first whole page
		m.Mem.Fill(fillAddr, fillWords, fillTest(&built))
		m.Mem.Write(fillAddr+20*8, 9) // builds that page and writes it in place
		m.Mem.Write(fillAddr+20*8, 31)
	})
	mem := img.NewMachine().Mem
	const partial = fillHead + fillTail
	if got := built.Load(); got != partial+PageWords {
		t.Fatalf("Setup built %d words, want the %d of the partial pages and the one page it wrote", got, partial)
	}
	if mem.Footprint() != 5 || mem.Resident() != 3 {
		t.Fatalf("fresh fork: footprint %d, resident %d; want 5 and 3", mem.Footprint(), mem.Resident())
	}
	if got := mem.Read(fillAddr + 20*8 + PageWords*8); got != (20+PageWords)*3+1 {
		t.Fatalf("word %d = %d", 20+PageWords, got)
	}
	if mem.Resident() != 4 || built.Load() != partial+2*PageWords {
		t.Fatalf("after one read: resident %d, %d words built; want 4 and %d", mem.Resident(), built.Load(), partial+2*PageWords)
	}
	checkFill(t, "fork", mem, 20)
	if mem.Footprint() != 5 || mem.Resident() != 5 || built.Load() != partial+3*PageWords {
		t.Fatalf("after reading all: footprint %d, resident %d, %d words built; want 5, 5 and %d",
			mem.Footprint(), mem.Resident(), built.Load(), partial+3*PageWords)
	}
}

// An image's declared page is built once for all its machines; a store
// copies it; and Resident counts it in every machine once built.
func TestFillImageBuildsOncePerImage(t *testing.T) {
	var built atomic.Int64
	img := NewImage(rmwLoop(1), func(m *Machine) {
		m.Mem.Fill(imageBase, 4*PageWords, fillTest(&built))
	})
	a, b := img.NewMachine(), img.NewMachine()
	if a.Mem.Footprint() != 4 || a.Mem.Resident() != 0 || built.Load() != 0 {
		t.Fatalf("fresh image: footprint %d, resident %d, %d words built; want 4, 0, 0", a.Mem.Footprint(), a.Mem.Resident(), built.Load())
	}
	if got := a.Mem.Read(imageBase + 8); got != 4 {
		t.Fatalf("word 1 = %d, want 4", got)
	}
	b.Mem.Write(imageBase, 77) // same page: copied from the built one
	if got := b.Mem.Read(imageBase + 8); got != 4 {
		t.Fatalf("neighbour lost in the page copy: %d, want 4", got)
	}
	if got := a.Mem.Read(imageBase); got != 1 {
		t.Fatalf("sibling sees the store: %d, want 1", got)
	}
	b.Mem.Read(imageBase + PageWords*8)
	if built.Load() != 2*PageWords {
		t.Fatalf("%d words built for two pages", built.Load())
	}
	if a.Mem.Resident() != 2 || b.Mem.Resident() != 2 || img.NewMachine().Mem.Resident() != 2 {
		t.Fatalf("resident %d, %d after two pages were built, want 2 each", a.Mem.Resident(), b.Mem.Resident())
	}
}

func TestFillOverAFillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a Fill over an earlier Fill's pages did not panic")
		}
	}()
	var built atomic.Int64
	NewImage(rmwLoop(1), func(m *Machine) {
		m.Mem.Fill(imageBase, 2*PageWords, fillTest(&built))
		m.Mem.Fill(imageBase+2*PageWords*8, 10, fillTest(&built)) // partial: written, fine
		m.Mem.Fill(imageBase+PageWords*8, 2*PageWords, fillTest(&built))
	})
}

// Machines racing to a page nobody has built all read the same words:
// under -race, the check on the build-once slot.
func TestFillConcurrentFirstTouch(t *testing.T) {
	var built atomic.Int64
	img := NewImage(rmwLoop(1), func(m *Machine) {
		m.Mem.Fill(imageBase, 64*PageWords, fillTest(&built))
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := img.NewMachine()
			for i := 0; i < 64*PageWords; i += 7 {
				if got, want := m.Mem.Read(imageBase+uint64(i)*8), uint64(i)*3+1; got != want {
					t.Errorf("word %d = %d, want %d", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := img.NewMachine().Mem.Resident(); got != 64 || built.Load() < 64*PageWords {
		t.Fatalf("%d pages resident, %d words built after the race; want 64 and at least %d", got, built.Load(), 64*PageWords)
	}
}
