package prog

import (
	"sync"
	"testing"

	"eole/internal/isa"
)

// Tests for Image and the copy-on-write Memory under it: a machine
// forked from an image sees exactly the state Setup built, whatever it
// stores stays its own, and Footprint keeps counting distinct pages.

const imageBase = 0x1000_0000

// imageWords is what the test image holds at imageBase: three pages,
// word i = i+1.
const imageWords = 3 * pageWords

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
	const imagePages = imageWords / pageWords
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
