package workload

import (
	"runtime"
	"sync"
	"testing"

	"eole/internal/prog"
)

// Tests for NewMachine's shared image: a machine forked from it runs
// exactly as one that had Setup to itself, machines do not see each
// other's stores, and the image lives only while a machine uses it.

// privateMachine is NewMachine as it was before images: Setup applied
// directly to a machine with its own empty memory.
func privateMachine(w Workload) *prog.Machine {
	m := prog.NewMachine(w.Program)
	w.Setup(m)
	return m
}

// sameStream steps both machines n times and fails on the first µ-op
// that differs in any field.
func sameStream(t *testing.T, what string, got, want *prog.Machine, n int) {
	t.Helper()
	var g, w prog.MicroOp
	for i := 0; i < n; i++ {
		gok, wok := got.StepInto(&g), want.StepInto(&w)
		if gok != wok {
			t.Fatalf("%s: µ-op %d: halted %v, reference halted %v", what, i, !gok, !wok)
		}
		if !gok {
			return
		}
		if g != w {
			t.Fatalf("%s: µ-op %d differs:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
}

func allAndLong() []Workload { return append(All(), LongAll()...) }

// TestForkedMachineMatchesPrivateSetup: for every workload, the first
// 200K µ-ops of a forked machine equal a private machine's in every
// field — once for the first fork, and again for a fork created after
// the first has run and stored over the image they share — and the
// two end up with the same page footprint.
func TestForkedMachineMatchesPrivateSetup(t *testing.T) {
	const n = 200_000
	for _, w := range allAndLong() {
		t.Run(w.Short, func(t *testing.T) {
			first := w.NewMachine()
			sameStream(t, "first fork", first, privateMachine(w), n)
			// first is still alive, so second forks the same image,
			// now with first's private pages beside it.
			second, ref := w.NewMachine(), privateMachine(w)
			sameStream(t, "fork made after a sibling's stores", second, ref, n)
			if got, want := second.Mem.Footprint(), ref.Mem.Footprint(); got != want {
				t.Errorf("fork sees %d distinct pages after %d µ-ops, a private machine %d", got, n, want)
			}
			runtime.KeepAlive(first)
		})
	}
}

// TestConcurrentForksAreIsolated: goroutines forking and running one
// store-heavy workload at once each see the reference stream. Under
// -race this is also the check that image pages are never written.
func TestConcurrentForksAreIsolated(t *testing.T) {
	const n = 60_000
	for _, name := range []string{"lbm", "long-l2"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]prog.MicroOp, n)
		if got := len((prog.MachineSource{M: privateMachine(w)}).NextBatch(want)); got != n {
			t.Fatalf("%s: reference stream ended after %d µ-ops", name, got)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := w.NewMachine()
				var u prog.MicroOp
				for i := range want {
					if !m.StepInto(&u) || u != want[i] {
						t.Errorf("%s: µ-op %d differs from the reference:\n got %+v\nwant %+v", name, i, u, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func heapAllocAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle clears the weak pointer, the second leaves nothing of it unswept
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestImageLivesOnlyWhileInUse: long-dram's image is built once for any
// number of live machines, and is gone after the collection that follows
// the last of them. The image holds only the pages its machines touched
// (Setup declares the 32 MB stream and builds none of it), so both are
// bounded by those pages: three machines that each touched F pages hold
// the image's B plus at most 3F private copies, where three images would
// add about 2F more. A cache that retains images by itself (measured:
// +30 to +140 MiB peak RSS on the trace-replaying servers) fails here.
func TestImageLivesOnlyWhileInUse(t *testing.T) {
	w, err := ByName("long-dram")
	if err != nil {
		t.Fatal(err)
	}
	const pageBytes = 8 * prog.PageWords
	const slack = 2 << 20
	start := heapAllocAfterGC()

	machines := []*prog.Machine{w.NewMachine(), w.NewMachine(), w.NewMachine()}
	for _, m := range machines {
		m.Run(2_000_000, nil)
	}
	built := uint64(w.NewMachine().Mem.Resident()) * pageBytes // a fresh fork sees the image's pages only
	touched := uint64(machines[0].Mem.Resident()) * pageBytes
	if built < 256*pageBytes {
		t.Fatalf("a fresh fork sees %d KB of built image: too few pages to tell one image from three, or the fork does not share the machines' image", built>>10)
	}
	held := heapAllocAfterGC()
	if held < start+built {
		t.Errorf("heap grew %d KB with three machines alive; the image's built pages alone are %d KB", (held-start)>>10, built>>10)
	}
	if held > start+built+3*touched+slack {
		t.Errorf("heap grew %d KB with three machines alive, over the image's %d KB and three machines' %d KB: the image is not shared",
			(held-start)>>10, built>>10, 3*touched>>10)
	}
	v, ok := images.Load(w.Program)
	if !ok || v.(*imageSlot).img.Value() == nil {
		t.Fatal("no live image registered for long-dram while machines run on it")
	}
	runtime.KeepAlive(machines)

	machines = nil
	end := heapAllocAfterGC()
	if end > start+slack {
		t.Errorf("heap is %d MB above its start after the last machine was dropped: something retains the image", (end-start)>>20)
	}
	if v.(*imageSlot).img.Value() != nil {
		t.Error("image still reachable after the last machine was dropped")
	}

	// And the next machine simply rebuilds it.
	sameStream(t, "machine on a rebuilt image", w.NewMachine(), privateMachine(w), 20_000)
}
