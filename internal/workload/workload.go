// Package workload provides the 19 synthetic benchmark kernels used to
// stand in for the paper's SPEC CPU2000/2006 subset (Table 3).
//
// SPEC binaries, reference inputs and the authors' Simpoint slices are
// proprietary / unavailable, so each benchmark is replaced by a small
// program written in the µ-op IR of internal/isa whose *behavioural
// character* — branch predictability, value predictability, memory
// footprint and ILP — is tuned to match what is published about that
// benchmark. The experiments in the paper depend on those characters
// (e.g. namd's 60% offload potential, mcf's DRAM-bound IPC of 0.1,
// hmmer's IQ sensitivity), not on the literal binaries. ARCHITECTURE.md
// ("Pipeline walkthrough", declared idealizations) lists the
// substitution with the model's other deviations from the paper.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"weak"

	"eole/internal/prog"
)

// Workload pairs a program with its initial machine state and the
// paper's reference IPC from Table 3.
type Workload struct {
	// Name is the SPEC-style benchmark name, e.g. "429.mcf".
	Name string
	// Short is the bare benchmark name, e.g. "mcf".
	Short string
	// FP reports whether Table 3 lists the benchmark as floating point.
	FP bool
	// PaperIPC is the Baseline_6_64 IPC reported in Table 3.
	PaperIPC float64
	// Description states which behavioural traits the kernel reproduces.
	Description string

	Program *prog.Program
	// Setup initializes registers and memory before execution. It must
	// be deterministic and is the only Setup ever paired with Program:
	// machines of one Program share the state it builds (NewMachine).
	// Bulk data goes through fillWords, fillXorshift or Memory.Fill,
	// whose page generators an image keeps and runs on first touch.
	Setup func(m *prog.Machine)
}

// NewMachine returns a fresh functional machine ready to run the
// workload from the beginning.
//
// Setup does not run per machine. It runs once into a prog.Image, and
// every machine created while that image is in use is a copy-on-write
// view of it: creation costs a register copy, the image grows by each
// filled page some machine first touches, and a machine's own memory
// only by the pages it stores to. The image is held weakly — the
// machines running on it are its only owners — so it is dropped by the
// first garbage collection after the last of them, and the next
// NewMachine rebuilds it. Nothing here keeps a workload's memory alive
// on its own account (ARCHITECTURE.md, "Workload images", says why no
// cache retains one).
func (w Workload) NewMachine() *prog.Machine {
	if w.Setup == nil {
		return prog.NewMachine(w.Program)
	}
	v, _ := images.LoadOrStore(w.Program, new(imageSlot))
	slot := v.(*imageSlot)
	// Held across Setup so that machines created concurrently wait for
	// one image instead of each building their own; other workloads
	// have their own slot and do not wait.
	slot.mu.Lock()
	defer slot.mu.Unlock()
	img := slot.img.Value()
	if img == nil {
		img = prog.NewImage(w.Program, w.Setup)
		slot.img = weak.Make(img)
	}
	return img.NewMachine()
}

// images maps a *prog.Program to its imageSlot. A slot is a few words
// and stays for the life of the process; what it points to does not.
var images sync.Map

type imageSlot struct {
	mu  sync.Mutex
	img weak.Pointer[prog.Image]
}

var registry []Workload

func register(w Workload) {
	registry = append(registry, w)
}

// All returns the 19 workloads in Table 3 order (CPU2000 before
// CPU2006, numeric order within each suite).
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the workload names in Table 3 order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Short
	}
	return names
}

// ByName looks a workload up by full or short name. It resolves both
// the Table 3 suite and the long-* phased family (see long.go).
func ByName(name string) (Workload, error) {
	if w, ok := byName()[name]; ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// byName indexes every workload by full and short name, built on first
// use (after every init has registered). A name keeps its first match:
// registration order, the Table 3 suite before the long-* family.
var byName = sync.OnceValue(func() map[string]Workload {
	m := make(map[string]Workload)
	for _, w := range append(slices.Clip(registry), longRegistry...) {
		for _, name := range []string{w.Name, w.Short} {
			if _, ok := m[name]; !ok {
				m[name] = w
			}
		}
	}
	return m
})

// Heap layout constants shared by kernels. Arrays are placed at
// distinct, page-aligned bases so cache behaviour is stable.
const (
	heapA = 0x1000_0000
	heapB = 0x2000_0000
	heapC = 0x3000_0000
	heapD = 0x4000_0000
)

// fillWords sets n sequential 8-byte words starting at base to g(i).
// g must be a pure function of i: the whole pages are built from it
// only when a machine first touches one (prog.Memory.Fill).
func fillWords(m *prog.Machine, base uint64, n int, g func(i int) uint64) {
	m.Mem.Fill(base, n, func(first int, words []uint64) {
		for j := range words {
			words[j] = g(first + j)
		}
	})
}

// streamStride is how many words of a generated fill share one saved
// generator state. A page is built by stepping the generator from the
// state saved at or before its first word, so the stride trades the
// states Setup keeps (one word per stride) against the steps a build
// repeats (fewer than a stride); it is this package's choice, not the
// page's.
const streamStride = 512

// xorshiftStates runs the xorshift64 stream that follows s for n steps
// and returns the state before every per-th of them, with the final
// state.
func xorshiftStates(s uint64, n, per int) (states []uint64, end uint64) {
	states = make([]uint64, 0, (n+per-1)/per)
	for i := 0; i < n; i++ {
		if i%per == 0 {
			states = append(states, s)
		}
		s = xorshift64(s)
	}
	return states, s
}

// xorshiftAt returns the state before step i of the stream whose
// states xorshiftStates(s, n, per) returned.
func xorshiftAt(states []uint64, i, per int) uint64 {
	x := states[i/per]
	for range i % per {
		x = xorshift64(x)
	}
	return x
}

// fillXorshift sets n sequential words starting at base to the
// xorshift64 stream that follows s, each masked by mask — word i is
// (the (i+1)-th xorshift64 of s) & mask — and returns the stream's
// final state, from which a later fill may continue. It runs the
// stream once now, keeping a state per streamStride words, so a page
// is built from the nearest one when a machine first touches it.
func fillXorshift(m *prog.Machine, base uint64, n int, s, mask uint64) uint64 {
	states, end := xorshiftStates(s, n, streamStride)
	m.Mem.Fill(base, n, func(first int, words []uint64) {
		x := xorshiftAt(states, first, streamStride)
		for j := range words {
			x = xorshift64(x)
			words[j] = x & mask
		}
	})
	return end
}

// f64bitsOf converts a float64 to its register bit pattern, for
// initializing FP data in memory.
func f64bitsOf(f float64) uint64 { return math.Float64bits(f) }

// xorshift64 is the reference implementation of the IR-level Xorshift
// helper, used by Setup functions that need to precompute the same
// stream the program will generate.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
