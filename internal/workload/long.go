package workload

import (
	"fmt"

	"eole/internal/isa"
	"eole/internal/prog"
)

// The long-* family: phased kernels whose behaviour changes every few
// hundred thousand µ-ops, with recommended stream lengths of 10-20M
// µ-ops — 50-100× the default measured region of the Table 3 kernels.
// A detailed simulation of a full stream takes minutes per config;
// these workloads exist to be run sampled (eole.WithSampling), where
// functional warming fast-forwards between measurement windows and a
// short detailed budget still observes every phase. A short detailed
// run, by contrast, sees only the first phase and mis-ranks configs.
//
// Each workload cycles through three phases of LongPhaseIters
// iterations each:
//
//	compute — independent stride chains, predictable branch: high
//	          ILP and VP coverage, front-end bound;
//	scramble— xorshift-fed chains and a near-coin-flip data-dependent
//	          branch: mispredict bound;
//	stream  — strided loads over a large array: memory bound (the
//	          footprint distinguishes the three family members).
//
// The members differ only in memory pressure, so sweeps over them
// isolate the memory system's contribution to sampled-estimate
// accuracy and speed:
//
//	long-l1   — stream phase fits in the 32KB L1D;
//	long-l2   — stream phase walks 1MB (L2 resident, defeats L1);
//	long-dram — stream phase walks 32MB (defeats the 2MB L2).

// LongPhaseIters is the per-phase iteration count. One iteration of
// the phased loop retires ~13-16 µ-ops, so a phase is ~300K µ-ops
// and a full three-phase cycle ~1M µ-ops.
const LongPhaseIters = 22_000

// LongRecommendedUops is the stream length that covers every phase of
// a long-* workload several times over — the intended sampled-run
// extent (about 60× the 200K-µ-op default measured region).
const LongRecommendedUops = 12_000_000

var longRegistry []Workload

func registerLong(w Workload) { longRegistry = append(longRegistry, w) }

// LongAll returns the long-* phased workloads (not part of All: the
// Table 3 suite and the figure sweeps stay at the paper's 19
// benchmarks).
func LongAll() []Workload {
	out := make([]Workload, len(longRegistry))
	copy(out, longRegistry)
	return out
}

// LongNames returns the long-* workload names.
func LongNames() []string {
	names := make([]string, len(longRegistry))
	for i, w := range longRegistry {
		names[i] = w.Short
	}
	return names
}

func init() {
	for _, m := range []struct {
		name  string
		words int // stream-phase footprint in 8-byte words
		desc  string
	}{
		{"long-l1", 2048, "phased long stream, 16KB stream phase (L1-resident)"},
		{"long-l2", 131072, "phased long stream, 1MB stream phase (L2-resident)"},
		{"long-dram", 4194304, "phased long stream, 32MB stream phase (DRAM-bound)"},
	} {
		registerLong(longKernel(m.name, m.words, m.desc))
	}
}

// longKernel builds one phased workload; words sizes the stream
// phase's footprint (rounded up to a power of two by the address
// mask, so it must arrive as one).
func longKernel(name string, words int, desc string) Workload {
	b := prog.NewBuilder(name)
	var (
		rng   = isa.IntReg(1)
		tmp   = isa.IntReg(2)
		base  = isa.IntReg(3)
		idx   = isa.IntReg(4)
		t0    = isa.IntReg(5)
		acc   = isa.IntReg(6)
		iter  = isa.IntReg(7)
		limit = isa.IntReg(8)
		phase = isa.IntReg(9)
		one   = isa.IntReg(10)
		three = isa.IntReg(11)
		ld0   = isa.IntReg(16)
		ld1   = isa.IntReg(17)
	)
	chain := func(i int) isa.Reg { return isa.IntReg(20 + i) }

	b.Label("top")
	b.Beqz(phase, "compute")
	b.Beq(phase, one, "scramble")

	// Phase 2 — stream: two strided loads per iteration over the
	// footprint, one cache line apart, plus a dependent accumulate.
	b.Addi(idx, idx, 64)
	b.Andi(idx, idx, int64(words*8-1)&^7)
	b.Add(t0, idx, base)
	b.Ld(ld0, t0, 0)
	b.Ld(ld1, t0, 8)
	b.Add(acc, acc, ld0)
	b.Add(acc, acc, ld1)
	b.St(acc, t0, 16)
	b.Jmp("bookkeep")

	// Phase 0 — compute: four independent stride chains and a pair of
	// cross-chain combines; everything single-cycle and predictable.
	b.Label("compute")
	for i := 0; i < 4; i++ {
		b.Addi(chain(i), chain(i), int64(3+2*i))
	}
	b.Add(t0, chain(0), chain(1))
	b.Add(acc, acc, t0)
	b.Add(t0, chain(2), chain(3))
	b.Add(acc, acc, t0)
	b.Jmp("bookkeep")

	// Phase 1 — scramble: xorshift-fed chains and a near-coin-flip
	// data-dependent branch that defeats TAGE.
	b.Label("scramble")
	b.Xorshift(rng, tmp)
	b.Xor(chain(0), chain(0), rng)
	b.Shri(tmp, chain(0), 7)
	b.Xor(chain(1), chain(1), tmp)
	b.Andi(tmp, rng, 1023)
	b.Movi(t0, 512)
	b.Bltu(tmp, t0, "scramble_taken")
	b.Addi(acc, acc, 1)
	b.Jmp("bookkeep")
	b.Label("scramble_taken")
	b.Addi(acc, acc, 2)

	// Phase bookkeeping: advance the iteration counter; at the phase
	// boundary, rotate phase 0 → 1 → 2 → 0.
	b.Label("bookkeep")
	b.Addi(iter, iter, 1)
	b.Blt(iter, limit, "top")
	b.Movi(iter, 0)
	b.Addi(phase, phase, 1)
	b.Blt(phase, three, "top_far")
	b.Movi(phase, 0)
	b.Label("top_far")
	b.Jmp("top")

	p := b.MustBuild()
	seed := uint64(0x5851F42D4C957F2D)
	return Workload{
		Name:        name,
		Short:       name,
		Description: desc + fmt.Sprintf("; 3 phases x %d iterations (~1M µ-op cycle), intended for sampled runs of ~%dM µ-ops", LongPhaseIters, LongRecommendedUops/1_000_000),
		PaperIPC:    0,
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), seed|1)
			m.SetReg(isa.IntReg(3), heapB)
			m.SetReg(isa.IntReg(8), LongPhaseIters)
			m.SetReg(isa.IntReg(10), 1)
			m.SetReg(isa.IntReg(11), 3)
			fillXorshift(m, heapB, words, seed^0x0123_4567_89AB_CDEF, 0xFFFF)
		},
	}
}
