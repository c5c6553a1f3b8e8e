package workload

import (
	"fmt"

	"eole/internal/isa"
	"eole/internal/prog"
)

// SyntheticSpec parameterizes a generated kernel. The generator exists
// for controlled experiments: sweeping one axis (value
// predictability, branch bias, memory footprint, ILP) while holding
// the others fixed — the knobs behind the paper's per-benchmark
// variation in Figures 2, 4, 6 and 7.
type SyntheticSpec struct {
	// Name labels the workload in reports.
	Name string
	// Chains is the number of independent dependence chains (ILP),
	// 1..8.
	Chains int
	// PredictableChains is how many of those chains carry stride
	// (value-predictable) updates; the rest are xorshift-scrambled
	// (unpredictable). 0..Chains.
	PredictableChains int
	// BranchTakenPermil biases the per-iteration data-dependent
	// conditional branch: 0 = never taken, 1000 = always taken, 500 =
	// coin flip (hard), 0/1000 = trivially predictable.
	BranchTakenPermil int
	// LoadsPerIter adds striding loads over the footprint (0..4).
	LoadsPerIter int
	// FootprintWords is the array size the loads walk (cache
	// pressure); rounded up to a power of two, minimum 512.
	FootprintWords int
	// Seed initializes the IR-level RNG.
	Seed uint64
}

// Validate reports whether the spec is buildable.
func (s SyntheticSpec) Validate() error {
	switch {
	case s.Chains < 1 || s.Chains > 8:
		return fmt.Errorf("workload: Chains must be 1..8, got %d", s.Chains)
	case s.PredictableChains < 0 || s.PredictableChains > s.Chains:
		return fmt.Errorf("workload: PredictableChains must be 0..Chains, got %d", s.PredictableChains)
	case s.BranchTakenPermil < 0 || s.BranchTakenPermil > 1000:
		return fmt.Errorf("workload: BranchTakenPermil must be 0..1000, got %d", s.BranchTakenPermil)
	case s.LoadsPerIter < 0 || s.LoadsPerIter > 4:
		return fmt.Errorf("workload: LoadsPerIter must be 0..4, got %d", s.LoadsPerIter)
	}
	return nil
}

// Synthetic builds a workload from the spec. The generated loop has,
// per iteration: one update per chain (stride or scrambled), the
// requested loads, one biased data-dependent conditional branch, and
// loop bookkeeping.
func Synthetic(spec SyntheticSpec) (Workload, error) {
	if err := spec.Validate(); err != nil {
		return Workload{}, err
	}
	foot := 512
	for foot < spec.FootprintWords {
		foot *= 2
	}

	b := prog.NewBuilder(spec.Name)
	var (
		rng  = isa.IntReg(1)
		tmp  = isa.IntReg(2)
		base = isa.IntReg(3)
		idx  = isa.IntReg(4)
		t0   = isa.IntReg(5)
		thr  = isa.IntReg(6)
		acc  = isa.IntReg(7)
	)
	chain := func(i int) isa.Reg { return isa.IntReg(8 + i) }
	ldreg := func(i int) isa.Reg { return isa.IntReg(16 + i) }

	b.Label("top")
	// Chain updates: strides are confidently value-predictable;
	// scrambled chains defeat every predictor family.
	for i := 0; i < spec.Chains; i++ {
		if i < spec.PredictableChains {
			b.Addi(chain(i), chain(i), int64(3+2*i))
		} else {
			b.Xor(chain(i), chain(i), rng)
			b.Shri(tmp, chain(i), 9)
			b.Xor(chain(i), chain(i), tmp)
		}
	}
	// Striding loads over the footprint, one cache line per iteration
	// so the sweep reaches DRAM bandwidth at large footprints.
	if spec.LoadsPerIter > 0 {
		b.Addi(idx, idx, 64)
		b.Andi(idx, idx, int64(foot*8-1)&^7)
		b.Add(t0, idx, base)
		for i := 0; i < spec.LoadsPerIter; i++ {
			b.Ld(ldreg(i), t0, int64(i*16))
			b.Add(acc, acc, ldreg(i))
		}
	}
	// Biased data-dependent branch.
	b.Xorshift(rng, tmp)
	b.Andi(tmp, rng, 1023)
	b.Bltu(tmp, thr, "taken")
	b.Addi(acc, acc, 1)
	b.Jmp("top")
	b.Label("taken")
	b.Addi(acc, acc, 2)
	b.Jmp("top")

	p, err := b.Build()
	if err != nil {
		return Workload{}, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	permil := spec.BranchTakenPermil
	return Workload{
		Name:  spec.Name,
		Short: spec.Name,
		Description: fmt.Sprintf(
			"synthetic: %d chains (%d predictable), branch %d/1000 taken, %d loads over %d words",
			spec.Chains, spec.PredictableChains, permil, spec.LoadsPerIter, foot),
		PaperIPC: 0,
		Program:  p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), seed|1)
			m.SetReg(isa.IntReg(3), heapA)
			// Bltu(tmp, thr): taken when rng%1024 < thr.
			m.SetReg(isa.IntReg(6), uint64(permil)*1024/1000)
			fillXorshift(m, heapA, foot, seed^0xABCD_EF01_2345_6789, 0xFFFF)
		},
	}, nil
}

// MustSynthetic is Synthetic for statically-known specs.
func MustSynthetic(spec SyntheticSpec) Workload {
	w, err := Synthetic(spec)
	if err != nil {
		panic(err)
	}
	return w
}

// PredictabilitySweep returns synthetic workloads whose only varying
// axis is the fraction of value-predictable chains (0/8 .. 8/8).
func PredictabilitySweep() []Workload {
	var out []Workload
	for p := 0; p <= 8; p += 2 {
		out = append(out, MustSynthetic(SyntheticSpec{
			Name:              fmt.Sprintf("vp%d of 8", p),
			Chains:            8,
			PredictableChains: p,
			BranchTakenPermil: 900,
			LoadsPerIter:      1,
			FootprintWords:    4096,
			Seed:              uint64(p + 1),
		}))
	}
	return out
}

// BranchBiasSweep returns synthetic workloads whose only varying axis
// is conditional branch bias (hard 500/1000 to trivial 1000/1000).
func BranchBiasSweep() []Workload {
	var out []Workload
	for _, permil := range []int{500, 700, 900, 990, 1000} {
		out = append(out, MustSynthetic(SyntheticSpec{
			Name:              fmt.Sprintf("bias%d", permil),
			Chains:            4,
			PredictableChains: 2,
			BranchTakenPermil: permil,
			LoadsPerIter:      1,
			FootprintWords:    4096,
			Seed:              uint64(permil),
		}))
	}
	return out
}

// FootprintSweep returns synthetic workloads whose only varying axis
// is the data footprint: L1-resident through DRAM-sized.
func FootprintSweep() []Workload {
	var out []Workload
	for _, words := range []int{2048, 32768, 262144, 4194304} {
		out = append(out, MustSynthetic(SyntheticSpec{
			Name:              fmt.Sprintf("foot%dKB", words*8/1024),
			Chains:            4,
			PredictableChains: 2,
			BranchTakenPermil: 900,
			LoadsPerIter:      2,
			FootprintWords:    words,
			Seed:              uint64(words),
		}))
	}
	return out
}
