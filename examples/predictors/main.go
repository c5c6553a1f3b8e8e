// Predictors explores the value-predictor design space of the paper's
// related-work section on real workload value streams: coverage versus
// accuracy for each predictor family, and the arbitration behaviour of
// the VTAGE-2DStride hybrid (Table 2).
package main

import (
	"fmt"
	"log"

	"eole"
	"eole/internal/bpred"
	"eole/internal/prog"
	"eole/internal/vpred"
)

var benchmarks = []string{"art", "applu", "vortex", "gzip", "hmmer", "mcf"}

func measure(predName, wlName string, n uint64) *vpred.Meter {
	w, err := eole.WorkloadByName(wlName)
	if err != nil {
		log.Fatal(err)
	}
	h := bpred.NewHistory()
	p, ok := vpred.NewByName(predName, h)
	if !ok {
		log.Fatalf("unknown predictor %s", predName)
	}
	meter := &vpred.Meter{P: p}
	m := w.NewMachine()
	m.Run(n, func(u *prog.MicroOp) bool {
		if u.IsBranch() {
			h.Push(!u.Op.Class().IsCondBranch() || u.Taken)
			return true
		}
		if u.VPEligible() {
			meter.Observe(u.PC, u.Value)
		}
		return true
	})
	return meter
}

func main() {
	const n = 150_000
	fmt.Printf("coverage (fraction of eligible µ-ops with a confident prediction)\n")
	fmt.Printf("%-16s", "predictor")
	for _, wl := range benchmarks {
		fmt.Printf("%9s", wl)
	}
	fmt.Printf("%10s\n", "KB")
	for _, name := range vpred.FamilyNames() {
		fmt.Printf("%-16s", name)
		var kb float64
		for _, wl := range benchmarks {
			m := measure(name, wl, n)
			fmt.Printf("%9.3f", m.Coverage())
			kb = float64(m.P.StorageBits()) / 8192
		}
		fmt.Printf("%10.1f\n", kb)
	}

	fmt.Printf("\nmispredictions per 1000 eligible µ-ops (drives squash rate)\n")
	fmt.Printf("%-16s", "predictor")
	for _, wl := range benchmarks {
		fmt.Printf("%9s", wl)
	}
	fmt.Println()
	for _, name := range vpred.FamilyNames() {
		fmt.Printf("%-16s", name)
		for _, wl := range benchmarks {
			m := measure(name, wl, n)
			fmt.Printf("%9.3f", m.MispredictPerKilo())
		}
		fmt.Println()
	}

	fmt.Println("\nWith Forward Probabilistic Counters every family reaches very high")
	fmt.Println("accuracy at some coverage cost — the property (Perais & Seznec,")
	fmt.Println("HPCA 2014) that allows validation at commit and squash recovery,")
	fmt.Println("which in turn is what makes EOLE possible.")
}
