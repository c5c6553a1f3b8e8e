package eole_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"eole"
	"eole/internal/golden"
)

// Golden-report regression test: the full JSON eole.Report for the
// baseline and the headline EOLE machine on one small workload is
// pinned as testdata. Any drift in the performance model — not just
// IPC, but squash counts, offload fractions, cache miss rates, the
// raw counter set — fails with a field-by-field diff instead of
// slipping silently into every downstream figure. scripts/repin.sh
// re-pins it after an intended model change.

const (
	goldenWorkload = "gzip"
	goldenWarmup   = 5_000
	goldenMeasure  = 20_000
)

func TestGoldenReports(t *testing.T) {
	for name, cfgName := range map[string]string{
		"base": "Baseline_6_64",
		"eole": "EOLE_4_64",
	} {
		t.Run(name, func(t *testing.T) {
			cfg, err := eole.NamedConfig(cfgName)
			if err != nil {
				t.Fatal(err)
			}
			w, err := eole.WorkloadByName(goldenWorkload)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eole.Simulate(cfg, w, goldenWarmup, goldenMeasure)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden_report_"+name+".json"), append(got, '\n'))
		})
	}
}

// Cross-config differential equivalence suite: every named
// configuration × every built-in workload, pinned as one golden file
// per config holding the full JSON eole.Report of each workload. The
// matrix is the bit-exactness wall in front of performance work on the
// simulator core: any data-layout refactor, batching change or
// allocation fix in internal/{core,prog,trace,regfile,bpred,vpred}
// must leave all of these reports byte-identical, or this test names
// the config, workload and field that moved.
//
// The region is shorter than TestGoldenReports' (the matrix is 11×19
// simulations) but long enough to exercise squashes, both EOLE blocks,
// banked-PRF stalls and the memory hierarchy on every workload.
const (
	matrixWarmup  = 2_000
	matrixMeasure = 5_000
)

func TestGoldenMatrix(t *testing.T) {
	for _, cfgName := range eole.ConfigNames() {
		t.Run(cfgName, func(t *testing.T) {
			cfg, err := eole.NamedConfig(cfgName)
			if err != nil {
				t.Fatal(err)
			}
			// One JSON object per config: workload short name -> Report,
			// marshalled with sorted keys so regeneration is stable.
			reports := map[string]*eole.Report{}
			for _, w := range eole.Workloads() {
				r, err := eole.Simulate(cfg, w, matrixWarmup, matrixMeasure)
				if err != nil {
					t.Fatalf("%s on %s: %v", cfgName, w.Short, err)
				}
				reports[w.Short] = r
			}
			got, err := json.MarshalIndent(reports, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden_matrix_"+cfgName+".json"), append(got, '\n'))
		})
	}
}
