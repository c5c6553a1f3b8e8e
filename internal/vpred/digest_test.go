package vpred_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"eole/internal/bpred"
	"eole/internal/prog"
	"eole/internal/vpred"
	"eole/internal/workload"
)

// TestPredictorDigests pins the exact behaviour of every value
// predictor of the family and of the branch unit: each is driven over
// the first digestUops interpreted µ-ops of a few workloads in fetch
// order, the way the core's first-fetch prediction drives it, and every
// outcome is hashed. Any change to a predictor's tables, hashes or
// folded histories that moves a single verdict moves its digest.
//
// To regenerate after an intentional model change:
//
//	EOLE_UPDATE_GOLDEN=1 go test -run TestPredictorDigests ./internal/vpred
func TestPredictorDigests(t *testing.T) {
	const digestUops = 65_536
	path := filepath.Join("testdata", "predictor_digests.json")

	got := map[string]map[string]string{}
	for _, wl := range []string{"gzip", "mcf", "namd", "hmmer", "long-dram"} {
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]prog.MicroOp, 0, digestUops)
		w.NewMachine().Run(digestUops, func(u *prog.MicroOp) bool {
			ops = append(ops, *u)
			return true
		})
		row := map[string]string{"bpred.Unit": branchDigest(ops)}
		for _, name := range vpred.FamilyNames() {
			p, ok := vpred.NewByName(name)
			if !ok {
				t.Fatalf("NewByName(%q) failed", name)
			}
			row[name] = valueDigest(p, ops)
		}
		got[wl] = row
	}

	if os.Getenv("EOLE_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with EOLE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for wl, row := range got {
		for name, d := range row {
			if want[wl][name] != d {
				t.Errorf("%s on %s: digest %s, golden %s", name, wl, d, want[wl][name])
			}
		}
	}
	for wl, row := range want {
		for name := range row {
			if _, ok := got[wl][name]; !ok {
				t.Errorf("golden names %s on %s, which no longer runs", name, wl)
			}
		}
	}
}

// valueDigest drives p as first fetch does: a branch feeds its direction
// (taken for unconditional control flow) into the history, and a
// VP-eligible µ-op is looked up and trained with its value.
func valueDigest(p vpred.Predictor, ops []prog.MicroOp) string {
	h := sha256.New()
	var rec [10]byte
	for i := range ops {
		u := &ops[i]
		if u.IsBranch() {
			p.PushBranch(u.Taken || !u.Op.Class().IsCondBranch())
			continue
		}
		if !u.VPEligible() {
			continue
		}
		pr := p.Lookup(u.PC)
		p.Train(u.PC, u.Value)
		binary.LittleEndian.PutUint64(rec[:8], pr.Value)
		rec[8], rec[9] = b2u(pr.Use), b2u(pr.Hit)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// branchDigest drives a fresh branch unit over every branch of ops and
// hashes each result, then the counts of all of them.
func branchDigest(ops []prog.MicroOp) string {
	bp := bpred.NewUnit()
	var cnt bpred.Counts
	h := sha256.New()
	for i := range ops {
		u := &ops[i]
		if !u.IsBranch() {
			continue
		}
		var target uint64
		if u.Taken {
			target = u.NextPC
		}
		r := bp.OnBranch(u.Op.Class(), u.PC, target, u.PC+4, u.Taken)
		cnt.Account(u.Op.Class(), r.Mispredicted, r.PredTaken != u.Taken, r.VeryHighConf)
		h.Write([]byte{b2u(r.PredTaken), b2u(r.Mispredicted), b2u(r.VeryHighConf), byte(r.Conf)})
	}
	for _, n := range []uint64{cnt.CondBranches, cnt.CondMispredict, cnt.HighConfCond, cnt.HighConfWrong,
		cnt.IndirectSeen, cnt.IndirectWrong, cnt.ReturnsSeen, cnt.ReturnsWrong} {
		h.Write(binary.LittleEndian.AppendUint64(nil, n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
