package vpred_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"eole/internal/bpred"
	"eole/internal/golden"
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
func TestPredictorDigests(t *testing.T) {
	got := map[string]map[string]string{}
	for _, wl := range digestWorkloads {
		ops := firstOps(t, wl)
		row := map[string]string{"bpred.Unit": branchDigest(ops)}
		for _, name := range vpred.FamilyNames() {
			row[name] = valueDigest(t, name, ops)
		}
		got[wl] = row
	}

	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/predictor_digests.json", append(b, '\n'))
}

const digestUops = 65_536

var digestWorkloads = []string{"gzip", "mcf", "namd", "hmmer", "long-dram"}

// firstOps returns the first digestUops interpreted µ-ops of wl.
func firstOps(t *testing.T, wl string) []prog.MicroOp {
	t.Helper()
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]prog.MicroOp, 0, digestUops)
	w.NewMachine().Run(digestUops, func(u *prog.MicroOp) bool {
		ops = append(ops, *u)
		return true
	})
	return ops
}

// valueDigest drives the predictor name, on a history of its own, as
// first fetch does: a branch pushes its direction (taken for
// unconditional control flow) into the history, and a VP-eligible µ-op
// is looked up and trained with its value.
func valueDigest(t *testing.T, name string, ops []prog.MicroOp) string {
	hist := bpred.NewHistory()
	p, ok := vpred.NewByName(name, hist)
	if !ok {
		t.Fatalf("NewByName(%q) failed", name)
	}
	h := sha256.New()
	var rec [10]byte
	for i := range ops {
		u := &ops[i]
		if u.IsBranch() {
			hist.Push(u.Taken || !u.Op.Class().IsCondBranch())
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

// TestSharedHistoryMatchesSeparate: the branch unit and a value
// predictor built on the unit's history give, µ-op for µ-op, the
// verdicts each gives on a history of its own that sees the same
// branches. Sharing the register is what the core does; the separate
// histories are what the digests above pin.
func TestSharedHistoryMatchesSeparate(t *testing.T) {
	type verdict struct {
		branch bpred.Result
		value  vpred.Prediction
	}
	run := func(name string, ops []prog.MicroOp, shared bool) []verdict {
		bp := bpred.NewUnit()
		hist := bp.History()
		if !shared {
			hist = bpred.NewHistory()
		}
		p, ok := vpred.NewByName(name, hist)
		if !ok {
			t.Fatalf("NewByName(%q) failed", name)
		}
		out := make([]verdict, len(ops))
		for i := range ops {
			u := &ops[i]
			switch {
			case u.IsBranch():
				var target uint64
				if u.Taken {
					target = u.NextPC
				}
				out[i].branch = bp.OnBranch(u.Op.Class(), u.PC, target, u.PC+4, u.Taken)
				if !shared {
					hist.Push(u.Taken || !u.Op.Class().IsCondBranch())
				}
			case u.VPEligible():
				out[i].value = p.Lookup(u.PC)
				p.Train(u.PC, u.Value)
			}
		}
		return out
	}
	for _, wl := range digestWorkloads {
		ops := firstOps(t, wl)
		for _, name := range []string{"VTAGE", "D-VTAGE", "VTAGE-2DStride"} {
			sep, sh := run(name, ops, false), run(name, ops, true)
			for i := range sep {
				if sep[i] != sh[i] {
					t.Fatalf("%s with TAGE on %s, µ-op %d: separate histories %+v, shared %+v", name, wl, i, sep[i], sh[i])
				}
			}
		}
	}
}
