package vpred

import (
	"testing"

	"eole/internal/bpred"
)

// A value predictor is consulted and trained once per VP-eligible
// µ-op; Lookup, Train and the history push must stay allocation-free
// for every member of the family (all tables, and the lookup state each
// keeps for its paired Train, are sized at construction).
func TestHybridZeroAlloc(t *testing.T) {
	for _, name := range FamilyNames() {
		t.Run(name, func(t *testing.T) {
			h := bpred.NewHistory()
			p, _ := NewByName(name, h)
			lcg := uint64(98765)
			step := func() {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				pc := 0x400000 + (lcg>>33)%8192*4
				p.Lookup(pc)
				p.Train(pc, lcg>>17)
				h.Push(lcg>>62&1 == 0)
			}
			for i := 0; i < 50_000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Fatalf("Lookup/Train/Push allocated %.2f times per µ-op, want 0", avg)
			}
		})
	}
}
