package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"

	"eole/internal/prog"
)

// The image oracle: every workload's initial state, read through a
// machine forked from a fresh image, is pinned to a SHA-256 of its
// registers and of every word of every region its Setup writes or
// declares. The digests were taken from images built by writing every
// word before the first µ-op; an image that builds pages on first touch
// must read the same, word for word.

type region struct {
	base  uint64
	bytes int
}

// oracleSpecs are two synthetic kernels whose footprints span several
// pages (32 and 8).
var oracleSpecs = []SyntheticSpec{
	{Name: "syn-a", Chains: 4, PredictableChains: 2, BranchTakenPermil: 300, LoadsPerIter: 2, FootprintWords: 1 << 14, Seed: 7},
	{Name: "syn-b", Chains: 2, BranchTakenPermil: 500, LoadsPerIter: 1, FootprintWords: 3000},
}

var oracle = map[string]struct {
	regions []region
	digest  string
}{
	"gzip":      {[]region{{heapA, 64 << 10}}, "5c745bdbf6359e59574c91765b0e7c2e6e576c958cf10530fcdbd08d0b68857d"},
	"wupwise":   {[]region{{heapA, 256 << 10}, {heapB, 256 << 10}, {heapC, 256 << 10}}, "dfa42e03172643bfe4a702d85bf86bb66e2d65837f6f6a8e782b34e791831251"},
	"applu":     {[]region{{heapA - 4096, 4096 + 1<<20}}, "04370bd167099617c1fb6026756ccfff66a827e7d733944f6ab53f045e4361a6"},
	"vpr":       {[]region{{heapA, 512 << 10}}, "c903f90ecb63bd452fddcd5e40b0dae7ba342a7a9527af36fa508cc774ebd1d4"},
	"art":       {[]region{{heapA, 64 << 10}, {heapB, 64 << 10}}, "90959ee79b0009423b4a4620c8057b73a6b085ef17c23834e2f1015c4f847c77"},
	"crafty":    {[]region{{heapA, 4096}}, "9e22994d5e0aa4910a8059e334ecb5d38221264eccc86d6815f24d7db9556076"},
	"parser":    {[]region{{heapA, 1 << 20}}, "d688a0d2cdfbebba9a93a78806cf3ed04b82777b19f7247b430e23a66fcaf5be"},
	"vortex":    {[]region{{heapA, 4096}}, "88ae919a3b5592fcb0027ef37e6d4edd904bc5cb69160d6af80e9820e24ba906"},
	"bzip2":     {[]region{{heapA, 256 << 10}}, "257035df129e5fd47066f26d17ea9a818c0fcfd58d458a1889cfac0169e2f650"},
	"gcc":       {[]region{{heapA, 4096}, {heapB, 512 << 10}}, "cc2604b768f4fb5741f7b401c96316e77149cd2b53c2e0444098fcbd385f503f"},
	"gamess":    {[]region{{heapA, 4096}}, "a5b9eb153b409583e830998138693b49a14dedde6745f9e2b965ed6f968db24d"},
	"mcf":       {[]region{{heapA, 32 << 20}, {heapB, 512 << 10}}, "c9e5ba858d66b28020d76a8dbfd686087790efa9297d0f131831e2a8237e92dc"},
	"milc":      {[]region{{heapA, 16 << 20}}, "83e9e1502ef084242a12892029a1211654eead94d4e64a00e196e23999e230f3"},
	"namd":      {[]region{{heapA, 32 << 10}}, "149d012f3742de4b7755b9a1807796e50a60dece3c94d09626902e9212bcdb9a"},
	"gobmk":     {[]region{{heapA, 4096}}, "791d447d39033b618922648e74fd7e3054c781abcb94c205c783abaf679589c3"},
	"hmmer":     {[]region{{heapA, 32 << 10}, {heapB, 4096}}, "05dad08d5d300c95c465f25ee1362fc74f9d1edd99ec0ae5b3e3dd4f14cac6ba"},
	"sjeng":     {nil, "867013fd48a53e1af85e2f90831f858d97df770cb5f634cc8e60794f03b04f76"},
	"h264ref":   {[]region{{heapA, 128 << 10}, {heapB, 128 << 10}}, "e85963c74483dbab38681f7251691ef7119dbdd0e330b4ac1ab45828684ce1e4"},
	"lbm":       {[]region{{heapA, 16 << 20}}, "1eceb540aa79d279abbcc8fc2855430e644dea4f58a71f31fc6f5a2ca4d6d4ca"},
	"long-l1":   {[]region{{heapB, 16 << 10}}, "2f4e908a47f156be0bc92efac8ffe859bb10123554247443c5ab0c6628872344"},
	"long-l2":   {[]region{{heapB, 1 << 20}}, "39a58fc4a8199e85dc35517a8449c015b5975f1924db33c754fe0fbda519e2a6"},
	"long-dram": {[]region{{heapB, 32 << 20}}, "bd8e97e3b0224c80c618e17c990071ebb85eaf9f33f2ff8d96065322fbf1c6e5"},
	"syn-a":     {[]region{{heapA, 128 << 10}}, "3efa2179ee9454996d3ec094fed510d9c54e257aa804edf79e0403c810810abb"},
	"syn-b":     {[]region{{heapA, 32 << 10}}, "0eca0e6d17a420a444e110cb2369e6b98ffdc022ae0806812a00e4da7d3f48f5"},
}

func oracleWorkloads() []Workload {
	ws := allAndLong()
	for _, spec := range oracleSpecs {
		ws = append(ws, MustSynthetic(spec))
	}
	return ws
}

// imageDigest hashes m's registers and every word of regions, and
// returns the digest with the number of pages the regions span and the
// address of each of those pages whose words all read zero: the pages
// m may not hold at all.
func imageDigest(m *prog.Machine, regions []region) (digest string, pages int, zero []uint64) {
	h := sha256.New()
	var word [8]byte
	for _, r := range m.Regs {
		h.Write(binary.LittleEndian.AppendUint64(word[:0], r))
	}
	const pageBytes = 8 * prog.PageWords
	buf := make([]byte, 0, pageBytes)
	for _, r := range regions {
		for off := 0; off < r.bytes; off += pageBytes {
			buf = buf[:0]
			var seen uint64 // every bit any word of the page set
			for a := off; a < off+pageBytes; a += 8 {
				v := m.Mem.Read(r.base + uint64(a))
				seen |= v
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			h.Write(buf)
			pages++
			if seen == 0 {
				zero = append(zero, r.base+uint64(off))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), pages, zero
}

func TestImageOracle(t *testing.T) {
	ws := oracleWorkloads()
	if len(ws) != len(oracle) {
		t.Errorf("%d workloads, %d oracle entries", len(ws), len(oracle))
	}
	for _, w := range ws {
		t.Run(w.Short, func(t *testing.T) {
			want, ok := oracle[w.Short]
			if !ok {
				t.Fatal("no oracle entry")
			}
			m := prog.NewImage(w.Program, w.Setup).NewMachine()
			got, pages, zero := imageDigest(m, want.regions)
			// Every page Setup wrote or declared lies in the regions,
			// so the digest covers the whole image. Reading them built
			// every declared page...
			if n, r := m.Mem.Footprint(), m.Mem.Resident(); n != r {
				t.Errorf("image has %d pages, %d resident, after reading the regions", n, r)
			}
			// ...and a store to each region page that read zero adds
			// the ones the image lacks, after which the fork sees the
			// regions' pages and no other.
			for _, a := range zero {
				m.Mem.Write(a, 0)
			}
			if n := m.Mem.Footprint(); n != pages {
				t.Errorf("image and stores span %d pages, the regions %d", n, pages)
			}
			if got != want.digest {
				t.Errorf("digest %s, want %s", got, want.digest)
			}
		})
	}
}

// TestConcurrentFirstTouch: eight goroutines fork one fresh image and
// step in lockstep rounds of 1000 µ-ops (mcf's cycle, lbm's lattice and
// bzip2's xorshift block: one kind of Setup fill each), so every page the stream reaches is first
// touched by all eight at once and built by whichever wins. Each stream
// must equal a private machine's. Under -race this is the check on the
// pages' build-once slots.
func TestConcurrentFirstTouch(t *testing.T) {
	const goroutines, rounds, perRound = 8, 40, 1000
	for _, name := range []string{"mcf", "lbm", "bzip2"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]prog.MicroOp, rounds*perRound)
		if got := len((prog.MachineSource{M: privateMachine(w)}).NextBatch(want)); got != len(want) {
			t.Fatalf("%s: reference stream ended after %d µ-ops", name, got)
		}
		img := prog.NewImage(w.Program, w.Setup)
		machines := make([]*prog.Machine, goroutines)
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for g := range machines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if machines[g] == nil {
						machines[g] = img.NewMachine()
					}
					var u prog.MicroOp
					for i := r * perRound; i < (r+1)*perRound; i++ {
						if !machines[g].StepInto(&u) || u != want[i] {
							t.Errorf("%s: goroutine %d: µ-op %d differs from a private machine's:\n got %+v\nwant %+v", name, g, i, u, want[i])
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
		}
		if n := machines[0].Mem.Resident(); n < 32 {
			t.Errorf("%s: the streams touched %d pages: too few first touches to race", name, n)
		}
	}
}
