package workload

import (
	"eole/internal/isa"
	"eole/internal/prog"
)

// 164.gzip — LZ77-style compression inner loop.
//
// Character reproduced: byte-granularity window loads with a rolling
// hash (dense single-cycle ALU chains), a hash-table probe (data-
// dependent load), a rarely-taken match branch, and a data-dependent
// length branch that TAGE predicts imperfectly. Moderate value-
// prediction coverage: induction variables stride, hash values do not.
func gzipKernel() Workload {
	b := prog.NewBuilder("164.gzip")
	var (
		i     = isa.IntReg(1) // window cursor
		hash  = isa.IntReg(2) // rolling hash
		win   = isa.IntReg(3) // window base
		head  = isa.IntReg(4) // hash table base
		a     = isa.IntReg(5) // current word
		bb    = isa.IntReg(6) // probed word
		t0    = isa.IntReg(7)
		t1    = isa.IntReg(8)
		mlen  = isa.IntReg(9)  // running match length
		chain = isa.IntReg(10) // chain counter
	)
	b.Label("top")
	// Load the next window word (perfect stride: prefetch friendly).
	b.Andi(t0, i, 8191) // 8K-word window
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, win)
	b.Ld(a, t0, 0)
	// Rolling hash: hash = ((hash<<5) ^ a) & 4095.
	b.Shli(t1, hash, 5)
	b.Xor(t1, t1, a)
	b.Andi(hash, t1, 4095)
	// Probe head table.
	b.Shli(t0, hash, 3)
	b.Add(t0, t0, head)
	b.Ld(bb, t0, 0)
	// Store current position into the chain head (store stream).
	b.St(i, t0, 0)
	// Match check: equal words are rare -> mostly not-taken branch.
	b.Bne(a, bb, "nomatch")
	b.Addi(mlen, mlen, 1)
	b.Label("nomatch")
	// Data-dependent length branch: taken iff low 3 bits of data < 3
	// (probability ~3/8, weakly correlated -> hard for TAGE).
	b.Andi(t1, a, 7)
	b.Movi(t0, 3)
	b.Blt(t1, t0, "short")
	b.Addi(chain, chain, 2)
	b.Jmp("cont")
	b.Label("short")
	b.Addi(chain, chain, 1)
	b.Label("cont")
	b.Addi(i, i, 1)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "164.gzip", Short: "gzip", FP: false, PaperIPC: 0.984,
		Description: "LZ window scan: rolling hash ALU chains, hash-table probe loads, rare match branch, data-dependent length branch",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(3), heapA)
			m.SetReg(isa.IntReg(4), heapB)
			// Pseudo-random window contents: the "input file".
			fillXorshift(m, heapA, 8192, 0x1234_5678_9abc_def1, ^uint64(0))
		},
	}
}

// 175.vpr — placement simulated annealing.
//
// Character reproduced: an IR-level xorshift RNG drives a ~50/50
// accept/reject branch (essentially unpredictable), random-index reads
// of a cost array (L2-resident), and a short predictable bookkeeping
// tail. Moderate IPC limited by branch mispredictions.
func vprKernel() Workload {
	b := prog.NewBuilder("175.vpr")
	var (
		rng  = isa.IntReg(1)
		tmp  = isa.IntReg(2)
		cost = isa.IntReg(3) // cost array base
		idx  = isa.IntReg(4)
		c    = isa.IntReg(5)
		acc  = isa.IntReg(6) // accumulated cost
		n    = isa.IntReg(7) // accepted-move counter
		t0   = isa.IntReg(8)
	)
	b.Label("top")
	b.Xorshift(rng, tmp)
	// Random placement slot: 64K-entry cost array (512KB, L2-resident).
	b.Shri(idx, rng, 17)
	b.Andi(idx, idx, 65535)
	b.Shli(t0, idx, 3)
	b.Add(t0, t0, cost)
	b.Ld(c, t0, 0)
	// Accept/reject on a raw RNG bit: ~50% taken, uncorrelated.
	b.Andi(tmp, rng, 1)
	b.Beqz(tmp, "reject")
	b.Add(acc, acc, c)
	b.Addi(n, n, 1)
	b.St(acc, t0, 0)
	b.Jmp("cont")
	b.Label("reject")
	b.Sub(acc, acc, c)
	b.Label("cont")
	// Predictable temperature bookkeeping.
	b.Addi(t0, n, 1)
	b.Shri(t0, t0, 8)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "175.vpr", Short: "vpr", FP: false, PaperIPC: 1.326,
		Description: "annealing: RNG-driven 50/50 accept branch, random-index L2 loads, predictable bookkeeping",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), 0x8a5c_d9f0_1357_9bdf)
			m.SetReg(isa.IntReg(3), heapA)
			fillWords(m, heapA, 65536, func(i int) uint64 { return uint64(i*37 + 11) })
		},
	}
}

// 186.crafty — chess bitboard evaluation.
//
// Character reproduced: long runs of register-to-register and
// register-immediate single-cycle logic (bitboard masks, shifts),
// perfectly predictable short inner loops, small L1-resident tables.
// High IPC; sensitive to Early Execution because many operands are
// immediates or same-group results.
func craftyKernel() Workload {
	b := prog.NewBuilder("186.crafty")
	var (
		occ  = isa.IntReg(1) // occupancy bitboard
		att  = isa.IntReg(2) // attack accumulator
		sq   = isa.IntReg(3) // square index
		tbl  = isa.IntReg(4) // attack table base
		t0   = isa.IntReg(5)
		t1   = isa.IntReg(6)
		t2   = isa.IntReg(7)
		k    = isa.IntReg(8) // inner counter
		four = isa.IntReg(9)
		pop  = isa.IntReg(10) // popcount accumulator
	)
	b.Label("top")
	// Advance square (predictable stride 1 mod 64).
	b.Addi(sq, sq, 1)
	b.Andi(sq, sq, 63)
	// Table lookup for this square (512B table: L1-resident).
	b.Shli(t0, sq, 3)
	b.Add(t0, t0, tbl)
	b.Ld(t1, t0, 0)
	// Bitboard mask algebra: dense 1-cycle logic with immediates.
	b.And(t2, occ, t1)
	b.Xori(occ, occ, 0x5A5A)
	b.Ori(att, att, 1)
	b.Shli(att, att, 1)
	b.Xor(att, att, t2)
	b.Andi(att, att, 0xFFFF_FFFF)
	// 4-iteration popcount-style loop: perfectly predictable.
	b.Movi(k, 0)
	b.Movi(four, 4)
	b.Label("poploop")
	b.Andi(t0, occ, 0xFF)
	b.Add(pop, pop, t0)
	b.Shri(occ, occ, 8)
	b.Addi(k, k, 1)
	b.Blt(k, four, "poploop")
	// Refresh occupancy from attacks (keeps values live).
	b.Or(occ, att, pop)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "186.crafty", Short: "crafty", FP: false, PaperIPC: 1.769,
		Description: "bitboards: dense 1-cycle logic with immediates, predictable 4-iteration loops, L1 tables",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), 0xFFFF_0000_FFFF_0000)
			m.SetReg(isa.IntReg(4), heapA)
			fillWords(m, heapA, 64, func(i int) uint64 { return uint64(i) * 0x0101_0101_0101 })
		},
	}
}

// 197.parser — link grammar parser.
//
// Character reproduced: pointer chasing over a linked structure with a
// data-dependent 50/50 branch per node, a call/return per node, and
// dependent loads. Very low IPC (serial loads + branch mispredicts),
// low value-prediction coverage.
func parserKernel() Workload {
	b := prog.NewBuilder("197.parser")
	var (
		node = isa.IntReg(1) // current node address
		val  = isa.IntReg(2)
		t0   = isa.IntReg(3)
		acc  = isa.IntReg(4)
		dep  = isa.IntReg(5) // recursion-depth stand-in
	)
	b.Label("top")
	// node->value and node->next are adjacent words.
	b.Ld(val, node, 8)
	// Data-dependent branch: node values are pseudo-random.
	b.Andi(t0, val, 1)
	b.Beqz(t0, "skip")
	b.Call("attach")
	b.Label("skip")
	// Chase the next pointer (serial dependence: DRAM-free but L2-ish).
	b.Ld(node, node, 0)
	b.Addi(dep, dep, 1)
	b.Jmp("top")
	// attach(): short leaf function.
	b.Label("attach")
	b.Add(acc, acc, val)
	b.Shri(t0, acc, 3)
	b.Xor(acc, acc, t0)
	b.Ret()
	p := b.MustBuild()
	return Workload{
		Name: "197.parser", Short: "parser", FP: false, PaperIPC: 0.544,
		Description: "linked-list chase: serial dependent loads, 50/50 data branch, call/ret per node",
		Program:     p,
		Setup: func(m *prog.Machine) {
			// Build a pseudo-random cyclic list of 64K nodes (1MB:
			// larger than L1, inside L2) with random payloads.
			const nodes = 65536
			perm := make([]int, nodes)
			for i := range perm {
				perm[i] = i
			}
			s := uint64(0xfeed_f00d_dead_beef)
			for i := nodes - 1; i > 0; i-- {
				s = xorshift64(s)
				j := int(s % uint64(i+1))
				perm[i], perm[j] = perm[j], perm[i]
			}
			addr := func(i int) uint64 { return heapA + uint64(i)*16 }
			for i := 0; i < nodes; i++ {
				next := perm[(i+1)%nodes]
				s = xorshift64(s)
				m.Mem.Write(addr(perm[i]), addr(next)) // ->next
				m.Mem.Write(addr(perm[i])+8, s)        // ->value
			}
			m.SetReg(isa.IntReg(1), addr(perm[0]))
		},
	}
}

// 255.vortex — object-oriented database transactions.
//
// Character reproduced: a predictable round-robin dispatch over object
// "methods" (call-heavy, RAS-friendly), loads of object fields that are
// frequently constant across transactions (high last-value
// predictability), stride counters and store-backs. High IPC and high
// VP coverage.
func vortexKernel() Workload {
	b := prog.NewBuilder("255.vortex")
	var (
		obj  = isa.IntReg(1) // object table base
		i    = isa.IntReg(2) // transaction counter
		sel  = isa.IntReg(3)
		t0   = isa.IntReg(4)
		f0   = isa.IntReg(5)
		f1   = isa.IntReg(6)
		sum  = isa.IntReg(7)
		size = isa.IntReg(8)
	)
	b.Label("top")
	b.Andi(sel, i, 3)
	b.Beqz(sel, "m0")
	b.Movi(t0, 1)
	b.Beq(sel, t0, "m1")
	b.Movi(t0, 2)
	b.Beq(sel, t0, "m2")
	b.Call("insert")
	b.Jmp("done")
	b.Label("m0")
	b.Call("lookup")
	b.Jmp("done")
	b.Label("m1")
	b.Call("update")
	b.Jmp("done")
	b.Label("m2")
	b.Call("validate")
	b.Label("done")
	b.Addi(i, i, 1)
	b.Jmp("top")

	// lookup(): loads two constant-ish header fields.
	b.Label("lookup")
	b.Ld(f0, obj, 0) // type tag: constant -> perfect last-value VP
	b.Ld(f1, obj, 8) // schema version: constant
	b.Add(sum, sum, f0)
	b.Add(sum, sum, f1)
	b.Ret()
	// update(): read-modify-write a field at a strided slot.
	b.Label("update")
	b.Andi(t0, i, 255)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, obj)
	b.Ld(f0, t0, 64)
	b.Addi(f0, f0, 1)
	b.St(f0, t0, 64)
	b.Ret()
	// validate(): compare size field (constant) against counter.
	b.Label("validate")
	b.Ld(size, obj, 16)
	b.Sltu(t0, i, size)
	b.Add(sum, sum, t0)
	b.Ret()
	// insert(): append to a log (stride stores).
	b.Label("insert")
	b.Andi(t0, i, 4095)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, obj)
	b.St(i, t0, 8192)
	b.Ret()
	p := b.MustBuild()
	return Workload{
		Name: "255.vortex", Short: "vortex", FP: false, PaperIPC: 1.781,
		Description: "OO database: round-robin method calls, constant object-field loads (high VP), stride log stores",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), heapA)
			m.Mem.Write(heapA, 7)        // type tag
			m.Mem.Write(heapA+8, 3)      // schema version
			m.Mem.Write(heapA+16, 1<<62) // size bound (compare mostly true)
			fillWords(m, heapA+64, 256, func(i int) uint64 { return uint64(i) })
		},
	}
}

func init() {
	register(gzipKernel())
	register(vprKernel())
	register(craftyKernel())
	register(parserKernel())
	register(vortexKernel())
}
