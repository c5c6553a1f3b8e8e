package workload

import (
	"eole/internal/isa"
	"eole/internal/prog"
)

// 401.bzip2 — Burrows-Wheeler compression.
//
// Character reproduced: block-sort inner loop comparing pseudo-random
// suffixes with data-dependent (hard) compare branches, byte-histogram
// updates (read-modify-write), and predictable outer counters.
func bzip2Kernel() Workload {
	b := prog.NewBuilder("401.bzip2")
	var (
		i    = isa.IntReg(1)
		blk  = isa.IntReg(2) // block base
		hist = isa.IntReg(3) // histogram base
		a    = isa.IntReg(4)
		c    = isa.IntReg(5)
		t0   = isa.IntReg(6)
		t1   = isa.IntReg(7)
		runs = isa.IntReg(8)
	)
	b.Label("top")
	// Load two "suffix" words at data-dependent distance.
	b.Andi(t0, i, 32767)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, blk)
	b.Ld(a, t0, 0)
	b.Andi(t1, a, 32767)
	b.Shli(t1, t1, 3)
	b.Add(t1, t1, blk)
	b.Ld(c, t1, 0)
	// Compare: essentially random order -> ~50% branch.
	b.Bltu(a, c, "less")
	b.Addi(runs, runs, 1)
	b.Jmp("hist")
	b.Label("less")
	b.Sub(runs, runs, i)
	b.Label("hist")
	// Histogram bump of the low byte (RMW with store-to-load locality).
	b.Andi(t0, a, 255)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, hist)
	b.Ld(t1, t0, 0)
	b.Addi(t1, t1, 1)
	b.St(t1, t0, 0)
	b.Addi(i, i, 1)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "401.bzip2", Short: "bzip2", FP: false, PaperIPC: 0.888,
		Description: "block sort: data-dependent 50/50 compare branches, histogram RMW, stride scan",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(2), heapA)
			m.SetReg(isa.IntReg(3), heapB)
			fillXorshift(m, heapA, 32768, 0x0bad_cafe_1bad_babe, ^uint64(0))
		},
	}
}

// 403.gcc — compiler.
//
// Character reproduced: a table-driven interpreter-style loop: indirect
// jumps through a dispatch table (BTB/indirect pressure), many
// irregular but mildly-biased branches, pointer loads, and a spread-out
// working set. Moderate IPC.
func gccKernel() Workload {
	b := prog.NewBuilder("403.gcc")
	var (
		rng = isa.IntReg(1)
		tmp = isa.IntReg(2)
		tab = isa.IntReg(3) // dispatch table of code addresses
		t0  = isa.IntReg(4)
		dat = isa.IntReg(5) // IR node pool
		v   = isa.IntReg(6)
		acc = isa.IntReg(7)
		tgt = isa.IntReg(8)
	)
	cnt := isa.IntReg(9)
	lp := isa.IntReg(10)
	b.Label("top")
	// Per-node bookkeeping gcc does everywhere: counters and a short
	// predictable field scan (these are the value-predictable µ-ops
	// that give gcc its ~25% offload in the paper).
	b.Addi(cnt, cnt, 1)
	b.Movi(lp, 0)
	b.Label("fields")
	b.Addi(lp, lp, 1)
	b.Movi(t0, 3)
	b.Blt(lp, t0, "fields")
	b.Xorshift(rng, tmp)
	// Pick one of 4 handlers, with a skewed distribution (0 twice).
	b.Shri(t0, rng, 13)
	b.Andi(t0, t0, 3)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, tab)
	b.Ld(tgt, t0, 0)
	b.Jr(tgt) // indirect dispatch
	// Handler 0: constant folding (ALU-dense).
	b.Label("h0")
	b.Addi(acc, acc, 3)
	b.Shli(t0, acc, 1)
	b.Xor(acc, acc, t0)
	b.Jmp("top")
	// Handler 1: tree walk step (dependent load).
	b.Label("h1")
	b.Shri(t0, rng, 20)
	b.Andi(t0, t0, 0xFFFF)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, dat)
	b.Ld(v, t0, 0)
	b.Add(acc, acc, v)
	b.Jmp("top")
	// Handler 2: biased branch on node kind (taken ~75%).
	b.Label("h2")
	b.Andi(t0, rng, 3)
	b.Beqz(t0, "h2rare")
	b.Addi(acc, acc, 1)
	b.Jmp("top")
	b.Label("h2rare")
	b.Sub(acc, acc, rng)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "403.gcc", Short: "gcc", FP: false, PaperIPC: 1.055,
		Description: "dispatch-table interpreter: indirect jumps, mildly biased branches, pointer loads over 512KB pool",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), 0x2468_ace0_1357_9bdf)
			m.SetReg(isa.IntReg(3), heapA)
			m.SetReg(isa.IntReg(5), heapB)
			h0, _ := m.Prog.LabelAddr("h0")
			h1, _ := m.Prog.LabelAddr("h1")
			h2, _ := m.Prog.LabelAddr("h2")
			// Skewed dispatch: h0, h1, h2, h0.
			m.Mem.Write(heapA+0, m.Prog.PC(h0))
			m.Mem.Write(heapA+8, m.Prog.PC(h1))
			m.Mem.Write(heapA+16, m.Prog.PC(h2))
			m.Mem.Write(heapA+24, m.Prog.PC(h0))
			fillWords(m, heapB, 65536, func(i int) uint64 { return uint64(i*31 + 7) })
		},
	}
}

// 429.mcf — single-depot vehicle scheduling (network simplex).
//
// Character reproduced: the canonical DRAM-bound pointer chase. Every
// iteration loads the next arc from a 32MB pseudo-random permutation,
// so each load misses L2 and the serial dependence exposes full memory
// latency. IPC ≈ 0.1 in the paper.
func mcfKernel() Workload {
	b := prog.NewBuilder("429.mcf")
	var (
		node  = isa.IntReg(1)
		cost  = isa.IntReg(2)
		t0    = isa.IntReg(3)
		red   = isa.IntReg(4) // reduced-cost accumulator
		arcs  = isa.IntReg(5) // arc cost array (L2-resident)
		a0    = isa.IntReg(6)
		flow  = isa.IntReg(7)
		units = isa.IntReg(8)
		t1    = isa.IntReg(9)
	)
	b.Label("top")
	b.Ld(cost, node, 8)
	b.Add(red, red, cost)
	// Occasional pivot branch (biased ~7/8 not taken).
	b.Andi(t0, cost, 7)
	b.Bnez(t0, "skip")
	b.Shri(red, red, 1)
	b.Label("skip")
	// Arc bookkeeping overlapping the chase: mcf does real work per
	// node (basis updates, flow accounting), which is what lifts its
	// IPC above the raw pointer-chase floor.
	b.Shri(t1, cost, 3)
	b.Andi(t1, t1, 0xFFFF)
	b.Shli(t1, t1, 3)
	b.Add(t1, t1, arcs)
	b.Ld(a0, t1, 0)
	b.Add(flow, flow, a0)
	b.Sltu(t0, flow, red)
	b.Add(units, units, t0)
	b.Ld(node, node, 0) // serial DRAM-latency chase
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "429.mcf", Short: "mcf", FP: false, PaperIPC: 0.105,
		Description: "pointer chase over 32MB random cycle: every load misses L2; serial dependence",
		Program:     p,
		Setup: func(m *prog.Machine) {
			// 2M nodes * 16B = 32MB, far beyond the 2MB L2.
			const nodes = 1 << 21
			s := uint64(0xdead_10cc_feed_f00d)
			addrOf := func(i int) uint64 { return heapA + uint64(i)*16 }
			// Sattolo's algorithm: a single random cycle (no short cycles).
			// The cycle is the image's backing data for as long as the
			// image lives, so int32 holds every node index in 8 MB.
			next := make([]int32, nodes)
			for i := range next {
				next[i] = int32(i)
			}
			for i := nodes - 1; i > 0; i-- {
				s = xorshift64(s)
				j := int(s % uint64(i))
				next[i], next[j] = next[j], next[i]
			}
			// Node i is (->next, cost); the costs continue the stream,
			// one step per node. A page of nodes is built, when a
			// machine first touches it, from the cycle and the stream's
			// state before its first node.
			const perState = streamStride / 2 // nodes
			states, _ := xorshiftStates(s, nodes, perState)
			// A page holds whole nodes (heapA is page aligned, a page an
			// even number of words): first is even.
			m.Mem.Fill(heapA, 2*nodes, func(first int, words []uint64) {
				node := first / 2
				x := xorshiftAt(states, node, perState)
				for j := 0; j < len(words); j += 2 {
					x = xorshift64(x)
					words[j] = addrOf(int(next[node+j/2]))
					words[j+1] = x & 0xFFFF
				}
			})
			m.SetReg(isa.IntReg(1), addrOf(0))
			// Arc cost array: 512KB, L2-resident.
			m.SetReg(isa.IntReg(5), heapB)
			fillWords(m, heapB, 65536, func(i int) uint64 { return uint64(i*13 + 5) })
		},
	}
}

// 445.gobmk — Go playing AI.
//
// Character reproduced: board-pattern evaluation with many weakly-
// biased, history-uncorrelated branches (TAGE accuracy is poor on
// gobmk), small-table loads, and short call chains. Low IPC from
// branch mispredictions.
func gobmkKernel() Workload {
	b := prog.NewBuilder("445.gobmk")
	var (
		rng  = isa.IntReg(1)
		tmp  = isa.IntReg(2)
		brd  = isa.IntReg(3) // board base
		t0   = isa.IntReg(4)
		v    = isa.IntReg(5)
		lib  = isa.IntReg(6) // liberty counter
		infl = isa.IntReg(7) // influence accumulator
	)
	b.Label("top")
	b.Xorshift(rng, tmp)
	// Probe a board point (19x19 ~= 512-word table).
	b.Shri(t0, rng, 11)
	b.Andi(t0, t0, 511)
	b.Shli(t0, t0, 3)
	b.Add(t0, t0, brd)
	b.Ld(v, t0, 0)
	// Three cascaded weakly-biased branches on independent bits.
	b.Andi(tmp, v, 1)
	b.Beqz(tmp, "b1")
	b.Addi(lib, lib, 1)
	b.Label("b1")
	b.Andi(tmp, rng, 2)
	b.Beqz(tmp, "b2")
	b.Addi(infl, infl, 2)
	b.Label("b2")
	b.Shri(tmp, rng, 1)
	b.Andi(tmp, tmp, 1)
	b.Beqz(tmp, "b3")
	b.Call("influence")
	b.Label("b3")
	b.Jmp("top")
	b.Label("influence")
	b.Add(infl, infl, v)
	b.Shri(infl, infl, 1)
	b.Ret()
	p := b.MustBuild()
	return Workload{
		Name: "445.gobmk", Short: "gobmk", FP: false, PaperIPC: 0.766,
		Description: "pattern evaluation: cascaded 50/50 branches, small-table loads, short calls",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), 0x9977_5533_1100_ffee)
			m.SetReg(isa.IntReg(3), heapA)
			fillXorshift(m, heapA, 512, 42, ^uint64(0))
		},
	}
}

// 456.hmmer — profile HMM sequence search (Viterbi).
//
// Character reproduced: the P7Viterbi dynamic-programming recurrence:
// wide, independent max/add chains with high ILP that fill the issue
// queue, data-dependent values (low VP coverage: the paper calls hmmer
// out for exactly this), few and perfectly-predictable branches.
// Highest IPC of the suite and the most IQ/issue-width sensitive.
func hmmerKernel() Workload {
	b := prog.NewBuilder("456.hmmer")
	var (
		i   = isa.IntReg(1)
		dp  = isa.IntReg(2) // DP row base
		tr  = isa.IntReg(3) // transition scores base
		m0  = isa.IntReg(4)
		m1  = isa.IntReg(5)
		m2  = isa.IntReg(6)
		m3  = isa.IntReg(7)
		s0  = isa.IntReg(8)
		s1  = isa.IntReg(9)
		t0  = isa.IntReg(12)
		c0  = isa.IntReg(13)
		c1  = isa.IntReg(14)
		off = isa.IntReg(15)
	)
	b.Label("top")
	b.Shli(off, i, 5)
	b.Andi(off, off, 0x7FFF)
	b.Add(off, off, dp)
	// Four independent match-state recurrences (4-wide ILP).
	b.Ld(m0, off, 0)
	b.Ld(m1, off, 8)
	b.Ld(m2, off, 16)
	b.Ld(m3, off, 24)
	// Transition scores indexed by model position: values vary with
	// period 64 so neither stride nor context predictors cover them.
	b.Andi(c0, i, 63)
	b.Shli(c0, c0, 3)
	b.Add(c0, c0, tr)
	b.Ld(s0, c0, 0)
	b.Ld(s1, c0, 512)
	b.Add(m0, m0, s0)
	b.Add(m1, m1, s1)
	b.Add(m2, m2, s0)
	b.Add(m3, m3, s1)
	// max(m0,m1) and max(m2,m3) via slt+mask trick (branch-free).
	b.Slt(c0, m0, m1)
	b.Sub(t0, m1, m0)
	b.Mul(t0, t0, c0)
	b.Add(m0, m0, t0)
	b.Slt(c1, m2, m3)
	b.Sub(t0, m3, m2)
	b.Mul(t0, t0, c1)
	b.Add(m2, m2, t0)
	// Store back all four states, mixing so every slot keeps churning
	// with data-dependent values.
	b.St(m0, off, 0)
	b.Xor(t0, m1, m0)
	b.St(t0, off, 8)
	b.St(m2, off, 16)
	b.Xor(t0, m3, m2)
	b.St(t0, off, 24)
	b.Addi(i, i, 1)
	b.Jmp("top")
	p := b.MustBuild()
	return Workload{
		Name: "456.hmmer", Short: "hmmer", FP: false, PaperIPC: 2.477,
		Description: "Viterbi DP: wide branch-free max/add chains (high ILP, IQ-sensitive), data-dependent values (low VP coverage)",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(2), heapA)
			m.SetReg(isa.IntReg(3), heapB)
			s := fillXorshift(m, heapA, 4096, 0x5eed_5eed_5eed_5eed, 0xFFFF)
			// Two banks of 64 random transition scores (defeats both
			// last-value and stride VP).
			fillXorshift(m, heapB, 128, s, 0xFFF)
		},
	}
}

// 458.sjeng — chess tree search.
//
// Character reproduced: alternating predictable move-generation loops
// (bit manipulation) and hard evaluation branches, with call/return
// pairs for recursion and some value-predictable counters.
func sjengKernel() Workload {
	b := prog.NewBuilder("458.sjeng")
	var (
		rng  = isa.IntReg(1)
		tmp  = isa.IntReg(2)
		bbrd = isa.IntReg(3)
		t0   = isa.IntReg(4)
		mv   = isa.IntReg(5) // move counter
		sc   = isa.IntReg(6) // score
		k    = isa.IntReg(7)
		lim  = isa.IntReg(8)
	)
	b.Label("top")
	// Move generation: 8-iteration predictable loop of bit ops. The
	// board itself is data-dependent (mixed with the RNG each
	// position), so the bit-op *values* are unpredictable even though
	// the control flow is perfectly predictable.
	b.Movi(k, 0)
	b.Movi(lim, 8)
	b.Xor(bbrd, bbrd, rng)
	b.Label("gen")
	b.Shli(bbrd, bbrd, 1)
	b.Xori(bbrd, bbrd, 0x88)
	b.Andi(t0, bbrd, 0xFF)
	b.Add(mv, mv, t0)
	b.Addi(k, k, 1)
	b.Blt(k, lim, "gen")
	// Evaluation: one hard branch per position.
	b.Xorshift(rng, tmp)
	b.Andi(t0, rng, 1)
	b.Beqz(t0, "cut")
	b.Call("eval")
	b.Jmp("top")
	b.Label("cut")
	b.Addi(sc, sc, 1)
	b.Jmp("top")
	b.Label("eval")
	b.Add(sc, sc, mv)
	b.Shri(sc, sc, 1)
	b.Ret()
	p := b.MustBuild()
	return Workload{
		Name: "458.sjeng", Short: "sjeng", FP: false, PaperIPC: 1.321,
		Description: "search: predictable bit-op move loops + one hard eval branch per node, call/ret",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(1), 0x1122_3344_5566_7788)
			m.SetReg(isa.IntReg(3), 0x00FF_00FF_00FF_00FF)
		},
	}
}

// 464.h264ref — video encoding (motion estimation SAD).
//
// Character reproduced: sum-of-absolute-differences over 8-word rows:
// unit-stride loads from two frames, branch-free abs via mask algebra,
// perfectly predictable loop structure, striding pointers. High VP
// benefit (the paper's F6/F8 call h264 out).
func h264refKernel() Workload {
	b := prog.NewBuilder("464.h264ref")
	var (
		i   = isa.IntReg(1)
		cur = isa.IntReg(2) // current block pointer
		ref = isa.IntReg(3) // reference block pointer
		a   = isa.IntReg(4)
		c   = isa.IntReg(5)
		d   = isa.IntReg(6)
		msk = isa.IntReg(7)
		sad = isa.IntReg(8)
		k   = isa.IntReg(9)
		lim = isa.IntReg(10)
		t0  = isa.IntReg(11)
	)
	b.Label("block")
	b.Movi(k, 0)
	b.Movi(lim, 8)
	b.Label("row")
	b.Ld(a, cur, 0)
	b.Ld(c, ref, 0)
	// |a-c| branch-free: d=a-c; msk=d>>63; d=(d^msk)-msk.
	b.Sub(d, a, c)
	b.Movi(t0, 63)
	b.Sar(msk, d, t0)
	b.Xor(d, d, msk)
	b.Sub(d, d, msk)
	b.Add(sad, sad, d)
	b.Addi(cur, cur, 8)
	b.Addi(ref, ref, 8)
	b.Addi(k, k, 1)
	b.Blt(k, lim, "row")
	// Next candidate block: predictable pointer rewind.
	b.Addi(i, i, 1)
	b.Andi(t0, i, 1023)
	b.Bnez(t0, "block")
	b.Movi(cur, heapA)
	b.Movi(ref, heapB)
	b.Jmp("block")
	p := b.MustBuild()
	return Workload{
		Name: "464.h264ref", Short: "h264ref", FP: false, PaperIPC: 1.312,
		Description: "motion-estimation SAD: unit-stride loads, branch-free abs, counted loops, striding pointers",
		Program:     p,
		Setup: func(m *prog.Machine) {
			m.SetReg(isa.IntReg(2), heapA)
			m.SetReg(isa.IntReg(3), heapB)
			// Pixel data is noisy (real frames): the pixel loads are
			// not value-predictable; h264's VP benefit comes from its
			// perfectly striding pointers and counters.
			s := fillXorshift(m, heapA, 16384, 0xfaded_face, 0xFF)
			fillXorshift(m, heapB, 16384, s, 0xFF)
		},
	}
}

func init() {
	register(bzip2Kernel())
	register(gccKernel())
	register(mcfKernel())
	register(gobmkKernel())
	register(hmmerKernel())
	register(sjengKernel())
	register(h264refKernel())
}
