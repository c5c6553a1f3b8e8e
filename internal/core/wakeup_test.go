package core

import (
	"testing"

	"eole/internal/isa"
)

// The issue queue wakes, it does not poll (ARCHITECTURE.md). What it
// replaced stays here as the reference: a rule that derives a µ-op's
// readiness from its producers every time it is asked, against which
// the select list is held at every stepped cycle, and an audit of the
// chains and the list the wakeup keeps.

// eachInWindow calls f for every window µ-op, oldest first, with the
// window µ-ops producing its operands: the youngest older writer of the
// register, which is what the RAT named when the µ-op renamed unless
// that producer has committed since (nil: the value is committed state).
// Nothing of this is kept by the core; it is rebuilt from the trace
// records in the window.
func eachInWindow(c *Core, f func(u *uop, prod [2]*uop)) {
	var last [isa.NumArchRegs]*uop
	for i := 0; i < c.count; i++ {
		u := c.at(c.headSeq + uint64(i))
		var prod [2]*uop
		for k, src := range [2]isa.Reg{u.Src1, u.Src2} {
			if src.Valid() {
				prod[k] = last[src]
			}
		}
		f(u, prod)
		if u.Dst.Valid() {
			last[u.Dst] = u
		}
	}
}

// polledReady is the readiness rule of the polling select scan: the
// dispatch latency has passed and every producer has committed or has
// made its value available.
func polledReady(c *Core, u *uop, prod [2]*uop) bool {
	if u.renameCycle+2 > c.now {
		return false
	}
	for _, p := range prod {
		if p != nil && p.availCycle > c.now {
			return false
		}
	}
	return true
}

// checkAgainstPolling requires, between two cycles, that the µ-ops the
// select loop would consider in the coming one — the list entries with
// wakeAt <= now — are exactly the issue-queue µ-ops the polling rule
// calls ready.
func checkAgainstPolling(t testing.TB, c *Core) {
	t.Helper()
	li := 0
	eachInWindow(c, func(u *uop, prod [2]*uop) {
		if !u.inIQ {
			return
		}
		woken := false
		if li < len(c.iq) && c.iq[li].seq == u.Seq {
			woken = c.iq[li].wakeAt <= c.now
			li++
		}
		if polled := polledReady(c, u, prod); polled != woken {
			t.Fatalf("cycle %d, seq %d (%v, renamed at %d): polling says ready=%v, the select list says %v\n%+v",
				c.now, u.Seq, u.Op, u.renameCycle, polled, woken, u.pipeState)
		}
	})
	if li != len(c.iq) {
		t.Fatalf("cycle %d: select list entry %d (seq %d) names no issue-queue µ-op of the window, or the list is out of age order",
			c.now, li, c.iq[li].seq)
	}
}

// auditWakeup checks the structure behind that equivalence.
func auditWakeup(t testing.TB, c *Core) {
	t.Helper()
	if len(c.iq) > c.iqCount {
		t.Fatalf("select list holds %d entries, iqCount=%d", len(c.iq), c.iqCount)
	}
	if cap(c.iq) != c.cfg.IQSize || cap(c.woken) != c.cfg.IQSize {
		t.Fatalf("select list capacity %d, woken scratch %d, want IQSize %d: one was reallocated",
			cap(c.iq), cap(c.woken), c.cfg.IQSize)
	}
	for i, e := range c.iq {
		if i > 0 && e.seq <= c.iq[i-1].seq {
			t.Fatalf("select list not age-ordered at %d: seq %d after %d", i, e.seq, c.iq[i-1].seq)
		}
		// issueWake may be early, never late.
		if c.issueWake > e.wakeAt && c.issueWake > c.now {
			t.Fatalf("issueWake=%d at cycle %d, but seq %d is selectable from %d", c.issueWake, c.now, e.seq, e.wakeAt)
		}
	}

	mask := uint64(len(c.ring) - 1)
	chained := map[uint32]*uop{} // link → the producer whose chain holds it
	claimed := 0                 // links accounted for by a waiting operand
	li := 0
	eachInWindow(c, func(u *uop, prod [2]*uop) {
		// Only µ-ops that write no register leave the window without
		// ever knowing when their value arrives (VHC branches resolved
		// at LE/VT): a consumer can wait on a chain for an issue, never
		// for a commit, which is why commit wakes nobody.
		if u.Dst.Valid() && !u.inIQ && !u.issued && u.availCycle == never {
			t.Fatalf("seq %d (%v) writes %v, bypasses the issue queue and has no availCycle", u.Seq, u.Op, u.Dst)
		}

		// u as a consumer.
		if !u.inIQ {
			// (An issued µ-op keeps the nextWait and readyAt it left
			// the queue with; nothing reads them again.)
			if u.pending != 0 || (!u.issued && (u.nextWait != [2]uint32{} || u.readyAt != 0)) {
				t.Fatalf("seq %d is not in the issue queue but waits for a wakeup: %+v", u.Seq, u.pipeState)
			}
		} else {
			pending := 0
			known := u.renameCycle + 2
			for k, p := range prod {
				link := (uint32(u.Seq&mask)<<1 | uint32(k)) + 1
				waits := p != nil && p.availCycle == never
				if on := chained[link]; (on != nil) != waits || (waits && on != p) {
					t.Fatalf("seq %d operand %d: producer %+v, but the link is on the chain of %+v", u.Seq, k, p, on)
				}
				if waits {
					pending++
					claimed++
				} else if p != nil && p.availCycle > known {
					known = p.availCycle
				}
			}
			if int(u.pending) != pending {
				t.Fatalf("seq %d: pending=%d, linked on %d chains", u.Seq, u.pending, pending)
			}
			listed := li < len(c.iq) && c.iq[li].seq == u.Seq
			if listed == (pending > 0) {
				t.Fatalf("seq %d: on the select list=%v with %d producers still to issue", u.Seq, listed, pending)
			}
			if listed {
				// Exact: the latest arrival among dispatch and the
				// producers. One that has committed since is no longer
				// there to ask, but its value arrived before it did.
				at := c.iq[li].wakeAt
				if at != u.readyAt || (at != known && !(at > known && at < c.now)) {
					t.Fatalf("seq %d: wakeAt=%d readyAt=%d, dispatch and window producers say %d (cycle %d)",
						u.Seq, at, u.readyAt, known, c.now)
				}
				li++
			}
		}

		// u as a producer.
		if u.waiters != 0 && u.availCycle != never {
			t.Fatalf("seq %d knows its availCycle %d and still heads a chain", u.Seq, u.availCycle)
		}
		for l, n := u.waiters, 0; l != 0; n++ {
			slot, k := (l-1)>>1, (l-1)&1
			if int(slot) >= len(c.ring) || n > 2*len(c.ring) {
				t.Fatalf("chain of seq %d: link %d names slot %d of %d, %d links in", u.Seq, l, slot, len(c.ring), n)
			}
			w := &c.ring[slot]
			if !c.inWindow(w.Seq) || c.at(w.Seq) != w || w.Seq <= u.Seq || !w.inIQ || w.issued {
				t.Fatalf("chain of seq %d holds slot %d: seq %d inWindow=%v inIQ=%v issued=%v",
					u.Seq, slot, w.Seq, c.inWindow(w.Seq), w.inIQ, w.issued)
			}
			if chained[l] != nil {
				t.Fatalf("link %d (seq %d operand %d) is on two chains or twice on one", l, w.Seq, k)
			}
			chained[l] = u
			l = w.nextWait[k]
		}
	})
	if li != len(c.iq) {
		t.Fatalf("select list entry %d (seq %d) names no issue-queue µ-op of the window", li, c.iq[li].seq)
	}
	if claimed != len(chained) {
		t.Fatalf("%d links on chains, %d operands waiting", len(chained), claimed)
	}
}

// Recovery is the paper's: everything behind the committing µ-op goes.
// The select list and every chain die with the window, so there is
// nothing to unlink, and the PRF is back to what committed state holds.
// (The squash penalty keeps fetch out of the cycle that squashes, so
// the state after that cycle's step is the state squashPipeline left.)
func TestSquashEmptiesThePipeline(t *testing.T) {
	c := steadyCore(t, "EOLE_4_64", "namd")
	for squashes := 0; squashes < 20; {
		before := c.stats
		inFlight := c.count + c.fqLen + c.replayLen
		if c.pendingValid {
			inFlight++
		}
		if c.now > 10_000_000 || !c.step() {
			t.Fatalf("namd under EOLE_4_64 mispredicted only %d values", squashes)
		}
		if c.stats.VPSquashes == before.VPSquashes {
			continue
		}
		squashes++
		if c.count != 0 || c.iqCount != 0 || len(c.iq) != 0 || c.lqCount != 0 || c.sqCount != 0 || c.fqLen != 0 || c.pendingValid {
			t.Fatalf("after a squash: count=%d iqCount=%d len(iq)=%d lq=%d sq=%d fqLen=%d pending=%v",
				c.count, c.iqCount, len(c.iq), c.lqCount, c.sqCount, c.fqLen, c.pendingValid)
		}
		if c.rat != [isa.NumArchRegs]ratEntry{} {
			t.Fatalf("after a squash the RAT still maps %+v", c.rat)
		}
		if c.issueWake != never {
			t.Fatalf("after a squash issueWake=%d with nothing to issue", c.issueWake)
		}
		// All that was in flight and did not commit awaits refetch, reset
		// where it lies (audit holds every slot against unfetched()).
		if want := inFlight - int(c.stats.Committed-before.Committed); c.replayLen != want {
			t.Fatalf("replayLen=%d after a squash, want %d", c.replayLen, want)
		}
		audit(t, c)
		// With the window empty, the registers not free are exactly the
		// committed mappings.
		held := 0
		for r := range c.commitB {
			if c.commitB[r].has {
				held++
			}
		}
		free := c.prf.TotalFree(false) + c.prf.TotalFree(true)
		if total := c.cfg.PRF.IntRegs + c.cfg.PRF.FPRegs; free+held != total {
			t.Fatalf("after a squash: %d registers free + %d committed mappings != %d", free, held, total)
		}
	}
}
