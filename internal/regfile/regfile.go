// Package regfile models the physical register file (PRF) of the
// paper's Section 6: 256 INT + 256 FP physical registers, optionally
// split into 2/4/8 banks (Figure 10), with per-bank port arbitration
// for the Late Execution / Validation and Training stage (Figure 11).
//
// Banking interacts with Rename: physical registers for consecutive
// µ-ops of one rename group are forced to different banks ("out of a
// group of 8 consecutive µ-ops, 2 could be allocated to each bank"),
// and Rename stalls when the designated bank has no free register —
// the load-unbalancing cost Figure 10 quantifies.
package regfile

import "fmt"

// Config sizes the PRF.
type Config struct {
	// IntRegs and FPRegs are the physical register counts (256/256 in
	// Table 1).
	IntRegs int
	FPRegs  int
	// Banks divides each file into equal banks (1 = monolithic).
	Banks int
	// LEVTReadPortsPerBank caps reads by the LE/VT stage per bank per
	// cycle (0 = unconstrained). The OoO engine's own ports are
	// provisioned for full issue width and are not modelled as a
	// constraint.
	LEVTReadPortsPerBank int
}

// DefaultConfig returns the Table 1 monolithic PRF.
func DefaultConfig() Config {
	return Config{IntRegs: 256, FPRegs: 256, Banks: 1}
}

// Validate checks structural feasibility.
func (c Config) Validate() error {
	if c.IntRegs < 1 || c.FPRegs < 1 {
		return fmt.Errorf("regfile: register counts must be positive, got %d INT / %d FP", c.IntRegs, c.FPRegs)
	}
	if c.Banks < 1 {
		return fmt.Errorf("regfile: banks must be >= 1, got %d", c.Banks)
	}
	if c.IntRegs%c.Banks != 0 || c.FPRegs%c.Banks != 0 {
		return fmt.Errorf("regfile: %d INT / %d FP registers not divisible by %d banks",
			c.IntRegs, c.FPRegs, c.Banks)
	}
	if c.LEVTReadPortsPerBank < 0 {
		return fmt.Errorf("regfile: LE/VT read ports per bank must be >= 0, got %d", c.LEVTReadPortsPerBank)
	}
	return nil
}

// PRF tracks free physical registers per bank for both files.
type PRF struct {
	cfg     Config
	freeInt []int
	freeFP  []int

	perBankInt, perBankFP int // each bank's capacity: what Reset restores, Free checks against
}

// New builds a PRF; it panics on invalid configuration (construction
// is static in the simulator).
func New(cfg Config) *PRF {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &PRF{
		cfg:        cfg,
		freeInt:    make([]int, cfg.Banks),
		freeFP:     make([]int, cfg.Banks),
		perBankInt: cfg.IntRegs / cfg.Banks,
		perBankFP:  cfg.FPRegs / cfg.Banks,
	}
	p.Reset()
	return p
}

// Banks returns the bank count.
func (p *PRF) Banks() int { return p.cfg.Banks }

// Reset returns every register to its bank's free list. The core's
// pipeline flush (sampled simulation's window boundary) resets the PRF
// in place rather than allocating a fresh one per window.
func (p *PRF) Reset() {
	for b := 0; b < p.cfg.Banks; b++ {
		p.freeInt[b] = p.perBankInt
		p.freeFP[b] = p.perBankFP
	}
}

// BankFor returns the bank a µ-op at the given position of its rename
// group must allocate from (round-robin across the group).
func (p *PRF) BankFor(groupSlot int) int { return groupSlot % p.cfg.Banks }

// TryAlloc claims one register of the given file from bank b. It
// reports false when the bank is empty.
func (p *PRF) TryAlloc(fp bool, b int) bool {
	free := p.freeInt
	if fp {
		free = p.freeFP
	}
	if free[b] == 0 {
		return false
	}
	free[b]--
	return true
}

// Free returns one register of the given file to bank b.
func (p *PRF) Free(fp bool, b int) {
	free, max := p.freeInt, p.perBankInt
	if fp {
		free, max = p.freeFP, p.perBankFP
	}
	if free[b] >= max {
		panic(fmt.Sprintf("regfile: double free in bank %d (fp=%v)", b, fp))
	}
	free[b]++
}

// FreeCount reports the free registers in bank b of a file.
func (p *PRF) FreeCount(fp bool, b int) int {
	if fp {
		return p.freeFP[b]
	}
	return p.freeInt[b]
}

// TotalFree reports all free registers of a file.
func (p *PRF) TotalFree(fp bool) int {
	sum := 0
	for b := 0; b < p.cfg.Banks; b++ {
		sum += p.FreeCount(fp, b)
	}
	return sum
}

// LEVTArbiter rations the per-bank read ports available to the Late
// Execution / Validation and Training stage in one cycle (Figure 11).
// The commit logic reserves ports in program order and stops the
// commit group at the first µ-op whose reads do not fit.
type LEVTArbiter struct {
	perBank  int
	used     []int
	reserved bool // used holds a claim made since the last Reset
}

// NewLEVTArbiter builds an arbiter with the per-bank port budget of
// cfg (0 = unconstrained).
func NewLEVTArbiter(cfg Config) *LEVTArbiter {
	return &LEVTArbiter{perBank: cfg.LEVTReadPortsPerBank, used: make([]int, cfg.Banks)}
}

// Reset starts a new cycle. Commit calls it every cycle, and in most
// of them — always, with unconstrained ports — nothing was reserved.
func (a *LEVTArbiter) Reset() {
	if !a.reserved {
		return
	}
	a.reserved = false
	for i := range a.used {
		a.used[i] = 0
	}
}

// TryReserve atomically claims one read port in each listed bank
// (duplicates claim multiple ports in that bank). It reports false —
// reserving nothing — if any bank would exceed its budget.
func (a *LEVTArbiter) TryReserve(banks ...int) bool {
	if a.perBank <= 0 {
		return true
	}
	for i, b := range banks {
		need := 1
		for _, prev := range banks[:i] {
			if prev == b {
				need++
			}
		}
		if a.used[b]+need > a.perBank {
			return false
		}
	}
	for _, b := range banks {
		a.used[b]++
	}
	a.reserved = true
	return true
}

// PortCost estimates the PRF area factor (R+W)*(R+2W) from Zyuban &
// Kogge, which Section 6 uses to argue EOLE's PRF is ~4x cheaper than
// a naive VP PRF. R and W are per-bank port counts.
func PortCost(reads, writes int) int { return (reads + writes) * (reads + 2*writes) }
