// Package schedule is the adaptive budget-allocation layer (ROADMAP item 3,
// EOSFuzzer/ContractFuzzer lineage): pure decision logic for spending a
// fuzzing campaign's iteration budget where it buys coverage, at two levels.
//
// Intra-job, Planner replaces the fuzzer's fixed round-robin with a
// deterministic power schedule: every (payload kind, action) arm carries an
// energy score that doubles when the arm just uncovered new branches and
// halves after a dry streak, and arms are drawn by smooth weighted
// round-robin over those energies — a high-energy arm fires proportionally
// more often, but the energy floor guarantees every arm keeps cycling, so no
// oracle payload is ever starved. Composite arms pair a table's writer with
// a blocked reader (the DBG's writer→reader edges) so dependent transactions
// are explored together.
//
// Inter-job, Reallocate is the campaign fuel ledger: jobs that saturated
// (no coverage delta over the saturation window) return their unspent
// iterations to the campaign, which regrants them to still-progressing jobs
// ordered by observed coverage rate.
//
// Everything here is a pure function of its inputs — no wall clock, no
// unseeded randomness, no map iteration — which is what makes adaptive
// campaigns reproducible at any worker count: the fuzzer feeds the planner
// only per-job observations, and the ledger sees only per-job phase
// summaries, so neither can observe scheduling or timing.
package schedule

// Energy bounds and update cadence of the power schedule. The range is
// deliberately narrow (1..64): the schedule biases the round-robin rather
// than replacing it, so a cold arm at the floor still fires at 1/64 of a hot
// arm's rate — enough to keep every adversary-oracle payload alive.
const (
	// MinEnergy is the floor: no arm is ever starved below it.
	MinEnergy = 1
	// BaseEnergy is a fresh arm's score.
	BaseEnergy = 8
	// MaxEnergy caps the boost of a repeatedly-productive arm.
	MaxEnergy = 64
	// DecayAfter is the dry-streak length (consecutive fires without new
	// coverage) after which an arm's energy halves.
	DecayAfter = 8
)

// Counters are the scheduler's reporting-only statistics. They are excluded
// from campaign digests (like memo counters) but summed into
// campaign.Report so adaptive runs are observable.
type Counters struct {
	// EnergyUpdates counts arm-energy changes (boosts and decays).
	EnergyUpdates int
	// CompositeFired counts composite writer→reader arm executions.
	CompositeFired int
	// SaturationSkips counts iterations not executed because the job
	// stopped at its saturation window — the fuel handed back to the
	// campaign ledger.
	SaturationSkips int
	// FuelReturned and FuelReallocated are the ledger totals: iterations
	// returned by saturated jobs, and the subset regranted to
	// still-progressing jobs (the difference went undistributed — no
	// recipient had headroom).
	FuelReturned    int
	FuelReallocated int
	// SaturatedJobs counts jobs that hit their saturation window.
	SaturatedJobs int
}

// Add accumulates another counter set (campaign aggregation).
func (c *Counters) Add(o Counters) {
	c.EnergyUpdates += o.EnergyUpdates
	c.CompositeFired += o.CompositeFired
	c.SaturationSkips += o.SaturationSkips
	c.FuelReturned += o.FuelReturned
	c.FuelReallocated += o.FuelReallocated
	c.SaturatedJobs += o.SaturatedJobs
}

// Zero reports whether no counter fired (adaptive off, or nothing happened).
func (c Counters) Zero() bool { return c == Counters{} }

// armState is one schedulable arm. The planner never interprets Kind /
// Action / Writer — they are the caller's labels, carried so the fuzzer can
// map a selection back to a payload.
type armState struct {
	kind           int
	action, writer uint64
	energy         int
	credit         int
	dry            int
}

// Planner is the intra-job power schedule: smooth weighted round-robin over
// arm energies. All state is job-local and every method is deterministic,
// so two runs observing the same coverage trace make identical decisions.
type Planner struct {
	arms     []armState
	counters Counters
}

// NewPlanner returns an empty planner; add arms with AddArm.
func NewPlanner() *Planner { return &Planner{} }

// AddArm registers an arm with the given labels and initial energy
// (clamped to [MinEnergy, MaxEnergy]; 0 means BaseEnergy) and returns its
// index. Indices are dense and stable — selection is index-based, never
// map-ordered.
func (p *Planner) AddArm(kind int, action, writer uint64, energy int) int {
	if energy == 0 {
		energy = BaseEnergy
	}
	energy = clampEnergy(energy)
	p.arms = append(p.arms, armState{kind: kind, action: action, writer: writer, energy: energy})
	return len(p.arms) - 1
}

// Arms returns the number of registered arms.
func (p *Planner) Arms() int { return len(p.arms) }

// Arm returns the labels arm i was registered with.
func (p *Planner) Arm(i int) (kind int, action, writer uint64) {
	a := &p.arms[i]
	return a.kind, a.action, a.writer
}

// Energy returns arm i's current energy (tests and reporting).
func (p *Planner) Energy(i int) int { return p.arms[i].energy }

// HasArm reports whether an arm with exactly these labels exists. Linear
// scan over a handful of arms — allocation-free, and the arm count is
// bounded by actions + composite pairs.
func (p *Planner) HasArm(kind int, action, writer uint64) bool {
	for i := range p.arms {
		a := &p.arms[i]
		if a.kind == kind && a.action == action && a.writer == writer {
			return true
		}
	}
	return false
}

// Next picks the next arm by smooth weighted round-robin: every arm's
// credit grows by its energy, the highest credit fires (ties to the lowest
// index), and the winner pays the total energy back. Over any window the
// fire counts converge to the energy proportions, and the sequence is a
// pure function of the energy history.
func (p *Planner) Next() int {
	best, total := 0, 0
	for i := range p.arms {
		a := &p.arms[i]
		a.credit += a.energy
		total += a.energy
		if a.credit > p.arms[best].credit {
			best = i
		}
	}
	p.arms[best].credit -= total
	return best
}

// Observe feeds the outcome of firing arm i back into the schedule: new
// coverage doubles the arm's energy and clears its dry streak; a dry streak
// of DecayAfter consecutive fires halves it (exponential decay toward the
// floor).
func (p *Planner) Observe(i int, newCoverage bool) {
	a := &p.arms[i]
	if newCoverage {
		if e := clampEnergy(a.energy * 2); e != a.energy {
			a.energy = e
			p.counters.EnergyUpdates++
		}
		a.dry = 0
		return
	}
	a.dry++
	if a.dry >= DecayAfter {
		a.dry = 0
		if e := clampEnergy(a.energy / 2); e != a.energy {
			a.energy = e
			p.counters.EnergyUpdates++
		}
	}
}

// CompositeFired records one composite writer→reader execution.
func (p *Planner) CompositeFired() { p.counters.CompositeFired++ }

// SaturationSkipped records n iterations the job handed back to the
// campaign ledger instead of executing.
func (p *Planner) SaturationSkipped(n int) { p.counters.SaturationSkips += n }

// Counters returns the planner's accumulated statistics.
func (p *Planner) Counters() Counters { return p.counters }

func clampEnergy(e int) int {
	if e < MinEnergy {
		return MinEnergy
	}
	if e > MaxEnergy {
		return MaxEnergy
	}
	return e
}
