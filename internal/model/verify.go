package model

import (
	"fmt"
	"sort"
	"strings"

	"air/internal/tick"
)

// ViolationCode classifies a verification finding against the equation (or
// structural constraint) it violates.
type ViolationCode string

// Violation codes. Codes referencing equations use the mode-based-schedule
// numbering of Sect. 4.1; the single-schedule forms (5)–(9) are the special
// case n(χ)=1.
const (
	// CodeWindowOrder: eq. (21) first clause — windows intersect or are out
	// of offset order.
	CodeWindowOrder ViolationCode = "EQ21_WINDOW_ORDER"
	// CodeWindowBeyondMTF: eq. (21) second clause — a window extends past
	// the MTF boundary.
	CodeWindowBeyondMTF ViolationCode = "EQ21_WINDOW_BEYOND_MTF"
	// CodeWindowShape: structural — non-positive duration or negative
	// offset.
	CodeWindowShape ViolationCode = "WINDOW_SHAPE"
	// CodeMTFNotMultiple: eq. (22) — MTF is not a positive multiple of the
	// lcm of the schedule's partition cycles.
	CodeMTFNotMultiple ViolationCode = "EQ22_MTF_NOT_MULTIPLE"
	// CodeBudgetPerCycle: eq. (23) — some cycle instance of a partition
	// receives less window time than its assigned duration d.
	CodeBudgetPerCycle ViolationCode = "EQ23_BUDGET_PER_CYCLE"
	// CodeBudgetAggregate: eq. (8) — total window time over the MTF is less
	// than d·MTF/η. Implied by eq. (23); reported separately because the
	// paper stresses (8) is necessary but not sufficient.
	CodeBudgetAggregate ViolationCode = "EQ8_BUDGET_AGGREGATE"
	// CodeUnknownPartition: eq. (20) side condition — a window or
	// requirement references a partition outside P or outside Q_i.
	CodeUnknownPartition ViolationCode = "UNKNOWN_PARTITION"
	// CodeNoWindow: a requirement with positive budget has no window.
	CodeNoWindow ViolationCode = "NO_WINDOW"
	// CodeDuplicateRequirement: a partition appears more than once in Q_i.
	CodeDuplicateRequirement ViolationCode = "DUPLICATE_REQUIREMENT"
	// CodeCycleShape: structural — requirement cycle not positive, cycle
	// larger than MTF, or negative budget.
	CodeCycleShape ViolationCode = "CYCLE_SHAPE"
	// CodeNoSchedules: the system defines no scheduling table at all.
	CodeNoSchedules ViolationCode = "NO_SCHEDULES"
	// CodeDuplicateSchedule: two schedules share a name.
	CodeDuplicateSchedule ViolationCode = "DUPLICATE_SCHEDULE"
	// CodeDuplicatePartition: a partition name appears twice in P.
	CodeDuplicatePartition ViolationCode = "DUPLICATE_PARTITION"
)

// Violation is one verification finding.
type Violation struct {
	Code      ViolationCode
	Schedule  string // schedule name, empty for system-level findings
	Partition PartitionName
	Detail    string
}

// String renders the violation for reports.
func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(string(v.Code))
	if v.Schedule != "" {
		fmt.Fprintf(&b, " schedule=%s", v.Schedule)
	}
	if v.Partition != "" {
		fmt.Fprintf(&b, " partition=%s", v.Partition)
	}
	if v.Detail != "" {
		b.WriteString(": ")
		b.WriteString(v.Detail)
	}
	return b.String()
}

// Report is the outcome of verifying a System.
type Report struct {
	Violations []Violation
}

// OK reports whether verification found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Has reports whether the report contains a violation with the given code.
func (r *Report) Has(code ViolationCode) bool {
	for _, v := range r.Violations {
		if v.Code == code {
			return true
		}
	}
	return false
}

// String renders the report, one violation per line, or "OK".
func (r *Report) String() string {
	if r.OK() {
		return "OK"
	}
	lines := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		lines[i] = v.String()
	}
	return strings.Join(lines, "\n")
}

func (r *Report) add(code ViolationCode, schedule string, p PartitionName, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Code:      code,
		Schedule:  schedule,
		Partition: p,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Verify checks the complete system against the formal model: structural
// well-formedness, eq. (21) window ordering, eq. (22) MTF multiplicity and
// eq. (23) per-cycle budgets (which implies eq. (8)) for every schedule.
func Verify(sys *System) *Report {
	r := &Report{}
	seenPart := make(map[PartitionName]bool, len(sys.Partitions))
	for _, p := range sys.Partitions {
		if seenPart[p] {
			r.add(CodeDuplicatePartition, "", p, "partition listed more than once in P")
		}
		seenPart[p] = true
	}
	if len(sys.Schedules) == 0 {
		r.add(CodeNoSchedules, "", "", "system defines no partition scheduling table")
	}
	seenSched := make(map[string]bool, len(sys.Schedules))
	for i := range sys.Schedules {
		s := &sys.Schedules[i]
		if seenSched[s.Name] {
			r.add(CodeDuplicateSchedule, s.Name, "", "schedule name reused")
		}
		seenSched[s.Name] = true
		verifySchedule(sys, s, r)
	}
	return r
}

func verifySchedule(sys *System, s *Schedule, r *Report) {
	checkRequirements(sys, s, r)
	checkWindowShape(sys, s, r)
	checkWindowOrdering(s, r) // eq. (21)
	checkMTFMultiple(s, r)    // eq. (22)
	checkBudgets(s, r)        // eq. (23) and eq. (8)
}

func checkRequirements(sys *System, s *Schedule, r *Report) {
	seen := make(map[PartitionName]bool, len(s.Requirements))
	for _, q := range s.Requirements {
		if !sys.HasPartition(q.Partition) {
			r.add(CodeUnknownPartition, s.Name, q.Partition,
				"requirement references partition outside P")
		}
		if seen[q.Partition] {
			r.add(CodeDuplicateRequirement, s.Name, q.Partition,
				"partition appears more than once in Q")
		}
		seen[q.Partition] = true
		if q.Cycle <= 0 {
			r.add(CodeCycleShape, s.Name, q.Partition,
				"activation cycle η=%d must be positive", q.Cycle)
			continue
		}
		if q.Cycle > s.MTF {
			r.add(CodeCycleShape, s.Name, q.Partition,
				"activation cycle η=%d exceeds MTF=%d", q.Cycle, s.MTF)
		}
		if q.Budget < 0 {
			r.add(CodeCycleShape, s.Name, q.Partition,
				"duration d=%d must be non-negative", q.Budget)
		}
		if q.Budget > q.Cycle {
			r.add(CodeCycleShape, s.Name, q.Partition,
				"duration d=%d exceeds activation cycle η=%d", q.Budget, q.Cycle)
		}
		if q.Budget > 0 && len(s.WindowsOf(q.Partition)) == 0 {
			r.add(CodeNoWindow, s.Name, q.Partition,
				"requirement d=%d has no execution time window", q.Budget)
		}
	}
}

func checkWindowShape(sys *System, s *Schedule, r *Report) {
	for j, w := range s.Windows {
		if w.Duration <= 0 {
			r.add(CodeWindowShape, s.Name, w.Partition,
				"window %d duration c=%d must be positive", j, w.Duration)
		}
		if w.Offset < 0 {
			r.add(CodeWindowShape, s.Name, w.Partition,
				"window %d offset O=%d must be non-negative", j, w.Offset)
		}
		if _, ok := s.Requirement(w.Partition); !ok {
			// eq. (20): P^ω_{i,j} ∈ Q_i.
			r.add(CodeUnknownPartition, s.Name, w.Partition,
				"window %d references partition outside Q", j)
		}
	}
}

// checkWindowOrdering verifies eq. (21): windows do not intersect and are
// fully contained within one MTF.
func checkWindowOrdering(s *Schedule, r *Report) {
	for j := 0; j < len(s.Windows)-1; j++ {
		w, next := s.Windows[j], s.Windows[j+1]
		if w.End() > next.Offset {
			r.add(CodeWindowOrder, s.Name, w.Partition,
				"O_%d + c_%d = %d > O_%d = %d", j, j, w.End(), j+1, next.Offset)
		}
	}
	if n := len(s.Windows); n > 0 {
		last := s.Windows[n-1]
		if last.End() > s.MTF {
			r.add(CodeWindowBeyondMTF, s.Name, last.Partition,
				"O_%d + c_%d = %d > MTF = %d", n-1, n-1, last.End(), s.MTF)
		}
	}
}

// checkMTFMultiple verifies eq. (22): MTF_i = k_i × lcm over Q_i of η, k ∈ ℕ.
func checkMTFMultiple(s *Schedule, r *Report) {
	cycles := make([]tick.Ticks, 0, len(s.Requirements))
	for _, q := range s.Requirements {
		if q.Cycle > 0 {
			cycles = append(cycles, q.Cycle)
		}
	}
	if len(cycles) == 0 {
		return
	}
	l, err := tick.LCMAll(cycles)
	if err != nil {
		r.add(CodeMTFNotMultiple, s.Name, "", "lcm overflow: %v", err)
		return
	}
	if s.MTF <= 0 || l == 0 || s.MTF%l != 0 {
		r.add(CodeMTFNotMultiple, s.Name, "",
			"MTF=%d is not a positive multiple of lcm(η)=%d", s.MTF, l)
	}
}

// checkBudgets verifies eq. (23) — each partition receives at least d window
// time within every one of its MTF/η activation cycles — and eq. (8), the
// weaker aggregate condition, reported separately so that integrators can see
// when a table passes (8) yet fails (23).
func checkBudgets(s *Schedule, r *Report) {
	for _, q := range s.Requirements {
		if q.Cycle <= 0 || q.Budget <= 0 {
			continue
		}
		if s.MTF%q.Cycle != 0 {
			// Reported by checkMTFMultiple; the k-range in (23) is
			// ill-defined here, so skip.
			continue
		}
		// eq. (8): aggregate.
		supplied := s.SuppliedTime(q.Partition)
		needed := q.Budget * (s.MTF / q.Cycle)
		if supplied < needed {
			r.add(CodeBudgetAggregate, s.Name, q.Partition,
				"Σc = %d < d·MTF/η = %d", supplied, needed)
		}
		// eq. (23): per cycle instance.
		for _, cs := range CycleSupplies(s, q) {
			if cs.Supplied < q.Budget {
				r.add(CodeBudgetPerCycle, s.Name, q.Partition,
					"cycle k=%d [%d;%d[: Σc = %d < d = %d",
					cs.K, cs.Start, cs.End, cs.Supplied, q.Budget)
			}
		}
	}
}

// CycleSupply is the window time supplied to a partition within one
// activation cycle instance k, i.e. the left-hand side of eq. (23).
type CycleSupply struct {
	K        int
	Start    tick.Ticks // k·η
	End      tick.Ticks // (k+1)·η
	Windows  []Window   // windows with offset in [Start; End[
	Supplied tick.Ticks // Σ c over Windows
}

// CycleSupplies computes, for requirement q under schedule s, the supplied
// window time in each of the MTF/η cycles completed inside one MTF. Windows
// are attributed to the cycle containing their offset, exactly as the
// summation condition O ∈ [kη; (k+1)η[ of eq. (23) prescribes.
func CycleSupplies(s *Schedule, q Requirement) []CycleSupply {
	if q.Cycle <= 0 || s.MTF <= 0 || s.MTF%q.Cycle != 0 {
		return nil
	}
	n := int(s.MTF / q.Cycle)
	out := make([]CycleSupply, n)
	for k := 0; k < n; k++ {
		out[k] = CycleSupply{
			K:     k,
			Start: tick.Ticks(k) * q.Cycle,
			End:   tick.Ticks(k+1) * q.Cycle,
		}
	}
	for _, w := range s.WindowsOf(q.Partition) {
		k := int(w.Offset / q.Cycle)
		if k < 0 || k >= n {
			continue
		}
		out[k].Windows = append(out[k].Windows, w)
		out[k].Supplied += w.Duration
	}
	return out
}

// SortWindows orders windows by offset, breaking ties by partition name, so
// that integrator-supplied tables can be normalised before verification.
func SortWindows(windows []Window) {
	sort.SliceStable(windows, func(i, j int) bool {
		if windows[i].Offset != windows[j].Offset {
			return windows[i].Offset < windows[j].Offset
		}
		return windows[i].Partition < windows[j].Partition
	})
}
