package recovery

import (
	"testing"
	"time"

	"air/internal/tick"
)

// breakerStep is one operation on a breaker at instant at (in clock units)
// and the state it must leave behind.
type breakerStep struct {
	op       string // fail, due, probe, probeFailed, close
	at       int64
	want     bool // result of fail (tripped) or due (probe due)
	state    BreakerState
	failures int
	cooldown int64
}

var breakerCases = []struct {
	name                        string
	threshold                   int
	span, cooldown, cooldownMax int64
	steps                       []breakerStep
}{
	{name: "trip inside the window", threshold: 3, span: 10, cooldown: 5, cooldownMax: 40, steps: []breakerStep{
		{op: "fail", at: 0, state: BreakerClosed, failures: 1},
		{op: "fail", at: 4, state: BreakerClosed, failures: 2},
		{op: "fail", at: 9, want: true, state: BreakerOpen, cooldown: 5},
	}},
	{name: "failures outside the window slide out", threshold: 3, span: 10, cooldown: 5, cooldownMax: 40, steps: []breakerStep{
		{op: "fail", at: 0, state: BreakerClosed, failures: 1},
		{op: "fail", at: 5, state: BreakerClosed, failures: 2},
		{op: "fail", at: 10, state: BreakerClosed, failures: 2},
		{op: "fail", at: 14, want: true, state: BreakerOpen, cooldown: 5},
	}},
	{name: "cooldown then probe success", threshold: 1, span: 10, cooldown: 5, cooldownMax: 40, steps: []breakerStep{
		{op: "fail", at: 0, want: true, state: BreakerOpen, cooldown: 5},
		{op: "fail", at: 1, state: BreakerOpen, cooldown: 5},
		{op: "due", at: 4, state: BreakerOpen, cooldown: 5},
		{op: "due", at: 5, want: true, state: BreakerOpen, cooldown: 5},
		{op: "probe", at: 5, state: BreakerHalfOpen, cooldown: 5},
		{op: "due", at: 9, state: BreakerHalfOpen, cooldown: 5},
		{op: "close", at: 9, state: BreakerClosed},
		{op: "fail", at: 10, want: true, state: BreakerOpen, cooldown: 5},
	}},
	{name: "probe failure doubles up to the cap", threshold: 1, span: 10, cooldown: 5, cooldownMax: 12, steps: []breakerStep{
		{op: "fail", at: 0, want: true, state: BreakerOpen, cooldown: 5},
		{op: "probe", at: 5, state: BreakerHalfOpen, cooldown: 5},
		{op: "probeFailed", at: 6, state: BreakerOpen, cooldown: 10},
		{op: "due", at: 15, state: BreakerOpen, cooldown: 10},
		{op: "due", at: 16, want: true, state: BreakerOpen, cooldown: 10},
		{op: "probe", at: 16, state: BreakerHalfOpen, cooldown: 10},
		{op: "probeFailed", at: 17, state: BreakerOpen, cooldown: 12},
		{op: "probe", at: 29, state: BreakerHalfOpen, cooldown: 12},
		{op: "probeFailed", at: 30, state: BreakerOpen, cooldown: 12},
	}},
	{name: "uncapped doubling", threshold: 1, span: 10, cooldown: 5, steps: []breakerStep{
		{op: "fail", at: 0, want: true, state: BreakerOpen, cooldown: 5},
		{op: "probe", at: 5, state: BreakerHalfOpen, cooldown: 5},
		{op: "probeFailed", at: 5, state: BreakerOpen, cooldown: 10},
		{op: "probe", at: 15, state: BreakerHalfOpen, cooldown: 10},
		{op: "probeFailed", at: 15, state: BreakerOpen, cooldown: 20},
	}},
	{name: "disabled at threshold 0", threshold: 0, span: 10, cooldown: 5, steps: []breakerStep{
		{op: "fail", at: 0, state: BreakerClosed},
		{op: "fail", at: 0, state: BreakerClosed},
	}},
	{name: "disabled at negative threshold", threshold: -1, span: 10, cooldown: 5, steps: []breakerStep{
		{op: "fail", at: 0, state: BreakerClosed},
	}},
	{name: "disabled without a window", threshold: 1, span: 0, cooldown: 5, steps: []breakerStep{
		{op: "fail", at: 0, state: BreakerClosed},
	}},
}

// runBreakerCases drives every case on a breaker whose clock unit is unit.
func runBreakerCases[T ~int64](t *testing.T, unit T) {
	for _, tc := range breakerCases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker(tc.threshold, T(tc.span)*unit, T(tc.cooldown)*unit, T(tc.cooldownMax)*unit)
			for i, s := range tc.steps {
				at := T(s.at) * unit
				var got bool
				switch s.op {
				case "fail":
					got = b.Fail(at)
				case "due":
					got = b.ProbeDue(at)
				case "probe":
					b.Probe()
				case "probeFailed":
					b.ProbeFailed(at)
				case "close":
					b.Close()
				}
				if got != s.want || b.State() != s.state || b.Failures() != s.failures || b.Cooldown() != T(s.cooldown)*unit {
					t.Fatalf("step %d %s@%d: got (%v, state %d, %d failures, cooldown %d), want (%v, state %d, %d failures, cooldown %d)",
						i, s.op, s.at, got, b.State(), b.Failures(), b.Cooldown(),
						s.want, s.state, s.failures, T(s.cooldown)*unit)
				}
			}
		})
	}
	t.Run("clone isolation", func(t *testing.T) {
		// Trip and close once so the failure window's backing array has
		// spare capacity: a shallow copy would then share it.
		b := NewBreaker(2, 10*unit, 5*unit, 0)
		b.Fail(0)
		b.Fail(1 * unit)
		b.Close()
		b.Fail(2 * unit)
		c := b.Clone()
		if !c.Fail(3 * unit) {
			t.Fatal("clone did not trip on its second failure")
		}
		if b.State() != BreakerClosed || b.Failures() != 1 {
			t.Fatalf("original changed with its clone: state %d, %d failures", b.State(), b.Failures())
		}
		c.Close()
		c.Fail(20 * unit)
		// The original's failure at 2 slides out; the clone's at 20 must
		// not have leaked into its window.
		if b.Fail(21*unit) || b.Failures() != 1 {
			t.Fatalf("clone's failures leaked into the original: state %d, %d failures", b.State(), b.Failures())
		}
	})
}

// TestBreaker runs the one breaker table under both clocks it serves: the
// recovery engine's ticks and the fleet coordinator's durations.
func TestBreaker(t *testing.T) {
	t.Run("ticks", func(t *testing.T) { runBreakerCases(t, tick.Ticks(1)) })
	t.Run("duration", func(t *testing.T) { runBreakerCases(t, time.Second) })
}
