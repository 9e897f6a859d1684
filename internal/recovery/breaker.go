package recovery

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	BreakerClosed   BreakerState = iota // admits work and counts failures
	BreakerOpen                         // denies work until the cooldown lapses
	BreakerHalfOpen                     // one probe in flight decides close or reopen
)

// Breaker is the one circuit breaker of the system, generic over its clock:
// the recovery engine drives it in ticks per partition, the fleet
// coordinator in time.Duration offsets per worker shard. Threshold failures
// inside a sliding window trip it open for a cooldown; after the cooldown
// the caller may start one half-open probe. A probe that succeeds closes the
// breaker with a clean account; one that fails reopens it with the cooldown
// doubled, up to a cap. What counts as a failure and how a probe is judged
// stay with the caller, as do its events. Callers serialize access.
type Breaker[T ~int64] struct {
	threshold   int
	span        T
	base        T
	cooldownMax T

	failures []T
	state    BreakerState
	cooldown T
	until    T
}

// NewBreaker configures a closed breaker that trips after threshold failures
// inside span, opening for cooldown (doubled per failed probe, capped at
// cooldownMax when positive). A threshold or span ≤ 0 disables it.
func NewBreaker[T ~int64](threshold int, span, cooldown, cooldownMax T) Breaker[T] {
	return Breaker[T]{threshold: threshold, span: span, base: cooldown, cooldownMax: cooldownMax}
}

// State reports the breaker's position.
func (b *Breaker[T]) State() BreakerState { return b.state }

// Failures counts the failures in the window as of the last Fail.
func (b *Breaker[T]) Failures() int { return len(b.failures) }

// Cooldown is the duration of the current (or last) open period.
func (b *Breaker[T]) Cooldown() T { return b.cooldown }

// Fail records one failure at now on a closed, enabled breaker and reports
// whether it tripped open (threshold failures inside the window). On an open
// or half-open breaker it does nothing.
func (b *Breaker[T]) Fail(now T) bool {
	if b.threshold <= 0 || b.span <= 0 || b.state != BreakerClosed {
		return false
	}
	b.failures = append(slide(b.failures, now, b.span), now)
	if len(b.failures) < b.threshold {
		return false
	}
	b.open(now, b.base)
	return true
}

// ProbeDue reports whether the breaker is open and its cooldown has lapsed.
func (b *Breaker[T]) ProbeDue(now T) bool { return b.state == BreakerOpen && now >= b.until }

// Probe moves the breaker half-open: the caller has launched its probe.
func (b *Breaker[T]) Probe() { b.state = BreakerHalfOpen }

// ProbeFailed reopens the breaker with the cooldown doubled.
func (b *Breaker[T]) ProbeFailed(now T) { b.open(now, doubled(b.cooldown, b.cooldownMax)) }

// Close closes the breaker with a clean failure account: a probe proved
// health, or the protected entity was reset.
func (b *Breaker[T]) Close() {
	b.failures = b.failures[:0]
	b.state = BreakerClosed
	b.cooldown, b.until = 0, 0
}

// Clone returns an independent copy of the breaker.
func (b *Breaker[T]) Clone() Breaker[T] {
	c := *b
	c.failures = append([]T(nil), b.failures...)
	return c
}

func (b *Breaker[T]) open(now, cooldown T) {
	b.state = BreakerOpen
	b.cooldown = cooldown
	b.until = now + cooldown
	b.failures = b.failures[:0]
}

// doubled doubles a cooldown with an optional cap.
func doubled[T ~int64](c, max T) T {
	if c <= 0 {
		return 1
	}
	c *= 2
	if max > 0 && c > max {
		c = max
	}
	return c
}

// slide drops the instants at least span before now from a sliding window
// (oldest first), in place. The breaker's failures and the restart budget's
// grants share it.
func slide[T ~int64](ts []T, now, span T) []T {
	i := 0
	for i < len(ts) && now-ts[i] >= span {
		i++
	}
	return ts[:copy(ts, ts[i:])]
}
