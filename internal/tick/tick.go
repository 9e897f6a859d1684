// Package tick provides the logical time base of the AIR simulation.
//
// Every temporal quantity in the AIR architecture — major time frames,
// window offsets and durations, process periods, time capacities and
// deadlines — is expressed in system clock ticks, exactly as in the paper's
// Algorithms 1–3. Using a dedicated integral tick domain (rather than
// time.Duration) keeps the simulation deterministic and makes the formal
// model equations (6)–(24) directly computable without rounding concerns.
package tick

import (
	"fmt"
	"strconv"
)

// Ticks is a count of logical system clock ticks. It is used both for
// instants (ticks elapsed since module start) and for durations.
type Ticks int64

// Infinity represents an unbounded duration. A process with relative
// deadline Infinity has no deadline (D_{m,q} = ∞ in the system model), which
// exempts it from deadline violation monitoring per eq. (24).
const Infinity Ticks = 1<<63 - 1

// String renders the tick count, using "∞" for Infinity.
func (t Ticks) String() string {
	if t == Infinity {
		return "∞"
	}
	return strconv.FormatInt(int64(t), 10)
}

// IsInfinite reports whether t is the unbounded sentinel.
//
//air:hotpath
func (t Ticks) IsInfinite() bool { return t == Infinity }

// GCD returns the greatest common divisor of a and b. GCD(0, b) = b.
func GCD(a, b Ticks) Ticks {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, with LCM(0, x) = 0.
// It returns an error on overflow, which would silently corrupt major time
// frame computations per eq. (22).
func LCM(a, b Ticks) (Ticks, error) {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	q := a / g
	if q != 0 && b > Infinity/q {
		return 0, fmt.Errorf("tick: lcm(%d, %d) overflows", a, b)
	}
	return q * b, nil
}

// LCMAll returns the least common multiple of all values. An empty input
// yields 1, the neutral element for eq. (22)'s MTF multiplicity check.
func LCMAll(values []Ticks) (Ticks, error) {
	result := Ticks(1)
	for _, v := range values {
		l, err := LCM(result, v)
		if err != nil {
			return 0, err
		}
		result = l
	}
	return result, nil
}

// Min returns the smaller of a and b.
func Min(a, b Ticks) Ticks {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Ticks) Ticks {
	if a > b {
		return a
	}
	return b
}
