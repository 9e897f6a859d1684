package timeline

import (
	"air/internal/obs"
	"air/internal/tick"
)

// FlightFrame is one flight-data-recorder sample: derived analyzer state
// captured at a partition window activation. Frames are fixed-size value
// records so capture never allocates.
type FlightFrame struct {
	Time      tick.Ticks `json:"time"`
	Core      int        `json:"core,omitempty"`
	Partition string     `json:"partition"`

	// Supply accounting of the activated partition at capture time.
	Supplied      uint64     `json:"suppliedTicks"`
	CycleSupplied tick.Ticks `json:"cycleSupplied"`
	Shortfalls    uint64     `json:"shortfalls,omitempty"`

	// Module-wide activation pressure at capture time.
	OpenActivations int        `json:"openActivations"`
	WarnedOpen      int        `json:"warnedOpen,omitempty"`
	MinSlack        tick.Ticks `json:"minSlack"` // worst remaining slack; -1 when nothing is open
	DeadlineMisses  uint64     `json:"deadlineMisses,omitempty"`
	EarlyWarnings   uint64     `json:"earlyWarnings,omitempty"`
}

// FlightCause is the HM report that froze the recorder, rendered with
// symbolic names for the post-mortem JSON.
type FlightCause struct {
	Time      tick.Ticks `json:"time"`
	Core      int        `json:"core,omitempty"`
	Partition string     `json:"partition,omitempty"`
	Process   string     `json:"process,omitempty"`
	Detail    string     `json:"detail,omitempty"`
	Code      string     `json:"code,omitempty"`
	Level     string     `json:"level,omitempty"`
	Action    string     `json:"action,omitempty"`
}

// FlightDump is the post-mortem artifact served at /flight: the last N
// window-activation frames leading up to the first Health Monitor error (or
// up to now when no error occurred).
type FlightDump struct {
	Frozen bool          `json:"frozen"`
	Cause  *FlightCause  `json:"cause,omitempty"`
	Frames []FlightFrame `json:"frames"`
	// DroppedFrames counts captures the bounded ring evicted to make room —
	// how much pre-error history scrolled away before the dump (frozen at
	// the freeze instant when an HM error occurred).
	DroppedFrames uint64 `json:"droppedFrames,omitempty"`
}

// flight is the bounded recorder. All storage is preallocated at New time:
// the live ring overwrites oldest-first, and the first HM report copies the
// ring into the frozen buffer so later window activations cannot scroll the
// pre-error history away.
type flight struct {
	ring    []FlightFrame
	head, n int

	// dropped counts ring evictions; frozenDropped pins the count at the
	// freeze instant so post-error captures don't inflate the post-mortem.
	dropped       uint64
	frozenDropped uint64

	frozen  []FlightFrame
	frozenN int
	hasErr  bool
	cause   obs.Event
}

func newFlight(frames int) *flight {
	return &flight{
		ring:   make([]FlightFrame, frames),
		frozen: make([]FlightFrame, frames),
	}
}

// capture records one frame. Called with the analyzer's mutex held, after
// advance(), on every window activation.
//
//air:hotpath
//air:allow(guard): Emit calls capture with t.mu held; //air:locked can only name the receiver's own mutex, not a parameter's
func (f *flight) capture(t *Timeline, e obs.Event) {
	fr := FlightFrame{
		Time:           e.Time,
		Core:           e.Core,
		Partition:      string(e.Partition),
		MinSlack:       -1,
		DeadlineMisses: t.misses,
		EarlyWarnings:  t.warnings,
	}
	if ps, ok := t.parts[partKey{core: e.Core, name: e.Partition}]; ok {
		fr.Supplied = ps.supplied
		fr.CycleSupplied = ps.suppliedCycle
		fr.Shortfalls = ps.shortfalls
	}
	for _, st := range t.procList {
		if !st.open {
			continue
		}
		fr.OpenActivations++
		if st.warned {
			fr.WarnedOpen++
		}
		if st.hasDeadline {
			if s := st.deadline - e.Time; fr.MinSlack < 0 || s < fr.MinSlack {
				fr.MinSlack = s
			}
		}
	}
	f.ring[f.head] = fr
	f.head = (f.head + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	} else {
		f.dropped++
	}
}

// noteError freezes the recorder on the first HM report: the ring is copied
// (oldest-first) into the preallocated frozen buffer and the triggering
// event retained as the cause.
//
//air:hotpath
func (f *flight) noteError(e obs.Event) {
	if f.hasErr {
		return
	}
	f.hasErr = true
	f.cause = e
	f.frozenN = f.n
	f.frozenDropped = f.dropped
	start := (f.head - f.n + len(f.ring)) % len(f.ring)
	for i := 0; i < f.n; i++ {
		f.frozen[i] = f.ring[(start+i)%len(f.ring)]
	}
}

// dump renders the recorder state. Called with the analyzer's mutex held.
func (f *flight) dump() FlightDump {
	d := FlightDump{Frozen: f.hasErr, Frames: []FlightFrame{}, DroppedFrames: f.dropped}
	if f.hasErr {
		d.DroppedFrames = f.frozenDropped
		d.Frames = append(d.Frames, f.frozen[:f.frozenN]...)
		d.Cause = &FlightCause{
			Time:      f.cause.Time,
			Core:      f.cause.Core,
			Partition: string(f.cause.Partition),
			Process:   f.cause.Process,
			Detail:    f.cause.Detail,
			Code:      f.cause.Code,
			Level:     f.cause.Level,
			Action:    f.cause.Action,
		}
		return d
	}
	start := (f.head - f.n + len(f.ring)) % len(f.ring)
	for i := 0; i < f.n; i++ {
		d.Frames = append(d.Frames, f.ring[(start+i)%len(f.ring)])
	}
	return d
}

// Flight returns the flight-data recorder's post-mortem dump: the retained
// window-activation frames, frozen at the first Health Monitor error when
// one occurred.
func (t *Timeline) Flight() FlightDump {
	if t == nil {
		return FlightDump{Frames: []FlightFrame{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fdr.dump()
}
