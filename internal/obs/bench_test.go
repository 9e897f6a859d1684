package obs

import (
	"io"
	"testing"
)

// BenchmarkEmitNoSink measures the always-on cost of the spine: metrics
// observation with zero sinks attached. This is the path every module tick
// pays, so it must report 0 allocs/op.
func BenchmarkEmitNoSink(b *testing.B) {
	bus := NewBus()
	e := Event{Time: 42, Kind: KindDeadlineMiss, Partition: "P1", Process: "ctl", Latency: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time++
		bus.Emit(e)
	}
}

// BenchmarkEmitRingSink measures steady-state emission into a full circular
// ring — the default module trace configuration. Also 0 allocs/op: the ring
// is filled, and so done growing, before the timer starts.
func BenchmarkEmitRingSink(b *testing.B) {
	bus := NewBus()
	bus.Attach(NewRing(DefaultTraceCapacity))
	e := Event{Time: 42, Kind: KindPartitionSwitch, Partition: "P1", Detail: "window"}
	for i := 0; i < DefaultTraceCapacity; i++ {
		bus.Emit(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time++
		bus.Emit(e)
	}
}

// BenchmarkEmitJSONLSink measures streaming export cost per event.
func BenchmarkEmitJSONLSink(b *testing.B) {
	bus := NewBus()
	bus.Attach(NewJSONLSink(io.Discard))
	e := Event{Time: 42, Kind: KindPortSend, Partition: "P1", Process: "out", Detail: "ch"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time++
		bus.Emit(e)
	}
}

// BenchmarkRingEvents measures the copy-out accessor at trace capacity.
func BenchmarkRingEvents(b *testing.B) {
	r := NewRing(4096)
	for i := 0; i < 5000; i++ {
		r.Emit(Event{Time: 1, Kind: KindPartitionSwitch})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Events()) != 4096 {
			b.Fatal("bad length")
		}
	}
}
