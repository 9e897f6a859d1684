package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"air/internal/hm"
	"air/internal/obs"
)

// hmRecord is the JSON shape of an exported health-monitoring event.
type hmRecord struct {
	Time      int64  `json:"t"`
	Code      string `json:"code"`
	Level     string `json:"level"`
	Partition string `json:"partition,omitempty"`
	Process   string `json:"process,omitempty"`
	Action    string `json:"action"`
	Message   string `json:"message,omitempty"`
}

// WriteTrace streams the module trace as JSON lines in the unified spine
// record format (obs.Record) — one event per line — for offline analysis
// tooling (timelines, dashboards, diffing runs).
func (m *Module) WriteTrace(w io.Writer) error {
	return obs.EncodeEvents(w, m.Trace())
}

// EncodeHealthLog streams health-monitoring events as JSON lines.
func EncodeHealthLog(w io.Writer, events []hm.Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		rec := hmRecord{
			Time:      int64(e.Time),
			Code:      e.Code.String(),
			Level:     e.Level.String(),
			Partition: string(e.Partition),
			Process:   e.Process,
			Action:    e.Action.String(),
			Message:   e.Message,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("core: export health log: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: export health log: %w", err)
	}
	return nil
}

// WriteHealthLog streams the health monitor log as JSON lines.
func (m *Module) WriteHealthLog(w io.Writer) error {
	return EncodeHealthLog(w, m.health.Events())
}
