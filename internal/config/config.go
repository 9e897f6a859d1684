// Package config implements the integration-time configuration of an AIR
// module (paper Sect. 2.1: "spatial partitioning requirements (specified in
// AIR and ARINC 653 configuration files with the assistance of development
// tools support)"; Sect. 4: "the system configuration and integration
// process is extended [with] definition of multiple schedules ... and
// inclusion of restart actions").
//
// The on-disk format is JSON (the ARINC 653 standard uses XML; JSON carries
// the same structure with stdlib-only parsing). Loading a configuration
// always verifies it against the formal model of Sect. 3/4.1 before handing
// it to the kernel — misconfigured systems are rejected at integration time.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"air/internal/ipc"
	"air/internal/model"
	"air/internal/tick"
)

// Module is the root configuration document.
type Module struct {
	Name       string      `json:"name"`
	Partitions []Partition `json:"partitions"`
	Schedules  []Schedule  `json:"schedules"`
	Sampling   []Sampling  `json:"samplingChannels,omitempty"`
	Queuing    []Queuing   `json:"queuingChannels,omitempty"`
	// MemoryBytes sizes the simulated physical memory (0 = default).
	MemoryBytes int `json:"memoryBytes,omitempty"`
}

// Partition configures one partition.
type Partition struct {
	Name string `json:"name"`
	// System marks a system partition (authorized for module services).
	System bool `json:"system,omitempty"`
	// Policy is "priority" (default) or "round-robin".
	Policy string `json:"policy,omitempty"`
	// DeadlineQueue is empty or "list" for the paper's sorted linked list
	// (default), or "tree" for the AVL tree (Sect. 5.3 ablation).
	DeadlineQueue string `json:"deadlineQueue,omitempty"`
	// Processes declares the partition's task set for offline analysis.
	Processes []Process `json:"processes,omitempty"`
}

// Process declares the static attributes of eq. (11) for analysis tools.
type Process struct {
	Name     string `json:"name"`
	Period   int64  `json:"periodTicks,omitempty"`
	Deadline int64  `json:"deadlineTicks"` // 0 or negative = no deadline (∞)
	Priority int    `json:"priority"`
	WCET     int64  `json:"wcetTicks"`
	Periodic bool   `json:"periodic,omitempty"`
}

// Schedule configures one partition scheduling table χ_i.
type Schedule struct {
	Name         string        `json:"name"`
	MTF          int64         `json:"mtfTicks"`
	Requirements []Requirement `json:"requirements"`
	Windows      []Window      `json:"windows"`
}

// Requirement is Q_{i,m} = ⟨P, η, d⟩ plus the per-schedule restart action.
type Requirement struct {
	Partition string `json:"partition"`
	Cycle     int64  `json:"cycleTicks"`
	Budget    int64  `json:"budgetTicks"`
	// ChangeAction is "", "SKIP", "WARM_START" or "COLD_START".
	ChangeAction string `json:"scheduleChangeAction,omitempty"`
}

// Window is ω_{i,j} = ⟨P, O, c⟩.
type Window struct {
	Partition string `json:"partition"`
	Offset    int64  `json:"offsetTicks"`
	Duration  int64  `json:"durationTicks"`
}

// PortRef names one channel endpoint.
type PortRef struct {
	Partition string `json:"partition"`
	Port      string `json:"port"`
}

// Sampling configures a sampling channel.
type Sampling struct {
	Name         string    `json:"name"`
	MaxMessage   int       `json:"maxMessageBytes"`
	Refresh      int64     `json:"refreshTicks,omitempty"`
	Latency      int64     `json:"latencyTicks,omitempty"`
	Source       PortRef   `json:"source"`
	Destinations []PortRef `json:"destinations"`
}

// Queuing configures a queuing channel.
type Queuing struct {
	Name        string  `json:"name"`
	MaxMessage  int     `json:"maxMessageBytes"`
	Depth       int     `json:"depth"`
	Latency     int64   `json:"latencyTicks,omitempty"`
	Source      PortRef `json:"source"`
	Destination PortRef `json:"destination"`
}

// Parse decodes a JSON configuration document.
func Parse(data []byte) (*Module, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Module
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("config: parse: %w", err)
	}
	return &m, nil
}

// Load reads and parses a configuration file.
func Load(path string) (*Module, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Save encodes the configuration as indented JSON.
func (m *Module) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ToModel translates the configuration into the formal system model. It
// does not verify — call Verify (or model.Verify on the result).
func (m *Module) ToModel() (*model.System, error) {
	sys := &model.System{}
	for _, p := range m.Partitions {
		sys.Partitions = append(sys.Partitions, model.PartitionName(p.Name))
	}
	for _, s := range m.Schedules {
		sch := model.Schedule{Name: s.Name, MTF: tick.Ticks(s.MTF)}
		for _, q := range s.Requirements {
			action, err := parseChangeAction(q.ChangeAction)
			if err != nil {
				return nil, err
			}
			sch.Requirements = append(sch.Requirements, model.Requirement{
				Partition:    model.PartitionName(q.Partition),
				Cycle:        tick.Ticks(q.Cycle),
				Budget:       tick.Ticks(q.Budget),
				ChangeAction: action,
			})
		}
		for _, w := range s.Windows {
			sch.Windows = append(sch.Windows, model.Window{
				Partition: model.PartitionName(w.Partition),
				Offset:    tick.Ticks(w.Offset),
				Duration:  tick.Ticks(w.Duration),
			})
		}
		model.SortWindows(sch.Windows)
		sys.Schedules = append(sys.Schedules, sch)
	}
	return sys, nil
}

func parseChangeAction(s string) (model.ScheduleChangeAction, error) {
	switch s {
	case "", "SKIP":
		return model.ActionSkip, nil
	case "WARM_START":
		return model.ActionWarmStart, nil
	case "COLD_START":
		return model.ActionColdStart, nil
	default:
		return 0, fmt.Errorf("config: unknown schedule change action %q", s)
	}
}

// TaskSets translates the declared processes into model task sets for the
// schedulability analysis tools.
func (m *Module) TaskSets() ([]model.TaskSet, error) {
	var out []model.TaskSet
	for _, p := range m.Partitions {
		ts := model.TaskSet{Partition: model.PartitionName(p.Name)}
		for _, proc := range p.Processes {
			deadline := tick.Ticks(proc.Deadline)
			if deadline <= 0 {
				deadline = tick.Infinity
			}
			ts.Tasks = append(ts.Tasks, model.TaskSpec{
				Name:         proc.Name,
				Period:       tick.Ticks(proc.Period),
				Deadline:     deadline,
				BasePriority: model.Priority(proc.Priority),
				WCET:         tick.Ticks(proc.WCET),
				Periodic:     proc.Periodic,
			})
		}
		if err := ts.Validate(); err != nil {
			return nil, fmt.Errorf("config: partition %s: %w", p.Name, err)
		}
		out = append(out, ts)
	}
	return out, nil
}

// SamplingConfigs translates the sampling channel configurations.
func (m *Module) SamplingConfigs() []ipc.SamplingConfig {
	var out []ipc.SamplingConfig
	for _, s := range m.Sampling {
		cfg := ipc.SamplingConfig{
			Name:       s.Name,
			MaxMessage: s.MaxMessage,
			Refresh:    tick.Ticks(s.Refresh),
			Latency:    tick.Ticks(s.Latency),
			Source: ipc.PortRef{
				Partition: model.PartitionName(s.Source.Partition),
				Port:      s.Source.Port,
			},
		}
		for _, d := range s.Destinations {
			cfg.Destinations = append(cfg.Destinations, ipc.PortRef{
				Partition: model.PartitionName(d.Partition), Port: d.Port,
			})
		}
		out = append(out, cfg)
	}
	return out
}

// QueuingConfigs translates the queuing channel configurations.
func (m *Module) QueuingConfigs() []ipc.QueuingConfig {
	var out []ipc.QueuingConfig
	for _, q := range m.Queuing {
		out = append(out, ipc.QueuingConfig{
			Name:       q.Name,
			MaxMessage: q.MaxMessage,
			Depth:      q.Depth,
			Latency:    tick.Ticks(q.Latency),
			Source: ipc.PortRef{
				Partition: model.PartitionName(q.Source.Partition),
				Port:      q.Source.Port,
			},
			Destination: ipc.PortRef{
				Partition: model.PartitionName(q.Destination.Partition),
				Port:      q.Destination.Port,
			},
		})
	}
	return out
}

// Verify translates to the model and runs full verification, additionally
// checking channel endpoint references.
func (m *Module) Verify() (*model.System, *model.Report, error) {
	sys, err := m.ToModel()
	if err != nil {
		return nil, nil, err
	}
	report := model.Verify(sys)
	for _, s := range m.Sampling {
		if !sys.HasPartition(model.PartitionName(s.Source.Partition)) {
			report.Violations = append(report.Violations, model.Violation{
				Code: model.CodeUnknownPartition, Schedule: "",
				Partition: model.PartitionName(s.Source.Partition),
				Detail:    fmt.Sprintf("sampling channel %s source", s.Name),
			})
		}
		for _, d := range s.Destinations {
			if !sys.HasPartition(model.PartitionName(d.Partition)) {
				report.Violations = append(report.Violations, model.Violation{
					Code:      model.CodeUnknownPartition,
					Partition: model.PartitionName(d.Partition),
					Detail:    fmt.Sprintf("sampling channel %s destination", s.Name),
				})
			}
		}
	}
	for _, q := range m.Queuing {
		for _, ref := range []PortRef{q.Source, q.Destination} {
			if !sys.HasPartition(model.PartitionName(ref.Partition)) {
				report.Violations = append(report.Violations, model.Violation{
					Code:      model.CodeUnknownPartition,
					Partition: model.PartitionName(ref.Partition),
					Detail:    fmt.Sprintf("queuing channel %s endpoint", q.Name),
				})
			}
		}
	}
	return sys, report, nil
}

// Fig8Module returns the paper's Fig. 8 prototype as a configuration
// document (the config-file twin of model.Fig8System, with P1 as the system
// partition and the satellite channels used by the examples).
func Fig8Module() *Module {
	reqs := func() []Requirement {
		return []Requirement{
			{Partition: "P1", Cycle: 1300, Budget: 200},
			{Partition: "P2", Cycle: 650, Budget: 100},
			{Partition: "P3", Cycle: 650, Budget: 100},
			{Partition: "P4", Cycle: 1300, Budget: 100},
		}
	}
	return &Module{
		Name: "air-fig8-prototype",
		Partitions: []Partition{
			{Name: "P1", System: true, Processes: []Process{
				{Name: "aocs_control", Period: 1300, Deadline: 650, Priority: 1, WCET: 150, Periodic: true},
			}},
			{Name: "P2", Processes: []Process{
				{Name: "obdh_housekeeping", Period: 650, Deadline: 650, Priority: 2, WCET: 80, Periodic: true},
			}},
			{Name: "P3", Processes: []Process{
				{Name: "ttc_downlink", Period: 650, Deadline: 650, Priority: 2, WCET: 80, Periodic: true},
			}},
			{Name: "P4", Processes: []Process{
				{Name: "fdir_monitor", Period: 1300, Deadline: 1300, Priority: 1, WCET: 90, Periodic: true},
			}},
		},
		Schedules: []Schedule{
			{
				Name: "chi1", MTF: 1300, Requirements: reqs(),
				Windows: []Window{
					{Partition: "P1", Offset: 0, Duration: 200},
					{Partition: "P2", Offset: 200, Duration: 100},
					{Partition: "P3", Offset: 300, Duration: 100},
					{Partition: "P4", Offset: 400, Duration: 600},
					{Partition: "P2", Offset: 1000, Duration: 100},
					{Partition: "P3", Offset: 1100, Duration: 100},
					{Partition: "P4", Offset: 1200, Duration: 100},
				},
			},
			{
				Name: "chi2", MTF: 1300, Requirements: reqs(),
				Windows: []Window{
					{Partition: "P1", Offset: 0, Duration: 200},
					{Partition: "P4", Offset: 200, Duration: 100},
					{Partition: "P3", Offset: 300, Duration: 100},
					{Partition: "P2", Offset: 400, Duration: 600},
					{Partition: "P4", Offset: 1000, Duration: 100},
					{Partition: "P3", Offset: 1100, Duration: 100},
					{Partition: "P2", Offset: 1200, Duration: 100},
				},
			},
		},
		Sampling: []Sampling{{
			Name: "attitude", MaxMessage: 64, Refresh: 1300,
			Source: PortRef{Partition: "P1", Port: "att_out"},
			Destinations: []PortRef{
				{Partition: "P2", Port: "att_in"},
				{Partition: "P4", Port: "att_in"},
			},
		}},
		Queuing: []Queuing{{
			Name: "housekeeping", MaxMessage: 128, Depth: 16,
			Source:      PortRef{Partition: "P2", Port: "hk_out"},
			Destination: PortRef{Partition: "P3", Port: "hk_in"},
		}},
	}
}
