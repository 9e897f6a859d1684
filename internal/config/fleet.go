package config

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Fleet is the root document configuring the campaign fleet daemon
// (cmd/aircampaignd): the coordinator's listen address, durability journal,
// lease grain and reclamation policy, plus how many in-process worker
// shards the daemon itself contributes. Command-line flags override any
// field, mirroring the campaign document's precedence rules.
type Fleet struct {
	Name string `json:"name,omitempty"`
	// Addr is the HTTP listen address for the fleet API and telemetry
	// endpoints (default ":9464").
	Addr string `json:"addr,omitempty"`
	// Journal is the lease journal path (CRC-framed records); empty runs
	// without durability.
	Journal string `json:"journal,omitempty"`
	// LeaseRuns is the number of runs per lease — the work-stealing and
	// checkpoint grain (default 64).
	LeaseRuns int `json:"leaseRuns,omitempty"`
	// LeaseTTLMillis bounds how long an issued lease may go uncompleted
	// before reclamation (default 120000; 0 disables reclamation).
	LeaseTTLMillis int64 `json:"leaseTTLMillis,omitempty"`
	// LivenessMillis is the shard liveness window for status reporting
	// (default 15000).
	LivenessMillis int64 `json:"livenessMillis,omitempty"`
	// Workers is the number of in-process worker shards the daemon runs
	// alongside coordination (0 = coordinate only).
	Workers int `json:"workers,omitempty"`
	// KeepObservations retains per-run observations for result artifacts;
	// workers must then ship observations with each lease.
	KeepObservations bool `json:"keepObservations,omitempty"`
	// ArchiveRoot durably stores the flight archives shipped by workers
	// completing leases of archiving campaigns; empty drops shipped
	// archives. The /archive/* query endpoints serve over this root.
	ArchiveRoot string `json:"archiveRoot,omitempty"`
	// QuarantineAfter is the worker flap-detector threshold: quarantine a
	// shard whose leases expire this many times within the window
	// (default 3; -1 disables the detector).
	QuarantineAfter int `json:"quarantineAfter,omitempty"`
	// QuarantineWindowMillis is the sliding window expiries are counted
	// over (default 600000).
	QuarantineWindowMillis int64 `json:"quarantineWindowMillis,omitempty"`
	// QuarantineCooldownMillis is the first quarantine duration; each failed
	// half-open probe doubles it up to QuarantineCooldownMaxMillis
	// (defaults 30000 and 8× the cooldown).
	QuarantineCooldownMillis    int64 `json:"quarantineCooldownMillis,omitempty"`
	QuarantineCooldownMaxMillis int64 `json:"quarantineCooldownMaxMillis,omitempty"`
}

// DefaultFleet is the built-in daemon configuration.
func DefaultFleet() *Fleet {
	return &Fleet{
		Name:           "default",
		Addr:           ":9464",
		LeaseRuns:      64,
		LeaseTTLMillis: 120_000,
		LivenessMillis: 15_000,
	}
}

// Validate rejects structurally broken fleet configurations.
func (f *Fleet) Validate() error {
	if f.LeaseRuns < 0 {
		return fmt.Errorf("config: fleet %q has negative lease size %d", f.Name, f.LeaseRuns)
	}
	if f.LeaseTTLMillis < 0 || f.LivenessMillis < 0 {
		return fmt.Errorf("config: fleet %q has negative durations", f.Name)
	}
	if f.Workers < 0 {
		return fmt.Errorf("config: fleet %q has negative worker count %d", f.Name, f.Workers)
	}
	if f.QuarantineAfter < -1 {
		return fmt.Errorf("config: fleet %q has invalid quarantineAfter %d (-1 disables, 0 defaults)", f.Name, f.QuarantineAfter)
	}
	if f.QuarantineWindowMillis < 0 || f.QuarantineCooldownMillis < 0 || f.QuarantineCooldownMaxMillis < 0 {
		return fmt.Errorf("config: fleet %q has negative quarantine durations", f.Name)
	}
	return nil
}

// ParseFleet decodes a fleet document, rejecting unknown fields.
func ParseFleet(data []byte) (*Fleet, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f Fleet
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: parse fleet: %w", err)
	}
	return &f, nil
}

// LoadFleet reads, parses and validates a fleet configuration file.
func LoadFleet(path string) (*Fleet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	f, err := ParseFleet(data)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Save writes the document as indented JSON.
func (f *Fleet) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
