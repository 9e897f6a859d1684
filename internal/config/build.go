package config

import (
	"fmt"

	"air/internal/core"
	"air/internal/model"
	"air/internal/pos"
)

// BuildCoreConfig assembles a runnable core configuration from a verified
// configuration document plus the application code the document cannot
// carry: partition initialization entry points keyed by partition name (the
// "partition image"). Partitions without an entry boot configuration-only.
//
// The document's partition options map onto the runtime: policy
// "round-robin" selects the non-real-time POS scheduler, deadlineQueue
// "tree" selects the AVL deadline structure (Sect. 5.3 ablation) in place of
// the paper's sorted linked list ("" or "list"), and system: true authorizes
// module-level services.
func (m *Module) BuildCoreConfig(inits map[string]core.InitFunc) (core.Config, error) {
	sys, report, err := m.Verify()
	if err != nil {
		return core.Config{}, err
	}
	if !report.OK() {
		return core.Config{}, fmt.Errorf("config: verification failed:\n%s", report)
	}
	cfg := core.Config{
		System:      sys,
		Sampling:    m.SamplingConfigs(),
		Queuing:     m.QueuingConfigs(),
		MemoryBytes: m.MemoryBytes,
	}
	for _, p := range m.Partitions {
		pc := core.PartitionConfig{
			Name:   model.PartitionName(p.Name),
			System: p.System,
			Init:   inits[p.Name],
		}
		switch p.Policy {
		case "", "priority":
			pc.Policy = pos.PolicyPriorityPreemptive
		case "round-robin":
			pc.Policy = pos.PolicyRoundRobin
		default:
			return core.Config{}, fmt.Errorf("config: partition %s: unknown policy %q",
				p.Name, p.Policy)
		}
		switch p.DeadlineQueue {
		case "", "list":
			pc.Queue = core.QueueList
		case "tree":
			pc.Queue = core.QueueTree
		default:
			return core.Config{}, fmt.Errorf("config: partition %s: unknown deadline queue %q",
				p.Name, p.DeadlineQueue)
		}
		cfg.Partitions = append(cfg.Partitions, pc)
	}
	for name := range inits {
		found := false
		for _, p := range m.Partitions {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return core.Config{}, fmt.Errorf("config: init provided for unknown partition %q", name)
		}
	}
	return cfg, nil
}
