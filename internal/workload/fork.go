// Post-fork fault injection: the bridge between module snapshot/fork
// (internal/core) and the fault catalogue. A campaign in prefix-sharing
// mode builds ONE fault-free module, ticks it through the warm-up prefix,
// snapshots it, and then forks a variant per run — InjectFaults installs a
// variant's injectors and HM rules on the fork, producing the same
// partition state a from-zero module would reach if its faults activated
// only after the prefix.
package workload

import (
	"fmt"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
)

// baseProcessTable is the scenario's fault-independent HM process-level
// rule set for one partition: P1 restarts deadline-missing processes (the
// paper's Sect. 6 response), the others run on HM defaults. Config and
// InjectFaults share this so a forked variant's tables match a from-zero
// variant's byte for byte.
func baseProcessTable(p model.PartitionName) hm.Table {
	if p == "P1" {
		return hm.Table{hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionRestartProcess}}
	}
	return nil
}

// InjectFaults installs the options' fault list onto a forked module:
// per-partition injector processes (created and started with
// initialization-mode privileges, re-installed on every partition restart)
// plus the injector-merged HM process tables and the partition-hang
// watchdog arming that Config would have applied at integration time.
func InjectFaults(m *core.Module, opts Options) error {
	inj := newInjection(&opts)
	for _, p := range m.Partitions() {
		insts := inj.byPartition[p]
		table := inj.processTable(p, baseProcessTable(p))
		if len(insts) == 0 && table == nil {
			continue
		}
		var fn core.InitFunc
		if len(insts) > 0 {
			part := p
			fn = func(sv *core.Services) { inj.install(sv, part) }
		}
		if err := m.Inject(p, table, fn); err != nil {
			return fmt.Errorf("workload: injecting faults into %s: %w", p, err)
		}
	}
	if t := inj.hangTicks(); t > 0 {
		m.SetHangTicks(t)
	}
	return nil
}
