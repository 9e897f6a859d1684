package recovery

import (
	"air/internal/model"
	"air/internal/tick"
)

// Clone returns a deep copy of the engine for module snapshot/fork,
// rebound to the fork's clock, spine emitter and kernel hooks (the parent's
// hooks close over the parent module and must not leak into the fork). All
// arbitration state — sliding restart/failure windows, backoff exponents,
// pending deferred restarts, quarantine episodes and the degradation-ladder
// position — is copied so the fork's recovery decisions continue exactly
// where the parent's left off.
func (e *Engine) Clone(opts Options) *Engine {
	c := &Engine{
		policy: e.policy,
		now:    opts.Now,
		obs:    opts.Obs,
		hooks:  opts.Hooks,
		byName: make(map[model.PartitionName]*partState, len(e.parts)),
		ladder: append([]Rung(nil), e.ladder...),
		deg:    e.deg,
	}
	for _, st := range e.parts {
		cp := *st
		cp.restarts = append([]tick.Ticks(nil), st.restarts...)
		cp.breaker = st.breaker.Clone()
		c.parts = append(c.parts, &cp)
		c.byName[cp.name] = &cp
	}
	return c
}
