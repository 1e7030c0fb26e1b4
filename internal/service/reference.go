package service

import (
	"sync"

	"fleaflicker/internal/core"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/program"
)

// refMemo holds one functional reference per suite kernel, computed the
// first time a verified unit of that kernel runs and handed to every later
// one through core.WithReference. Verification still runs on every unit;
// only the reference execution — which depends on the kernel alone — is
// shared. Concurrent first requests for a kernel wait on a single
// computation (singleflight). The memo is keyed by benchmark name, so the
// fixed workload registry bounds it, and it lives only in the Manager's
// memory.
type refMemo struct {
	computed *metrics.SharedCounter
	shared   *metrics.SharedCounter

	mu sync.Mutex
	//flea:guardedby(mu)
	refs map[string]*refEntry
}

// refEntry is one kernel's reference; ref and err are written once, inside
// once.Do, and read only after it returns.
type refEntry struct {
	once sync.Once
	ref  *core.Reference
	err  error
}

func newRefMemo(met *serviceMetrics) *refMemo {
	return &refMemo{
		computed: met.refsComputed,
		shared:   met.refsShared,
		refs:     make(map[string]*refEntry),
	}
}

// get returns the reference for the named kernel, computing it on first use
// under the default instruction bound. A failed computation is memoized
// like a successful one: reference execution is deterministic per kernel.
func (r *refMemo) get(name string, prog *program.Program) (*core.Reference, error) {
	r.mu.Lock()
	e := r.refs[name]
	if e == nil {
		e = &refEntry{}
		r.refs[name] = e
	}
	r.mu.Unlock()

	ran := false
	e.once.Do(func() {
		ran = true
		e.ref, e.err = core.ComputeReference(prog, core.DefaultConfig().MaxCycles)
		if e.ref != nil {
			// Service runs attach no store log, so store order goes
			// unchecked either way; drop the reference's log instead of
			// holding it for the life of the process.
			e.ref.Stores = nil
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	if ran {
		r.computed.Inc()
	} else {
		r.shared.Inc()
	}
	return e.ref, nil
}
