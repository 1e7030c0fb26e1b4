package cluster

import (
	"errors"
	"sync"

	"fleaflicker/internal/service"
)

// fedCache is the coordinator's federated view of the cluster's result
// caches: one entry per content-addressed unit key, coalescing duplicate
// submissions onto a single in-flight computation exactly like a backend's
// local cache does — but cluster-wide.
//
// Ownership/steal invariant (documented in DESIGN.md §Cluster): a claimed
// entry is completed by exactly one writer. Re-routes and steals can race a
// late completion from a backend that was presumed dead, so complete() is
// first-writer-wins; the losing write is dropped and counted
// (cluster.federation.duplicate_drops), never stored twice.
type fedCache struct {
	met *clusterMetrics

	mu sync.Mutex
	//flea:guardedby(mu)
	entries map[string]*fedEntry
}

// errFedAbandoned marks an entry rolled back by a rejected submission.
var errFedAbandoned = errors.New("cluster: unit abandoned by rejected submission")

// fedEntry is one federated cache slot.
type fedEntry struct {
	key  string
	done chan struct{}
	// sealed flips once, under the owning cache's mu, when the first writer
	// completes the entry; result/origin/err are set before done closes and
	// immutable afterwards (readers synchronize on <-done).
	sealed bool
	result *service.UnitResult
	origin string // backend id (or "peer:<id>") that produced the result
	err    error
}

// completed reports whether the entry has finished.
func (e *fedEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

func newFedCache(met *clusterMetrics) *fedCache {
	return &fedCache{met: met, entries: make(map[string]*fedEntry)}
}

// acquire returns the entry for key and whether the caller claimed it (and
// so must arrange for a computation — peer lookup or dispatch — that
// completes it).
func (f *fedCache) acquire(key string) (e *fedEntry, claimed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.entries[key]; ok {
		if e.completed() {
			f.met.fedHits.Inc()
		} else {
			f.met.fedCoalesced.Inc()
		}
		return e, false
	}
	e = &fedEntry{key: key, done: make(chan struct{})}
	f.entries[key] = e
	f.met.fedMisses.Inc()
	f.met.fedEntries.Set(int64(len(f.entries)))
	return e, true
}

// abandon rolls back a claim whose tasks could not be enqueued (cluster
// queue full, no live backends). Only the submission that claimed the entry
// may abandon it, while it still holds the coordinator's admission lock.
func (f *fedCache) abandon(e *fedEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.entries, e.key)
	f.met.fedEntries.Set(int64(len(f.entries)))
	e.err = errFedAbandoned
	e.sealed = true
	close(e.done)
}

// complete seals an entry with the first result (or error) to arrive,
// counts it as a completed (or failed) unit, and reports whether this call
// won. A losing concurrent completion — a stolen
// or re-routed unit finishing twice — is dropped and counted; the stored
// result never changes after sealing. Completing with an error removes the
// entry so a later submission can retry the key.
func (f *fedCache) complete(e *fedEntry, res *service.UnitResult, origin string, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e.sealed {
		f.met.fedDupDrops.Inc()
		return false
	}
	if err != nil {
		delete(f.entries, e.key)
	}
	f.met.fedEntries.Set(int64(len(f.entries)))
	// Count the seal before waking waiters, so a job seen done has every
	// unit counted.
	if err != nil {
		f.met.unitsFailed.Inc()
	} else {
		f.met.unitsCompleted.Inc()
	}
	e.result, e.origin, e.err = res, origin, err
	e.sealed = true
	close(e.done)
	return true
}
