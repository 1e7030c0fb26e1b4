// Package baseline models the real in-order machine's drain-barrier
// protocol (with its run-ahead mode) for the snapshotprotocol fixtures: a
// draining flag, a snapshot encoder (takeSnapshot), and a //flea:specentry
// episode entry.
package baseline

import "internal/checkpoint"

type frontEnd struct{ pending int }

// Pending reports whether fetched groups are still in flight.
func (f *frontEnd) Pending() bool { return f.pending > 0 }

// Machine is a minimal in-order machine in run-ahead mode.
type Machine struct {
	draining  bool
	halted    bool
	stalled   bool
	snapEvery int64
	retired   int64
	nextSnap  int64
	fe        frontEnd
	onSnap    func(*checkpoint.Snapshot)
}

// ConfigureSnapshots implements the core.Snapshotter protocol, making this
// package subject to the drain-barrier rules.
func (m *Machine) ConfigureSnapshots(every int64, fn func(*checkpoint.Snapshot)) {
	m.snapEvery = every
	m.onSnap = fn
	m.nextSnap = every
}

// takeSnapshot captures the quiesced machine: a snapshot encoder by
// construction (checkpoint.Snapshot literal + NewEncoder).
func (m *Machine) takeSnapshot() {
	s := &checkpoint.Snapshot{Retired: m.retired}
	e := checkpoint.NewEncoder(16)
	e.I64(m.retired)
	s.AddSection("runahead.state", e.Bytes())
	if m.onSnap != nil {
		m.onSnap(s)
	}
}

// enterRunahead begins a speculative pre-execution episode.
//
//flea:specentry
func (m *Machine) enterRunahead() { m.stalled = false }

// Run is the compliant cycle loop: encode only at the drain barrier, no
// episodes while draining.
func (m *Machine) Run() {
	for !m.halted {
		if m.draining {
			if !m.fe.Pending() {
				m.takeSnapshot()
				m.draining = false
			}
		}
		if m.stalled && !m.draining {
			m.enterRunahead()
		}
		if m.snapEvery > 0 && !m.draining && m.retired >= m.nextSnap {
			m.draining = true
		}
		m.retired++
	}
}

// goodElseBranches: the else branch of an exact draining test carries the
// inverted guarantee in both directions.
func (m *Machine) goodElseBranches() {
	if !m.draining {
		m.enterRunahead()
	} else {
		m.takeSnapshot()
	}
}

// badEager encodes without quiescing first.
func (m *Machine) badEager() {
	m.takeSnapshot() // want "call to snapshot encoder takeSnapshot outside the drain barrier"
}

// badSpec enters an episode without suppressing it during a drain.
func (m *Machine) badSpec() {
	if m.stalled {
		m.enterRunahead() // want "call to speculative entry enterRunahead is not guarded"
	}
}

// badDisjunction: an || guard guarantees nothing.
func (m *Machine) badDisjunction(force bool) {
	if force || m.draining {
		m.takeSnapshot() // want "outside the drain barrier"
	}
}

// badElseConjunction: negating a conjunction guarantees neither conjunct.
func (m *Machine) badElseConjunction(quiet bool) {
	if m.draining && quiet {
		_ = quiet
	} else {
		m.enterRunahead() // want "not guarded"
	}
}
