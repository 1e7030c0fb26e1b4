package baseline

import (
	"fmt"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/isa"
)

// Checkpoint support. The baseline is functional-at-dispatch, so its whole
// machine state beyond the shared pieces (memory image, caches, predictor,
// front-end stream counters) is the per-register scoreboard. Snapshots are
// taken at drain barriers: when a snapshot is due, fetch pauses until every
// fetched group has dispatched, the quiesced state is captured, and fetch
// restarts at the architectural PC — so the producing run and a run resumed
// from the snapshot see identical futures.
//
// In run-ahead mode, entry is suppressed while draining, so no episode is
// in flight at a barrier: the run-ahead register copy, poison bits and exit
// state are dead, and the scoreboard section only gains the two episode
// totals.

// ConfigureSnapshots implements core.Snapshotter: capture a KindMachine
// snapshot at the first drain barrier after every `every` retired
// instructions. Call after RestoreSnapshot (if any) and before Run.
func (m *Machine) ConfigureSnapshots(every int64, fn func(*checkpoint.Snapshot)) {
	m.snapEvery = every
	m.onSnap = fn
	m.nextSnap = every
	for m.nextSnap <= m.retired {
		m.nextSnap += every
	}
}

// snapshotDue reports whether the machine has crossed its snapshot interval
// and should begin draining toward a barrier. It runs every cycle of the
// Run loop, so it must stay allocation-free and inlinable.
//
//flea:hotpath
//flea:inline
//flea:noescape
func (m *Machine) snapshotDue() bool {
	return m.snapEvery > 0 && !m.draining && m.retired >= m.nextSnap
}

// RestoreSnapshot implements core.Snapshotter. A KindFunctional snapshot
// fast-forwards the architectural state (registers, memory, PC, retired
// count) and leaves timing structures cold; a KindMachine snapshot must come
// from a machine in the same mode and reinstates everything.
func (m *Machine) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	if snap.Program != "" && snap.Program != m.prog.Name {
		return fmt.Errorf("%s: snapshot is for program %q, machine runs %q", m.names.errPrefix, snap.Program, m.prog.Name)
	}
	m.st.Regs = snap.Regs
	m.st.Mem = snap.Mem.Image()
	m.retired = snap.Retired
	m.archPC = snap.PC
	m.resume = snap

	switch snap.Kind {
	case checkpoint.KindFunctional:
		// Timing state stays cold; start fetching at the snapshot PC on
		// cycle 0.
		//flea:handoff Redirect returns every in-flight group's records to the arena before refetching
		m.fe.Redirect(snap.PC, -1)
		return nil
	case checkpoint.KindMachine:
		if snap.Model != m.names.tag {
			return fmt.Errorf("%s: snapshot is from model %q", m.names.errPrefix, snap.Model)
		}
		m.now = snap.Cycle
		if err := m.hier.RestoreState(snap.Hier); err != nil {
			return err
		}
		if err := m.fe.Predictor().RestoreState(snap.Pred); err != nil {
			return err
		}
		m.fe.RestoreStream(snap.FeNextID, snap.FeFetchStalls)
		//flea:handoff Redirect returns every in-flight group's records to the arena before refetching
		m.fe.Redirect(snap.PC, snap.Cycle)
		b, ok := snap.Section(m.names.section)
		if !ok {
			return fmt.Errorf("%s: snapshot has no %s section", m.names.errPrefix, m.names.section)
		}
		d := checkpoint.NewDecoder(b)
		for r := range m.ready {
			m.ready[r] = d.I64()
			m.loadProducer[r] = d.Bool()
		}
		if m.cfg.Runahead {
			// The episode totals live in machine fields between registry
			// syncs; restoring them keeps the end-of-run sync additive.
			m.RunaheadEntries = d.I64()
			m.RunaheadInsts = d.I64()
		}
		return d.Err()
	}
	return fmt.Errorf("%s: unknown snapshot kind %d", m.names.errPrefix, snap.Kind)
}

// primeCounters seeds the metrics registry with the snapshot's counter values
// so end-of-run aggregates equal prefix + delta. Runs in the Run prologue —
// after Attach, which may have swapped the registry.
func (m *Machine) primeCounters() {
	if m.resume == nil {
		return
	}
	reg := m.col.Registry()
	for _, c := range m.resume.Counters {
		reg.RestoreCounter(c.Name, c.Value)
	}
	m.resume = nil
}

// takeSnapshot captures the quiesced machine at a drain barrier (fetch queue
// empty, every dispatched instruction retired).
func (m *Machine) takeSnapshot() {
	// Bring the episode counters current so the captured set is coherent.
	m.syncRunaheadCounters()
	s := &checkpoint.Snapshot{
		Kind:    checkpoint.KindMachine,
		Model:   m.names.tag,
		Program: m.prog.Name,
		Cycle:   m.now,
		Retired: m.retired,
		PC:      m.archPC,
		Regs:    m.st.Regs,
		Mem:     m.st.Mem.Snapshot(),
		Hier:    m.hier.CaptureState(),
		Pred:    m.fe.Predictor().CaptureState(),
	}
	s.FeNextID, s.FeFetchStalls = m.fe.StreamState()
	var cs []checkpoint.Counter
	m.col.Registry().EachCounter(func(name string, value int64) {
		cs = append(cs, checkpoint.Counter{Name: name, Value: value})
	})
	s.SetCounters(cs)
	e := checkpoint.NewEncoder(isa.NumRegs*9 + 16)
	for r := range m.ready {
		e.I64(m.ready[r])
		e.Bool(m.loadProducer[r])
	}
	if m.cfg.Runahead {
		e.I64(m.RunaheadEntries)
		e.I64(m.RunaheadInsts)
	}
	s.AddSection(m.names.section, e.Bytes())
	for m.nextSnap <= m.retired {
		m.nextSnap += m.snapEvery
	}
	if m.onSnap != nil {
		m.onSnap(s)
	}
}
