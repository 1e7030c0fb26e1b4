package twopass

import (
	"fmt"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// bStatus is the outcome of retiring one instruction in the B-pipe.
type bStatus struct {
	// flushFrom, when nonzero, squashes every instruction with ID ≥
	// flushFrom (B-DET misprediction or store-conflict recovery).
	flushFrom uint64
	// retired is false only for a store-conflict load, which must
	// re-execute from fetch.
	retired bool
	// redirect is the PC fetch restarts at when flushFrom is set.
	redirect int32
}

// stepB advances the backup (architectural) pipeline by one cycle and
// classifies the cycle into one of the six Figure 6 classes. A stalled cycle
// also reports the first cycle at which the stall can end by itself —
// pipeline.Never for an empty coupling queue, which only the A-pipe refills
// — and any other cycle a zero wake.
//
// An operand stall is held: until its wake the dispatch set and its
// blocking register stay fixed, so the following cycles charge the same
// class without rebuilding the set. Only the B-pipe writes bready or changes
// the head of the queue, and it does so only on a cycle that dispatches.
// A resource stall is never held (A-pipe loads change the miss pool), and
// nothing is held while a tracer is attached, which sees one stall event
// per cycle.
//
//flea:hotpath
func (m *Machine) stepB() (cls stats.CycleClass, wake int64) {
	if m.cq.len() == 0 {
		cls := stats.FrontEndStall
		if m.aBlockedAnticipable {
			cls = stats.NonLoadDepStall
		}
		m.col.Cycle(cls)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				PC: -1, Arg: int64(cls), Note: cls.String()})
		}
		return cls, pipeline.Never
	}
	if enq := m.cq.at(0).enq; enq >= m.now {
		// The A-pipe must stay at least one cycle ahead.
		m.col.Cycle(stats.APipeStall)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				PC: -1, Arg: int64(stats.APipeStall), Note: stats.APipeStall.String()})
		}
		return stats.APipeStall, enq + 1
	}
	if m.now < m.hold.until {
		m.col.Cycle(m.hold.cls)
		return m.hold.cls, m.hold.until
	}
	set, ngroups, growAt := m.buildDispatchSet()
	if cls, until, blocked := m.bBlocked(set); blocked {
		m.col.Cycle(cls)
		// A regrouped set that grows may block on another register.
		wake := min(until, growAt)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeB,
				ID: set[0].ID, PC: set[0].PC, Arg: int64(cls), Note: cls.String()})
		} else if cls != stats.ResourceStall {
			// A 2Pre set holding every queued group grows into the next
			// enqueue, which stepA signals by ending the hold.
			m.hold = bHold{cls: cls, until: wake, tail: m.cfg.Regroup && ngroups == m.cq.len()}
		}
		return cls, wake
	}
	m.col.Regroup(ngroups - 1)
	if m.tr.Enabled() {
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvCQDequeue, Pipe: trace.PipeB,
			ID: set[0].ID, PC: set[0].PC, Arg: int64(len(set))})
	}
	retired := 0
	var flush bStatus
	for _, d := range set {
		st := m.processB(d)
		if st.retired {
			retired++
			if m.tr.Enabled() {
				ty := trace.EvMerge
				if d.Deferred {
					ty = trace.EvReplay
				}
				m.tr.Emit(trace.Event{Cycle: m.now, Type: ty, Pipe: trace.PipeB,
					ID: d.ID, PC: d.PC, Note: d.In.String()})
			}
		}
		if st.flushFrom != 0 {
			flush = st
			break
		}
		if m.halted {
			break
		}
	}
	m.popHead(retired)
	if flush.flushFrom != 0 {
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvFlush, Pipe: trace.PipeB,
				ID: flush.flushFrom, PC: flush.redirect, Arg: int64(flush.redirect)})
		}
		m.squashCQFrom(flush.flushFrom)
		// Recovery latency: a checkpoint restores the A-file in one
		// cycle; otherwise speculative entries are copied back from the
		// B-file at RepairBandwidth registers per cycle (§3.6).
		var repairCycles int64
		if flush.retired && m.restoreCheckpoint(flush.flushFrom-1) {
			repairCycles = 1
			m.dropCheckpoint(flush.flushFrom - 1)
		} else {
			repaired := m.repairAFile(flush.flushFrom)
			repairCycles = int64((repaired + RepairBandwidth - 1) / RepairBandwidth)
		}
		m.aHalted = false
		m.fe.Redirect(flush.redirect, m.now+pipeline.DETOffset+repairCycles)
	}
	if retired > 0 {
		m.col.Cycle(stats.Unstalled)
	} else {
		// A flush before anything retired: a recovery cycle.
		m.col.Cycle(stats.FrontEndStall)
	}
	return 0, 0
}

// popHead removes the first n instructions from the coupling queue,
// returning their records to the arena.
//
//flea:hotpath
func (m *Machine) popHead(n int) {
	m.cqCount -= n
	for n > 0 && m.cq.len() > 0 {
		g := m.cq.at(0)
		if n >= len(g.insts) {
			n -= len(g.insts)
			m.arena.PutAll(g.insts)
			g.insts = g.insts[:0]
			m.cq.popHead()
			continue
		}
		m.arena.PutAll(g.insts[:n])
		rest := copy(g.insts, g.insts[n:])
		g.insts = g.insts[:rest]
		n = 0
	}
}

// buildDispatchSet returns the instructions dispatching this cycle: the head
// group, plus — with regrouping enabled (2Pre) — any following groups whose
// cross dependences were all satisfied by pre-execution and whose addition
// fits the machine's issue resources. Each merged boundary is a stop bit the
// regrouper removed. growAt is the earliest cycle at which the set could
// take in another group without a new enqueue: the next group's enq+1, the
// arrival of the producer result canMerge waited on, or pipeline.Never.
// Without regrouping the set is the head group's own slice, which the caller
// must not modify.
//
//flea:hotpath
func (m *Machine) buildDispatchSet() (set []*pipeline.DynInst, ngroups int, growAt int64) {
	head := m.cq.at(0).insts
	if !m.cfg.Regroup {
		return head, 1, pipeline.Never
	}
	m.dispatchSet = append(m.dispatchSet[:0], head...)
	ngroups = 1
	var classCount [isa.NumFUClasses]int
	for _, d := range head {
		classCount[d.In.Op.Class()]++
	}
	for ngroups < m.cq.len() {
		next := m.cq.at(ngroups)
		if next.enq >= m.now {
			return m.dispatchSet, ngroups, next.enq + 1
		}
		if ok, retry := m.canMerge(m.dispatchSet, &classCount, next.insts); !ok {
			return m.dispatchSet, ngroups, retry
		}
		m.dispatchSet = append(m.dispatchSet, next.insts...)
		ngroups++
	}
	return m.dispatchSet, ngroups, pipeline.Never
}

// canMerge reports whether the next queue group may issue together with the
// current dispatch set: combined width and functional-unit usage must fit,
// and no instruction in next may depend on a result the set has not already
// finished pre-executing. setClasses counts the set's instructions per
// functional-unit class; a merge adds next's to it. When the merge is
// refused, retry is the first cycle at which the answer could change: the
// awaited result's arrival, or pipeline.Never for a structural misfit or a
// deferred producer.
//
//flea:hotpath
func (m *Machine) canMerge(set []*pipeline.DynInst, setClasses *[isa.NumFUClasses]int, next []*pipeline.DynInst) (ok bool, retry int64) {
	if len(set)+len(next) > m.cfg.IssueWidth {
		return false, pipeline.Never
	}
	classCount := *setClasses
	for _, d := range next {
		classCount[d.In.Op.Class()]++
	}
	for c := isa.FUClass(0); c < isa.NumFUClasses; c++ {
		if m.cfg.FUs[c] > 0 && classCount[c] > m.cfg.FUs[c] {
			return false, pipeline.Never
		}
	}
	for _, j := range next {
		in := j.In
		for _, r := range [...]isa.Reg{in.Pred, in.Src1, in.Src2} {
			if r.Fixed() {
				continue
			}
			// Find the youngest writer of r in the set, if any.
			for k := len(set) - 1; k >= 0; k-- {
				i := set[k]
				if i.In.Dst != r {
					continue
				}
				if i.Done && !i.PredOn {
					continue // predicated off: not a writer; keep looking
				}
				if !i.Done {
					return false, pipeline.Never // deferred: no result before dispatch
				}
				if i.ReadyAt > m.now {
					return false, i.ReadyAt // latency-bearing dependence survives
				}
				break
			}
		}
	}
	*setClasses = classCount
	return true, 0
}

// bBlocked applies the B-pipe REG-stage interlocks to the dispatch set.
// Pre-executed instructions never block dispatch (dangling results dispatch
// with scoreboarded destinations); deferred instructions need ready sources,
// a WAW-free destination, and — for loads — an outstanding-load slot. A
// blocked set also reports the cycle its blocking operand is ready
// (now+1 for a resource stall).
//
//flea:hotpath
func (m *Machine) bBlocked(set []*pipeline.DynInst) (cls stats.CycleClass, blockedUntil int64, blocked bool) {
	blockedUntil = -1
	blockedByLoad := false
	consider := func(r isa.Reg) {
		if r.Fixed() {
			return
		}
		if t := m.bready[r]; t > m.now && t > blockedUntil {
			blockedUntil = t
			blockedByLoad = m.bIsLoad[r]
		}
	}
	for _, d := range set {
		if d.Done {
			continue
		}
		in := d.In
		consider(in.Pred)
		consider(in.Src1)
		consider(in.Src2)
		consider(in.Dst)
	}
	if blockedUntil > m.now {
		if blockedByLoad {
			return stats.LoadStall, blockedUntil, true
		}
		return stats.NonLoadDepStall, blockedUntil, true
	}
	addrs := m.addrScratch[:0]
	for k, d := range set {
		if d.Done || !d.In.Op.IsLoad() {
			continue
		}
		if m.setRead(set[:k], d.In.Pred) == 0 {
			continue
		}
		addrs = append(addrs, isa.EffectiveAddress(m.setRead(set[:k], d.In.Src1), d.In.Imm))
	}
	m.addrScratch = addrs
	if len(addrs) > 0 && !m.hier.CanAcceptLoads(addrs, m.now) {
		return stats.ResourceStall, m.now + 1, true
	}
	return 0, 0, false
}

// setRead returns the value register r will hold when an instruction
// dispatching after older, the preceding members of its dispatch set, reads
// it: the result of the youngest predicated-on writer among them, else the
// B-file. Only a regrouped (2Pre) set has such writers, and canMerge admits
// them only once pre-executed, so their results are already known.
//
//flea:hotpath
func (m *Machine) setRead(older []*pipeline.DynInst, r isa.Reg) isa.Value {
	if !r.Fixed() {
		for k := len(older) - 1; k >= 0; k-- {
			if i := older[k]; i.In.Dst == r && i.Done && i.PredOn {
				return i.Val
			}
		}
	}
	return m.bst.Read(r)
}

// processB retires one instruction: merging an A-pipe result, or executing a
// deferred instruction against architectural state.
//
//flea:hotpath
func (m *Machine) processB(d *pipeline.DynInst) bStatus {
	if d.Done {
		return m.mergeB(d)
	}
	return m.executeDeferredB(d)
}

// mergeB incorporates a pre-executed instruction's results (the MRG stage).
// The B-pipe trusts the A-pipe: nothing is recomputed, but pre-executed
// loads must pass their ALAT check (§3.4).
//
//flea:hotpath
func (m *Machine) mergeB(d *pipeline.DynInst) bStatus {
	in := d.In
	if d.PredOn && in.Op.IsLoad() {
		if !m.alat.CheckAndRemove(d.ID) {
			// A conflicting store intervened between this load's A-pipe
			// execution and now: flush speculative state and resume
			// fetch at the load itself.
			m.col.ConflictFlush()
			if m.tr.Enabled() {
				m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvALATConflict, Pipe: trace.PipeB,
					ID: d.ID, PC: d.PC, Arg: int64(d.Addr), Note: in.String()})
			}
			if m.conflictPC != nil {
				m.conflictPC[d.PC] = true
			}
			// The load re-executes from fetch: it is the next instruction
			// to retire architecturally.
			m.archPC = d.PC
			return bStatus{flushFrom: d.ID, retired: false, redirect: d.PC}
		}
	}
	m.col.Instruction()
	m.retired++
	if d.BrResolved && d.BrTaken {
		m.archPC = d.BrTarget
	} else {
		m.archPC = d.PC + 1
	}
	if d.PredOn && sanityChecks && m.bst.Read(in.Pred) == 0 {
		panic(fmt.Sprintf("twopass: inst %d (%s) pre-executed with wrong predicate", d.ID, in))
	}
	switch {
	case d.PredOn && in.Op.IsStore():
		m.bst.Mem.Write(d.Addr, d.Size, d.Val)
		m.hier.Store(d.Addr, m.now)
		m.sbuf.Remove(d.ID)
		m.col.StoreCommitted()
	case d.PredOn && in.HasDest():
		m.bst.Write(in.Dst, d.Val)
		at := d.ReadyAt
		if at < m.now {
			at = m.now
		}
		m.bready[in.Dst] = at
		m.bIsLoad[in.Dst] = in.Op.IsLoad()
		// The arriving architectural update clears the A-file S bit if
		// this instruction is still the register's last writer.
		if e := &m.afile[in.Dst]; e.dynID == d.ID && e.valid {
			e.spec = false
		}
	}
	if in.Op == isa.OpHalt && d.PredOn {
		m.halted = true
	}
	return bStatus{retired: true}
}

// executeDeferredB executes an instruction the A-pipe deferred, with normal
// in-order semantics against the B-file and architectural memory.
//
//flea:hotpath
func (m *Machine) executeDeferredB(d *pipeline.DynInst) bStatus {
	in := d.In
	m.col.Instruction()
	m.retired++
	m.archPC = d.PC + 1 // branches override with the resolved target
	m.deferred--
	if in.Op.IsStore() {
		m.deferredStores--
	}
	predOn := m.bst.Read(in.Pred) != 0
	d.PredOn = predOn
	if !predOn {
		if in.Op.IsBranch() {
			return m.resolveBranchB(d, false)
		}
		// A predicated-off deferred instruction writes nothing; feed the
		// (unchanged) architectural value back to revalidate the A-file
		// entry its deferral invalidated.
		if in.HasDest() {
			m.feedback(in.Dst, d.ID, m.bst.Read(in.Dst), m.now+1)
		}
		return bStatus{retired: true}
	}
	switch {
	case in.Op == isa.OpNop:
	case in.Op == isa.OpHalt:
		m.halted = true
	case in.Op.IsLoad():
		addr := isa.EffectiveAddress(m.bst.Read(in.Src1), in.Imm)
		lat, lvl := m.hier.Load(addr, m.now)
		m.col.Access(lvl, stats.PipeB, m.hier.Levels())
		val := m.bst.Mem.Read(addr, in.Op.MemSize())
		m.bst.Write(in.Dst, val)
		m.setBReady(in.Dst, m.now+int64(lat), true)
		m.feedback(in.Dst, d.ID, val, m.now+int64(lat))
	case in.Op.IsStore():
		addr := isa.EffectiveAddress(m.bst.Read(in.Src1), in.Imm)
		data := m.bst.Read(in.Src2)
		m.bst.Mem.Write(addr, in.Op.MemSize(), data)
		m.hier.Store(addr, m.now)
		m.sbuf.Remove(d.ID) // drop any address-only entry
		m.col.StoreCommitted()
		m.col.StoreDeferred()
		// Deleting overlapping younger ALAT entries is what later makes
		// a conflicted pre-executed load fail its check.
		m.alat.StoreInvalidate(d.ID, addr, in.Op.MemSize())
	case in.Op.IsBranch():
		return m.resolveBranchB(d, true)
	default:
		val := isa.Eval(in.Op, m.bst.Read(in.Src1), m.bst.Read(in.Src2), in.Imm)
		m.bst.Write(in.Dst, val)
		lat := int64(in.Op.Latency())
		m.setBReady(in.Dst, m.now+lat, false)
		m.feedback(in.Dst, d.ID, val, m.now+lat)
	}
	return bStatus{retired: true}
}

//flea:hotpath
//flea:inline
func (m *Machine) setBReady(r isa.Reg, at int64, fromLoad bool) {
	if r.Fixed() {
		return
	}
	m.bready[r] = at
	m.bIsLoad[r] = fromLoad
}

// resolveBranchB resolves a deferred branch at B-DET. A misprediction here
// flushes both pipes, the coupling queue and the front end, and repairs the
// speculative A-file entries from the B-file (§3.6).
//
//flea:hotpath
func (m *Machine) resolveBranchB(d *pipeline.DynInst, predOn bool) bStatus {
	in := d.In
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr, isa.OpBrCall:
			taken, target = true, in.Target
			if in.Op == isa.OpBrCall {
				link := isa.Value(uint32(d.PC + 1))
				m.bst.Write(in.Dst, link)
				m.setBReady(in.Dst, m.now+1, false)
				m.feedback(in.Dst, d.ID, link, m.now+1)
			}
		case isa.OpBrRet, isa.OpBrInd:
			taken = true
			target = int32(uint32(m.bst.Read(in.Src1)))
		}
	}
	d.BrResolved, d.BrTaken, d.BrTarget = true, taken, target
	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
	m.archPC = actualNext
	pred := m.fe.Predictor()
	if d.HasCP {
		pred.Resolve(d.PC, d.CP, d.PredTaken, taken)
	}
	if taken && (in.Op == isa.OpBrRet || in.Op == isa.OpBrInd) {
		pred.UpdateIndirect(d.PC, target)
	}
	mispredicted := actualNext != d.NextPC || d.NoPrediction
	if m.tr.Enabled() {
		var arg int64
		if mispredicted {
			arg = 1
		}
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvBranchResolve, Pipe: trace.PipeB,
			ID: d.ID, PC: d.PC, Arg: arg, Note: in.String()})
	}
	if !mispredicted {
		m.dropCheckpoint(d.ID) // correctly predicted: snapshot obsolete
		return bStatus{retired: true}
	}
	m.col.MispredictB()
	// The snapshot (if any) is consumed by the flush handler in stepB.
	return bStatus{flushFrom: d.ID + 1, retired: true, redirect: actualNext}
}

// sanityChecks enables internal consistency assertions; they are cheap and
// kept on permanently (a violation indicates a machine-model bug, never a
// program bug).
const sanityChecks = true
