// Package baseline implements the reference in-order EPIC machine of the
// paper's evaluation: an 8-issue, Itanium-2-like pipeline (one stage longer,
// per §4) that stalls an entire issue group in the REG stage whenever any
// instruction in it has an unready operand — the group-granularity
// "artificial dependence" behaviour that two-pass pipelining removes.
//
// The machine is functional-at-dispatch: instruction results are computed
// architecturally the cycle their group dispatches, while a per-register
// scoreboard carries the timing (a value written with latency L may not be
// consumed for L cycles). Because dispatch is strictly in program order this
// yields exact architectural state, verified against internal/arch.
//
// With Config.Runahead set, the same pipe is the paper's §2 run-ahead
// comparator: a long load-dependent stall starts a checkpointed speculative
// episode instead of idling (see runahead.go).
package baseline

import (
	"context"
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/bpred"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/metrics"
	"fleaflicker/internal/pipeline"
	"fleaflicker/internal/program"
	"fleaflicker/internal/stats"
	"fleaflicker/internal/trace"
)

// Config parameterizes the machine.
type Config struct {
	Front      pipeline.Config
	Mem        mem.Config
	Bpred      bpred.Config
	IssueWidth int
	FUs        [isa.NumFUClasses]int
	// Runahead turns a long load-dependent stall into a run-ahead episode.
	Runahead bool
	// ExitPenalty is the number of cycles charged when leaving run-ahead
	// mode (checkpoint restore). 0 models the idealized mechanism (the
	// front-end refill is still paid).
	ExitPenalty int
	// MinStallCycles gates entry: run-ahead begins only when the
	// remaining stall exceeds this many cycles, since each episode costs
	// a front-end refill at exit. Dundas entered on every L1 miss; the
	// default only chases stalls longer than the refill.
	MinStallCycles int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// Arena, when non-nil, supplies the machine's DynInst storage so
	// back-to-back simulations reuse records (see pipeline.NewFrontEnd).
	Arena *pipeline.Arena `json:"-"`
}

// DefaultConfig returns the Table 1 machine, with run-ahead off.
func DefaultConfig() Config {
	return Config{
		Front:          pipeline.DefaultConfig(),
		Mem:            mem.DefaultConfig(),
		Bpred:          bpred.DefaultConfig(),
		IssueWidth:     8,
		FUs:            [isa.NumFUClasses]int{isa.ClassALU: 5, isa.ClassMEM: 3, isa.ClassFP: 3, isa.ClassBR: 3},
		MinStallCycles: 8,
		MaxCycles:      2_000_000_000,
	}
}

// Machine is one baseline simulation instance.
type Machine struct {
	cfg  Config
	prog *program.Program
	fe   *pipeline.FrontEnd
	hier *mem.Hierarchy
	st   *arch.State

	// ready[r] is the first cycle register r's pending value may be
	// consumed; loadProducer[r] records whether that value comes from a
	// load (for stall classification).
	ready        [isa.NumRegs]int64
	loadProducer [isa.NumRegs]bool

	// arena recycles DynInst records and addrScratch is groupBlocked's
	// reusable load-address buffer. Together they keep the cycle loop
	// allocation-free.
	arena       *pipeline.Arena
	addrScratch []uint32

	// Run-ahead episode state (see runahead.go).
	inRunahead bool
	exitAt     int64 // when the blocking load completes
	resumePC   int32
	raRegs     [isa.NumRegs]isa.Value // speculative register copy
	raPoison   [isa.NumRegs]bool
	raReady    [isa.NumRegs]int64

	now    int64
	halted bool
	names  names
	col    *stats.Collector
	tr     *trace.Tracer
	ctx    context.Context
	// RunaheadEntries/RunaheadInsts count run-ahead activity. They mirror
	// the "runahead.entries"/"runahead.insts" registry counters.
	RunaheadEntries int64
	RunaheadInsts   int64

	// Checkpoint state (see snapshot.go). retired counts architecturally
	// retired instructions; archPC tracks the next architectural PC so a
	// drain barrier knows where to restart fetch.
	retired   int64
	archPC    int32
	snapEvery int64
	nextSnap  int64
	draining  bool
	onSnap    func(*checkpoint.Snapshot)
	resume    *checkpoint.Snapshot
}

// names are the externally visible names of one mode: the model tag of its
// stats and snapshots, its error prefix and its scoreboard section.
type names struct{ tag, errPrefix, section string }

var (
	baseNames     = names{"base", "baseline", "baseline.scoreboard"}
	runaheadNames = names{"runahead", "runahead", "runahead.scoreboard"}
)

// New builds a machine over a fresh copy of the program's memory. The
// program must satisfy Validate for the configured widths.
func New(cfg Config, prog *program.Program) (*Machine, error) {
	n := baseNames
	if cfg.Runahead {
		n = runaheadNames
	}
	if err := prog.Validate(cfg.IssueWidth, cfg.FUs); err != nil {
		return nil, fmt.Errorf("%s: %w", n.errPrefix, err)
	}
	hier := mem.NewHierarchy(cfg.Mem)
	m := &Machine{
		cfg:   cfg,
		prog:  prog,
		fe:    pipeline.NewFrontEnd(cfg.Front, prog, hier, bpred.New(cfg.Bpred), cfg.Arena),
		hier:  hier,
		st:    arch.NewState(prog.InitialImage()),
		names: n,
	}
	m.arena = m.fe.Arena()
	m.col = stats.NewCollector(metrics.NewRegistry(), prog.Name, n.tag)
	return m, nil
}

// State exposes the architectural state (for correctness comparison).
func (m *Machine) State() *arch.State { return m.st }

// Attach binds the machine's observability before Run: ctx cancels the
// cycle loop, reg (when non-nil) replaces the private metrics registry, and
// tr (which may be nil) receives trace events. Must not be called after Run
// has started.
func (m *Machine) Attach(ctx context.Context, reg *metrics.Registry, tr *trace.Tracer) {
	if reg != nil {
		m.col = stats.NewCollector(reg, m.prog.Name, m.names.tag)
	}
	m.ctx = ctx
	m.tr = tr
}

// Run simulates to completion and returns the measurements.
func (m *Machine) Run() (*stats.Run, error) {
	m.primeCounters()
	m.syncRunaheadCounters()
	for !m.halted {
		if m.now >= m.cfg.MaxCycles {
			return nil, fmt.Errorf("%s: %q exceeded %d cycles", m.names.errPrefix, m.prog.Name, m.cfg.MaxCycles)
		}
		if m.ctx != nil && m.now&4095 == 0 {
			if err := m.ctx.Err(); err != nil {
				return nil, fmt.Errorf("%s: %q: %w", m.names.errPrefix, m.prog.Name, err)
			}
		}
		if m.draining {
			// Fetch pauses (and run-ahead entry is suppressed in step) until
			// every fetched group has dispatched; then the machine is
			// quiesced and the snapshot is architecturally exact.
			if !m.fe.Pending() {
				m.takeSnapshot()
				m.fe.Redirect(m.archPC, m.now)
				m.draining = false
			}
		} else {
			m.fe.Tick(m.now)
		}
		var cls stats.CycleClass
		var wake int64
		if m.inRunahead {
			m.stepRunahead()
		} else {
			cls, wake = m.step()
		}
		if m.snapshotDue() {
			m.draining = true
		}
		if wake > m.now+1 && !m.tr.Enabled() {
			m.skipStalled(cls, wake)
		}
		m.now++
	}
	m.syncRunaheadCounters()
	r := m.col.Snapshot(m.hier.Stats())
	if err := r.CheckInvariants(); err != nil {
		return nil, err
	}
	return r, nil
}

// step attempts to dispatch the head issue group and classifies the cycle.
// In run-ahead mode a long load-dependent stall enters an episode. A stalled
// cycle reports its class and the first cycle at which the stall can end
// (pipeline.Never when only fetch can end it); any other cycle reports a
// zero wake.
//
//flea:hotpath
func (m *Machine) step() (cls stats.CycleClass, wake int64) {
	g := m.fe.Head(m.now)
	if g == nil {
		m.col.Cycle(stats.FrontEndStall)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeFront,
				PC: -1, Arg: int64(stats.FrontEndStall), Note: stats.FrontEndStall.String()})
		}
		return stats.FrontEndStall, m.fe.HeadAvailAt()
	}
	if cls, until, blocked := m.groupBlocked(g); blocked {
		m.col.Cycle(cls)
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvStall, Pipe: trace.PipeA,
				PC: g.FetchPC, Arg: int64(cls), Note: cls.String()})
		}
		// No run-ahead episodes while draining toward a snapshot barrier:
		// an episode would keep speculative state (and fetched groups) in
		// flight past the quiesce point.
		if m.cfg.Runahead && cls == stats.LoadStall && until-m.now > int64(m.cfg.MinStallCycles) && !m.draining {
			m.enterRunahead(g, until)
			return 0, 0
		}
		return cls, until
	}
	m.fe.Pop() // before dispatch: a mispredicted branch flushes the queue
	m.dispatch(g)
	m.arena.PutAll(g.Insts) // the group retires (or squashes) whole
	g.Insts = g.Insts[:0]
	m.col.Cycle(stats.Unstalled)
	return 0, 0
}

// skipStalled charges the cycles now+1 … wake-1 of a stall to cls in bulk
// and advances now to wake-1. Until wake the head group can neither
// dispatch nor change class: its blocking register's ready time does not
// move, and nothing enters the fetch queue before the front end's next
// fetch, which bounds the skip together with the next cancellation check and
// MaxCycles. A run-ahead episode fetches every cycle and is never skipped;
// nor is a cycle that starts one, or a resource stall (wake now+1).
//
//flea:hotpath
func (m *Machine) skipStalled(cls stats.CycleClass, wake int64) {
	wake = min(wake, m.fe.NextFetch(m.now), (m.now|4095)+1, m.cfg.MaxCycles)
	if n := wake - m.now - 1; n > 0 {
		m.col.Cycles(cls, n)
		m.now += n
	}
}

// groupBlocked applies the REG-stage interlocks: every source of every
// instruction in the group must be ready (group-granularity stall), every
// destination must be free of a pending longer-latency write (the WAW stall
// condition typical of EPIC scoreboards, §3.3), and the memory system must
// be able to accept the group's loads. A blocked group also reports the
// cycle it can next try to dispatch.
//
//flea:hotpath
func (m *Machine) groupBlocked(g *pipeline.Group) (cls stats.CycleClass, wake int64, blocked bool) {
	blockedUntil := int64(-1)
	blockedByLoad := false
	consider := func(r isa.Reg) {
		if r.Fixed() {
			return
		}
		if t := m.ready[r]; t > m.now && t > blockedUntil {
			blockedUntil = t
			blockedByLoad = m.loadProducer[r]
		}
	}
	for _, d := range g.Insts {
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
	// Operands ready: compute load addresses to check outstanding-load
	// capacity as a group. (Address operands are ready by construction
	// here.)
	addrs := m.addrScratch[:0]
	for _, d := range g.Insts {
		if !d.In.Op.IsLoad() || m.st.Read(d.In.Pred) == 0 {
			continue
		}
		addrs = append(addrs, isa.EffectiveAddress(m.st.Read(d.In.Src1), d.In.Imm))
	}
	m.addrScratch = addrs
	if len(addrs) > 0 && !m.hier.CanAcceptLoads(addrs, m.now) {
		return stats.ResourceStall, m.now + 1, true
	}
	return 0, 0, false
}

// dispatch executes an issue group whose operands are all ready.
//
//flea:hotpath
func (m *Machine) dispatch(g *pipeline.Group) {
	for _, d := range g.Insts {
		in := d.In
		m.col.Instruction()
		m.retired++
		if m.tr.Enabled() {
			m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvDispatch, Pipe: trace.PipeA,
				ID: d.ID, PC: d.PC, Note: in.String()})
		}
		predOn := m.st.Read(in.Pred) != 0

		if in.Op.IsBranch() || in.Op == isa.OpHalt {
			if m.resolveBranch(d, predOn) {
				return // squash younger same-group instructions
			}
			continue
		}
		m.archPC = d.PC + 1
		if !predOn {
			continue // retires as a no-op
		}
		switch {
		case in.Op == isa.OpNop:
		case in.Op.IsLoad():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			lat, lvl := m.hier.Load(addr, m.now)
			m.col.Access(lvl, stats.PipeA, m.hier.Levels())
			m.st.Write(in.Dst, m.st.Mem.Read(addr, in.Op.MemSize()))
			m.setReady(in.Dst, m.now+int64(lat), true)
		case in.Op.IsStore():
			addr := isa.EffectiveAddress(m.st.Read(in.Src1), in.Imm)
			m.st.Mem.Write(addr, in.Op.MemSize(), m.st.Read(in.Src2))
			m.hier.Store(addr, m.now)
			m.col.StoreCommitted()
		default:
			m.st.Write(in.Dst, isa.Eval(in.Op, m.st.Read(in.Src1), m.st.Read(in.Src2), in.Imm))
			m.setReady(in.Dst, m.now+int64(in.Op.Latency()), false)
		}
	}
}

//flea:hotpath
//flea:inline
func (m *Machine) setReady(r isa.Reg, at int64, fromLoad bool) {
	if r.Fixed() {
		return
	}
	m.ready[r] = at
	m.loadProducer[r] = fromLoad
}

// resolveBranch executes a branch (or halt), trains the predictor, and
// redirects the front end on a misprediction. It reports whether younger
// instructions in the same group must be squashed.
//
//flea:hotpath
func (m *Machine) resolveBranch(d *pipeline.DynInst, predOn bool) (squash bool) {
	in := d.In
	if in.Op == isa.OpHalt {
		m.halted = true
		return true
	}
	taken := false
	target := d.PC + 1
	if predOn {
		switch in.Op {
		case isa.OpBr:
			taken, target = true, in.Target
		case isa.OpBrCall:
			taken, target = true, in.Target
			m.st.Write(in.Dst, isa.Value(uint32(d.PC+1)))
			m.setReady(in.Dst, m.now+1, false)
		case isa.OpBrRet, isa.OpBrInd:
			taken = true
			target = int32(uint32(m.st.Read(in.Src1)))
		}
	}
	actualNext := d.PC + 1
	if taken {
		actualNext = target
	}
	m.archPC = actualNext
	// Train the predictor.
	pred := m.fe.Predictor()
	if d.HasCP {
		pred.Resolve(d.PC, d.CP, d.PredTaken, taken)
	}
	if in.Op == isa.OpBrRet || in.Op == isa.OpBrInd {
		if taken {
			pred.UpdateIndirect(d.PC, target)
		}
	}
	mispredicted := actualNext != d.NextPC || d.NoPrediction
	if m.tr.Enabled() {
		var arg int64
		if mispredicted {
			arg = 1
		}
		m.tr.Emit(trace.Event{Cycle: m.now, Type: trace.EvBranchResolve, Pipe: trace.PipeA,
			ID: d.ID, PC: d.PC, Arg: arg, Note: in.String()})
	}
	if !mispredicted {
		return false // correctly predicted
	}
	// Misprediction (or an unpredicted indirect): redirect at DET.
	m.col.MispredictA()
	m.fe.Redirect(actualNext, m.now+pipeline.DETOffset)
	return true
}
