// Package pipeline provides the machinery shared by every timed machine
// model: dynamic instruction records, the fetch/decode front end (IPG, ROT,
// EXP, DEC stages of Figure 3) with its branch predictor and I-cache timing,
// and the common stage-offset constants.
package pipeline

import (
	"math"

	"fleaflicker/internal/bpred"
	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// Stage offsets relative to the cycle an issue group dispatches (REG).
const (
	// EXEOffset is when execution begins.
	EXEOffset = 1
	// DETOffset is when branch mispredictions and exceptions are
	// detected; redirects are signalled this many cycles after dispatch.
	DETOffset = 2
	// WRBOffset is when results are architecturally written.
	WRBOffset = 3
)

// Never is the wake cycle of a wait that no amount of elapsed time ends by
// itself: only another component's action (a pop, a redirect) can.
const Never int64 = math.MaxInt64

// DynInst is one dynamic (fetched) instruction. The front end fills in the
// identity and prediction fields; machine models use the execution fields
// they need (the two-pass machine uses all of them — they are its coupling
// queue and result-store state).
type DynInst struct {
	ID uint64
	PC int32
	In *isa.Inst

	// Front-end prediction state.
	PredTaken    bool  // a branch the front end predicted/knew taken
	NextPC       int32 // pc the front end continued fetching at after this inst
	HasCP        bool  // CP holds a direction-predictor checkpoint
	CP           bpred.Checkpoint
	NoPrediction bool // indirect branch with no predicted target: fetch stalled behind it

	// Execution state (two-pass CQ/CRS fields; the baseline uses a
	// subset).
	Deferred  bool      // suppressed in the A-pipe, to execute in the B-pipe
	Done      bool      // produced a (possibly in-flight) result in the A-pipe
	ReadyAt   int64     // cycle the A-initiated result arrives (dangling if still future at merge)
	Val       isa.Value // the result value
	PredOn    bool      // qualifying predicate evaluated true
	AddrKnown bool      // memory ops: effective address computed
	Addr      uint32
	Size      int
	Level     mem.Level // cache level that served an initiated load

	// Branch outcome, filled at resolution.
	BrResolved bool
	BrTaken    bool
	BrTarget   int32
}

// IsBranch reports whether the instruction can redirect fetch.
func (d *DynInst) IsBranch() bool { return d.In.Op.IsBranch() }

// Group is one fetched issue group.
type Group struct {
	Insts   []*DynInst
	FetchPC int32
	// AvailAt is the cycle the group becomes available for dispatch
	// (fetch cycle + front-end depth + any I-cache miss penalty).
	AvailAt int64
}

// Config sizes the front end.
type Config struct {
	// Depth is the front-end pipeline length in cycles (IPG through DEC;
	// 5 models the paper's "one stage longer than Itanium 2" machine).
	Depth int
	// QueueCap is the fetched-group buffer capacity in groups.
	QueueCap int
}

// DefaultConfig returns the front end of the simulated machine.
func DefaultConfig() Config { return Config{Depth: 5, QueueCap: 8} }

// FrontEnd fetches issue groups along the predicted path, one group per
// cycle, modelling I-cache latency and branch prediction. Machines consume
// groups via Head/Pop and repair wrong paths via Redirect.
//
// The fetched-group buffer is a fixed ring of QueueCap Group slots whose
// instruction slices are reused, and DynInst records come from a per-machine
// Arena, so steady-state fetch allocates nothing. A popped group (and its
// DynInsts) stays valid until the next Tick; machines must consume it within
// the cycle that pops it and return the DynInsts to Arena() when they retire
// or are squashed.
type FrontEnd struct {
	cfg   Config
	prog  *program.Program
	hier  *mem.Hierarchy
	pred  *bpred.Predictor
	arena *Arena

	// l1iLatency is the I-cache hit latency: a fetch costs extra cycles
	// only beyond it. Read once here, not per fetch (Hierarchy.Config
	// copies the whole memory configuration).
	l1iLatency int

	pc          int32
	nextFetchAt int64
	stalled     bool    // fetch blocked behind a no-prediction indirect branch
	halted      bool    // fetch reached a halt
	queue       []Group // ring storage, len == cfg.QueueCap
	qhead, qlen int

	nextID uint64

	// FetchStallCycles counts cycles fetch could not proceed because of
	// an I-cache miss, for reports.
	FetchStallCycles int64
}

// NewFrontEnd builds a front end starting at the program entry. A non-nil
// arena supplies (and outlives) the DynInst storage — callers that simulate
// many short programs back to back (the differential fuzzer's inner loop)
// pass one shared arena so each run reuses the previous run's records
// instead of growing fresh slabs. nil allocates a private arena.
func NewFrontEnd(cfg Config, prog *program.Program, hier *mem.Hierarchy, pred *bpred.Predictor, arena *Arena) *FrontEnd {
	if arena == nil {
		arena = NewArena()
	}
	return &FrontEnd{
		cfg: cfg, prog: prog, hier: hier, pred: pred,
		arena:      arena,
		l1iLatency: hier.Config().L1I.Latency,
		queue:      make([]Group, cfg.QueueCap),
		pc:         prog.Entry, nextID: 1,
	}
}

// Predictor exposes the branch predictor for resolution updates.
func (f *FrontEnd) Predictor() *bpred.Predictor { return f.pred }

// Arena exposes the DynInst allocator. Machines return retired and squashed
// instruction records to it so the cycle loop stays allocation-free.
func (f *FrontEnd) Arena() *Arena { return f.arena }

// Tick advances fetch by one cycle: at most one issue group is fetched along
// the predicted path.
//
//flea:hotpath
func (f *FrontEnd) Tick(now int64) {
	if f.stalled || f.halted || now < f.nextFetchAt || f.qlen >= f.cfg.QueueCap {
		return
	}
	if f.pc < 0 || int(f.pc) >= len(f.prog.Insts) {
		// Fetch wandered off the program (wrong-path); stall until a
		// redirect arrives.
		f.stalled = true
		return
	}
	start := f.pc
	end := f.prog.GroupBounds(start)
	g := &f.queue[(f.qhead+f.qlen)%f.cfg.QueueCap]
	//flea:handoff the slot's previous records were handed to the machine at Pop; only the backing array is reused
	g.Insts = g.Insts[:0]
	g.FetchPC = start
	next := end // sequential fall-through
	for pc := start; pc < end; pc++ {
		in := &f.prog.Insts[pc]
		d := f.arena.Get()
		d.ID, d.PC, d.In, d.NextPC = f.nextID, pc, in, pc+1
		f.nextID++
		g.Insts = append(g.Insts, d)
		if in.Op == isa.OpHalt {
			f.halted = true
			next = end
			break
		}
		if !in.Op.IsBranch() {
			continue
		}
		taken, target, done := f.predictBranch(d)
		if done { // fetch stalls behind an unpredictable indirect
			f.stalled = true
			next = pc + 1 // placeholder; fetch is stalled anyway
			break
		}
		if taken {
			d.PredTaken = true
			d.NextPC = target
			next = target
			break // a predicted-taken branch truncates the group
		}
	}
	if len(g.Insts) > 0 {
		last := g.Insts[len(g.Insts)-1]
		if !last.PredTaken && !f.halted && !f.stalled {
			last.NextPC = next
		}
	}

	// I-cache timing: probe every I-line the delivered group touches.
	extra := 0
	lineBytes := uint32(f.hier.LineBytesI())
	firstLine := program.InstAddr(start) &^ (lineBytes - 1)
	lastLine := program.InstAddr(start+int32(len(g.Insts))-1) &^ (lineBytes - 1)
	for line := firstLine; ; line += lineBytes {
		lat, _ := f.hier.Fetch(line, now)
		if e := lat - f.l1iLatency; e > extra {
			extra = e
		}
		if line == lastLine {
			break
		}
	}
	g.AvailAt = now + int64(f.cfg.Depth+extra)
	f.nextFetchAt = now + 1 + int64(extra)
	f.FetchStallCycles += int64(extra)
	f.qlen++
	f.pc = next
}

// predictBranch predicts direction and target for branch d at fetch.
// done=true means fetch must stall (indirect with no target prediction).
//
//flea:hotpath
func (f *FrontEnd) predictBranch(d *DynInst) (taken bool, target int32, done bool) {
	in := d.In
	switch in.Op {
	case isa.OpBr:
		if in.Pred == isa.P(0) {
			return true, in.Target, false // unconditional
		}
		t, cp := f.pred.PredictCond(d.PC)
		d.HasCP, d.CP = true, cp
		return t, in.Target, false
	case isa.OpBrCall:
		f.pred.PushRAS(d.PC + 1)
		return true, in.Target, false
	case isa.OpBrRet:
		if t, ok := f.pred.PopRAS(); ok {
			return true, t, false
		}
		d.NoPrediction = true
		return false, 0, true
	case isa.OpBrInd:
		if t, ok := f.pred.PredictIndirect(d.PC); ok {
			return true, t, false
		}
		d.NoPrediction = true
		return false, 0, true
	}
	return false, 0, false
}

// Head returns the oldest fetched group if it has reached the dispersal
// point by now, else nil. The returned group lives in the fetch ring: it
// remains valid after Pop only until the next Tick.
//
//flea:hotpath
func (f *FrontEnd) Head(now int64) *Group {
	if f.qlen == 0 {
		return nil
	}
	g := &f.queue[f.qhead]
	if g.AvailAt > now {
		return nil
	}
	return g
}

// NextFetch returns the first cycle after now at which Tick can fetch a
// group, or Never while the queue is full, fetch is stalled behind an
// indirect branch, or fetch has halted: those waits end only through the
// machine's Pop or Redirect. Machines that skip stalled cycles never skip
// past it.
//
//flea:hotpath
func (f *FrontEnd) NextFetch(now int64) int64 {
	if f.stalled || f.halted || f.qlen >= f.cfg.QueueCap {
		return Never
	}
	return max(f.nextFetchAt, now+1)
}

// HeadAvailAt returns the oldest fetched group's AvailAt, or Never when the
// queue is empty.
//
//flea:hotpath
func (f *FrontEnd) HeadAvailAt() int64 {
	if f.qlen == 0 {
		return Never
	}
	return f.queue[f.qhead].AvailAt
}

// Pending reports whether any group is fetched but not yet available —
// distinguishing "front end refilling" from "fetch stalled empty".
func (f *FrontEnd) Pending() bool { return f.qlen > 0 }

// Pop consumes the head group. Ownership of its DynInst records passes to
// the caller, which must eventually return them to Arena().
//
//flea:hotpath
func (f *FrontEnd) Pop() {
	f.qhead = (f.qhead + 1) % f.cfg.QueueCap
	f.qlen--
}

// Redirect flushes all fetched groups (returning their instruction records
// to the arena) and restarts fetch at pc on the next cycle. Machines call it
// on branch misprediction (at resolution time), on indirect-branch
// resolution when fetch was stalled, and on store-conflict recovery.
//
//flea:hotpath
func (f *FrontEnd) Redirect(pc int32, now int64) {
	for i := 0; i < f.qlen; i++ {
		g := &f.queue[(f.qhead+i)%f.cfg.QueueCap]
		f.arena.PutAll(g.Insts)
		g.Insts = g.Insts[:0]
	}
	f.qlen = 0
	f.pc = pc
	f.nextFetchAt = now + 1
	f.stalled = false
	f.halted = false
}

// StreamState returns the dynamic-ID allocator position and the accumulated
// fetch-stall count, the two pieces of front-end state that survive a
// Redirect and so must be carried across a machine checkpoint.
func (f *FrontEnd) StreamState() (nextID uint64, fetchStalls int64) {
	return f.nextID, f.FetchStallCycles
}

// RestoreStream reinstates the ID allocator and fetch-stall count captured by
// StreamState, so a checkpoint-resumed machine numbers its dynamic
// instructions exactly as the producing run did.
func (f *FrontEnd) RestoreStream(nextID uint64, fetchStalls int64) {
	f.nextID = nextID
	f.FetchStallCycles = fetchStalls
}

// Stalled reports whether fetch is blocked waiting for an indirect branch to
// resolve.
func (f *FrontEnd) Stalled() bool { return f.stalled }

// Halted reports whether fetch has delivered a halt instruction (and
// stopped).
func (f *FrontEnd) Halted() bool { return f.halted }
