// Package arch provides the functional reference executor: an untimed
// interpreter of the ISA that defines architecturally correct results. Every
// timed machine model (baseline, two-pass, runahead) must terminate with
// register and memory state identical to this executor's — the golden
// correctness invariant the test suites enforce.
package arch

import (
	"fmt"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/program"
)

// State is an architectural machine state: the unified register file and
// memory.
type State struct {
	Regs [isa.NumRegs]isa.Value
	Mem  *mem.Image
}

// NewState returns a state with zeroed registers and the given memory
// (which the state takes ownership of).
func NewState(m *mem.Image) *State {
	if m == nil {
		m = mem.NewImage()
	}
	return &State{Mem: m}
}

// Read returns the value of register r, honoring hardwired registers.
// Reading RegNone (an absent operand) yields 0.
//
//flea:inline
func (s *State) Read(r isa.Reg) isa.Value {
	if r.Fixed() {
		return isa.HardwiredValue(r)
	}
	return s.Regs[r]
}

// Write sets register r to v; writes to hardwired registers are discarded.
//
//flea:inline
func (s *State) Write(r isa.Reg, v isa.Value) {
	if r.Fixed() {
		return
	}
	s.Regs[r] = v
}

// Equal reports whether two states match architecturally.
func (s *State) Equal(o *State) bool {
	for r := 0; r < isa.NumRegs; r++ {
		if !isa.Reg(r).Hardwired() && s.Regs[r] != o.Regs[r] {
			return false
		}
	}
	return s.Mem.Equal(o.Mem)
}

// RegDiff is one diverged register: the state under test read Got where the
// reference holds Want.
type RegDiff struct {
	Reg  isa.Reg
	Got  isa.Value
	Want isa.Value
}

// MemDiff is one diverged memory byte.
type MemDiff struct {
	Addr uint32
	Got  byte
	Want byte
}

// CompareStates enumerates up to max register and max memory-byte
// differences between a state under test and the reference state, in
// register-number and ascending-address order. Both slices empty means the
// states agree architecturally.
func CompareStates(got, want *State, max int) (regs []RegDiff, bytes []MemDiff) {
	for r := 0; r < isa.NumRegs && len(regs) < max; r++ {
		reg := isa.Reg(r)
		if !reg.Hardwired() && got.Regs[r] != want.Regs[r] {
			regs = append(regs, RegDiff{Reg: reg, Got: got.Regs[r], Want: want.Regs[r]})
		}
	}
	for _, addr := range got.Mem.Differences(want.Mem, max) {
		bytes = append(bytes, MemDiff{Addr: addr, Got: got.Mem.Byte(addr), Want: want.Mem.Byte(addr)})
	}
	return regs, bytes
}

// Diff describes the first difference between two states, for test failure
// messages. It returns "" when the states are equal.
func (s *State) Diff(o *State) string {
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.Reg(r)
		if !reg.Hardwired() && s.Regs[r] != o.Regs[r] {
			return fmt.Sprintf("register %s: %#x vs %#x", reg, s.Regs[r], o.Regs[r])
		}
	}
	if addr, ok := s.Mem.FirstDifference(o.Mem); ok {
		return fmt.Sprintf("memory at %#x: %#x vs %#x", addr, s.Mem.Byte(addr), o.Mem.Byte(addr))
	}
	return ""
}

// Result summarizes a functional execution.
type Result struct {
	// Instructions is the number of retired dynamic instructions,
	// including predicated-off instructions and nops (they occupy issue
	// slots, so every machine model retires them too).
	Instructions int64
	// ByClass counts retired instructions per functional-unit class.
	ByClass [isa.NumFUClasses]int64
	// Loads, Stores and Branches count retired (predicated-on) operations.
	Loads, Stores, Branches int64
	// State is the final architectural state.
	State *State
}

// Executor interprets a program functionally.
type Executor struct {
	prog  *program.Program
	state *State
	pc    int32
	halt  bool
	res   Result
}

// NewExecutor prepares an executor over a fresh copy of the program's
// initial memory image.
func NewExecutor(p *program.Program) *Executor {
	st := NewState(p.InitialImage())
	return &Executor{prog: p, state: st, pc: p.Entry, res: Result{State: st}}
}

// Halted reports whether the program has executed halt.
func (e *Executor) Halted() bool { return e.halt }

// PC returns the next instruction index to execute.
func (e *Executor) PC() int32 { return e.pc }

// State exposes the live architectural state.
func (e *Executor) State() *State { return e.state }

// Result returns a snapshot of the execution's result so far (final once
// Halted).
func (e *Executor) Result() *Result {
	r := e.res
	return &r
}

// Step executes one instruction. It is a no-op once halted.
func (e *Executor) Step() error {
	if e.halt {
		return nil
	}
	if e.pc < 0 || int(e.pc) >= len(e.prog.Insts) {
		return fmt.Errorf("arch: pc %d out of range (program %q has %d instructions)",
			e.pc, e.prog.Name, len(e.prog.Insts))
	}
	in := &e.prog.Insts[e.pc]
	next, err := StepState(e.state, in, e.pc)
	if err != nil {
		return err
	}
	e.res.Instructions++
	e.res.ByClass[in.Op.Class()]++
	if e.state.Read(in.Pred) != 0 {
		switch {
		case in.Op.IsLoad():
			e.res.Loads++
		case in.Op.IsStore():
			e.res.Stores++
		case in.Op.IsBranch():
			e.res.Branches++
		case in.Op == isa.OpHalt:
			e.halt = true
		}
	}
	e.pc = next
	return nil
}

// StepState applies one instruction to a state and returns the next PC.
// It is shared with the timed machines' commit paths in spirit: it defines
// the architectural semantics of each operation.
func StepState(s *State, in *isa.Inst, pc int32) (nextPC int32, err error) {
	nextPC = pc + 1
	if s.Read(in.Pred) == 0 {
		return nextPC, nil // predicated off: no effect, fall through
	}
	op := in.Op
	switch {
	case op == isa.OpNop:
	case op == isa.OpHalt:
	case op.IsLoad():
		addr := isa.EffectiveAddress(s.Read(in.Src1), in.Imm)
		s.Write(in.Dst, s.Mem.Read(addr, op.MemSize()))
	case op.IsStore():
		addr := isa.EffectiveAddress(s.Read(in.Src1), in.Imm)
		s.Mem.Write(addr, op.MemSize(), s.Read(in.Src2))
	case op == isa.OpBr:
		nextPC = in.Target
	case op == isa.OpBrCall:
		s.Write(in.Dst, isa.Value(uint32(pc+1)))
		nextPC = in.Target
	case op == isa.OpBrRet || op == isa.OpBrInd:
		nextPC = int32(uint32(s.Read(in.Src1)))
	default:
		s.Write(in.Dst, isa.Eval(op, s.Read(in.Src1), s.Read(in.Src2), in.Imm))
	}
	return nextPC, nil
}

// Run executes the program to completion (or until maxSteps instructions
// have retired) and returns the result.
func Run(p *program.Program, maxSteps int64) (*Result, error) {
	e := NewExecutor(p)
	for !e.Halted() {
		if e.res.Instructions >= maxSteps {
			return nil, fmt.Errorf("arch: program %q exceeded %d instructions without halting",
				p.Name, maxSteps)
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	r := e.res
	return &r, nil
}

// MustRun is Run panicking on error, for tests and workload metadata.
func MustRun(p *program.Program, maxSteps int64) *Result {
	r, err := Run(p, maxSteps)
	if err != nil {
		panic(err)
	}
	return r
}
