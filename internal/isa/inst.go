package isa

import (
	"fmt"
	"strings"
)

// Inst is one instruction. Every instruction carries a qualifying predicate
// (Pred, P(0) meaning "always"); a predicated-off instruction has no effect.
//
// Operand conventions:
//   - Dst is the written register (RegNone if the instruction writes nothing).
//   - Src1/Src2 are read registers (RegNone when unused). For memory
//     operations Src1 is the address base; for stores Src2 is the data.
//   - Imm is the immediate (address displacement for memory operations).
//   - Target is the branch target, an instruction index into the program.
//   - Stop set means a stop bit follows this instruction: the issue group
//     ends here (the Itanium ";;").
type Inst struct {
	Op     Op
	Pred   Reg // qualifying predicate register; P(0) = always execute
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int32
	Target int32
	Stop   bool
}

// Nop returns a no-operation instruction.
func Nop() Inst {
	return Inst{Op: OpNop, Pred: P(0), Dst: RegNone, Src1: RegNone, Src2: RegNone}
}

// Sources appends the registers read by the instruction to dst and returns
// the extended slice. The qualifying predicate is included (unless P(0)):
// an instruction cannot dispatch, even as a no-op, before its predicate is
// known. Hardwired registers are always ready, so they are omitted.
func (in *Inst) Sources(dst []Reg) []Reg {
	if !in.Pred.Fixed() {
		dst = append(dst, in.Pred)
	}
	if !in.Src1.Fixed() {
		dst = append(dst, in.Src1)
	}
	if !in.Src2.Fixed() {
		dst = append(dst, in.Src2)
	}
	return dst
}

// HasDest reports whether the instruction writes a register that is not
// hardwired.
//
//flea:inline
func (in *Inst) HasDest() bool { return !in.Dst.Fixed() }

// String renders the instruction in the textual assembly syntax accepted by
// package program.
func (in *Inst) String() string {
	var b strings.Builder
	if in.Pred != RegNone && in.Pred != P(0) {
		fmt.Fprintf(&b, "(%s) ", in.Pred)
	}
	b.WriteString(in.Op.Name())
	sep := " "
	put := func(s string) {
		b.WriteString(sep)
		b.WriteString(s)
		sep = ", "
	}
	switch {
	case in.Op.IsLoad():
		put(in.Dst.String())
		sep = " = "
		put(fmt.Sprintf("[%s, %d]", in.Src1, in.Imm))
	case in.Op.IsStore():
		put(fmt.Sprintf("[%s, %d]", in.Src1, in.Imm))
		sep = " = "
		put(in.Src2.String())
	case in.Op.IsBranch():
		if in.Dst != RegNone {
			put(in.Dst.String())
			sep = " = "
		}
		if in.Src1 != RegNone {
			put(in.Src1.String())
		} else {
			put(fmt.Sprintf("@%d", in.Target))
		}
	case in.Op == OpHalt || in.Op == OpNop:
		// no operands
	default:
		if in.Dst != RegNone {
			put(in.Dst.String())
			sep = " = "
		}
		if in.Src1 != RegNone {
			put(in.Src1.String())
		}
		if in.Src2 != RegNone {
			put(in.Src2.String())
		}
		if usesImm(in.Op) {
			put(fmt.Sprintf("%d", in.Imm))
		}
	}
	if in.Stop {
		b.WriteString(" ;;")
	}
	return b.String()
}

func usesImm(op Op) bool {
	switch op {
	case OpAddI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpSarI, OpMovI,
		OpCmpEqI, OpCmpNeI, OpCmpLtI, OpCmpLeI:
		return true
	}
	return false
}
