package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegNamespace(t *testing.T) {
	if got := R(0); !got.IsInt() || got.IsFP() || got.IsPred() {
		t.Errorf("R(0) classification wrong")
	}
	if got := F(0); !got.IsFP() || got.IsInt() || got.IsPred() {
		t.Errorf("F(0) classification wrong")
	}
	if got := P(0); !got.IsPred() || got.IsInt() || got.IsFP() {
		t.Errorf("P(0) classification wrong")
	}
	if R(63)+1 != F(0) {
		t.Errorf("int and fp namespaces not adjacent")
	}
	if F(63)+1 != P(0) {
		t.Errorf("fp and pred namespaces not adjacent")
	}
	if int(P(15)) != NumRegs-1 {
		t.Errorf("P(15) = %d, want %d", P(15), NumRegs-1)
	}
}

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R(0), "r0"}, {R(63), "r63"}, {F(0), "f0"}, {F(7), "f7"},
		{P(0), "p0"}, {P(15), "p15"}, {RegNone, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegIndex(t *testing.T) {
	if R(17).Index() != 17 || F(42).Index() != 42 || P(9).Index() != 9 {
		t.Errorf("Index() does not recover the class-local number")
	}
	if RegNone.Index() != -1 {
		t.Errorf("RegNone.Index() = %d, want -1", RegNone.Index())
	}
}

func TestHardwired(t *testing.T) {
	for _, r := range []Reg{R(0), F(0), F(1), P(0)} {
		if !r.Hardwired() {
			t.Errorf("%s should be hardwired", r)
		}
	}
	for _, r := range []Reg{R(1), F(2), P(1), R(63)} {
		if r.Hardwired() {
			t.Errorf("%s should not be hardwired", r)
		}
	}
	if HardwiredValue(R(0)) != 0 || HardwiredValue(P(0)) != 1 {
		t.Errorf("hardwired integer/predicate values wrong")
	}
	if AsFP(HardwiredValue(F(1))) != 1.0 || AsFP(HardwiredValue(F(0))) != 0.0 {
		t.Errorf("hardwired fp values wrong")
	}
}

// TestFixedMatchesDefinition pins the table behind Fixed to its definition
// for every Reg value, and the hardwired values to r0=0, f0=0.0, f1=1.0 and
// p0=1.
func TestFixedMatchesDefinition(t *testing.T) {
	for i := 0; i < 256; i++ {
		r := Reg(i)
		if want := r == RegNone || r.Hardwired(); r.Fixed() != want {
			t.Errorf("Reg(%d).Fixed() = %v, want %v", i, r.Fixed(), want)
		}
	}
	for _, c := range []struct {
		r    Reg
		want Value
	}{
		{R(0), 0}, {F(0), FPValue(0.0)}, {F(1), FPValue(1.0)}, {P(0), 1},
	} {
		if got := HardwiredValue(c.r); got != c.want {
			t.Errorf("HardwiredValue(%s) = %#x, want %#x", c.r, got, c.want)
		}
	}
}

func TestRegPanicsOutOfRange(t *testing.T) {
	for _, f := range []func(){
		func() { R(64) }, func() { F(64) }, func() { P(16) }, func() { R(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for out-of-range register")
				}
			}()
			f()
		}()
	}
}

func TestOpClassesAndLatencies(t *testing.T) {
	cases := []struct {
		op   Op
		cls  FUClass
		lat  int
		load bool
		st   bool
		br   bool
	}{
		{OpAdd, ClassALU, 1, false, false, false},
		{OpMul, ClassALU, 3, false, false, false},
		{OpLd4, ClassMEM, 2, true, false, false},
		{OpSt4, ClassMEM, 1, false, true, false},
		{OpLdF, ClassMEM, 2, true, false, false},
		{OpFAdd, ClassFP, 4, false, false, false},
		{OpFDiv, ClassFP, 20, false, false, false},
		{OpBr, ClassBR, 1, false, false, true},
		{OpBrRet, ClassBR, 1, false, false, true},
		{OpHalt, ClassBR, 1, false, false, false},
	}
	for _, c := range cases {
		if c.op.Class() != c.cls {
			t.Errorf("%s class = %v, want %v", c.op, c.op.Class(), c.cls)
		}
		if c.op.Latency() != c.lat {
			t.Errorf("%s latency = %d, want %d", c.op, c.op.Latency(), c.lat)
		}
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.st || c.op.IsBranch() != c.br {
			t.Errorf("%s load/store/branch flags wrong", c.op)
		}
	}
}

func TestAllOpsHaveNames(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.Name() == "" {
			t.Errorf("op %d has no name", op)
		}
		if !op.Valid() {
			t.Errorf("op %d should be valid", op)
		}
	}
	if Op(numOps).Valid() {
		t.Errorf("op numOps should be invalid")
	}
}

func TestMemSizes(t *testing.T) {
	sizes := map[Op]int{
		OpLd1: 1, OpLd2: 2, OpLd4: 4, OpLdF: 8,
		OpSt1: 1, OpSt2: 2, OpSt4: 4, OpStF: 8,
		OpAdd: 0, OpBr: 0,
	}
	for op, want := range sizes {
		if got := op.MemSize(); got != want {
			t.Errorf("%s MemSize = %d, want %d", op, got, want)
		}
	}
}

func TestEvalIntegerALU(t *testing.T) {
	cases := []struct {
		op   Op
		a, b Value
		imm  int32
		want Value
	}{
		{OpAdd, 7, 5, 0, 12},
		{OpAdd, 0xFFFFFFFF, 1, 0, 0}, // 32-bit wraparound
		{OpSub, 3, 5, 0, I32Value(-2)},
		{OpAddI, 10, 0, -3, 7},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpShl, 1, 33, 0, 2},                     // shift amount masked to 5 bits
		{OpShr, 0x80000000, 31, 0, 1},            // logical
		{OpSar, 0x80000000, 31, 0, I32Value(-1)}, // arithmetic
		{OpSarI, I32Value(-8), 0, 2, I32Value(-2)},
		{OpMul, 6, 7, 0, 42},
		{OpMovI, 0, 0, -1, 0xFFFFFFFF},
		{OpMov, 99, 0, 0, 99},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("Eval(%s, %#x, %#x, %d) = %#x, want %#x", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalCompares(t *testing.T) {
	neg1 := I32Value(-1)
	cases := []struct {
		op   Op
		a, b Value
		imm  int32
		want Value
	}{
		{OpCmpEq, 4, 4, 0, 1},
		{OpCmpNe, 4, 4, 0, 0},
		{OpCmpLt, neg1, 0, 0, 1},  // signed
		{OpCmpLtU, neg1, 0, 0, 0}, // unsigned
		{OpCmpLe, 4, 4, 0, 1},
		{OpCmpLeU, 5, 4, 0, 0},
		{OpCmpLtI, neg1, 0, 0, 1},
		{OpCmpEqI, 7, 0, 7, 1},
		{OpCmpNeI, 7, 0, 7, 0},
		{OpCmpLeI, 7, 0, 7, 1},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("Eval(%s, %#x, %#x, %d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalFP(t *testing.T) {
	a, b := FPValue(3.5), FPValue(2.0)
	if AsFP(Eval(OpFAdd, a, b, 0)) != 5.5 {
		t.Errorf("fadd wrong")
	}
	if AsFP(Eval(OpFSub, a, b, 0)) != 1.5 {
		t.Errorf("fsub wrong")
	}
	if AsFP(Eval(OpFMul, a, b, 0)) != 7.0 {
		t.Errorf("fmul wrong")
	}
	if AsFP(Eval(OpFDiv, a, b, 0)) != 1.75 {
		t.Errorf("fdiv wrong")
	}
	if AsFP(Eval(OpFNeg, a, 0, 0)) != -3.5 {
		t.Errorf("fneg wrong")
	}
	if Eval(OpFCmpLt, b, a, 0) != 1 || Eval(OpFCmpLt, a, b, 0) != 0 {
		t.Errorf("fcmp.lt wrong")
	}
	if Eval(OpFCmpEq, a, a, 0) != 1 {
		t.Errorf("fcmp.eq wrong")
	}
	if AsFP(Eval(OpI2F, I32Value(-7), 0, 0)) != -7.0 {
		t.Errorf("i2f wrong")
	}
	if AsI32(Eval(OpF2I, FPValue(-7.9), 0, 0)) != -7 {
		t.Errorf("f2i wrong (should truncate)")
	}
}

func TestEvalPanicsOnMemoryOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Eval(OpLd4) should panic")
		}
	}()
	Eval(OpLd4, 0, 0, 0)
}

func TestEffectiveAddress(t *testing.T) {
	if got := EffectiveAddress(100, -4); got != 96 {
		t.Errorf("EffectiveAddress(100,-4) = %d, want 96", got)
	}
	if got := EffectiveAddress(0xFFFFFFFF, 1); got != 0 {
		t.Errorf("address should wrap at 32 bits, got %#x", got)
	}
}

func TestSources(t *testing.T) {
	in := Inst{Op: OpAdd, Pred: P(1), Dst: R(1), Src1: R(2), Src2: R(3)}
	got := in.Sources(nil)
	want := []Reg{P(1), R(2), R(3)}
	if len(got) != len(want) {
		t.Fatalf("Sources = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sources[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// P(0) and hardwired sources are omitted.
	in2 := Inst{Op: OpAddI, Pred: P(0), Dst: R(1), Src1: R(0), Src2: RegNone}
	if got := in2.Sources(nil); len(got) != 0 {
		t.Errorf("Sources of addi r1=r0 should be empty, got %v", got)
	}
}

func TestHasDest(t *testing.T) {
	if !(&Inst{Op: OpAdd, Dst: R(5)}).HasDest() {
		t.Errorf("add r5 should have a dest")
	}
	if (&Inst{Op: OpAdd, Dst: R(0)}).HasDest() {
		t.Errorf("writes to r0 are discarded, HasDest should be false")
	}
	if (&Inst{Op: OpSt4, Dst: RegNone}).HasDest() {
		t.Errorf("stores have no register dest")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Pred: P(0), Dst: R(1), Src1: R(2), Src2: R(3)}, "add r1 = r2, r3"},
		{Inst{Op: OpAddI, Pred: P(0), Dst: R(1), Src1: R(2), Src2: RegNone, Imm: 5}, "addi r1 = r2, 5"},
		{Inst{Op: OpLd4, Pred: P(0), Dst: R(1), Src1: R(2), Src2: RegNone, Imm: 8}, "ld4 r1 = [r2, 8]"},
		{Inst{Op: OpSt4, Pred: P(0), Dst: RegNone, Src1: R(2), Src2: R(3), Imm: -4}, "st4 [r2, -4] = r3"},
		{Inst{Op: OpBr, Pred: P(1), Dst: RegNone, Src1: RegNone, Src2: RegNone, Target: 7}, "(p1) br @7"},
		{Inst{Op: OpHalt, Pred: P(0), Dst: RegNone, Src1: RegNone, Src2: RegNone, Stop: true}, "halt ;;"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: integer Eval results always fit in 32 bits (ILP32 invariant), and
// predicate results are 0 or 1.
func TestEvalResultWidthProperty(t *testing.T) {
	intOps := []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpMul, OpMov}
	predOps := []Op{OpCmpEq, OpCmpNe, OpCmpLt, OpCmpLe, OpCmpLtU, OpCmpLeU}
	f := func(a, b uint32, opSel uint8) bool {
		op := intOps[int(opSel)%len(intOps)]
		if v := Eval(op, Value(a), Value(b), 0); v > math.MaxUint32 {
			return false
		}
		pop := predOps[int(opSel)%len(predOps)]
		if v := Eval(pop, Value(a), Value(b), 0); v > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Eval of commutative operations is symmetric in its operands.
func TestEvalCommutativityProperty(t *testing.T) {
	ops := []Op{OpAdd, OpAnd, OpOr, OpXor, OpMul, OpCmpEq, OpCmpNe}
	f := func(a, b uint32, opSel uint8) bool {
		op := ops[int(opSel)%len(ops)]
		return Eval(op, Value(a), Value(b), 0) == Eval(op, Value(b), Value(a), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
