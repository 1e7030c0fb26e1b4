package isa

import "math"

// Value is the contents of one register, as raw bits. Integer registers hold
// their 32-bit value zero-extended (ILP32); floating-point registers hold
// math.Float64bits of their value; predicate registers hold 0 or 1.
type Value = uint64

// BoolValue converts a predicate truth value to its register encoding.
func BoolValue(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// FPValue converts a float to its register encoding.
func FPValue(f float64) Value { return math.Float64bits(f) }

// AsFP converts a register value to a float.
func AsFP(v Value) float64 { return math.Float64frombits(v) }

// AsI32 converts a register value to a signed 32-bit integer.
func AsI32(v Value) int32 { return int32(uint32(v)) }

// I32Value converts a signed 32-bit integer to its register encoding.
func I32Value(x int32) Value { return Value(uint32(x)) }

// HardwiredValue returns the fixed value of a hardwired register
// (r0=0, f0=0.0, f1=1.0, p0=1), and 0 for RegNone or any other register.
//
//flea:inline
func HardwiredValue(r Reg) Value {
	switch r {
	case fpBase + 1:
		return FPValue(1.0)
	case predBase:
		return 1
	default:
		return 0
	}
}

// Eval computes the result of a non-memory, non-branch operation from its
// source values: a is the value of Src1 and b of Src2. Memory operations and
// branches are evaluated by the machine models, which own address translation
// and control flow.
func Eval(op Op, a, b Value, imm int32) Value {
	switch op {
	case OpNop:
		return 0
	case OpAdd:
		return Value(uint32(a) + uint32(b))
	case OpSub:
		return Value(uint32(a) - uint32(b))
	case OpAddI:
		return Value(uint32(a) + uint32(imm))
	case OpAnd:
		return Value(uint32(a) & uint32(b))
	case OpAndI:
		return Value(uint32(a) & uint32(imm))
	case OpOr:
		return Value(uint32(a) | uint32(b))
	case OpOrI:
		return Value(uint32(a) | uint32(imm))
	case OpXor:
		return Value(uint32(a) ^ uint32(b))
	case OpXorI:
		return Value(uint32(a) ^ uint32(imm))
	case OpShl:
		return Value(uint32(a) << (uint32(b) & 31))
	case OpShlI:
		return Value(uint32(a) << (uint32(imm) & 31))
	case OpShr:
		return Value(uint32(a) >> (uint32(b) & 31))
	case OpShrI:
		return Value(uint32(a) >> (uint32(imm) & 31))
	case OpSar:
		return I32Value(AsI32(a) >> (uint32(b) & 31))
	case OpSarI:
		return I32Value(AsI32(a) >> (uint32(imm) & 31))
	case OpMul:
		return Value(uint32(a) * uint32(b))
	case OpMovI:
		return Value(uint32(imm))
	case OpMov:
		return a
	case OpCmpEq:
		return BoolValue(uint32(a) == uint32(b))
	case OpCmpNe:
		return BoolValue(uint32(a) != uint32(b))
	case OpCmpLt:
		return BoolValue(AsI32(a) < AsI32(b))
	case OpCmpLe:
		return BoolValue(AsI32(a) <= AsI32(b))
	case OpCmpLtU:
		return BoolValue(uint32(a) < uint32(b))
	case OpCmpLeU:
		return BoolValue(uint32(a) <= uint32(b))
	case OpCmpEqI:
		return BoolValue(AsI32(a) == imm)
	case OpCmpNeI:
		return BoolValue(AsI32(a) != imm)
	case OpCmpLtI:
		return BoolValue(AsI32(a) < imm)
	case OpCmpLeI:
		return BoolValue(AsI32(a) <= imm)
	case OpFAdd:
		return FPValue(AsFP(a) + AsFP(b))
	case OpFSub:
		return FPValue(AsFP(a) - AsFP(b))
	case OpFMul:
		return FPValue(AsFP(a) * AsFP(b))
	case OpFDiv:
		return FPValue(AsFP(a) / AsFP(b))
	case OpFNeg:
		return FPValue(-AsFP(a))
	case OpFCmpLt:
		return BoolValue(AsFP(a) < AsFP(b))
	case OpFCmpLe:
		return BoolValue(AsFP(a) <= AsFP(b))
	case OpFCmpEq:
		return BoolValue(AsFP(a) == AsFP(b))
	case OpI2F:
		return FPValue(float64(AsI32(a)))
	case OpF2I:
		return I32Value(int32(AsFP(a)))
	}
	panic("isa: Eval called on " + op.Name())
}

// EffectiveAddress computes the address accessed by a memory operation given
// the value of its base register.
func EffectiveAddress(base Value, imm int32) uint32 {
	return uint32(base) + uint32(imm)
}
