// Package bitvec implements bit-accurate integer values of widths 1..64.
//
// LISA resources and behavior-language values carry an explicit bit width
// (e.g. REGISTER bit[48] accu). All arithmetic wraps modulo 2^width, exactly
// like the corresponding hardware register. A Value stores its payload
// zero-extended in a uint64; signed interpretations sign-extend from the
// declared width.
package bitvec

import (
	"fmt"
	"strconv"
)

// MaxWidth is the widest representable value in bits.
const MaxWidth = 64

// Value is a bit-accurate integer of a fixed width between 1 and 64 bits.
// The zero Value behaves as a 1-bit zero and is not generally useful; build
// values with New.
type Value struct {
	bits  uint64
	width uint8
}

// Mask returns the bit mask covering width bits.
func Mask(width int) uint64 {
	if width <= 0 {
		return 0
	}
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// New builds a Value of the given width from the low bits of raw.
// Widths outside [1,64] are clamped.
func New(raw uint64, width int) Value {
	if width < 1 {
		width = 1
	}
	if width > MaxWidth {
		width = MaxWidth
	}
	return Value{bits: raw & Mask(width), width: uint8(width)}
}

// FromInt builds a width-bit value from a signed integer (two's complement
// truncation).
func FromInt(v int64, width int) Value {
	return New(uint64(v), width)
}

// FromBool builds a 1-bit value.
func FromBool(b bool) Value {
	if b {
		return New(1, 1)
	}
	return New(0, 1)
}

// Width reports the value's width in bits.
func (v Value) Width() int { return int(v.width) }

// Uint returns the zero-extended payload.
func (v Value) Uint() uint64 { return v.bits }

// Int returns the payload sign-extended from the value's width.
func (v Value) Int() int64 { return Sext(v.bits, int(v.width)) }

// IsZero reports whether all bits are clear.
func (v Value) IsZero() bool { return v.bits == 0 }

// Bool reports whether the value is nonzero.
func (v Value) Bool() bool { return v.bits != 0 }

// Resize returns the value reinterpreted at a new width. Growing
// zero-extends; shrinking truncates.
func (v Value) Resize(width int) Value { return New(v.bits, width) }

// SignResize returns the value sign-extended (or truncated) to a new width.
func (v Value) SignResize(width int) Value { return New(uint64(v.Int()), width) }

// Bit returns bit i (0 = LSB) as 0 or 1. Out-of-range bits read as 0.
func (v Value) Bit(i int) uint64 {
	if i < 0 || i >= int(v.width) {
		return 0
	}
	return (v.bits >> uint(i)) & 1
}

// SetBit returns a copy with bit i set to b&1. Out-of-range i is ignored.
func (v Value) SetBit(i int, b uint64) Value {
	if i < 0 || i >= int(v.width) {
		return v
	}
	if b&1 != 0 {
		v.bits |= uint64(1) << uint(i)
	} else {
		v.bits &^= uint64(1) << uint(i)
	}
	return v
}

// Slice extracts bits hi..lo (inclusive, hi >= lo) as a new value of width
// hi-lo+1, matching LISA's register-alias ranges like accu[47..16].
func (v Value) Slice(hi, lo int) Value {
	bits, w := SliceWord(v.bits, hi, lo)
	return New(bits, w)
}

// InsertSlice returns v with bits hi..lo replaced by the low bits of src.
func (v Value) InsertSlice(hi, lo int, src uint64) Value {
	v.bits = InsertWord(v.bits, int(v.width), hi, lo, src)
	return v
}

func widen(a, b Value) int {
	if a.width > b.width {
		return int(a.width)
	}
	return int(b.width)
}

// Add returns a+b at the wider operand width, wrapping.
func Add(a, b Value) Value { w := widen(a, b); return New(a.bits+b.bits, w) }

// Sub returns a-b at the wider operand width, wrapping.
func Sub(a, b Value) Value { w := widen(a, b); return New(a.bits-b.bits, w) }

// Mul returns a*b at the wider operand width, wrapping.
func Mul(a, b Value) Value { w := widen(a, b); return New(a.bits*b.bits, w) }

// DivS returns the signed quotient a/b; division by zero yields all-ones
// (matching common DSP "undefined" behaviour deterministically).
func DivS(a, b Value) Value {
	return New(DivSWord(uint64(a.Int()), uint64(b.Int()), 64), widen(a, b))
}

// RemS returns the signed remainder a%b; remainder by zero yields zero.
func RemS(a, b Value) Value {
	return New(RemSWord(uint64(a.Int()), uint64(b.Int()), 64), widen(a, b))
}

// And returns a&b at the wider operand width.
func And(a, b Value) Value { w := widen(a, b); return New(a.bits&b.bits, w) }

// Or returns a|b at the wider operand width.
func Or(a, b Value) Value { w := widen(a, b); return New(a.bits|b.bits, w) }

// Xor returns a^b at the wider operand width.
func Xor(a, b Value) Value { w := widen(a, b); return New(a.bits^b.bits, w) }

// Not returns the bitwise complement of v at its own width.
func Not(v Value) Value { return New(^v.bits, int(v.width)) }

// Neg returns the two's complement negation of v at its own width.
func Neg(v Value) Value { return New(-v.bits, int(v.width)) }

// Shl returns a << n at a's width. Shifts >= width clear the value.
func Shl(a Value, n uint) Value {
	if n >= uint(a.width) {
		return New(0, int(a.width))
	}
	return New(a.bits<<n, int(a.width))
}

// ShrU returns the logical right shift a >> n.
func ShrU(a Value, n uint) Value {
	if n >= uint(a.width) {
		return New(0, int(a.width))
	}
	return New(a.bits>>n, int(a.width))
}

// ShrS returns the arithmetic right shift of a by n.
func ShrS(a Value, n uint) Value {
	return New(ShrSWord(a.bits, n, int(a.width)), int(a.width))
}

// CmpS compares signed: -1, 0 or +1.
func CmpS(a, b Value) int {
	ai, bi := a.Int(), b.Int()
	switch {
	case ai < bi:
		return -1
	case ai > bi:
		return 1
	default:
		return 0
	}
}

// CmpU compares unsigned: -1, 0 or +1.
func CmpU(a, b Value) int {
	switch {
	case a.bits < b.bits:
		return -1
	case a.bits > b.bits:
		return 1
	default:
		return 0
	}
}

// Eq reports payload equality ignoring width differences (values compare by
// their zero-extended bits, as LISA behavior code does).
func Eq(a, b Value) bool { return a.bits == b.bits }

// SignExtend reinterprets the low from bits of v as signed and extends to
// v's full width. It models the behavior builtin sign_extend(x, from).
func SignExtend(v Value, from int) Value {
	return New(SignExtendWord(v.bits, int(v.width), from), int(v.width))
}

// ZeroExtend clears all bits of v above from. It models zero_extend(x, from).
func ZeroExtend(v Value, from int) Value {
	return New(ZeroExtendWord(v.bits, int(v.width), from), int(v.width))
}

// SatS saturates the signed value of v into to bits, returned at v's width.
// It models the DSP saturate(x, to) builtin.
func SatS(v Value, to int) Value {
	return New(SatSWord(v.bits, int(v.width), to), int(v.width))
}

// AddSat performs signed saturating addition at the wider operand width.
func AddSat(a, b Value) Value {
	return New(AddSatWord(a.bits, int(a.width), b.bits, int(b.width)), widen(a, b))
}

// SubSat performs signed saturating subtraction at the wider operand width.
func SubSat(a, b Value) Value {
	return New(SubSatWord(a.bits, int(a.width), b.bits, int(b.width)), widen(a, b))
}

// Abs returns |v| at v's width (the most negative value wraps, like hardware).
func Abs(v Value) Value { return New(AbsWord(v.bits, int(v.width)), int(v.width)) }

// --- raw words ----------------------------------------------------------------

// The word operations below compute on a payload alone, zero-extended into
// a uint64 with its width passed beside it, as a Value stores it. They are
// the one definition of the rules two's complement leaves open; the Value
// operations above call them, and so does the behavior engine's typed
// closure compiler, which knows every width before the program runs.

// Sext returns the low w bits of v sign-extended to 64 bits; 0 for width 0.
func Sext(v uint64, w int) int64 {
	sh := uint(64 - w)
	return int64(v<<sh) >> sh
}

// DivSWord is the signed quotient of the w-bit a and b at width w. A
// quotient by zero is all ones; Go defines the most negative value divided
// by -1 as itself.
func DivSWord(a, b uint64, w int) uint64 {
	d := Sext(b, w)
	if d == 0 {
		return Mask(w)
	}
	return uint64(Sext(a, w)/d) & Mask(w)
}

// RemSWord is the signed remainder of the w-bit a and b at width w; a
// remainder by zero is zero.
func RemSWord(a, b uint64, w int) uint64 {
	d := Sext(b, w)
	if d == 0 {
		return 0
	}
	return uint64(Sext(a, w)%d) & Mask(w)
}

// ShrSWord shifts the w-bit a right by n, filling with its sign; a count
// of w or more leaves only the sign.
func ShrSWord(a uint64, n uint, w int) uint64 {
	if n >= uint(w) {
		n = uint(w) - 1
	}
	return uint64(Sext(a, w)>>n) & Mask(w)
}

// SignExtendWord reinterprets the low from bits of the w-bit v as signed
// and extends them to width w; from is clamped to 1..w.
func SignExtendWord(v uint64, w, from int) uint64 {
	return uint64(Sext(v, min(max(from, 1), w))) & Mask(w)
}

// ZeroExtendWord clears the bits of the w-bit v above from, clamped to 1..w.
func ZeroExtendWord(v uint64, w, from int) uint64 {
	return v & Mask(min(max(from, 1), w))
}

// SatSWord saturates the signed value of the w-bit v into to bits, clamped
// to 1..64, and returns it at width w.
func SatSWord(v uint64, w, to int) uint64 {
	to = min(max(to, 1), 64)
	if to == 64 {
		return v
	}
	hi := int64(Mask(to - 1)) // 2^(to-1)-1
	return uint64(min(max(Sext(v, w), -hi-1), hi)) & Mask(w)
}

// AddSatWord is the signed saturating sum of the aw-bit a and the bw-bit
// b, at the wider width; SubSatWord is their saturating difference. Both
// read each operand as signed at its own width.
func AddSatWord(a uint64, aw int, b uint64, bw int) uint64 {
	w := max(aw, bw)
	return SatSWord(uint64(Sext(a, aw)+Sext(b, bw)), 64, w) & Mask(w)
}

// SubSatWord: see AddSatWord.
func SubSatWord(a uint64, aw int, b uint64, bw int) uint64 {
	w := max(aw, bw)
	return SatSWord(uint64(Sext(a, aw)-Sext(b, bw)), 64, w) & Mask(w)
}

// AbsWord is the magnitude of the w-bit v at width w; the most negative
// value wraps onto itself, like hardware.
func AbsWord(v uint64, w int) uint64 {
	if Sext(v, w) < 0 {
		return -v & Mask(w)
	}
	return v
}

// SliceWord extracts bits hi..lo of v (either order) and returns them
// with their width, hi-lo+1 clamped to 1..64.
func SliceWord(v uint64, hi, lo int) (uint64, int) {
	if hi < lo {
		hi, lo = lo, hi
	}
	w := min(max(hi-lo+1, 1), MaxWidth)
	return v >> uint(lo) & Mask(w), w
}

// InsertWord returns the w-bit v with bits hi..lo (either order) replaced
// by the low bits of src.
func InsertWord(v uint64, w, hi, lo int, src uint64) uint64 {
	if hi < lo {
		hi, lo = lo, hi
	}
	m := Mask(hi-lo+1) << uint(lo)
	return (v&^m | src<<uint(lo)&m) & Mask(w)
}

// String renders the value as 0x… with its width, e.g. "0x002a:16".
func (v Value) String() string {
	return fmt.Sprintf("0x%0*x:%d", (int(v.width)+3)/4, v.bits, v.width)
}

// BinString renders the value as a binary string of exactly width digits.
func (v Value) BinString() string {
	s := strconv.FormatUint(v.bits, 2)
	for len(s) < int(v.width) {
		s = "0" + s
	}
	return s
}
