package cover

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// Bitset is a dense bit vector over one coverage domain, one bit per
// enumerated item. It marshals to JSON as a hex string (16 digits per
// 64-bit word, word 0 first) rather than a number array: coverage words
// routinely exceed 2^53 and would lose bits in any JSON reader that
// parses numbers as float64.
type Bitset []uint64

// NewBitset creates a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i (ignoring out-of-range indices, including -1 from a
// failed Map lookup).
func (b Bitset) Set(i int) {
	if i >= 0 && i < len(b)*64 {
		b[i/64] |= 1 << uint(i%64)
	}
}

// Get reports bit i.
func (b Bitset) Get(i int) bool {
	return i >= 0 && i < len(b)*64 && b[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or folds o into b (b |= o). Lengths must match.
func (b Bitset) Or(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Equal reports whether both bitsets have identical contents.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b Bitset) Clone() Bitset { return append(Bitset(nil), b...) }

// MarshalJSON implements json.Marshaler (hex words, word 0 first).
func (b Bitset) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, len(b)*16+2)
	buf = append(buf, '"')
	for _, w := range b {
		buf = fmt.Appendf(buf, "%016x", w)
	}
	return append(buf, '"'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bitset) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s)%16 != 0 {
		return fmt.Errorf("cover: bitset hex length %d is not a multiple of 16", len(s))
	}
	out := make(Bitset, 0, len(s)/16)
	for i := 0; i < len(s); i += 16 {
		var w uint64
		if _, err := fmt.Sscanf(s[i:i+16], "%016x", &w); err != nil {
			return fmt.Errorf("cover: bad bitset hex %q: %v", s[i:i+16], err)
		}
		out = append(out, w)
	}
	*b = out
	return nil
}
