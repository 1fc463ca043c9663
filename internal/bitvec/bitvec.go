// Package bitvec provides a compact bit vector used for spike trains: one
// bit per neuron per timestep. Spike-based (0/1) information transfer is the
// defining property of SNN computation (paper §2.1), and the zero-run
// statistics of these vectors drive the event-driven energy optimizations of
// §3.2 and Fig 13.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-length bit vector.
type Bits struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector of length n.
func New(n int) *Bits {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Bits{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bits) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bits) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear sets bit i to 0.
func (b *Bits) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// check keeps the bounds test inline-able in Set/Clear/Get (they sit on the
// simulator's per-spike hot path); the panic formatting lives in a separate
// cold function so the inliner budget stays small.
func (b *Bits) check(i int) {
	if uint(i) >= uint(b.n) {
		b.panicIndex(i)
	}
}

//go:noinline
func (b *Bits) panicIndex(i int) {
	panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, b.n))
}

// Words returns the vector's 64-bit storage words (bit i is bit i&63 of word
// i>>6; bits past Len are zero). The slice aliases the vector and is for
// reading only: hot loops that gather spikes through precomputed word
// masks index it directly.
func (b *Bits) Words() []uint64 { return b.words }

// Reset clears every bit.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits (the spike count).
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of b.
func (b *Bits) Clone() *Bits {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// ForEachSet calls fn(i) for every set bit in ascending order. This is the
// hot path of the event-driven SNN simulator, so it walks words and uses
// trailing-zero counts rather than testing every bit.
func (b *Bits) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// AppendSet appends the set-bit indices to buf in ascending order and
// returns the extended slice. Callers on the simulation hot path pass a
// reused buffer (buf[:0]) so collecting a spike list is allocation-free once
// the buffer has grown to the high-water mark; unlike ForEachSet there is no
// per-bit closure call, which makes the subsequent weight-gather loops
// directly indexable.
func (b *Bits) AppendSet(buf []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			buf = append(buf, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// Or8 ORs the byte m into bits [i, i+8) (bit j of m lands on bit i+j). The
// blocked kernels assemble one fire mask per 8-lane group and commit it
// with a single call instead of one Set per spiking lane. Hot path: the
// caller guarantees i >= 0 and i+8 <= Len().
func (b *Bits) Or8(i int, m uint8) {
	sh := uint(i & 63)
	b.words[i>>6] |= uint64(m) << sh
	if sh > 56 {
		b.words[i>>6+1] |= uint64(m) >> (64 - sh)
	}
}

// LoadBits returns bits [i, i+w) as the low w bits of a uint64, for
// 1 <= w <= 64. The conv block kernel uses it to pull one kernel row of a
// narrow receptive field (w = valid-taps * channels bits) in one masked
// load, and the pool kernel to read eight channel groups' tap bytes at
// once. Hot path: the caller guarantees i >= 0 and i+w <= Len().
func (b *Bits) LoadBits(i, w int) uint64 {
	sh := uint(i & 63)
	word := b.words[i>>6] >> sh
	if int(sh)+w > 64 {
		word |= b.words[i>>6+1] << (64 - sh)
	}
	return word & (^uint64(0) >> uint(64-w))
}

// CopyFrom overwrites b with the contents of src. Lengths must match.
func (b *Bits) CopyFrom(src *Bits) {
	if b.n != src.n {
		panic(fmt.Sprintf("bitvec: CopyFrom length mismatch %d vs %d", b.n, src.n))
	}
	copy(b.words, src.words)
}

// Slice returns the set-bit indices as a slice (test convenience).
func (b *Bits) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEachSet(func(i int) { out = append(out, i) })
	return out
}

// ZeroPackets returns how many aligned packets of the given bit width are
// all zero, and the total number of packets. This models the "zero-check
// logic" of §3.2: a spike packet whose bits are all zero is insignificant
// and its transfer can be suppressed. Packet widths are expected to be
// powers of two up to 64 in the hardware (a packet is at most one bus word),
// but any positive width is accepted; the final partial packet counts as a
// packet and is zero-checked over its valid bits only.
func (b *Bits) ZeroPackets(width int) (zero, total int) {
	if width <= 0 {
		panic(fmt.Sprintf("bitvec: packet width %d", width))
	}
	if width == 64 {
		// A packet is one storage word (bits past Len are zero).
		for _, w := range b.words {
			if w == 0 {
				zero++
			}
		}
		return zero, len(b.words)
	}
	for start := 0; start < b.n; start += width {
		end := start + width
		if end > b.n {
			end = b.n
		}
		total++
		if b.rangeZero(start, end) {
			zero++
		}
	}
	return zero, total
}

// rangeZero reports whether bits [start, end) are all zero.
func (b *Bits) rangeZero(start, end int) bool {
	for i := start; i < end; {
		if i&63 == 0 && end-i >= 64 {
			if b.words[i>>6] != 0 {
				return false
			}
			i += 64
			continue
		}
		if b.Get(i) {
			return false
		}
		i++
	}
	return true
}

// Density returns the fraction of set bits (0 for an empty vector).
func (b *Bits) Density() float64 {
	if b.n == 0 {
		return 0
	}
	return float64(b.Count()) / float64(b.n)
}
