package bitvec

import (
	"math/rand"
	"testing"
)

// Or8 must OR a byte across word boundaries exactly like eight Sets.
func TestOr8(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		a := New(200)
		b := New(200)
		i := rng.Intn(193)
		m := uint8(rng.Intn(256))
		a.Or8(i, m)
		for j := 0; j < 8; j++ {
			if m&(1<<uint(j)) != 0 {
				b.Set(i + j)
			}
		}
		for k := 0; k < 200; k++ {
			if a.Get(k) != b.Get(k) {
				t.Fatalf("Or8(%d, %08b): bit %d differs", i, m, k)
			}
		}
	}
}

// LoadBits must agree with a per-bit Get loop for every width and offset.
func TestLoadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := New(300)
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	for trial := 0; trial < 400; trial++ {
		w := 1 + rng.Intn(64)
		i := rng.Intn(300 - w + 1)
		var want uint64
		for j := 0; j < w; j++ {
			if b.Get(i + j) {
				want |= 1 << uint(j)
			}
		}
		if got := b.LoadBits(i, w); got != want {
			t.Fatalf("LoadBits(%d, %d) = %b, want %b", i, w, got, want)
		}
	}
}
