package bitvec

import (
	"math/rand"
	"testing"
)

// AppendSetRange must agree with a naive Get loop for arbitrary windows,
// including word-straddling and word-aligned boundaries.
func TestAppendSetRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := New(300)
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
		}
	}
	windows := [][2]int{
		{0, 0}, {0, 1}, {0, 64}, {0, 300}, {63, 65}, {64, 128}, {5, 70},
		{127, 129}, {191, 300}, {299, 300}, {60, 60}, {130, 250},
	}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		off := int32(rng.Intn(100) - 50)
		var want []int32
		for i := lo; i < hi; i++ {
			if b.Get(i) {
				want = append(want, int32(i)+off)
			}
		}
		got := b.AppendSetRange(lo, hi, off, nil)
		if len(got) != len(want) {
			t.Fatalf("[%d,%d) off=%d: got %v, want %v", lo, hi, off, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d) off=%d: got %v, want %v", lo, hi, off, got, want)
			}
		}
	}
}

func TestAppendSetRangePanics(t *testing.T) {
	b := New(100)
	for _, w := range [][2]int{{-1, 10}, {0, 101}, {20, 10}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AppendSetRange [%d,%d) did not panic", w[0], w[1])
				}
			}()
			b.AppendSetRange(w[0], w[1], 0, nil)
		}()
	}
}

// Load8 must return the same byte a per-bit Get loop assembles, at every
// in-range offset including word-straddling ones.
func TestLoad8(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New(200)
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	for i := 0; i+8 <= 200; i++ {
		var want uint8
		for j := 0; j < 8; j++ {
			if b.Get(i + j) {
				want |= 1 << uint(j)
			}
		}
		if got := b.Load8(i); got != want {
			t.Fatalf("Load8(%d) = %08b, want %08b", i, got, want)
		}
	}
}

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
