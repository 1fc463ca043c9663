package snn

import (
	"math"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

func TestRegularEncoderCounts(t *testing.T) {
	enc := NewRegularEncoder(0.8)
	in := tensor.Vec{1, 0.5, 0, 0.25}
	dst := newTestBits(4)
	counts := make([]int, 4)
	const steps = 100
	for s := 0; s < steps; s++ {
		enc.Encode(in, dst)
		dst.ForEachSet(func(i int) { counts[i]++ })
	}
	wants := []float64{80, 40, 0, 20}
	for i, w := range wants {
		if math.Abs(float64(counts[i])-w) > 1 {
			t.Fatalf("neuron %d: %d spikes, want ~%v", i, counts[i], w)
		}
	}
}

func TestRegularEncoderDeterministic(t *testing.T) {
	a, b := NewRegularEncoder(0.6), NewRegularEncoder(0.6)
	in := tensor.Vec{0.3, 0.7}
	da, db := newTestBits(2), newTestBits(2)
	for s := 0; s < 20; s++ {
		a.Encode(in, da)
		b.Encode(in, db)
		for i := 0; i < 2; i++ {
			if da.Get(i) != db.Get(i) {
				t.Fatal("regular encoders diverged")
			}
		}
	}
	a.Reset()
	c := NewRegularEncoder(0.6)
	dc := newTestBits(2)
	a.Encode(in, da)
	c.Encode(in, dc)
	if da.Get(0) != dc.Get(0) || da.Get(1) != dc.Get(1) {
		t.Fatal("Reset did not restore the initial phase")
	}
}

func TestRegularEncoderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegularEncoder(0)
}

// newTestBits is a local alias for bit-vector construction in these tests.
func newTestBits(n int) *bitvec.Bits { return bitvec.New(n) }
