package snn

import (
	"math"
	"strings"
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

func TestRasterRecords(t *testing.T) {
	l := mustDense(t, 4, 3, 0.5, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l)
	st := NewState(net)
	r := NewRaster(0)
	in := tensor.Vec{1, 1, 1, 1}
	res := st.RunBlockedK(in, NewRegularEncoder(1), 10, 0, r)
	if r.Steps() != 10 {
		t.Fatalf("Steps = %d", r.Steps())
	}
	// Weight 0.5 x 4 inputs = 2 per step >= threshold 1: every neuron
	// spikes every step.
	if r.TotalSpikes() != 30 {
		t.Fatalf("TotalSpikes = %d, want 30", r.TotalSpikes())
	}
	if r.MeanRate() != 1 {
		t.Fatalf("MeanRate = %v", r.MeanRate())
	}
	if res.OutCounts[0] != 10 {
		t.Fatalf("functional run disagrees: %v", res.OutCounts)
	}
	// Input raster.
	ri := NewRaster(-1)
	st.RunBlockedK(in, NewRegularEncoder(1), 5, 0, ri)
	if ri.TotalSpikes() != 20 { // 4 inputs x 5 steps at p=1
		t.Fatalf("input raster %d spikes", ri.TotalSpikes())
	}
}

func TestRasterRender(t *testing.T) {
	l := mustDense(t, 2, 2, 1, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 2}, l)
	st := NewState(net)
	r := NewRaster(0)
	st.RunBlockedK(tensor.Vec{1, 0}, NewRegularEncoder(1), 6, 0, r)
	var sb strings.Builder
	if err := r.Render(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "2 neurons x 6 steps") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Fatalf("no spikes rendered:\n%s", out)
	}
	// Capped render mentions the remainder.
	var sb2 strings.Builder
	if err := r.Render(&sb2, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "more neurons") {
		t.Fatalf("truncation notice missing:\n%s", sb2.String())
	}
}

// newTestBits is a local alias for bit-vector construction in these tests.
func newTestBits(n int) *bitvec.Bits { return bitvec.New(n) }
