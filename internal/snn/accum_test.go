package snn

import (
	"math"
	"math/rand"
	"testing"
)

// refBlockPanel is an independent scalar reference for blockPanel: per lane,
// replay the adds of every step's list in order, then threshold and reset —
// the exact operation sequence of the step-major runner with no leak.
func refBlockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k := range fires {
		for _, idx := range flat[offs[k]:offs[k+1]] {
			for i := 0; i < panelLanes; i++ {
				acc[i] += panel[int(idx)*panelLanes+i]
			}
		}
		var mask uint8
		for i := 0; i < panelLanes; i++ {
			if acc[i] >= th {
				mask |= 1 << uint(i)
				if hard {
					acc[i] = 0
				} else {
					acc[i] -= th
				}
			}
		}
		fires[k] = mask
		if mask != 0 {
			fireSteps |= 1 << uint(k)
		}
	}
	return fireSteps
}

// blockPanel (SSE2 on amd64, pure Go elsewhere) must be bit-identical to the
// scalar reference for randomized panels, spike lists, thresholds, and both
// reset modes — including steps with empty lists and runs where lanes hover
// exactly at threshold.
func TestBlockPanelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		lines := 1 + rng.Intn(40)
		kn := 1 + rng.Intn(64)
		panel := make([]float64, lines*panelLanes)
		for i := range panel {
			panel[i] = rng.NormFloat64() * 0.5
		}
		var flat []int32
		offs := make([]int32, kn+1)
		for k := 0; k < kn; k++ {
			n := rng.Intn(4)
			if rng.Intn(5) == 0 {
				n = 0 // force silent steps
			}
			prev := -1
			for s := 0; s < n && prev+1 < lines; s++ {
				idx := prev + 1 + rng.Intn(lines-prev-1)
				flat = append(flat, int32(idx))
				prev = idx
			}
			offs[k+1] = int32(len(flat))
		}
		th := rng.Float64()*2 - 0.2
		hard := rng.Intn(2) == 0
		var accA, accR [panelLanes]float64
		for i := range accA {
			accA[i] = rng.NormFloat64()
			accR[i] = accA[i]
		}
		firesA := make([]uint8, kn)
		firesR := make([]uint8, kn)
		gotFS := blockPanel(panel, flat, offs, firesA, &accA, th, hard)
		wantFS := refBlockPanel(panel, flat, offs, firesR, &accR, th, hard)
		if gotFS != wantFS {
			t.Fatalf("trial %d: fired-steps mask %064b, want %064b", trial, gotFS, wantFS)
		}
		for k := range firesR {
			if firesA[k] != firesR[k] {
				t.Fatalf("trial %d step %d: fires %08b, want %08b", trial, k, firesA[k], firesR[k])
			}
		}
		for i := range accR {
			if math.Float64bits(accA[i]) != math.Float64bits(accR[i]) {
				t.Fatalf("trial %d lane %d: acc %x (%v), want %x (%v)",
					trial, i, math.Float64bits(accA[i]), accA[i], math.Float64bits(accR[i]), accR[i])
			}
		}
	}
}

// A non-zero offs[0] (a window of a larger offsets table) must behave
// exactly like a rebased table.
func TestBlockPanelOffsetWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	panel := make([]float64, 16*panelLanes)
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	// flat = [prefix | window]: the window's offsets start at 3.
	flat := []int32{1, 5, 9, 0, 4, 7, 11, 2}
	offs := []int32{3, 5, 5, 8}
	fires := make([]uint8, 3)
	var acc [panelLanes]float64
	got := blockPanel(panel, flat, offs, fires, &acc, 0.9, false)
	rebFlat := flat[3:]
	rebOffs := []int32{0, 2, 2, 5}
	rebFires := make([]uint8, 3)
	var rebAcc [panelLanes]float64
	want := refBlockPanel(panel, rebFlat, rebOffs, rebFires, &rebAcc, 0.9, false)
	if got != want {
		t.Fatalf("fired-steps %b, want %b", got, want)
	}
	for k := range fires {
		if fires[k] != rebFires[k] {
			t.Fatalf("step %d: fires %08b, want %08b", k, fires[k], rebFires[k])
		}
	}
	for i := range acc {
		if math.Float64bits(acc[i]) != math.Float64bits(rebAcc[i]) {
			t.Fatalf("lane %d: %v != %v", i, acc[i], rebAcc[i])
		}
	}
}

// NaN potentials must never fire (p >= th is false for NaN) and must survive
// the branchless reset unchanged in fired groups.
func TestBlockPanelNaN(t *testing.T) {
	panel := make([]float64, 4*panelLanes)
	for i := range panel {
		panel[i] = 10 // every lane fires after one add, except the NaN lane
	}
	flat := []int32{0}
	offs := []int32{0, 1}
	fires := make([]uint8, 1)
	var acc [panelLanes]float64
	acc[3] = math.NaN()
	fs := blockPanel(panel, flat, offs, fires, &acc, 1.0, false)
	if fs != 1 {
		t.Fatalf("fired-steps %b, want 1", fs)
	}
	if fires[0] != 0xF7 {
		t.Fatalf("fires %08b, want 11110111 (NaN lane silent)", fires[0])
	}
	if !math.IsNaN(acc[3]) {
		t.Fatalf("NaN lane overwritten: %v", acc[3])
	}
	for i, p := range acc {
		if i != 3 && p != 9 {
			t.Fatalf("lane %d: %v, want 9 (10 added, threshold 1 subtracted)", i, p)
		}
	}
}

// accumPanel must be bit-identical to per-lane scalar accumulation.
func TestAccumPanelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 100; trial++ {
		lines := 1 + rng.Intn(30)
		panel := make([]float64, lines*panelLanes)
		for i := range panel {
			panel[i] = rng.NormFloat64()
		}
		n := rng.Intn(2 * lines)
		list := make([]int32, n)
		for i := range list {
			list[i] = int32(rng.Intn(lines))
		}
		var acc, ref [panelLanes]float64
		for i := range acc {
			acc[i] = rng.NormFloat64()
			ref[i] = acc[i]
		}
		accumPanel(panel, list, &acc)
		for _, idx := range list {
			for i := 0; i < panelLanes; i++ {
				ref[i] += panel[int(idx)*panelLanes+i]
			}
		}
		for i := range ref {
			if math.Float64bits(acc[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("trial %d lane %d: %v != %v", trial, i, acc[i], ref[i])
			}
		}
	}
}

// BenchmarkBlockPanel measures the block-integration kernel on a
// representative shape: a 66-line panel across a 48-step block at ~3
// spikes/step (the conv layers' typical per-location load).
func BenchmarkBlockPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(80))
	const lines, kn = 66, 48
	panel := make([]float64, lines*panelLanes)
	for i := range panel {
		panel[i] = rng.NormFloat64() * 0.1
	}
	var flat []int32
	offs := make([]int32, kn+1)
	for k := 0; k < kn; k++ {
		for s := 0; s < 3; s++ {
			flat = append(flat, int32(rng.Intn(lines)))
		}
		offs[k+1] = int32(len(flat))
	}
	fires := make([]uint8, kn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc [panelLanes]float64
		blockPanel(panel, flat, offs, fires, &acc, 0.8, false)
	}
}
