package fault

import (
	"math"
	"testing"

	"resparc/internal/device"
	"resparc/internal/quant"
)

// Same campaign seed must reproduce the exact same fault population: the
// determinism contract mirrors snn.PoissonEncoder.ForkSeed (same seed =>
// identical fault map => identical inference results).
func TestStuckCellsDeterministic(t *testing.T) {
	a := NewCampaign(42, device.AgSi)
	b := NewCampaign(42, device.AgSi)
	id := SlotID{MPE: 7, Slot: 2}
	ca, cb := a.StuckCells(id, 64, 64), b.StuckCells(id, 64, 64)
	if len(ca) == 0 {
		t.Fatalf("expected faults at stuck fraction %g on a 64x64 array", a.StuckFraction)
	}
	if len(ca) != len(cb) {
		t.Fatalf("fault counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
	// A different seed or a different slot must (overwhelmingly) give a
	// different population.
	if same(ca, NewCampaign(43, device.AgSi).StuckCells(id, 64, 64)) {
		t.Fatal("different seeds produced identical fault maps")
	}
	if same(ca, a.StuckCells(SlotID{MPE: 7, Slot: 3}, 64, 64)) {
		t.Fatal("different slots produced identical fault maps")
	}
}

func same(a, b []StuckCell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The dense materialization must agree cell-for-cell with the sparse walk.
func TestCellMapMatchesStuckCells(t *testing.T) {
	c := NewCampaign(9, device.PCM)
	id := SlotID{MPE: 1, Slot: 0}
	m := c.CellMap(id, 32, 48)
	cells := c.StuckCells(id, 32, 48)
	if m.StuckCount() != len(cells) {
		t.Fatalf("StuckCount %d != len(StuckCells) %d", m.StuckCount(), len(cells))
	}
	for _, s := range cells {
		if got := m.At(s.R, s.C, s.Plane); got != s.State {
			t.Fatalf("cell (%d,%d,%v): map says %v, walk says %v", s.R, s.C, s.Plane, got, s.State)
		}
	}
}

// The geometric-skip sampler must hit the configured defect rate: average
// over many slots and check the empirical fraction.
func TestStuckFractionCalibrated(t *testing.T) {
	c := Campaign{Seed: 5, StuckFraction: 0.01, StuckHighShare: 0.5}
	total, devices := 0, 0
	for mpe := 0; mpe < 50; mpe++ {
		total += len(c.StuckCells(SlotID{MPE: mpe}, 64, 64))
		devices += 2 * 64 * 64
	}
	got := float64(total) / float64(devices)
	if math.Abs(got-0.01) > 0.002 {
		t.Fatalf("empirical stuck fraction %.4f, want ~0.01", got)
	}
}

func TestStuckCellsEdgeCases(t *testing.T) {
	if got := (Campaign{Seed: 1}).StuckCells(SlotID{}, 64, 64); got != nil {
		t.Fatalf("zero stuck fraction produced %d faults", len(got))
	}
	all := Campaign{Seed: 1, StuckFraction: 1}.StuckCells(SlotID{}, 4, 4)
	if len(all) != 2*4*4 {
		t.Fatalf("stuck fraction 1 produced %d faults, want %d", len(all), 2*4*4)
	}
}

func TestKillSwitches(t *testing.T) {
	c := Campaign{
		DeadMPEs:  []int{3},
		DeadSlots: []SlotID{{MPE: 5, Slot: 1}},
	}
	if !c.MPEDead(3) || c.MPEDead(4) {
		t.Fatal("MPEDead wrong")
	}
	if !c.SlotDead(SlotID{MPE: 3, Slot: 0}) {
		t.Fatal("slots of a dead mPE must be dead")
	}
	if !c.SlotDead(SlotID{MPE: 5, Slot: 1}) || c.SlotDead(SlotID{MPE: 5, Slot: 0}) {
		t.Fatal("SlotDead wrong")
	}
}

func TestDriftSigmaGrowsWithAge(t *testing.T) {
	c := Campaign{DriftSigma: 0.1, DriftTau: 1e3}
	if got := c.DriftSigmaAt(0); got != 0 {
		t.Fatalf("sigma at age 0 = %g, want 0", got)
	}
	early, late := c.DriftSigmaAt(1e3), c.DriftSigmaAt(1e6)
	if !(early > 0 && late > early) {
		t.Fatalf("drift sigma must grow with age: %g then %g", early, late)
	}
	// One decade past tau adds one DriftSigma (log10 growth).
	if diff := c.DriftSigmaAt(1e5) - c.DriftSigmaAt(1e4); math.Abs(diff-0.1) > 0.02 {
		t.Fatalf("per-decade growth %g, want ~DriftSigma", diff)
	}
}

func TestEffectiveWeight(t *testing.T) {
	m, err := quant.NewMapper(device.AgSi, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy, no drift: readback equals the quantized target.
	if got, want := EffectiveWeight(m, 0.5, DeviceOK, DeviceOK, 1, 1), m.Weight(m.Map(0.5)); got != want {
		t.Fatalf("healthy readback %g, want quantized %g", got, want)
	}
	// Stuck-high positive device on a zero weight reads strongly positive.
	if got := EffectiveWeight(m, 0, StuckHigh, DeviceOK, 1, 1); got < 0.9 {
		t.Fatalf("stuck-high G+ on zero weight reads %g, want ~WMax", got)
	}
	// Stuck-low positive device kills a positive weight.
	if got := EffectiveWeight(m, 0.8, StuckLow, DeviceOK, 1, 1); math.Abs(got) > 0.05 {
		t.Fatalf("stuck-low G+ on w=0.8 reads %g, want ~0", got)
	}
	// Drift factors move the readback but clamping keeps it in range.
	if got := EffectiveWeight(m, 1.0, DeviceOK, DeviceOK, 100, 1); got > 1.0+1e-9 {
		t.Fatalf("drifted readback %g escaped the conductance range", got)
	}
}

func TestDriftStreamsIndependentAndDeterministic(t *testing.T) {
	c := Campaign{Seed: 11, DriftSigma: 0.05}
	id := SlotID{MPE: 2, Slot: 1}
	a, b := c.DriftRng(id), c.DriftRng(id)
	for i := 0; i < 16; i++ {
		fa, fb := DriftFactor(a, 0.05), DriftFactor(b, 0.05)
		if fa != fb {
			t.Fatalf("drift stream not reproducible at draw %d: %g vs %g", i, fa, fb)
		}
		if fa <= 0 {
			t.Fatalf("drift factor must be positive, got %g", fa)
		}
	}
	// Drift and write streams for the same slot must differ.
	if c.DriftRng(id).Float64() == c.WriteRng(id).Float64() {
		t.Fatal("drift and write streams coincide")
	}
}
