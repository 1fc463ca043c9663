package cost

import (
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
)

func TestStagePhases(t *testing.T) {
	p := energy.Default45nm() // 2 sync cycles per 8 NCs, 8 bus words/cycle, 3 cycles per integration
	for _, c := range []struct {
		a    Activity
		want Phases
	}{
		// An idle visit pays only the flag sync, no drain.
		{Activity{NCs: 1, MPEs: 4, Switches: 9}, Phases{Sync: 2}},
		// Active MCAs without spikes still spend the threshold-check cycle.
		{Activity{NCs: 9, MPEs: 4, Switches: 81, Delivered: 82, MaxMux: 2},
			Phases{Sync: 4, Delivery: 2, Integrate: 6, Drain: 1}},
		{Activity{NCs: 2, MPEs: 3, Switches: 18, BusWords: 17, Delivered: 5, MaxMux: 1, Spikes: 7},
			Phases{Sync: 2, Bus: 3, Delivery: 1, Integrate: 3, Drain: 3}},
	} {
		got := StagePhases(p, c.a)
		if got != c.want {
			t.Fatalf("%+v: %+v, want %+v", c.a, got, c.want)
		}
		st := got.Stage()
		if int(st.Sync)+int(st.Bus)+int(st.Local) != got.Total() || int(st.Bus) != got.Bus {
			t.Fatalf("%+v folds to %+v", got, st)
		}
	}
}

func TestLinkRaster(t *testing.T) {
	p := energy.Default45nm()
	l := DefaultLink(p)
	b := bitvec.New(200) // four 64-bit flits, the last one partial
	b.Set(3)
	b.Set(130)
	b.Set(199)
	zero, total := b.ZeroPackets(PacketWidth)
	h := l.Raster(total-zero, total)
	if h.FlitsSent != 3 || h.FlitsSuppressed != 1 {
		t.Fatalf("flits %+v", h)
	}
	if want := 4*l.ZeroCheck + 3*l.FlitEnergy; h.EnergyJ != want {
		t.Fatalf("energy %v, want %v", h.EnergyJ, want)
	}
	if want := l.SyncCycles + 1; h.Cycles != want { // 3 flits fit one 4-flit cycle
		t.Fatalf("cycles %d, want %d", h.Cycles, want)
	}
	if h.WaitCycles != 0 {
		t.Fatalf("a priced raster waits %d cycles", h.WaitCycles)
	}
	if got := (Link{}).OrDefault(p); got != l {
		t.Fatalf("zero link defaults to %+v", got)
	}
	if narrow := (Link{FlitsPerCycle: 1}); narrow.OrDefault(p) != narrow {
		t.Fatal("a set link was replaced by the default")
	}
}

// TestMinimaxCutsOptimal checks the DP against every contiguous partition
// of small random span vectors.
func TestMinimaxCutsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		spans := make([]int, 1+rng.Intn(8))
		for li := range spans {
			spans[li] = 1 + rng.Intn(20)
		}
		n := 1 + rng.Intn(len(spans)+2)
		cuts := MinimaxCuts(spans, n)
		if want := min(n, len(spans)) - 1; len(cuts) != want {
			t.Fatalf("%v into %d: %d cuts %v", spans, n, len(cuts), cuts)
		}
		for k := range cuts {
			if cuts[k] <= 0 || cuts[k] >= len(spans) || (k > 0 && cuts[k] <= cuts[k-1]) {
				t.Fatalf("%v into %d: bad cuts %v", spans, n, cuts)
			}
		}
		if got, best := widest(spans, cuts), bestWidest(spans, 0, len(cuts)+1); got != best {
			t.Fatalf("%v into %d: cuts %v give %d, optimum %d", spans, n, cuts, got, best)
		}
	}
}

// widest is the largest part sum of the partition.
func widest(spans, cuts []int) int {
	w, lo := 0, 0
	for i := 0; i <= len(cuts); i++ {
		hi := len(spans)
		if i < len(cuts) {
			hi = cuts[i]
		}
		sum := 0
		for _, s := range spans[lo:hi] {
			sum += s
		}
		w, lo = max(w, sum), hi
	}
	return w
}

// bestWidest exhausts the partitions of spans[lo:] into k non-empty parts.
func bestWidest(spans []int, lo, k int) int {
	if k == 1 {
		return widest(spans[lo:], nil)
	}
	best := int(^uint(0) >> 1)
	sum := 0
	for hi := lo + 1; hi <= len(spans)-(k-1); hi++ {
		sum += spans[hi-1]
		best = min(best, max(sum, bestWidest(spans, hi, k-1)))
	}
	return best
}

func TestCheckCapacity(t *testing.T) {
	spans := []int{3, 4, 5}
	if err := CheckCapacity(spans, []int{2}, 7); err != nil {
		t.Fatal(err)
	}
	if err := CheckCapacity(spans, nil, 0); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	err := CheckCapacity(spans, []int{1}, 7)
	if err == nil || err.Error() != "layers [1,3) need 9 mPEs, chip capacity 7" {
		t.Fatalf("got %v", err)
	}
}

// Energy prices every count once by its per-event energy: checked against
// the charges written out term by term, on the first layer (host-loaded
// input: one bus transaction per broadcast word) and a later one (two).
func TestEnergyPricesTally(t *testing.T) {
	p := energy.Default45nm()
	const sram = 3e-12
	factors := []float64{2e-13, 5e-14}
	tl := Tally{
		BusChecked: 40, BusSent: 7, Checked: 90, Delivered: 31,
		Active: 12, Integrations: 700, Ext: 3, Spikes: 19, Rows: []int{211, 17},
	}
	for _, first := range []bool{true, false} {
		per := 2.0
		if first {
			per = 1
		}
		got := Energy(p, sram, first, factors, &tl)
		if want := 211*factors[0] + 17*factors[1]; got.Crossbar != want {
			t.Fatalf("first=%v: crossbar %v, want %v", first, got.Crossbar, want)
		}
		if want := 700*p.NeuronIntegrate + 19*p.NeuronSpike; got.Neuron != want {
			t.Fatalf("first=%v: neuron %v, want %v", first, got.Neuron, want)
		}
		want := 130*p.ZeroCheck + 7*per*(p.BusWord+sram) + 31*(p.SwitchHop+2*p.BufferAccess) +
			12*p.MPEControl + 19*p.SpikeHandling
		if got.Peripherals != want {
			t.Fatalf("first=%v: peripherals %v, want %v", first, got.Peripherals, want)
		}
	}
	if e := Energy(p, sram, false, nil, &Tally{}); e.Total() != 0 {
		t.Fatalf("an empty tally prices to %+v", e)
	}
}

// Reset, CopyFrom and Sub keep a tally's counts apart from the one it was
// copied from, so a visit's difference is its own activity.
func TestTallyArithmetic(t *testing.T) {
	var a Tally
	a.Reset(2)
	if len(a.Rows) != 2 || a.Rows[0] != 0 || a.RowsDriven() != 0 {
		t.Fatalf("reset tally %+v", a)
	}
	a.Active, a.Spikes, a.Rows[0], a.Rows[1] = 3, 5, 7, 11
	var prev Tally
	prev.CopyFrom(&a)
	a.Active, a.Spikes, a.Rows[0], a.Rows[1] = 4, 9, 8, 20
	if prev.Active != 3 || prev.Rows[1] != 11 {
		t.Fatalf("copy aliases its source: %+v", prev)
	}
	var d Tally
	d.CopyFrom(&a)
	d.Sub(&prev)
	if d.Active != 1 || d.Spikes != 4 || d.Rows[0] != 1 || d.Rows[1] != 9 || d.RowsDriven() != 10 {
		t.Fatalf("difference %+v", d)
	}
	a.Reset(1)
	if len(a.Rows) != 1 || a.Rows[0] != 0 || a.Active != 0 {
		t.Fatalf("reset to one class: %+v", a)
	}
}
