package mapping

import (
	"bytes"
	"reflect"
	"testing"

	"resparc/internal/cost"
	"resparc/internal/device"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// testNetwork is a small heterogeneous stack: a conv layer, a wide dense
// layer (time-multiplexed at small sizes), and a classifier head.
func testNetwork(t *testing.T) (*snn.Network, Config) {
	t.Helper()
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 8, W: 8, C: 3}, OutC: 8, K: 3, Stride: 1, Pad: 1}
	conv := convLayer(t, geom)
	outShape, err := geom.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	d1 := denseLayer(t, outShape.Size(), 96)
	d2 := denseLayer(t, 96, 10)
	net := netOf(t, geom.In, conv, d1, d2)
	return net, cfg(64)
}

func testConstraints(c Config) Constraints {
	cons := DefaultConstraints(c)
	cons.Steps = 6
	return cons
}

func TestGreedyPlanMatchesMap(t *testing.T) {
	net, c := testNetwork(t)
	p, err := (Greedy{}).Plan(net, testConstraints(c))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mapper != "greedy" || p.SchemaVersion != PlacementSchemaVersion {
		t.Fatalf("mapper %q schema %d", p.Mapper, p.SchemaVersion)
	}
	applied, err := p.Apply(net)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Map(net, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(applied.Layers, direct.Layers) {
		t.Fatal("greedy placement realizes a different mapping than the direct path")
	}
	if applied.MPEs != direct.MPEs || applied.NCs != direct.NCs || applied.MCAs != direct.MCAs {
		t.Fatalf("totals differ: %d/%d/%d vs %d/%d/%d",
			applied.MPEs, applied.NCs, applied.MCAs, direct.MPEs, direct.NCs, direct.MCAs)
	}
	if p.Cost.EnergyJ <= 0 || p.Cost.LatencyS <= 0 {
		t.Fatalf("degenerate cost %+v", p.Cost)
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	net, c := testNetwork(t)
	p, err := (Greedy{}).Plan(net, testConstraints(c))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip changed the placement:\n%+v\n%+v", p, back)
	}
	if err := back.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementSchemaVersionRejected(t *testing.T) {
	net, c := testNetwork(t)
	p, err := (Greedy{}).Plan(net, testConstraints(c))
	if err != nil {
		t.Fatal(err)
	}
	p.SchemaVersion = PlacementSchemaVersion + 1
	var buf bytes.Buffer
	if err := WritePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlacement(&buf); err == nil {
		t.Fatal("future schema version accepted")
	}
}

func TestAnnealedDeterministic(t *testing.T) {
	net, c := testNetwork(t)
	cons := testConstraints(c)
	m := Annealed{Seed: 42, Iters: 60, Chains: 3}
	var out [2][]byte
	for i := range out {
		p, err := m.Plan(net, cons)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlacement(&buf, p); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("same seed produced different placements:\n%s\n%s", out[0], out[1])
	}
}

func TestAnnealedNotWorseThanGreedy(t *testing.T) {
	net, c := testNetwork(t)
	cons := testConstraints(c)
	g, err := (Greedy{}).Plan(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (Annealed{Seed: 1, Iters: 120, Chains: 2}).Plan(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	// Both objectives are normalized against the same greedy baseline, and
	// the annealer's incumbent starts at that baseline, so it can never end
	// worse.
	if a.Cost.Objective > g.Cost.Objective {
		t.Fatalf("annealed objective %.6f worse than greedy %.6f", a.Cost.Objective, g.Cost.Objective)
	}
	if err := a.Validate(net); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(net); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealedShardCuts(t *testing.T) {
	net, c := testNetwork(t)
	cons := testConstraints(c)
	cons.Shards = 2
	a, err := (Annealed{Seed: 7, Iters: 80, Chains: 2}).Plan(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ShardCuts) != 1 {
		t.Fatalf("want 1 cut for 2 shards, got %v", a.ShardCuts)
	}
	if c := a.ShardCuts[0]; c <= 0 || c >= len(net.Layers) {
		t.Fatalf("cut %d outside (0, %d)", c, len(net.Layers))
	}
	if a.Cost.LinkFlits <= 0 || a.Cost.LinkEnergyJ <= 0 {
		t.Fatalf("2-shard plan models no link traffic: %+v", a.Cost)
	}
}

func TestHeterogeneousApply(t *testing.T) {
	net, c := testNetwork(t)
	p, err := (Greedy{}).Plan(net, testConstraints(c))
	if err != nil {
		t.Fatal(err)
	}
	p.Layers[0].MCASize = 32
	p.Layers[1].MCASize = 128
	p.Layers[2].NCAlign = true
	m, err := p.Apply(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []int{32, 128, 64}
	for li, n := range want {
		if m.LayerSize(li) != n {
			t.Fatalf("layer %d size %d, want %d", li, m.LayerSize(li), n)
		}
	}
	// NC alignment starts layer 2 on a fresh NeuroCell.
	if m.Layers[2].MPEFirst%c.MPEsPerNC != 0 {
		t.Fatalf("aligned layer starts at mPE %d (not a multiple of %d)", m.Layers[2].MPEFirst, c.MPEsPerNC)
	}
}

func TestApplyRejectsWrongNetwork(t *testing.T) {
	net, c := testNetwork(t)
	p, err := (Greedy{}).Plan(net, testConstraints(c))
	if err != nil {
		t.Fatal(err)
	}
	other := netOf(t, tensor.Shape3{H: 1, W: 1, C: 16}, denseLayer(t, 16, 4))
	if _, err := p.Apply(other); err == nil {
		t.Fatal("placement applied to a different network")
	}
}

func TestBestUniform(t *testing.T) {
	net, c := testNetwork(t)
	cons := testConstraints(c)
	p, err := BestUniform(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Layers[0].MCASize
	for _, lp := range p.Layers {
		if lp.MCASize != first {
			t.Fatalf("BestUniform produced heterogeneous sizes: %+v", p.Layers)
		}
	}
	if first != 32 && first != 64 && first != 128 {
		t.Fatalf("size %d not among the default candidates", first)
	}

	// Technology limits. With energy alone weighted, 128 is the cheapest
	// size on Ag-Si; Spintronic (max 64) must skip it even so.
	cons.Weights = Weights{Energy: 1}
	p, err = BestUniform(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	if p.Layers[0].MCASize != 128 {
		t.Fatalf("Ag-Si energy-only sweep chose size %d, want 128", p.Layers[0].MCASize)
	}
	spin := cons
	spin.Hierarchy.Tech = device.Spintronic
	p, err = BestUniform(net, spin)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range p.Layers {
		if lp.MCASize > device.Spintronic.MaxSize {
			t.Fatalf("Spintronic plan uses size %d beyond its max %d", lp.MCASize, device.Spintronic.MaxSize)
		}
	}
	// Every candidate beyond the technology limit: an error, not a plan.
	spin.Sizes = []int{128, 256}
	if _, err := BestUniform(net, spin); err == nil {
		t.Fatal("expected an error when no candidate size fits the technology")
	}
}

// TestMinimaxCuts pins the shared minimax DP (cost.MinimaxCuts) the mapper
// cuts greedy placements with: balanced cuts, clamping to the layer count,
// and a greedy multi-chip plan carrying exactly the DP's cuts of its spans.
func TestMinimaxCuts(t *testing.T) {
	cuts := cost.MinimaxCuts([]int{4, 4, 4, 4}, 2)
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("got %v", cuts)
	}
	if got := cost.MinimaxCuts([]int{5}, 3); len(got) != 0 {
		t.Fatalf("single layer got cuts %v", got)
	}
	net, c := testNetwork(t)
	cons := testConstraints(c)
	cons.Shards = 2
	p, err := Greedy{}.Plan(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	spans := make([]int, len(p.Layers))
	for li, lp := range p.Layers {
		spans[li] = lp.MPEs
	}
	if want := cost.MinimaxCuts(spans, 2); len(want) != 1 || !reflect.DeepEqual(p.ShardCuts, want) {
		t.Fatalf("greedy cuts %v, minimax DP of spans %v gives %v", p.ShardCuts, spans, want)
	}
}
