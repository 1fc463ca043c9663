package serve

import (
	"reflect"
	"testing"

	"resparc/internal/mapping"
	"resparc/internal/tensor"
)

func planFor(t *testing.T, m mapping.Mapper, cfg RegistryConfig, name string, seed int64) *mapping.Placement {
	t.Helper()
	net := testNetwork(t, name, seed)
	mc := mapping.DefaultConfig()
	mc.MCASize = cfg.MCASize
	mc.Tech = cfg.Tech
	cons := mapping.DefaultConstraints(mc)
	cons.Sizes = []int{cfg.MCASize, 2 * cfg.MCASize}
	cons.Steps = 4
	p, err := m.Plan(net, cons)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A registry built from a placement artifact must classify bit-identically
// to the legacy direct-mapping path: functional results depend only on the
// input and the encoder, never on the layout the mapper chose.
func TestPlacementRegistryMatchesDirect(t *testing.T) {
	cfg := testConfig()
	p := planFor(t, mapping.Annealed{Seed: 3, Iters: 40, Chains: 2}, cfg, "tiny-mlp", 11)

	direct := testRegistry(t)
	cfg.Placements = map[string]*mapping.Placement{"tiny-mlp": p}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := reg.AddNetwork(testNetwork(t, "tiny-mlp", 11))
	if err != nil {
		t.Fatal(err)
	}
	if placed.Placement == nil {
		t.Fatal("model did not record its placement")
	}

	dm, ok := direct.Get("tiny-mlp")
	if !ok {
		t.Fatal("direct registry lost the model")
	}
	inputs := inputBatch(dm.Net.Input.Size(), 6)
	seeds := make([]int64, len(inputs))
	for i := range seeds {
		seeds[i] = int64(i)
	}
	_, want, err := dm.ClassifyEach(BackendRESPARC, inputs, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := placed.ClassifyEach(BackendRESPARC, inputs, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("placement-loaded predictions %v differ from direct %v", got, want)
	}

	info := placed.Info()
	if info.Mapper != "annealed" {
		t.Fatalf("info mapper %q", info.Mapper)
	}
	if len(info.MCASizes) != len(placed.Net.Layers) {
		t.Fatalf("info sizes %v for %d layers", info.MCASizes, len(placed.Net.Layers))
	}
}

// A placement carrying shard cuts overrides the registry's balanced
// partitioner and still registers a working pipeline backend.
func TestPlacementShardCuts(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 3 // would be the default partition; the artifact's cuts win
	p := planFor(t, mapping.Greedy{}, cfg, "tiny-mlp", 11)
	p.ShardCuts = []int{1}
	cfg.Placements = map[string]*mapping.Placement{"tiny-mlp": p}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.AddNetwork(testNetwork(t, "tiny-mlp", 11))
	if err != nil {
		t.Fatal(err)
	}
	multi := ""
	for _, b := range m.Backends() {
		if b != string(BackendRESPARC) && b != string(BackendCMOS) {
			multi = b
		}
	}
	if multi != "resparc-x2" {
		t.Fatalf("backends %v: want a resparc-x2 pipeline from the 1-cut artifact", m.Backends())
	}
	inputs := inputBatch(m.Net.Input.Size(), 3)
	seeds := []int64{0, 1, 2}
	_, want, err := m.ClassifyEach(BackendRESPARC, inputs, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := m.ClassifyEach(Backend(multi), inputs, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sharded predictions %v differ from single-chip %v", got, want)
	}
}

// The acceptance sweep: every Fig 10 benchmark served from an annealed
// placement artifact classifies exactly like the direct-mapping registry.
func TestPlacementBenchmarksMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all six benchmarks twice")
	}
	cfg := DefaultRegistryConfig()
	cfg.Steps = 6
	cfg.Shards = 1 // the x4 pipeline backends are covered elsewhere

	direct, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.LoadBenchmarks(); err != nil {
		t.Fatal(err)
	}

	plCfg := cfg
	plCfg.Placements = make(map[string]*mapping.Placement)
	mc := mapping.DefaultConfig()
	mc.MCASize = cfg.MCASize
	mc.Tech = cfg.Tech
	for _, m := range direct.Models() {
		cons := mapping.DefaultConstraints(mc)
		cons.Steps = 4
		p, err := (mapping.Annealed{Seed: 5, Iters: 30, Chains: 2}).Plan(m.Net, cons)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		plCfg.Placements[m.Name] = p
	}
	placed, err := NewRegistry(plCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := placed.LoadBenchmarks(); err != nil {
		t.Fatal(err)
	}

	for _, dm := range direct.Models() {
		pm, ok := placed.Get(dm.Name)
		if !ok {
			t.Fatalf("%s missing from placement registry", dm.Name)
		}
		if pm.Placement == nil {
			t.Fatalf("%s served without its placement", dm.Name)
		}
		inputs := inputBatch(dm.Net.Input.Size(), 2)
		seeds := []int64{3, 4}
		_, want, err := dm.ClassifyEach(BackendRESPARC, inputs, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := pm.ClassifyEach(BackendRESPARC, inputs, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: placement registry predicts %v, direct %v", dm.Name, got, want)
		}
	}
}

func inputBatch(size, n int) []tensor.Vec {
	out := make([]tensor.Vec, n)
	for i := range out {
		out[i] = tensor.Vec(testInput(size, int64(100+i)))
	}
	return out
}
