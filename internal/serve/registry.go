// Package serve implements resparc-serve: an HTTP inference service with
// dynamic micro-batching over the RESPARC simulator and its CMOS baseline.
//
// A Registry loads models once at startup — each network is converted,
// mapped onto RESPARC (core.Chip) and prepared for the digital baseline
// (cmosbase.Baseline) — and the Server batches incoming classification
// requests across the shared worker pool (internal/parallel). Determinism
// is end-to-end: a request's spike stream is keyed by its own seed via
// snn.PoissonEncoder.ForkSeed, never by arrival order or batch composition,
// so the same request returns the same answer at any concurrency.
package serve

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"resparc/internal/bench"
	"resparc/internal/cmosbase"
	"resparc/internal/core"
	"resparc/internal/device"
	"resparc/internal/energy"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/shard"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// RegistryConfig fixes the simulation fidelity shared by every model a
// registry serves.
type RegistryConfig struct {
	// Steps is the number of SNN timesteps per classification.
	Steps int
	// MCASize is the crossbar dimension for the RESPARC mapping.
	MCASize int
	// MaxProb is the Poisson encoder's peak spike probability.
	MaxProb float64
	// Seed is the base encoder seed; request streams fork from it by the
	// request's seed (see Model.ClassifyEach).
	Seed int64
	// Params is the energy/timing calibration.
	Params energy.Params
	// Tech is the memristive technology.
	Tech device.Technology
	// Shards, when > 1, also registers a multi-chip pipeline backend
	// (internal/shard) per model under its own name ("resparc-x4"); the
	// shard count is clamped to the model's layer count.
	Shards int
	// Placements maps a network name to an optimized mapping.Placement
	// (resparc-map plan / resparc-serve -placement). A registered network
	// with an entry here is realized from the artifact — per-layer MCA
	// sizes, NeuroCell alignment, and (when the artifact carries cuts) the
	// shard partition — instead of the uniform MCASize mapping. Networks
	// without an entry keep the legacy path.
	Placements map[string]*mapping.Placement
}

// DefaultRegistryConfig mirrors the paper's evaluation configuration
// (experiments.DefaultConfig).
func DefaultRegistryConfig() RegistryConfig {
	return RegistryConfig{
		Steps:   48,
		MCASize: 64,
		MaxProb: 0.8,
		Seed:    1,
		Params:  energy.Default45nm(),
		Tech:    device.AgSi,
		Shards:  4,
	}
}

// Model is one servable network: pre-mapped onto RESPARC and prepared for
// the CMOS baseline at registry build time, so request handling never pays
// conversion or mapping cost.
type Model struct {
	Name string
	Net  *snn.Network
	Chip *core.Chip
	Base *cmosbase.Baseline
	Map  *mapping.Mapping
	// Placement is the artifact the mapping was realized from (nil for the
	// legacy uniform path).
	Placement *mapping.Placement

	enc *snn.PoissonEncoder // base encoder; request streams fork from it
	// backends maps wire name -> sim.Backend; order preserves registration
	// so listings are stable.
	backends map[string]sim.Backend
	order    []string

	// mu is the repair quiescence lock: classification holds the read
	// side, a repair pass (which rewrites the network's weights in place)
	// holds the write side. Uncontended when repair is off.
	mu sync.RWMutex
	// served counts crossbar inferences classified through this model —
	// the deployment age clock when repair is enabled. CMOS requests are
	// excluded: digital SRAM does not wear the crossbars.
	served atomic.Int64
}

// addBackend registers a backend under its own Name.
func (m *Model) addBackend(b sim.Backend) {
	if m.backends == nil {
		m.backends = make(map[string]sim.Backend)
	}
	m.backends[b.Name()] = b
	m.order = append(m.order, b.Name())
}

// Backend resolves a wire-form backend name.
func (m *Model) Backend(name string) (sim.Backend, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.backends[name]
	return b, ok
}

// Served returns how many crossbar inferences the model has classified.
func (m *Model) Served() int64 { return m.served.Load() }

// Backends lists the model's backend names in registration order.
func (m *Model) Backends() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// ClassifyEach classifies the batch on the requested backend, one encoder
// fork per request seed, and returns per-request results and predictions in
// input order. Request i's outcome depends only on (inputs[i], seeds[i]), so
// it is independent of batch composition and worker count — the serving
// determinism contract. Every backend is driven through the one sim.Backend
// interface; the model never special-cases a backend type.
func (m *Model) ClassifyEach(backend Backend, inputs []tensor.Vec, seeds []int64, workers int) ([]perf.Result, []int, error) {
	// The read lock spans the whole evaluation: a repair pass (write side)
	// rewrites the network's weights in place and must see no batch in
	// flight. Nested locking is avoided — the backend lookup happens under
	// this same acquisition, not through Backend().
	m.mu.RLock()
	defer m.mu.RUnlock()
	bk, ok := m.backends[string(backend)]
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown backend %q", backend)
	}
	enc := func(i int) snn.Encoder { return m.enc.ForkSeed(int(seeds[i])) }
	ress, reps, err := bk.ClassifyEach(inputs, enc, sim.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	if backend != BackendCMOS {
		m.served.Add(int64(len(inputs)))
	}
	preds := make([]int, len(reps))
	for i, r := range reps {
		preds[i] = r.Predicted
	}
	return ress, preds, nil
}

// ModelInfo is the /v1/models wire form: topology totals plus the mapping
// statistics of the RESPARC placement and the baseline's memory footprint.
type ModelInfo struct {
	Name        string   `json:"name"`
	Layers      int      `json:"layers"`
	Neurons     int      `json:"neurons"`
	Synapses    int      `json:"synapses"`
	InputSize   int      `json:"input_size"`
	Classes     int      `json:"classes"`
	Steps       int      `json:"steps"`
	MCASize     int      `json:"mca_size"`
	MCAs        int      `json:"mcas"`
	MPEs        int      `json:"mpes"`
	NeuroCells  int      `json:"neurocells"`
	Utilization float64  `json:"utilization"`
	CMOSWeightB int      `json:"cmos_weight_memory_bytes"`
	Backends    []string `json:"backends"`
	// Mapper and MCASizes describe the placement artifact the model was
	// realized from ("greedy", "annealed"); absent on the legacy uniform
	// path. MCASizes lists the per-layer crossbar sizes, which may be
	// heterogeneous.
	Mapper   string `json:"mapper,omitempty"`
	MCASizes []int  `json:"mca_sizes,omitempty"`
	// Health maps backend name to its circuit state ("closed", "open",
	// "half-open"); filled by the server, absent in a bare registry listing.
	Health map[string]string `json:"health,omitempty"`
}

// Info summarizes the model for the registry listing.
func (m *Model) Info() ModelInfo {
	info := ModelInfo{
		Name:        m.Name,
		Layers:      len(m.Net.Layers),
		Neurons:     m.Net.HiddenNeurons(),
		Synapses:    m.Net.Synapses(),
		InputSize:   m.Net.Input.Size(),
		Classes:     m.Net.OutSize(),
		Steps:       m.Chip.Opt.Steps,
		MCASize:     m.Map.Cfg.MCASize,
		MCAs:        m.Map.MCAs,
		MPEs:        m.Map.MPEs,
		NeuroCells:  m.Map.NCs,
		Utilization: m.Map.TotalUtilization(),
		CMOSWeightB: m.Base.WeightMemoryBytes(),
		Backends:    m.Backends(),
	}
	if m.Placement != nil {
		info.Mapper = m.Placement.Mapper
		info.MCASizes = m.Placement.Sizes()
	}
	return info
}

// Registry holds the servable models. It is populated at startup and
// read-only afterwards; the mutex only guards concurrent population (e.g.
// tests registering while a server is already listening).
type Registry struct {
	cfg RegistryConfig

	mu     sync.RWMutex
	order  []string
	models map[string]*Model
}

// NewRegistry returns an empty registry with the given fidelity.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("serve: steps %d", cfg.Steps)
	}
	if cfg.MaxProb <= 0 || cfg.MaxProb > 1 {
		return nil, fmt.Errorf("serve: max spike probability %v out of (0,1]", cfg.MaxProb)
	}
	return &Registry{cfg: cfg, models: make(map[string]*Model)}, nil
}

// Config returns the registry's fidelity configuration.
func (r *Registry) Config() RegistryConfig { return r.cfg }

// AddNetwork converts and maps a network under its own name and registers
// the resulting model. A placement registered for the network's name
// (RegistryConfig.Placements) is applied instead of the uniform mapping.
func (r *Registry) AddNetwork(net *snn.Network) (*Model, error) {
	var m *mapping.Mapping
	var err error
	pl := r.cfg.Placements[net.Name]
	if pl != nil {
		m, err = pl.Apply(net)
		if err != nil {
			return nil, fmt.Errorf("serve: applying placement for %q: %w", net.Name, err)
		}
	} else {
		mc := mapping.DefaultConfig()
		mc.MCASize = r.cfg.MCASize
		mc.Tech = r.cfg.Tech
		m, err = mapping.Map(net, mc)
		if err != nil {
			return nil, fmt.Errorf("serve: mapping %q: %w", net.Name, err)
		}
	}
	copt := core.DefaultOptions()
	copt.Params = r.cfg.Params
	copt.Steps = r.cfg.Steps
	chip, err := core.New(net, m, copt)
	if err != nil {
		return nil, fmt.Errorf("serve: preparing chip for %q: %w", net.Name, err)
	}
	bopt := cmosbase.DefaultOptions()
	bopt.Params = r.cfg.Params
	bopt.Steps = r.cfg.Steps
	base, err := cmosbase.New(net, bopt)
	if err != nil {
		return nil, fmt.Errorf("serve: preparing baseline for %q: %w", net.Name, err)
	}
	model := &Model{
		Name: net.Name, Net: net, Chip: chip, Base: base, Map: m, Placement: pl,
		enc: snn.NewPoissonEncoder(r.cfg.MaxProb, r.cfg.Seed),
	}
	model.addBackend(chip)
	model.addBackend(base)
	if pl != nil && len(pl.ShardCuts) > 0 {
		// The artifact's cut points define the partition.
		multi, err := shard.New(chip, shard.Config{Cuts: pl.ShardCuts})
		if err != nil {
			return nil, fmt.Errorf("serve: sharding %q from placement: %w", net.Name, err)
		}
		model.addBackend(multi)
	} else if r.cfg.Shards > 1 {
		multi, err := shard.New(chip, shard.Config{Shards: r.cfg.Shards})
		if err != nil {
			return nil, fmt.Errorf("serve: sharding %q: %w", net.Name, err)
		}
		model.addBackend(multi)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[model.Name]; dup {
		return nil, fmt.Errorf("serve: duplicate model %q", model.Name)
	}
	r.models[model.Name] = model
	r.order = append(r.order, model.Name)
	return model, nil
}

// LoadBenchmarks builds and registers the named Fig 10 benchmarks (all six
// when names is empty), pre-converted and pre-mapped.
func (r *Registry) LoadBenchmarks(names ...string) error {
	var list []bench.Benchmark
	if len(names) == 0 {
		list = bench.All()
	} else {
		for _, name := range names {
			b, err := bench.ByName(name)
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			list = append(list, b)
		}
	}
	for _, b := range list {
		net, err := b.Build(r.cfg.Seed)
		if err != nil {
			return fmt.Errorf("serve: building %q: %w", b.Name, err)
		}
		if _, err := r.AddNetwork(net); err != nil {
			return err
		}
	}
	return nil
}

// LoadNetworkFile registers a network serialized with snn.WriteNetwork —
// the path trained models take into the service.
func (r *Registry) LoadNetworkFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	net, err := snn.ReadNetwork(f)
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return r.AddNetwork(net)
}

// Get returns a registered model.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Models returns the registered models in registration order.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Model, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.models[name])
	}
	return out
}

// Info lists every model's statistics in registration order.
func (r *Registry) Info() []ModelInfo {
	models := r.Models()
	out := make([]ModelInfo, len(models))
	for i, m := range models {
		out[i] = m.Info()
	}
	return out
}
