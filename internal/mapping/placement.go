package mapping

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"resparc/internal/device"
	"resparc/internal/snn"
)

// PlacementSchemaVersion is the current Placement artifact schema. Version 1
// introduced the artifact: per-layer MCA sizes and NeuroCell alignment,
// shard cut points, and the modeled cost breakdown of the mapper that
// produced it.
const PlacementSchemaVersion = 1

// LayerPlace records one layer's placement decisions plus the realized
// statistics a reader wants without re-running the mapper.
type LayerPlace struct {
	// Name is the layer name (checked against the network on Apply).
	Name string `json:"name"`
	// MCASize is the layer's crossbar dimension.
	MCASize int `json:"mca_size"`
	// NCAlign starts the layer on a fresh NeuroCell boundary instead of
	// merely a fresh mPE.
	NCAlign bool `json:"nc_align,omitempty"`
	// MCAs/MPEs and Utilization are informational (recomputed on Apply).
	MCAs        int     `json:"mcas"`
	MPEs        int     `json:"mpes"`
	Utilization float64 `json:"utilization"`
	// Transport is the modeled input path ("bus" or "switch") under this
	// placement. Informational.
	Transport string `json:"transport"`
}

// CostBreakdown is the mapper's modeled cost of a placement: the cost
// model's per-classification energy, pipelined latency (the event-engine
// makespan over the probe raster) and inter-chip link traffic, plus the
// weighted objective the search minimized. All values are those of the
// probe classification — the simulator charges the same for that probe —
// so they track, but are not identical to, the averages a full evaluation
// over real inputs measures.
type CostBreakdown struct {
	EnergyJ     float64 `json:"energy_j"`
	LatencyS    float64 `json:"latency_s"`
	LinkFlits   int     `json:"link_flits,omitempty"`
	LinkEnergyJ float64 `json:"link_energy_j,omitempty"`
	Objective   float64 `json:"objective"`
	MPEs        int     `json:"mpes"`
	NCs         int     `json:"ncs"`
}

// Placement is the serializable mapping artifact: everything needed to
// deterministically rebuild a Mapping (Apply) without re-running the search,
// versioned so future schema changes stay detectable. core, shard, serve
// and the cmd tools consume this instead of re-deriving layout.
//
// The wire form is canonical: fixed field order, no maps, no timestamps —
// the same mapper run (same seed) marshals to byte-identical JSON.
type Placement struct {
	SchemaVersion int `json:"schema_version"`
	// Network is the network name the placement was planned for.
	Network string `json:"network"`
	// Mapper names the strategy that produced the placement ("greedy",
	// "annealed").
	Mapper string `json:"mapper"`
	// Seed is the search seed (annealed) or 0 (greedy).
	Seed int64 `json:"seed"`
	// Hierarchy parameters and technology the placement assumes.
	MCAsPerMPE int    `json:"mcas_per_mpe"`
	MPEsPerNC  int    `json:"mpes_per_nc"`
	Tech       string `json:"tech"`
	// Layers holds the per-layer decisions in network layer order.
	Layers []LayerPlace `json:"layers"`
	// ShardCuts are the layer indices where a new chip begins (ascending,
	// exclusive of 0); empty means single-chip.
	ShardCuts []int `json:"shard_cuts,omitempty"`
	// Cost is the modeled cost breakdown of this placement.
	Cost CostBreakdown `json:"cost"`
}

// WritePlacement writes the artifact as indented canonical JSON.
func WritePlacement(w io.Writer, p *Placement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("mapping: writing placement: %w", err)
	}
	return nil
}

// WritePlacementFile writes the artifact to a file.
func WritePlacementFile(path string, p *Placement) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mapping: %w", err)
	}
	if err := WritePlacement(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPlacement decodes an artifact written by WritePlacement, rejecting
// unknown schema versions.
func ReadPlacement(r io.Reader) (*Placement, error) {
	var p Placement
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("mapping: reading placement: %w", err)
	}
	if p.SchemaVersion < 1 || p.SchemaVersion > PlacementSchemaVersion {
		return nil, fmt.Errorf("mapping: placement schema version %d (this build reads 1..%d)",
			p.SchemaVersion, PlacementSchemaVersion)
	}
	return &p, nil
}

// ReadPlacementFile reads an artifact from a file.
func ReadPlacementFile(path string) (*Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	defer f.Close()
	p, err := ReadPlacement(f)
	if err != nil {
		return nil, fmt.Errorf("mapping: %s: %w", path, err)
	}
	return p, nil
}

// TechByName resolves a technology by its wire name (case-sensitive, the
// names device.All reports).
func TechByName(name string) (device.Technology, error) {
	for _, t := range device.All() {
		if t.Name == name {
			return t, nil
		}
	}
	return device.Technology{}, fmt.Errorf("mapping: unknown technology %q", name)
}

// Validate checks the artifact against a network: matching name, one layer
// entry per network layer (names aligned), a known technology, sizes within
// its reliable maximum, and well-formed shard cuts.
func (p *Placement) Validate(net *snn.Network) error {
	if p.SchemaVersion < 1 || p.SchemaVersion > PlacementSchemaVersion {
		return fmt.Errorf("mapping: placement schema version %d", p.SchemaVersion)
	}
	if p.Network != net.Name {
		return fmt.Errorf("mapping: placement is for network %q, not %q", p.Network, net.Name)
	}
	if len(p.Layers) != len(net.Layers) {
		return fmt.Errorf("mapping: placement has %d layers, network %q has %d",
			len(p.Layers), net.Name, len(net.Layers))
	}
	if p.MCAsPerMPE < 1 || p.MPEsPerNC < 1 {
		return fmt.Errorf("mapping: placement hierarchy %d MCAs/mPE, %d mPEs/NC", p.MCAsPerMPE, p.MPEsPerNC)
	}
	tech, err := TechByName(p.Tech)
	if err != nil {
		return err
	}
	for li, lp := range p.Layers {
		if lp.Name != net.Layers[li].Name {
			return fmt.Errorf("mapping: placement layer %d is %q, network has %q", li, lp.Name, net.Layers[li].Name)
		}
		if lp.MCASize < 2 || lp.MCASize > tech.MaxSize {
			return fmt.Errorf("mapping: placement layer %d MCA size %d outside [2,%d] for %s",
				li, lp.MCASize, tech.MaxSize, tech.Name)
		}
	}
	prev := 0
	for _, c := range p.ShardCuts {
		if c <= prev || c >= len(net.Layers) {
			return fmt.Errorf("mapping: placement shard cuts %v not strictly ascending in (0,%d)",
				p.ShardCuts, len(net.Layers))
		}
		prev = c
	}
	return nil
}

// Apply realizes the placement on the network: the deterministic rebuild of
// the Mapping the artifact describes. A uniform placement without alignment
// reproduces Map(net, cfg) exactly.
func (p *Placement) Apply(net *snn.Network) (*Mapping, error) {
	if err := p.Validate(net); err != nil {
		return nil, err
	}
	tech, err := TechByName(p.Tech)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		MCASize:    p.Layers[0].MCASize,
		MCAsPerMPE: p.MCAsPerMPE,
		MPEsPerNC:  p.MPEsPerNC,
		Tech:       tech,
	}
	sizes := make([]int, len(p.Layers))
	align := make([]bool, len(p.Layers))
	uniform := true
	for li, lp := range p.Layers {
		sizes[li] = lp.MCASize
		align[li] = lp.NCAlign
		if lp.MCASize != cfg.MCASize {
			uniform = false
		}
		if cfg.MCASize < lp.MCASize {
			cfg.MCASize = lp.MCASize
		}
	}
	if uniform {
		align2 := false
		for _, a := range align {
			align2 = align2 || a
		}
		if !align2 {
			// The fast path doubles as the equivalence guarantee: a uniform,
			// unaligned placement realizes through the very same call the
			// legacy direct path uses.
			return Map(net, cfg)
		}
	}
	return mapLayers(net, cfg, sizes, align)
}

// Sizes returns the per-layer MCA sizes in layer order.
func (p *Placement) Sizes() []int {
	out := make([]int, len(p.Layers))
	for i, lp := range p.Layers {
		out[i] = lp.MCASize
	}
	return out
}
