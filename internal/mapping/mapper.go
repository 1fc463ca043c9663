package mapping

import (
	"fmt"

	"resparc/internal/cost"
	"resparc/internal/snn"
)

// Mapper is the pluggable placement strategy: it plans how a network lands
// on the crossbar hierarchy — per-layer MCA size, NeuroCell alignment, shard
// cut points — and returns the decision as a serializable Placement
// artifact. Consumers (core, shard, serve, the cmd tools) realize the
// artifact with Placement.Apply instead of re-deriving layout.
type Mapper interface {
	// Name identifies the strategy ("greedy", "annealed").
	Name() string
	// Plan searches the constraint space and returns the chosen placement
	// with its modeled cost breakdown.
	Plan(net *snn.Network, cons Constraints) (*Placement, error)
}

// Greedy is the legacy one-shot strategy as a Mapper: the uniform baseline
// MCA size everywhere (Constraints.Hierarchy.MCASize), no NeuroCell
// alignment, and — for multi-chip plans — the minimax mPE-balance cuts
// internal/shard derives on its own. Applying a Greedy placement therefore
// reproduces the direct Map(net, cfg) + shard.New path bit for bit.
type Greedy struct{}

// Name implements Mapper.
func (Greedy) Name() string { return "greedy" }

// Plan implements Mapper.
func (Greedy) Plan(net *snn.Network, cons Constraints) (*Placement, error) {
	if err := cons.normalize(); err != nil {
		return nil, err
	}
	ev, err := newEvaluator(net, cons)
	if err != nil {
		return nil, err
	}
	c, err := ev.greedyCandidate()
	if err != nil {
		return nil, err
	}
	cost, err := ev.evaluate(c)
	if err != nil {
		return nil, err
	}
	cost.Objective = ev.objective(cost, cost)
	return ev.placement("greedy", 0, c, cost)
}

// BestUniform sweeps the constraint's candidate sizes with Greedy plans and
// returns the uniform placement minimizing the modeled objective — the
// technology-aware uniform sizing of contribution 3 (heterogeneous search is
// Annealed's job). Sizes beyond the technology's MaxSize are skipped, and an
// error is returned when none is left. The returned placement's Objective is relative to the plan at the
// baseline Hierarchy.MCASize.
func BestUniform(net *snn.Network, cons Constraints) (*Placement, error) {
	if err := cons.normalize(); err != nil {
		return nil, err
	}
	var best *Placement
	for _, n := range cons.Sizes {
		c := cons
		c.Hierarchy.MCASize = n
		if n > c.Hierarchy.Tech.MaxSize {
			continue
		}
		p, err := Greedy{}.Plan(net, c)
		if err != nil {
			return nil, err
		}
		if best == nil || objectiveOf(p.Cost, best.Cost, cons.Weights) < objectiveOf(best.Cost, best.Cost, cons.Weights) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mapping: no candidate size permitted by %s (max %d)",
			cons.Hierarchy.Tech.Name, cons.Hierarchy.Tech.MaxSize)
	}
	return best, nil
}

// greedyCandidate is the legacy layout as a search point: the uniform
// baseline size, no alignment, minimax cuts.
func (ev *evaluator) greedyCandidate() (candidate, error) {
	base := ev.cons.Hierarchy.MCASize
	szIdx := ev.cons.sizeIndex(base)
	if szIdx < 0 {
		return candidate{}, fmt.Errorf("mapping: baseline MCA size %d not among candidates %v",
			base, ev.cons.Sizes)
	}
	L := len(ev.net.Layers)
	c := candidate{size: make([]int, L), align: make([]bool, L)}
	for li := range c.size {
		c.size[li] = szIdx
	}
	c.cuts = ev.balancedCuts(c)
	return c, nil
}

// balancedCuts re-derives the minimax mPE-balance cut points for the
// candidate's current sizes (nil for single-chip plans).
func (ev *evaluator) balancedCuts(c candidate) []int {
	if ev.cons.Shards <= 1 {
		return nil
	}
	spans := make([]int, len(ev.net.Layers))
	for li := range spans {
		spans[li] = ev.stats[li][c.size[li]].mpeSpan
	}
	return cost.MinimaxCuts(spans, ev.cons.Shards)
}

// placement serializes a candidate into the versioned artifact, realizing
// the mapping once to record the per-layer footprint and transports.
func (ev *evaluator) placement(mapper string, seed int64, c candidate, cost CostBreakdown) (*Placement, error) {
	cfg := ev.cons.Hierarchy
	p := &Placement{
		SchemaVersion: PlacementSchemaVersion,
		Network:       ev.net.Name,
		Mapper:        mapper,
		Seed:          seed,
		MCAsPerMPE:    cfg.MCAsPerMPE,
		MPEsPerNC:     cfg.MPEsPerNC,
		Tech:          cfg.Tech.Name,
		Layers:        make([]LayerPlace, len(ev.net.Layers)),
		ShardCuts:     append([]int(nil), c.cuts...),
		Cost:          cost,
	}
	for li := range p.Layers {
		p.Layers[li] = LayerPlace{
			Name:    ev.net.Layers[li].Name,
			MCASize: ev.cons.Sizes[c.size[li]],
			NCAlign: c.align[li],
		}
	}
	m, err := p.Apply(ev.net)
	if err != nil {
		return nil, err
	}
	for li := range p.Layers {
		lm := &m.Layers[li]
		p.Layers[li].MCAs = len(lm.MCAs)
		p.Layers[li].MPEs = lm.MPELast - lm.MPEFirst + 1
		p.Layers[li].Utilization = lm.Utilization
		p.Layers[li].Transport = m.TransportOf(li).String()
	}
	return p, nil
}
