package mapping

import (
	"math"
	"math/rand"

	"resparc/internal/parallel"
	"resparc/internal/snn"
)

// Annealed is the optimizing Mapper: simulated annealing over per-layer MCA
// sizes, NeuroCell alignment and shard cut points, followed by a
// branch-and-bound sweep of the size vector for small networks. The schedule
// is fully deterministic — every chain runs a seeded generator, chains are
// independent, and the winner is the (objective, chain index) minimum — so
// the same seed always yields a byte-identical Placement regardless of
// worker count.
type Annealed struct {
	// Seed seeds the search (chain i uses Seed + 1000*i). Zero is a valid
	// seed, not "random": there is no nondeterminism anywhere.
	Seed int64
	// Iters is the per-chain iteration count (<= 0 selects 400).
	Iters int
	// Chains is the number of independent annealing chains (<= 0 selects 4).
	// Chains run concurrently but the outcome is worker-count independent.
	Chains int
	// NoRefine skips the branch-and-bound size sweep.
	NoRefine bool
}

// Name implements Mapper.
func (Annealed) Name() string { return "annealed" }

// refineMaxLayers bounds the branch-and-bound sweep: |Sizes|^L leaves are
// explored (with pruning) only when L is at most this.
const refineMaxLayers = 12

// refineMaxNodes caps the sweep's evaluations as a backstop for wide size
// sets.
const refineMaxNodes = 20000

// Plan implements Mapper.
func (a Annealed) Plan(net *snn.Network, cons Constraints) (*Placement, error) {
	if err := cons.normalize(); err != nil {
		return nil, err
	}
	iters := a.Iters
	if iters <= 0 {
		iters = 400
	}
	chains := a.Chains
	if chains <= 0 {
		chains = 4
	}
	ev, err := newEvaluator(net, cons)
	if err != nil {
		return nil, err
	}

	// The greedy layout is both the baseline the objective normalizes
	// against and every chain's starting point.
	start, err := ev.greedyCandidate()
	if err != nil {
		return nil, err
	}
	baseCost, err := ev.evaluate(start)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		c   candidate
		obj float64
	}
	results := make([]outcome, chains)
	parallel.ForEach(chains, parallel.Clamp(chains, chains), func(_, i int) {
		c, obj := ev.annealChain(start, baseCost, a.Seed+1000*int64(i), iters)
		results[i] = outcome{c: c, obj: obj}
	})
	best := results[0]
	for _, r := range results[1:] {
		// Strict < keeps the lowest chain index on ties — deterministic.
		if r.obj < best.obj {
			best = r
		}
	}

	if !a.NoRefine && len(net.Layers) <= refineMaxLayers {
		best.c, best.obj = ev.refineSizes(best.c, best.obj, baseCost)
	}
	// Rebalance the cuts for the final sizes and keep whichever is better.
	if len(best.c.cuts) > 0 {
		rb := best.c.clone()
		rb.cuts = ev.balancedCuts(rb)
		if cost, err := ev.evaluate(rb); err == nil {
			if obj := ev.objective(cost, baseCost); obj < best.obj {
				best.c, best.obj = rb, obj
			}
		}
	}

	cost, err := ev.evaluate(best.c)
	if err != nil {
		return nil, err
	}
	cost.Objective = ev.objective(cost, baseCost)
	return ev.placement("annealed", a.Seed, best.c, cost)
}

// annealChain runs one simulated-annealing chain and returns its best
// visited candidate. The temperature follows a geometric schedule from 20%
// of the starting objective down three decades; acceptance is the standard
// Metropolis criterion. Each proposal is written into one spare candidate,
// which swaps places with the current one on acceptance, so a chain
// allocates three candidates whatever its length.
func (ev *evaluator) annealChain(start candidate, baseCost CostBreakdown, seed int64, iters int) (candidate, float64) {
	rng := rand.New(rand.NewSource(seed))
	cur, spare := start.clone(), start.clone()
	curObj := ev.objective(baseCost, baseCost)
	bestC, bestObj := cur.clone(), curObj

	t0 := 0.2 * curObj
	alpha := math.Pow(1e-3, 1/float64(iters)) // t0 -> t0/1000 over the run
	temp := t0
	for i := 0; i < iters; i++ {
		ev.neighbor(cur, rng, &spare)
		cost, err := ev.evaluate(spare)
		if err != nil {
			temp *= alpha
			continue // infeasible (capacity): never accepted
		}
		obj := ev.objective(cost, baseCost)
		if obj <= curObj || rng.Float64() < math.Exp((curObj-obj)/temp) {
			cur, spare = spare, cur
			curObj = obj
			if obj < bestObj {
				bestC.copyFrom(cur)
				bestObj = obj
			}
		}
		temp *= alpha
	}
	return bestC, bestObj
}

// neighbor draws one mutation of the candidate c into out (overwritten):
// resize a layer (most common), toggle a layer's NeuroCell alignment, shift
// a shard cut, or resize every layer at once (the move that escapes
// uniform-size local minima in one step).
func (ev *evaluator) neighbor(c candidate, rng *rand.Rand, out *candidate) {
	out.copyFrom(c)
	L := len(out.size)
	S := len(ev.cons.Sizes)
	move := rng.Intn(10)
	switch {
	case move < 5 && S > 1: // resize one layer
		li := rng.Intn(L)
		out.size[li] = (out.size[li] + 1 + rng.Intn(S-1)) % S
	case move < 7 && L > 1: // toggle alignment (layer 0 always starts at 0)
		li := 1 + rng.Intn(L-1)
		out.align[li] = !out.align[li]
	case move < 9 && len(out.cuts) > 0: // shift one cut
		h := rng.Intn(len(out.cuts))
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		nc := out.cuts[h] + delta
		lo, hi := 1, L-1
		if h > 0 {
			lo = out.cuts[h-1] + 1
		}
		if h < len(out.cuts)-1 {
			hi = out.cuts[h+1] - 1
		}
		if nc >= lo && nc <= hi {
			out.cuts[h] = nc
		}
	default: // global resize
		if S > 1 {
			sz := rng.Intn(S)
			for li := range out.size {
				out.size[li] = sz
			}
		}
	}
}

// refineSizes exhausts the per-layer size vectors around the annealed
// winner (alignment and cuts held fixed) by depth-first branch and bound.
// The bound is admissible: a prefix's weighted energy alone — remaining
// layers and the whole latency term can only add cost — so pruning never
// discards the optimum; refineMaxNodes caps the walk as a safety net.
func (ev *evaluator) refineSizes(c candidate, bestObj float64, baseCost CostBreakdown) (candidate, float64) {
	L := len(ev.net.Layers)
	S := len(ev.cons.Sizes)
	if baseCost.EnergyJ <= 0 {
		return c, bestObj
	}
	wE := ev.cons.Weights.Energy
	best := c.clone()
	work := c.clone()
	nodes := 0

	// prefixE[li] accumulates the decided layers' energy. A layer's energy
	// depends only on its own (size, position) and whether it crosses
	// NeuroCells — which the decided prefix fully determines.
	var dfs func(li, cursor int, prefixE float64, pos []layerPos)
	dfs = func(li, cursor int, prefixE float64, pos []layerPos) {
		if nodes >= refineMaxNodes {
			return
		}
		if li == L {
			nodes++
			cost, err := ev.evaluate(work)
			if err != nil {
				return
			}
			if obj := ev.objective(cost, baseCost); obj < bestObj {
				bestObj = obj
				best.copyFrom(work)
			}
			return
		}
		if wE*prefixE/baseCost.EnergyJ >= bestObj {
			return // admissible lower bound already exceeds the incumbent
		}
		perNC := ev.cons.Hierarchy.MPEsPerNC
		for s := 0; s < S; s++ {
			work.size[li] = s
			cur := cursor
			if work.align[li] && cur%perNC != 0 {
				cur += perNC - cur%perNC
			}
			span := ev.stats[li][s].mpeSpan
			pos[li] = layerPos{
				mpeFirst: cur, mpeSpan: span,
				ncFirst: cur / perNC, ncLast: (cur + span - 1) / perNC,
			}
			e := ev.layerEnergy(li, s, ev.crossNC(li, pos)).Total()
			dfs(li+1, cur+span, prefixE+e, pos)
		}
		work.size[li] = c.size[li]
	}
	dfs(0, 0, 0, make([]layerPos, L))
	return best, bestObj
}
