// Package cost holds the architecture's cost decisions that the chip
// accountant (internal/core), the multi-chip model (internal/shard) and the
// mapper's cost model (internal/mapping) share: the integer stage-duration
// formula, the Fig 7(a) pipeline makespan, the inter-chip link model, the
// multi-chip model of one classification's stage grid (Shards) and the
// minimax shard partition. One implementation of each is what makes the
// mapper's modeled cost of a placement equal the simulated cost of the same
// probe classification; internal/shard's agreement test pins that equality.
package cost

import "resparc/internal/energy"

// Stage is the modeled duration of one (timestep, layer) pipeline stage,
// split by resource class: Sync is the global-control flag synchronization,
// Bus the shared global-bus occupancy (serializes across all stages of a
// chip), Local the NeuroCell-internal phases (switch delivery,
// time-multiplexed integration, spike drain) that overlap freely across
// layers. Words is not a duration: it counts the nonzero 64-bit words
// (PacketWidth-bit packets) of the layer's input spike vector, the flits a
// chip-to-chip hop into the layer carries (see Shards).
type Stage struct{ Sync, Bus, Local, Words int32 }

// Activity is what one (timestep, layer) visit did, in the terms the
// stage-duration formula prices.
type Activity struct {
	// NCs and MPEs are the layer's NeuroCell and mPE spans; Switches is the
	// number of switches its packet traffic is spread over.
	NCs, MPEs, Switches int
	// BusWords is the packet words broadcast on the global bus (zero when
	// the layer's input rides the NeuroCell switch networks).
	BusWords int
	// Delivered is the packets the switch networks delivered.
	Delivered int
	// MaxMux is the deepest time multiplexing a neuron group reached.
	MaxMux int
	// Spikes is the layer's output spike count.
	Spikes int
}

// Phases is one stage's duration by pipeline phase, in NeuroCell cycles.
type Phases struct{ Sync, Bus, Delivery, Integrate, Drain int }

// StagePhases is the integer stage-duration formula of one (timestep,
// layer) visit.
func StagePhases(p energy.Params, a Activity) Phases {
	ph := Phases{
		// Event flags are read eight NeuroCells per access.
		Sync:      p.SyncCyclesPerNC * ((a.NCs + 7) / 8),
		Delivery:  (a.Delivered + a.Switches - 1) / a.Switches,
		Integrate: a.MaxMux * p.IntegrateCycles,
	}
	if a.BusWords > 0 {
		// The broadcast serializes on the bus, several words per cycle.
		ph.Bus = (a.BusWords + p.BusWordsPerCycle - 1) / p.BusWordsPerCycle
	}
	// Spikes drain through the mPEs' output ports in parallel, one per mPE
	// per cycle; an active visit without spikes still spends the
	// threshold-check cycle.
	if a.Spikes > 0 || a.MaxMux > 0 {
		ph.Drain = (a.Spikes + a.MPEs - 1) / a.MPEs
		if a.Spikes == 0 {
			ph.Drain++
		}
	}
	return ph
}

// Total sums the phases: the stage's serial duration.
func (ph Phases) Total() int { return ph.Sync + ph.Bus + ph.Delivery + ph.Integrate + ph.Drain }

// Stage folds the phases into the pipeline's three resource classes.
func (ph Phases) Stage() Stage {
	return Stage{Sync: int32(ph.Sync), Bus: int32(ph.Bus), Local: int32(ph.Delivery + ph.Integrate + ph.Drain)}
}
