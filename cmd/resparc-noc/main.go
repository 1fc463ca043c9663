// Command resparc-noc explores the NeuroCell programmable-switch fabric
// (Fig 6) at packet granularity: pick a traffic pattern, packet count and
// cell dimension, and compare the simulated cycles against the ideal
// parallel-transfer bound the architecture model uses.
//
// Usage:
//
//	resparc-noc [-dim 4] [-packets 72] [-pattern neighbor|random|hotspot|all]
//	            [-queuecap N] [-sweep] [-seed 1]
//
// The fabric is cycle-level: one flit per switch per cycle out of
// bounded input FIFOs (-queuecap deep) with credit-based backpressure, so
// congestion (and the Wait column) emerges from the flow control. -sweep
// additionally ramps the offered load and reports how delivered
// cycles-per-packet degrade per pattern — flat for neighbor traffic,
// super-linear at the hotspot.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"resparc/internal/neurocell"
	"resparc/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resparc-noc: ")
	dim := flag.Int("dim", 4, "NeuroCell mPE grid dimension, 2-16 (4 = the Fig 8 cell)")
	packets := flag.Int("packets", 72, "spike packets injected at cycle 0")
	pattern := flag.String("pattern", "all", "traffic pattern: neighbor, random, hotspot, all")
	queueCap := flag.Int("queuecap", 0, "per-switch input-FIFO depth in flits (<= 0: neurocell.DefaultQueueCap)")
	sweep := flag.Bool("sweep", false, "also ramp offered load and report delivered cycles per pattern")
	seed := flag.Int64("seed", 1, "PRNG seed for random traffic")
	flag.Parse()

	sw, err := neurocell.NewSwitchNet(*dim)
	if err != nil {
		log.Fatal(err)
	}
	mpes := *dim * *dim
	// Each generator draws from a fresh PRNG so a pattern's traffic depends
	// only on (-seed, packet count), not on which patterns ran before it.
	gen := map[string]func(int) []neurocell.Transfer{
		"neighbor": func(n int) []neurocell.Transfer {
			out := make([]neurocell.Transfer, n)
			for i := range out {
				src := i % mpes
				out[i] = neurocell.Transfer{SrcMPE: src, DstMPE: (src + 1) % mpes}
			}
			return out
		},
		"random": func(n int) []neurocell.Transfer {
			rng := rand.New(rand.NewSource(*seed))
			out := make([]neurocell.Transfer, n)
			for i := range out {
				out[i] = neurocell.Transfer{SrcMPE: rng.Intn(mpes), DstMPE: rng.Intn(mpes)}
			}
			return out
		},
		"hotspot": func(n int) []neurocell.Transfer {
			out := make([]neurocell.Transfer, n)
			for i := range out {
				out[i] = neurocell.Transfer{SrcMPE: i % (mpes - 1), DstMPE: mpes - 1}
			}
			return out
		},
	}
	opt := neurocell.EventOptions{QueueCap: *queueCap}
	names := []string{"neighbor", "random", "hotspot"}
	if *pattern != "all" {
		if _, ok := gen[*pattern]; !ok {
			log.Fatalf("unknown pattern %q", *pattern)
		}
		names = []string{*pattern}
	}

	fmt.Printf("%dx%d NeuroCell, %d switches, %d packets\n\n",
		*dim, *dim, sw.Switches(), *packets)
	t := report.NewTable("switch-fabric simulation",
		"Pattern", "Ideal cycles", "Simulated", "Slowdown", "Hops", "Max queue", "Wait")
	for _, name := range names {
		st, err := sw.Simulate(gen[name](*packets), opt)
		if err != nil {
			log.Fatal(err)
		}
		ideal := sw.IdealCycles(*packets)
		t.Add(name, fmt.Sprintf("%d", ideal), fmt.Sprintf("%d", st.Cycles),
			report.F(float64(st.Cycles)/float64(ideal)),
			fmt.Sprintf("%d", st.Hops), fmt.Sprintf("%d", st.MaxQueue),
			fmt.Sprintf("%d", st.WaitCycles))
	}
	t.Render(os.Stdout)

	if *sweep {
		// Offered load ramp: inject multiples of the cell's port count and
		// watch cycles-per-packet. Uniform traffic stays near flat; the
		// hotspot's single ejection port serializes, so its curve bends.
		fmt.Println()
		loads := []int{mpes / 2, mpes, 2 * mpes, 4 * mpes, 8 * mpes}
		st := report.NewTable("congestion sweep (offered load vs delivered cycles)",
			"Pattern", "Packets", "Ideal", "Cycles", "Cyc/pkt", "Wait")
		for _, name := range names {
			for _, n := range loads {
				s, err := sw.Simulate(gen[name](n), opt)
				if err != nil {
					log.Fatal(err)
				}
				st.Add(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", sw.IdealCycles(n)),
					fmt.Sprintf("%d", s.Cycles),
					report.F(float64(s.Cycles)/float64(n)),
					fmt.Sprintf("%d", s.WaitCycles))
			}
		}
		st.Render(os.Stdout)
	}

	fmt.Println("\nload balance (forwards per switch, last pattern):")
	st, err := sw.Simulate(gen[names[len(names)-1]](*packets), opt)
	if err != nil {
		log.Fatal(err)
	}
	for i, f := range st.Forwards {
		fmt.Printf("  switch %d: %d\n", i, f)
	}
}
