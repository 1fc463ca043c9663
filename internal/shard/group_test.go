package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/cmosbase"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// leakyDenseNet is a random four-layer dense network that mixes the dense
// paths of the group runner: no-leak soft-reset layers (grouped), a leaky
// layer (run member by member) and a no-leak hard-reset layer, with row
// counts that leave partial 8-lane groups and a quad plus single groups.
func leakyDenseNet(t testing.TB, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := tensor.Shape3{H: 8, W: 8, C: 1}
	sizes := []int{in.Size(), 43, 70, 33, 10}
	var layers []*snn.Layer
	for i := 1; i < len(sizes); i++ {
		w := tensor.NewMat(sizes[i], sizes[i-1])
		for j := range w.Data {
			w.Data[j] = rng.NormFloat64()*0.08 + 0.025
		}
		l, err := snn.NewDense(fmt.Sprintf("d%d", i-1), sizes[i-1], sizes[i], w, 1+0.5*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			l.Leak = 0.1
		case 3:
			l.HardReset = true
		}
		layers = append(layers, l)
	}
	net, err := snn.NewNetwork("leaky-dense", in, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// groupBackends builds the three backends of a network: the chip, the CMOS
// baseline and the chip split over two shards.
func groupBackends(t testing.TB, net *snn.Network) []sim.Backend {
	t.Helper()
	m, err := mapping.Map(net, mapping.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	copt := core.DefaultOptions()
	copt.Steps = testSteps
	chip, err := core.New(net, m, copt)
	if err != nil {
		t.Fatal(err)
	}
	bopt := cmosbase.DefaultOptions()
	bopt.Steps = testSteps
	base, err := cmosbase.New(net, bopt)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []sim.Backend{chip, base, multi}
}

// TestGroupingInvariance pins the weight-stationary group runner end to end:
// on every backend, ClassifyEach over batch sizes 1-9 and Workers 1-3 —
// chunks of one to GroupSize images, a short last chunk, idle workers —
// must return exactly what classifying each image alone returns, with
// reflect.DeepEqual over the whole result and report (predictions,
// energies, Counts, LayerCycles, the Stages grid, link tallies). mnist-mlp
// and the random dense net run in groups of four, mnist-cnn in groups of
// one. Under early exit (chip and baseline; the sharded pipeline rejects
// it) images of four brightnesses exit in different blocks, and a silent
// image runs the full budget.
func TestGroupingInvariance(t *testing.T) {
	wantGroup := map[string]int{"leaky-dense": 4, "mnist-mlp": 4, "mnist-cnn": 1}
	nets := []*snn.Network{leakyDenseNet(t, 3)}
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	const maxBatch = 9
	for _, net := range nets {
		t.Run(net.Name, func(t *testing.T) {
			if g := net.GroupSize(); g != wantGroup[net.Name] {
				t.Fatalf("GroupSize %d, want %d", g, wantGroup[net.Name])
			}
			rng := rand.New(rand.NewSource(17))
			inputs := make([]tensor.Vec, maxBatch)
			for i := range inputs {
				inputs[i] = tensor.NewVec(net.Input.Size())
				if i == 5 {
					continue // silent: never exits early
				}
				// Dimmer images spike later, so members exit at different steps.
				for j := range inputs[i] {
					inputs[i][j] = rng.Float64() * (1 - 0.2*float64(i%4))
				}
			}
			enc := factoryFor(29)
			for _, be := range groupBackends(t, net) {
				for _, early := range []bool{false, true} {
					if early && be.Name() != "resparc" && be.Name() != "cmos" {
						continue
					}
					opt := sim.Options{EarlyExit: early}
					if early {
						opt.BlockSize = 2 // several exit blocks within the budget
					}
					// The reference: every image alone (a group of one).
					wantRes := make([]perf.Result, maxBatch)
					wantRep := make([]sim.Report, maxBatch)
					for i := range inputs {
						if !early {
							wantRes[i], wantRep[i] = be.Classify(inputs[i], enc(i))
							continue
						}
						ress, reps, err := be.ClassifyEach(inputs[i:i+1], func(int) snn.Encoder { return enc(i) }, sim.Options{Workers: 1, EarlyExit: true, BlockSize: 2})
						if err != nil {
							t.Fatal(err)
						}
						wantRes[i], wantRep[i] = ress[0], reps[0]
					}
					if early {
						blocks := map[int]bool{}
						for _, r := range wantRep[:4] {
							blocks[(r.Steps-1)/2] = true
						}
						t.Logf("%s early: exit steps %d %d %d %d", be.Name(), wantRep[0].Steps, wantRep[1].Steps, wantRep[2].Steps, wantRep[3].Steps)
						if len(blocks) < 2 || wantRep[5].Steps != testSteps {
							t.Fatalf("%s early: exit blocks %v, silent image steps %d; the case needs members exiting in different blocks", be.Name(), blocks, wantRep[5].Steps)
						}
					}
					for n := 1; n <= maxBatch; n++ {
						for workers := 1; workers <= 3; workers++ {
							opt.Workers = workers
							ress, reps, err := be.ClassifyEach(inputs[:n], enc, opt)
							if err != nil {
								t.Fatal(err)
							}
							for i := 0; i < n; i++ {
								if !reflect.DeepEqual(ress[i], wantRes[i]) || !reflect.DeepEqual(reps[i], wantRep[i]) {
									t.Fatalf("%s early=%v n=%d workers=%d: image %d differs from its run alone:\n%+v\n%+v",
										be.Name(), early, n, workers, i, reps[i], wantRep[i])
								}
							}
						}
					}
				}
			}
		})
	}
}
