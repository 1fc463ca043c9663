package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/perf"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// testNet builds a tiny dense network for the early-exit runner.
func testNet(t *testing.T) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	w := tensor.NewMat(4, 8)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.5
	}
	l, err := snn.NewDense("o", 8, 4, w, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := snn.NewNetwork("tiny", tensor.Shape3{H: 1, W: 1, C: 8}, l)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestEachValidation(t *testing.T) {
	newSession := func() Session {
		return func(tensor.Vec, snn.Encoder) (perf.Result, Report) {
			return perf.Result{}, Report{}
		}
	}
	enc := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.5, int64(i)) }
	if _, _, err := Each(nil, enc, Options{}, newSession); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := Each([]tensor.Vec{make(tensor.Vec, 4)}, nil, Options{}, newSession); err == nil {
		t.Fatal("nil encoder factory accepted")
	}
}

// Each must build exactly one session per worker, hand every input to some
// session in input order, and index results by input — the contract every
// backend's ClassifyEach inherits.
func TestEachSessionsAndOrdering(t *testing.T) {
	inputs := make([]tensor.Vec, 17)
	for i := range inputs {
		inputs[i] = tensor.Vec{float64(i)}
	}
	enc := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.5, int64(i)) }
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		built := 0
		newSession := func() Session {
			mu.Lock()
			built++
			mu.Unlock()
			return func(in tensor.Vec, _ snn.Encoder) (perf.Result, Report) {
				return perf.Result{Energy: in[0]}, Report{Predicted: int(in[0])}
			}
		}
		ress, reps, err := Each(inputs, enc, Options{Workers: workers}, newSession)
		if err != nil {
			t.Fatal(err)
		}
		if built != workers {
			t.Fatalf("built %d sessions for %d workers", built, workers)
		}
		for i := range inputs {
			if ress[i].Energy != float64(i) || reps[i].Predicted != i {
				t.Fatalf("workers=%d: result %d out of order: %+v %+v", workers, i, ress[i], reps[i])
			}
		}
	}
}

// The early-exit runner must stop at the first output spike, agree with the
// functional TTFS decode at that step, and feed the observer every executed
// step.
func TestEarlyExitRunMatchesTTFS(t *testing.T) {
	net := testNet(t)
	intensity := tensor.Vec{0.9, 0.8, 0.7, 0.9, 0.6, 0.8, 0.9, 0.7}
	const maxSteps = 30
	st := snn.NewState(net)
	steps, predicted := EarlyExitRun(st, intensity, snn.NewPoissonEncoder(0.9, 5), maxSteps, nil)
	if steps <= 0 || steps > maxSteps {
		t.Fatalf("steps %d", steps)
	}
	ref := snn.NewState(net).Run(intensity, snn.NewPoissonEncoder(0.9, 5), steps)
	if predicted != ref.TTFSPrediction() {
		t.Fatalf("early exit predicted %d, functional TTFS %d at step %d", predicted, ref.TTFSPrediction(), steps)
	}

	// Observer sees exactly `steps` timesteps with ascending t.
	var seen []int
	st2 := snn.NewState(net)
	steps2, _ := EarlyExitRun(st2, intensity, snn.NewPoissonEncoder(0.9, 5), maxSteps, observerFunc(func(t int) {
		seen = append(seen, t)
	}))
	want := make([]int, steps2)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("observed steps %v, want %v", seen, want)
	}

	// Silence runs the full budget and predicts -1.
	steps3, pred3 := EarlyExitRun(snn.NewState(net), make(tensor.Vec, 8), snn.NewPoissonEncoder(0.9, 6), maxSteps, nil)
	if steps3 != maxSteps || pred3 != -1 {
		t.Fatalf("silent run: steps %d predicted %d", steps3, pred3)
	}
}

type observerFunc func(t int)

func (f observerFunc) ObserveStep(t int, _ *bitvec.Bits, _ []*bitvec.Bits) { f(t) }
