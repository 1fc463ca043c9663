package sim

import (
	"sync"
	"testing"

	"resparc/internal/perf"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

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
