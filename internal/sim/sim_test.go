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
		return func([]tensor.Vec, []snn.Encoder, []perf.Result, []Report) {}
	}
	enc := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.5, int64(i)) }
	if _, _, err := Each(nil, enc, Options{}, 1, newSession); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := Each([]tensor.Vec{make(tensor.Vec, 4)}, nil, Options{}, 1, newSession); err == nil {
		t.Fatal("nil encoder factory accepted")
	}
}

// Each must build one session per worker that has a chunk, hand every
// input to some session in contiguous chunks of min(group, ⌈n/workers⌉)
// inputs, each with its own encoder, and index results by input — the
// contract every backend's ClassifyEach inherits.
func TestEachSessionsAndOrdering(t *testing.T) {
	for _, c := range []struct{ n, workers, group, chunk, sessions int }{
		{17, 1, 1, 1, 1},
		{17, 4, 1, 1, 4},
		{17, 1, 4, 4, 1},
		{17, 4, 4, 4, 4},
		{5, 4, 4, 2, 3}, // ⌈5/4⌉ = 2, so three chunks for four workers
		{3, 2, 4, 2, 2},
		{1, 3, 4, 1, 1},
	} {
		inputs := make([]tensor.Vec, c.n)
		for i := range inputs {
			inputs[i] = tensor.Vec{float64(i)}
		}
		encs := make([]snn.Encoder, c.n)
		enc := func(i int) snn.Encoder {
			encs[i] = snn.NewPoissonEncoder(0.5, int64(i))
			return encs[i]
		}
		var mu sync.Mutex
		built := 0
		newSession := func() Session {
			mu.Lock()
			built++
			mu.Unlock()
			return func(in []tensor.Vec, es []snn.Encoder, ress []perf.Result, reps []Report) {
				lo := int(in[0][0])
				if len(in) > c.chunk || (len(in) < c.chunk && lo+len(in) != c.n) || lo%c.chunk != 0 {
					t.Errorf("%+v: chunk of %d at %d", c, len(in), lo)
				}
				for i := range in {
					if int(in[i][0]) != lo+i || es[i] != encs[lo+i] {
						t.Errorf("%+v: chunk at %d not contiguous or encoder mismatched at %d", c, lo, i)
					}
					ress[i] = perf.Result{Energy: in[i][0]}
					reps[i] = Report{Predicted: int(in[i][0])}
				}
			}
		}
		ress, reps, err := Each(inputs, enc, Options{Workers: c.workers}, c.group, newSession)
		if err != nil {
			t.Fatal(err)
		}
		if built != c.sessions {
			t.Fatalf("%+v: built %d sessions", c, built)
		}
		for i := range inputs {
			if ress[i].Energy != float64(i) || reps[i].Predicted != i {
				t.Fatalf("%+v: result %d out of order: %+v %+v", c, i, ress[i], reps[i])
			}
		}
	}
}
