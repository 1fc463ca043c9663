// Regression suite for weight-cache coherence: a network whose weights are
// mutated in place after first use (fault injection, in-place repair) must —
// after InvalidateWeightCaches — classify bit-identically to the CSR oracle
// (oracle_test.go) over the same weights, at a block of one step (the Step
// path) and at a longer block alike.
package snn_test

import (
	"testing"

	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// mutateWeights applies a deterministic in-place perturbation to every
// weighted layer: sign-flip-and-scale a striding subset of entries, the kind
// of arbitrary rewrite a drift model or delta-rule repair performs.
func mutateWeights(net *snn.Network) {
	for li, l := range net.Layers {
		if l.W == nil {
			continue
		}
		for j := range l.W.Data {
			if (j+li)%3 == 0 {
				l.W.Data[j] *= -0.7
			}
		}
	}
}

// paths names the evaluations runAll returns, in order.
var paths = []string{"oracle", "step", "blocked"}

// runAll classifies the same inputs through the oracle, the blocked runner
// at K=1 (Step's kernels) and the blocked runner at K=8.
func runAll(t *testing.T, net *snn.Network, inputs []tensor.Vec, steps int) [3][]snn.RunResult {
	t.Helper()
	enc := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 99).ForkSeed(i) }
	var out [3][]snn.RunResult
	for i, in := range inputs {
		r, _, _, _ := snn.OracleRun(net, in, enc(i), steps, nil)
		out[0] = append(out[0], r)
	}
	for i, opt := range []snn.Options{
		{Workers: 1, BlockSize: 1},
		{Workers: 1, BlockSize: 8},
	} {
		res, err := snn.RunBatch(net, inputs, enc, steps, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[i+1] = res
	}
	return out
}

func assertSameResults(t *testing.T, path string, got, want []snn.RunResult) {
	t.Helper()
	for i := range want {
		if got[i].Prediction != want[i].Prediction {
			t.Fatalf("%s: image %d prediction %d, want %d", path, i, got[i].Prediction, want[i].Prediction)
		}
		for c := range want[i].OutCounts {
			if got[i].OutCounts[c] != want[i].OutCounts[c] {
				t.Fatalf("%s: image %d class %d count %d, want %d",
					path, i, c, got[i].OutCounts[c], want[i].OutCounts[c])
			}
		}
		for c := range want[i].FirstSpike {
			if got[i].FirstSpike[c] != want[i].FirstSpike[c] {
				t.Fatalf("%s: image %d class %d first spike %d, want %d",
					path, i, c, got[i].FirstSpike[c], want[i].FirstSpike[c])
			}
		}
	}
}

// assertMutateThenClassify is the core regression: prime every cache with a
// first classification, mutate W in place, invalidate, and require each
// evaluation path to match a never-cached network built directly on the
// mutated weights.
func assertMutateThenClassify(t *testing.T, dirty, fresh *snn.Network) {
	t.Helper()
	inputs := make([]tensor.Vec, 4)
	for i := range inputs {
		in := make(tensor.Vec, dirty.Input.Size())
		for j := range in {
			in[j] = float64((j*13+i*7+1)%60) / 59
		}
		inputs[i] = in
	}
	const steps = 20

	// Prime the panel caches on every path.
	runAll(t, dirty, inputs, steps)

	mutateWeights(dirty)
	dirty.InvalidateWeightCaches()
	mutateWeights(fresh) // fresh was never run: its caches are unprimed

	got := runAll(t, dirty, inputs, steps)
	want := runAll(t, fresh, inputs, steps)
	for i, path := range paths {
		assertSameResults(t, path, got[i], want[0])
		assertSameResults(t, "fresh "+path, want[i], want[0])
	}
}

func TestInvalidateWeightCachesMLP(t *testing.T) {
	assertMutateThenClassify(t, mlpFixture(t, 0, false), mlpFixture(t, 0, false))
}

// The wide fixture's conv layers have full 8-channel panels, so a stale
// conv panel would show.
func TestInvalidateWeightCachesConvPool(t *testing.T) {
	assertMutateThenClassify(t, convPoolFixture(t), convPoolFixture(t))
	assertMutateThenClassify(t, wideConvPoolFixture(t, 0, false, 1), wideConvPoolFixture(t, 0, false, 1))
}

// Without invalidation the stale caches must keep answering (documented
// hazard); with it, a second invalidation after a second mutation must also
// take effect — the API is reusable, not one-shot.
func TestInvalidateWeightCachesRepeatable(t *testing.T) {
	dirty := mlpFixture(t, 0, false)
	assertMutateThenClassify(t, dirty, mlpFixture(t, 0, false))
	// Second round: mutate again on top of the first mutation. The fresh
	// reference needs round 1's mutation folded in up front (each assert
	// applies one more round to both networks).
	fresh := mlpFixture(t, 0, false)
	mutateWeights(fresh)
	assertMutateThenClassify(t, dirty, fresh)
}
