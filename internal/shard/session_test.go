package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/sim"
)

// TestSessionReuseLeaksNothing: the chip's pooled sessions carry the
// functional state and the accountant from one call into the next.
// Back-to-back calls on one Multi with different batch sizes, toggling the
// event engine between them, must report exactly what a freshly built chip
// and Multi report for the same call.
func TestSessionReuseLeaksNothing(t *testing.T) {
	b, err := bench.ByName("mnist-cnn")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 5)
	used, err := New(chip, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range []struct {
		n   int
		evt bool
	}{{5, false}, {2, true}, {3, false}, {4, true}} {
		batch := inputs[len(inputs)-c.n:]
		opt := sim.Options{Workers: 2, EventEngine: c.evt}
		gotRess, gotReps, err := used.ClassifyEach(batch, factoryFor(int64(20+k)), opt)
		if err != nil {
			t.Fatal(err)
		}
		freshChip, err := core.New(chip.Net, chip.Map, chip.Opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(freshChip, Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		wantRess, wantReps, err := fresh.ClassifyEach(batch, factoryFor(int64(20+k)), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRess, wantRess) || !reflect.DeepEqual(gotReps, wantReps) {
			t.Fatalf("call %d (%d images, event %v): reused sessions diverged from a fresh Multi", k, c.n, c.evt)
		}
	}
}

// BenchmarkMultiClassifyEach measures the multi-chip backend's host path
// (the chip's run plus the multi-chip model) on mnist-cnn across four
// chips, serially and at one worker per CPU, so its scaling with Workers
// can be checked in isolation.
func BenchmarkMultiClassifyEach(b *testing.B) {
	bm, err := bench.ByName("mnist-cnn")
	if err != nil {
		b.Fatal(err)
	}
	chip := chipFor(b, bm)
	inputs := benchInputs(b, bm, chip.Net, 8)
	multi, err := New(chip, Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("Workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := multi.ClassifyEach(inputs, factoryFor(1), sim.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(inputs))/b.Elapsed().Seconds(), "img/s")
		})
	}
}
