package shard

import (
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/mapping"
)

// Explicit Cuts from a greedy Placement must reproduce the partition the
// balanced DP derives on its own — the consistency that makes a
// placement-driven serve deployment bit-identical to the legacy path.
func TestCutsOverrideMatchesPartition(t *testing.T) {
	b, err := bench.ByName("mnist-cnn")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)

	derived, err := New(chip, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	cons := mapping.DefaultConstraints(mapping.DefaultConfig())
	cons.Steps = 4
	cons.Shards = 3
	p, err := (mapping.Greedy{}).Plan(chip.Net, cons)
	if err != nil {
		t.Fatal(err)
	}
	fromCuts, err := New(chip, Config{Cuts: p.ShardCuts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(derived.Ranges(), fromCuts.Ranges()) {
		t.Fatalf("placement cuts %v realize ranges %v, partitioner derives %v",
			p.ShardCuts, fromCuts.Ranges(), derived.Ranges())
	}
}

func TestCutsValidation(t *testing.T) {
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	for _, cuts := range [][]int{{0}, {1, 1}, {2, 1}, {99}} {
		if _, err := New(chip, Config{Cuts: cuts}); err == nil {
			t.Fatalf("cuts %v accepted", cuts)
		}
	}
	m, err := New(chip, Config{Cuts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Ranges(); len(got) != 2 || got[0] != (Range{0, 1}) {
		t.Fatalf("ranges %v", got)
	}
}
