package event

import (
	"math/rand"
	"testing"
)

// TestQueueOrderingDeterministic is the satellite property test: the pop
// sequence of a (tick, priority, seq) schedule is identical no matter what
// order the items were inserted in. 200 random schedules, each inserted in 5
// different shuffles, must pop in exactly the same order every time.
func TestQueueOrderingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		sched := make([]Item, n)
		for i := range sched {
			sched[i] = Item{
				// Small ranges force heavy collisions on every key prefix.
				Tick: int64(rng.Intn(8)),
				Prio: int32(rng.Intn(3)),
				Seq:  uint64(rng.Intn(16)),
			}
		}
		var ref []Item
		for shuffle := 0; shuffle < 5; shuffle++ {
			perm := rng.Perm(n)
			var q Queue
			for _, idx := range perm {
				q.Push(sched[idx])
			}
			got := make([]Item, 0, n)
			for q.Len() > 0 {
				got = append(got, q.Pop())
			}
			// Popped order must be sorted by the composite key.
			for i := 1; i < len(got); i++ {
				if got[i].Less(got[i-1]) {
					t.Fatalf("trial %d shuffle %d: pop %d (%+v) out of order after %+v",
						trial, shuffle, i, got[i], got[i-1])
				}
			}
			if shuffle == 0 {
				ref = got
				continue
			}
			for i := range got {
				if got[i].Tick != ref[i].Tick || got[i].Prio != ref[i].Prio || got[i].Seq != ref[i].Seq {
					t.Fatalf("trial %d shuffle %d: pop %d = %+v, want %+v (insertion order leaked into pop order)",
						trial, shuffle, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestResource verifies FIFO-exclusive grant timing and the wait accounting
// used by the bus model.
func TestResource(t *testing.T) {
	var r Resource
	if s := r.Acquire(3, 4); s != 3 {
		t.Fatalf("first acquire start %d, want 3", s)
	}
	// Requested at 5, but busy until 7 → waits 2.
	if s := r.Acquire(5, 2); s != 7 {
		t.Fatalf("second acquire start %d, want 7", s)
	}
	// Requested after the release horizon → no wait.
	if s := r.Acquire(20, 1); s != 20 {
		t.Fatalf("third acquire start %d, want 20", s)
	}
	if r.Wait() != 2 {
		t.Fatalf("wait %d, want 2", r.Wait())
	}
}

// TestQueueWarmZeroAllocs pins the typed heap: once the backing array has
// grown, Push and Pop move Items in place and never allocate (the old
// container/heap wrapper boxed every item into an interface).
func TestQueueWarmZeroAllocs(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 256)
	for i := range items {
		items[i] = Item{Tick: int64(rng.Intn(32)), Prio: int32(rng.Intn(4)), Seq: uint64(i)}
	}
	cycle := func() {
		for _, it := range items {
			q.Push(it)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle() // grow the backing array
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("warm Push/Pop allocate %.1f times per cycle, want 0", a)
	}
}

// BenchmarkQueue times 256 pushes and 256 pops of a warm queue.
func BenchmarkQueue(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 256)
	for i := range items {
		items[i] = Item{Tick: int64(rng.Intn(32)), Prio: int32(rng.Intn(4)), Seq: uint64(i)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			q.Push(it)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
