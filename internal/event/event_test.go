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

// TestEngineFIFOWithinKey verifies Schedule's seq stamping: events at the
// same (tick, prio) fire in scheduling order.
func TestEngineFIFOWithinKey(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, 1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want FIFO 0..9", got)
		}
	}
}

// TestEnginePriorityAndTick checks the full composite ordering across
// handlers that schedule further events.
func TestEnginePriorityAndTick(t *testing.T) {
	var e Engine
	var got []string
	e.Schedule(2, 0, func() { got = append(got, "t2p0") })
	e.Schedule(1, 1, func() {
		got = append(got, "t1p1")
		// Same-tick scheduling from inside a handler: fires after all
		// already-queued tick-1 events of lower priority, before tick 2.
		e.Schedule(1, 2, func() { got = append(got, "t1p2-nested") })
	})
	e.Schedule(1, 0, func() { got = append(got, "t1p0") })
	end := e.Run()
	want := []string{"t1p0", "t1p1", "t1p2-nested", "t2p0"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if end != 2 {
		t.Fatalf("final tick %d, want 2", end)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, 0, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.Schedule(3, 0, nil)
}

// TestRunUntil checks that events beyond the limit stay pending (the
// deadlock-detection hook for the NoC simulator).
func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1, 0, func() { fired++ })
	e.Schedule(10, 0, func() { fired++ })
	now, drained := e.RunUntil(5)
	if drained || fired != 1 || now != 1 {
		t.Fatalf("RunUntil(5): now=%d drained=%v fired=%d, want 1 false 1", now, drained, fired)
	}
	now, drained = e.RunUntil(10)
	if !drained || fired != 2 || now != 10 {
		t.Fatalf("RunUntil(10): now=%d drained=%v fired=%d, want 10 true 2", now, drained, fired)
	}
}

// TestResource verifies FIFO-exclusive grant timing and the busy/wait
// accounting used by the bus and link models.
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
	if r.Busy() != 7 {
		t.Fatalf("busy %d, want 7", r.Busy())
	}
	if r.Wait() != 2 {
		t.Fatalf("wait %d, want 2", r.Wait())
	}
	if r.FreeAt() != 21 {
		t.Fatalf("free at %d, want 21", r.FreeAt())
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
