package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %d", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestCountAnyReset(t *testing.T) {
	b := New(200)
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh vector not empty")
	}
	b.Set(5)
	b.Set(150)
	if !b.Any() || b.Count() != 2 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Reset()
	if b.Any() {
		t.Fatal("Reset failed")
	}
}

func TestForEachSetOrder(t *testing.T) {
	b := New(300)
	want := []int{3, 64, 65, 127, 128, 299}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Slice()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestClone(t *testing.T) {
	b := New(70)
	b.Set(69)
	c := b.Clone()
	c.Clear(69)
	if !b.Get(69) {
		t.Fatal("Clone aliases original")
	}
}

func TestZeroPackets(t *testing.T) {
	b := New(128)
	zero, total := b.ZeroPackets(32)
	if zero != 4 || total != 4 {
		t.Fatalf("empty: zero=%d total=%d", zero, total)
	}
	b.Set(0)   // packet 0 non-zero
	b.Set(127) // packet 3 non-zero
	zero, total = b.ZeroPackets(32)
	if zero != 2 || total != 4 {
		t.Fatalf("zero=%d total=%d", zero, total)
	}
}

func TestZeroPacketsPartialTail(t *testing.T) {
	b := New(100) // packets of 32: 3 full + 1 partial (4 bits)
	zero, total := b.ZeroPackets(32)
	if total != 4 || zero != 4 {
		t.Fatalf("zero=%d total=%d", zero, total)
	}
	b.Set(99)
	zero, _ = b.ZeroPackets(32)
	if zero != 3 {
		t.Fatalf("tail packet should be non-zero: zero=%d", zero)
	}
}

// The width-64 fast path (one packet per storage word) must count what the
// general per-packet range check counts, partial last word included.
func TestZeroPacketsWordAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 200, 1000} {
		for _, p := range []float64{0, 0.005, 0.05, 0.5} {
			b := New(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					b.Set(i)
				}
			}
			wantZero, wantTotal := 0, 0
			for start := 0; start < n; start += 64 {
				wantTotal++
				if b.rangeZero(start, min(start+64, n)) {
					wantZero++
				}
			}
			if zero, total := b.ZeroPackets(64); zero != wantZero || total != wantTotal {
				t.Fatalf("n=%d p=%v: zero=%d total=%d, want %d/%d", n, p, zero, total, wantZero, wantTotal)
			}
		}
	}
}

func TestZeroPacketsWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(8).ZeroPackets(0)
}

func TestDensity(t *testing.T) {
	b := New(100)
	for i := 0; i < 25; i++ {
		b.Set(i)
	}
	if b.Density() != 0.25 {
		t.Fatalf("Density = %v", b.Density())
	}
	if New(0).Density() != 0 {
		t.Fatal("empty Density should be 0")
	}
}

// Property: Count equals the number of indices visited by ForEachSet, and
// ZeroPackets is consistent with per-bit scanning for any width.
func TestBitsProperties(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width%70) + 1
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		b := New(n)
		ref := make([]bool, n)
		for i := 0; i < n/3; i++ {
			idx := rng.Intn(n)
			b.Set(idx)
			ref[idx] = true
		}
		// Count matches reference.
		cnt := 0
		for _, v := range ref {
			if v {
				cnt++
			}
		}
		if b.Count() != cnt {
			return false
		}
		visited := 0
		ok := true
		b.ForEachSet(func(i int) {
			visited++
			if !ref[i] {
				ok = false
			}
		})
		if !ok || visited != cnt {
			return false
		}
		// ZeroPackets matches naive computation.
		wantZero, wantTotal := 0, 0
		for start := 0; start < n; start += w {
			end := start + w
			if end > n {
				end = n
			}
			wantTotal++
			allZero := true
			for i := start; i < end; i++ {
				if ref[i] {
					allZero = false
				}
			}
			if allZero {
				wantZero++
			}
		}
		gotZero, gotTotal := b.ZeroPackets(w)
		return gotZero == wantZero && gotTotal == wantTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSetMatchesForEachSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 300, 4096} {
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.2 {
				b.Set(i)
			}
		}
		var want []int32
		b.ForEachSet(func(i int) { want = append(want, int32(i)) })
		got := b.AppendSet(nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d: AppendSet %d indices, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: index %d: got %d, want %d", n, i, got[i], want[i])
			}
		}
		// Appending extends rather than overwrites.
		pre := []int32{-7}
		ext := b.AppendSet(pre)
		if ext[0] != -7 || len(ext) != 1+len(want) {
			t.Fatalf("n=%d: AppendSet did not extend the given buffer", n)
		}
	}
}

func TestAppendSetReuseIsAllocationFree(t *testing.T) {
	b := New(2048)
	for i := 0; i < 2048; i += 3 {
		b.Set(i)
	}
	buf := make([]int32, 0, 2048)
	allocs := testing.AllocsPerRun(100, func() {
		buf = b.AppendSet(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendSet into a sized buffer allocates %.1f times per run", allocs)
	}
}

func TestCopyFrom(t *testing.T) {
	src := New(130)
	src.Set(0)
	src.Set(64)
	src.Set(129)
	dst := New(130)
	dst.Set(5)
	dst.CopyFrom(src)
	if got, want := dst.Slice(), src.Slice(); len(got) != len(want) {
		t.Fatalf("CopyFrom: got %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CopyFrom: got %v, want %v", got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom length mismatch did not panic")
		}
	}()
	dst.CopyFrom(New(64))
}
