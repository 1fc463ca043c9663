package snn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refBlockPanel is an independent scalar reference for blockPanel: per lane,
// replay the adds of every step's list in order, then threshold and reset —
// the exact operation sequence of the step-major runner with no leak.
func refBlockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k := range fires {
		for _, idx := range flat[offs[k]:offs[k+1]] {
			for i := 0; i < panelLanes; i++ {
				acc[i] += panel[int(idx)*panelLanes+i]
			}
		}
		var mask uint8
		for i := 0; i < panelLanes; i++ {
			if acc[i] >= th {
				mask |= 1 << uint(i)
				if hard {
					acc[i] = 0
				} else {
					acc[i] -= th
				}
			}
		}
		fires[k] = mask
		if mask != 0 {
			fireSteps |= 1 << uint(k)
		}
	}
	return fireSteps
}

// panelKernel is one version of the block kernels.
type panelKernel struct {
	name  string
	block func(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64
	seg   func(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64
	pool  func(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64
	quad  func(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) [quadGroups]uint64
}

// panelKernels returns every version of blockPanel, segPanel, poolPanel
// and blockQuad this build and CPU can run: the pure-Go twins always, the
// AVX2 bodies where present.
func panelKernels(tb testing.TB) []panelKernel {
	ks := []panelKernel{{"go", blockPanelGo, segPanelGo, poolPanelGo, blockQuadGo}}
	if k, ok := asmPanelKernel(); ok {
		ks = append(ks, k)
	} else {
		tb.Log("no AVX2 block kernels in this build or on this CPU: testing the Go twins only")
	}
	return ks
}

// panelRun is one kernel invocation's observable result.
type panelRun struct {
	fs    uint64
	fires []uint8
	acc   [panelLanes]float64
}

// assertSameRun requires two kernel runs to agree bit for bit: fired-steps
// mask, every fired-lane byte and every accumulator's bits.
func assertSameRun(t *testing.T, what string, got, want panelRun) {
	t.Helper()
	if got.fs != want.fs {
		t.Fatalf("%s: fired-steps mask %064b, want %064b", what, got.fs, want.fs)
	}
	for k := range want.fires {
		if got.fires[k] != want.fires[k] {
			t.Fatalf("%s step %d: fires %08b, want %08b", what, k, got.fires[k], want.fires[k])
		}
	}
	for i := range want.acc {
		if math.Float64bits(got.acc[i]) != math.Float64bits(want.acc[i]) {
			t.Fatalf("%s lane %d: acc %x (%v), want %x (%v)", what, i,
				math.Float64bits(got.acc[i]), got.acc[i], math.Float64bits(want.acc[i]), want.acc[i])
		}
	}
}

// runPanel runs kernel on a copy of acc with a fresh fires slice.
func runPanel(kn int, acc [panelLanes]float64, kernel func(fires []uint8, acc *[panelLanes]float64) uint64) panelRun {
	r := panelRun{fires: make([]uint8, kn), acc: acc}
	r.fs = kernel(r.fires, &r.acc)
	return r
}

// randomAcc draws start potentials; one trial in four seeds lanes with
// -0.0, which an add of +0.0 would flip to +0.0.
func randomAcc(rng *rand.Rand) [panelLanes]float64 {
	var acc [panelLanes]float64
	for i := range acc {
		acc[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			acc[i] = math.Copysign(0, -1)
		}
	}
	return acc
}

// panelValues fills a panel; with dyadic set, weights and threshold are
// multiples of 1/8 so sums land exactly on the threshold.
func panelValues(rng *rand.Rand, n int, dyadic bool) []float64 {
	panel := make([]float64, n)
	for i := range panel {
		if dyadic {
			panel[i] = float64(rng.Intn(9)-3) / 8
		} else {
			panel[i] = rng.NormFloat64() * 0.5
		}
	}
	return panel
}

// randomLists draws kn ascending spike lists of fewer than maxN indices
// below lines, one step in five forced silent, as flat lists with offsets.
func randomLists(rng *rand.Rand, lines, kn, maxN int) (flat, offs []int32) {
	offs = make([]int32, kn+1)
	for k := 0; k < kn; k++ {
		n := rng.Intn(maxN)
		if rng.Intn(5) == 0 {
			n = 0 // force silent steps
		}
		prev := -1
		for s := 0; s < n && prev+1 < lines; s++ {
			idx := prev + 1 + rng.Intn(lines-prev-1)
			flat = append(flat, int32(idx))
			prev = idx
		}
		offs[k+1] = int32(len(flat))
	}
	return flat, offs
}

// Every version of blockPanel (AVX2 where the CPU has it, the pure-Go twin
// always) must be bit-identical to the scalar reference for randomized
// panels, spike lists, thresholds, and both reset modes — including steps
// with empty lists, -0.0 potentials and runs where lanes sit exactly at
// threshold.
func TestBlockPanelMatchesReference(t *testing.T) {
	kernels := panelKernels(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		lines := 1 + rng.Intn(40)
		kn := 1 + rng.Intn(64)
		dyadic := trial%3 == 0
		panel := panelValues(rng, lines*panelLanes, dyadic)
		flat, offs := randomLists(rng, lines, kn, 4)
		th := rng.Float64()*2 - 0.2
		if dyadic {
			th = float64(1+rng.Intn(8)) / 8
		}
		hard := rng.Intn(2) == 0
		acc := randomAcc(rng)
		want := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
			return refBlockPanel(panel, flat, offs, f, a, th, hard)
		})
		for _, kr := range kernels {
			got := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
				return kr.block(panel, flat, offs, f, a, th, hard)
			})
			assertSameRun(t, fmt.Sprintf("trial %d blockPanel %s", trial, kr.name), got, want)
		}
	}
}

// Every version of blockQuad must equal four runs of the scalar reference,
// one per panel of the quad, bit for bit: each group's accumulators, fire
// bytes (group g's at fires[g*kn:(g+1)*kn]) and fired-steps mask. Block
// lengths 1, 48 and 64 steps; random lists with silent steps (and whole
// silent blocks); dyadic weights and thresholds that land lanes exactly on
// the threshold; -0.0 and NaN start potentials; both reset modes. The
// groups draw different weights, so a panel read at another group's stride
// offset shows.
func TestBlockQuadMatchesReference(t *testing.T) {
	kernels := panelKernels(t)
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 300; trial++ {
		kn := []int{1, 48, 64}[trial%3]
		lines := 1 + rng.Intn(120)
		dyadic := trial%4 < 2
		stride := lines * panelLanes
		panel := panelValues(rng, quadGroups*stride, dyadic)
		maxN := []int{2, 8, 40}[rng.Intn(3)]
		if trial%10 == 9 {
			maxN = 0 // a silent block
		}
		flat, offs := randomLists(rng, lines, kn, maxN+1)
		th := rng.Float64()*2 - 0.2
		if dyadic {
			th = float64(1+rng.Intn(8)) / 8
		}
		hard := rng.Intn(2) == 0
		var acc [quadGroups][panelLanes]float64
		for g := range acc {
			acc[g] = randomAcc(rng)
			if rng.Intn(4) == 0 {
				acc[g][rng.Intn(panelLanes)] = math.NaN()
			}
		}
		var want [quadGroups]panelRun
		for g := range want {
			pg := panel[g*stride : (g+1)*stride]
			want[g] = runPanel(kn, acc[g], func(f []uint8, a *[panelLanes]float64) uint64 {
				return refBlockPanel(pg, flat, offs, f, a, th, hard)
			})
		}
		for _, kr := range kernels {
			got := acc
			fires := make([]uint8, quadGroups*kn)
			fs := kr.quad(panel, flat, offs, fires, &got, th, hard)
			for g := range want {
				run := panelRun{fs: fs[g], fires: fires[g*kn : (g+1)*kn], acc: got[g]}
				assertSameRun(t, fmt.Sprintf("trial %d blockQuad %s group %d", trial, kr.name, g), run, want[g])
			}
		}
	}
}

// Every version of segPanel must match blockPanel's reference run on the
// materialized lists: each segment (lo, hi, off) contributes kernel indices
// flat[lo:hi] + off. Covers 0-3 rows per step, empty segments, silent
// steps, negative offsets, exact-threshold sums and both reset modes.
func TestSegPanelMatchesReference(t *testing.T) {
	kernels := panelKernels(t)
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 300; trial++ {
		rows := rng.Intn(4)
		rowLen := 1 + rng.Intn(12)
		lines := 3 * rowLen
		kn := 1 + rng.Intn(64)
		dyadic := trial%3 == 0
		panel := panelValues(rng, lines*panelLanes, dyadic)
		var flat, list []int32
		segs := make([]int32, 0, 3*rows*kn)
		offs := make([]int32, kn+1)
		for k := 0; k < kn; k++ {
			silent := rng.Intn(5) == 0
			for r := 0; r < rows; r++ {
				// Row r covers kernel indices [r*rowLen, (r+1)*rowLen); its
				// spikes are stored as input indices kidx - off.
				off := int32(rng.Intn(200) - 100)
				lo := int32(len(flat))
				for x := 0; x < rowLen && !silent; x++ {
					if rng.Intn(3) == 0 {
						kidx := int32(r*rowLen + x)
						flat = append(flat, kidx-off)
						list = append(list, kidx)
					}
				}
				segs = append(segs, lo, int32(len(flat)), off)
			}
			offs[k+1] = int32(len(list))
		}
		th := rng.Float64()*2 - 0.2
		if dyadic {
			th = float64(1+rng.Intn(8)) / 8
		}
		hard := rng.Intn(2) == 0
		acc := randomAcc(rng)
		want := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
			return refBlockPanel(panel, list, offs, f, a, th, hard)
		})
		for _, kr := range kernels {
			got := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
				return kr.seg(panel, flat, segs, rows, f, a, th, hard)
			})
			assertSameRun(t, fmt.Sprintf("trial %d segPanel %s", trial, kr.name), got, want)
		}
	}
}

// refPoolPanel is an independent scalar reference for poolPanel: lane i
// adds pw once per set tap (byte i of counts[k]), then thresholds and
// resets — the step-major pool sequence with no leak.
func refPoolPanel(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k, cw := range counts {
		var mask uint8
		for i := 0; i < panelLanes; i++ {
			for c := 0; c < int(cw>>(8*uint(i))&0xFF); c++ {
				acc[i] += pw
			}
			if acc[i] >= th {
				mask |= 1 << uint(i)
				if hard {
					acc[i] = 0
				} else {
					acc[i] -= th
				}
			}
		}
		fires[k] = mask
		if mask != 0 {
			fireSteps |= 1 << uint(k)
		}
	}
	return fireSteps
}

// Every version of poolPanel must match the scalar reference bit for bit:
// random tap counts up to 255 per lane, silent steps, lanes landing exactly
// on the threshold (pw 1/K^2 with dyadic thresholds), -0.0 lanes without
// taps, and both reset modes.
func TestPoolPanelMatchesReference(t *testing.T) {
	kernels := panelKernels(t)
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 300; trial++ {
		kn := 1 + rng.Intn(64)
		maxTaps := []int{4, 9, 16, 255}[trial%4]
		counts := make([]uint64, kn)
		for k := range counts {
			if rng.Intn(4) == 0 {
				continue // silent step
			}
			for i := 0; i < panelLanes; i++ {
				c := rng.Intn(maxTaps + 1)
				if rng.Intn(2) == 0 {
					c = 0 // lanes without a tap
				}
				counts[k] |= uint64(c) << (8 * uint(i))
			}
		}
		pw := 1 / float64(maxTaps)
		th := float64(1+rng.Intn(4)) / 4
		if trial%2 == 1 {
			pw = rng.Float64()
			th = rng.Float64()*2 - 0.2
		}
		hard := rng.Intn(2) == 0
		acc := randomAcc(rng)
		want := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
			return refPoolPanel(counts, f, a, pw, th, hard)
		})
		for _, kr := range kernels {
			got := runPanel(kn, acc, func(f []uint8, a *[panelLanes]float64) uint64 {
				return kr.pool(counts, f, a, pw, th, hard)
			})
			assertSameRun(t, fmt.Sprintf("trial %d poolPanel %s", trial, kr.name), got, want)
		}
	}
}

// NaN potentials never fire in any version of the pool kernel either, and
// a NaN lane with taps stays NaN.
func TestPoolPanelNaN(t *testing.T) {
	for _, kr := range panelKernels(t) {
		var acc [panelLanes]float64
		acc[2] = math.NaN()
		for i := range acc {
			if i != 2 {
				acc[i] = 0.75
			}
		}
		fires := make([]uint8, 1)
		fs := kr.pool([]uint64{0x0101010101010101}, fires, &acc, 0.25, 1, false)
		if fs != 1 || fires[0] != 0xFB {
			t.Fatalf("%s: fired-steps %b fires %08b, want 1 and 11111011 (NaN lane silent)", kr.name, fs, fires[0])
		}
		if !math.IsNaN(acc[2]) {
			t.Fatalf("%s: NaN lane overwritten: %v", kr.name, acc[2])
		}
	}
}

// A non-zero offs[0] (a window of a larger offsets table) must behave
// exactly like a rebased table in every version of blockPanel and blockQuad.
func TestBlockPanelOffsetWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const stride = 16 * panelLanes
	panel := make([]float64, quadGroups*stride)
	for i := range panel {
		panel[i] = rng.NormFloat64()
	}
	// flat = [prefix | window]: the window's offsets start at 3.
	flat := []int32{1, 5, 9, 0, 4, 7, 11, 2}
	offs := []int32{3, 5, 5, 8}
	var want [quadGroups]panelRun
	for g := range want {
		pg := panel[g*stride : (g+1)*stride]
		want[g] = runPanel(3, [panelLanes]float64{}, func(f []uint8, a *[panelLanes]float64) uint64 {
			return refBlockPanel(pg, flat[3:], []int32{0, 2, 2, 5}, f, a, 0.9, false)
		})
	}
	for _, kr := range panelKernels(t) {
		got := runPanel(3, [panelLanes]float64{}, func(f []uint8, a *[panelLanes]float64) uint64 {
			return kr.block(panel[:stride], flat, offs, f, a, 0.9, false)
		})
		assertSameRun(t, "offset window "+kr.name, got, want[0])
		var acc [quadGroups][panelLanes]float64
		fires := make([]uint8, quadGroups*3)
		fs := kr.quad(panel, flat, offs, fires, &acc, 0.9, false)
		for g := range want {
			run := panelRun{fs: fs[g], fires: fires[g*3 : (g+1)*3], acc: acc[g]}
			assertSameRun(t, fmt.Sprintf("offset window quad %s group %d", kr.name, g), run, want[g])
		}
	}
}

// NaN potentials must never fire (p >= th is false for NaN) and must survive
// the branchless reset unchanged in fired groups, in every version of
// blockPanel.
func TestBlockPanelNaN(t *testing.T) {
	panel := make([]float64, 4*panelLanes)
	for i := range panel {
		panel[i] = 10 // every lane fires after one add, except the NaN lane
	}
	flat := []int32{0}
	offs := []int32{0, 1}
	for _, kr := range panelKernels(t) {
		fires := make([]uint8, 1)
		var acc [panelLanes]float64
		acc[3] = math.NaN()
		fs := kr.block(panel, flat, offs, fires, &acc, 1.0, false)
		if fs != 1 {
			t.Fatalf("%s: fired-steps %b, want 1", kr.name, fs)
		}
		if fires[0] != 0xF7 {
			t.Fatalf("%s: fires %08b, want 11110111 (NaN lane silent)", kr.name, fires[0])
		}
		if !math.IsNaN(acc[3]) {
			t.Fatalf("%s: NaN lane overwritten: %v", kr.name, acc[3])
		}
		for i, p := range acc {
			if i != 3 && p != 9 {
				t.Fatalf("%s lane %d: %v, want 9 (10 added, threshold 1 subtracted)", kr.name, i, p)
			}
		}
	}
}

// accumPanel and accumPanelGo must be bit-identical to per-lane scalar
// accumulation.
func TestAccumPanelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 100; trial++ {
		lines := 1 + rng.Intn(30)
		panel := make([]float64, lines*panelLanes)
		for i := range panel {
			panel[i] = rng.NormFloat64()
		}
		n := rng.Intn(2 * lines)
		list := make([]int32, n)
		for i := range list {
			list[i] = int32(rng.Intn(lines))
		}
		var acc, gen, ref [panelLanes]float64
		for i := range acc {
			acc[i] = rng.NormFloat64()
			gen[i], ref[i] = acc[i], acc[i]
		}
		accumPanel(panel, list, &acc)
		accumPanelGo(panel, list, 0, &gen)
		for _, idx := range list {
			for i := 0; i < panelLanes; i++ {
				ref[i] += panel[int(idx)*panelLanes+i]
			}
		}
		for i := range ref {
			if math.Float64bits(acc[i]) != math.Float64bits(ref[i]) || math.Float64bits(gen[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("trial %d lane %d: %v (Go %v) != %v", trial, i, acc[i], gen[i], ref[i])
			}
		}
	}
}

// BenchmarkBlockPanel measures each version of the block-integration
// kernels over a 48-step block at three loads: conv1 of the Fig 10 CNNs (9
// kernel lines, about one spiking tap per step), the wide conv2 of
// cifar-cnn (1602 lines, about 500 taps per step) and the first layer of
// mnist-mlp (784 lines, about 110 taps per step). conv1 and conv2 time one
// 8-lane group in blockPanel. The MLP load times 32 neurons, four
// consecutive panels, both ways: mlp/panel runs blockPanel once per panel,
// mlp/quad runs them in one blockQuad pass. Weights average 0.02 and the
// threshold is six steps' mean input, so lanes fire about every sixth step,
// like the networks' calibrated 15% rate.
func BenchmarkBlockPanel(b *testing.B) {
	for _, bc := range []struct {
		name        string
		lines, taps int
	}{{"conv1", 9, 1}, {"conv2", 1602, 500}, {"mlp", 784, 110}} {
		rng := rand.New(rand.NewSource(80))
		const kn = 48
		panels := 1
		if bc.name == "mlp" {
			panels = quadGroups
		}
		panel := benchPanel(rng, panels*bc.lines)
		stride := bc.lines * panelLanes
		var flat []int32
		offs := make([]int32, kn+1)
		for k := 0; k < kn; k++ {
			for i := 0; i < bc.lines; i++ {
				if rng.Intn(bc.lines) < bc.taps {
					flat = append(flat, int32(i))
				}
			}
			offs[k+1] = int32(len(flat))
		}
		th := 6 * 0.02 * float64(bc.taps)
		fires := make([]uint8, quadGroups*kn)
		for _, kr := range panelKernels(b) {
			name := bc.name + "/" + kr.name
			if panels > 1 {
				name = bc.name + "/panel/" + kr.name
			}
			b.Run(name, func(b *testing.B) {
				var acc [panelLanes]float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for g := 0; g < panels; g++ {
						acc = [panelLanes]float64{}
						kr.block(panel[g*stride:(g+1)*stride], flat, offs, fires[:kn], &acc, th, false)
					}
				}
			})
			if panels == 1 {
				continue
			}
			b.Run(bc.name+"/quad/"+kr.name, func(b *testing.B) {
				var acc [quadGroups][panelLanes]float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					acc = [quadGroups][panelLanes]float64{}
					kr.quad(panel, flat, offs, fires, &acc, th, false)
				}
			})
		}
	}
}

// BenchmarkSegPanel measures each version of segPanel at the load of
// cifar-cnn's wide conv2 gather: three kernel rows of 3x178 taps (1602
// kernel lines), about 500 spiking taps per step over a 48-step block,
// each row handed over as one (lo, hi, off) segment of a per-step input
// spike list. Weights and threshold are BenchmarkBlockPanel's.
func BenchmarkSegPanel(b *testing.B) {
	const kn, rows, rowLen, taps = 48, 3, 534, 500
	rng := rand.New(rand.NewSource(84))
	panel := benchPanel(rng, rows*rowLen)
	var flat, segs []int32
	for k := 0; k < kn; k++ {
		for r := 0; r < rows; r++ {
			// Row r's spikes are stored as input indices kidx - off, the
			// row starting at input index 1000*r as in a wider image.
			off := int32(r*rowLen - 1000*r)
			lo := int32(len(flat))
			for x := 0; x < rowLen; x++ {
				if rng.Intn(rows*rowLen) < taps {
					flat = append(flat, int32(r*rowLen+x)-off)
				}
			}
			segs = append(segs, lo, int32(len(flat)), off)
		}
	}
	th := 6 * 0.02 * float64(taps)
	fires := make([]uint8, kn)
	for _, kr := range panelKernels(b) {
		b.Run(kr.name, func(b *testing.B) {
			var acc [panelLanes]float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc = [panelLanes]float64{}
				kr.seg(panel, flat, segs, rows, fires, &acc, th, false)
			}
		})
	}
}

// benchPanel draws a panel of lines weight lines averaging 0.02.
func benchPanel(rng *rand.Rand, lines int) []float64 {
	panel := make([]float64, lines*panelLanes)
	for i := range panel {
		panel[i] = 0.02 + rng.NormFloat64()*0.05
	}
	return panel
}

// BenchmarkPoolPanel measures each version of the pool kernel on one
// 8-channel group of a 2x2 pool over a 48-step block with each tap set at
// 15%, the networks' hidden-layer rate (pool weight 1/4, threshold 0.499).
func BenchmarkPoolPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	const kn = 48
	counts := make([]uint64, kn)
	for k := range counts {
		for tap := 0; tap < 4; tap++ {
			var m uint8
			for i := 0; i < panelLanes; i++ {
				if rng.Float64() < 0.15 {
					m |= 1 << uint(i)
				}
			}
			counts[k] += laneSpread[m]
		}
	}
	fires := make([]uint8, kn)
	for _, kr := range panelKernels(b) {
		b.Run(kr.name, func(b *testing.B) {
			var acc [panelLanes]float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc = [panelLanes]float64{}
				kr.pool(counts, fires, &acc, 0.25, 0.499, false)
			}
		})
	}
}
