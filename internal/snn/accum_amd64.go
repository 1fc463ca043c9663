//go:build amd64 && !purego

package snn

// Kernel versions on amd64 (accum_amd64.s):
//
//   - blockQuad, blockPanel, segPanel and poolPanel, the no-leak block
//     kernels, run an AVX2 body when the CPU and OS support it (useAVX2,
//     probed once at init) and their pure-Go twins of accum_generic.go
//     otherwise; blockQuad integrates four consecutive 8-lane panels (32
//     neurons) per pass over a spike list, blockPanel one;
//   - accumPanel (leaky layers only) runs baseline SSE2, which every amd64
//     CPU has.
//
// Every version gives lane i exactly the adds of the scalar reference, in
// the same order: ADDPD/VADDPD are independent per-lane IEEE additions, not
// a reassociation, so all versions are bit-identical. Building with the
// purego tag drops the assembly and runs the Go twins (accum_other.go).

// useAVX2 reports whether the block kernels dispatch to their AVX2 bodies.
var useAVX2 = hasAVX2()

// hasAVX2 reports AVX2 support: the CPU has AVX (CPUID.1:ECX bit 28) and
// OSXSAVE (bit 27), the OS saves the XMM and YMM state on context switches
// (XCR0 bits 1 and 2), and the CPU has AVX2 (CPUID.(7,0):EBX bit 5).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)

// accumPanel adds, for every spiking input index in list (ascending, one
// entry per spike of one timestep), the eight packed panel weights of that
// input into the eight lane accumulators (SSE2; see accumPanelGo).
//
// The caller guarantees list entries index within panel (panel holds
// len(panel)/panelLanes input lines) and len(panel) >= panelLanes.
//
//go:noescape
func accumPanel(panel []float64, list []int32, acc *[panelLanes]float64)

// blockPanel integrates one packed 8-lane panel across a whole temporal
// block (no leak): step k adds the panel lines of flat[offs[k]:offs[k+1]]
// into the eight lane accumulators, then applies threshold and reset.
// fires[k] receives step k's fired-lane byte and the result has bit k set
// when fires[k] != 0 (len(fires) <= 64). See blockPanelGo for the per-lane
// operation sequence every version reproduces.
//
// The caller guarantees offs has len(fires)+1 entries, ascending, indexing
// within flat, and that flat entries index within panel.
func blockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	if useAVX2 {
		return blockPanelAVX2(panel, flat, offs, fires, acc, th, hard)
	}
	return blockPanelGo(panel, flat, offs, fires, acc, th, hard)
}

// segPanel is blockPanel over segmented spike lists: step k's spikes are
// the rows segments segs[3*(k*rows+r) : 3*(k*rows+r)+3] = (lo, hi, off),
// r ascending, each adding the panel lines of kernel indices flat[lo:hi] +
// off in order. The wide conv gather hands every receptive field its kernel
// rows as slices of one shared per-step input spike list this way.
//
// The caller guarantees len(segs) >= 3*rows*len(fires), lo <= hi within
// flat, and flat[lo:hi] + off within panel.
func segPanel(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	if useAVX2 {
		return segPanelAVX2(panel, flat, segs, rows, fires, acc, th, hard)
	}
	return segPanelGo(panel, flat, segs, rows, fires, acc, th, hard)
}

// blockQuad is blockPanel over four consecutive panels in one pass over the
// spike lists: panel holds the four panels back to back (len(panel)/4
// doubles each), group g's accumulators are acc[g], its step-k fired-lane
// byte goes to fires[g*kn+k] with kn = len(fires)/4, and the result holds
// the four groups' fired-steps masks. Every lane sees exactly blockPanel's
// adds, threshold and reset, so the result equals four blockPanel calls.
//
// The caller guarantees len(panel) is a multiple of 4*panelLanes, offs has
// len(fires)/4+1 entries as in blockPanel, len(fires)/4 <= 64, and flat
// entries index within each panel.
func blockQuad(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) [quadGroups]uint64 {
	if useAVX2 {
		f0, f1, f2, f3 := blockQuadAVX2(panel, flat, offs, fires, acc, th, hard)
		return [quadGroups]uint64{f0, f1, f2, f3}
	}
	return blockQuadGo(panel, flat, offs, fires, acc, th, hard)
}

//go:noescape
func blockQuadAVX2(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) (fs0, fs1, fs2, fs3 uint64)

//go:noescape
func blockPanelAVX2(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64

//go:noescape
func segPanelAVX2(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64

// poolPanel integrates one 8-channel average-pool group across a whole
// temporal block (no leak). Byte i of counts[k] is lane i's number of set
// window taps on step k; the lane receives that many pw additions, applied
// as rounds of an exact select(count > 0, acc+pw, acc) so a lane without a
// set tap is never touched (adding +0.0 would turn -0.0 into +0.0).
// Threshold, reset and the fires/result contract are blockPanel's.
func poolPanel(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64 {
	if useAVX2 {
		return poolPanelAVX2(counts, fires, acc, pw, th, hard)
	}
	return poolPanelGo(counts, fires, acc, pw, th, hard)
}

//go:noescape
func poolPanelAVX2(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64
