package snn

// Pure-Go panel kernels. They are built on every architecture: on amd64
// the assembly of accum_amd64.s serves the runner where the CPU allows and
// the tests compare every version bit for bit with the scalar reference;
// on other architectures, under the purego build tag, and for the block
// kernels on amd64 CPUs without AVX2, these are the kernels that run.

// accumPanelGo adds the panel lines of indices list[n] + off, in list
// order, into the eight lane accumulators; with off 0 it is accumPanel's
// twin. Eight local accumulation chains keep the FP add ports busy; the
// two-spike unroll amortizes loop control while each lane's adds stay in
// list order (wa before wb).
func accumPanelGo(panel []float64, list []int32, off int, acc *[panelLanes]float64) {
	p0, p1, p2, p3 := acc[0], acc[1], acc[2], acc[3]
	p4, p5, p6, p7 := acc[4], acc[5], acc[6], acc[7]
	n := 0
	for ; n+2 <= len(list); n += 2 {
		ia, ib := (int(list[n])+off)*panelLanes, (int(list[n+1])+off)*panelLanes
		wa := panel[ia : ia+panelLanes : ia+panelLanes]
		wb := panel[ib : ib+panelLanes : ib+panelLanes]
		p0 += wa[0]
		p1 += wa[1]
		p2 += wa[2]
		p3 += wa[3]
		p4 += wa[4]
		p5 += wa[5]
		p6 += wa[6]
		p7 += wa[7]
		p0 += wb[0]
		p1 += wb[1]
		p2 += wb[2]
		p3 += wb[3]
		p4 += wb[4]
		p5 += wb[5]
		p6 += wb[6]
		p7 += wb[7]
	}
	for ; n < len(list); n++ {
		ia := (int(list[n]) + off) * panelLanes
		wa := panel[ia : ia+panelLanes : ia+panelLanes]
		p0 += wa[0]
		p1 += wa[1]
		p2 += wa[2]
		p3 += wa[3]
		p4 += wa[4]
		p5 += wa[5]
		p6 += wa[6]
		p7 += wa[7]
	}
	acc[0], acc[1], acc[2], acc[3] = p0, p1, p2, p3
	acc[4], acc[5], acc[6], acc[7] = p4, p5, p6, p7
}

// commitStep runs one step's threshold/reset, records the fired-lane byte
// in fires[k] and sets bit k of fireSteps when any lane fired.
func commitStep(acc *[panelLanes]float64, th float64, hard bool, fires []uint8, k int, fireSteps uint64) uint64 {
	mask, _ := fireScan(acc, th, hard)
	fires[k] = mask
	if mask != 0 {
		fireSteps |= 1 << uint(k)
	}
	return fireSteps
}

// blockPanelGo integrates one packed 8-lane panel across a whole temporal
// block (no leak). Step k adds the panel lines of flat[offs[k]:offs[k+1]]
// into the accumulators in list order, then thresholds and resets each lane
// — the exact per-lane sequence of the step-major reference. fires[k]
// receives step k's fired-lane byte; the result has bit k set when
// fires[k] != 0.
func blockPanelGo(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k := range fires {
		accumPanelGo(panel, flat[offs[k]:offs[k+1]], 0, acc)
		fireSteps = commitStep(acc, th, hard, fires, k, fireSteps)
	}
	return fireSteps
}

// blockQuadGo is blockQuad's twin: four blockPanelGo calls, one per panel
// of the quad, each writing its group's kn = len(fires)/4 fire bytes.
func blockQuadGo(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) (fs [quadGroups]uint64) {
	stride, kn := len(panel)/quadGroups, len(fires)/quadGroups
	for g := range fs {
		fs[g] = blockPanelGo(panel[g*stride:(g+1)*stride], flat, offs, fires[g*kn:(g+1)*kn], &acc[g], th, hard)
	}
	return fs
}

// segPanelGo is blockPanelGo over segmented spike lists: step k's spikes are
// the rows segments segs[3*(k*rows+r) : 3*(k*rows+r)+3] = (lo, hi, off),
// r ascending, and each contributes the panel lines of kernel indices
// flat[lo:hi] + off in order.
func segPanelGo(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k := range fires {
		for s := 3 * k * rows; s < 3*(k+1)*rows; s += 3 {
			accumPanelGo(panel, flat[segs[s]:segs[s+1]], int(segs[s+2]), acc)
		}
		fireSteps = commitStep(acc, th, hard, fires, k, fireSteps)
	}
	return fireSteps
}

// poolPanelGo integrates one 8-channel pool group across a block (no
// leak). Byte i of counts[k] is lane i's number of set taps on step k; the
// lane adds pw that many times, one IEEE addition each, then every lane is
// thresholded and reset.
func poolPanelGo(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64 {
	var fireSteps uint64
	for k, cw := range counts {
		for i := range acc {
			for c := uint8(cw >> (8 * uint(i))); c > 0; c-- {
				acc[i] += pw
			}
		}
		fireSteps = commitStep(acc, th, hard, fires, k, fireSteps)
	}
	return fireSteps
}
