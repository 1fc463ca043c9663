//go:build !amd64 || purego

package snn

// Architectures without an assembly kernel, and amd64 builds with the purego
// tag, run the pure-Go kernels of accum_generic.go; see accum_amd64.go for
// the contracts.

func accumPanel(panel []float64, list []int32, acc *[panelLanes]float64) {
	accumPanelGo(panel, list, 0, acc)
}

func blockQuad(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) [quadGroups]uint64 {
	return blockQuadGo(panel, flat, offs, fires, acc, th, hard)
}

func blockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	return blockPanelGo(panel, flat, offs, fires, acc, th, hard)
}

func segPanel(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64 {
	return segPanelGo(panel, flat, segs, rows, fires, acc, th, hard)
}

func poolPanel(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64 {
	return poolPanelGo(counts, fires, acc, pw, th, hard)
}
