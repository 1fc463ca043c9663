//go:build amd64 && !purego

package snn

// asmPanelKernel returns the AVX2 bodies of the block kernels, and whether
// this CPU runs them.
func asmPanelKernel() (panelKernel, bool) {
	quad := func(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[quadGroups][panelLanes]float64, th float64, hard bool) [quadGroups]uint64 {
		f0, f1, f2, f3 := blockQuadAVX2(panel, flat, offs, fires, acc, th, hard)
		return [quadGroups]uint64{f0, f1, f2, f3}
	}
	return panelKernel{"avx2", blockPanelAVX2, segPanelAVX2, poolPanelAVX2, quad}, useAVX2
}
