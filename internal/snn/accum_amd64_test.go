//go:build amd64 && !purego

package snn

// asmPanelKernel returns the AVX2 bodies of the block kernels, and whether
// this CPU runs them.
func asmPanelKernel() (panelKernel, bool) {
	return panelKernel{"avx2", blockPanelAVX2, segPanelAVX2, poolPanelAVX2}, useAVX2
}
