//go:build !amd64 || purego

package snn

// asmPanelKernel reports that this build has no assembly block kernels.
func asmPanelKernel() (panelKernel, bool) {
	return panelKernel{}, false
}
