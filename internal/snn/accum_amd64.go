//go:build amd64

package snn

// accumPanel adds, for every spiking input index in list (ascending, one
// entry per spike of one timestep), the eight packed panel weights of that
// input into the eight lane accumulators. The amd64 implementation
// (accum_amd64.s) uses baseline SSE2 packed-double adds: lane i's value
// still receives exactly the adds of the pure-Go version, in the same
// per-lane order, so results are bit-identical — ADDPD is two independent
// IEEE double additions, not a reassociation.
//
// The caller guarantees list entries index within panel (panel holds
// len(panel)/panelLanes input lines) and len(panel) >= panelLanes.
//
//go:noescape
func accumPanel(panel []float64, list []int32, acc *[panelLanes]float64)

// blockPanel integrates one packed 8-lane panel across a whole temporal
// block (no leak): step k adds the panel lines of flat[offs[k]:offs[k+1]]
// into the eight lane accumulators, then applies threshold and reset, with
// the accumulators held in SSE2 registers for the entire block. fires[k]
// receives step k's fired-lane byte and the result has bit k set when
// fires[k] != 0 (len(fires) <= 64). Per lane the operation sequence — adds
// in list order, compare against th, subtract-th or clear-to-zero reset —
// is exactly the scalar reference's, so results are bit-identical (see
// accum_amd64.s on the packed compare's NaN behavior and the branchless
// masked reset).
//
// The caller guarantees offs has len(fires)+1 entries, ascending, indexing
// within flat, and that flat entries index within panel.
//
//go:noescape
func blockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64

// segPanel is blockPanel over segmented spike lists: step k's spikes are
// the rows segments segs[3*(k*rows+r) : 3*(k*rows+r)+3] = (lo, hi, off),
// r ascending, each adding the panel lines of kernel indices flat[lo:hi] +
// off in order. The wide conv gather hands every receptive field its kernel
// rows as slices of one shared per-step input spike list this way.
//
// The caller guarantees len(segs) >= 3*rows*len(fires), lo <= hi within
// flat, and flat[lo:hi] + off within panel.
//
//go:noescape
func segPanel(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[panelLanes]float64, th float64, hard bool) uint64

// poolPanel integrates one 8-channel average-pool group across a whole
// temporal block (no leak) with the accumulators in SSE2 registers. Byte i
// of counts[k] is lane i's number of set window taps on step k; the lane
// receives that many pw additions, applied as rounds of an exact
// select(count > 0, acc+pw, acc) so a lane without a set tap is never
// touched (adding +0.0 would turn -0.0 into +0.0). Threshold, reset and
// the fires/result contract are blockPanel's.
//
//go:noescape
func poolPanel(counts []uint64, fires []uint8, acc *[panelLanes]float64, pw, th float64, hard bool) uint64
