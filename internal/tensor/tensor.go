// Package tensor provides the minimal dense linear-algebra substrate used by
// the ANN trainer, the SNN functional model and the RESPARC mapper: vectors,
// row-major matrices and the convolution index arithmetic shared by the
// convolutional layers and the sparse crossbar mapper.
//
// The package is deliberately small and allocation-conscious; it is not a
// general numeric library. All matrices are dense float64 in row-major
// order.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vec) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ,
// since a length mismatch is always a programming error in this codebase.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place.
func (v Vec) AddScaled(alpha float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Add accumulates w into v in place (v += w). This is the fused kernel on
// the event-driven hot path: one call per input spike accumulates a
// contiguous weight row into the membrane-potential vector, so the loop is
// unrolled to keep the accumulation stream dense.
func (v Vec) Add(w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(v), len(w)))
	}
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		v[i] += w[i]
		v[i+1] += w[i+1]
		v[i+2] += w[i+2]
		v[i+3] += w[i+3]
	}
	for i := n; i < len(v); i++ {
		v[i] += w[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func (v Vec) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the elements of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum element of v, or -Inf for an empty vector.
func (v Vec) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the first maximum element, or -1 if v is empty.
func (v Vec) ArgMax() int {
	idx, m := -1, math.Inf(-1)
	for i, x := range v {
		if x > m {
			m, idx = x, i
		}
	}
	return idx
}

// CountNonZero returns the number of elements with |x| > eps.
func (v Vec) CountNonZero(eps float64) int {
	n := 0
	for _, x := range v {
		if math.Abs(x) > eps {
			n++
		}
	}
	return n
}

// Mat is a dense row-major matrix with Rows x Cols elements.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols, row-major
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMat negative dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// At returns the element at row r, column c.
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores x at row r, column c.
func (m *Mat) Set(r, c int, x float64) { m.Data[r*m.Cols+c] = x }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// AddRow accumulates row r into v in place (v += m[r][:]). Because rows are
// contiguous in the row-major layout, this is a single streaming pass.
func (m *Mat) AddRow(r int, v Vec) {
	v.Add(m.Row(r))
}

// Transpose returns a new Cols x Rows matrix with m's elements flipped
// across the diagonal.
func (m *Mat) Transpose() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, x := range row {
			t.Data[c*m.Rows+r] = x
		}
	}
	return t
}

// MulVec computes out = m * x where x has length Cols and out has length
// Rows. out may be nil, in which case a new vector is allocated.
func (m *Mat) MulVec(x, out Vec) Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec input length %d != cols %d", len(x), m.Cols))
	}
	if out == nil {
		out = NewVec(m.Rows)
	}
	if len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVec output length %d != rows %d", len(out), m.Rows))
	}
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Row(r).Dot(x)
	}
	return out
}

// MulVecT computes out = m^T * x where x has length Rows and out has length
// Cols; used for backpropagation. out may be nil.
func (m *Mat) MulVecT(x, out Vec) Vec {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecT input length %d != rows %d", len(x), m.Rows))
	}
	if out == nil {
		out = NewVec(m.Cols)
	}
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecT output length %d != cols %d", len(out), m.Cols))
	}
	out.Fill(0)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		xr := x[r]
		if xr == 0 {
			continue
		}
		for c, w := range row {
			out[c] += w * xr
		}
	}
	return out
}

// MaxAbs returns the maximum absolute value in m.
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// ErrShape reports incompatible shapes in the few APIs that return errors
// rather than panicking (those reachable from user-supplied descriptions).
var ErrShape = errors.New("tensor: incompatible shape")

// Shape3 describes a height x width x channels volume, the unit of data
// between CNN layers. Channel-minor layout: index = (y*W + x)*C + c.
type Shape3 struct {
	H, W, C int
}

// Size returns the number of elements in the volume.
func (s Shape3) Size() int { return s.H * s.W * s.C }

// Index returns the linear index for (y, x, c).
func (s Shape3) Index(y, x, c int) int { return (y*s.W+x)*s.C + c }

// Valid reports whether every dimension is positive.
func (s Shape3) Valid() bool { return s.H > 0 && s.W > 0 && s.C > 0 }

func (s Shape3) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// ConvGeom captures the geometry of one convolution (or pooling) layer:
// input volume, square kernel K, stride S, symmetric padding P and output
// channel count OutC.
type ConvGeom struct {
	In             Shape3
	K, Stride, Pad int
	OutC           int
}

// OutShape returns the output volume, or an error if the geometry is
// inconsistent (non-positive output size).
func (g ConvGeom) OutShape() (Shape3, error) {
	if !g.In.Valid() || g.K <= 0 || g.Stride <= 0 || g.Pad < 0 || g.OutC <= 0 {
		return Shape3{}, fmt.Errorf("%w: %+v", ErrShape, g)
	}
	oh := (g.In.H+2*g.Pad-g.K)/g.Stride + 1
	ow := (g.In.W+2*g.Pad-g.K)/g.Stride + 1
	if oh <= 0 || ow <= 0 {
		return Shape3{}, fmt.Errorf("%w: %+v produces %dx%d output", ErrShape, g, oh, ow)
	}
	return Shape3{H: oh, W: ow, C: g.OutC}, nil
}

// FanIn returns the number of inputs feeding one output neuron: K*K*InC.
func (g ConvGeom) FanIn() int { return g.K * g.K * g.In.C }

// Connections returns the total number of synaptic connections in the layer:
// every output location times its receptive field. Matches the synapse
// counting convention of the paper's Fig 10.
func (g ConvGeom) Connections() (int, error) {
	out, err := g.OutShape()
	if err != nil {
		return 0, err
	}
	return out.H * out.W * out.C * g.FanIn(), nil
}

// ForEachTap calls fn(outIdx, inIdx, kIdx) for every (output neuron, input
// neuron) connection of the convolution. Taps that fall in the zero padding
// are reported with inIdx == -1 so callers can skip them. kIdx is the index
// into the kernel weights of the output channel: (ky*K + kx)*InC + ic.
//
// This single walker is shared by the conv forward/backward passes, the SNN
// functional model and the sparse crossbar mapper, guaranteeing they all see
// the identical connectivity matrix.
func (g ConvGeom) ForEachTap(fn func(outIdx, inIdx, kIdx int)) error {
	out, err := g.OutShape()
	if err != nil {
		return err
	}
	for oy := 0; oy < out.H; oy++ {
		for ox := 0; ox < out.W; ox++ {
			for oc := 0; oc < out.C; oc++ {
				outIdx := out.Index(oy, ox, oc)
				for ky := 0; ky < g.K; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.K; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						for ic := 0; ic < g.In.C; ic++ {
							kIdx := (ky*g.K+kx)*g.In.C + ic
							if iy < 0 || iy >= g.In.H || ix < 0 || ix >= g.In.W {
								fn(outIdx, -1, kIdx)
								continue
							}
							fn(outIdx, g.In.Index(iy, ix, ic), kIdx)
						}
					}
				}
			}
		}
	}
	return nil
}
