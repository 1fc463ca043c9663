package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecDot(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVecDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestVecAddScaled(t *testing.T) {
	v := Vec{1, 2}
	v.AddScaled(2, Vec{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Fatalf("AddScaled = %v", v)
	}
}

func TestVecScaleFillSum(t *testing.T) {
	v := NewVec(3)
	v.Fill(2)
	v.Scale(3)
	if v.Sum() != 18 {
		t.Fatalf("Sum = %v, want 18", v.Sum())
	}
}

func TestVecMaxArgMax(t *testing.T) {
	v := Vec{-1, 5, 3, 5}
	if v.Max() != 5 {
		t.Fatalf("Max = %v", v.Max())
	}
	if v.ArgMax() != 1 {
		t.Fatalf("ArgMax = %v, want 1 (first max)", v.ArgMax())
	}
	var empty Vec
	if empty.ArgMax() != -1 {
		t.Fatalf("empty ArgMax = %v, want -1", empty.ArgMax())
	}
	if !math.IsInf(empty.Max(), -1) {
		t.Fatalf("empty Max = %v, want -Inf", empty.Max())
	}
}

func TestVecCountNonZero(t *testing.T) {
	v := Vec{0, 1e-12, -3, 0.5}
	if got := v.CountNonZero(1e-9); got != 2 {
		t.Fatalf("CountNonZero = %d, want 2", got)
	}
}

func TestVecClone(t *testing.T) {
	v := Vec{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row aliasing broken: %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	out := m.MulVec(Vec{1, 1, 1}, nil)
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("MulVec = %v", out)
	}
}

func TestMatMulVecT(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	out := m.MulVecT(Vec{1, 2}, nil)
	want := Vec{9, 12, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", out, want)
		}
	}
}

// Property: for random matrices, x^T (A y) == (A^T x)^T y — MulVec and
// MulVecT are adjoint.
func TestMulVecAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMat(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x, y := NewVec(rows), NewVec(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		lhs := x.Dot(m.MulVec(y, nil))
		rhs := m.MulVecT(x, nil).Dot(y)
		return almostEqual(lhs, rhs, 1e-9*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMaxAbs(t *testing.T) {
	m := NewMat(1, 3)
	copy(m.Data, Vec{-4, 2, 3})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestMatClone(t *testing.T) {
	m := NewMat(1, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestShape3(t *testing.T) {
	s := Shape3{H: 4, W: 5, C: 3}
	if s.Size() != 60 {
		t.Fatalf("Size = %d", s.Size())
	}
	if s.Index(1, 2, 1) != (1*5+2)*3+1 {
		t.Fatalf("Index = %d", s.Index(1, 2, 1))
	}
	if !s.Valid() || (Shape3{}).Valid() {
		t.Fatal("Valid wrong")
	}
	if s.String() != "4x5x3" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestConvGeomOutShape(t *testing.T) {
	g := ConvGeom{In: Shape3{H: 28, W: 28, C: 1}, K: 5, Stride: 1, Pad: 0, OutC: 12}
	out, err := g.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 24 || out.W != 24 || out.C != 12 {
		t.Fatalf("OutShape = %v", out)
	}
	if g.FanIn() != 25 {
		t.Fatalf("FanIn = %d", g.FanIn())
	}
	conns, err := g.Connections()
	if err != nil {
		t.Fatal(err)
	}
	if conns != 24*24*12*25 {
		t.Fatalf("Connections = %d", conns)
	}
}

func TestConvGeomPadding(t *testing.T) {
	g := ConvGeom{In: Shape3{H: 8, W: 8, C: 2}, K: 3, Stride: 1, Pad: 1, OutC: 4}
	out, err := g.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 8 || out.W != 8 {
		t.Fatalf("same-padding OutShape = %v", out)
	}
}

func TestConvGeomBad(t *testing.T) {
	bad := []ConvGeom{
		{In: Shape3{H: 2, W: 2, C: 1}, K: 5, Stride: 1, OutC: 1}, // kernel larger than input
		{In: Shape3{H: 8, W: 8, C: 1}, K: 0, Stride: 1, OutC: 1},
		{In: Shape3{H: 8, W: 8, C: 1}, K: 3, Stride: 0, OutC: 1},
		{In: Shape3{H: 8, W: 8, C: 1}, K: 3, Stride: 1, OutC: 0},
		{In: Shape3{}, K: 3, Stride: 1, OutC: 1},
	}
	for i, g := range bad {
		if _, err := g.OutShape(); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, g)
		}
		if _, err := g.Connections(); err == nil {
			t.Fatalf("case %d: Connections expected error", i)
		}
		if err := g.ForEachTap(func(_, _, _ int) {}); err == nil {
			t.Fatalf("case %d: ForEachTap expected error", i)
		}
	}
}

// Property: ForEachTap visits exactly Connections() taps, each output neuron
// gets exactly FanIn() taps, and every in-bounds inIdx is valid.
func TestForEachTapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			In:     Shape3{H: 3 + rng.Intn(6), W: 3 + rng.Intn(6), C: 1 + rng.Intn(3)},
			K:      1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(2),
			OutC:   1 + rng.Intn(4),
		}
		out, err := g.OutShape()
		if err != nil {
			return true // skip inconsistent random geometry
		}
		conns, _ := g.Connections()
		perOut := make(map[int]int)
		total := 0
		okIdx := true
		err = g.ForEachTap(func(outIdx, inIdx, kIdx int) {
			total++
			perOut[outIdx]++
			if outIdx < 0 || outIdx >= out.Size() {
				okIdx = false
			}
			if inIdx >= g.In.Size() {
				okIdx = false
			}
			if kIdx < 0 || kIdx >= g.K*g.K*g.In.C {
				okIdx = false
			}
		})
		if err != nil || !okIdx || total != conns {
			return false
		}
		for _, n := range perOut {
			if n != g.FanIn() {
				return false
			}
		}
		return len(perOut) == out.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecReuseBuffer(t *testing.T) {
	m := NewMat(2, 2)
	copy(m.Data, Vec{1, 0, 0, 1})
	buf := NewVec(2)
	out := m.MulVec(Vec{3, 4}, buf)
	if &out[0] != &buf[0] {
		t.Fatal("MulVec must reuse the provided buffer")
	}
	if out[0] != 3 || out[1] != 4 {
		t.Fatalf("identity MulVec = %v", out)
	}
}

func TestMulVecBadOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong output length")
		}
	}()
	m := NewMat(2, 2)
	m.MulVec(NewVec(2), NewVec(3))
}

func TestVecAdd(t *testing.T) {
	// Length 7 exercises both the unrolled body and the tail.
	v := Vec{1, 2, 3, 4, 5, 6, 7}
	w := Vec{10, 20, 30, 40, 50, 60, 70}
	v.Add(w)
	want := Vec{11, 22, 33, 44, 55, 66, 77}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVecAddMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	NewVec(3).Add(NewVec(4))
}

func TestMatTranspose(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose[%d][%d] = %v, want %v", c, r, tr.At(c, r), m.At(r, c))
			}
		}
	}
	// The transpose owns fresh storage.
	tr.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Transpose must not alias the source")
	}
}

func TestMatAddRowMatchesColumnWalk(t *testing.T) {
	m := NewMat(3, 5)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.5
	}
	tr := m.Transpose()
	// Accumulating row i of M^T must equal adding column i of M.
	for i := 0; i < m.Cols; i++ {
		got := NewVec(m.Rows)
		tr.AddRow(i, got)
		for r := 0; r < m.Rows; r++ {
			if got[r] != m.At(r, i) {
				t.Fatalf("AddRow(%d)[%d] = %v, want %v", i, r, got[r], m.At(r, i))
			}
		}
	}
}
