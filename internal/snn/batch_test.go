package snn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// testMLP builds a small random 64-32-10 dense network.
func testMLP(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	w1 := tensor.NewMat(32, 64)
	w2 := tensor.NewMat(10, 32)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.3
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.3
	}
	l1, err := NewDense("h", 64, 32, w1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewDense("o", 32, 10, w2, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("mlp", tensor.Shape3{H: 8, W: 8, C: 1}, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testCNN builds a small conv-pool-dense network.
func testCNN(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 8, W: 8, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 4}
	cw := tensor.NewMat(4, geom.FanIn())
	for i := range cw.Data {
		cw.Data[i] = rng.NormFloat64() * 0.4
	}
	conv, err := NewConv("c", geom, cw, 1)
	if err != nil {
		t.Fatal(err)
	}
	convOut, _ := geom.OutShape()
	pool, err := NewPool("p", convOut, 2, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	dw := tensor.NewMat(10, pool.OutSize())
	for i := range dw.Data {
		dw.Data[i] = rng.NormFloat64() * 0.4
	}
	dense, err := NewDense("o", pool.OutSize(), 10, dw, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("cnn", geom.In, conv, pool, dense)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func batchInputs(n, size int, seed int64) []tensor.Vec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tensor.Vec, n)
	for i := range out {
		v := tensor.NewVec(size)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

// The core determinism contract of the evaluation pipeline: parallel
// evaluation must be bit-identical to the serial path — same predictions,
// spike counts, input-spike totals and first-spike times — for any worker
// count, on dense and convolutional topologies alike.
func TestRunBatchParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"mlp", testMLP(t)},
		{"cnn", testCNN(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inputs := batchInputs(13, tc.net.Input.Size(), 99)
			base := NewPoissonEncoder(0.8, 7)
			enc := func(i int) Encoder { return base.ForkSeed(i) }
			serial, err := RunBatch(tc.net, inputs, enc, 20, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par, err := RunBatch(tc.net, inputs, enc, 20, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("workers=%d: parallel results differ from serial\nserial: %+v\nparallel: %+v",
						workers, serial, par)
				}
			}
		})
	}
}

// Default worker selection (workers <= 0) must also reproduce the serial
// results exactly.
func TestRunBatchDefaultWorkers(t *testing.T) {
	net := testMLP(t)
	inputs := batchInputs(5, net.Input.Size(), 3)
	base := NewPoissonEncoder(0.8, 7)
	enc := func(i int) Encoder { return base.ForkSeed(i) }
	serial, err := RunBatch(net, inputs, enc, 12, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := RunBatch(net, inputs, enc, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, auto) {
		t.Fatal("default worker count changed results")
	}
}

func TestRunBatchValidation(t *testing.T) {
	net := testMLP(t)
	enc := func(i int) Encoder { return NewPoissonEncoder(0.8, int64(i)) }
	if _, err := RunBatch(net, nil, enc, 10, Options{Workers: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := RunBatch(net, batchInputs(2, net.Input.Size(), 1), enc, 0, Options{Workers: 2}); err == nil {
		t.Fatal("zero steps accepted")
	}
}

// ForkSeed's determinism contract: a fork's stream depends only on the base
// seed and the index — not on how much the parent or other forks have been
// used — and fork 0 reproduces the base encoder's own stream.
func TestPoissonForkSeedContract(t *testing.T) {
	img := make(tensor.Vec, 32)
	for i := range img {
		img[i] = float64(i%7) / 7
	}
	record := func(e *PoissonEncoder) [][]int {
		dst := bitvec.New(len(img))
		var out [][]int
		for t := 0; t < 8; t++ {
			e.Encode(img, dst)
			out = append(out, dst.Slice())
		}
		return out
	}

	a := NewPoissonEncoder(0.8, 21).ForkSeed(3)
	// Heavily use the parent and sibling forks before forking index 3 again.
	base := NewPoissonEncoder(0.8, 21)
	burn := bitvec.New(len(img))
	for t := 0; t < 50; t++ {
		base.Encode(img, burn)
		base.ForkSeed(1).Encode(img, burn)
	}
	b := base.ForkSeed(3)
	if !reflect.DeepEqual(record(a), record(b)) {
		t.Fatal("fork stream depends on parent usage")
	}

	// Fork 0 equals a fresh base encoder.
	f0 := NewPoissonEncoder(0.8, 21).ForkSeed(0)
	fresh := NewPoissonEncoder(0.8, 21)
	if !reflect.DeepEqual(record(f0), record(fresh)) {
		t.Fatal("fork 0 must reproduce the base stream")
	}

	// Distinct indices give distinct streams.
	f5 := NewPoissonEncoder(0.8, 21).ForkSeed(5)
	f6 := NewPoissonEncoder(0.8, 21).ForkSeed(6)
	if reflect.DeepEqual(record(f5), record(f6)) {
		t.Fatal("distinct forks produced identical streams")
	}
}

// inputRecorder records the input raster a run observes.
type inputRecorder struct{ frames [][]int }

func (r *inputRecorder) ObserveStep(_ int, input *bitvec.Bits, _ []*bitvec.Bits) {
	r.frames = append(r.frames, input.Slice())
}

// A fork run through a State draws from the State's reused source: every
// image of a stream of forks on one State (each group run on its own State)
// must see the spike train an encoder with its own fresh source gives, and
// no fork may keep the State's source after its run.
func TestForkSeedOnStateSource(t *testing.T) {
	net := testMLP(t)
	in := batchInputs(1, net.Input.Size(), 3)[0]
	const steps = 12
	base := NewPoissonEncoder(0.8, 40)
	record := func(st *State, enc Encoder, blockK int) [][]int {
		rec := &inputRecorder{}
		st.RunBlockedK(in, enc, steps, blockK, rec)
		return rec.frames
	}
	st := NewState(net)
	for i := range 5 {
		want := record(NewState(net), NewPoissonEncoder(0.8, 40+int64(i)), 0)
		fork := base.ForkSeed(i)
		if got := record(st, fork, 1+i%3); !reflect.DeepEqual(got, want) {
			t.Fatalf("fork %d: spike train on a reused State differs from a fresh source's", i)
		}
		if fork.Rng != nil {
			t.Fatalf("fork %d kept the State's source after its run", i)
		}
	}

	// A group of forks, one State each, in lockstep.
	ms := make([]Member, 3)
	recs := make([]*inputRecorder, len(ms))
	for i := range ms {
		recs[i] = &inputRecorder{}
		ms[i] = Member{State: NewState(net), Input: in, Enc: base.ForkSeed(7 + i), Obs: recs[i]}
	}
	out := make([]RunResult, len(ms))
	RunGroup(ms, steps, 5, false, out)
	for i := range ms {
		want := record(NewState(net), NewPoissonEncoder(0.8, 47+int64(i)), 0)
		if !reflect.DeepEqual(recs[i].frames, want) {
			t.Fatalf("group member %d: spike train differs from a fresh source's", i)
		}
	}
}

// The dense panel kernel behind Step must integrate exactly the naive
// column walk over W (the threshold is out of reach, so nothing fires and
// Vmem holds the integrated currents).
func TestDenseIntegrateMatchesColumnWalk(t *testing.T) {
	l := testMLP(t).Layers[0]
	l.Threshold = math.Inf(1)
	net, err := NewNetwork("dense", tensor.Shape3{H: 1, W: 1, C: l.InSize()}, l)
	if err != nil {
		t.Fatal(err)
	}
	in := bitvec.New(l.InSize())
	for i := 0; i < l.InSize(); i += 3 {
		in.Set(i)
	}
	st := NewState(net)
	st.Step(in)
	want := tensor.NewVec(l.OutSize())
	in.ForEachSet(func(i int) {
		for o := 0; o < l.W.Rows; o++ {
			want[o] += l.W.At(o, i)
		}
	})
	if !reflect.DeepEqual(st.Vmem[0], want) {
		t.Fatalf("dense integrate diverged:\ngot  %v\nwant %v", st.Vmem[0], want)
	}
}
