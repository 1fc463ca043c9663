package mapping

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// This file keeps the original hash-set layout builder as a test-only
// reference for the stamp-based packer in mapping.go: a map[int32]bool per
// MCA block for the input union, sort.Slice on the block's inputs, a map for
// the multiplexing count, and freshly allocated lists for every unit and
// MCA. It shares only the dense tiler (mapDense) with production.

// oracleLayerMapping is layerMappingFor over the reference packer.
func oracleLayerMapping(li int, l *snn.Layer, cfg Config, n int) (LayerMapping, error) {
	var lm LayerMapping
	switch l.Kind {
	case snn.DenseLayer:
		if cfg.SparseDenseMaxFill > 0 && denseFill(l) <= cfg.SparseDenseMaxFill {
			lm = oraclePackUnits(li, oracleDenseUnits(l), cfg, n)
		} else {
			lm = mapDense(li, l, n)
		}
	case snn.ConvLayer, snn.PoolLayer:
		units, err := oracleUnitsOf(l)
		if err != nil {
			return LayerMapping{}, fmt.Errorf("mapping: layer %d: %w", li, err)
		}
		lm = oraclePackUnits(li, units, cfg, n)
	default:
		return LayerMapping{}, fmt.Errorf("mapping: layer %d unknown kind", li)
	}
	lm.Layer = l
	lm.MCASize = n
	return lm, nil
}

func oracleDenseUnits(l *snn.Layer) []unit {
	units := make([]unit, 0, l.OutSize())
	for o := 0; o < l.OutSize(); o++ {
		row := l.W.Row(o)
		var ins []int32
		for i, w := range row {
			if w != 0 {
				ins = append(ins, int32(i))
			}
		}
		units = append(units, unit{
			inputs:  ins,
			outputs: []int32{int32(o)},
			taps:    len(ins),
		})
	}
	return units
}

func oraclePackUnits(li int, units []unit, cfg Config, n int) LayerMapping {
	lm := LayerMapping{}
	group := 0
	i := 0
	for i < len(units) {
		inputSet := map[int32]bool{}
		var blockIns []int32
		var blockOuts []int32
		taps := 0
		added := 0
		for i < len(units) {
			u := units[i]
			newIn := 0
			for _, v := range u.inputs {
				if !inputSet[v] {
					newIn++
				}
			}
			if added > 0 && (cfg.DisableInputSharing ||
				len(inputSet)+newIn > n || len(blockOuts)+len(u.outputs) > n) {
				break
			}
			if added == 0 && (newIn > n || len(u.outputs) > n) {
				split, next := oracleSplitLocation(li, group, u.inputs, u.outputs, n)
				lm.MCAs = append(lm.MCAs, split...)
				group = next
				i++
				added = -1
				break
			}
			for _, v := range u.inputs {
				if !inputSet[v] {
					inputSet[v] = true
					blockIns = append(blockIns, v)
				}
			}
			blockOuts = append(blockOuts, u.outputs...)
			taps += u.taps
			added++
			i++
		}
		if added <= 0 {
			continue
		}
		sort.Slice(blockIns, func(a, b int) bool { return blockIns[a] < blockIns[b] })
		lm.MCAs = append(lm.MCAs, MCA{
			Layer: li, Group: group,
			Inputs: blockIns, Outputs: blockOuts, Taps: taps,
		})
		group++
	}
	lm.Groups = group
	for g, count := 0, map[int]int{}; g < len(lm.MCAs); g++ {
		count[lm.MCAs[g].Group]++
		if count[lm.MCAs[g].Group] > lm.MuxDegree {
			lm.MuxDegree = count[lm.MCAs[g].Group]
		}
	}
	return lm
}

func oracleUnitsOf(l *snn.Layer) ([]unit, error) {
	geom := l.Geom
	outShape, err := geom.OutShape()
	if err != nil {
		return nil, err
	}
	var units []unit
	for y := 0; y < outShape.H; y++ {
		for x := 0; x < outShape.W; x++ {
			var pos [][2]int
			for ky := 0; ky < geom.K; ky++ {
				iy := y*geom.Stride + ky - geom.Pad
				if iy < 0 || iy >= geom.In.H {
					continue
				}
				for kx := 0; kx < geom.K; kx++ {
					ix := x*geom.Stride + kx - geom.Pad
					if ix < 0 || ix >= geom.In.W {
						continue
					}
					pos = append(pos, [2]int{iy, ix})
				}
			}
			if l.Kind == snn.PoolLayer {
				for c := 0; c < outShape.C; c++ {
					ins := make([]int32, len(pos))
					for i, p := range pos {
						ins[i] = int32(geom.In.Index(p[0], p[1], c))
					}
					units = append(units, unit{
						inputs:  ins,
						outputs: []int32{int32(outShape.Index(y, x, c))},
						taps:    len(pos),
					})
				}
				continue
			}
			ins := make([]int32, 0, len(pos)*geom.In.C)
			for _, p := range pos {
				for c := 0; c < geom.In.C; c++ {
					ins = append(ins, int32(geom.In.Index(p[0], p[1], c)))
				}
			}
			outs := make([]int32, outShape.C)
			for c := 0; c < outShape.C; c++ {
				outs[c] = int32(outShape.Index(y, x, c))
			}
			units = append(units, unit{inputs: ins, outputs: outs, taps: len(ins) * outShape.C})
		}
	}
	return units, nil
}

func oracleSplitLocation(li, group int, pin, pout []int32, n int) ([]MCA, int) {
	var out []MCA
	for ob := 0; ob < len(pout); ob += n {
		oe := min(ob+n, len(pout))
		for ib := 0; ib < len(pin); ib += n {
			ie := min(ib+n, len(pin))
			out = append(out, MCA{
				Layer: li, Group: group,
				Inputs:  append([]int32(nil), pin[ib:ie]...),
				Outputs: append([]int32(nil), pout[ob:oe]...),
				Taps:    (ie - ib) * (oe - ob),
			})
		}
		group++
	}
	return out, group
}

// assertLayoutMatchesOracle compares layerMappingFor with the reference
// builder for every layer of net at every size, input sharing on and off.
func assertLayoutMatchesOracle(t *testing.T, name string, net *snn.Network, base Config, sizes []int) {
	t.Helper()
	for _, noShare := range []bool{false, true} {
		c := base
		c.DisableInputSharing = noShare
		for _, n := range sizes {
			for li, l := range net.Layers {
				got, err := layerMappingFor(li, l, c, n)
				if err != nil {
					t.Fatalf("%s layer %d size %d: %v", name, li, n, err)
				}
				want, err := oracleLayerMapping(li, l, c, n)
				if err != nil {
					t.Fatalf("%s layer %d size %d oracle: %v", name, li, n, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s layer %d size %d noShare=%v: layout differs from the reference builder "+
						"(%d vs %d MCAs, groups %d vs %d, mux %d vs %d)",
						name, li, n, noShare, len(got.MCAs), len(want.MCAs),
						got.Groups, want.Groups, got.MuxDegree, want.MuxDegree)
				}
			}
		}
	}
}

// TestLayoutMatchesOracle pins the stamp-based packer to the hash-set
// reference on every layer of the six Fig 10 networks.
func TestLayoutMatchesOracle(t *testing.T) {
	for _, bm := range bench.All() {
		net, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		assertLayoutMatchesOracle(t, bm.Name, net, cfg(64), []int{32, 64, 128, 256})
	}
}

// TestLayoutMatchesOracleSparseDense covers dense layers routed through
// the unit packer (SparseDenseMaxFill): structured and unstructured
// pruning, and an output without inputs.
func TestLayoutMatchesOracleSparseDense(t *testing.T) {
	c := cfg(64)
	c.SparseDenseMaxFill = 1.0
	for _, tc := range []struct {
		name string
		l    *snn.Layer
	}{
		{"block", blockDense(t, 256, 8, 3)},
		{"random", prunedDense(t, 300, 90, 0.1, 4)},
		{"wide", prunedDense(t, 700, 20, 0.2, 5)}, // units past 64 rows split
		{"zero-fan-in", prunedDense(t, 40, 12, 0.02, 6)},
	} {
		net := netOf(t, tensor.Shape3{H: 1, W: 1, C: tc.l.InSize()}, tc.l)
		if denseFill(tc.l) > c.SparseDenseMaxFill {
			t.Fatalf("%s: fixture does not take the sparse path", tc.name)
		}
		assertLayoutMatchesOracle(t, tc.name, net, c, []int{32, 64, 128, 256})
	}
}
