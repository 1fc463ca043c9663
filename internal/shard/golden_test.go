package shard

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/cost"
	"resparc/internal/perf"
	"resparc/internal/sim"
)

// The per-range executor that the sliced whole-chip run replaced ran each
// shard's sub-network on its own range accountant, captured every boundary
// raster, priced it hop by hop and replayed it into the next shard. Its
// outputs on every Fig 10 network at 1, 2 and 4 chips, with the event engine
// off and on, are recorded in testdata/range_oracle_<bench>.golden, and
// TestMatchesRangeOracle pins the multi-chip backend to them bit for bit.
//
// Each golden line is one (chips, event engine, item) case, item being an
// image of ClassifyEach or the ClassifyBatch aggregate. It carries readable
// totals and the SHA-256 of the full encoding of the item's perf.Result and
// sim.Report (encodeValue: floats as their IEEE-754 bits), so a failing line
// names the case and shows which total moved.

// rangeOracleChips are the chip counts the golden covers.
var rangeOracleChips = []int{1, 2, 4}

// encodeValue appends a deterministic text encoding of v to b: integers in
// decimal, floats as the hex of math.Float64bits, strings quoted, structs
// field by field, slices length-prefixed. A cost.Stage encodes only its
// Sync, Bus and Local durations, the fields the golden was recorded with.
func encodeValue(b []byte, v reflect.Value) []byte {
	if v.Type() == reflect.TypeOf(cost.Stage{}) {
		s := v.Interface().(cost.Stage)
		return fmt.Appendf(b, "{%d %d %d}", s.Sync, s.Bus, s.Local)
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Float64:
		return strconv.AppendUint(append(b, "0x"...), math.Float64bits(v.Float()), 16)
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		b = fmt.Appendf(b, "[%d:", v.Len())
		for i := range v.Len() {
			b = append(encodeValue(b, v.Index(i)), ' ')
		}
		return append(b, ']')
	case reflect.Struct:
		b = append(b, '{')
		for i := range v.NumField() {
			b = append(b, v.Type().Field(i).Name...)
			b = append(encodeValue(append(b, '='), v.Field(i)), ' ')
		}
		return append(b, '}')
	case reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		if err, ok := v.Interface().(error); ok {
			return strconv.AppendQuote(b, err.Error())
		}
		return encodeValue(b, v.Elem())
	}
	panic("encodeValue: unsupported kind " + v.Kind().String())
}

// goldenLine renders one item of a case: its readable totals and the digest
// of its full encoding.
func goldenLine(chips int, evt bool, item string, res perf.Result, srep sim.Report) string {
	enc := encodeValue(nil, reflect.ValueOf(res))
	enc = encodeValue(append(enc, '|'), reflect.ValueOf(srep))
	d := srep.Detail.(Report)
	return fmt.Sprintf("x%d event=%v %s pred=%d steps=%d energy=%.9e latency=%.9e cycles=%d flits=%d wait=%d interval=%.9e sha256=%x",
		chips, evt, item, srep.Predicted, srep.Steps, res.Energy, res.Latency, d.Chip.Counts.Cycles,
		d.Link.FlitsSent, d.Link.WaitCycles, d.Interval, sha256.Sum256(enc))
}

// rangeOracleLines classifies the golden's inputs on every case and renders
// the golden lines of one network.
func rangeOracleLines(t *testing.T, b bench.Benchmark) []string {
	t.Helper()
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 2)
	enc := factoryFor(7)
	var lines []string
	for _, n := range rangeOracleChips {
		multi, err := New(chip, Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, evt := range []bool{false, true} {
			opt := sim.Options{EventEngine: evt}
			ress, sreps, err := multi.ClassifyEach(inputs, enc, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ress {
				lines = append(lines, goldenLine(n, evt, fmt.Sprintf("img%d", i), ress[i], sreps[i]))
			}
			res, srep, err := multi.ClassifyBatch(inputs, enc, opt)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, goldenLine(n, evt, "batch", res, srep))
		}
	}
	return lines
}

func rangeOraclePath(b bench.Benchmark) string {
	return filepath.Join("testdata", "range_oracle_"+b.Name+".golden")
}

// TestMatchesRangeOracle: on every Fig 10 network at 1, 2 and 4 chips, with
// and without the event engine, every per-image and batch perf.Result and
// Report — stage grid, per-hop traffic and interval included — is
// bit-identical to the recorded outputs of the per-range executor.
func TestMatchesRangeOracle(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			raw, err := os.ReadFile(rangeOraclePath(b))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			got := rangeOracleLines(t, b)
			if len(got) != len(want) {
				t.Fatalf("%d golden lines, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("golden line %d differs\ngot:  %s\nwant: %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
