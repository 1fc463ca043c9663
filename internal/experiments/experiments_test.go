package experiments

import (
	"strings"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/dataset"
)

// testConfig trades fidelity for speed; the shape assertions below hold at
// this fidelity and at the full DefaultConfig (verified by the benchmark
// harness).
func testConfig() Config {
	c := QuickConfig()
	c.Steps = 16
	return c
}

func TestFig8Tables(t *testing.T) {
	params, metrics := Fig8()
	ps := params.String()
	for _, want := range []string{"64 bit", "4x4", "16 (9)"} {
		if !strings.Contains(ps, want) {
			t.Errorf("Fig8 params missing %q:\n%s", want, ps)
		}
	}
	ms := metrics.String()
	for _, want := range []string{"45nm", "0.29 mm2", "53.2 mW", "67643", "200 MHz"} {
		if !strings.Contains(ms, want) {
			t.Errorf("Fig8 metrics missing %q:\n%s", want, ms)
		}
	}
}

func TestFig9Tables(t *testing.T) {
	params, metrics := Fig9()
	ps := params.String()
	for _, want := range []string{"16 (1)", "32", "4 (4)"} {
		if !strings.Contains(ps, want) {
			t.Errorf("Fig9 params missing %q:\n%s", want, ps)
		}
	}
	ms := metrics.String()
	for _, want := range []string{"0.19 mm2", "35.1 mW", "44798", "1000 MHz"} {
		if !strings.Contains(ms, want) {
			t.Errorf("Fig9 metrics missing %q:\n%s", want, ms)
		}
	}
}

func TestFig10MatchesPublishedTotals(t *testing.T) {
	rows, table, err := Fig10(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Layers != r.Bench.PubLayers {
			t.Errorf("%s: %d layers, published %d", r.Bench.Name, r.Layers, r.Bench.PubLayers)
		}
		if r.NeuronErr > 0.001 {
			t.Errorf("%s: neuron deviation %.4f", r.Bench.Name, r.NeuronErr)
		}
		if r.SynErr > 0.001 {
			t.Errorf("%s: synapse deviation %.4f", r.Bench.Name, r.SynErr)
		}
	}
	if table == nil || len(table.Rows) != 6 {
		t.Fatal("table malformed")
	}
}

// The headline reproduction: Fig 11's energy gains and speedups must land
// in the paper's bands — MLPs around 513x energy / 382x speedup, CNNs
// around 12x / 60x — and the family ordering must hold.
func TestFig11Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep; skipped with -short")
	}
	r, err := Fig11(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.MLPAvgGain < 250 || r.MLPAvgGain > 900 {
		t.Errorf("MLP avg energy gain %.0fx outside [250,900] (paper: 513x)", r.MLPAvgGain)
	}
	if r.CNNAvgGain < 5 || r.CNNAvgGain > 25 {
		t.Errorf("CNN avg energy gain %.0fx outside [5,25] (paper: 12x)", r.CNNAvgGain)
	}
	if r.MLPAvgSpeedup < 250 || r.MLPAvgSpeedup > 600 {
		t.Errorf("MLP avg speedup %.0fx outside [250,600] (paper: 382x)", r.MLPAvgSpeedup)
	}
	if r.CNNAvgSpeedup < 25 || r.CNNAvgSpeedup > 110 {
		t.Errorf("CNN avg speedup %.0fx outside [25,110] (paper: 60x)", r.CNNAvgSpeedup)
	}
	// RESPARC must win everywhere, and MLPs must benefit far more than CNNs.
	for _, p := range append(append([]Pair{}, r.CNN...), r.MLP...) {
		if p.Compared.EnergyGain <= 1 || p.Compared.Speedup <= 1 {
			t.Errorf("%s: RESPARC does not win: %+v", p.Bench.Name, p.Compared)
		}
	}
	if r.MLPAvgGain < 10*r.CNNAvgGain {
		t.Errorf("MLP gain (%.0fx) should dwarf CNN gain (%.0fx)", r.MLPAvgGain, r.CNNAvgGain)
	}
	if len(r.MLPEnergyCMOS) != 3 || len(r.CNNSpeedup) != 3 {
		t.Fatal("normalized series malformed")
	}
	if len(r.Tables()) != 2 {
		t.Fatal("tables malformed")
	}
	nt := r.NormalizedTables()
	if len(nt) != 4 {
		t.Fatal("normalized tables malformed")
	}
	// The MNIST-on-RESPARC reference normalizes to exactly 1.
	if nt[0].Rows[0][2] != "1.000" || nt[1].Rows[0][2] != "1.000" {
		t.Fatalf("reference not normalized to 1: %v / %v", nt[0].Rows[0], nt[1].Rows[0])
	}
}

// Fig 12's two size trends: MLP energy decreases monotonically with MCA
// size; CNN energy is minimized at 64 (the utilization crossover); and the
// CMOS breakdowns are memory-dominated for MLPs, core-led for CNNs.
func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full breakdown sweep; skipped with -short")
	}
	r, err := Fig12(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"mnist-mlp", "svhn-mlp", "cifar-mlp"} {
		e32, ok1 := r.EnergyOf(r.RESPARCMLP, b, 32)
		e64, ok2 := r.EnergyOf(r.RESPARCMLP, b, 64)
		e128, ok3 := r.EnergyOf(r.RESPARCMLP, b, 128)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s: missing entries", b)
		}
		if !(e32.Energy.Total() > e64.Energy.Total() && e64.Energy.Total() > e128.Energy.Total()) {
			t.Errorf("%s: MLP energy not decreasing with size: %.3g %.3g %.3g",
				b, e32.Energy.Total(), e64.Energy.Total(), e128.Energy.Total())
		}
	}
	for _, b := range []string{"mnist-cnn", "svhn-cnn", "cifar-cnn"} {
		e32, _ := r.EnergyOf(r.RESPARCCNN, b, 32)
		e64, _ := r.EnergyOf(r.RESPARCCNN, b, 64)
		e128, _ := r.EnergyOf(r.RESPARCCNN, b, 128)
		if !(e64.Energy.Total() < e32.Energy.Total() && e64.Energy.Total() < e128.Energy.Total()) {
			t.Errorf("%s: RESPARC-64 not the CNN optimum: %.3g %.3g %.3g",
				b, e32.Energy.Total(), e64.Energy.Total(), e128.Energy.Total())
		}
		// Utilization falls with size; crossbar energy rises with size.
		if !(e32.Utilization > e64.Utilization && e64.Utilization > e128.Utilization) {
			t.Errorf("%s: utilization not falling: %.3f %.3f %.3f", b, e32.Utilization, e64.Utilization, e128.Utilization)
		}
		if !(e128.Energy.Crossbar > e64.Energy.Crossbar && e64.Energy.Crossbar > e32.Energy.Crossbar) {
			t.Errorf("%s: crossbar energy not rising with size", b)
		}
	}
	// CMOS breakdown shapes.
	for name, e := range r.CMOSMLP {
		mem := e.MemoryAccess + e.MemoryLeakage
		if mem <= e.Core {
			t.Errorf("%s: CMOS MLP not memory-dominated: mem %.3g core %.3g", name, mem, e.Core)
		}
	}
	for name, e := range r.CMOSCNN {
		if !(e.Core > e.MemoryAccess && e.Core > e.MemoryLeakage) {
			t.Errorf("%s: CMOS CNN core not the largest component: %+v", name, e)
		}
	}
	if len(r.Tables()) != 4 {
		t.Fatal("tables malformed")
	}
	if nt := r.NormalizedTables(); len(nt) != 2 || nt[0].Rows[0][5] != "1.000" {
		t.Fatal("normalized tables malformed")
	}
}

// Fig 13: event-drivenness always saves energy and the savings are largest
// on the smallest MCA — the paper's headline conclusion for this figure
// ("RESPARC with its event-drivenness enables using MCAs of smaller
// sizes"). The paper's MLP-vs-CNN savings ordering is NOT asserted: it
// hinges on trained-network activity statistics (trained MNIST MLPs run
// much sparser than our rate-balanced synthetic weights); see
// EXPERIMENTS.md.
func TestFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("event-driven sweep; skipped with -short")
	}
	r, err := Fig13(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mlpRatios, cnnRatios []float64
	for _, size := range Fig12Sizes {
		w, wo, ratio := Savings(r.MLP, size)
		if !(wo > w && w > 0) {
			t.Errorf("MLP %d: without (%.3g) must exceed with (%.3g)", size, wo, w)
		}
		mlpRatios = append(mlpRatios, ratio)
		w, wo, ratio = Savings(r.CNN, size)
		if !(wo > w && w > 0) {
			t.Errorf("CNN %d: without (%.3g) must exceed with (%.3g)", size, wo, w)
		}
		cnnRatios = append(cnnRatios, ratio)
	}
	if !(mlpRatios[0] > mlpRatios[2]) {
		t.Errorf("MLP savings should be largest on the smallest MCA: %v", mlpRatios)
	}
	if !(cnnRatios[0] > cnnRatios[2]) {
		t.Errorf("CNN savings should be largest on the smallest MCA: %v", cnnRatios)
	}
	if len(r.Tables()) != 2 {
		t.Fatal("tables malformed")
	}
}

// Fig 14a: accuracy rises with precision, 4-bit is close to 8-bit (the
// paper's justification for 4-bit crossbars), and the easiest dataset stays
// the most accurate.
func TestFig14aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep; skipped with -short")
	}
	cfg := DefaultFig14a()
	cfg.TrainSamples, cfg.TestSamples, cfg.Epochs, cfg.Steps = 350, 60, 7, 60
	rows, table, err := Fig14a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || table == nil {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy[8] < 0.25 {
			t.Errorf("%v: 8-bit accuracy %.2f too low to be meaningful", r.Dataset, r.Accuracy[8])
		}
		if r.Norm[4] < 0.8 {
			t.Errorf("%v: 4-bit accuracy (%.2f of 8-bit) should be comparable to 8-bit", r.Dataset, r.Norm[4])
		}
		if r.Accuracy[1] >= r.Accuracy[8]+0.05 {
			t.Errorf("%v: 1-bit (%v) should not beat 8-bit (%v)", r.Dataset, r.Accuracy[1], r.Accuracy[8])
		}
	}
	// Digits is the easiest task.
	var digits, objects float64
	for _, r := range rows {
		switch r.Dataset {
		case dataset.Digits:
			digits = r.Accuracy[8]
		case dataset.Objects:
			objects = r.Accuracy[8]
		}
	}
	if digits < objects-0.05 {
		t.Errorf("digits (%.2f) should be at least as accurate as objects (%.2f)", digits, objects)
	}
}

// Fig 14b: CMOS energy rises with precision; RESPARC energy is flat.
func TestFig14bShapes(t *testing.T) {
	rows, table, err := Fig14b(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || table == nil {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CMOS <= rows[i-1].CMOS {
			t.Errorf("CMOS energy not rising: %v", rows)
		}
		if rows[i].RESPARC != rows[0].RESPARC {
			t.Errorf("RESPARC energy must be precision-independent: %v", rows)
		}
	}
	growth := rows[len(rows)-1].CMOS / rows[0].CMOS
	if growth < 1.5 || growth > 5 {
		t.Errorf("CMOS 1->8 bit growth %.2fx outside the paper's ~2x band", growth)
	}
}

func TestRunPairConsistency(t *testing.T) {
	cfg := testConfig()
	b, err := RunPair(mustBench(t, "mnist-mlp"), cfg.MCASize, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.RESPARC.Arch != "resparc" || b.CMOS.Arch != "cmos" {
		t.Fatal("arch labels wrong")
	}
	if b.Compared.EnergyGain != b.CMOS.Energy/b.RESPARC.Energy {
		t.Fatal("comparison inconsistent")
	}
	if b.Mapping == nil || b.Mapping.MCAs == 0 {
		t.Fatal("mapping missing")
	}
}

func mustBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The runtime checklist must produce all-PASS verdicts at test fidelity.
func TestChecklistAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction sweep; skipped with -short")
	}
	verdicts, table, err := Checklist(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) < 9 || table == nil {
		t.Fatalf("%d verdicts", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.Pass {
			t.Errorf("%s: %s — measured %s", v.Artifact, v.Claim, v.Measured)
		}
	}
}

// The paper's structural conclusions must survive +-50% perturbation of
// every individual calibration constant.
func TestSensitivityRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("perturbation sweep; skipped with -short")
	}
	cfg := testConfig()
	rows, table, err := Sensitivity(cfg, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 || table == nil { // baseline + 10 params x 2 directions
		t.Fatalf("%d rows", len(rows))
	}
	if err := RobustConclusions(rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sensitivity(cfg, 1); err == nil {
		t.Fatal("factor 1 accepted")
	}
}
