package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"resparc/internal/core"
	"resparc/internal/fault"
	"resparc/internal/repair"
	"resparc/internal/shard"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// repairTestServer builds a one-model server with an aggressive lifetime
// model attached: strong drift, some wear, and an age scale that reaches
// end of life after ~100 served inferences.
func repairTestServer(t *testing.T, policy repair.Policy) (*Server, *httptest.Server) {
	t.Helper()
	reg := testRegistry(t)
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	camp := fault.NewCampaign(7, reg.Config().Tech)
	camp.DriftSigma = 0.6
	err = srv.StartRepair(RepairConfig{
		Life:            fault.Lifetime{Camp: camp, EOL: 1e4, WearFraction: 0.01},
		Policy:          policy,
		Interval:        time.Hour, // passes are triggered explicitly
		AgePerInference: 100,
		Canaries:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func readyzStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Status
}

// The serving repair loop end-to-end: requests age the deployment, a pass
// detects the degradation and repairs it, the repair window flips /readyz
// to "repairing", and the resparc_repair_* metrics appear.
func TestRepairerLifecycle(t *testing.T) {
	srv, ts := repairTestServer(t, repair.PolicyFull)
	model := srv.cfg.Registry.Models()[0]
	input := testInput(model.Net.Input.Size(), 5)

	if code, status := readyzStatus(t, ts.URL); code != http.StatusOK || status != "ready" {
		t.Fatalf("fresh replica readyz %d %q, want 200 ready", code, status)
	}

	// Age the deployment to EOL through real served traffic.
	for i := 0; i < 100; i++ {
		resp, _, body := postClassify(t, ts.URL, ClassifyRequest{
			Model: model.Name, Backend: string(BackendRESPARC), Input: input, Seed: int64(i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if got := model.Served(); got != 100 {
		t.Fatalf("served counter %d after 100 resparc requests", got)
	}

	reps := srv.Repairers()
	if len(reps) != 1 {
		t.Fatalf("%d repairers for a one-model registry", len(reps))
	}
	r := reps[0]
	out, err := r.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if age := r.Status().Age; age != 1e4 {
		t.Fatalf("deployment age %g after 100 inferences at scale 100, want 1e4", age)
	}
	if !out.Before.Degraded() {
		t.Fatalf("EOL drift (sigma %.2f effective) not detected: %+v",
			r.cfg.Life.Camp.DriftSigmaAt(1e4), out.Before)
	}
	if out.Refreshed == 0 {
		t.Fatalf("full policy ran no refresh on a degraded deployment: %+v", out)
	}
	if out.After.Agreement < out.Before.Agreement {
		t.Fatalf("repair lowered agreement %.3f -> %.3f", out.Before.Agreement, out.After.Agreement)
	}

	// The repair window: readiness flips to 503 "repairing" while a pass
	// holds the model write lock, and back to ready afterwards.
	r.setRepairing(true)
	if code, status := readyzStatus(t, ts.URL); code != http.StatusServiceUnavailable || status != "repairing" {
		t.Fatalf("mid-pass readyz %d %q, want 503 repairing", code, status)
	}
	r.setRepairing(false)
	if code, status := readyzStatus(t, ts.URL); code != http.StatusOK || status != "ready" {
		t.Fatalf("post-pass readyz %d %q, want 200 ready", code, status)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`resparc_repair_passes_total{model="tiny-mlp",policy="full"} 1`,
		`resparc_repair_age_inferences{model="tiny-mlp",policy="full"} 10000`,
		"resparc_repair_refreshed_slots_total",
		"resparc_repair_agreement",
		"resparc_repair_active",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	if err := srv.StartRepair(RepairConfig{Life: r.cfg.Life}); err == nil {
		t.Fatal("second StartRepair accepted")
	}
	srv.StopRepair()
	srv.StopRepair() // idempotent
}

// The CMOS baseline forks off a clone before the deployment quantizes the
// live network: its answers are byte-identical before and after attaching
// the repairer, and survive aging plus a repair pass untouched.
func TestRepairLeavesCMOSBaselineUntouched(t *testing.T) {
	reg := testRegistry(t)
	model := reg.Models()[0]
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inputs := make([][]float64, 4)
	before := make([]ClassifyResponse, len(inputs))
	for i := range inputs {
		inputs[i] = testInput(model.Net.Input.Size(), int64(20+i))
		resp, out, body := postClassify(t, ts.URL, ClassifyRequest{
			Model: model.Name, Backend: string(BackendCMOS), Input: inputs[i], Seed: int64(i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-attach cmos request %d: %d (%s)", i, resp.StatusCode, body)
		}
		before[i] = out
	}

	camp := fault.NewCampaign(7, reg.Config().Tech)
	camp.DriftSigma = 0.6
	err = srv.StartRepair(RepairConfig{
		Life:            fault.Lifetime{Camp: camp, EOL: 1e4, WearFraction: 0.01},
		Policy:          repair.PolicyFull,
		Interval:        time.Hour,
		AgePerInference: 100,
		Canaries:        8,
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		for i := range inputs {
			resp, out, body := postClassify(t, ts.URL, ClassifyRequest{
				Model: model.Name, Backend: string(BackendCMOS), Input: inputs[i], Seed: int64(i),
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s cmos request %d: %d (%s)", stage, i, resp.StatusCode, body)
			}
			if out.Prediction != before[i].Prediction {
				t.Fatalf("%s: cmos prediction for input %d changed %d -> %d",
					stage, i, before[i].Prediction, out.Prediction)
			}
		}
	}
	check("post-attach")

	// Age via resparc traffic, repair, and re-check: the baseline clock
	// never ticks (CMOS requests are excluded from the served counter).
	served := model.Served()
	for i := 0; i < 50; i++ {
		resp, _, body := postClassify(t, ts.URL, ClassifyRequest{
			Model: model.Name, Backend: string(BackendRESPARC), Input: inputs[0], Seed: int64(i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("aging request %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	if got := model.Served(); got != served+50 {
		t.Fatalf("served counter %d, want %d (cmos requests must not count)", got, served+50)
	}
	if _, err := srv.Repairers()[0].Pass(); err != nil {
		t.Fatal(err)
	}
	check("post-repair")
}

// Classification and repair passes interleave safely: the model write lock
// quiesces the weights per pass, so concurrent requests either run before
// or after a pass, never during (exercised under -race in CI).
func TestRepairConcurrentWithClassification(t *testing.T) {
	srv, ts := repairTestServer(t, repair.PolicyRefresh)
	model := srv.cfg.Registry.Models()[0]
	input := testInput(model.Net.Input.Size(), 9)

	var wg sync.WaitGroup
	errc := make(chan error, 1)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, _, _ := postClassify(t, ts.URL, ClassifyRequest{
					Model: model.Name, Input: input, Seed: int64(c*100 + i),
				})
				if resp.StatusCode != http.StatusOK {
					select {
					case errc <- nil:
					default:
					}
				}
			}
		}(c)
	}
	r := srv.Repairers()[0]
	for i := 0; i < 3; i++ {
		if _, err := r.Pass(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	select {
	case <-errc:
		t.Fatal("a request failed while repair passes interleaved")
	default:
	}
	if got := r.Status().Passes; got != 3 {
		t.Fatalf("pass counter %d, want 3", got)
	}
}

// An escalated pass moves allocations to spare mPEs inside the served
// mapping; the live chip must then account exactly like a chip freshly
// built on the remapped mapping — on the chip itself and on the sharded
// backend that wraps it.
func TestRepairRemapRefreshesChip(t *testing.T) {
	reg := testRegistry(t)
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	model := reg.Models()[0]
	inputs := make([]tensor.Vec, 3)
	for i := range inputs {
		inputs[i] = testInput(model.Net.Input.Size(), 40+int64(i))
	}
	enc := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 5).ForkSeed(i) }
	// Classify once first so the chip caches its plans before the remap.
	if _, _, err := model.Chip.ClassifyEach(inputs, enc, sim.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	camp := fault.NewCampaign(7, reg.Config().Tech)
	ladder := repair.DefaultConfig()
	ladder.Detect.CriticalFloor = 2 // every probe is critical: climb to remap
	ladder.MaxBadTaps = 0
	ladder.SpareMPEs = 8
	if err := srv.StartRepair(RepairConfig{
		Life:     fault.Lifetime{Camp: camp, EOL: 100, WearFraction: 0.01},
		Policy:   repair.PolicyFull,
		Ladder:   ladder,
		Interval: time.Hour,
		Canaries: 4,
	}); err != nil {
		t.Fatal(err)
	}
	model.served.Store(100)
	out, err := srv.Repairers()[0].Pass()
	if err != nil {
		t.Fatal(err)
	}
	if out.Moves == 0 {
		t.Fatalf("pass moved nothing: %+v", out)
	}

	fresh, err := core.New(model.Net, model.Map, model.Chip.Opt)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := fresh.ClassifyEach(inputs, enc, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range model.Backends() {
		if name == string(BackendCMOS) {
			continue
		}
		be, _ := model.Backend(name)
		_, got, err := be.ClassifyEach(inputs, enc, sim.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			var rep core.Report
			switch d := got[i].Detail.(type) {
			case core.Report:
				rep = d
			case shard.Report:
				rep = d.Chip
			}
			w := want[i].Detail.(core.Report)
			if rep.Counts.ExtTransfers != w.Counts.ExtTransfers || rep.Energy != w.Energy || got[i].Predicted != want[i].Predicted {
				t.Fatalf("%s image %d after remap: ext transfers %d energy %+v, fresh chip %d %+v",
					name, i, rep.Counts.ExtTransfers, rep.Energy, w.Counts.ExtTransfers, w.Energy)
			}
		}
	}
}
