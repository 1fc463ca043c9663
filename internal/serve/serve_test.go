package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// testConfig keeps registry builds fast: few steps, small crossbars.
func testConfig() RegistryConfig {
	cfg := DefaultRegistryConfig()
	cfg.Steps = 10
	cfg.MCASize = 16
	return cfg
}

func testNetwork(t *testing.T, name string, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(in, out int) *snn.Layer {
		w := tensor.NewMat(out, in)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.3
		}
		l, err := snn.NewDense(fmt.Sprintf("d%dx%d", in, out), in, out, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	net, err := snn.NewNetwork(name, tensor.Shape3{H: 1, W: 1, C: 24}, mk(24, 16), mk(16, 6))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddNetwork(testNetwork(t, "tiny-mlp", 11)); err != nil {
		t.Fatal(err)
	}
	return reg
}

func testInput(size int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, size)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

func postClassify(t *testing.T, url string, req ClassifyRequest) (*http.Response, ClassifyResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp, out, buf.String()
}

// The acceptance test: >= 64 simultaneous requests against a running
// server, every response bit-identical to the serial single-image
// reference, and /metrics counters reconciling with the request count.
func TestConcurrentRequestsMatchSerialReference(t *testing.T) {
	reg := testRegistry(t)
	model, _ := reg.Get("tiny-mlp")
	cfg := DefaultConfig(reg)
	cfg.MaxBatch = 8
	cfg.MaxWait = time.Millisecond
	cfg.QueueSize = 256
	cfg.Workers = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const n = 80 // 64 would do; spread over both backends
	type result struct {
		idx  int
		code int
		resp ClassifyResponse
		body string
	}
	inputs := make([][]float64, n)
	backends := make([]string, n)
	for i := range inputs {
		inputs[i] = testInput(model.Net.Input.Size(), int64(1000+i%7))
		if i%3 == 0 {
			backends[i] = "cmos"
		} else {
			backends[i] = "resparc"
		}
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out, body := postClassify(t, ts.URL, ClassifyRequest{
				Model:   "tiny-mlp",
				Backend: backends[i],
				Input:   inputs[i],
				Seed:    int64(i % 13),
			})
			results[i] = result{idx: i, code: resp.StatusCode, resp: out, body: body}
		}(i)
	}
	wg.Wait()

	rcfg := reg.Config()
	base := snn.NewPoissonEncoder(rcfg.MaxProb, rcfg.Seed)
	sawBatched := false
	for _, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", r.idx, r.code, r.body)
		}
		// Serial single-image reference through the public simulator API,
		// with the same fork the server derives from the request seed.
		in := make(tensor.Vec, len(inputs[r.idx]))
		copy(in, inputs[r.idx])
		enc := base.ForkSeed(r.idx % 13)
		var wantPred int
		var wantEnergy, wantLatency float64
		if backends[r.idx] == "cmos" {
			res, rep := model.Base.Classify(in, enc)
			wantPred, wantEnergy, wantLatency = rep.Predicted, res.Energy, res.Latency
		} else {
			res, rep := model.Chip.Classify(in, enc)
			wantPred, wantEnergy, wantLatency = rep.Predicted, res.Energy, res.Latency
		}
		if r.resp.Prediction != wantPred {
			t.Fatalf("request %d (%s): prediction %d, serial reference %d", r.idx, backends[r.idx], r.resp.Prediction, wantPred)
		}
		if r.resp.Perf.Energy != wantEnergy || r.resp.Perf.Latency != wantLatency {
			t.Fatalf("request %d (%s): perf %v/%v, serial reference %v/%v",
				r.idx, backends[r.idx], r.resp.Perf.Energy, r.resp.Perf.Latency, wantEnergy, wantLatency)
		}
		if r.resp.BatchSize < 1 || r.resp.BatchSize > cfg.MaxBatch {
			t.Fatalf("request %d: batch size %d outside [1, %d]", r.idx, r.resp.BatchSize, cfg.MaxBatch)
		}
		if r.resp.BatchSize > 1 {
			sawBatched = true
		}
	}
	if !sawBatched {
		t.Log("note: no request shared a batch (timing-dependent); determinism still verified")
	}

	// Metrics must reconcile with what we sent.
	snap := srv.Metrics().Snapshot()
	if snap.Requests != n {
		t.Fatalf("requests_total %d, want %d", snap.Requests, n)
	}
	if snap.Codes[http.StatusOK] != n {
		t.Fatalf("responses{200} %d, want %d", snap.Codes[http.StatusOK], n)
	}
	var total int64
	for _, c := range snap.Codes {
		total += c
	}
	if total != snap.Requests {
		t.Fatalf("responses %d don't reconcile with requests %d", total, snap.Requests)
	}
	if snap.BatchImages != n {
		t.Fatalf("batch_images_total %d, want %d", snap.BatchImages, n)
	}
	if snap.Batches < 1 || snap.Batches > n {
		t.Fatalf("batches_total %d outside [1, %d]", snap.Batches, n)
	}

	// And the scrape endpoint must agree with the snapshot.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("resparc_serve_requests_total %d", n),
		fmt.Sprintf("resparc_serve_responses_total{code=\"200\"} %d", n),
		fmt.Sprintf("resparc_serve_batch_images_total %d", n),
		"resparc_serve_queue_depth{model=\"tiny-mlp\",backend=\"resparc\"}",
		"resparc_serve_request_latency_seconds{quantile=\"0.5\"}",
		"resparc_serve_request_latency_seconds{quantile=\"0.99\"}",
		"resparc_serve_images_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// Identical requests return bit-identical responses even when re-sent into
// a differently composed batch.
func TestSameRequestSameAnswer(t *testing.T) {
	reg := testRegistry(t)
	model, _ := reg.Get("tiny-mlp")
	cfg := DefaultConfig(reg)
	cfg.MaxBatch = 4
	cfg.MaxWait = time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := ClassifyRequest{Model: "tiny-mlp", Input: testInput(model.Net.Input.Size(), 5), Seed: 42}
	_, first, _ := postClassify(t, ts.URL, req)
	// Re-send alone and alongside unrelated traffic.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postClassify(t, ts.URL, ClassifyRequest{
				Model: "tiny-mlp", Input: testInput(model.Net.Input.Size(), int64(50+i)), Seed: int64(i),
			})
		}(i)
	}
	_, again, _ := postClassify(t, ts.URL, req)
	wg.Wait()
	if first.Prediction != again.Prediction || !reflect.DeepEqual(first.Perf, again.Perf) {
		t.Fatalf("same request diverged: %+v vs %+v", first, again)
	}
}

func TestClassifyValidation(t *testing.T) {
	reg := testRegistry(t)
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	size := 24
	cases := []struct {
		name string
		req  ClassifyRequest
		code int
	}{
		{"unknown model", ClassifyRequest{Model: "nope", Input: testInput(size, 1)}, http.StatusNotFound},
		{"bad backend", ClassifyRequest{Model: "tiny-mlp", Backend: "tpu", Input: testInput(size, 1)}, http.StatusBadRequest},
		{"short input", ClassifyRequest{Model: "tiny-mlp", Input: testInput(size-1, 1)}, http.StatusBadRequest},
		{"out of range", ClassifyRequest{Model: "tiny-mlp", Input: append(testInput(size-1, 1), 1.5)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _, body := postClassify(t, ts.URL, c.req)
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status %d want %d (%s)", c.name, resp.StatusCode, c.code, body)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}
	// Garbage body.
	gresp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", gresp.StatusCode)
	}
}

func TestModelsEndpoint(t *testing.T) {
	reg := testRegistry(t)
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 1 {
		t.Fatalf("models %d, want 1", len(out.Models))
	}
	m := out.Models[0]
	if m.Name != "tiny-mlp" || m.InputSize != 24 || m.Classes != 6 || m.MCAs < 1 || m.Utilization <= 0 {
		t.Fatalf("model info %+v", m)
	}
	// The default config also registers the multi-chip pipeline, clamped to
	// the model's two layers.
	if len(m.Backends) != 3 || m.Backends[0] != "resparc" || m.Backends[1] != "cmos" || m.Backends[2] != "resparc-x2" {
		t.Fatalf("backends %v", m.Backends)
	}
}

// A network serialized with snn.WriteNetwork loads into the registry and
// serves — the registry's dependence on the serialize round trip.
func TestRegistryLoadsSerializedNetwork(t *testing.T) {
	net := testNetwork(t, "from-disk", 77)
	path := filepath.Join(t.TempDir(), "net.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snn.WriteNetwork(f, net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := reg.LoadNetworkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if model.Name != "from-disk" {
		t.Fatalf("loaded model %q", model.Name)
	}
	srv, err := New(DefaultConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	resp, out, body := postClassify(t, ts.URL, ClassifyRequest{
		Model: "from-disk", Input: testInput(net.Input.Size(), 3), Seed: 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if out.Prediction < 0 || out.Perf.Energy <= 0 {
		t.Fatalf("response %+v", out)
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(RegistryConfig{Steps: 0, MaxProb: 0.5}); err == nil {
		t.Fatal("zero steps accepted")
	}
	cfg := testConfig()
	cfg.MaxProb = 1.5
	if _, err := NewRegistry(cfg); err == nil {
		t.Fatal("bad MaxProb accepted")
	}
	reg := testRegistry(t)
	if _, err := reg.AddNetwork(testNetwork(t, "tiny-mlp", 12)); err == nil {
		t.Fatal("duplicate model accepted")
	}
	if _, err := reg.LoadNetworkFile("/does/not/exist.gob"); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := reg.LoadBenchmarks("not-a-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil registry accepted")
	}
	empty, err := NewRegistry(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig(empty)); err == nil {
		t.Fatal("empty registry accepted")
	}
}
