package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"resparc/internal/bench"
	"resparc/internal/dataset"
	"resparc/internal/lb"
	"resparc/internal/serve"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// The serve-mix traffic: two fixed-rate open-loop phases below the fleet's
// knee on a 2-core host, 90/10 mnist-mlp/mnist-cnn, 70/30
// interactive/batch, four tenants, backend unpinned.
const (
	lowRPS     = 20.0
	highRPS    = 30.0
	mlpShare   = 0.9
	batchShare = 0.3
	tenants    = 4
	replicas   = 2
	// Tier limits of the fleet scenario (experiments.FigFleet).
	interactiveLimitMs = 150
	batchLimitMs       = 500
	// lagBoundMs bounds the generator's p99 lateness; a run beyond it is
	// invalid (the offered load was not the stated one).
	lagBoundMs = 50
	// refEvery is how often a phase's reference timing is taken.
	refEvery = 250 * time.Millisecond
)

// servedModels and the size of each model's request pool of distinct
// (image, seed) pairs.
var servedModels = []struct {
	name string
	pool int
}{{"mnist-mlp", 48}, {"mnist-cnn", 4}}

// Headers the traced run uses to carry a request's ID and its lb.upstream
// span from the balancer's client to the replica.
const (
	headerReq    = "X-Resparcbench-Request"
	headerParent = "X-Resparcbench-Span"
)

// fleet is the system under test: replicas behind one balancer.
type fleet struct {
	regs    []*serve.Registry
	servers []*serve.Server
	https   []*http.Server
	serving sync.WaitGroup
	lb      *lb.LB
	handles *handleLog // traced run only
}

type fleetTimes struct{ total, build, registry, lbReady time.Duration }

// startFleet builds each replica's registry (mnist-mlp and mnist-cnn at the
// registry defaults), serves it over loopback HTTP with serve.DefaultConfig,
// and starts the balancer with lb.DefaultConfig; lb.New returns after its
// first health poll.
func startFleet(tr *tracer, parent int64) (*fleet, fleetTimes, error) {
	var ft fleetTimes
	start := time.Now()
	f := &fleet{}
	if tr != nil {
		f.handles = &handleLog{byReq: make(map[int64]handleRec)}
	}
	timed := func(name string, acc *time.Duration, fn func() error) error {
		id := tr.begin(name, parent, 0)
		t0 := time.Now()
		err := fn()
		*acc += time.Since(t0)
		tr.end(id)
		return err
	}
	var members []lb.Replica
	for r := 0; r < replicas; r++ {
		var reg *serve.Registry
		if err := timed("serve.registry", &ft.registry, func() (err error) {
			reg, err = serve.NewRegistry(serve.DefaultRegistryConfig())
			return err
		}); err != nil {
			return f, ft, err
		}
		for _, m := range servedModels {
			b, err := bench.ByName(m.name)
			if err != nil {
				return f, ft, err
			}
			var net *snn.Network
			if err := timed("bench.build", &ft.build, func() (err error) {
				net, err = b.Build(weightSeed)
				return err
			}); err != nil {
				return f, ft, fmt.Errorf("building %s: %w", m.name, err)
			}
			if err := timed("serve.registry", &ft.registry, func() error {
				_, err := reg.AddNetwork(net)
				return err
			}); err != nil {
				return f, ft, err
			}
		}
		var srv *serve.Server
		if err := timed("serve.registry", &ft.registry, func() (err error) {
			srv, err = serve.New(serve.DefaultConfig(reg))
			return err
		}); err != nil {
			return f, ft, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return f, ft, fmt.Errorf("listening: %w", err)
		}
		handler := srv.Handler()
		if tr != nil {
			handler = traceReplica(handler, tr, f.handles)
		}
		hs := &http.Server{Handler: handler}
		f.regs = append(f.regs, reg)
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}()
		members = append(members, lb.Replica{Name: fmt.Sprintf("r%d", r), URL: "http://" + ln.Addr().String()})
	}
	cfg := lb.DefaultConfig(members)
	if tr != nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: tracingTransport{base: http.DefaultTransport, tr: tr}}
	}
	if err := timed("lb.ready", &ft.lbReady, func() (err error) {
		f.lb, err = lb.New(cfg)
		return err
	}); err != nil {
		return f, ft, err
	}
	ft.total = time.Since(start)
	return f, ft, nil
}

// close stops the balancer's poller, shuts the listeners down, drains the
// replicas, and waits for every serving goroutine to exit.
func (f *fleet) close() {
	if f.lb != nil {
		f.lb.Close()
	}
	for _, hs := range f.https {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = hs.Shutdown(ctx) // a timeout leaves Close below to drop connections
		cancel()
		_ = hs.Close()
	}
	f.serving.Wait()
	for _, s := range f.servers {
		s.Close()
	}
}

// event is one request arrival.
type event struct {
	phase  int // 0 low, 1 high
	at     time.Duration
	model  int // index into servedModels
	pair   int // index into the model's request pool
	tier   lb.Tier
	tenant string
}

// arrivals draws a Poisson arrival schedule at a fixed rate.
func arrivals(rng *rand.Rand, phase int, rps float64, d time.Duration, pools []int) []event {
	var evs []event
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if t >= d {
			return evs
		}
		m := 1
		if rng.Float64() < mlpShare {
			m = 0
		}
		tier := lb.TierInteractive
		if rng.Float64() < batchShare {
			tier = lb.TierBatch
		}
		evs = append(evs, event{
			phase: phase, at: t, model: m, pair: rng.Intn(pools[m]), tier: tier,
			tenant: fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
		})
	}
}

// pool is one model's distinct requests.
type pool struct {
	inputs []tensor.Vec
	seeds  []int64
	bodies [][]byte
}

func buildPools(f *fleet, seed int64) ([]pool, error) {
	pools := make([]pool, len(servedModels))
	for mi, m := range servedModels {
		model, ok := f.regs[0].Get(m.name)
		if !ok {
			return nil, fmt.Errorf("model %s not registered", m.name)
		}
		set := dataset.Generate(dataset.Digits, m.pool, seed*1_000_003+int64(mi)*7919+211)
		p := pool{}
		for j, s := range set.Samples {
			in, err := bench.PrepareInput(s.Input, set.Shape, model.Net.Input)
			if err != nil {
				return nil, err
			}
			in = bench.NormalizeIntensity(in)
			rs := seed*1000 + int64(j)
			body, err := json.Marshal(serve.ClassifyRequest{Model: m.name, Input: in, Seed: rs})
			if err != nil {
				return nil, err
			}
			p.inputs = append(p.inputs, in)
			p.seeds = append(p.seeds, rs)
			p.bodies = append(p.bodies, body)
		}
		pools[mi] = p
	}
	return pools, nil
}

// reqOut is one request's outcome.
type reqOut struct {
	ev        event
	id        int64
	due       time.Time
	fired     time.Time
	end       time.Time
	status    int
	resp      serve.ClassifyResponse
	decodeErr error
	lbSpan    int64
}

func (r reqOut) latencyMs() float64 { return ms(r.end.Sub(r.due)) }

type ctxKey struct{}

// reqCtx travels in the request context from the generator through the
// balancer to its HTTP client.
type reqCtx struct{ id, parent int64 }

// drive fires the events open loop: each at its due time regardless of how
// the fleet keeps up, calling the balancer's handler in-process. Latency is
// measured from the due time, so a stalled generator or fleet shows up in
// it; the generator's own lateness is recorded per request.
func drive(h http.Handler, evs []event, pools []pool, firstID int64, tr *tracer) []reqOut {
	outs := make([]reqOut, len(evs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ev := range evs {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, ev event, due time.Time) {
			defer wg.Done()
			outs[i] = fire(h, ev, pools, firstID+int64(i), due, tr)
		}(i, ev, due)
	}
	wg.Wait()
	return outs
}

func fire(h http.Handler, ev event, pools []pool, id int64, due time.Time, tr *tracer) reqOut {
	out := reqOut{ev: ev, id: id, due: due, fired: time.Now()}
	ctx := context.Background()
	var root int64
	if tr != nil {
		root = tr.beginAt("loadgen.request", 0, id, due)
		tr.add("loadgen.lag", root, id, due, out.fired, false)
		out.lbSpan = tr.begin("lb.handle", root, id)
		ctx = context.WithValue(ctx, ctxKey{}, reqCtx{id: id, parent: out.lbSpan})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/classify", bytes.NewReader(pools[ev.model].bodies[ev.pair]))
	if err != nil {
		out.end = time.Now()
		out.decodeErr = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(lb.HeaderTenant, ev.tenant)
	req.Header.Set(lb.HeaderPriority, string(ev.tier))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out.end = time.Now()
	tr.end(out.lbSpan)
	tr.end(root)
	out.status = rec.Code
	if rec.Code == http.StatusOK {
		out.decodeErr = json.Unmarshal(rec.Body.Bytes(), &out.resp)
	}
	return out
}

// tracingTransport is the balancer's HTTP client transport in the traced
// run: it records each proxied call as an lb.upstream span and tells the
// replica which request and span it serves.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rc, ok := r.Context().Value(ctxKey{}).(reqCtx)
	if !ok {
		return t.base.RoundTrip(r)
	}
	id := t.tr.begin("lb.upstream", rc.parent, rc.id)
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatInt(rc.id, 10))
	r.Header.Set(headerParent, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends the upstream span once the balancer has consumed the body.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// handleRec is a replica handler invocation of one request.
type handleRec struct {
	span       int64
	start, end time.Time
	total      time.Duration // summed over retries
}

type handleLog struct {
	mu    sync.Mutex
	byReq map[int64]handleRec
}

// traceReplica wraps a replica's handler, recording a serve.handle span for
// every proxied request.
func traceReplica(h http.Handler, tr *tracer, log *handleLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r) // health polls
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := tr.add("serve.handle", parent, req, start, end, false)
		log.mu.Lock()
		prev := log.byReq[req]
		log.byReq[req] = handleRec{span: id, start: start, end: end, total: prev.total + end.Sub(start)}
		log.mu.Unlock()
	})
}

func runServeMix(cfg config) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	reps := setupReps
	phaseDur := secondsDur(cfg.Seconds / 2)
	if cfg.Tiny {
		reps = 1
	}

	var f *fleet
	var totals, builds, regs, readies []float64
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		id := tr.begin("serve.setup", 0, 0)
		var ft fleetTimes
		var err error
		f, ft, err = startFleet(tr, id)
		tr.end(id)
		if err != nil {
			f.close()
			return nil, err
		}
		totals = append(totals, ft.total.Seconds())
		builds = append(builds, ms(ft.build))
		regs = append(regs, ms(ft.registry))
		readies = append(readies, ms(ft.lbReady))
	}
	defer f.close()
	o.e2e["setup_s"] = median(totals)
	o.layer["bench.build_ms"] = median(builds)
	o.layer["serve.registry_ms"] = median(regs)
	o.layer["lb.ready_ms"] = median(readies)
	o.notes["setup_s_samples"] = totals

	pools, err := buildPools(f, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(pools))
	for i, p := range pools {
		sizes[i] = len(p.inputs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var phases [2][]event
	if cfg.Tiny {
		// A few dozen requests: every pool entry once per phase.
		for ph := range phases {
			for mi, n := range sizes {
				for j := 0; j < n; j++ {
					phases[ph] = append(phases[ph], event{phase: ph, model: mi, pair: j, tier: lb.TierInteractive, tenant: "tenant-0",
						at: time.Duration(len(phases[ph])) * 10 * time.Millisecond})
				}
			}
		}
	} else {
		phases[0] = arrivals(rng, 0, lowRPS, phaseDur, sizes)
		phases[1] = arrivals(rng, 1, highRPS, phaseDur, sizes)
	}

	h := f.lb.Handler()
	// Warm-up: first requests per model pay lazy weight-panel construction
	// and connection setup outside the measured phases.
	for mi := range pools {
		for j := 0; j < 2 && j < len(pools[mi].inputs); j++ {
			fire(h, event{model: mi, pair: j, tier: lb.TierInteractive, tenant: "warmup"}, pools, 0, time.Now(), nil)
		}
	}
	runtime.GC()

	// Each phase's latencies are taken at nominal host speed, scaled by the
	// median of reference timings sampled while it runs.
	var outs []reqOut
	var scales [2]float64
	nextID := int64(1)
	for ph := range phases {
		id := tr.begin([]string{"loadgen.phase_low", "loadgen.phase_high"}[ph], 0, 0)
		stop := refSampler(refEvery, nproc)
		outs = append(outs, drive(h, phases[ph], pools, nextID, tr)...)
		refs := stop()
		tr.end(id)
		scales[ph] = hostScale(median(refs))
		o.notes[fmt.Sprintf("phase%d_ref_ms", ph)] = map[string]any{"median": median(refs), "samples": len(refs)}
		nextID += int64(len(phases[ph]))
	}

	// Reference: a serial Classify of every pool entry on replica 0's
	// resparc backend with the registry's encoder.
	regCfg := f.regs[0].Config()
	baseEnc := snn.NewPoissonEncoder(regCfg.MaxProb, regCfg.Seed)
	ref := make([][]int, len(pools))
	for mi, m := range servedModels {
		model, _ := f.regs[0].Get(m.name)
		be, ok := model.Backend(string(serve.BackendRESPARC))
		if !ok {
			return nil, fmt.Errorf("%s has no resparc backend", m.name)
		}
		for j, in := range pools[mi].inputs {
			_, rep := be.Classify(in, baseEnc.ForkSeed(int(pools[mi].seeds[j])))
			ref[mi] = append(ref[mi], rep.Predicted)
		}
	}
	summarizeServe(outs, ref, scales, f, tr, o)

	// The served models on all three backends, through the same timed and
	// modeled reduction as the sweeps, over the request pools.
	var nets []*sweepNet
	for mi, m := range servedModels {
		model, _ := f.regs[0].Get(m.name)
		sn := &sweepNet{name: m.name, net: model.Net, chip: model.Chip, inputs: pools[mi].inputs}
		for _, name := range []string{string(serve.BackendRESPARC), string(serve.BackendCMOS), "resparc-x4"} {
			be, ok := model.Backend(name)
			if !ok {
				return nil, fmt.Errorf("%s has no %s backend", m.name, name)
			}
			sn.backends = append(sn.backends, be)
		}
		seeds := pools[mi].seeds
		sn.enc = func(i int) snn.Encoder { return baseEnc.ForkSeed(int(seeds[i])) }
		nets = append(nets, sn)
	}
	vcfg := cfg
	vcfg.Seconds = cfg.Seconds / 3
	results, err := sweepTimed(vcfg, nets, nproc, false, tr, o, "serve.verify")
	if err != nil {
		return nil, err
	}
	for mi := range nets {
		o.failed += mismatches(results[mi].preds, ref[mi])
	}
	modeledSweep(nets, results, o)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	if cfg.Trace {
		o.spans = tr.snapshot()
	}
	return o, nil
}

// summarizeServe reduces the request outcomes: per-phase latency at nominal
// host speed (each phase's latencies times its scale), SLO attainment on the
// latencies as measured, correctness against the serial reference, the
// serving per-layer breakdown and the fleet's own counters.
func summarizeServe(outs []reqOut, ref [][]int, scales [2]float64, f *fleet, tr *tracer, o *outcome) {
	var lat [2][]float64
	var lags, queue, batch, overhead, exec []float64
	met, highSent := 0, 0
	for _, r := range outs {
		o.attempted++
		lags = append(lags, ms(r.fired.Sub(r.due)))
		ok := r.status == http.StatusOK && r.decodeErr == nil && r.resp.Prediction == ref[r.ev.model][r.ev.pair]
		if !ok {
			o.failed++
		}
		if r.ev.phase == 1 {
			highSent++
			limit := float64(interactiveLimitMs)
			if r.ev.tier == lb.TierBatch {
				limit = batchLimitMs
			}
			if ok && r.latencyMs() <= limit {
				met++
			}
		}
		if r.status != http.StatusOK || r.decodeErr != nil {
			continue
		}
		lat[r.ev.phase] = append(lat[r.ev.phase], r.latencyMs())
		queue = append(queue, r.resp.QueueMs)
		batch = append(batch, float64(r.resp.BatchSize))
		if tr != nil {
			f.handles.mu.Lock()
			hr, seen := f.handles.byReq[r.id]
			f.handles.mu.Unlock()
			if seen {
				overhead = append(overhead, ms(r.end.Sub(r.fired)-hr.total))
				qd := time.Duration(r.resp.QueueMs * float64(time.Millisecond))
				exec = append(exec, ms(hr.end.Sub(hr.start)-qd))
				tr.add("serve.queue", hr.span, r.id, hr.start, hr.start.Add(qd), true)
				tr.add("serve.exec", hr.span, r.id, hr.start.Add(qd), hr.end, true)
			}
		}
	}
	for ph, tag := range []string{"low", "high"} {
		p, pct := tail(lat[ph])
		p50 := o.e2e
		if tag == "low" {
			p50 = o.layer // too noisy to bound
		}
		p50["lat_ms_p50_"+tag] = median(lat[ph]) * scales[ph]
		o.layer["lat_ms_p99_"+tag] = p * scales[ph]
		o.notes["lat_"+tag] = map[string]any{"samples": len(lat[ph]), "tail_percentile": pct}
	}
	if highSent > 0 {
		o.e2e["slo_attain_high"] = float64(met) / float64(highSent)
	}
	lagP99, _ := tail(lags)
	o.layer["loadgen.lag_ms_p99"] = lagP99
	if lagP99 > lagBoundMs {
		o.valid = false
		o.notes["invalid"] = fmt.Sprintf("generator lag p99 %.1f ms exceeds the %d ms bound", lagP99, lagBoundMs)
	}
	o.layer["serve.queue_ms_p50"] = median(queue)
	o.layer["serve.queue_ms_p99"], _ = tail(queue)
	o.layer["serve.batch_size_mean"] = mean(batch)
	o.layer["lb.overhead_ms_p50"] = median(overhead)
	o.layer["lb.overhead_ms_p99"], _ = tail(overhead)
	o.layer["serve.exec_ms_p50"] = median(exec)
	o.layer["serve.exec_ms_p99"], _ = tail(exec)

	ls := f.lb.Metrics().Snapshot()
	var rejected, shed int64
	for _, n := range ls.Rejected {
		rejected += n
	}
	for _, n := range ls.Shed {
		shed += n
	}
	o.layer["lb.rejected"] = float64(rejected)
	o.layer["lb.retries"] = float64(ls.Retries)
	o.layer["lb.shed"] = float64(shed)
	var queueFull, timeouts int64
	for _, s := range f.servers {
		ss := s.Metrics().Snapshot()
		queueFull += ss.Codes[http.StatusTooManyRequests]
		timeouts += ss.Timeouts
	}
	o.layer["serve.queue_full"] = float64(queueFull)
	o.layer["serve.timeouts"] = float64(timeouts)
	o.notes["requests"] = map[string]int{"low": countPhase(outs, 0), "high": countPhase(outs, 1)}
}

func countPhase(outs []reqOut, ph int) int {
	n := 0
	for _, r := range outs {
		if r.ev.phase == ph {
			n++
		}
	}
	return n
}
