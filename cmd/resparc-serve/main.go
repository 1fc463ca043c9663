// Command resparc-serve runs the HTTP inference service: the six Fig 10
// benchmarks (or any snn.WriteNetwork file) pre-mapped onto RESPARC and the
// CMOS baseline, served with dynamic micro-batching over the shared
// simulator pool.
//
// Usage:
//
//	resparc-serve [-addr :8080] [-backend resparc|cmos] [-max-batch 8]
//	              [-max-wait 2ms] [-queue 64] [-workers 0]
//	              [-models mnist-mlp,...] [-model-files a.gob,...]
//	              [-placement plan.json,...]
//	              [-steps 48] [-seed 1] [-mca-size 64] [-pprof]
//	              [-repair full] [-repair-interval 30s] [-fault-seed 1]
//	              [-eol 1e6] [-wear-fraction 0.002] [-drift-sigma 0.12]
//	              [-age-per-inference 1]
//
// Endpoints: POST /v1/classify, GET /v1/models, GET /metrics, GET /healthz.
//
// -repair enables self-healing serving: every model's crossbars age with
// the served inference count under a seeded lifetime fault model, and a
// background scheduler probes them with canary inputs and climbs the
// repair ladder (program-verify refresh, delta-rule tuning, spare
// remapping) when degradation shows. During a pass the replica answers
// "repairing" on /readyz so a balancer routes around the repair window.
//
// -load runs the self-benchmark instead of listening: it measures serial
// single-image throughput as the reference, then fires concurrent requests
// at an in-process server and reports the achieved batched images/sec,
// merging both into BENCH_RESULTS.json (-json).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"resparc/internal/fault"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/repair"
	"resparc/internal/serve"
	"resparc/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resparc-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	backend := flag.String("backend", "resparc", "default backend for requests that do not name one: resparc or cmos")
	maxBatch := flag.Int("max-batch", 8, "micro-batch flush size")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "how long a non-full batch waits for company")
	queue := flag.Int("queue", 64, "bounded queue size per (model, backend); a full queue answers 429")
	workers := flag.Int("workers", 0, "simulator worker-pool size per batch (<= 0: one per CPU)")
	models := flag.String("models", "", "comma-separated Fig 10 benchmark names to serve (empty: all six)")
	modelFiles := flag.String("model-files", "", "comma-separated snn.WriteNetwork files to serve in addition to -models")
	placements := flag.String("placement", "", "comma-separated resparc-map placement files; a served network matching a placement's network name is realized from the artifact (per-layer MCA sizes, alignment, shard cuts)")
	steps := flag.Int("steps", 0, "SNN timesteps per classification (0: the paper default)")
	seed := flag.Int64("seed", 0, "base encoder seed (0: the paper default)")
	mcaSize := flag.Int("mca-size", 0, "crossbar dimension for the RESPARC mapping (0: the paper default)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline; expiry answers 504")
	brThreshold := flag.Int("breaker-threshold", 3, "consecutive batch failures that open a (model, backend) circuit")
	brCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long an open circuit answers 503 + Retry-After before probing")
	repairPolicy := flag.String("repair", "", "enable self-healing with this policy: none (age only), refresh, or full (empty: lifetime aging and repair off; serving is bit-identical to earlier builds)")
	repairInterval := flag.Duration("repair-interval", 30*time.Second, "cadence of background repair passes; each pass quiesces its model (readyz answers \"repairing\")")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the lifetime fault campaign (drift, wear, fabrication defects)")
	eol := flag.Float64("eol", 1e6, "end-of-life inference count of the lifetime model")
	wearFraction := flag.Float64("wear-fraction", 0.002, "per-device probability of a wear-out stuck-at failure by EOL")
	driftSigma := flag.Float64("drift-sigma", 0.12, "lognormal conductance drift scale (grows with inference count)")
	driftTau := flag.Float64("drift-tau", 3e5, "inference count where drift starts accumulating (sigma grows per decade past it)")
	agePerInference := flag.Float64("age-per-inference", 1, "deployment age per served crossbar inference; raise for accelerated aging")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ (opt-in)")
	load := flag.Bool("load", false, "run the self-benchmark instead of listening")
	loadImages := flag.Int("load-images", 64, "images per measurement in -load mode")
	loadConc := flag.Int("load-concurrency", 16, "concurrent clients in -load mode")
	jsonPath := flag.String("json", "BENCH_RESULTS.json", "where -load merges its measurements")
	flag.Parse()

	defBackend, err := serve.ParseBackend(*backend, serve.BackendRESPARC)
	if err != nil {
		log.Fatal(err)
	}

	rcfg := serve.DefaultRegistryConfig()
	if *steps > 0 {
		rcfg.Steps = *steps
	}
	if *seed != 0 {
		rcfg.Seed = *seed
	}
	if *mcaSize > 0 {
		rcfg.MCASize = *mcaSize
	}
	for _, path := range splitList(*placements) {
		p, err := mapping.ReadPlacementFile(path)
		if err != nil {
			log.Fatal(err)
		}
		if rcfg.Placements == nil {
			rcfg.Placements = make(map[string]*mapping.Placement)
		}
		if prev := rcfg.Placements[p.Network]; prev != nil {
			log.Fatalf("placement %s: network %q already has a placement", path, p.Network)
		}
		rcfg.Placements[p.Network] = p
		log.Printf("placement %s: %s via %s mapper, sizes %v", path, p.Network, p.Mapper, p.Sizes())
	}
	reg, err := serve.NewRegistry(rcfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loading models (steps=%d, mca=%d)...", rcfg.Steps, rcfg.MCASize)
	buildStart := time.Now()
	if err := reg.LoadBenchmarks(splitList(*models)...); err != nil {
		log.Fatal(err)
	}
	for _, path := range splitList(*modelFiles) {
		if _, err := reg.LoadNetworkFile(path); err != nil {
			log.Fatal(err)
		}
	}
	for _, info := range reg.Info() {
		log.Printf("  %-12s %d layers, %d synapses, %d MCAs, utilization %.2f",
			info.Name, info.Layers, info.Synapses, info.MCAs, info.Utilization)
	}
	log.Printf("registry ready in %v", time.Since(buildStart).Round(time.Millisecond))

	cfg := serve.Config{
		Registry:         reg,
		DefaultBackend:   defBackend,
		MaxBatch:         *maxBatch,
		MaxWait:          *maxWait,
		QueueSize:        *queue,
		Workers:          *workers,
		RequestTimeout:   *reqTimeout,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *repairPolicy != "" {
		pol, err := repair.ParsePolicy(*repairPolicy)
		if err != nil {
			log.Fatal(err)
		}
		camp := fault.NewCampaign(*faultSeed, rcfg.Tech)
		camp.DriftSigma = *driftSigma
		camp.DriftTau = *driftTau
		err = srv.StartRepair(serve.RepairConfig{
			Life:            fault.Lifetime{Camp: camp, EOL: *eol, WearFraction: *wearFraction},
			Policy:          pol,
			Interval:        *repairInterval,
			AgePerInference: *agePerInference,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("self-healing on: policy %s, interval %v, EOL %g, wear %g, drift sigma %g",
			pol, *repairInterval, *eol, *wearFraction, *driftSigma)
	}

	if *load {
		if err := runLoad(srv, reg, defBackend, *loadImages, *loadConc, *jsonPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	handler := srv.Handler()
	if *pprofOn {
		// The profiling endpoints expose internals (and hold the CPU while
		// sampling), so they stay off unless explicitly requested.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (default backend %s, batch %d, wait %v, queue %d)",
		*addr, defBackend, cfg.MaxBatch, cfg.MaxWait, cfg.QueueSize)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting connections, then drain every
	// admitted batch before exiting.
	log.Print("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	log.Print("drained")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runLoad is the -load self-benchmark: serial single-image classification is
// the reference; the batched measurement fires concurrent requests at an
// in-process HTTP server so the full path (JSON, queueing, micro-batching,
// the parallel worker pool) is under test.
func runLoad(srv *serve.Server, reg *serve.Registry, backend serve.Backend, images, concurrency int, jsonPath string) error {
	if images < 1 || concurrency < 1 {
		return fmt.Errorf("load: need at least one image and one client")
	}
	model := reg.Models()[0]
	n := model.Net.Input.Size()
	inputs := make([]tensor.Vec, images)
	for i := range inputs {
		v := make(tensor.Vec, n)
		for j := range v {
			v[j] = float64((i+3)*(j+7)%97) / 96
		}
		inputs[i] = v
	}

	// Serial reference: one image at a time, one worker — the throughput a
	// client gets without batching.
	serialStart := time.Now()
	for i, in := range inputs {
		if _, _, err := model.ClassifyEach(backend, []tensor.Vec{in}, []int64{int64(i)}, 1); err != nil {
			return fmt.Errorf("load: serial reference: %w", err)
		}
	}
	serialDur := time.Since(serialStart)
	serialIPS := float64(images) / serialDur.Seconds()
	log.Printf("serial reference: %d images in %v (%.2f images/sec)", images, serialDur.Round(time.Millisecond), serialIPS)

	// Batched service: concurrent clients against the real HTTP stack.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String() + "/v1/classify"

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		maxBatch int
	)
	jobs := make(chan int)
	batchStart := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				size, err := classifyOnce(url, model.Name, string(backend), inputs[i], int64(i))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if size > maxBatch {
					maxBatch = size
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < images; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	batchDur := time.Since(batchStart)
	if firstErr != nil {
		return fmt.Errorf("load: batched run: %w", firstErr)
	}
	batchIPS := float64(images) / batchDur.Seconds()
	log.Printf("batched service: %d images in %v (%.2f images/sec, largest batch %d, %d clients)",
		images, batchDur.Round(time.Millisecond), batchIPS, maxBatch, concurrency)
	log.Printf("batching speedup: %.2fx over serial", batchIPS/serialIPS)
	if batchIPS < serialIPS {
		log.Printf("WARNING: batched throughput below the serial reference")
	}

	snap := srv.Metrics().Snapshot()
	log.Printf("metrics: %d requests, %d batches, %d batched images, p50 %.1f ms, p99 %.1f ms",
		snap.Requests, snap.Batches, snap.BatchImages, snap.P50*1e3, snap.P99*1e3)
	if snap.BatchImages != int64(images) {
		return fmt.Errorf("load: metrics count %d batched images, sent %d", snap.BatchImages, images)
	}

	existing, err := perf.ReadBenchFile(jsonPath)
	if err != nil {
		return err
	}
	fresh := []perf.BenchEntry{
		{
			Name:         "serve/" + model.Name + "/" + string(backend) + "/serial",
			NsPerOp:      float64(serialDur.Nanoseconds()) / float64(images),
			ImagesPerSec: serialIPS,
			Iterations:   images,
			Workers:      1,
		},
		{
			Name:         "serve/" + model.Name + "/" + string(backend) + "/batched",
			NsPerOp:      float64(batchDur.Nanoseconds()) / float64(images),
			ImagesPerSec: batchIPS,
			Iterations:   images,
			Workers:      concurrency,
		},
	}
	report := perf.NewBenchReport(perf.MergeEntries(existing.Entries, fresh))
	f, err := os.Create(jsonPath)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := perf.WriteBenchJSON(f, report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	log.Printf("load results merged into %s", jsonPath)
	return nil
}

// classifyOnce posts one image and returns the batch size its response rode
// in on.
func classifyOnce(url, model, backend string, input tensor.Vec, seed int64) (int, error) {
	body, err := json.Marshal(serve.ClassifyRequest{Model: model, Backend: backend, Input: input, Seed: seed})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return 0, err
	}
	return cr.BatchSize, nil
}
