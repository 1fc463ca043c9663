package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"resparc/internal/perf"
	"resparc/internal/tensor"
)

// Backend selects which architecture simulator answers a request.
type Backend string

const (
	// BackendRESPARC is the memristive-crossbar chip simulator.
	BackendRESPARC Backend = "resparc"
	// BackendCMOS is the optimized digital baseline.
	BackendCMOS Backend = "cmos"
)

// ParseBackend validates a wire-form backend name against the always-present
// backends; empty selects the fallback. Per-model backends (e.g. the
// "resparc-x4" shard pipeline) are resolved against the model's own registry
// at request time, so this is only for static defaults like the CLI flag.
func ParseBackend(s string, fallback Backend) (Backend, error) {
	switch Backend(s) {
	case "":
		return fallback, nil
	case BackendRESPARC:
		return BackendRESPARC, nil
	case BackendCMOS:
		return BackendCMOS, nil
	}
	return "", fmt.Errorf("serve: unknown backend %q (want %q or %q)", s, BackendRESPARC, BackendCMOS)
}

// maxRequestBody bounds /v1/classify request bodies (the largest Fig 10
// input is 3072 intensities; 8 MiB leaves generous headroom).
const maxRequestBody = 8 << 20

// Config configures a Server.
type Config struct {
	// Registry holds the servable models; required.
	Registry *Registry
	// DefaultBackend answers requests that do not name a backend.
	DefaultBackend Backend
	// MaxBatch is the micro-batcher's flush size.
	MaxBatch int
	// MaxWait is how long a non-full batch waits for company.
	MaxWait time.Duration
	// QueueSize bounds each (model, backend) queue; a full queue is a 429.
	QueueSize int
	// Workers is the simulator worker-pool size per batch (<= 0: one per
	// CPU).
	Workers int
	// RequestTimeout bounds a request end-to-end (enqueue through batch
	// completion); expiry answers 504 without waiting for the batch
	// (<= 0: 30 s).
	RequestTimeout time.Duration
	// BreakerThreshold is how many consecutive batch failures open a
	// (model, backend) circuit (<= 0: 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects with 503 +
	// Retry-After before letting a probe through (<= 0: 2 s).
	BreakerCooldown time.Duration
}

// DefaultConfig returns the serving defaults (batch 8, 2 ms wait, queue 64,
// 30 s deadline, breaker opens after 3 failures with a 2 s cooldown).
func DefaultConfig(reg *Registry) Config {
	return Config{
		Registry:         reg,
		DefaultBackend:   BackendRESPARC,
		MaxBatch:         8,
		MaxWait:          2 * time.Millisecond,
		QueueSize:        64,
		RequestTimeout:   30 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
	}
}

// Server is the HTTP inference service: one micro-batcher per
// (model, backend) pair over the shared simulator pool.
type Server struct {
	cfg      Config
	metrics  *Metrics
	mux      *http.ServeMux
	batchers map[string]*batcher
	breakers map[string]*breaker

	mu     sync.Mutex
	closed bool

	// Self-healing scheduler state (see StartRepair).
	repairers  []*Repairer
	repairStop chan struct{}
	repairWG   sync.WaitGroup
}

// New builds a server over the registry's models. Batchers are created
// eagerly so queue-depth gauges exist from the first scrape.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	if len(cfg.Registry.Models()) == 0 {
		return nil, fmt.Errorf("serve: empty registry")
	}
	if cfg.DefaultBackend == "" {
		cfg.DefaultBackend = BackendRESPARC
	}
	if _, err := ParseBackend(string(cfg.DefaultBackend), ""); err != nil {
		return nil, err
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:      cfg,
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		batchers: make(map[string]*batcher),
		breakers: make(map[string]*breaker),
	}
	for _, m := range cfg.Registry.Models() {
		for _, name := range m.Backends() {
			model, backend := m, Backend(name)
			run := func(inputs []tensor.Vec, seeds []int64) ([]perf.Result, []int, error) {
				return model.ClassifyEach(backend, inputs, seeds, cfg.Workers)
			}
			br := newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
			onResult := func(err error) {
				if err != nil {
					br.onFailure()
					s.metrics.BatchFailure()
				} else {
					br.onSuccess()
				}
			}
			b := newBatcher(cfg.QueueSize, cfg.MaxBatch, cfg.MaxWait, run, s.metrics.Batch, onResult)
			key := batcherKey(model.Name, backend)
			s.batchers[key] = b
			s.breakers[key] = br
			s.metrics.RegisterQueue(model.Name, string(backend), b.depth)
			s.metrics.RegisterBreaker(model.Name, string(backend), br.State)
		}
	}
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.Handle("/metrics", s.metrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

func batcherKey(model string, backend Backend) string { return model + "\x00" + string(backend) }

// Handler returns the HTTP handler tree (mountable under httptest too),
// wrapped in panic-recovery middleware: a handler panic becomes a 500 and a
// resparc_serve_panics_total increment instead of a dropped connection.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panic()
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				_ = json.NewEncoder(w).Encode(errorResponse{Error: errorBody{
					Code: ErrCodeInternal, Message: fmt.Sprintf("internal error: %v", p),
				}})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Metrics exposes the counters (for the load driver and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains every batcher: admission stops (submissions return
// ErrClosed), in-flight and queued batches complete, and every admitted
// request receives its response before Close returns. The repair scheduler
// stops first so draining batches never contend with a repair pass.
func (s *Server) Close() {
	s.StopRepair()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, b := range s.batchers {
		b.close()
	}
}

// ClassifyRequest is the /v1/classify wire request.
type ClassifyRequest struct {
	// Model names a registry entry.
	Model string `json:"model"`
	// Backend is "resparc" or "cmos"; empty selects the server default.
	Backend string `json:"backend,omitempty"`
	// Input is the image as pixel intensities in [0, 1], length equal to
	// the model's input_size.
	Input []float64 `json:"input"`
	// Seed keys the request's Poisson spike stream. Equal (model, backend,
	// input, seed) tuples produce bit-identical responses at any
	// concurrency.
	Seed int64 `json:"seed,omitempty"`
}

// ClassifyResponse is the /v1/classify wire response.
type ClassifyResponse struct {
	Model      string      `json:"model"`
	Backend    string      `json:"backend"`
	Prediction int         `json:"prediction"`
	Perf       perf.Result `json:"perf"`
	// BatchSize is how many requests shared the micro-batch.
	BatchSize int `json:"batch_size"`
	// QueueMs is the time the request waited before its batch dispatched.
	QueueMs float64 `json:"queue_ms"`
}

// Error codes of the JSON error envelope: every non-2xx response is
// {"error":{"code","message"}} with a stable machine-readable code, so
// clients can branch without parsing message text.
const (
	ErrCodeMethodNotAllowed = "method_not_allowed"
	ErrCodeBadRequest       = "bad_request"
	ErrCodeModelNotFound    = "model_not_found"
	ErrCodeCircuitOpen      = "circuit_open"
	ErrCodeQueueFull        = "queue_full"
	ErrCodeDraining         = "draining"
	ErrCodeTimeout          = "timeout"
	ErrCodeInternal         = "internal"
)

// errorBody is the envelope's payload.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

func (s *Server) reply(w http.ResponseWriter, start time.Time, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
	s.metrics.Response(code, time.Since(start))
}

func (s *Server) replyError(w http.ResponseWriter, start time.Time, code int, errCode, format string, args ...any) {
	s.reply(w, start, code, errorResponse{Error: errorBody{Code: errCode, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Request()
	if r.Method != http.MethodPost {
		s.replyError(w, start, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, "POST required")
		return
	}
	var req ClassifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.replyError(w, start, http.StatusBadRequest, ErrCodeBadRequest, "decoding request: %v", err)
		return
	}
	model, ok := s.cfg.Registry.Get(req.Model)
	if !ok {
		s.replyError(w, start, http.StatusNotFound, ErrCodeModelNotFound, "unknown model %q (see /v1/models)", req.Model)
		return
	}
	backend := Backend(req.Backend)
	if backend == "" {
		backend = s.cfg.DefaultBackend
	}
	if _, ok := model.Backend(string(backend)); !ok {
		s.replyError(w, start, http.StatusBadRequest, ErrCodeBadRequest,
			"serve: unknown backend %q (model %q serves %v)", backend, model.Name, model.Backends())
		return
	}
	if want := model.Net.Input.Size(); len(req.Input) != want {
		s.replyError(w, start, http.StatusBadRequest, ErrCodeBadRequest, "input length %d, model %q wants %d", len(req.Input), model.Name, want)
		return
	}
	input := make(tensor.Vec, len(req.Input))
	for i, x := range req.Input {
		if math.IsNaN(x) || x < 0 || x > 1 {
			s.replyError(w, start, http.StatusBadRequest, ErrCodeBadRequest, "input[%d] = %v outside [0, 1]", i, x)
			return
		}
		input[i] = x
	}
	key := batcherKey(model.Name, backend)
	br := s.breakers[key]
	if ok, retry := br.allow(); !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		s.replyError(w, start, http.StatusServiceUnavailable, ErrCodeCircuitOpen,
			"backend %s/%s unhealthy (circuit open), retry later", model.Name, backend)
		return
	}
	job := &request{input: input, seed: req.Seed, done: make(chan response, 1)}
	if err := s.batchers[key].submit(job); err != nil {
		// The request never reached a batch, so no outcome will arrive; if
		// it was the half-open probe, free the slot for the next request.
		br.probeAborted()
		switch {
		case errors.Is(err, ErrQueueFull):
			s.replyError(w, start, http.StatusTooManyRequests, ErrCodeQueueFull, "queue full for %s/%s, retry later", model.Name, backend)
		case errors.Is(err, ErrClosed):
			s.replyError(w, start, http.StatusServiceUnavailable, ErrCodeDraining, "server shutting down")
		default:
			s.replyError(w, start, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		}
		return
	}
	// done is buffered(1): on deadline expiry the dispatcher's late send
	// still lands and is garbage-collected with the channel.
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	var resp response
	select {
	case resp = <-job.done:
	case <-timer.C:
		s.metrics.Timeout()
		s.replyError(w, start, http.StatusGatewayTimeout, ErrCodeTimeout,
			"request exceeded the %s deadline for %s/%s", s.cfg.RequestTimeout, model.Name, backend)
		return
	}
	if resp.err != nil {
		s.replyError(w, start, http.StatusInternalServerError, ErrCodeInternal, "classification failed: %v", resp.err)
		return
	}
	s.reply(w, start, http.StatusOK, ClassifyResponse{
		Model:      model.Name,
		Backend:    string(backend),
		Prediction: resp.prediction,
		Perf:       resp.perf,
		BatchSize:  resp.batchSize,
		QueueMs:    float64(resp.queueWait) / float64(time.Millisecond),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.replyError(w, time.Now(), http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, "GET required")
		return
	}
	infos := s.cfg.Registry.Info()
	for i := range infos {
		health := make(map[string]string, len(infos[i].Backends))
		for _, backend := range infos[i].Backends {
			if br, ok := s.breakers[batcherKey(infos[i].Name, Backend(backend))]; ok {
				health[backend] = br.State().String()
			}
		}
		infos[i].Health = health
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Models []ModelInfo `json:"models"`
	}{Models: infos})
}

// BackendHealth is one circuit's state in the /healthz and /readyz reports.
type BackendHealth struct {
	Model   string `json:"model"`
	Backend string `json:"backend"`
	State   string `json:"state"`
}

// HealthResponse is the /healthz and /readyz wire form. Status is "ok"
// (or "ready") when every circuit is closed, "degraded" when any is open or
// half-open (the server still answers what it can), and "draining" during
// shutdown.
type HealthResponse struct {
	Status   string          `json:"status"`
	Backends []BackendHealth `json:"backends"`
}

// health assembles the shared liveness/readiness body: the per-(model,
// backend) circuit states plus whether any circuit is open, whether the
// server is draining, and whether a repair pass holds a model write lock.
func (s *Server) health() (resp HealthResponse, anyOpen, draining, repairing bool) {
	s.mu.Lock()
	draining = s.closed
	repairers := s.repairers
	s.mu.Unlock()
	for _, r := range repairers {
		if r.Repairing() {
			repairing = true
			break
		}
	}
	resp = HealthResponse{Status: "ok"}
	for _, m := range s.cfg.Registry.Models() {
		for _, backend := range m.Backends() {
			state := s.breakers[batcherKey(m.Name, Backend(backend))].State()
			if state != BreakerClosed {
				resp.Status = "degraded"
			}
			if state == BreakerOpen {
				anyOpen = true
			}
			resp.Backends = append(resp.Backends, BackendHealth{
				Model: m.Name, Backend: backend, State: state.String(),
			})
		}
	}
	return resp, anyOpen, draining, repairing
}

func writeHealth(w http.ResponseWriter, code int, resp HealthResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// handleHealthz is liveness: 200 as long as the process can answer at all,
// including through a drain (in-flight work is still completing, so killing
// the process now would lose it). Orchestrators restart on liveness
// failures; load balancers should watch /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp, _, draining, _ := s.health()
	if draining {
		resp.Status = "draining"
	}
	writeHealth(w, http.StatusOK, resp)
}

// handleReadyz is readiness: 503 while draining, while a repair pass holds
// a model write lock ("repairing" — requests would queue behind the lock,
// so a balancer should route to siblings until the window closes), or while
// any (model, backend) circuit is open, so a load balancer stops routing
// here before requests start failing. The body carries the per-(model,
// backend) breaker states either way — a balancer that parses it can keep
// routing the pairs that are still healthy (e.g. the CMOS baseline while
// the RESPARC circuit recovers) instead of dropping the whole replica.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp, anyOpen, draining, repairing := s.health()
	code := http.StatusOK
	switch {
	case draining:
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	case repairing:
		resp.Status = "repairing"
		code = http.StatusServiceUnavailable
	case anyOpen:
		code = http.StatusServiceUnavailable
	default:
		resp.Status = "ready"
	}
	writeHealth(w, code, resp)
}

// retryAfterSeconds renders a backoff as a whole-second Retry-After value,
// at least 1, with up to 50% random jitter added on top. The jitter
// staggers the retries of clients (and load-balancer replicas) that were
// all rejected by the same opening circuit — without it they would all
// come back in the same second and re-stampede a barely recovered backend.
func retryAfterSeconds(d time.Duration) string {
	d += time.Duration(retryJitter.Int64N(int64(d)/2 + 1))
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// retryJitter is the shared jitter source for Retry-After values. The lock
// keeps it safe under concurrent 503s; the seed does not matter (jitter
// only needs to differ between concurrent clients, not reproduce).
var retryJitter = newLockedRand(time.Now().UnixNano())

type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Int64N(n int64) int64 {
	if n <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Int63n(n)
}
