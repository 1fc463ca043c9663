package serve

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"resparc/internal/cmosbase"
	"resparc/internal/fault"
	"resparc/internal/repair"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Self-healing serving: when repair is enabled, every model's RESPARC
// mapping becomes a repair.Deployment that ages with the replica's served
// inference count (conductance drift plus wear-out stuck-ats, seeded and
// deterministic), and a background scheduler periodically probes it with
// canary inputs and climbs the repair ladder when degradation shows.
//
// A repair pass needs quiescent weights — it rewrites the live network's
// matrices in place — so each pass takes the model's write lock while
// classification takes the read side; requests arriving mid-pass queue
// until the pass finishes. For the repair window's duration the replica
// reports "repairing" on /readyz (503), so a load balancer routes new
// traffic to its siblings instead of letting it pile up behind the lock.
//
// Only the crossbar-backed backends age: the CMOS baseline is digital
// SRAM, so attaching a repairer rebuilds it over a clone of the original
// network and its answers stay byte-identical for the replica's life.

// RepairConfig configures the background self-healing scheduler.
type RepairConfig struct {
	// Life is the seeded lifetime model every deployment ages under.
	Life fault.Lifetime
	// Policy selects how much of the repair ladder a pass may climb.
	Policy repair.Policy
	// Ladder tunes detection and the repair tiers; a zero value takes
	// repair.DefaultConfig.
	Ladder repair.Config
	// Interval is the cadence between background passes (<= 0: 30 s).
	Interval time.Duration
	// AgePerInference converts the replica's served crossbar inferences
	// into deployment age (<= 0: 1). Raising it compresses a service life
	// into fewer requests — the lifetime campaigns' accelerated aging.
	AgePerInference float64
	// Canaries is how many known-answer probe inputs each model gets
	// (<= 0: 16). They double as the delta-rule calibration set.
	Canaries int
}

// Repairer ages one model's deployment and runs its repair passes.
type Repairer struct {
	model *Model
	dep   *repair.Deployment
	det   *repair.Detector
	cfg   RepairConfig

	mu        sync.Mutex
	repairing bool
	status    RepairStatus
}

// RepairStatus is one repairer's metrics snapshot.
type RepairStatus struct {
	Model  string
	Policy string
	// Age is the deployment age (in inferences) after the last pass.
	Age float64
	// Repairing is set while a pass holds the model's write lock.
	Repairing bool
	// Passes counts completed passes; Errors counts passes that failed.
	Passes int64
	Errors int64
	// LastAgreement and LastSeverity come from the last pass's final probe.
	LastAgreement float64
	LastSeverity  string
	// Stats is the deployment's cumulative repair activity.
	Stats repair.Stats
}

// canaryInput builds the i-th deterministic probe image for an input size.
func canaryInput(size, i int) tensor.Vec {
	v := make(tensor.Vec, size)
	for j := range v {
		v[j] = float64((i+3)*(j+7)%97) / 96
	}
	return v
}

// cloneNetwork deep-copies a network through its serialized form.
func cloneNetwork(net *snn.Network) (*snn.Network, error) {
	var buf bytes.Buffer
	if err := snn.WriteNetwork(&buf, net); err != nil {
		return nil, err
	}
	return snn.ReadNetwork(&buf)
}

// NewRepairer attaches a lifetime deployment to the model: the CMOS
// baseline is rebuilt over a clone of the still-clean network, then the
// live network is programmed through the deployment (quantized to the
// technology's conductance levels, fabrication defects applied) and a
// detector records golden canary predictions from the clean reference.
func NewRepairer(m *Model, cfg RepairConfig) (*Repairer, error) {
	if cfg.Policy < repair.PolicyNone || cfg.Policy > repair.PolicyFull {
		return nil, fmt.Errorf("serve: repair policy %d", cfg.Policy)
	}
	if cfg.Ladder.Detect.AgreementFloor == 0 && cfg.Ladder.Detect.CriticalFloor == 0 {
		cfg.Ladder = repair.DefaultConfig()
	}
	n := cfg.Canaries
	if n <= 0 {
		n = 16
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The baseline must fork off before the deployment quantizes the live
	// weights: digital SRAM neither drifts nor wears.
	clone, err := cloneNetwork(m.Net)
	if err != nil {
		return nil, fmt.Errorf("serve: cloning %q for the CMOS baseline: %w", m.Name, err)
	}
	base, err := cmosbase.New(clone, m.Base.Opt)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding baseline for %q: %w", m.Name, err)
	}
	m.Base = base
	m.backends[base.Name()] = base
	dep, err := repair.NewDeployment(m.Net, m.Map, cfg.Life)
	if err != nil {
		return nil, fmt.Errorf("serve: deploying %q: %w", m.Name, err)
	}
	inputs := make([]tensor.Vec, n)
	for i := range inputs {
		inputs[i] = canaryInput(m.Net.Input.Size(), i)
	}
	// Canary streams fork from the model's base encoder on negative seeds,
	// a namespace request seeds (>= 0 by convention) never use.
	enc := func(i int) snn.Encoder { return m.enc.ForkSeed(-1 - i) }
	det, err := repair.NewDetector(dep, cfg.Ladder.Detect, inputs, enc, m.Chip.Opt.Steps)
	if err != nil {
		return nil, fmt.Errorf("serve: detector for %q: %w", m.Name, err)
	}
	r := &Repairer{model: m, dep: dep, det: det, cfg: cfg}
	r.status = RepairStatus{Model: m.Name, Policy: cfg.Policy.String()}
	return r, nil
}

// Repairing reports whether a pass currently holds the model write lock.
func (r *Repairer) Repairing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repairing
}

// Status returns the metrics snapshot of the last completed pass.
func (r *Repairer) Status() RepairStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.status
	st.Repairing = r.repairing
	return st
}

func (r *Repairer) setRepairing(v bool) {
	r.mu.Lock()
	r.repairing = v
	r.mu.Unlock()
}

// Pass runs one repair pass: age the deployment to the model's served
// inference count, probe it, and climb the ladder as far as the policy
// allows. It holds the model's write lock for the duration, so in-flight
// batches finish first and new ones wait; /readyz reports "repairing".
func (r *Repairer) Pass() (repair.Outcome, error) {
	r.setRepairing(true)
	defer r.setRepairing(false)
	r.model.mu.Lock()
	defer r.model.mu.Unlock()
	scale := r.cfg.AgePerInference
	if scale <= 0 {
		scale = 1
	}
	if age := float64(r.model.served.Load()) * scale; age > r.dep.Age() {
		if err := r.dep.AdvanceTo(age); err != nil {
			return repair.Outcome{}, r.record(repair.Outcome{}, err)
		}
	}
	out, err := repair.RunOnce(r.dep, r.det, r.cfg.Policy, r.cfg.Ladder)
	if out.Escalated {
		// The remap tier moved allocations inside the served mapping.
		r.model.Chip.Remapped()
	}
	return out, r.record(out, err)
}

// record folds a pass outcome into the status snapshot.
func (r *Repairer) record(out repair.Outcome, err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.status.Errors++
		return err
	}
	r.status.Passes++
	r.status.Age = r.dep.Age()
	r.status.LastAgreement = out.After.Agreement
	r.status.LastSeverity = out.After.Severity.String()
	r.status.Stats = r.dep.Stats
	return nil
}

// loop runs passes on the ticker until stop closes.
func (r *Repairer) loop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// A failed pass is recorded in the status (and the error
			// counter) and the next tick retries; the scheduler never dies.
			_, _ = r.Pass()
		}
	}
}

// StartRepair attaches a repairer to every registered model and starts the
// background scheduler. The registry's networks are quantized onto their
// deployments here, so RESPARC answers may change at attach time; without
// StartRepair the serving path is untouched, bit for bit.
func (s *Server) StartRepair(cfg RepairConfig) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: server closed")
	}
	if s.repairStop != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: repair already started")
	}
	s.mu.Unlock()
	if cfg.Ladder.Detect.Workers == 0 {
		cfg.Ladder.Detect.Workers = s.cfg.Workers
	}
	var reps []*Repairer
	for _, m := range s.cfg.Registry.Models() {
		r, err := NewRepairer(m, cfg)
		if err != nil {
			return err
		}
		s.metrics.RegisterRepair(r.Status)
		reps = append(reps, r)
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	stop := make(chan struct{})
	s.mu.Lock()
	s.repairers = reps
	s.repairStop = stop
	s.mu.Unlock()
	for _, r := range reps {
		s.repairWG.Add(1)
		go func(r *Repairer) {
			defer s.repairWG.Done()
			r.loop(interval, stop)
		}(r)
	}
	return nil
}

// StopRepair stops the scheduler and waits for any in-flight pass to
// release its model lock. The deployments stay attached (the networks
// remain programmed); call it before Close so draining batches do not
// contend with a repair pass.
func (s *Server) StopRepair() {
	s.mu.Lock()
	stop := s.repairStop
	s.repairStop = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	s.repairWG.Wait()
}

// Repairers returns the attached repairers (nil when repair is off).
func (s *Server) Repairers() []*Repairer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Repairer(nil), s.repairers...)
}
