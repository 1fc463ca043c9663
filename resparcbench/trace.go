package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer of the system, recorded by the
// benchmark's own code around that call. Its name is the per-layer metric it
// feeds, without the unit suffix (span "core.classify" feeds
// "core.classify_ms_per_img"), so timelines and metrics share one vocabulary.
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Req    int64 // request ID (serve-mix), 0 elsewhere
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	// Derived marks a span whose bounds are computed from a reported figure
	// (the replica's queue_ms) rather than read from the clock around a call.
	Derived bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent, req int64) int64 {
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name string, parent, req int64, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: start.Sub(t.origin), End: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans are appended in ID order starting at 1.
	t.spans[id-1].End = now
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent, req int64, start, end time.Time, derived bool) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Derived: derived,
	})
	return t.next
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover (children may overlap
// each other; the union is subtracted once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// descendants returns the spans in root's subtree, root included.
func descendants(spans []span, root int64) []span {
	byParent := make(map[int64][]span)
	var rootSpan span
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
		if s.ID == root {
			rootSpan = s
		}
	}
	out := []span{rootSpan}
	for i := 0; i < len(out); i++ {
		out = append(out, byParent[out[i].ID]...)
	}
	return out
}

// sumCheck is the traced run's consistency check on one phase: the self
// times of the layer spans under root must add back up to root's wall time.
// Whatever root covers that no layer span does is the harness's own time,
// and overlapping layer spans would push the sum past the wall time; either
// beyond sumTolerance fails the check.
type sumCheck struct {
	WallMs    float64            `json:"wall_ms"`
	LayersMs  float64            `json:"layers_self_ms"`
	Err       float64            `json:"rel_err"`
	Tolerance float64            `json:"tolerance"`
	OK        bool               `json:"ok"`
	SelfMs    map[string]float64 `json:"self_ms_by_span"`
}

// sumTolerance bounds |sum of layer self times / wall time - 1|.
const sumTolerance = 0.02

func checkSum(spans []span, root int64) sumCheck {
	sub := descendants(spans, root)
	self := selfTimes(sub)
	c := sumCheck{Tolerance: sumTolerance, SelfMs: make(map[string]float64)}
	c.WallMs = ms(sub[0].dur())
	for _, s := range sub[1:] {
		v := ms(self[s.ID])
		c.LayersMs += v
		c.SelfMs[s.Name] += v
	}
	if c.WallMs > 0 {
		c.Err = c.LayersMs/c.WallMs - 1
	}
	c.OK = c.WallMs > 0 && c.Err <= sumTolerance && c.Err >= -sumTolerance
	return c
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
// Spans of one request share a track (tid = request ID); the rest share
// track 0, where they nest strictly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req != 0 {
			args["request_id"] = s.Req
		}
		if s.Derived {
			args["derived"] = true
		}
		cat := s.Name
		for i := 0; i < len(cat); i++ {
			if cat[i] == '.' {
				cat = cat[:i]
				break
			}
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Req, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
