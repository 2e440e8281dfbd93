package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one recorded call from the driver into a layer's public function.
// Spans of one op share Op; Parent is the span that caused this one (0 for
// the op's root). Replayed children run after their parent has returned — the
// program has no spans of its own yet — so self time is duration arithmetic,
// not interval covering.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds one round's spans and per-op observations in memory. A nil
// tracer records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	obs   map[string]*tally
}

// tally is a running sum and count of one observed per-op value.
type tally struct {
	sum float64
	n   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), obs: map[string]*tally{}}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes span id under name; the name is given here because some are
// known only from the call's outcome (a cache hit).
func (t *tracer) end(id int, name string) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.Name, s.End = name, int64(time.Since(t.epoch))
}

// dur returns the duration of a closed span in microseconds.
func (t *tracer) dur(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e3
}

// observe adds one per-op value (a count from a Stats struct, or a duration
// derived from several spans) to the named tally.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	a := t.obs[name]
	if a == nil {
		a = &tally{}
		t.obs[name] = a
	}
	a.sum += v
	a.n++
}

// reset drops the recorded round, keeping the buffers.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	clear(t.obs)
}

// selfTimes returns each span's self time in nanoseconds, indexed like spans:
// its duration minus the durations of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// summarize folds the round into per-layer values: "<span name>_us" is the
// mean duration of the spans of that name, "<span name>.self_us" the mean self
// time of those that have children, and each observation its mean.
func (t *tracer) summarize() map[string]float64 {
	type agg struct {
		dur, self  float64
		n, parents int
	}
	hasChild := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			hasChild[s.Parent-1] = true
		}
	}
	self := selfTimes(t.spans)
	byName := map[string]*agg{}
	for i, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.dur += float64(s.End-s.Start) / 1e3
		a.n++
		if hasChild[i] {
			a.self += float64(self[i]) / 1e3
			a.parents++
		}
	}
	out := map[string]float64{}
	for name, a := range byName {
		out[name+"_us"] = a.dur / float64(a.n)
		if a.parents > 0 {
			out[name+".self_us"] = a.self / float64(a.parents)
		}
	}
	for name, a := range t.obs {
		out[name] = a.sum / float64(a.n)
	}
	return out
}

// writeJSONL writes the held spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
