package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sheriff/internal/obs"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent indexes the span that caused this one
// (-1 for a root); Unit is the period or episode every span of one
// pipeline pass shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Unit   int32  `json:"unit"`
}

// tracer holds the traced pass's spans in memory, and the one obs.Recorder
// whose per-kind counts give the layers' work counts. Both exist only in
// the traced pass; untraced passes run with a nil tracer and a nil
// Recorder.
type tracer struct {
	epoch time.Time
	spans []span
	rec   *obs.Recorder
	// events counts the Recorder's events by kind, and by "kind/phase"
	// where the event names a phase. counting is off during warm-up and
	// after the measured window, so the counts cover what the spans cover.
	events   map[string]uint64
	counting bool
	shims    []time.Duration // obs manage events of the period in flight
}

func newTracer() (*tracer, error) {
	t := &tracer{epoch: time.Now(), events: make(map[string]uint64)}
	rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.Func(func(e obs.Event) error {
		if !t.counting {
			return nil
		}
		t.events[string(e.Kind)]++
		if e.Phase != "" {
			t.events[string(e.Kind)+"/"+e.Phase]++
		}
		if e.Kind == obs.KindManage {
			t.shims = append(t.shims, time.Duration(e.Value*float64(time.Second)))
		}
		return nil
	})}})
	if err != nil {
		return nil, err
	}
	t.rec = rec
	return t, nil
}

// count returns how many events of the kind (or "kind/phase") the
// measured window recorded.
func (t *tracer) count(key string) float64 { return float64(t.events[key]) }

// recorder is nil-safe so builders pass tr.recorder() whether or not the
// pass is traced.
func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// add records one span and returns its index for children to name.
func (t *tracer) add(name string, start, end time.Time, parent, unit int) int {
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: int32(parent), Unit: int32(unit)})
	return len(t.spans) - 1
}

// addChildren lays synthesized child spans back to back from the parent's
// start: the callee reports durations (StepStats.Timings, obs manage
// events), not timestamps, so the offsets are nominal and only the
// durations carry information.
func (t *tracer) addChildren(parent int, names []string, durs []time.Duration) []int {
	p := t.spans[parent]
	at := p.Start
	idx := make([]int, len(names))
	for i, name := range names {
		end := at + durs[i].Nanoseconds()
		t.spans = append(t.spans, span{Name: name, Start: at, End: end, Parent: int32(parent), Unit: p.Unit})
		idx[i] = len(t.spans) - 1
		at = end
	}
	return idx
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval its direct children cover. Children are
// clipped to the parent, so a synthesized child that overshoots cannot
// make a parent's self time negative by more than its own overshoot.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// totalByName sums span durations per name, in seconds.
func totalByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// sumError is the worst relative gap, over root spans, between a root's
// duration and the self times of its tree. It is zero by construction
// when children tile or sit inside their parents; the check guards the
// construction.
func sumError(spans []span) float64 {
	self := selfTimes(spans)
	root := make([]int32, len(spans))
	tree := make(map[int32]int64)
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = int32(i)
		} else {
			root[i] = root[s.Parent] // parents are always recorded first
		}
		tree[root[i]] += self[i]
	}
	worst := 0.0
	for r, total := range tree {
		d := spans[r].End - spans[r].Start
		if d <= 0 {
			continue
		}
		gap := float64(total-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, spans []span) error {
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"time_unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since trace start", spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
