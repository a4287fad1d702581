// Package obs is the structured observability layer: a recorder of
// protocol- and phase-level events that stamps each with a monotonic
// sequence number, counts events per kind, and emits them to pluggable
// sinks (a JSONL writer for the daemons' -trace flags, a TCP fan-out for
// sheriffd -listen, a Func for any in-process reader). The recorder keeps
// no events of its own: whoever wants them attaches a sink.
//
// The recorder is threaded through the layers that previously swallowed
// their history — runtime.Step phases, migrate.DistributedVMMigration's
// REQUEST/ACK/REJECT/retry handshakes, comm.Bus deliveries and drops, and
// kmedian.LocalSearch's swap trajectory — so a slow or failed round can be
// replayed event by event instead of inferred from end-of-run aggregates.
//
// A nil *Recorder is a valid no-op: every method has a nil fast path, so
// instrumented code calls r.Record(...) unconditionally and pays nothing
// when observability is off. Producers that must build attribute maps
// guard with r.Enabled() first.
package obs

import (
	"reflect"
	"sort"
	"sync"
)

// Kind tags an event's role in the taxonomy. Kinds are short stable
// strings so JSONL traces stay grep-able.
type Kind string

// The event taxonomy (DESIGN.md §9).
const (
	// KindPhase is one runtime.Step phase timing; Phase names it
	// (predict/flows/congestion/manage) and Value is seconds.
	KindPhase Kind = "phase"
	// KindAlerts is a per-rack alert tally for one step; Shim is the rack
	// index and Value the alert count handed to its shim.
	KindAlerts Kind = "alerts"
	// KindManage is one shim's management round; Value is seconds.
	KindManage Kind = "manage"

	// KindRequest is a REQUEST handshake initiation (Alg. 4); Round is the
	// protocol round and Value the proposed migration cost.
	KindRequest Kind = "request"
	// KindAck is a granted handshake (the VM moved).
	KindAck Kind = "ack"
	// KindReject is a refused handshake; attrs carry the cause.
	KindReject Kind = "reject"
	// KindRetry is a request re-queued after a presumed message loss (attrs
	// carry the cause, "timeout").
	KindRetry Kind = "retry"
	// KindUnplaced marks a VM abandoned by the protocol.
	KindUnplaced Kind = "unplaced"

	// KindSend is a bus send; Shim is the sender.
	KindSend Kind = "send"
	// KindDeliver is a bus delivery into the destination inbox.
	KindDeliver Kind = "deliver"
	// KindDrop is a bus loss; attrs carry the seed-deterministic cause
	// ("loss", "overflow", or an injected fault such as "partition:<name>").
	KindDrop Kind = "drop"
	// KindDup is a fabric-duplicated copy enqueued by the fault injector.
	KindDup Kind = "dup"
	// KindReorder is a delivery batch shuffled by the fault injector;
	// Value is the batch size.
	KindReorder Kind = "reorder"

	// KindBackoff is a retried request deferred by exponential backoff;
	// Value is the deferral in rounds and attrs carry the attempt number.
	KindBackoff Kind = "backoff"
	// KindSuppress is a duplicate REQUEST or reply discarded by the
	// protocol's message-ID dedup; attrs name the suppressed message type.
	KindSuppress Kind = "suppress"
	// KindFallback is a VM degraded from the distributed protocol to local
	// sequential placement; attrs carry the cause (budget/partition/
	// rounds/no-destination).
	KindFallback Kind = "fallback"

	// KindCost is a cost-trajectory point (kmedian.LocalSearch start).
	KindCost Kind = "cost"
	// KindSwap is an accepted local-search swap; Value is the new cost.
	KindSwap Kind = "swap"
	// KindScan is one swap-candidate scan; Value is the number of
	// candidate ranks examined before acceptance (or the full space).
	KindScan Kind = "scan"
	// KindForecast is one deep-pool rack forecast; Shim is the rack
	// index and Value the predicted next-period rack stress.
	KindForecast Kind = "forecast"
	// KindIngest is an ingest-plane event (accepted batch, drop, alert
	// resolution); Value depends on the Phase label.
	KindIngest Kind = "ingest"
)

// Event is one recorded observation. Identity fields (Shim, VM, Host) use
// -1 for "not applicable" so index 0 stays unambiguous in traces. Seq and
// Step are stamped by the recorder (Seq monotonic per recorder, Step from
// the SetStep context); producers fill the rest.
type Event struct {
	Seq   uint64            `json:"seq"`
	Step  int               `json:"step"`
	Round int               `json:"round"`
	Phase string            `json:"phase,omitempty"`
	Shim  int               `json:"shim"`
	Kind  Kind              `json:"kind"`
	VM    int               `json:"vm"`
	Host  int               `json:"host"`
	Value float64           `json:"value"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// Sinks receive every recorded event in sequence order, under the
	// recorder's lock (sinks need no locking of their own).
	Sinks []Sink
}

// Recorder is the event collector. It is safe for concurrent use; a nil
// *Recorder is a no-op on every method.
type Recorder struct {
	mu       sync.Mutex
	seq      uint64
	step     int
	counters map[Kind]uint64
	sinks    []Sink
	sinkErr  error
}

// New builds a recorder. The error is always nil.
func New(opts Options) (*Recorder, error) {
	return &Recorder{
		counters: make(map[Kind]uint64),
		sinks:    append([]Sink(nil), opts.Sinks...),
	}, nil
}

// Enabled reports whether recording is active. Producers use it to skip
// building attribute maps on the disabled path.
func (r *Recorder) Enabled() bool { return r != nil }

// SetStep sets the step number stamped on every subsequently recorded
// event (the runtime calls this once per collection period; standalone
// protocols leave it at 0).
func (r *Recorder) SetStep(step int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.step = step
	r.mu.Unlock()
}

// Record stamps the event with the next sequence number and the current
// step context, counts it under its kind, and emits it to every sink.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	e.Step = r.step
	r.counters[e.Kind]++
	for _, s := range r.sinks {
		if err := s.Emit(e); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
	r.mu.Unlock()
}

// AddSink attaches a sink; subsequent events are emitted to it.
func (r *Recorder) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
}

// RemoveSink detaches a previously attached sink, comparing by interface
// identity, and reports whether it was found. An event recorded after
// RemoveSink returns is not emitted to the sink; an emission already in
// flight on another goroutine completes first (both run under the
// recorder's lock). Sinks of non-comparable dynamic type (e.g. Func)
// cannot be removed — wrap them in a pointer type to detach later.
func (r *Recorder) RemoveSink(s Sink) bool {
	if r == nil || s == nil {
		return false
	}
	t := reflect.TypeOf(s)
	if !t.Comparable() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, have := range r.sinks {
		if reflect.TypeOf(have) == t && have == s {
			r.sinks = append(r.sinks[:i], r.sinks[i+1:]...)
			return true
		}
	}
	return false
}

// Err returns the first sink error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// Seq returns the number of events recorded so far (the last assigned
// sequence number).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Count returns how many events of the kind were recorded.
func (r *Recorder) Count(kind Kind) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[kind]
}

// Kinds returns the kinds recorded so far, sorted.
func (r *Recorder) Kinds() []Kind {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Kind, 0, len(r.counters))
	for k := range r.counters {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
