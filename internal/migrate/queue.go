package migrate

import (
	"fmt"
	"sync"

	"sheriff/internal/dcn"
)

// PreemptOptions enables preemption-aware migration: when a candidate VM
// cannot be placed anywhere in the region, the migration may evict a
// resident VM to make room, provided the incoming VM's alert severity
// tier strictly dominates the victim's (SNIPPETS' rapid-response tiers:
// watch < urgent < critical). Victims are chosen by the knapsack value
// model — lowest Value first, the same "cheapest to move" preference
// Alg. 2 uses — and re-enter placement themselves, through the retry
// queue when one is attached.
//
// Zero numeric fields mean "use the default"; negative values are a
// Validate error. The zero struct disables preemption.
type PreemptOptions struct {
	// Enabled turns preemption on.
	Enabled bool
	// MaxEvictions caps the victims evicted per migration invocation, the
	// termination bound of the preemption loop (0 = default 8).
	MaxEvictions int
	// MinSeverityGap is how many severity tiers the incoming VM must sit
	// above the victim (0 = default 1: any strictly lower tier is fair
	// game; 2 means e.g. only critical may evict watch).
	MinSeverityGap int
}

// DefaultPreemptOptions returns the defaults (disabled; 8 evictions max;
// gap 1).
func DefaultPreemptOptions() PreemptOptions {
	return PreemptOptions{MaxEvictions: 8, MinSeverityGap: 1}
}

// Validate reports whether the options are usable. Zero numeric fields
// are accepted (they mean "use the default"); negative values are errors.
func (o PreemptOptions) Validate() error {
	if o.MaxEvictions < 0 {
		return fmt.Errorf("migrate: MaxEvictions must be >= 0 (0 = default), got %d", o.MaxEvictions)
	}
	if o.MinSeverityGap < 0 {
		return fmt.Errorf("migrate: MinSeverityGap must be >= 0 (0 = default), got %d", o.MinSeverityGap)
	}
	return nil
}

// WithDefaults returns o with zero numeric fields replaced by defaults.
func (o PreemptOptions) WithDefaults() PreemptOptions {
	d := DefaultPreemptOptions()
	if o.MaxEvictions == 0 {
		o.MaxEvictions = d.MaxEvictions
	}
	if o.MinSeverityGap == 0 {
		o.MinSeverityGap = d.MinSeverityGap
	}
	return o
}

// RetryOptions configures the migration fail-queue: VMs no destination
// would accept are parked and retried in later management rounds instead
// of being abandoned (or, in the distributed protocol, degraded to the
// fallback ladder immediately).
//
// Zero numeric fields mean "use the default"; negative values are a
// Validate error. The zero struct disables the queue.
type RetryOptions struct {
	// Enabled turns the fail-queue on.
	Enabled bool
	// MaxAttempts bounds how many rounds a VM may be requeued before it is
	// finally reported unplaced (0 = default 3). Evicted VMs are exempt:
	// a detached VM is never dropped from the queue.
	MaxAttempts int
}

// DefaultRetryOptions returns the defaults (disabled; 3 attempts).
func DefaultRetryOptions() RetryOptions {
	return RetryOptions{MaxAttempts: 3}
}

// Validate reports whether the options are usable. Zero numeric fields
// are accepted (they mean "use the default"); negative values are errors.
func (o RetryOptions) Validate() error {
	if o.MaxAttempts < 0 {
		return fmt.Errorf("migrate: MaxAttempts must be >= 0 (0 = default), got %d", o.MaxAttempts)
	}
	return nil
}

// WithDefaults returns o with zero numeric fields replaced by defaults.
func (o RetryOptions) WithDefaults() RetryOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultRetryOptions().MaxAttempts
	}
	return o
}

// RetryEntry is one parked VM awaiting a later migration round.
type RetryEntry struct {
	VM *dcn.VM
	// Shim is the rack index of the shim that parked the VM (ShimUnknown
	// when unattributed); the distributed protocol uses it to route the
	// retry back to the owning shim.
	Shim int
	// Attempts counts placement attempts so far (≥ 1 once parked).
	Attempts int
	// Evicted marks a preemption victim: it is detached (Host() == nil)
	// and exempt from the MaxAttempts budget.
	Evicted bool
}

// RetryQueue is the migration fail-queue. It is safe for concurrent use;
// ordering is FIFO so starvation is bounded by queue length.
type RetryQueue struct {
	mu      sync.Mutex
	opts    RetryOptions
	entries []RetryEntry
}

// NewRetryQueue builds a queue. The Enabled flag is implied — holding a
// queue is opting in; options only tune the attempt budget.
func NewRetryQueue(o RetryOptions) (*RetryQueue, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &RetryQueue{opts: o.WithDefaults()}, nil
}

// Len returns the number of parked VMs.
func (q *RetryQueue) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// TakeAll drains the queue, returning the parked entries in FIFO order.
func (q *RetryQueue) TakeAll() []RetryEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.entries
	q.entries = nil
	return out
}

// Put parks an entry for a later round and reports whether it was
// accepted: entries past the attempt budget are refused (the caller
// reports the VM unplaced), except evicted VMs, which are always kept —
// a detached VM must not be silently dropped.
func (q *RetryQueue) Put(e RetryEntry) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !e.Evicted && e.Attempts >= q.opts.MaxAttempts {
		return false
	}
	q.entries = append(q.entries, e)
	return true
}

// MaxAttempts returns the queue's attempt budget.
func (q *RetryQueue) MaxAttempts() int {
	if q == nil {
		return 0
	}
	return q.opts.MaxAttempts
}
