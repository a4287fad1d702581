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
// A zero MaxEvictions means the default; a negative one is a Validate
// error. The zero struct disables preemption.
type PreemptOptions struct {
	// Enabled turns preemption on.
	Enabled bool
	// MaxEvictions caps the victims evicted per migration invocation, the
	// termination bound of the preemption loop (0 = default 8).
	MaxEvictions int
}

// minSeverityGap is how many severity tiers the incoming VM must sit above
// its victim: any strictly lower tier is fair game.
const minSeverityGap = 1

// DefaultPreemptOptions returns the defaults (disabled; 8 evictions max).
func DefaultPreemptOptions() PreemptOptions {
	return PreemptOptions{MaxEvictions: 8}
}

// Validate reports whether the options are usable. A zero MaxEvictions is
// accepted (it means "use the default"); a negative one is an error.
func (o PreemptOptions) Validate() error {
	if o.MaxEvictions < 0 {
		return fmt.Errorf("migrate: MaxEvictions must be >= 0 (0 = default), got %d", o.MaxEvictions)
	}
	return nil
}

// WithDefaults returns o with a zero MaxEvictions replaced by the default.
func (o PreemptOptions) WithDefaults() PreemptOptions {
	if o.MaxEvictions == 0 {
		o.MaxEvictions = DefaultPreemptOptions().MaxEvictions
	}
	return o
}

// maxAttempts bounds how many calls a VM may be parked before it is
// finally reported unplaced. Evicted VMs are exempt: a detached VM is
// never dropped from the queue.
const maxAttempts = 3

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

// RetryQueue is the migration fail-queue: VMs no destination would accept
// are parked and retried in later management calls instead of being
// abandoned (or, in the distributed protocol, degraded to the fallback
// ladder immediately). It is safe for concurrent use; ordering is FIFO so
// starvation is bounded by queue length.
type RetryQueue struct {
	mu      sync.Mutex
	entries []RetryEntry
}

// NewRetryQueue builds an empty queue. Holding a queue is opting in.
func NewRetryQueue() *RetryQueue { return &RetryQueue{} }

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
// accepted: entries past maxAttempts are refused (the caller
// reports the VM unplaced), except evicted VMs, which are always kept —
// a detached VM must not be silently dropped.
func (q *RetryQueue) Put(e RetryEntry) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !e.Evicted && e.Attempts >= maxAttempts {
		return false
	}
	q.entries = append(q.entries, e)
	return true
}
