// The policy × topology × fault grid behind `sheriffsim -mode policy`:
// each cell runs one placement policy (Sheriff, best-fit, worst-fit,
// oversubscription) on one topology under one fault plan, with preemption
// and the fail-queue enabled, and reports the workload-stddev decay and
// migration-cost trade-off the policy buys. The grid is the ablation for
// the pluggable-policy redesign: the Sheriff row is the paper's scheme,
// the other rows are the classic scheduler policies run through the same
// Alg. 3/Alg. 4 machinery.
package sim

import (
	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// RunDistributedRounds drives the Alg. 4 protocol through up to `rounds`
// invocations sharing one fail-queue: VMs parked in invocation N drain
// into invocation N+1, routed back to their owning shim by the
// RetryEntry.Shim tag. The loop stops early once the queue is empty.
// Whatever is still parked after the last in-budget invocation re-enters
// one final time with the queue detached, so every leftover either places
// or takes the fallback ladder — restoring the protocol's unplaced==0
// guarantee on fabrics where the fallback is enabled. Returns the
// aggregate tally and the number of protocol invocations used.
func (s *Sim) RunDistributedRounds(busOpts comm.Options, opts migrate.DistOptions, rounds int) (*migrate.Tally, int, error) {
	if rounds < 1 {
		rounds = 1
	}
	queue := opts.Queue
	if queue == nil {
		q, err := migrate.NewRetryQueue(migrate.RetryOptions{Enabled: true})
		if err != nil {
			return nil, 0, err
		}
		queue = q
		opts.Queue = queue
	}
	total := &migrate.Tally{}
	used := 0
	for r := 0; r < rounds; r++ {
		if r > 0 && queue.Len() == 0 {
			break
		}
		var res *migrate.DistResult
		var err error
		if r == 0 {
			res, err = s.RunDistributed(busOpts, opts)
		} else {
			// Later invocations carry no fresh alerts: the drained queue
			// is the only work source.
			res, err = s.runProtocol(busOpts, opts, make([][]*dcn.VM, len(s.Shims)))
		}
		if err != nil {
			return nil, used, err
		}
		used++
		total.Add(&res.Tally)
	}
	if queue.Len() > 0 || len(total.Unplaced) > 0 {
		vmSets := make([][]*dcn.VM, len(s.Shims))
		idxByRack := make(map[int]int, len(s.Shims))
		for i, shim := range s.Shims {
			idxByRack[shim.Rack.Index] = i
		}
		seen := make(map[int]bool)
		add := func(vm *dcn.VM, shimRack int) bool {
			if s.Cluster.VM(vm.ID) != vm || seen[vm.ID] {
				return false // removed from the cluster while parked, or dup
			}
			seen[vm.ID] = true
			i, ok := idxByRack[shimRack]
			if !ok {
				i = 0
			}
			vmSets[i] = append(vmSets[i], vm)
			return true
		}
		drained := 0
		for _, e := range queue.TakeAll() {
			if add(e.VM, e.Shim) {
				drained++
			}
		}
		// Attempt-budget refusals from earlier invocations get one more
		// shot too: they are still attached, so route them through their
		// current rack's shim.
		for _, vm := range total.Unplaced {
			if vm.Host() != nil && add(vm, vm.Host().Rack().Index) {
				drained++
			}
		}
		if drained > 0 {
			total.Unplaced = nil
			opts.Queue = nil
			// The final settle models the coordinator stepping in after
			// the pre-alert window closes: it runs over a quiesced fabric,
			// so chaos-induced losses cannot strand an evicted VM forever.
			clean := busOpts
			clean.Injector = nil
			res, err := s.runProtocol(clean, opts, vmSets)
			if err != nil {
				return nil, used, err
			}
			used++
			total.Retried += drained
			total.Add(&res.Tally)
		}
	}
	return total, used, nil
}

// runProtocol runs one protocol invocation over a fresh bus with explicit
// per-shim candidate sets.
func (s *Sim) runProtocol(busOpts comm.Options, opts migrate.DistOptions, vmSets [][]*dcn.VM) (*migrate.DistResult, error) {
	bus, err := comm.NewBus(busOpts)
	if err != nil {
		return nil, err
	}
	return migrate.DistributedVMMigration(s.Cluster, s.Model, bus, s.Shims, vmSets, opts)
}

// PolicyConfig sizes one cell of the policy × topology × fault grid.
type PolicyConfig struct {
	Sim Config
	// Policy selects the destination-scoring policy for the cell; the
	// zero value is the Sheriff rule.
	Policy placement.PolicyOptions
	// Preempt and Retry configure preemption and the fail-queue (both
	// normally Enabled for grid runs; zero structs disable them).
	Preempt migrate.PreemptOptions
	Retry   migrate.RetryOptions
	// Rounds caps the queue-sharing management rounds (0 = default 4).
	Rounds int
	// Fault, when non-nil, perturbs the bus with the seeded fault plan
	// (Distributed cells only).
	Fault *faults.Plan
	// FaultName labels the fault column; "" derives "none" or "chaos".
	FaultName string
	// Distributed routes the cell through the Alg. 4 message protocol;
	// otherwise the regional shims migrate sequentially, rack by rack.
	Distributed bool
	// Recorder, when non-nil, receives the full wire+decision trace.
	Recorder *obs.Recorder
}

// PolicyResult is one cell of the grid — one JSON line of
// `sheriffsim -mode policy -json`. No field is timed.
type PolicyResult struct {
	Policy      string `json:"policy"`
	Topology    string `json:"topology"`
	Fault       string `json:"fault"`
	Distributed bool   `json:"distributed"`
	Racks       int    `json:"racks"`
	VMs         int    `json:"vms"`
	Alerted     int    `json:"alerted"`
	Rounds      int    `json:"rounds"` // management rounds actually used

	InitialStdDev float64 `json:"initial_stddev"`
	FinalStdDev   float64 `json:"final_stddev"`
	StdDevDecay   float64 `json:"stddev_decay"` // (initial-final)/initial

	Migrations    int     `json:"migrations"`
	MigrationCost float64 `json:"migration_cost"`
	SearchSpace   int     `json:"search_space"`
	Preemptions   int     `json:"preemptions"`
	Requeued      int     `json:"requeued"`
	Retried       int     `json:"retried"`
	Unplaced      int     `json:"unplaced"`
}

// RunPolicy runs one grid cell: build the topology, create the pod-level
// hotspots of the Figs. 11–14 regime, seed the paper's 5% alerts, and
// relocate them under the cell's placement policy with preemption and the
// fail-queue — sequentially per rack or through the distributed protocol.
func RunPolicy(cfg PolicyConfig) (*PolicyResult, error) {
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Preempt.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.FaultName == "" {
		cfg.FaultName = "none"
		if cfg.Fault != nil {
			cfg.FaultName = "chaos"
		}
	}
	s, err := Build(cfg.Sim)
	if err != nil {
		return nil, err
	}
	s.PopulateHotPods(0.5, 0.85, 0.35)
	res := &PolicyResult{
		Policy:        cfg.Policy.Kind.String(),
		Topology:      s.Config.Kind.String(),
		Fault:         cfg.FaultName,
		Distributed:   cfg.Distributed,
		Racks:         len(s.Cluster.Racks),
		VMs:           len(s.Cluster.VMs()),
		InitialStdDev: s.Cluster.WorkloadStdDev(),
	}
	pol, err := cfg.Policy.New()
	if err != nil {
		return nil, err
	}
	run := s.runPolicySequential
	if cfg.Distributed {
		run = s.runPolicyDistributed
	}
	total, err := run(cfg, pol, res)
	if err != nil {
		return nil, err
	}
	res.Migrations = len(total.Migrations)
	res.MigrationCost = total.TotalCost
	res.SearchSpace = total.SearchSpace
	res.Preemptions = total.Preemptions
	res.Requeued = total.Requeued
	res.Retried = total.Retried
	res.Unplaced = len(total.Unplaced)
	res.FinalStdDev = s.Cluster.WorkloadStdDev()
	if res.InitialStdDev > 0 {
		res.StdDevDecay = (res.InitialStdDev - res.FinalStdDev) / res.InitialStdDev
	}
	return res, nil
}

// cellOptions is what every direct Migrate call of a cell shares: leave
// the rack, the cell's policy and preemption, no queue. The rack-by-rack
// rounds add their shim's queue; the last-resort pass both cell kinds end
// with (Alg. 3's "recalculate possible migration destinations" over the
// widened region) runs it as is, so leftovers place or surface unplaced.
func cellOptions(cfg PolicyConfig, pol placement.Policy, shim *migrate.Shim) migrate.MigrationOptions {
	return migrate.MigrationOptions{
		ForbidSameRack: true,
		Recorder:       cfg.Recorder,
		Shim:           shim.Rack.Index,
		Placement:      pol,
		Preempt:        cfg.Preempt,
	}
}

// runPolicyDistributed runs the cell through RunDistributedRounds, fills
// res.Alerted and res.Rounds, and returns what the cell tallied.
func (s *Sim) runPolicyDistributed(cfg PolicyConfig, pol placement.Policy, res *PolicyResult) (*migrate.Tally, error) {
	queue, err := migrate.NewRetryQueue(cfg.Retry)
	if err != nil {
		return nil, err
	}
	busOpts := comm.Options{Seed: s.Config.Seed, Recorder: cfg.Recorder}
	if cfg.Fault != nil {
		inj, err := faults.New(*cfg.Fault)
		if err != nil {
			return nil, err
		}
		busOpts.Injector = inj
	}
	total, used, err := s.RunDistributedRounds(busOpts, migrate.DistOptions{
		Seed:      s.Config.Seed,
		Recorder:  cfg.Recorder,
		Placement: cfg.Policy,
		Preempt:   cfg.Preempt,
		Queue:     queue,
	}, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	for _, vm := range s.Cluster.VMs() {
		if vm.Alert > 0 {
			res.Alerted++
		}
	}
	res.Rounds = used
	// The protocol's fallback ladder only sees each shim's one-hop region;
	// when a hot pod is full that is not enough. Mirror the sequential
	// path's escalation: recalculate destinations over the widened region
	// (Alg. 3) with preemption for whatever is left.
	byShim := make(map[int][]*dcn.VM)
	for _, vm := range total.Unplaced {
		if s.Cluster.VM(vm.ID) != vm {
			continue
		}
		idx := 0
		if vm.Host() != nil {
			idx = vm.Host().Rack().Index
		}
		byShim[idx] = append(byShim[idx], vm)
	}
	total.Unplaced = nil
	for _, shim := range s.Shims {
		if err := s.lastResort(cfg, pol, shim, byShim[shim.Rack.Index], total); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// lastResort retries one shim's leftovers over the widened region, with
// preemption and no queue, and folds the outcome into total.
func (s *Sim) lastResort(cfg PolicyConfig, pol placement.Policy, shim *migrate.Shim, vms []*dcn.VM, total *migrate.Tally) error {
	if len(vms) == 0 {
		return nil
	}
	total.Retried += len(vms)
	mr, err := migrate.Migrate(s.Cluster, s.Model, vms, regionHosts(s.Cluster, shim.Rack, wideHops), cellOptions(cfg, pol, shim))
	if err != nil {
		return err
	}
	total.Add(&mr.Tally)
	return nil
}

// runPolicySequential runs the cell rack by rack: each shim migrates its
// alerted VMs into its one-hop region with its own fail-queue, parked VMs
// retry in later rounds, and whatever survives every round gets one last
// widened-region pass without a queue, so leftovers either place or
// surface honestly as unplaced. It fills res.Alerted and res.Rounds and
// returns what the cell tallied.
func (s *Sim) runPolicySequential(cfg PolicyConfig, pol placement.Policy, res *PolicyResult) (*migrate.Tally, error) {
	queues := make([]*migrate.RetryQueue, len(s.Shims))
	for i := range queues {
		q, err := migrate.NewRetryQueue(cfg.Retry)
		if err != nil {
			return nil, err
		}
		queues[i] = q
	}
	alerts := s.SeedAlerts()
	for _, vms := range alerts {
		res.Alerted += len(vms)
	}
	hops := s.Config.Migrate.NeighborSwitchHops
	total := &migrate.Tally{}
	leftover := make([][]*dcn.VM, len(s.Shims))
	for r := 0; r < cfg.Rounds; r++ {
		work := false
		for i, shim := range s.Shims {
			var vms []*dcn.VM
			if r == 0 {
				vms = alerts[shim.Rack.Index]
			}
			if len(vms) == 0 && queues[i].Len() == 0 {
				continue
			}
			work = true
			o := cellOptions(cfg, pol, shim)
			o.Queue = queues[i]
			mr, err := migrate.Migrate(s.Cluster, s.Model, vms, regionHosts(s.Cluster, shim.Rack, hops), o)
			if err != nil {
				return nil, err
			}
			total.Add(&mr.Tally)
			// Attempt-budget refusals fall out of the queue here; carry
			// them to the final widened pass instead of dropping them.
			leftover[i] = append(leftover[i], mr.Unplaced...)
		}
		if !work {
			break
		}
		res.Rounds++
	}
	total.Unplaced = nil // all in leftover, about to get their last pass
	for i, shim := range s.Shims {
		vms := leftover[i]
		for _, e := range queues[i].TakeAll() {
			if s.Cluster.VM(e.VM.ID) != e.VM {
				continue
			}
			vms = append(vms, e.VM)
		}
		if err := s.lastResort(cfg, pol, shim, vms, total); err != nil {
			return nil, err
		}
	}
	return total, nil
}
