package migrate

import (
	"fmt"
	"sort"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/pool"
)

// Coordinator runs many shims' management rounds with distributed
// semantics: every shim computes its candidate matching concurrently
// against a consistent snapshot of destination capacity, then commits go
// through the Alg. 4 REQUEST handshake in FCFS order. Shims whose choices
// collide (two regions picking the same slot) are rejected and recompute
// against the updated state — exactly the conflict-avoidance protocol of
// Sec. V.B ("a node can be migrated to another place only when the
// destination's delegation node accepts the migration request").
type Coordinator struct {
	cluster *dcn.Cluster
	model   *cost.Model
	shims   []*Shim
}

// NewCoordinator wraps a set of shims over one cluster.
func NewCoordinator(c *dcn.Cluster, m *cost.Model, shims []*Shim) *Coordinator {
	return &Coordinator{cluster: c, model: m, shims: shims}
}

// RoundReport aggregates one coordinated round.
type RoundReport struct {
	Tally          // Rejected also counts the leftover pass's refusals
	Collisions int // FCFS commits refused because another shim won the slot
	Rounds     int // recompute iterations until quiescence
}

// proposal is one shim's desired placement for one VM.
type proposal struct {
	vm   *dcn.VM
	dst  *dcn.Host
	cost float64
}

// Round runs one coordinated management round: alertsByShim[i] holds the
// alerts collected by shims[i] during the period. Only server alerts
// participate (outer-switch alerts reroute flows and are handled by the
// traffic plane; ToR alerts use the sequential path in ProcessAlerts).
func (co *Coordinator) Round(alertsByShim [][]alert.Alert) (*RoundReport, error) {
	if len(alertsByShim) != len(co.shims) {
		return nil, fmt.Errorf("migrate: %d alert sets for %d shims", len(alertsByShim), len(co.shims))
	}
	report := &RoundReport{}

	// Per-shim migration sets via PRIORITY (reads only, so the shims fan
	// out over the shared worker pool).
	vmSets := make([][]*dcn.VM, len(co.shims))
	pool.Shared().ForEach(len(co.shims), func(i int) {
		seen := map[int]bool{}
		for _, a := range alertsByShim[i] {
			if a.Kind == alert.FromServer {
				vmSets[i] = appendNew(vmSets[i], seen, co.shims[i].overloadSet(a))
			}
		}
	})

	shimByRack := make(map[int]*Shim, len(co.shims))
	for _, s := range co.shims {
		shimByRack[s.Rack.Index] = s
	}
	pending := vmSets
	// Iterate: propose in parallel, commit FCFS, recompute losers.
	for {
		report.Rounds++
		proposals := make([][]proposal, len(co.shims))
		spaces := make([]int, len(co.shims))
		pool.Shared().ForEach(len(co.shims), func(i int) {
			if len(pending[i]) == 0 {
				return
			}
			proposals[i], spaces[i] = co.shims[i].propose(pending[i])
		})
		for _, sp := range spaces {
			report.SearchSpace += sp
		}

		// Commit FCFS by shim index, then VM ID — a deterministic stand-in
		// for message arrival order. The destination rack's shim (when the
		// coordinator manages it) applies its own RequestPolicy, mirroring
		// the message protocol's destination-side admission.
		next := make([][]*dcn.VM, len(co.shims))
		committed := false
		for i, src := range co.shims {
			k := src.core(&report.Tally)
			for _, p := range proposals[i] {
				var local RequestPolicy
				if dstShim := shimByRack[p.dst.Rack().Index]; dstShim != nil {
					local = dstShim.params.RequestPolicy
				}
				if k.request(p.vm, p.dst, p.cost, src.Rack.Index, report.Rounds, local) {
					committed = true
				} else {
					next[i] = append(next[i], p.vm)
				}
			}
		}
		if !committed {
			break
		}
		empty := true
		for _, set := range next {
			if len(set) > 0 {
				empty = false
				break
			}
		}
		pending = next
		if empty {
			break
		}
	}
	report.Collisions = report.Rejected
	// Leftover pass: VMs the FCFS protocol never placed were silently
	// dropped before the fail-queue existed. Shims that opted into
	// preemption or retries now hand their leftovers (and any VMs parked
	// in earlier rounds) to the sequential Alg. 3 path, which evicts,
	// places, or parks them; default shims keep the old drop semantics.
	for i, s := range co.shims {
		if s.queue == nil && !s.params.Preempt.Enabled {
			continue
		}
		if len(pending[i]) == 0 && s.QueueLen() == 0 {
			continue
		}
		res, err := Migrate(co.cluster, co.model, pending[i], s.regionHosts(true), s.migrationOptions())
		if err != nil {
			return report, err
		}
		report.Add(&res.Tally)
	}
	return report, nil
}

// propose computes the shim's minimum-weight matching for its VM set
// against its region, without mutating anything. It returns the proposals
// (VM → destination with cost) and the examined pair count.
func (s *Shim) propose(vms []*dcn.VM) ([]proposal, int) {
	hosts := s.regionHosts(true)
	if len(hosts) == 0 || len(vms) == 0 {
		return nil, 0
	}
	k := s.core(nil)
	// Solve refuses only an empty or ragged matrix, which match never builds.
	assign, bases, _ := k.match(vms, hosts, nil)
	var out []proposal
	for i, j := range assign {
		if j >= 0 {
			out = append(out, proposal{vm: vms[i], dst: hosts[j], cost: bases[i][j]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].vm.ID < out[b].vm.ID })
	return out, len(vms) * len(hosts)
}
