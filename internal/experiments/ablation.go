package experiments

import (
	"fmt"
	"math/rand"

	"sort"

	"sheriff/internal/arima"
	"sheriff/internal/centralized"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/kmedian"
	"sheriff/internal/knapsack"
	"sheriff/internal/migrate"
	"sheriff/internal/predictor"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

// AblationSwapSize compares the Alg. 5 local-search quality and swap count
// across swap sizes p = 1..3 on a rack-cost k-median instance, exposing
// the 3+2/p quality/effort trade-off called out in DESIGN.md §4.
func AblationSwapSize(seed int64) (*Table, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		return nil, err
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		return nil, err
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		return nil, err
	}
	n := len(cluster.Racks)
	clients := make([]int, 0, n/2)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			clients = append(clients, i)
		}
	}
	if len(clients) == 0 {
		clients = []int{0}
	}
	facilities := make([]int, n)
	for i := range facilities {
		facilities[i] = i
	}
	inst := &kmedian.Instance{Cost: model.RackCostMatrix(), Clients: clients, Facilities: facilities, K: 4}

	t := &Table{
		Name:    "Ablation A1",
		Title:   "Local-search swap size p: solution cost, guarantee, swaps applied",
		Columns: []string{"p", "cost", "guarantee_ratio", "swaps"},
	}
	for p := 1; p <= 3; p++ {
		sol, err := kmedian.LocalSearch(inst, kmedian.Options{P: p, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: swap ablation p=%d: %w", p, err)
		}
		t.AddRow(float64(p), sol.Cost, kmedian.ApproximationRatio(p), float64(sol.Swaps))
	}
	return t, nil
}

// AblationModelSelection reports the Fig. 8 decomposition as a compact
// three-row table: dynamic selection vs ARIMA-only vs NARNET-only MSE.
func AblationModelSelection(seed int64) (*Table, error) {
	combined, arimaMSE, narnetMSE, err := PredictionMSEs(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Ablation A2",
		Title:   "Prediction MSE: dynamic model selection vs single models",
		Columns: []string{"model", "mse"},
		Notes:   []string{"model: 0 = combined, 1 = ARIMA(1,1,1), 2 = NARNET(16,20)"},
	}
	t.AddRow(0, combined)
	t.AddRow(1, arimaMSE)
	t.AddRow(2, narnetMSE)
	return t, nil
}

// AblationPrioritySelection compares PRIORITY's knapsack selection with a
// naive highest-alert-first selection under the same migration budget,
// measuring the migration cost incurred to shed the same load.
func AblationPrioritySelection(seed int64) (*Table, error) {
	run := func(useKnapsack bool) (shed, costTotal float64, err error) {
		s, err := sim.Build(sim.Config{Kind: sim.FatTree, Size: 4, Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		s.PopulateSkewed(0.5)
		rack := s.Cluster.Racks[0]
		h := rack.Hosts[0]
		budget := 0.3 * h.Capacity
		var chosen []*dcn.VM
		if useKnapsack {
			chosen = knapsack.SelectByBudget(h.VMs(), budget)
		} else {
			// Naive: order by Value descending until the budget fills.
			vms := h.VMs()
			sort.Slice(vms, func(i, j int) bool { return vms[i].Value > vms[j].Value })
			used := 0.0
			for _, vm := range vms {
				if used+vm.Capacity > budget {
					continue
				}
				used += vm.Capacity
				chosen = append(chosen, vm)
			}
		}
		if len(chosen) == 0 {
			return 0, 0, nil
		}
		for _, vm := range chosen {
			shed += vm.Capacity
		}
		var hosts []*dcn.Host
		shim, err := migrate.NewShim(s.Cluster, s.Model, rack, migrate.DefaultParams(), nil)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range shim.NeighborRacks() {
			hosts = append(hosts, r.Hosts...)
		}
		res, err := migrate.Migrate(s.Cluster, s.Model, chosen, hosts, migrate.MigrationOptions{})
		if err != nil {
			return 0, 0, err
		}
		return shed, res.TotalCost, nil
	}
	kShed, kCost, err := run(true)
	if err != nil {
		return nil, err
	}
	nShed, nCost, err := run(false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Ablation A3",
		Title:   "PRIORITY knapsack vs naive top-value selection under one budget",
		Columns: []string{"policy", "capacity_shed", "migration_cost"},
		Notes:   []string{"policy: 0 = knapsack (Alg. 2), 1 = naive greedy"},
	}
	t.AddRow(0, kShed, kCost)
	t.AddRow(1, nShed, nCost)
	return t, nil
}

// AblationRegionSize sweeps the shim's dominating-region radius
// (NeighborSwitchHops) to show the regional/global trade-off between
// search space and migration cost.
func AblationRegionSize(seed int64) (*Table, error) {
	t := &Table{
		Name:    "Ablation A4",
		Title:   "Region radius (switch hops): search space vs migration cost",
		Columns: []string{"hops", "search_space", "migration_cost", "migrations"},
	}
	for hops := 1; hops <= 3; hops++ {
		s, err := sim.Build(sim.Config{
			Kind: sim.FatTree, Size: 8, Seed: seed,
			Migrate: migrate.Params{NeighborSwitchHops: hops},
		})
		if err != nil {
			return nil, err
		}
		s.Populate()
		alerts := s.SeedAlerts()
		space, costTotal, count := 0, 0.0, 0
		for _, shim := range s.Shims {
			vms := alerts[shim.Rack.Index]
			if len(vms) == 0 {
				continue
			}
			var hosts []*dcn.Host
			hosts = append(hosts, shim.Rack.Hosts...)
			for _, r := range shim.NeighborRacks() {
				hosts = append(hosts, r.Hosts...)
			}
			res, err := migrate.Migrate(s.Cluster, s.Model, vms, hosts, migrate.MigrationOptions{})
			if err != nil {
				return nil, err
			}
			space += res.SearchSpace
			costTotal += res.TotalCost
			count += len(res.Migrations)
		}
		t.AddRow(float64(hops), float64(space), costTotal, float64(count))
	}
	return t, nil
}

// AblationSeasonal compares plain ARIMA(1,1,1) against a seasonal
// SARIMA(1,0,1)(1,1,0)[64] on the daily-periodic traffic trace — the
// natural extension for Fig. 5's data, where the season length (64
// samples/day) is known.
func AblationSeasonal(seed int64) (*Table, error) {
	s := trafficTrace(seed)
	train, test := s.Split(0.7)

	plain, err := arima.Fit(train, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		return nil, err
	}
	seasonal, err := arima.FitSeasonal(train, arima.SeasonalOrder{
		Order: arima.Order{P: 1, D: 0, Q: 1}, SP: 1, SD: 1, Period: 64,
	})
	if err != nil {
		return nil, err
	}
	pPred, err := predictor.Rolling(plain, train, test)
	if err != nil {
		return nil, err
	}
	sPred, err := predictor.Rolling(seasonal, train, test)
	if err != nil {
		return nil, err
	}
	pMSE, err := timeseries.MSE(test.Raw(), pPred)
	if err != nil {
		return nil, err
	}
	sMSE, err := timeseries.MSE(test.Raw(), sPred)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Ablation A5",
		Title:   "Seasonal SARIMA vs plain ARIMA on the weekly traffic",
		Columns: []string{"model", "mse", "aic"},
		Notes: []string{
			"model: 0 = ARIMA(1,1,1), 1 = SARIMA(1,0,1)(1,1,0)[64]",
			"one-step MSE favors plain ARIMA on this trace (the nonlinear",
			"amplitude envelope breaks exact daily seasonality); AIC favors",
			"the seasonal fit — SARIMA shines at multi-step horizons, see",
			"TestSeasonalMultiStepForecastKeepsPhase",
		},
	}
	t.AddRow(0, pMSE, plain.AIC())
	t.AddRow(1, sMSE, seasonal.AIC())
	return t, nil
}

// AblationReroute runs the assembled runtime with FLOWREROUTE on and off
// over a congested fabric, comparing hot-switch exposure — the value of
// the paper's "reroute first, migrate second" ordering.
func AblationReroute(seed int64) (*Table, error) {
	run := func(disable bool) (hotSteps, reroutes int, err error) {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
		if err != nil {
			return 0, 0, err
		}
		cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			return 0, 0, err
		}
		cluster.Populate(dcn.PopulateOptions{
			VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 15,
			DependencyProb: 0.6, CrossRackDependencyProb: 0.8, Seed: seed,
		})
		model, err := cost.New(cluster, cost.PaperParams())
		if err != nil {
			return 0, 0, err
		}
		rt, err := runtime.New(cluster, model, runtime.Options{
			Seed:           seed,
			DisableReroute: disable,
			FlowRate:       func(trf float64) float64 { return 0.5 + 0.5*trf },
		})
		if err != nil {
			return 0, 0, err
		}
		defer rt.Close()
		reporters := sim.Reporters(rt)
		for i := 0; i < 20; i++ {
			s, err := rt.StepExternal(reporters.Next())
			if err != nil {
				return 0, 0, err
			}
			hotSteps += s.HotSwitches
			reroutes += s.Reroutes
		}
		return hotSteps, reroutes, nil
	}
	onHot, onMoves, err := run(false)
	if err != nil {
		return nil, err
	}
	offHot, _, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Ablation A6",
		Title:   "FLOWREROUTE on vs off: hot-switch exposure over 20 runtime steps",
		Columns: []string{"reroute", "hot_switch_steps", "flows_moved"},
		Notes:   []string{"reroute: 1 = enabled, 0 = disabled"},
	}
	t.AddRow(1, float64(onHot), float64(onMoves))
	t.AddRow(0, float64(offHot), 0)
	return t, nil
}

// AblationKMedianPlanning compares two ways to place alerted VMs:
// (a) pure per-rack matching over the one-hop region (the distributed
// Alg. 3 path), and (b) the Sec. V.A reduction — first pick k destination
// ToRs by Local Search k-median over the collapsed rack costs, then match
// each rack's VMs into its assigned median's hosts. Planning concentrates
// migrations on few destination racks (easier to provision) at some cost
// premium over free-form matching.
func AblationKMedianPlanning(seed int64) (*Table, error) {
	build := func() (*sim.Sim, [][]*dcn.VM, error) {
		s, err := sim.Build(sim.Config{Kind: sim.FatTree, Size: 8, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		s.Populate()
		return s, s.SeedAlerts(), nil
	}

	// Strategy (a): regional matching.
	sA, alertsA, err := build()
	if err != nil {
		return nil, err
	}
	costA, spaceA, destsA := 0.0, 0, map[int]bool{}
	for _, shim := range sA.Shims {
		vms := alertsA[shim.Rack.Index]
		if len(vms) == 0 {
			continue
		}
		var hosts []*dcn.Host
		for _, r := range shim.NeighborRacks() {
			hosts = append(hosts, r.Hosts...)
		}
		res, err := migrate.Migrate(sA.Cluster, sA.Model, vms, hosts, migrate.MigrationOptions{ForbidSameRack: true, Shim: migrate.ShimUnknown})
		if err != nil {
			return nil, err
		}
		costA += res.TotalCost
		spaceA += res.SearchSpace
		for _, mg := range res.Migrations {
			destsA[mg.To.Rack().Index] = true
		}
	}

	// Strategy (b): k-median planning, then matching into the medians.
	sB, alertsB, err := build()
	if err != nil {
		return nil, err
	}
	var sources []int
	for idx, vms := range alertsB {
		if len(vms) > 0 {
			sources = append(sources, idx)
		}
	}
	k := len(sources) / 3
	if k < 1 {
		k = 1
	}
	mgr := centralized.New(sB.Cluster, sB.Model)
	plan, err := mgr.PlanDestinations(sources, centralized.PlanOptions{K: k, P: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	costB, spaceB, destsB := 0.0, 0, map[int]bool{}
	for i, srcIdx := range sources {
		vms := alertsB[srcIdx]
		dstRack := sB.Cluster.Racks[plan.Assignment[i]]
		if dstRack.Index == srcIdx {
			// Source assigned to itself as median: spill to the cheapest
			// other open facility.
			for _, open := range plan.Open {
				if open != srcIdx {
					dstRack = sB.Cluster.Racks[open]
					break
				}
			}
		}
		res, err := migrate.Migrate(sB.Cluster, sB.Model, vms, dstRack.Hosts, migrate.MigrationOptions{ForbidSameRack: true, Shim: migrate.ShimUnknown})
		if err != nil {
			return nil, err
		}
		costB += res.TotalCost
		spaceB += res.SearchSpace
		for _, mg := range res.Migrations {
			destsB[mg.To.Rack().Index] = true
		}
	}

	t := &Table{
		Name:    "Ablation A8",
		Title:   "Destination selection: regional matching vs k-median planning (Sec. V.A)",
		Columns: []string{"strategy", "cost", "search_space", "distinct_dest_racks"},
		Notes:   []string{"strategy: 0 = per-rack matching, 1 = k-median plan + matching"},
	}
	t.AddRow(0, costA, float64(spaceA), float64(len(destsA)))
	t.AddRow(1, costB, float64(spaceB), float64(len(destsB)))
	return t, nil
}

// AblationPlanningScale sweeps Fat-Tree pod counts through the Sec. V.A
// destination-planning engine: Local Search cost and wall time at every
// size, and the branch-and-bound optimum where it is feasible — the
// planning-side view of the Figs. 11–12 APP-vs-OPT comparison at scales
// the seed's enumerator (full C(|F|, K) scan) could never reach.
func AblationPlanningScale(seed int64) (*Table, error) {
	t := &Table{
		Name:    "Ablation A9",
		Title:   "k-median planning at scale: Local Search vs branch-and-bound optimum",
		Columns: []string{"pods", "racks", "clients", "k", "ls_cost", "ls_ms", "opt_cost", "opt_ms", "ratio"},
		Notes: []string{
			"5% alerts per rack; k = clients/4; opt columns are 0 where the",
			"exact reference is skipped (branch-and-bound stays exponential)",
		},
	}
	for _, pods := range []int{4, 8, 16} {
		exact := pods <= 8
		res, err := sim.ComparePlanning(sim.Config{Kind: sim.FatTree, Size: pods, Seed: seed}, 0, 1, exact)
		if err != nil {
			return nil, fmt.Errorf("experiments: planning scale pods=%d: %w", pods, err)
		}
		optCost, optMs, ratio := 0.0, 0.0, 0.0
		if res.HasExact {
			optCost = res.ExactCost
			optMs = float64(res.ExactTime.Milliseconds())
			ratio = res.Ratio()
		}
		t.AddRow(float64(pods), float64(res.Racks), float64(res.Clients), float64(res.K),
			res.LocalCost, float64(res.LocalTime.Milliseconds()), optCost, optMs, ratio)
	}
	return t, nil
}

// Ablations lists every ablation generator for the CLI.
var Ablations = map[string]func(seed int64) (*Table, error){
	"swap-size":       AblationSwapSize,
	"model-selection": AblationModelSelection,
	"priority":        AblationPrioritySelection,
	"region-size":     AblationRegionSize,
	"seasonal":        AblationSeasonal,
	"reroute":         AblationReroute,
	"kmedian":         AblationKMedianPlanning,
	"planning-scale":  AblationPlanningScale,
}
