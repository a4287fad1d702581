#!/usr/bin/env bash
# absent.sh fails when a design the tree has deleted comes back. Each line
# of the list at the bottom is one guard:
#
#   file PATHSPEC       no tracked file matches PATHSPEC
#   src  REGEX          no tracked non-test Go file outside bench/ matches
#                       REGEX
#   doc  TARGET WORDS   `go doc -all TARGET` names none of WORDS (a regex
#                       alternation, matched as whole words)
#   decl TARGET REGEX   no line of `go doc -u -src TARGET`, the declaration
#                       with its unexported fields, matches REGEX
#
# Usage: bash .github/absent.sh   (from any directory; exits 1 on a hit)
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
while read -r kind target words; do
	case "$kind" in
	'' | '#'*) ;;
	file)
		if [ -n "$(git ls-files -- "$target")" ]; then
			echo "absent.sh: tracked files match $target"
			fail=1
		fi
		;;
	src)
		if git grep -nE "$target" -- '*.go' ':!*_test.go' ':!bench'; then
			echo "absent.sh: the source above matches $target"
			fail=1
		fi
		;;
	doc)
		if ! out=$(go doc -all "$target"); then
			echo "absent.sh: go doc -all $target failed"
			fail=1
		elif grep -E "\b($words)\b" <<<"$out"; then
			echo "absent.sh: go doc -all $target names one of $words"
			fail=1
		fi
		;;
	decl)
		if ! out=$(go doc -u -src "$target"); then
			echo "absent.sh: go doc -u -src $target failed"
			fail=1
		elif grep -E "$words" <<<"$out"; then
			echo "absent.sh: the declaration of $target matches $words"
			fail=1
		fi
		;;
	*)
		echo "absent.sh: unknown guard kind $kind"
		fail=1
		;;
	esac
done <<'EOF'
# One step engine, in the product and in the tests: the seed runtime engine is gone, and the digests recorded from it (internal/runtime/testdata/engine_digests.golden.json) pin the one left; the other seed oracles are compiled by the tests only.
file internal/*/reference.go
file internal/runtime/reference*_test.go
src  refreshNaive|initReference|advanceRef|refState|trendState
src  engineRows|snapshotDoc|ewmaTrend|holtCoeff|initSharded|newReference
doc  ./internal/runtime.Options Reference
# One handshake per transport, one hot-switch detector.
doc  ./internal/migrate Coordinator|RoundReport
doc  ./internal/runtime.Options UseQCN|HotThreshold|QueueLimit
# One way around a hot switch: Inf-priced edges, no k-shortest paths, no block masks.
doc  ./internal/topology KShortestPaths|ShortestPathAvoidingNodes
doc  ./internal/pool Cache
src  nodeMask|edgeMask|maskEpoch
# No dials nobody turns: the handshake schedule is constants.
doc  ./internal/migrate RetryOptions|DisableFallback|RetryBudget|RequestTimeout|BackoffBase|BackoffMax|MinSeverityGap|DeferDrain|QueueLen
# One record: bench/ is the only code that times Sheriff.
file BENCH_*.json
doc  ./internal/sim RunScale
doc  ./internal/experiments RunIngest
# One placement rule: no placement policies, preemption or fail-queue.
file internal/placement
src  \b(PreemptOptions|RetryQueue|MoveOversub|RunPolicy|PolicyConfig)\b
doc  ./internal/migrate Preempt|Placement|RetryEntry|Evicted
doc  ./internal/dcn Evict
doc  . PlacementPolicy|PlacementKind|PolicyOptions|NewPlacementPolicy|ParsePlacementKind|PolicyGridConfig|PolicyGridResult|RunPolicyGrid
# One way to inject each fault: a faults.Plan is the bus's only loss and delay, a per-call RequestPolicy the only refusal.
src  \bLossRate\b
src  \bMaxDelay\b
src  \bSetRequestPolicy\b
src  \bRunDistributed\b
src  \bMsgAlert\b
src  \bMsgCongestion\b
doc  ./internal/comm.Options Seed
doc  ./internal/migrate.Params RequestPolicy
# One traffic-plane sync: phase 2 walks the dependency-edge table, with no per-period pair map or key sorts.
src  \b(flowWant|sortKeys|flowByPair)\b
# One front door: the root package is what the examples use; examples that need an internal name are Example tests in its package.
file bench_test.go
file bench_ext_test.go
file examples/congestion_control
file examples/distributed_protocol
file examples/traffic_forecast
doc  ./internal/migrate VMMigration
# The facade names that went (VM and NARNET are left out: the package doc's prose uses both words).
doc  . Series|NewSeries|ARIMAModel|ARIMAOrder|SARIMAModel|SARIMAOrder|FitARIMA|AutoARIMA|FitSARIMA|NARNETConfig|TrainNARNET
doc  . Selector|Candidate|Forecaster|PredictorOptions|PredictorPoolDefault|PredictorPoolExtended|NewPredictor|BurstModel|BurstConfig|FitBurst|HoltWintersModel|FitHoltWinters
doc  . Decomposition|Decompose|DetectPeriod|Severity|ClassifySeverity
doc  . Rack|Host|CostParams|MigrationTimeline|CostTimelineParams|NewBCubeCluster|MigrationReport|MigrationOptions|MigrationResult|RequestPolicy|Migrate|FaultPlan|LocalSearchRatio
doc  . Runtime|RuntimeOptions|RuntimeStats|NewRuntime|FlowNetwork|Flow|NewFlowNetwork|Recorder|Event|EventSink|NewRecorder|TraceTo
doc  . TraceOptions|TraceKind|TraceGenerator|TraceSource|TraceRegime|SurgeParams|TraceDiurnal|TraceLite|TraceSurge|TraceSurgeLite|NewTraceGenerator|ParseTraceKind|TraceKinds
doc  . FigureTable|GenerateFigure|Figures|EarlyWarnScore|EarlyWarnPoint|ScoreEarlyWarning|EarlyWarnTradeoff|SurgeGridConfig|SurgeGridResult|SurgeGridCell|RunSurgeGrid
# Snapshot rows travel as columns: no row structs beside them, and no reader of the record-per-row versions.
src  \b(VMSnap|VMRecord|SlotSnap|FlowSnap)\b
src  type[[:space:]]+LinkLoad\b|\bLinkLoad\{|\]LinkLoad\b
file internal/runtime/testdata/deep_snapshot.v3.golden.json
# No severity tier nobody reads: an alert carries its ALERT value, UrgentAt is the one cut.
src  ClassifySeverity|SeverityCritical
# One triage filter, defined once: no distilled coefficients and no coefficient knobs.
file internal/experiments/distill.go
doc  ./internal/ingest.Options Alpha|Beta|Quant
doc  ./internal/quant WithDefaults|MaxShift|Lead
doc  ./internal/experiments DistillQuant|DistillConfig
# No package only its own example drives.
file internal/qcn
# One offline command: the figures, the prediction study and the traces are sheriffsim modes.
file cmd/benchfig
file cmd/predict
file cmd/tracegen
# No seed-engine parts in product code: the seed engine's monitors went with it.
doc  ./internal/alert ProfilePredictor|QueueMonitor|ComponentForecaster
doc  ./internal/centralized MigrateOpts
# No step-history ring: the runtime keeps no per-period stats; Run returns those of its own steps.
# (The brackets keep a grep for the deleted names from finding these guards.)
doc  ./internal/runtime.Options History[L]imit
doc  ./internal/runtime.Runtime History
src  record[H]istory|hist[S]tart|history-[l]imit
# Keep only what something reads: the recorder keeps no events and no per-kind summaries, and nothing but a test read P², Decompose, LjungBox or the early-warning curve.
doc  ./internal/obs.Options Ring
doc  ./internal/obs.Recorder Events|Stats
doc  ./internal/obs KindStats
src  \bNewQuantile\b|\btype[[:space:]]+Quantile\b|\bmetrics\.Quantile\b
doc  ./internal/timeseries Decompose|Decomposition|LjungBox
doc  ./internal/experiments EarlyWarnCurve|EarlyWarnPoint
# One encoding per forecasting type: the snapshot's columns, which the packer pairs (AppendState, Restore) write and read; the live objects carry no JSON codec of their own.
doc  ./internal/arima.Model MarshalJSON|UnmarshalJSON
doc  ./internal/arima.SeasonalModel MarshalJSON|UnmarshalJSON
doc  ./internal/narnet.Network MarshalJSON|UnmarshalJSON
doc  ./internal/predictor.Selector MarshalJSON|UnmarshalJSON
doc  ./internal/predictor.Burst MarshalJSON|UnmarshalJSON
doc  ./internal/timeseries.RollingMSE MarshalJSON|UnmarshalJSON
doc  ./internal/dcn.Cluster MarshalJSON|UnmarshalJSON
src  \bmarshalState\b
# One way into the step engine: StepExternal takes what the VMs reported; the runtime opens no trace stream, and its snapshot carries no generator position.
src  func[[:space:]]+\([a-z]+[[:space:]]+\*?Runtime\)[[:space:]]+(S[t]ep|R[u]n)\(
src  Gen[P]os|gen_[p]os
src  \bsh\.(s[r]cs|l[i]te|e[x]ternal)\b
src  \bK[i]nd\(\)[[:space:]]+Kind\b
# One parallel engine per period: the runtime's shard workers. The ingest drain, the cost rows' sweeps and the deep-pool fits run on their caller, and the k-median swap scan is the pool's one fan-out.
doc  ./internal/pool ForBlocks|Run
doc  ./internal/ingest.Options Pool
doc  ./internal/centralized.PlanOptions Pool|MaxSwaps
# One alert vocabulary: a shim hears server and local-ToR alerts and returns a Tally; a hot outer switch is answered by the runtime's FLOWREROUTE on flows, so no outer-switch alert, ω = 1 rule or rerouted-VM list exists, and the manage phase carries no cost-staleness flag across periods.
doc  ./internal/alert FromOuterSwitch|SwitchID|VMID|RackIndex
doc  ./internal/knapsack Priority|Factor|SelectMaxAlert
doc  ./internal/migrate Rerouted|MigrationResult
doc  ./internal/centralized.Manager Migrate
src  \bvmsUsingSwitch\b|\bmodelStale\b|\bModelStale\b|model_stale
# One fold, one entry, one rolling loop per forecaster: ForecastFrom is the only way to forecast, predictor.Rolling the only rolling one-step loop beside Selector.Run, a cold ARIMA or smoothing pass is the fold from its start state, and no API stays that no binary reaches.
src  RollingForecast|func[[:space:]]+rolling\b
doc  ./internal/arima Forecast|ForecastInterval|SeasonalState
doc  ./internal/arima.SeasonalModel State|Restore
doc  ./internal/predictor PredictK|Triggers|SeasonalState
src  "(sarima|burst)"|\bkind(SARIMA|Burst)\b
doc  ./internal/predictor.Burst State|Restore
doc  ./internal/smoothing Forecast
doc  ./internal/narnet Forecast
doc  ./internal/timeseries PACF|Lag
doc  ./internal/linalg Dot|Norm2|FromRows
doc  ./internal/quant Sub|MulInt
doc  ./internal/topology NumRacks
# Deep pools in fixed state: a fitted model keeps no copy of its training series, and a selector's state is its refit window and folds, not every value since the fit.
doc  ./internal/predictor.Selector History
src  \b[mn]\.history\b|json:"history"
# The deep pools travel as columns: no struct tree per rack and candidate, no model behind an interface picked by a kind tag, and no state value per model.
src  \bCandidateState\b|\bdecodeModel\b|\bSelectorState\b
src  =[[:space:]]*"(arima|narnet)"
src  json:"model"
doc  ./internal/arima ModelState
doc  ./internal/narnet State
doc  ./internal/timeseries RollingState
# A steady period allocates nothing: StepExternal returns its stats by value, and a shim keeps no round memory of its own — every shim of a runtime borrows one migrate.Workspace.
src  \(\*StepStats,[[:space:]]*error\)
src  \bs\.(knap|inSet|hostSet|torSet|vms|tally)\b|&s\.scratch\b
# Each update touched once less on the calm path: StepExternal writes the reported profiles into the engine's cur in place, with no overlay beside it, and a drain pass folds queue wait once into the service's summary and histogram, not into every shard's.
src  \b(extProf|extMark|extEpoch)\b
src  \bsh\.(wait|waitHist)\b
# Workload sources in a few hundred bytes: a WorkloadGen draws each sample again from its PCG streams, so it holds no materialized series and no math/rand generator, and a SurgeGen holds its baseline in place.
decl ./internal/traces.WorkloadGen \*timeseries\.Series|\*rand\.Rand\b
decl ./internal/traces.SurgeGen \*WorkloadGen\b
EOF
exit $fail
