#!/usr/bin/env bash
# absent.sh fails when an unexported shape or a file the tree has deleted
# comes back. Exported names, option fields and flags need no guard here:
# testdata/api.golden records every one (TestAPIRecord), so one that comes
# back is a line of the change's diff. Each line of the list at the bottom
# is one guard:
#
#   file PATHSPEC       no tracked file matches PATHSPEC
#   src  REGEX [PATH]   no tracked non-test Go file outside bench/ (under
#                       the directory PATH, or the file PATH when it ends
#                       in .go, when given) matches REGEX
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
		spec="${words:+$words/}*.go"
		[[ $words == *.go ]] && spec=$words
		if git grep -nE "$target" -- "$spec" ':!*_test.go' ':!bench'; then
			echo "absent.sh: the source above matches $target"
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
# One way around a hot switch: Inf-priced edges, no k-shortest paths, no block masks.
src  nodeMask|edgeMask|maskEpoch
# One record: bench/ is the only code that times Sheriff.
file BENCH_*.json
# One placement rule: no placement policies, preemption or fail-queue.
file internal/placement
src  \b(PreemptOptions|RetryQueue|MoveOversub|RunPolicy|PolicyConfig)\b
# One way to inject each fault: a faults.Plan is the bus's only loss and delay, a per-call RequestPolicy the only refusal.
src  \bLossRate\b
src  \bMaxDelay\b
src  \bSetRequestPolicy\b
src  \bRunDistributed\b
src  \bMsgAlert\b
src  \bMsgCongestion\b
# One traffic-plane sync: phase 2 walks the dependency-edge table, with no per-period pair map or key sorts.
src  \b(flowWant|sortKeys|flowByPair)\b
# One front door: the root package is what the examples use; examples that need an internal name are Example tests in its package.
file bench_test.go
file bench_ext_test.go
file examples/congestion_control
file examples/distributed_protocol
file examples/traffic_forecast
# Snapshot rows travel as columns: no row structs beside them, and no reader of the record-per-row versions.
src  \b(VMSnap|VMRecord|SlotSnap|FlowSnap)\b
src  type[[:space:]]+LinkLoad\b|\bLinkLoad\{|\]LinkLoad\b
file internal/runtime/testdata/deep_snapshot.v3.golden.json
# No severity tier nobody reads: an alert carries its ALERT value, UrgentAt is the one cut.
src  ClassifySeverity|SeverityCritical
# One triage filter, defined once: no distilled coefficients.
file internal/experiments/distill.go
# No package only its own example drives.
file internal/qcn
# One offline command: the figures, the prediction study and the traces are sheriffsim modes.
file cmd/benchfig
file cmd/predict
file cmd/tracegen
# No step-history ring: the runtime keeps no per-period stats; Run returns those of its own steps.
# (The brackets keep a grep for the deleted names from finding these guards.)
src  record[H]istory|hist[S]tart|history-[l]imit
# Keep only what something reads: no P² quantile estimator.
src  \bNewQuantile\b|\btype[[:space:]]+Quantile\b|\bmetrics\.Quantile\b
# One encoding per forecasting type: the snapshot's columns, which the packer pairs (AppendState, Restore) write and read; the live objects carry no JSON codec of their own.
src  \bmarshalState\b
# One way into the step engine: StepExternal takes what the VMs reported; the runtime opens no trace stream, and its snapshot carries no generator position.
src  func[[:space:]]+\([a-z]+[[:space:]]+\*?Runtime\)[[:space:]]+(S[t]ep|R[u]n)\(
src  Gen[P]os|gen_[p]os
src  \bsh\.(s[r]cs|l[i]te|e[x]ternal)\b
src  \bK[i]nd\(\)[[:space:]]+Kind\b
# One alert vocabulary: a shim hears server and local-ToR alerts and returns a Tally; a hot outer switch is answered by the runtime's FLOWREROUTE on flows, so no outer-switch alert, ω = 1 rule or rerouted-VM list exists, and the manage phase carries no cost-staleness flag across periods.
src  \bvmsUsingSwitch\b|\bmodelStale\b|\bModelStale\b|model_stale
# One fold, one entry, one rolling loop per forecaster: predictor.Rolling is the only rolling one-step loop beside Selector.Run, and no forecaster is picked by a kind tag.
src  RollingForecast|func[[:space:]]+rolling\b
src  "(sarima|burst)"|\bkind(SARIMA|Burst)\b
# Deep pools in fixed state: a fitted model keeps no copy of its training series, and a selector's state is its refit window and folds, not every value since the fit.
src  \b[mn]\.history\b|json:"history"
# The deep pools travel as columns: no struct tree per rack and candidate, no model behind an interface picked by a kind tag, and no state value per model.
src  \bCandidateState\b|\bdecodeModel\b|\bSelectorState\b
src  =[[:space:]]*"(arima|narnet)"
src  json:"model"
# A steady period allocates nothing: StepExternal returns its stats by value, and a shim keeps no round memory of its own — every shim of a runtime borrows one migrate.Workspace.
src  \(\*StepStats,[[:space:]]*error\)
src  \bs\.(knap|inSet|hostSet|torSet|vms|tally)\b|&s\.scratch\b
# Each update touched once less on the calm path: StepExternal writes the reported profiles into the engine's cur in place, with no overlay beside it, and a drain pass folds queue wait once into the service's summary and histogram, not into every shard's.
src  \b(extProf|extMark|extEpoch)\b
src  \bsh\.(wait|waitHist)\b
# Workload sources in a few hundred bytes: a WorkloadGen draws each sample again from its PCG streams, so it holds no materialized series and no math/rand generator, and a SurgeGen holds its baseline in place.
decl ./internal/traces.WorkloadGen \*timeseries\.Series|\*rand\.Rand\b
decl ./internal/traces.SurgeGen \*WorkloadGen\b
# One owner for live subscribers: the recorder detaches a failed subscription itself and closes one by identity, so obs needs no reflect, and ingest keeps no subscriber list for its drain to sweep.
src  ^[[:space:]]*(import[[:space:]]+)?"reflect"$ internal/obs
src  \b(sweepSubscriptions|subMu|subs)\b internal/ingest
# Snapshot codecs cost what they carry, once: every column is carved from one array per element kind and its floats packed in place (timeseries.AppendPack), so no column is staged in a []float64 for Pack to copy again.
src  timeseries\.Pack\( internal/runtime
src  timeseries\.Pack\( internal/dcn
src  timeseries\.Pack\( internal/flow
src  timeseries\.Pack\( internal/ingest
# An episode's fabric is built at its final size: the constructors cut node names from one string, and a cluster carves its racks, hosts and VMs from one array per kind (or a chunk of VMs), never one object each.
src  fmt\.Sprintf\( internal/topology/fattree.go
src  fmt\.Sprintf\( internal/topology/bcube.go
src  fmt\.Sprintf\( internal/topology/leafspine.go
src  &(VM|Host|Rack)\{ internal/dcn
# One snapshot file, one version, one owner: cmd/sheriffd's header carries the file's version and checksum; the sections carry no version and no copy of the cost parameters, and the daemon peeks at no section's version.
src  "cost_[p]arams"
src  head\.Runtime\.[V]ersion
EOF
exit $fail
