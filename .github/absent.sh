#!/usr/bin/env bash
# absent.sh fails when a design the tree has deleted comes back. Each line
# of the list at the bottom is one guard:
#
#   file PATHSPEC       no tracked file matches PATHSPEC
#   src  REGEX          no tracked non-test Go file outside bench/ matches
#                       REGEX
#   doc  TARGET WORDS   `go doc -all TARGET` names none of WORDS (a regex
#                       alternation, matched as whole words)
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
	*)
		echo "absent.sh: unknown guard kind $kind"
		fail=1
		;;
	esac
done <<'EOF'
# One step engine: the seed engine and the seed oracles are compiled by the tests only.
file internal/*/reference.go
src  refreshNaive|initReference|advanceRef|refState|trendState
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
EOF
exit $fail
