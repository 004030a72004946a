#!/usr/bin/env bash
# Drift report: the virtual engine's two working loops, BenchmarkSimulateDense
# and BenchmarkSimulateFleetChurn (internal/load), at an anchor commit against
# the working tree. Both trees' internal/load test binaries are built, then
# each benchmark runs in alternated rounds (anchor first in even rounds, the
# tree first in odd ones) at GOMAXPROCS 1 and 2, two passes a run.
#
# Per benchmark and GOMAXPROCS it prints the median of the per-round speed
# ratios (the anchor's ns/op over the tree's: above 1 means the tree is
# faster), the rounds the tree won, and each side's median allocs/op and
# B/op. It is a report, not a gate: its verdict rests on wall-clock time, so
# run it on an otherwise idle machine.
#
#   scripts/drift.sh [anchor]        (or: make drift ANCHOR=<commit>)
#
# The anchor is checked out with `git worktree add --detach` into a temporary
# directory, which is removed on exit.
set -euo pipefail

anchor=${1:-a19bd22}
rounds=10
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/anchor" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$work/anchor" "$anchor"
(cd "$work/anchor" && go test -c -o "$work/anchor.test" ./internal/load)
(cd "$root" && go test -c -o "$work/tree.test" ./internal/load)

tree=$(git -C "$root" rev-parse --short HEAD)
git -C "$root" diff --quiet HEAD || tree="$tree + uncommitted changes"
echo "drift: anchor $(git -C "$root" rev-parse --short "$anchor") against the tree ($tree), $rounds alternated rounds of 2 passes"
for cpu in 1 2; do
	for bench in SimulateDense SimulateFleetChurn; do
		for ((r = 0; r < rounds; r++)); do
			order="anchor tree"
			if ((r % 2)); then order="tree anchor"; fi
			for side in $order; do
				"$work/$side.test" -test.run '^$' -test.bench "^Benchmark$bench\$" \
					-test.cpu "$cpu" -test.benchtime 2x -test.benchmem |
					awk -v side="$side" -v r="$r" '/^Benchmark/ { print r, side, $3, $(NF-3), $(NF-1) }'
			done
		done >"$work/runs"
		awk -v cpu="$cpu" -v bench="$bench" '
			function median(a, n,    i, j, t) {
				for (i = 2; i <= n; i++) {
					t = a[i]
					for (j = i - 1; j > 0 && a[j] > t; j--) a[j + 1] = a[j]
					a[j + 1] = t
				}
				return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
			}
			$2 == "anchor" { ns[$1] = $3; ab[++na] = $4; aa[na] = $5 }
			$2 == "tree" { tns[$1] = $3; tb[++nt] = $4; ta[nt] = $5 }
			END {
				for (r in ns) if (r in tns) {
					ratio[++n] = ns[r] / tns[r]
					if (ns[r] > tns[r]) wins++
				}
				printf "GOMAXPROCS %d  %-18s  speed %.3fx (median of %d)  tree won %d/%d  allocs/op %d -> %d  B/op %d -> %d\n",
					cpu, bench, median(ratio, n), n, wins, n, median(aa, na), median(ta, nt), median(ab, na), median(tb, nt)
			}' "$work/runs"
	done
done
