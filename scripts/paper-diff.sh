#!/usr/bin/env bash
# Full-scale paper suite of a parent commit against the working tree:
# fluidmem-bench's stdout byte for byte, and each side's wall seconds per
# experiment. `make paper-diff` runs it.
#
#   scripts/paper-diff.sh <parent-ref> <names|all> [pairs=1]
#
# The parent is a `git archive` of <parent-ref> unpacked in a temporary
# directory, as in bench-pairs.sh; fluidmem-bench is built from both trees.
# <names> is a comma-separated list of experiments; "all" is every experiment
# the working tree's `fluidmem-bench -list` names but wall, whose table is
# host time. Each experiment runs at seed 1 in <pairs> alternated pairs, the
# parent first in even pairs and the change first in odd ones. Every run's stdout
# must equal the parent's first run; the script prints each run's wall
# seconds and stdout digest, then per experiment both sides' median seconds,
# and exits 1 naming every experiment whose stdout differed.
set -euo pipefail

usage="usage: paper-diff.sh <parent-ref> <names|all> [pairs]"
parent=${1:?$usage}
names=${2:?$usage}
pairs=${3:-1}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./cmd/fluidmem-bench)
(cd "$root" && go build -o "$tmp/bench-change" ./cmd/fluidmem-bench)
if [[ $names == all ]]; then
	names=$("$tmp/bench-change" -list | awk '$1 != "wall" { printf "%s%s", sep, $1; sep = "," }')
fi
echo "parent $(git -C "$root" rev-parse --short "$parent"), change = working tree $root"
echo "experiments $names; $pairs pair(s) each, full scale, seed 1"

# one <side> <name> <run>: one run; its stdout goes to $tmp/<side>.<name>.<run>
# and its wall seconds to $tmp/times.
one() {
	local out=$tmp/$1.$2.$3 start secs
	start=$EPOCHREALTIME
	"$tmp/bench-$1" -run "$2" -seed 1 >"$out"
	secs=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.2f", b - a }')
	echo "$1 $2 $secs" >>"$tmp/times"
	printf '  %-18s %-6s run %d: %8s s  %s\n' "$2" "$1" "$3" "$secs" "$(cksum <"$out" | cut -d' ' -f1)"
}

differ=()
for name in ${names//,/ }; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			one parent "$name" "$i"
			one change "$name" "$i"
		else
			one change "$name" "$i"
			one parent "$name" "$i"
		fi
	done
	for ((i = 0; i < pairs; i++)); do
		for side in parent change; do
			if ! cmp -s "$tmp/parent.$name.0" "$tmp/$side.$name.$i"; then
				differ+=("$name")
				diff "$tmp/parent.$name.0" "$tmp/$side.$name.$i" | head -n 20 || true
				continue 3
			fi
		done
	done
done

awk '
function median(list, n,    s, i, j, t) {
	split(list, s, " ")
	for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
	return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
!($2 in seen) { seen[$2] = 1; order[++k] = $2 }
{ t[$1, $2] = t[$1, $2] " " $3; n[$1, $2]++ }
END {
	printf "\n%-18s %12s %12s %8s\n", "experiment", "parent (s)", "change (s)", "ratio"
	for (i = 1; i <= k; i++) {
		e = order[i]; p = median(t["parent", e], n["parent", e]); c = median(t["change", e], n["change", e])
		printf "%-18s %12.2f %12.2f %8.3f\n", e, p, c, (p > 0 ? c / p : 0)
	}
}' "$tmp/times"

if ((${#differ[@]})); then
	echo "stdout differs: ${differ[*]}"
	exit 1
fi
echo "stdout byte-identical for every experiment"
