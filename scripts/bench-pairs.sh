#!/usr/bin/env bash
# Alternated parent/change pairs of the repository benchmark, judged by the
# rule of the choosing-metrics guide, section 8. `make bench-pairs` runs it.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [seconds=20]
#
# The parent is a `git archive` of <parent-ref> unpacked in a temporary
# directory (nothing is left in .git, unlike a worktree); the change is the
# working tree. Pair i runs `bash benchmark/run.sh --trace 0` on both at seed
# 301+i, the parent first in even pairs and the change first in odd ones.
# Every run is printed; then, per end-to-end metric of BENCHMARK.json, both
# sides' medians with quartiles, wins/pairs (ties count for neither), the
# ratio of the medians with its base, the median of the per-pair ratios with
# their range, and the verdict:
#   GAIN        change wins >= 9/10 of the pairs and the medians differ by
#               more than the parent's interquartile range
#   REGRESSION  change median worse than the parent's by more than the bound
#   unresolved  parent's interquartile range is wider than the bound, and not
#               every change run beats every parent run
#   within      none of the above: no worse than the bound allows
set -euo pipefail

parent=${1:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]}
workload=${2:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]}
pairs=${3:-10}
seconds=${4:-20}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
echo "parent $(git -C "$root" rev-parse --short "$parent") in $tmp/parent, change = working tree $root"
echo "workload $workload, $pairs pairs, --seconds $seconds --trace 0, seeds 301..$((300 + pairs))"

# one <side> <dir> <seed>: one run; its JSON result line goes to $tmp/runs.
one() {
	local json
	json=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
	echo "$1 $3 $json" >>"$tmp/runs"
	echo "  seed $3 $1: $json"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((301 + i))
	if ((i % 2 == 0)); then
		one parent "$tmp/parent" "$seed"
		one change "$root" "$seed"
	else
		one change "$root" "$seed"
		one parent "$tmp/parent" "$seed"
	fi
done

awk -v pairs="$pairs" '
function value(json, name,    re) {
	re = "\"" name "\":\\{\"value\":[-+0-9.eE]+"
	if (!match(json, re)) return "nan"
	return substr(json, RSTART + length(name) + 12, RLENGTH - length(name) - 12) + 0
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
}
function quantile(s, n, q,    h, lo) {
	h = (n - 1) * q + 1; lo = int(h)
	return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo+1] - s[lo])
}
# First file: BENCHMARK.json, for the end-to-end metrics, directions, bounds.
FNR == NR {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	else if ($0 ~ /"per_layer"/) inE2E = 0
	if (!inE2E) next
	if (match($0, /"name": *"[^"]+"/)) { m = $0; sub(/.*"name": *"/, "", m); sub(/".*/, "", m); names[++nm] = m }
	if (match($0, /"better": *"[^"]+"/)) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[names[nm]] = b }
	if (match($0, /"bound": *[0-9.]+/)) { b = $0; sub(/.*"bound": */, "", b); sub(/[^0-9.].*/, "", b); bound[names[nm]] = b + 0 }
	next
}
{
	side = $1; json = $0; sub(/^[a-z]+ [0-9]+ /, "", json)
	n[side]++
	for (k = 1; k <= nm; k++) v[side, names[k], n[side]] = value(json, names[k])
	if (json !~ /"correct":true/) bad[side]++
}
END {
	fmt = "%-24s %-6s %-36s %-36s %-6s %-24s %-28s %s\n"
	printf "\n" fmt, "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "change/parent (base)", "pair ratio median [min, max]", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]; sign = better[m] == "higher" ? 1 : -1
		wins = 0; allBetter = 1
		for (i = 1; i <= pairs; i++) {
			p[i] = v["parent", m, i]; c[i] = v["change", m, i]; r[i] = p[i] != 0 ? c[i] / p[i] : 0
			if (sign * (c[i] - p[i]) > 0) wins++
		}
		sorted(p, ps, pairs); sorted(c, cs, pairs); sorted(r, rs, pairs)
		pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
		p1 = quantile(ps, pairs, 0.25); p3 = quantile(ps, pairs, 0.75)
		c1 = quantile(cs, pairs, 0.25); c3 = quantile(cs, pairs, 0.75)
		if (sign > 0 ? cs[1] <= ps[pairs] : cs[pairs] >= ps[1]) allBetter = 0
		gainBy = sign * (cm - pm); iqr = p3 - p1
		if (wins >= 0.9 * pairs && gainBy > iqr) verdict = "GAIN"
		else if (pm != 0 && -gainBy / (pm < 0 ? -pm : pm) > bound[m]) verdict = "REGRESSION"
		else if (pm != 0 && iqr / (pm < 0 ? -pm : pm) > bound[m] && !allBetter) verdict = "unresolved"
		else verdict = "within"
		printf fmt, m, better[m], sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3), wins "/" pairs, sprintf("%.4f (%.6g)", pm != 0 ? cm / pm : 0, pm), sprintf("%.4f [%.4f, %.4f]", quantile(rs, pairs, 0.5), rs[1], rs[pairs]), verdict
	}
	if (bad["parent"] + bad["change"] > 0) { printf "runs not correct: parent %d, change %d\n", bad["parent"], bad["change"]; exit 1 }
}' "$root/BENCHMARK.json" "$tmp/runs"
