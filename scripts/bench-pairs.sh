#!/usr/bin/env bash
# Interleaved parent/change pairs of the committed benchmark — the procedure a
# performance claim is judged by (EXPERIMENTS §13, benchmark/README.md):
#
#   scripts/bench-pairs.sh PARENT [N] [WORKLOAD] [SEED]     (make bench-pairs PARENT=… [N=10] [WORKLOAD=…] [SEED=…])
#
# PARENT is any git revision; the change is the working tree as it stands.
# The parent's files are unpacked (git archive — nothing is left in .git) to
# .bench_build/pairs/parent-<rev>/ and each side builds inside its own
# tree, as the pipeline does. Pair i runs the parent first when i is odd,
# the change first when it is even. Every run's -out file and log are kept
# under .bench_build/pairs/<rev>-seed<SEED>/ (gitignored).
#
# Per cell it prints   parent median [q1,q3] → change median [q1,q3],
# the median's move, the pairs the change won (ties count for neither), the
# change's interquartile distance ÷ the parent's median — the number the
# pipeline's spread rule reads, with a `!` behind it past 15 %: a cell that far
# out may be refused as too widely spread even when it rose — and whether
# every run of the change read better than every run of the parent (`all`),
# which is what exempts a cell wider than its bound from "unresolved".
# Quartiles are by the exclusive method, like benchmark/stat.go.
set -euo pipefail
parent=${1:?usage: bench-pairs.sh PARENT [N] [WORKLOAD] [SEED]}
n=${2:-10} workload=${3:-} seed=${4:-1}
cd "$(dirname "$0")/.."
root=$PWD
rev=$(git rev-parse --short "$parent^{commit}")
ptree=$root/.bench_build/pairs/parent-$rev
out=$root/.bench_build/pairs/$rev-seed$seed
rm -rf "$ptree"
mkdir -p "$ptree" "$out"
git archive "$rev" | tar -x -C "$ptree"

run() { # side tree pair
	if ! (cd "$2" && bash benchmark/run.sh ${workload:+-workload "$workload"} -seed "$seed" -out "$out/$1-$3.json") >"$out/$1-$3.log" 2>&1; then
		echo "bench-pairs: $1 run of pair $3 exited non-zero (see $out/$1-$3.log)" >&2
	fi
}
for i in $(seq 1 "$n"); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "pair $i/$n: $side" >&2
		if [ "$side" = parent ]; then run parent "$ptree" "$i"; else run change "$root" "$i"; fi
	done
done

awk -v n="$n" -v out="$out" '
function sorted(cell, side, s,    i, j, k, v) { # the values of one side of a cell, ascending; returns how many
	k = 0
	for (i = 1; i <= n; i++) if ((cell, side, i) in val) {
		v = val[cell, side, i]
		for (j = k; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
		s[j + 1] = v; k++
	}
	return k
}
function quartile(s, k, q,    j, d) { # exclusive method; q = 1, 2 or 3
	if (k < 2) return s[1]
	j = int(q * (k + 1) / 4); if (j < 1) j = 1; if (j > k - 1) j = k - 1
	d = q * (k + 1) - j * 4
	return (s[j] * (4 - d) + s[j + 1] * d) / 4
}
BEGIN {
	for (i = 1; i <= n; i++) {
		for (side = 0; side < 2; side++) {
			file = out "/" (side ? "change" : "parent") "-" i ".json"
			wl = ""
			while ((getline line < file) > 0) {
				if (line ~ /^ *"workload":/) { split(line, f, "\""); wl = f[4] }
				else if (line ~ /^ *"name":/) { split(line, f, "\""); cell = wl " " f[4]; if (!(cell in seen)) { seen[cell] = 1; cells[++nc] = cell } }
				else if (line ~ /^ *"better":/) { split(line, f, "\""); better[cell] = f[4] }
				else if (line ~ /^ *"value":/) { v = line; sub(/^[^:]*: */, "", v); val[cell, side, i] = v + 0 }
				else if (line ~ /^ *"failed": *[1-9]/) failed[side]++
			}
			close(file)
		}
	}
	printf "%-30s %-36s   %-36s %8s %6s %9s  %s\n", "cell", "parent median [q1, q3]", "change median [q1, q3]", "move", "won", "IQR/med", "clear"
	for (c = 1; c <= nc; c++) {
		cell = cells[c]
		kp = sorted(cell, 0, p); kc = sorted(cell, 1, ch)
		if (!kp || !kc) { printf "%-30s missing on one side\n", cell; continue }
		won = 0; pairs = 0
		for (i = 1; i <= n; i++) if (((cell, 0, i) in val) && ((cell, 1, i) in val)) {
			pairs++
			d = val[cell, 1, i] - val[cell, 0, i]
			if (better[cell] == "lower") d = -d
			if (d > 0) won++
		}
		pm = quartile(p, kp, 2); cm = quartile(ch, kc, 2)
		spread = pm ? 100 * (quartile(ch, kc, 3) - quartile(ch, kc, 1)) / pm : 0
		clear = (better[cell] == "lower") ? (ch[kc] < p[1]) : (ch[1] > p[kp]) # worst run of the change against best run of the parent
		printf "%-30s %11.5g [%10.5g, %10.5g] → %11.5g [%10.5g, %10.5g] %+7.1f%% %3d/%-2d %8.1f%%%s %s\n", cell,
			pm, quartile(p, kp, 1), quartile(p, kp, 3), cm, quartile(ch, kc, 1), quartile(ch, kc, 3),
			pm ? 100 * (cm - pm) / pm : 0, won, pairs, spread, (spread > 15 ? "!" : " "), (clear ? "all" : "-")
	}
	printf "runs with failed operations: parent %d, change %d; result files in %s\n", failed[0], failed[1], out
}'
