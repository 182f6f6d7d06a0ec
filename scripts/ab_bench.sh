#!/bin/sh
# A/B the repo's benchmark (trial_budget/) between a parent ref and the
# working tree: alternating pairs, medians, wins, BENCHMARK.json bounds.
#
#   scripts/ab_bench.sh [-r REF] [-n PAIRS] [-w W1,W2,...] [-s SEED]
#                       [-t SECONDS] [-T 0|1] [-m REGEX] [-d WORKDIR]
#
#   -r  parent ref (default HEAD: the change is the uncommitted tree;
#       use HEAD~1 once it is committed)
#   -n  pairs per workload (default 10); odd pairs run the parent first,
#       even pairs the change
#   -w  workloads (default: every workload in BENCHMARK.json)
#   -s  --seed (default 2018)      -t  --seconds (default 12)
#   -T  --trace (default 0); 1 reports the per-layer metrics instead,
#       which have a direction in BENCHMARK.json but no bound
#   -m  only report metrics matching this awk regex
#   -d  work directory (default <repo>/target/ab_bench: git-ignored, and
#       skipped by `resilim trace-matrix`, which scans the tree)
#
# The parent is exported with `git archive` (the repository and its
# worktree list are left alone) and both sides are built from their own
# checkout into their own target directory with the same command the
# benchmark driver uses. Needs git, cargo, tar, awk, sed, sort only, and
# edits nothing under trial_budget/. Raw result lines are kept in
# WORKDIR/runs/ (one file per run), so a table can be re-read later.
set -eu

ref=HEAD pairs=10 workloads= seed=2018 seconds=12 trace=0 only=. work=
while getopts r:n:w:s:t:T:m:d: opt; do
    case $opt in
    r) ref=$OPTARG ;; n) pairs=$OPTARG ;; w) workloads=$OPTARG ;;
    s) seed=$OPTARG ;; t) seconds=$OPTARG ;; T) trace=$OPTARG ;;
    m) only=$OPTARG ;; d) work=$OPTARG ;;
    *) sed -n '2,25p' "$0" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
work=${work:-$root/target/ab_bench}
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
mkdir -p "$work/runs"

# name, better, bound ("-" for per-layer metrics) of every metric.
awk '
    /"name"/   { gsub(/[",]/, ""); name = $2 }
    /"better"/ { gsub(/[",]/, ""); better = $2 }
    /"bound"/  { gsub(/[",]/, ""); bound = $2 }
    /^ *}/     { if (better != "") print name, better, (bound == "" ? "-" : bound)
                 name = better = bound = "" }
' "$root/BENCHMARK.json" >"$work/metrics.txt"
if [ -z "$workloads" ]; then
    workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); printf "%s%s", sep, $2; sep = "," }' \
        "$root/BENCHMARK.json")
fi

# Export the parent once per ref: re-extracting would touch every file
# and make cargo rebuild it all.
if [ "$(cat "$work/parent.ref" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$work/parent"
    mkdir -p "$work/parent"
    git -C "$root" archive --format=tar "$sha" | tar -x -C "$work/parent"
    echo "$sha" >"$work/parent.ref"
fi
for side in parent change; do
    [ $side = parent ] && tree=$work/parent || tree=$root
    echo "building $side ($tree)" >&2
    CARGO_TARGET_DIR=$work/$side-target cargo build --release --offline --quiet \
        --manifest-path "$tree/trial_budget/Cargo.toml"
done

# One run: from the side's own checkout (the benchmark's scratch paths
# are relative to it); the last stdout line is the result object.
run() { # side workload pair
    [ "$1" = parent ] && tree=$work/parent || tree=$root
    (cd "$tree" && "$work/$1-target/release/trial-budget" --workload "$2" \
        --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) \
        >"$work/runs/$2.t$trace.s$seed.$1.$3.json"
}

for w in $(echo "$workloads" | tr ',' ' '); do
    rm -f "$work/runs/$w.t$trace.s$seed".*.json
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
        echo "$w: pair $i/$pairs ($first first)" >&2
        run $first "$w" "$i"
        run $second "$w" "$i"
        i=$((i + 1))
    done

    # "side pair metric value" per metric of every run, plus its verdict.
    for f in "$work/runs/$w.t$trace.s$seed".*.json; do
        tag=${f%.json}
        pair=${tag##*.}
        tag=${tag%.*}
        side=${tag##*.}
        grep -q '"correct":true,"attempted":[0-9]*,"failed":0,' "$f" ||
            echo "$side $pair FAILED 1"
        sed 's/.*"metrics":{//' "$f" | tr '}' '\n' |
            sed -n 's/^,\{0,1\}"\([^"]*\)":{"value":\(-\{0,1\}[0-9][^,]*\),.*/'"$side $pair"' \1 \2/p'
    done | sort -k3,3 -k1,1 -k4,4g >"$work/table.txt"

    echo
    echo "workload $w  parent $(echo "$sha" | cut -c1-7)  pairs $pairs  seed $seed  seconds $seconds  trace $trace"
    awk -v only="$only" '
        function quantile(a, n, q,    pos, lo, frac) {
            pos = (n - 1) * q; lo = int(pos); frac = pos - lo
            return lo + 2 > n ? a[n] : a[lo + 1] + frac * (a[lo + 2] - a[lo + 1])
        }
        # Counts (digests, outcome tallies) print in full.
        function num(v) { return v == int(v) && v < 1e15 ? sprintf("%.0f", v) : sprintf("%.5g", v) }
        NR == FNR { better[$1] = $2; bound[$1] = $3; order[++m] = $1; next }
        $3 == "FAILED" { failed = failed " " $1 "#" $2; next }
        # Rows arrive sorted by metric, side, value.
        { n[$3, $1]++; sorted[$3, $1, n[$3, $1]] = $4; at[$3, $1, $2] = $4; seen[$3] = 1
          if ($2 > npairs) npairs = $2 }
        END {
            printf "%-38s %-6s %12s %25s %12s %7s %6s %5s  %s\n", "metric", "better",
                "parent_med", "parent[q1..q3]", "change_med", "ratio", "wins", "bound", "verdict"
            for (k = 1; k <= m; k++) {
                name = order[k]
                if (!seen[name] || name !~ only) continue
                for (s = 1; s <= 2; s++) {
                    side = s == 1 ? "parent" : "change"
                    cnt = n[name, side]
                    for (j = 1; j <= cnt; j++) a[j] = sorted[name, side, j]
                    med[side] = quantile(a, cnt, 0.5)
                    if (s == 1) { q1 = quantile(a, cnt, 0.25); q3 = quantile(a, cnt, 0.75) }
                }
                wins = decided = 0
                for (p = 1; p <= npairs; p++) {
                    if (!((name, "parent", p) in at) || !((name, "change", p) in at)) continue
                    d = at[name, "change", p] - at[name, "parent", p]
                    if (better[name] == "lower") d = -d
                    if (d != 0) decided++
                    if (d > 0) wins++
                }
                ratio = med["parent"] != 0 ? med["change"] / med["parent"] : 0
                worse = better[name] == "lower" ? ratio - 1 : 1 - ratio
                verdict = bound[name] == "-" ? "-" : (worse <= bound[name] ? "inside" : "OUTSIDE")
                printf "%-38s %-6s %12s %25s %12s %7.3f %6s %5s  %s\n", name, better[name],
                    num(med["parent"]), "[" num(q1) ".." num(q3) "]", num(med["change"]), ratio,
                    wins "/" decided, bound[name], verdict
            }
            if (failed != "") print "NOT correct:true / failed:0 in:" failed
            else print "every run: correct true, failed 0"
        }
    ' "$work/metrics.txt" "$work/table.txt"
done
