#!/bin/sh
# Cross-commit identity: run the same campaigns and the ablations example
# on a parent ref and on the working tree, and compare what they leave.
#
#   scripts/identity.sh [-r REF] [-d WORKDIR]
#
#   -r  parent ref (default HEAD: the change is the uncommitted tree;
#       use HEAD~1 once it is committed)
#   -d  work directory (default <repo>/target/identity: git-ignored)
#
# On both sides: `resilim campaign` for cg and pennant under the bitflip,
# burst:3, due, msg and msg --replicate fault models (--scale 8 --errors
# par --tests 60 --seed 7 --json), plus cg under --errors multi:3, into
# one --store; bitflip and msg --replicate again into a second store with
# --trial-timeout 30; each stored campaign followed by `resilim merge`
# with the same flags; `resilim model --predictor logistic` and
# `--predictor stumps` (--json) over the first store's features; and
# `cargo run --release --example ablations`. Then one verdict per
# artifact: the summaries (campaign and merge stdout, stored; wall_secs
# dropped), the sorted ledger lines, the sorted feature lines, the golden
# records (wall_secs dropped), the two model reports and the ablations
# stdout. Exits non-zero on any difference.
#
# The parent is exported with `git archive` (the repository and its
# worktree list are left alone) and each side is built from its own
# checkout into its own target directory. Needs git, cargo, tar, sed,
# sort and cmp only.
set -eu

ref=HEAD work=
while getopts r:d: opt; do
    case $opt in
    r) ref=$OPTARG ;; d) work=$OPTARG ;;
    *) sed -n '2,27p' "$0" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
work=${work:-$root/target/identity}
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
mkdir -p "$work"

# Export the parent once per ref: re-extracting would touch every file
# and make cargo rebuild it all.
if [ "$(cat "$work/parent.ref" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$work/parent"
    mkdir -p "$work/parent"
    git -C "$root" archive --format=tar "$sha" | tar -x -C "$work/parent"
    echo "$sha" >"$work/parent.ref"
fi

tree() { [ "$1" = parent ] && echo "$work/parent" || echo "$root"; }

# Everything one side leaves, normalised into $work/runs/<side>/out/.
run_side() { # side
    src=$(tree "$1")
    target=$work/$1-target
    echo "building $1 ($src)" >&2
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path "$src/Cargo.toml" -p resilim-cli
    bin=$target/release/resilim
    runs=$work/runs/$1
    rm -rf "$runs"
    mkdir -p "$runs/stdout" "$runs/out"
    # One campaign into a store, then its merge from that store.
    stored() { # store name flags...
        store=$runs/$1 name=$2
        shift 2
        "$bin" campaign "$@" --json --store "$store" \
            >"$runs/stdout/$name.json" 2>>"$runs/stderr.log"
        "$bin" merge "$@" --json --store "$store" \
            >"$runs/stdout/$name-merged.json" 2>>"$runs/stderr.log"
    }
    for app in cg pennant; do
        for model in bitflip burst:3 due msg "msg --replicate"; do
            echo "$1: $app $model" >&2
            name=$app-$(echo "$model" | tr ' :' '_-')
            # `$model` unquoted: "msg --replicate" is two arguments.
            # shellcheck disable=SC2086
            stored store "$name" --apps "$app" --scale 8 --errors par --tests 60 \
                --seed 7 --fault-model $model
            case $model in
            bitflip | "msg --replicate")
                # shellcheck disable=SC2086
                stored store-timeout "$name-timeout" --apps "$app" --scale 8 --errors par \
                    --tests 60 --seed 7 --trial-timeout 30 --fault-model $model
                ;;
            esac
        done
    done
    echo "$1: cg multi:3" >&2
    stored store cg-multi-3 --apps cg --scale 8 --errors multi:3 --tests 60 --seed 7
    for predictor in logistic stumps; do
        echo "$1: model --predictor $predictor" >&2
        "$bin" model --store "$runs/store" --predictor "$predictor" --json \
            >"$runs/out/model-$predictor.txt" 2>>"$runs/stderr.log"
    done
    echo "$1: ablations example" >&2
    (cd "$src" && CARGO_TARGET_DIR=$target cargo run --release --offline --quiet \
        --example ablations) >"$runs/out/ablations.txt"

    # Fixed file order (C locale), wall-clock fields dropped.
    nowall() { sed 's/"wall_secs": *[-+.0-9eE]*/"wall_secs":-/g'; }
    for f in $(cd "$runs" && LC_ALL=C ls stdout/*.json store/*.json store-timeout/*.json); do
        echo "== $f"
        nowall <"$runs/$f"
    done >"$runs/out/summaries.txt"
    for s in store store-timeout; do
        cat "$runs/$s"/ledger/*.jsonl | LC_ALL=C sort >"$runs/out/$s.ledger.txt"
        cat "$runs/$s"/features/*.jsonl | LC_ALL=C sort >"$runs/out/$s.features.txt"
        for f in $(cd "$runs/$s/golden" && LC_ALL=C ls); do
            echo "== $f"
            nowall <"$runs/$s/golden/$f"
            echo
        done >"$runs/out/$s.golden.txt"
    done
}

run_side parent
run_side change

echo
echo "identity: parent $(echo "$sha" | cut -c1-7) vs working tree"
status=0
for f in summaries.txt store.ledger.txt store.features.txt store.golden.txt \
    store-timeout.ledger.txt store-timeout.features.txt store-timeout.golden.txt \
    model-logistic.txt model-stumps.txt ablations.txt; do
    lines=$(wc -l <"$work/runs/change/out/$f" | tr -d ' ')
    if cmp -s "$work/runs/parent/out/$f" "$work/runs/change/out/$f"; then
        printf '%-28s identical (%s lines)\n' "${f%.txt}" "$lines"
    else
        printf '%-28s DIFFERENT: cmp %s %s\n' "${f%.txt}" \
            "$work/runs/parent/out/$f" "$work/runs/change/out/$f"
        status=1
    fi
done
exit $status
