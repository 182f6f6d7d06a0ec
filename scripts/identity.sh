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
# with the same flags; minife at --scale 64 (--errors par --tests 24
# --seed 7) into a store of its own, where sub-threshold taint crosses
# the most ranks, and its merge; ft, mg, lu and minife at --scale 8
# (--errors par --tests 60 --seed 7) and all six apps' serial --scale 1
# --errors ser:8 campaigns into a store of their own (`store-apps`),
# each with its merge, so every app kernel is compared at p=8 and p=1;
# cg's serial campaigns for ModelInputs::serial_cases(8, 2, default) plus
# --scale 2 --errors par into another store (`store-eq8`), and `resilim
# model --apps cg --scale 8 --small 2 --json` (the offline Eq. 8 path)
# over it; and `cargo run --release --example ablations`. Then one
# verdict per artifact (15): the summaries (campaign and merge stdout,
# stored; wall_secs dropped), the sorted ledger lines, the sorted feature
# lines, the golden records (wall_secs dropped), the Eq. 8 model report
# and the ablations stdout. Exits non-zero on any difference.
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
    *) sed -n '2,36p' "$0" >&2; exit 2 ;;
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
    echo "$1: minife p=64" >&2
    stored store-p64 minife-p64 --apps minife --scale 64 --errors par --tests 24 --seed 7
    for app in ft mg lu minife; do
        echo "$1: $app p=8" >&2
        stored store-apps "$app-p8" --apps "$app" --scale 8 --errors par --tests 60 --seed 7
    done
    for app in cg ft mg lu minife pennant; do
        echo "$1: $app ser:8" >&2
        stored store-apps "$app-ser8" --apps "$app" --scale 1 --errors ser:8 --tests 60 --seed 7
    done
    # Offline Eq. 8 from a store of its own: serial_cases(8, 2,
    # BucketUpper) = {1, 2, 8}, and the 2-rank 1-error campaign.
    echo "$1: model (eq8)" >&2
    for errors in ser:1 ser:2 ser:8; do
        "$bin" campaign --apps cg --scale 1 --errors "$errors" --tests 60 --seed 7 \
            --store "$runs/store-eq8" >/dev/null 2>>"$runs/stderr.log"
    done
    "$bin" campaign --apps cg --scale 2 --errors par --tests 60 --seed 7 \
        --store "$runs/store-eq8" >/dev/null 2>>"$runs/stderr.log"
    "$bin" model --store "$runs/store-eq8" --apps cg --scale 8 --small 2 \
        --json >"$runs/out/model-eq8.txt" 2>>"$runs/stderr.log"
    echo "$1: ablations example" >&2
    (cd "$src" && CARGO_TARGET_DIR=$target cargo run --release --offline --quiet \
        --example ablations) >"$runs/out/ablations.txt"

    # Fixed file order (C locale), wall-clock fields dropped.
    nowall() { sed 's/"wall_secs": *[-+.0-9eE]*/"wall_secs":-/g'; }
    for f in $(cd "$runs" && LC_ALL=C ls stdout/*.json store/*.json store-timeout/*.json store-p64/*.json \
        store-apps/*.json); do
        echo "== $f"
        nowall <"$runs/$f"
    done >"$runs/out/summaries.txt"
    for s in store store-timeout store-p64 store-apps; do
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
    store-p64.ledger.txt store-p64.features.txt store-p64.golden.txt \
    store-apps.ledger.txt store-apps.features.txt store-apps.golden.txt \
    model-eq8.txt ablations.txt; do
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
