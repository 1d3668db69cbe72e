#!/bin/sh
# Compare every experiment's outputs between a git revision and the
# working tree at one seed. A change that must not move behaviour (a
# refactor, a perf fix, a deletion) leaves every output byte-identical.
#
# Usage: scripts/cmp-outputs.sh <rev> [seed]      (seed defaults to 7)
#
# It extracts <rev> with git archive into a temporary directory, builds
# lupine-bench there and from the working tree, runs every experiment on
# both at the seed with -trace-out -slo-out -metrics-out, and cmps
# stdout (without the "(wall …)" timing of each header), the Chrome
# trace, the SLO reports, the metrics JSON and its .prom sibling. It
# names each output that differs (and, for stdout, each experiment) and
# exits 1 on any difference. It writes nothing under the repository.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [seed]" >&2
    exit 2
fi
rev=$1
seed=${2:-7}
root=$(cd "$(dirname "$0")/.." && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/base" "$tmp/head"

git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/lupine-bench" ./cmd/lupine-bench)
(cd "$root" && go build -o "$tmp/head/lupine-bench" ./cmd/lupine-bench)

# run <side>: every experiment at the seed, outputs into $tmp/<side>.
run() {
    d=$tmp/$1
    "$d/lupine-bench" -seed "$seed" -trace-out="$d/trace.json" -slo-out="$d/slo.json" \
        -metrics-out="$d/metrics.json" >"$d/stdout.raw"
    sed 's/ (wall [0-9.]*s)$//' "$d/stdout.raw" >"$d/stdout"
}
run base &
base=$!
run head &
head=$!
failed=0
wait "$base" || failed=1
wait "$head" || failed=1
if [ "$failed" -ne 0 ]; then
    echo "a lupine-bench run failed" >&2
    exit 1
fi

# section <file> <id>: one experiment's part of stdout.
section() { awk -v id="$2" '/^# / { on = ($2 == id) } on' "$1"; }

status=0
for f in stdout trace.json slo.json metrics.json metrics.json.prom; do
    if cmp -s "$tmp/base/$f" "$tmp/head/$f"; then
        echo "same    $f"
        continue
    fi
    echo "DIFFERS $f"
    status=1
    if [ "$f" = stdout ]; then
        for id in $(cat "$tmp/base/stdout" "$tmp/head/stdout" | awk '/^# / { print $2 }' | sort -u); do
            if [ "$(section "$tmp/base/stdout" "$id")" != "$(section "$tmp/head/stdout" "$id")" ]; then
                echo "        experiment $id"
            fi
        done
    fi
done
if [ "$status" -eq 0 ]; then
    echo "every output of $rev and the working tree is identical at seed $seed"
fi
exit "$status"
