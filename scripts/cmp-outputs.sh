#!/bin/sh
# Compare every experiment's outputs, and the stdout of the other
# commands and the examples, between a git revision and the working tree
# at one seed. A change that must not move behaviour (a refactor, a perf
# fix, a deletion) leaves every output byte-identical.
#
# Usage: scripts/cmp-outputs.sh <rev> [seed]      (seed defaults to 7)
#
# It extracts <rev> with git archive into a temporary directory, builds
# every command and example there and from the working tree, and runs
# both sides: lupine-bench runs every experiment at the seed with
# -trace-out -slo-out -metrics-out -flight (so stdout ends with every
# experiment's flight dumps), then the fabric-heavy storms at the seed
# with -json -flight (the JSON renderer and the flight dumps, which print
# the wire's connection and drop records), then every experiment at the
# seed with -csv (the CSV renderer, one csv/<id>.csv each), and each
# command line in $clis below runs once (they take no seed). It cmps
# lupine-bench's stdout (without the "(wall …)" timing of each header),
# its -json -flight stdout (which prints no wall time), the Chrome
# trace, the SLO reports, the metrics JSON and its .prom sibling, every
# CSV file either side wrote, the stdout of each other command line, and
# the four artifacts `lupine-build -o` writes (the rootfs.ext2 among
# them, streamed to disk). It names each output that differs or that one
# side lacks (and, for lupine-bench's stdout, each experiment) and exits
# 1 on any difference. It writes nothing under the repository.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [seed]" >&2
    exit 2
fi
rev=$1
seed=${2:-7}
root=$(cd "$(dirname "$0")/.." && pwd)

# clis: one command line a line, its output's name first, then the
# binary and its arguments.
clis='kconfigtool-census kconfigtool census
kconfigtool-classes kconfigtool classes
kconfigtool-resolve-general kconfigtool resolve general
kconfigtool-diff-base-microvm kconfigtool diff base microvm
kconfigtool-show-kml kconfigtool show KERNEL_MODE_LINUX
kconfigtool-show-ipc-ns kconfigtool show IPC_NS
kconfigtool-show-slub kconfigtool show SLUB
kconfigtool-minimize-base kconfigtool minimize base
lupine-build-all lupine-build -all
lupine-build-all-kml lupine-build -all -kml
lupine-build-redis-kml-o lupine-build -app redis -kml -o art
manifestgen-all manifestgen -all
manifestgen-all-trace manifestgen -all -trace
lupine-run-redis lupine-run -app redis
example-degradation degradation
example-nginx nginx
example-quickstart quickstart
example-redis redis
example-specialize specialize'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/base" "$tmp/head"

git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/" ./cmd/... ./examples/...)
(cd "$root" && go build -o "$tmp/head/" ./cmd/... ./examples/...)

# run <side>: every experiment at the seed and every command line,
# outputs into $tmp/<side>.
run() {
    cd "$tmp/$1"
    ./lupine-bench -seed "$seed" -trace-out=trace.json -slo-out=slo.json \
        -metrics-out=metrics.json -flight >stdout.raw
    sed 's/ (wall [0-9.]*s)$//' stdout.raw >stdout
    ./lupine-bench -seed "$seed" -json -flight \
        -run netsplit,regionfail,catalog,breach,fleetchaos >json-flight
    ./lupine-bench -seed "$seed" -csv=csv
    echo "$clis" | while read -r out bin args; do
        # $args is split into words on purpose.
        # shellcheck disable=SC2086
        if ! ./"$bin" $args >"$out" 2>"$out.stderr"; then
            echo "$1: $bin $args failed:" >&2
            cat "$out.stderr" >&2
            exit 1
        fi
    done
}
run base &
base=$!
run head &
head=$!
failed=0
wait "$base" || failed=1
wait "$head" || failed=1
if [ "$failed" -ne 0 ]; then
    echo "a run failed" >&2
    exit 1
fi

# section <file> <id>: one experiment's part of stdout, or with id
# "flight" the dumps printed after the last experiment.
section() { awk -v id="$2" '/^# / { on = ($2 == id) } /^flight recorder: / { on = (id == "flight") } on' "$1"; }

status=0
# art/: what lupine-build -o wrote. csv/: what lupine-bench -csv wrote on
# either side; cmp fails on a file one side lacks.
artifacts='art/kernel.config art/init.sh art/rootfs.ext2 art/manifest.json'
csvs=$(cd "$tmp" && ls base/csv head/csv | grep '\.csv$' | sort -u | sed 's|^|csv/|')
for f in stdout json-flight trace.json slo.json metrics.json metrics.json.prom $csvs $(echo "$clis" | awk '{ print $1 }') $artifacts; do
    if cmp -s "$tmp/base/$f" "$tmp/head/$f"; then
        echo "same    $f"
        continue
    fi
    echo "DIFFERS $f"
    status=1
    if [ "$f" = stdout ]; then
        for id in $(cat "$tmp/base/stdout" "$tmp/head/stdout" | awk '/^# / { print $2 } /^flight recorder: / { print "flight" }' | sort -u); do
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
