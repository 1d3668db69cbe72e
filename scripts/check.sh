#!/bin/sh
# Pre-PR gate: formatting, vet, and the full test suite under the race
# detector. Run from the repository root:  ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race ./...

# The benchmark is its own module (bench/go.mod), so ./... from the root
# never reaches it: vet and test it explicitly, or a change to an API it
# compiles against would pass this gate and break the benchmark.
echo "== bench module: go vet, go test"
go -C bench vet ./...
go -C bench test ./...

# The concurrency-sensitive planes (the simclock event engine, fleet,
# network fabric, supervisor, snapshot store, memory accountant, guest
# balloon, telemetry plane, multi-region control plane, build pipeline
# + farm, attack plane, SLO plane), the experiment harness, whose storm
# tests run in parallel each under its own Env, and the image path
# (core, ext2, rootfs), whose images point at the process-wide synth
# cache instead of copying it, get a second racing pass with fresh test
# binaries: -count=2 defeats result caching and shakes out run-to-run
# nondeterminism and state shared between concurrent storms or guests,
# both of which the bit-for-bit replay guarantees forbid.
echo "== go test -race -count=2 (simclock, fleet, fabric, vmm, snapshot, hostmem, guest, telemetry, region, bunny, farm, attack, slo, experiments, core, ext2, rootfs)"
go test -race -count=2 ./internal/simclock/... ./internal/fleet/... ./internal/fabric/... \
    ./internal/vmm/... ./internal/snapshot/... ./internal/hostmem/... ./internal/guest/... \
    ./internal/telemetry/... ./internal/region/... ./internal/bunny/... ./internal/farm/... \
    ./internal/attack/... ./internal/slo/... ./internal/experiments/... \
    ./internal/core/... ./internal/ext2/... ./internal/rootfs/...

# Short runs of the fuzz targets, beyond the seeds go test already ran:
# the ext2 image round trip, the resolver and the SLO incident
# attribution each held to its full-scan reference, the guest's epoll
# interest set and descriptor table held to their map versions, the
# flight dumps read back from the trace held to the per-track ring they
# replaced, and the engine's timer lanes held to posting every timer
# into the heap.
# Each writes into the tree (testdata/fuzz/) only when it finds a
# crasher, which then fails CI's clean-tree check. -fuzzminimizetime 1x
# bounds the minimization of each input that finds new coverage to one
# run: by default a worker spends up to 60 s shrinking it, in runs the
# progress line does not count, so a 10 s smoke sat at 0 execs/s for
# most of its time. A crasher is still written, only less minimized.
for smoke in ./internal/ext2:FuzzImageRoundTrip ./internal/kconfig:FuzzResolveMatchesFullScan \
    ./internal/slo:FuzzAttributionMatchesFullScan ./internal/guest:FuzzEpollMatchesMap \
    ./internal/telemetry:FuzzDumpsMatchRing ./internal/simclock:FuzzLaneMatchesPost; do
    pkg=${smoke%%:*}
    target=${smoke#*:}
    echo "== fuzz smoke ($target, 10s)"
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime 1x "$pkg"
done

# Every registered fault site must surface in the operator-facing
# catalog: the count of RegisterSite calls in non-test source must match
# what lupine-bench -list-faults prints (sites are the indented lines
# under each subsystem heading), or a new site shipped without being
# discoverable.
echo "== fault-site catalog"
registered=$(grep -rh --include='*.go' --exclude='*_test.go' 'faults\.RegisterSite(' internal/ | wc -l)
listed=$(go run ./cmd/lupine-bench -list-faults | grep -c '^  ')
if [ "$registered" -ne "$listed" ]; then
    echo "fault-site catalog mismatch: $registered RegisterSite calls in internal/, $listed listed by -list-faults" >&2
    exit 1
fi
echo "   $listed sites registered and listed"

# Telemetry export gate. Determinism is pinned in tier-1:
# TestWatchingDoesNotChangeStorms holds every storm's seed-42 table, SLO
# report, Chrome trace and OpenMetrics text to fixed sha256 digests, so
# every run in every process must reproduce them, and it checks that the
# trace and the report are valid JSON. One regionfail run here drives the
# CLI's export path end to end: every JSON file it writes must parse.
echo "== telemetry export (regionfail)"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/lupine-bench -run regionfail -trace-out="$tracedir/trace.json" \
    -slo-out="$tracedir/slo.json" -metrics-out="$tracedir/metrics.json" >/dev/null
go run ./scripts/jsoncheck.go "$tracedir/trace.json" "$tracedir/slo.json" "$tracedir/metrics.json"
echo "   valid trace, SLO report and metrics JSON"

echo "== ok"
