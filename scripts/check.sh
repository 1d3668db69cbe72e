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

# The concurrency-sensitive planes (the simclock event engine, fleet,
# network fabric, supervisor, snapshot store, memory accountant, guest
# balloon, telemetry plane, multi-region control plane, build pipeline
# + farm, attack plane, SLO plane) and the experiment harness, whose
# storm tests run in parallel each under its own Env, get a second
# racing pass with fresh test binaries: -count=2 defeats result caching
# and shakes out run-to-run nondeterminism and state shared between
# concurrent storms, both of which the bit-for-bit replay guarantees
# forbid.
echo "== go test -race -count=2 (simclock, fleet, fabric, vmm, snapshot, hostmem, guest, telemetry, region, bunny, farm, attack, slo, experiments)"
go test -race -count=2 ./internal/simclock/... ./internal/fleet/... ./internal/fabric/... \
    ./internal/vmm/... ./internal/snapshot/... ./internal/hostmem/... ./internal/guest/... \
    ./internal/telemetry/... ./internal/region/... ./internal/bunny/... ./internal/farm/... \
    ./internal/attack/... ./internal/slo/... ./internal/experiments/...

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

# Trace determinism gate: two same-seed runs of each storm must export
# byte-identical, valid Chrome trace JSON. This is the telemetry plane's
# core contract — virtual-time spans only, no wall clocks — checked on
# every plane: memory pressure (memstorm), the fabric (netsplit), the
# multi-region control plane (regionfail), the build pipeline and
# heterogeneous fleet (catalog) and the containment plane (breach).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
for storm in memstorm netsplit regionfail catalog breach; do
    echo "== trace determinism ($storm, two same-seed runs)"
    go run ./cmd/lupine-bench -run "$storm" -trace-out="$tracedir/$storm-a.json" >/dev/null
    go run ./cmd/lupine-bench -run "$storm" -trace-out="$tracedir/$storm-b.json" >/dev/null
    cmp "$tracedir/$storm-a.json" "$tracedir/$storm-b.json"
    go run ./scripts/jsoncheck.go "$tracedir/$storm-a.json"
    echo "   byte-identical and valid JSON"
done

# SLO report determinism gate: two same-seed memstorm runs must export
# byte-identical SLO reports (objectives, burns, alerts, incident cause
# chains) and byte-identical OpenMetrics text — the SLO plane's own
# virtual-time-only contract, one layer above the traces.
echo "== SLO report determinism (memstorm, two same-seed runs)"
go run ./cmd/lupine-bench -run memstorm -slo-out="$tracedir/sa.json" -metrics-out="$tracedir/ma.json" >/dev/null
go run ./cmd/lupine-bench -run memstorm -slo-out="$tracedir/sb.json" -metrics-out="$tracedir/mb.json" >/dev/null
cmp "$tracedir/sa.json" "$tracedir/sb.json"
cmp "$tracedir/ma.json.prom" "$tracedir/mb.json.prom"
go run ./scripts/jsoncheck.go "$tracedir/sa.json"
echo "   byte-identical SLO report and OpenMetrics export, valid JSON"

# Wall-clock trajectory samples: how fast this machine's event engine
# chews through the storms, with the headline availability (and p99 /
# failover-detection p99 / hit rate / containment) alongside so a perf
# fix that changes behavior shows in the same file. -bench-out appends,
# so each BENCH_<storm>.json accumulates a trajectory across runs
# instead of keeping only the latest sample.
for storm in netsplit regionfail catalog breach; do
    echo "== bench record (BENCH_$storm.json)"
    go run ./cmd/lupine-bench -bench="$storm" -bench-out="BENCH_$storm.json"
    go run ./scripts/jsoncheck.go "BENCH_$storm.json"
done

echo "== ok"
