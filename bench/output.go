package main

// An iteration's simulated outputs, rendered canonically. Every
// iteration of a run must render the same lines as the run's first, a
// traced iteration the same as an untraced one, and at seed 42 the
// lines must hash to the digest pinned in pinned.go.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"lupine/internal/fabric"
	"lupine/internal/fleet"
	"lupine/internal/region"
)

type output struct {
	lines  []string
	rows   []requestRow
	events int                // the workload's simulated events; the numerator of events_per_s
	hero   map[string]float64 // behaviour fields of the headline row, as BENCH_*.json records them
}

// requestRow is one fleet or region row's request accounting.
type requestRow struct {
	name                    string
	total, ok, shed, failed int
	events                  int
}

func (o *output) line(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func (o *output) digest() string {
	sum := sha256.Sum256([]byte(strings.Join(o.lines, "\n")))
	return hex.EncodeToString(sum[:16])
}

// invariants holds at every seed: each request resolves exactly once as
// served, shed or failed, and every row and the workload as a whole
// executed events.
func (o *output) invariants() error {
	if o.events <= 0 {
		return fmt.Errorf("no simulated events")
	}
	for _, r := range o.rows {
		if r.total != r.ok+r.shed+r.failed {
			return fmt.Errorf("row %s: total %d != ok %d + shed %d + failed %d", r.name, r.total, r.ok, r.shed, r.failed)
		}
		if r.events <= 0 {
			return fmt.Errorf("row %s: no events", r.name)
		}
	}
	return nil
}

func (o *output) fleetRow(name string, r fleet.Result, ns fabric.Stats, recovered bool) {
	o.line("fleet %s total=%d ok=%d shed=%d failed=%d deadline_miss=%d retries=%d budget_denied=%d"+
		" opens=%d false_trips=%d rexmits=%d events=%d restarts=%d min_active=%d p50=%d p99=%d end=%d"+
		" segments=%d delivered=%d dropped=%d recovered=%t",
		name, r.Total, r.OK, r.Shed, r.Failed, r.DeadlineMiss, r.Retries, r.BudgetDenied,
		r.BreakerOpens, r.FalseTrips, r.Retransmits, r.Events, r.Restarts, r.MinActive,
		r.Percentile(50), r.Percentile(99), r.End, ns.Segments, ns.Delivered, ns.Dropped, recovered)
	o.rows = append(o.rows, requestRow{name, r.Total, r.OK, r.Shed, r.Failed, r.Events})
	o.events += r.Events
}

func (o *output) regionRow(name string, r region.Result) {
	shed := make([]string, len(r.PerRegion))
	for i, rs := range r.PerRegion {
		shed[i] = fmt.Sprint(rs.Shed)
	}
	o.line("region %s total=%d ok=%d shed=%d failed=%d events=%d p99=%d placed=%d denied=%d"+
		" failovers=%d false_trips=%d rejoins=%d detect_p99=%d evacuated=%d evac=%d/%d/%d evac_p50=%d"+
		" evac_wall=%d crashes=%d crash_killed=%d crash_recovered=%d unrecovered=%d upgraded=%d"+
		" region_shed=%s end=%d",
		name, r.Total, r.OK, r.Shed, r.Failed, r.Events, r.Percentile(99), r.Placed, r.PlacementDenied,
		r.Failovers, r.FalseTrips, r.Rejoins, r.DetectPercentile(99), r.Evacuated,
		r.EvacRestores, r.EvacFallbacks, r.EvacCold, r.EvacReadyPercentile(50), r.EvacDuration(),
		r.HostCrashes, r.CrashKilled, r.CrashRecovered, r.Unrecovered, r.Upgraded,
		strings.Join(shed, "/"), r.End)
	o.rows = append(o.rows, requestRow{name, r.Total, r.OK, r.Shed, r.Failed, r.Events})
	o.events += r.Events
}

func (o *output) sloRow(sc *scoped) {
	o.line("slo %s alerts=%d incidents=%d", sc.track, len(sc.scope.Alerts()), len(sc.scope.Incidents()))
}
