package slo

// The report is the experiment-facing export: per scope (one observed
// row), per objective, the final compliance, every rule's worst burn,
// and the alert and incident timelines. All fields are derived from
// virtual-time state only, and render through encoding/json with sorted
// construction, so two same-seed runs emit byte-identical reports —
// TestWatchingDoesNotChangeStorms in internal/experiments pins every
// storm's report by sha256.

import (
	"encoding/json"
	"strings"

	"lupine/internal/simclock"
)

// Report is one experiment's SLO report: every scope it observed.
type Report struct {
	Experiment string        `json:"experiment"`
	Seed       uint64        `json:"seed"`
	Scopes     []ScopeReport `json:"scopes"`
}

// ScopeReport summarizes one scope.
type ScopeReport struct {
	Track         string            `json:"track"`
	SampleEveryUS float64           `json:"sample_every_us"`
	Samples       int               `json:"samples"`
	EndUS         float64           `json:"end_us"`
	Objectives    []ObjectiveReport `json:"objectives"`
}

// ObjectiveReport summarizes one objective inside a scope.
type ObjectiveReport struct {
	Name            string           `json:"name"`
	SLI             string           `json:"sli"`
	Target          float64          `json:"target"`
	Good            int64            `json:"good"`
	Bad             int64            `json:"bad"`
	Compliance      float64          `json:"compliance"`
	ErrorBudgetUsed float64          `json:"error_budget_used"`
	Rules           []RuleReport     `json:"rules"`
	Alerts          []AlertReport    `json:"alerts,omitempty"`
	Incidents       []IncidentReport `json:"incidents,omitempty"`
}

// RuleReport is one burn rule's configuration and worst observed burn.
type RuleReport struct {
	Name      string  `json:"name"`
	LongUS    float64 `json:"long_us"`
	ShortUS   float64 `json:"short_us"`
	MaxBurn   float64 `json:"max_burn"`
	WorstBurn float64 `json:"worst_burn"`
	Fired     int     `json:"fired"`
}

// AlertReport is one alert on the timeline. ClearedAtUS is negative
// when the rule was still firing at Finish.
type AlertReport struct {
	Rule        string  `json:"rule"`
	AtUS        float64 `json:"at_us"`
	ClearedAtUS float64 `json:"cleared_at_us"`
	Burn        float64 `json:"burn"`
	PeakBurn    float64 `json:"peak_burn"`
}

// IncidentReport is one incident with its ranked cause chain.
type IncidentReport struct {
	Rule   string        `json:"rule"`
	AtUS   float64       `json:"at_us"`
	Causes []CauseReport `json:"causes"`
}

// CauseReport is one aggregated cause.
type CauseReport struct {
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	LastUS float64 `json:"last_us"`
}

func us(t simclock.Time) float64 { return float64(t) / float64(simclock.Microsecond) }

// sliDesc renders the SLI definition for the report.
func sliDesc(o Objective) string {
	if o.Hist != "" {
		return "latency(" + o.Hist + " <= " + o.Threshold.String() + ")"
	}
	return "ratio(good=" + strings.Join(o.Good, "+") + ", bad=" + strings.Join(o.Bad, "+") + ")"
}

// Report snapshots the scope. Call after Finish; calling mid-run
// reports the state so far (open alerts not yet materialized).
func (s *Scope) Report() ScopeReport {
	sr := ScopeReport{
		Track:         s.track,
		SampleEveryUS: float64(s.every) / float64(simclock.Microsecond),
		Samples:       s.samples,
		EndUS:         us(s.lastAt),
		Objectives:    []ObjectiveReport{},
	}
	for _, st := range s.objs {
		var g, b int64
		if n := len(st.good); n > 0 {
			g, b = st.good[n-1], st.bad[n-1]
		}
		or := ObjectiveReport{
			Name:   st.o.Name,
			SLI:    sliDesc(st.o),
			Target: st.o.Target,
			Good:   g,
			Bad:    b,
			// A stream that never saw an event is vacuously compliant.
			Compliance:      1,
			ErrorBudgetUsed: 0,
		}
		if total := g + b; total > 0 {
			or.Compliance = float64(g) / float64(total)
			or.ErrorBudgetUsed = (float64(b) / float64(total)) / (1 - st.o.Target)
		}
		for ri, r := range st.o.Rules {
			or.Rules = append(or.Rules, RuleReport{
				Name:      r.Name,
				LongUS:    r.Long.Microseconds(),
				ShortUS:   r.Short.Microseconds(),
				MaxBurn:   r.MaxBurn,
				WorstBurn: st.worst[ri],
				Fired:     st.fired[ri],
			})
		}
		for _, a := range st.alerts {
			ar := AlertReport{Rule: a.Rule, AtUS: us(a.At), ClearedAtUS: -1, Burn: a.Burn, PeakBurn: a.Peak}
			if a.ClearedAt >= 0 {
				ar.ClearedAtUS = us(a.ClearedAt)
			}
			or.Alerts = append(or.Alerts, ar)
		}
		for _, in := range st.incidents {
			ir := IncidentReport{Rule: in.Rule, AtUS: us(in.At), Causes: []CauseReport{}}
			for _, c := range in.Causes {
				ir.Causes = append(ir.Causes, CauseReport{Kind: c.Kind, Name: c.Name, Count: c.Count, LastUS: us(c.LastAt)})
			}
			or.Incidents = append(or.Incidents, ir)
		}
		sr.Objectives = append(sr.Objectives, or)
	}
	return sr
}

// JSON renders the report deterministically (indented, newline-
// terminated, like the registry's JSON export).
func (r *Report) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// Scope finds a scope report by track ("" returns the first); nil if
// absent.
func (r *Report) Scope(track string) *ScopeReport {
	for i := range r.Scopes {
		if track == "" || r.Scopes[i].Track == track {
			return &r.Scopes[i]
		}
	}
	return nil
}

// Objective finds an objective report by name; nil if absent.
func (sr *ScopeReport) Objective(name string) *ObjectiveReport {
	if sr == nil {
		return nil
	}
	for i := range sr.Objectives {
		if sr.Objectives[i].Name == name {
			return &sr.Objectives[i]
		}
	}
	return nil
}

// Fired sums rising edges across the objective's rules.
func (or *ObjectiveReport) Fired() int {
	if or == nil {
		return 0
	}
	n := 0
	for _, r := range or.Rules {
		n += r.Fired
	}
	return n
}

// FirstAlert returns the earliest alert; nil if none fired.
func (or *ObjectiveReport) FirstAlert() *AlertReport {
	if or == nil || len(or.Alerts) == 0 {
		return nil
	}
	first := &or.Alerts[0]
	for i := range or.Alerts {
		if or.Alerts[i].AtUS < first.AtUS {
			first = &or.Alerts[i]
		}
	}
	return first
}

// HasCause reports whether any incident's cause chain names the given
// fault site or "<cat>/<name>" event.
func (or *ObjectiveReport) HasCause(name string) bool {
	if or == nil {
		return false
	}
	for _, in := range or.Incidents {
		for _, c := range in.Causes {
			if c.Name == name {
				return true
			}
		}
	}
	return false
}
