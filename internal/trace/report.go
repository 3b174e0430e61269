package trace

// The predicted-vs-observed report: the closing of HMPI's central loop.
// HMPI_Timeof predicts an algorithm's execution time from the performance
// model before running it; the recorder captures both the prediction
// (Predict events, emitted where the application consulted the estimator)
// and what then actually happened (Region events around the predicted
// phase). The report joins the two by phase name and prints the model's
// relative error — the quantity the paper's Table A validates, now
// derivable from any recorded run.

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/vclock"
)

// PhaseReport is one named phase's prediction accuracy.
type PhaseReport struct {
	Name string `json:"phase"`
	// Predicted is the summed model forecast for the phase (seconds of
	// virtual time; Predict events add up, so a phase predicted once per
	// attempt accumulates all attempts).
	Predicted float64 `json:"predicted_s"`
	// Observed is the virtual-time span of the phase: latest region end
	// minus earliest region start across all ranks that recorded it.
	Observed float64 `json:"observed_s"`
	// RelError is (observed - predicted) / observed; negative means the
	// model overpredicted.
	RelError float64 `json:"rel_error"`
	// Regions counts the Region events joined into Observed.
	Regions int `json:"regions"`
}

// Report is the full predicted-vs-observed document for one trace.
type Report struct {
	App    string        `json:"app,omitempty"`
	Phases []PhaseReport `json:"phases"`
	// UnmatchedPredictions lists phases predicted but never observed
	// (no Region events recorded under that name).
	UnmatchedPredictions []string `json:"unmatched_predictions,omitempty"`
	// UnmatchedRegions lists phases observed but never predicted.
	UnmatchedRegions []string `json:"unmatched_regions,omitempty"`
}

// BuildReport joins the snapshot's Predict and Region events by phase
// name. Phases appear sorted by name, so the report is deterministic.
func BuildReport(d *Data) *Report {
	type phase struct {
		predicted  float64
		npredicted int
		lo, hi     vclock.Time
		regions    int
	}
	phases := make(map[string]*phase)
	get := func(name string) *phase {
		p := phases[name]
		if p == nil {
			p = &phase{lo: vclock.Time(math.Inf(1)), hi: vclock.Time(math.Inf(-1))}
			phases[name] = p
		}
		return p
	}
	for _, evs := range d.PerRank {
		for i := range evs {
			e := &evs[i]
			switch e.Kind {
			case KindPredict:
				p := get(e.Name)
				p.predicted += BitsFloat(e.A0)
				p.npredicted++
			case KindRegion:
				p := get(e.Name)
				p.regions++
				if e.Start < p.lo {
					p.lo = e.Start
				}
				if e.End > p.hi {
					p.hi = e.End
				}
			}
		}
	}
	rep := &Report{App: d.Meta.App}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := phases[name]
		switch {
		case p.npredicted == 0:
			rep.UnmatchedRegions = append(rep.UnmatchedRegions, name)
		case p.regions == 0:
			rep.UnmatchedPredictions = append(rep.UnmatchedPredictions, name)
		default:
			observed := float64(p.hi - p.lo)
			pr := PhaseReport{
				Name:      name,
				Predicted: p.predicted,
				Observed:  observed,
				Regions:   p.regions,
			}
			if observed != 0 {
				pr.RelError = (observed - p.predicted) / observed
			}
			rep.Phases = append(rep.Phases, pr)
		}
	}
	return rep
}

// Render prints the report as an aligned table.
func (r *Report) Render(w io.Writer) error {
	if r.App != "" {
		if _, err := fmt.Fprintf(w, "predicted vs observed — %s\n", r.App); err != nil {
			return err
		}
	}
	if len(r.Phases) == 0 {
		if _, err := fmt.Fprintln(w, "(no phase has both a prediction and an observation)"); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "%-20s %14s %14s %10s %8s\n", "phase", "predicted_s", "observed_s", "rel_err", "regions"); err != nil {
			return err
		}
		for _, p := range r.Phases {
			if _, err := fmt.Fprintf(w, "%-20s %14.6g %14.6g %+9.1f%% %8d\n",
				p.Name, p.Predicted, p.Observed, 100*p.RelError, p.Regions); err != nil {
				return err
			}
		}
	}
	for _, name := range r.UnmatchedPredictions {
		if _, err := fmt.Fprintf(w, "note: phase %q was predicted but never observed\n", name); err != nil {
			return err
		}
	}
	for _, name := range r.UnmatchedRegions {
		if _, err := fmt.Fprintf(w, "note: phase %q was observed but never predicted\n", name); err != nil {
			return err
		}
	}
	return nil
}
