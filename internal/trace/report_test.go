package trace

import (
	"math"
	"strings"
	"testing"
)

func TestBuildReportJoinsByPhase(t *testing.T) {
	d := &Data{
		Meta: Meta{App: "unit", NRanks: 2},
		PerRank: [][]Event{
			{
				{Rank: 0, Kind: KindPredict, Peer: -1, Name: "solve", Start: 0, End: 0, A0: FloatBits(1.0)},
				{Rank: 0, Kind: KindRegion, Peer: -1, Name: "solve", Start: 0, End: 1.0},
				// Predicted but never observed.
				{Rank: 0, Kind: KindPredict, Peer: -1, Name: "ghost", Start: 0, End: 0, A0: FloatBits(2.0)},
			},
			{
				// The observed span is the union across ranks: [0, 1.2].
				{Rank: 1, Kind: KindRegion, Peer: -1, Name: "solve", Start: 0.1, End: 1.2},
				// Observed but never predicted.
				{Rank: 1, Kind: KindRegion, Peer: -1, Name: "setup", Start: 0, End: 0.5},
			},
		},
	}
	rep := BuildReport(d)
	if rep.App != "unit" {
		t.Errorf("app = %q", rep.App)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("got %d matched phases, want 1: %+v", len(rep.Phases), rep.Phases)
	}
	p := rep.Phases[0]
	if p.Name != "solve" || p.Predicted != 1.0 || p.Regions != 2 {
		t.Fatalf("phase = %+v", p)
	}
	if math.Abs(p.Observed-1.2) > 1e-12 {
		t.Errorf("observed = %v, want 1.2", p.Observed)
	}
	wantRel := (1.2 - 1.0) / 1.2
	if math.Abs(p.RelError-wantRel) > 1e-12 {
		t.Errorf("rel error = %v, want %v", p.RelError, wantRel)
	}
	if len(rep.UnmatchedPredictions) != 1 || rep.UnmatchedPredictions[0] != "ghost" {
		t.Errorf("unmatched predictions = %v", rep.UnmatchedPredictions)
	}
	if len(rep.UnmatchedRegions) != 1 || rep.UnmatchedRegions[0] != "setup" {
		t.Errorf("unmatched regions = %v", rep.UnmatchedRegions)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"solve", `phase "ghost" was predicted but never observed`, `phase "setup" was observed but never predicted`} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBuildReportAccumulatesPredictions(t *testing.T) {
	d := &Data{
		Meta: Meta{NRanks: 1},
		PerRank: [][]Event{
			{
				{Rank: 0, Kind: KindPredict, Peer: -1, Name: "iter", A0: FloatBits(0.5)},
				{Rank: 0, Kind: KindPredict, Peer: -1, Name: "iter", A0: FloatBits(0.25)},
				{Rank: 0, Kind: KindRegion, Peer: -1, Name: "iter", Start: 0, End: 1},
			},
		},
	}
	rep := BuildReport(d)
	if len(rep.Phases) != 1 || rep.Phases[0].Predicted != 0.75 {
		t.Fatalf("phases = %+v", rep.Phases)
	}
}

func TestBuildReportEmpty(t *testing.T) {
	rep := BuildReport(&Data{Meta: Meta{NRanks: 1}, PerRank: [][]Event{{}}})
	if len(rep.Phases) != 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no phase") {
		t.Errorf("render: %q", sb.String())
	}
}
