package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the Chrome exporter golden files")

// TestChromeGolden pins the virtual-timeline export byte for byte: field
// order, indentation, timestamp formatting. The export of a deterministic
// simulation must be reproducible, so any diff here is either a format
// change (regenerate with -update and review the diff) or a determinism
// regression (fix the code).
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, testData(), TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_virtual.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run ChromeGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export differs from golden file %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestChromeDeterministic double-checks the golden property at the source:
// two exports of the same snapshot are identical.
func TestChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	d := testData()
	if err := WriteChrome(&a, d, TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, d, TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of one snapshot differ")
	}
}

// TestChromeStructure validates the trace-event schema the viewers
// require: parseable JSON, metadata events first, complete events with
// durations, instants with a scope.
func TestChromeStructure(t *testing.T) {
	var buf bytes.Buffer
	d := testData()
	if err := WriteChrome(&buf, d, TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	// One process_name plus one thread_name per rank, before any event.
	nmeta := 1 + d.NumRanks()
	if len(f.Events) != nmeta+len(d.Events()) {
		t.Fatalf("got %d entries, want %d", len(f.Events), nmeta+len(d.Events()))
	}
	for i := 0; i < nmeta; i++ {
		if f.Events[i].Ph != "M" {
			t.Fatalf("entry %d is %q, want metadata", i, f.Events[i].Ph)
		}
	}
	for _, e := range f.Events[nmeta:] {
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Errorf("complete event %q has no duration", e.Name)
			}
		case "i":
			if e.S == "" {
				t.Errorf("instant %q has no scope", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
}

// TestChromeVirtualOmitsWallClock guards the determinism contract: the
// virtual export must not leak the (non-deterministic) wall-clock fields.
// Two snapshots that differ only in wall times export identically.
func TestChromeVirtualOmitsWallClock(t *testing.T) {
	a, b := testData(), testData()
	for r := range b.PerRank {
		for i := range b.PerRank[r] {
			b.PerRank[r][i].WallStart += 12345
			b.PerRank[r][i].WallEnd += 99999
		}
	}
	var bufA, bufB bytes.Buffer
	if err := WriteChrome(&bufA, a, TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&bufB, b, TimelineVirtual); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("wall-clock values leaked into the virtual export")
	}
}
