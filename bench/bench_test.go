package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// None of these tests asserts a wall-clock value: they check arithmetic,
// generators, verification and the shape of the output.

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := samplesBeyond(len(xs), 90); got != 1 {
		t.Errorf("samplesBeyond(10, 90) = %d, want 1", got)
	}
	if got := samplesBeyond(1920, 90); got != 192 {
		t.Errorf("samplesBeyond(1920, 90) = %d, want 192", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	// Median of trials: the middle trial wins, an outlier does not move it.
	if got := median([]float64{151.2, 98.0, 149.9}); got != 149.9 {
		t.Errorf("median of three trials = %v, want 149.9", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("no samples must give NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if q1, q3 = quartiles([]float64{10, 12, 11}); q1 != 10 || q3 != 12 {
		t.Errorf("quartiles of three = %v, %v, want 10, 12", q1, q3)
	}
	if got := spread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread = %v, want 2/11", got)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{"ops_per_s", "1/s", true, 0.25, 0.08}
	mark := func(d metricDef, a, b []float64) string {
		_, _, _, m := d.verdict(a, b)
		return m
	}
	steady := []float64{100, 101, 99, 100, 102}
	if got := mark(d, steady, steady); got != "PASS" {
		t.Errorf("identical steady sets: %s, want PASS", got)
	}
	slower := []float64{70, 71, 69, 70, 72}
	if worse, _, _, got := d.verdict(steady, slower); got != "FAIL" || worse < 0.25 {
		t.Errorf("a 30 %% drop of a higher-is-better metric: %s (worse = %v), want FAIL", got, worse)
	}
	if got := mark(d, slower, steady); got != "PASS" {
		t.Errorf("an improvement: %s, want PASS", got)
	}
	loose := []float64{94, 106, 100, 97, 103} // spread 9 %: inside the bound, beyond the claim
	if got := mark(d, loose, loose); got != "UNRESOLVED" {
		t.Errorf("a spread between claim and bound: %s, want UNRESOLVED", got)
	}
	wide := []float64{70, 130, 100, 85, 115}
	if got := mark(d, wide, wide); got != "FAIL" {
		t.Errorf("a spread beyond the bound: %s, want FAIL", got)
	}
	setup := metricDef{"setup_s", "s", false, 0.25, 0.10}
	if got := mark(setup, wide, wide); got != "PASS" {
		t.Errorf("setup_s is exempt from the spread tests, got %s", got)
	}
	same := map[string][]float64{"sim_s_per_op": {1.5, 2.5}, "alloc_kb_per_op": {100, 200}}
	if err := sameSeedAgrees(same, same); err != nil {
		t.Error(err)
	}
	off := map[string][]float64{"sim_s_per_op": {1.5, 2.5000000000000004}, "alloc_kb_per_op": {100, 200}}
	if sameSeedAgrees(same, off) == nil {
		t.Error("one bit of difference in sim_s_per_op between the two runs of a seed must be an error")
	}
	off = map[string][]float64{"sim_s_per_op": {1.5, 2.5}, "alloc_kb_per_op": {100, 205}}
	if sameSeedAgrees(same, off) == nil {
		t.Error("alloc_kb_per_op 2.5 % apart between the two runs of a seed must be an error")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},  // overlaps a: counted once
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120}, // sticks out: clipped to the parent
		{Name: "leaf", Parent: 1, StartNS: 15, EndNS: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *tracer
	off.end(off.begin("x", "y", 0, -1)) // tracing off is a no-op, not a crash
	off.count("n", 1)
}

// classCounts tallies the job mix by class; the wide-cluster specs are
// their own class whatever app they run.
func classCounts(seed uint64) map[string]int {
	counts := make(map[string]int)
	for _, s := range jobSpecs(seed) {
		if s.Cluster != nil {
			counts["wide"]++
		} else {
			counts[s.App]++
		}
	}
	return counts
}

func TestSpecGenerator(t *testing.T) {
	a, _ := json.Marshal(jobSpecs(7))
	b, _ := json.Marshal(jobSpecs(7))
	c, _ := json.Marshal(jobSpecs(8))
	if !bytes.Equal(a, b) {
		t.Error("the same seed must give identical specs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds must give different specs")
	}
	want := map[string]int{"em3d": mixEM3D, "jacobi": mixJacobi, "matmul": mixMatmul, "wide": mixWide}
	for _, seed := range []uint64{1, 7, 8, 1 << 40} {
		if got := classCounts(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: class counts %v, want %v", seed, got, want)
		}
		seen := make(map[string]bool)
		for _, s := range jobSpecs(seed) {
			s.Tenant = "" // distinct as jobs, not merely as tenants
			key, _ := json.Marshal(s)
			if seen[string(key)] {
				t.Errorf("seed %d: duplicate spec %s", seed, key)
			}
			seen[string(key)] = true
		}
	}
	p1, _ := json.Marshal(paperSpecs(7))
	p2, _ := json.Marshal(paperSpecs(7))
	p3, _ := json.Marshal(paperSpecs(8))
	if !bytes.Equal(p1, p2) || bytes.Equal(p1, p3) || len(paperSpecs(7)) != 6 {
		t.Error("paperSpecs: want six specs, identical per seed, different across seeds")
	}
	m1, m2 := newMsgInputs(3, 9), newMsgInputs(3, 9)
	if !reflect.DeepEqual(m1.sum, m2.sum) || reflect.DeepEqual(m1.sum, newMsgInputs(4, 9).sum) {
		t.Error("message payloads must follow the seed")
	}
}

func TestOpsAreWholeCycles(t *testing.T) {
	contractSeconds := readContract(t).RunSeconds
	for _, w := range workloads {
		for _, seconds := range []float64{0.2, 2, contractSeconds, 25} {
			ops := w.ops(seconds, trials)
			if ops <= 0 || ops%(trials*w.cycle) != 0 {
				t.Errorf("%s: %d ops at %v s is not a whole number of cycles per trial", w.name, ops, seconds)
			}
		}
		ops := w.ops(contractSeconds, trials)
		if beyond := samplesBeyond(ops, 90); ops < 150 || beyond < 15 {
			t.Errorf("%s: %d ops, %d samples beyond p90 at the contract's run length; want >= 150 and >= 15", w.name, ops, beyond)
		}
	}
}

// simOf runs one workload briefly and returns its sim_s_per_op.
func simOf(t *testing.T, workload string, seed uint64) float64 {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 0.2, trials: 1, outDir: t.TempDir()}
	if err := run(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	return lastReport(t, out.Bytes()).Metrics["sim_s_per_op"].Value
}

func TestSameSeedSameSimulatedTime(t *testing.T) {
	a, b, c := simOf(t, "msg-inproc", 5), simOf(t, "msg-inproc", 5), simOf(t, "msg-inproc", 6)
	if a != b {
		t.Errorf("sim_s_per_op of seed 5 is %v on one run and %v on the next", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 simulate the same time %v; the seed must reach the inputs", a)
	}
}

// lastReport parses the final stdout line of a run.
func lastReport(t *testing.T, out []byte) report {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return rep
}

func TestCorruptReferenceFailsTheRun(t *testing.T) {
	var out bytes.Buffer
	o := options{workload: "select-cold", seed: 1, seconds: 0.2, trials: 3, outDir: t.TempDir()}
	o.afterSetup = func(e *env) { e.refs[0].makespan *= 1.0000001 }
	err := run(o, &out, io.Discard)
	if err == nil {
		t.Fatal("a run with a corrupted reference must return an error (main exits non-zero on it)")
	}
	rep := lastReport(t, out.Bytes())
	// Spec 0 comes round once per cycle: once in each of the three trials.
	if rep.Correct || rep.Failed != 3 || rep.Attempted != 3*mixSize {
		t.Errorf("report %+v: want correct=false with 3 failed ops of %d", rep, 3*mixSize)
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesTheCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		better := map[bool]string{true: "higher", false: "lower"}[d.higher]
		if m := c.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, the code %+v", i, m, d)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	var out bytes.Buffer
	o := options{seed: 1, seconds: 20, outDir: t.TempDir()}
	if err := smoke(o, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Five workloads and one traced run, each a context line and a result.
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 2*(len(workloads)+1) {
		t.Fatalf("%d output lines, want %d", len(lines), 2*(len(workloads)+1))
	}
	c := readContract(t)
	for i := 1; i < len(lines); i += 2 {
		rep := lastReport(t, lines[i])
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("run %d: %+v", i/2, rep)
		}
		got := make(map[string]string)
		for name, m := range rep.Metrics {
			got[name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("run %d: %s = %v", i/2, name, m.Value)
			}
		}
		want := make(map[string]string)
		if i/2 < len(workloads) {
			for _, m := range c.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range c.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d prints metrics\n%v\nBENCHMARK.json lists\n%v", i/2, sortedKeys(got), sortedKeys(want))
		}
	}
	// The message workloads simulate the same time on both transports.
	sim := func(i int) float64 { return lastReport(t, lines[2*i+1]).Metrics["sim_s_per_op"].Value }
	if sim(3) != sim(4) {
		t.Errorf("sim_s_per_op: msg-inproc %v, msg-tcp %v", sim(3), sim(4))
	}
	if _, err := os.Stat(o.outDir + "/trace-svc-repeat.json"); err != nil {
		t.Errorf("the traced run left no span file: %v", err)
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
