package pmdl

import (
	"strings"
	"testing"
)

// evalModel compiles a one-processor model whose node volume is the
// expression under test and returns the evaluated volume.
func evalVolume(t *testing.T, expr string, hosts map[string]HostFunc) float64 {
	t.Helper()
	src := `algorithm E(int p, int a, int b, double f) {
	  coord I=p;
	  node {I>=0: bench*(` + expr + `);};
	  parent[0];
	  scheme { };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	for name, fn := range hosts {
		m.hosts[name] = fn
	}
	inst, err := m.Instantiate(1, 7, 3, 2.5)
	if err != nil {
		t.Fatalf("instantiate %q: %v", expr, err)
	}
	return inst.CompVolume[0]
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"a+b", 10},
		{"a-b", 4},
		{"a*b", 21},
		{"a/b", 2},      // C integer division truncates
		{"a%b", 1},      // C modulo
		{"b-a", -4 + 5}, // volumes must be >= 0; -4 would error, so +5... see below
		{"a/b*b", 6},    // (7/3)*3 == 6, not 7
		{"f*a", 17.5},   // mixed promotes to double
		{"f+f", 5},
		{"a/f", 2.8},          // int/double is real division
		{"sizeof(double)", 8}, // bytes
		{"sizeof(int)", 4},    // bytes
		{"a == 7", 1},         // comparisons are int 0/1
		{"a != 7", 0},
		{"a < b || b < a", 1}, // short-circuit logicals
		{"a > 0 && b > 0", 1},
		{"!(a > 0)", 0},
		{"-b + a", 4},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if tc.expr == "b-a" {
				return // placeholder; negative volumes tested separately
			}
			if got := evalVolume(t, tc.expr, nil); got != tc.want {
				t.Fatalf("%s = %v, want %v", tc.expr, got, tc.want)
			}
		})
	}
}

func TestNegativeVolumeRejected(t *testing.T) {
	src := `algorithm E(int p) { coord I=p; node {I>=0: bench*(0-5);}; parent[0]; scheme { }; }`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Instantiate(1); err == nil {
		t.Fatal("negative node volume accepted")
	}
}

func TestDivisionByZeroRejected(t *testing.T) {
	for _, expr := range []string{"a/(b-3)", "a%(b-3)"} {
		src := `algorithm E(int p, int a, int b) { coord I=p; node {I>=0: bench*(` + expr + `);}; parent[0]; scheme { }; }`
		m, err := ParseModel(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Instantiate(1, 7, 3); err == nil {
			t.Fatalf("%s with zero divisor accepted", expr)
		}
	}
}

// schemeSideEffects interprets a scheme that exercises declarations,
// assignments, compound assignment, increments, struct copies and loops,
// then checks the generated actions.
func TestSchemeSideEffects(t *testing.T) {
	src := `typedef struct {int I; int J;} P;
	algorithm E(int p) {
	  coord I=p;
	  node {I>=0: bench*(100);};
	  parent[0];
	  scheme {
	    int acc, i;
	    P a, b;
	    acc = 0;
	    for (i = 0; i < 4; i++) acc += 2;          // acc = 8
	    acc -= 3;                                   // acc = 5
	    a.I = acc;
	    b = a;                                      // struct copy
	    b.I++;                                      // postfix on member
	    if (b.I == 6 && a.I == 5) (b.I*10)%%[0];    // 60% of 100 units
	  };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	if dag.Size() != 1 {
		t.Fatalf("expected 1 task, got %d", dag.Size())
	}
	if got := dag.Task(0).Units; got != 60 {
		t.Fatalf("computed units %v, want 60 (struct copy must not alias)", got)
	}
}

func TestHostFunctionWithRef(t *testing.T) {
	var got []int64
	hosts := map[string]HostFunc{
		"Probe": func(pos Pos, args []Value) (Value, error) {
			x, _ := args[0].asInt(pos)
			got = append(got, x)
			if ref := args[1]; ref.ref && ref.cell != nil {
				*ref.cell = intNum(x * 2)
			}
			return scalarValue(intNum(0)), nil
		},
	}
	src := `algorithm E(int p) {
	  coord I=p;
	  node {I>=0: bench*(10);};
	  parent[0];
	  scheme {
	    int out;
	    Probe(21, &out);
	    (out)%%[0];
	  };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range hosts {
		m.hosts[name] = fn
	}
	inst, err := m.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 21 {
		t.Fatalf("host function saw %v", got)
	}
	// out == 42 -> 42% of 10 units = 4.2
	if u := dag.Task(0).Units; u != 4.2 {
		t.Fatalf("units = %v, want 4.2", u)
	}
}

func TestParFanOutStructure(t *testing.T) {
	// par over 4 procs computing, then a second par: the second wave
	// must depend on the first through the fork/join structure.
	src := `algorithm E(int p) {
	  coord I=p;
	  node {I>=0: bench*(10);};
	  parent[0];
	  scheme {
	    int i;
	    par (i = 0; i < p; i++) 50%%[i];
	    par (i = 0; i < p; i++) 50%%[i];
	  };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(4)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	// 8 computes; possibly join nops.
	var computes, withDeps int
	for i := range dag.Size() {
		if task := dag.Task(i); task.Units > 0 {
			computes++
			if len(task.Deps) > 0 {
				withDeps++
			}
		}
	}
	if computes != 8 {
		t.Fatalf("computes = %d", computes)
	}
	// The second wave's four tasks must each depend on the first wave.
	if withDeps != 4 {
		t.Fatalf("tasks with dependencies = %d, want 4", withDeps)
	}
}

func TestLinkConflictDetected(t *testing.T) {
	// Two clauses defining different volumes for the same pair.
	src := `algorithm E(int p) {
	  coord I=p;
	  link (L=p) {
	    I==0 && L==1 : length*(100) [L]->[I];
	    I==0 && L==1 : length*(200) [L]->[I];
	  };
	  parent[0];
	  scheme { };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Instantiate(2); err == nil {
		t.Fatal("conflicting link volumes accepted")
	}
}

func TestInstantiateArgChecking(t *testing.T) {
	m := MustParseModel(`algorithm E(int p, int d[p], double f) { coord I=p; parent[0]; scheme { }; }`)
	cases := []struct {
		name string
		args []any
	}{
		{"too few", []any{2}},
		{"too many", []any{2, []int{1, 2}, 1.0, 9}},
		{"wrong dim length", []any{2, []int{1, 2, 3}, 1.0}},
		{"wrong dim count", []any{2, [][]int{{1}, {2}}, 1.0}},
		{"float for int", []any{2.5, []int{1, 2}, 1.0}},
		{"scalar for array", []any{2, 7, 1.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Instantiate(tc.args...); err == nil {
				t.Fatalf("accepted %v", tc.args)
			}
		})
	}
	// Correct args work, int accepted for double.
	if _, err := m.Instantiate(2, []int{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRaggedArrayRejected(t *testing.T) {
	m := MustParseModel(`algorithm E(int p, int d[p][p]) { coord I=p; parent[0]; scheme { }; }`)
	if _, err := m.Instantiate(2, [][]int{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged array accepted")
	}
}

func TestCoordsOfRoundTrip(t *testing.T) {
	m := MustParseModel(`algorithm E(int a, int b) { coord I=a, J=b; parent[0,0]; scheme { }; }`)
	inst, err := m.Instantiate(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumProcs != 12 {
		t.Fatalf("NumProcs = %d", inst.NumProcs)
	}
	for idx := 0; idx < 12; idx++ {
		c := inst.CoordsOf(idx)
		if c[0] != idx/4 || c[1] != idx%4 {
			t.Fatalf("CoordsOf(%d) = %v", idx, c)
		}
	}
}

func TestGetProcessorBuiltinErrors(t *testing.T) {
	// Wrong arity and wrong shapes must produce errors, not panics.
	if _, err := getProcessorBuiltin(Pos{}, []Value{scalarValue(intNum(1))}); err == nil {
		t.Error("wrong arity accepted")
	}
	oneD := Value{kind: kindArray, dims: []int{1}, elems: make([]num, 1)}
	args := []Value{
		scalarValue(intNum(0)), scalarValue(intNum(0)), scalarValue(intNum(1)),
		oneD, // h must be 4-D
		oneD,
		{ref: true, cell: new(num)},
	}
	if _, err := getProcessorBuiltin(Pos{}, args); err == nil {
		t.Error("1-D h accepted")
	}
}

func TestPercentEvaluatesReal(t *testing.T) {
	// (100/n) with n=180 must not collapse to zero.
	src := wrapScheme(`int n; n = 180; (100/n)%%[0];`)
	m := MustParseModel(src)
	inst, err := m.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	if dag.Task(0).Units <= 0 {
		t.Fatalf("percentage collapsed to %v", dag.Task(0).Units)
	}
}

func TestErrorTypeRendersPosition(t *testing.T) {
	err := errf(Pos{Line: 3, Col: 7}, "boom %d", 42)
	if !strings.Contains(err.Error(), "3:7") || !strings.Contains(err.Error(), "boom 42") {
		t.Fatalf("error format: %v", err)
	}
}
