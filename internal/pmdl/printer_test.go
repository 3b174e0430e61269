package pmdl

import (
	"testing"
)

// TestFormatRoundTripPaperModels: formatting a published model and parsing
// the result must reach a fixed point, and the reformatted model must
// instantiate to identical volumes.
func TestFormatRoundTripPaperModels(t *testing.T) {
	for name, src := range map[string]string{"em3d": em3dSrc, "axb": parallelAxBSrc} {
		t.Run(name, func(t *testing.T) {
			f1, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			out1 := Format(f1)
			f2, err := Parse(out1)
			if err != nil {
				t.Fatalf("formatted source does not parse: %v\n%s", err, out1)
			}
			out2 := Format(f2)
			if out1 != out2 {
				t.Fatalf("Format not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
			}
			if _, err := compile(f2); err != nil {
				t.Fatalf("formatted source fails semantic check: %v", err)
			}
		})
	}
}

func TestFormatPreservesSemantics(t *testing.T) {
	m1, err := ParseModel(em3dSrc)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseModel(Format(m1.File))
	if err != nil {
		t.Fatal(err)
	}
	d := []int{200, 300, 500}
	dep := [][]int{{0, 10, 5}, {10, 0, 20}, {5, 20, 0}}
	i1, err := m1.Instantiate(3, 100, d, dep)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := m2.Instantiate(3, 100, d, dep)
	if err != nil {
		t.Fatal(err)
	}
	for p := range i1.CompVolume {
		if i1.CompVolume[p] != i2.CompVolume[p] {
			t.Fatalf("volumes differ at %d: %v vs %v", p, i1.CompVolume[p], i2.CompVolume[p])
		}
		for q := range i1.CommVolume[p] {
			if i1.CommVolume[p][q] != i2.CommVolume[p][q] {
				t.Fatalf("comm volumes differ at (%d,%d)", p, q)
			}
		}
	}
	// The scheme DAGs are structurally identical.
	d1, err := i1.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := i2.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Size() != d2.Size() {
		t.Fatalf("DAG sizes differ: %d vs %d", d1.Size(), d2.Size())
	}
	for i := range d1.Size() {
		a, b := d1.Task(i), d2.Task(i)
		if a.Kind != b.Kind || a.Proc != b.Proc || a.Src != b.Src || a.Dst != b.Dst ||
			a.Units != b.Units || a.Bytes != b.Bytes {
			t.Fatalf("task %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestFormatExpressionForms(t *testing.T) {
	// A model exercising every expression form the printer handles.
	src := `typedef struct {int I; int J;} P;
	algorithm X(int p, int d[p], double f) {
	  coord I=p;
	  node {I>=0 && !(I<0): bench*(d[I]*2 - -3 + sizeof(double) % 5);};
	  parent[0];
	  scheme {
	    int i;
	    P q;
	    q.I = 0;
	    i = 1;
	    i += 2;
	    i -= 1;
	    i++;
	    i--;
	    GetProcessor(0, 0, 1, d, d, &q);
	    for (i = 0; i < p; i++)
	      if (i % 2 == 0) (100.0/p)%%[i]; else (50)%%[i];
	  };
	}`
	f1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f1)
	f2, err := Parse(out)
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, out)
	}
	if Format(f2) != out {
		t.Fatalf("not a fixed point:\n%s\nvs\n%s", out, Format(f2))
	}
}

func TestFormatFloatLiteralStaysFloat(t *testing.T) {
	src := `algorithm X(int p) { coord I=p; node {I>=0: bench*(100.0);}; scheme { }; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(f)
	f2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.Algorithm.Nodes[0].Volume.(*FloatLit); !ok {
		t.Fatalf("float literal degraded to %T in:\n%s", f2.Algorithm.Nodes[0].Volume, out)
	}
}
