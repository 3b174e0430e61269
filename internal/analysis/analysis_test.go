package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunOrderIsAFunctionOfItsInput: findings that share a position —
// several from one analyzer, several analyzers — come out in one order
// however the analyzers happened to emit them.
func TestRunOrderIsAFunctionOfItsInput(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", "package a\n\nfunc f() {}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: "a", Fset: fset, Files: []*ast.File{f}}
	rng := rand.New(rand.NewSource(1))
	emitter := func(name string) *Analyzer {
		return &Analyzer{Name: name, Run: func(pass *Pass) error {
			msgs := []string{"group from GroupCreate", "group from GroupCreateChild", "group from GroupRecreate"}
			rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
			for _, m := range msgs {
				pass.Reportf(f.Decls[0].Pos(), "%s", m)
			}
			return nil
		}}
	}
	var first []Diagnostic
	for i := 0; i < 20; i++ {
		analyzers := []*Analyzer{emitter("one"), emitter("two")}
		rng.Shuffle(len(analyzers), func(i, j int) { analyzers[i], analyzers[j] = analyzers[j], analyzers[i] })
		got, err := Run([]*Package{pkg}, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("got %d findings, want 6", len(got))
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d ordered the same findings differently:\n%v\nvs\n%v", i, got, first)
		}
	}
}
