package pmdl

import (
	"strings"
	"testing"
)

// wrap builds a minimal algorithm around a fragment placed in the scheme.
func wrapScheme(stmts string) string {
	return `algorithm T(int p) { coord I=p; node {I>=0: bench*(1);}; parent[0]; scheme {` + stmts + `} }`
}

func TestParseMinimalAlgorithm(t *testing.T) {
	f, err := Parse(`algorithm A(int p) { coord I=p; scheme { } }`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Algorithm.Name != "A" || len(f.Algorithm.Coords) != 1 {
		t.Fatalf("parsed %+v", f.Algorithm)
	}
}

func TestParseSectionOrderIrrelevant(t *testing.T) {
	// link before node, parent last.
	src := `algorithm A(int p) {
	  coord I=p;
	  link (L=p) { I!=L : length*(8) [L]->[I]; };
	  scheme { int i; par(i=0;i<p;i++) 100%%[i]; };
	  node {I>=0: bench*(1);};
	  parent[0];
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing algorithm":   `coord I=p;`,
		"missing coord":       `algorithm A(int p) { scheme { } }`,
		"missing scheme":      `algorithm A(int p) { coord I=p; }`,
		"duplicate coord":     `algorithm A(int p) { coord I=p; coord J=p; scheme {} }`,
		"duplicate node":      `algorithm A(int p) { coord I=p; node {I>=0: bench*(1);}; node {I>=0: bench*(1);}; scheme {} }`,
		"duplicate scheme":    `algorithm A(int p) { coord I=p; scheme {} scheme {} }`,
		"bad section":         `algorithm A(int p) { coord I=p; frobnicate; scheme {} }`,
		"unclosed paren":      `algorithm A(int p { coord I=p; scheme {} }`,
		"unclosed brace":      `algorithm A(int p) { coord I=p; scheme {`,
		"bad param type":      `algorithm A(quux p) { coord I=p; scheme {} }`,
		"node without bench":  `algorithm A(int p) { coord I=p; node {I>=0: 1;}; scheme {} }`,
		"link without length": `algorithm A(int p) { coord I=p; link { I>=0 : 8 [0]->[1]; }; scheme {} }`,
		"link without arrow":  `algorithm A(int p) { coord I=p; link { I>=0 : length*(8) [0]; }; scheme {} }`,
		"trailing garbage":    `algorithm A(int p) { coord I=p; scheme {} } extra`,
		"stmt without semi":   wrapScheme(`int i i`),
		"if without paren":    wrapScheme(`if 1 100%%[0];`),
		"action bad target":   wrapScheme(`100%%0;`),
		"expression too deep": wrapScheme(`int i; i = ` + strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000) + `;`),
		"blocks too deep":     wrapScheme(strings.Repeat("{", 100_000) + strings.Repeat("}", 100_000)),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Fatalf("accepted: %.200s", src)
			}
		})
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	_, err := Parse("algorithm A(int p) {\n  coord I=p;\n  bogus;\n}")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

// Statements that parse syntactically but must be rejected by some later
// stage: the semantic checker (Check, run by ParseModel) catches static
// violations, the interpreter catches dynamic ones.
func TestSchemeEvalErrors(t *testing.T) {
	cases := map[string]struct {
		src    string
		static bool // caught by Check
	}{
		"assign to literal":  {wrapScheme(`5 = 3;`), true},
		"endless for":        {wrapScheme(`for(;;) 100%%[0];`), true},
		"undefined name":     {wrapScheme(`zork = 1;`), true},
		"redeclaration":      {wrapScheme(`int i; int i;`), true},
		"unknown call":       {wrapScheme(`Frobnicate(1);`), false},
		"coord out of range": {wrapScheme(`100%%[99];`), false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := ParseModel(tc.src)
			if tc.static {
				if err == nil {
					t.Fatalf("semantic checker accepted: %s", tc.src)
				}
				return
			}
			if err != nil {
				t.Fatalf("static stage rejected dynamic-only case: %v", err)
			}
			inst, err := m.Instantiate(2)
			if err != nil {
				return // rejected at instantiation: also fine
			}
			if _, err := inst.BuildDAG(); err == nil {
				t.Fatalf("BuildDAG accepted: %s", tc.src)
			}
		})
	}
}

func TestParsePrecedence(t *testing.T) {
	// 2+3*4 == 14, (2+3)*4 == 20, comparisons bind looser than +.
	src := `algorithm A(int p) { coord I=p;
	  node {I>=0: bench*(2+3*4);};
	  parent[0];
	  scheme { int i; par(i=0; i < 1+1; i++) 100%%[0]; };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.CompVolume[0] != 14 {
		t.Fatalf("2+3*4 evaluated to %v", inst.CompVolume[0])
	}
}

func TestParseLogicalOperators(t *testing.T) {
	src := `algorithm A(int p) { coord I=p;
	  node {I>=0 && !(I<0) || 0: bench*(1);};
	  parent[0]; scheme { };
	}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseElseBranch(t *testing.T) {
	src := wrapScheme(`int i; if (p > 1) 100%%[0]; else 50%%[0];`)
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	blk := f.Algorithm.Scheme
	ifs, ok := blk.Stmts[1].(*IfStmt)
	if !ok || ifs.Else == nil {
		t.Fatalf("else branch not parsed: %+v", blk.Stmts)
	}
}

func TestParseNegativeAndFloatLiterals(t *testing.T) {
	src := `algorithm A(int p) { coord I=p;
	  node {I>=0: bench*(100.5 - -2);};
	  parent[0]; scheme { };
	}`
	m, err := ParseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.CompVolume[0] != 102.5 {
		t.Fatalf("volume = %v, want 102.5", inst.CompVolume[0])
	}
}

func TestTypedefStructParses(t *testing.T) {
	src := `typedef struct {int A; int B, C;} Point;
	algorithm A(int p) { coord I=p; parent[0];
	  scheme { Point q; q.A = 3; q.B = q.A + 1; };
	}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Typedefs) != 1 || len(f.Typedefs[0].Fields) != 3 {
		t.Fatalf("typedef parsed wrong: %+v", f.Typedefs)
	}
}

func TestTokKindStrings(t *testing.T) {
	if TokArrow.String() != "'->'" || TokEOF.String() != "end of input" {
		t.Fatal("token names broken")
	}
	if got := TokKind(9999).String(); !strings.Contains(got, "9999") {
		t.Fatalf("unknown token name %q", got)
	}
}
