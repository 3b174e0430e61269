package apps_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/pmdl"
)

// TestShippedModelsAreTheCompiledOnes: the model files under models/ —
// what pmc -lint checks and the pmdl fuzz and golden corpora read — are the
// models the applications compile, up to formatting.
func TestShippedModelsAreTheCompiledOnes(t *testing.T) {
	for file, m := range map[string]*pmdl.Model{
		"em3d.mpc":        em3d.Model(),
		"parallelaxb.mpc": matmul.Model(),
		"jacobi.mpc":      jacobi.Model(),
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "models", file))
		if err != nil {
			t.Fatal(err)
		}
		shipped, err := pmdl.Parse(string(src))
		if err != nil {
			t.Fatalf("models/%s: %v", file, err)
		}
		if got, want := pmdl.Format(m.File), pmdl.Format(shipped); got != want {
			t.Errorf("the compiled model formats to\n%s\nmodels/%s to\n%s", got, file, want)
		}
	}
}
