package experiments

import "testing"

// TestOverlapGate asserts the overlap figure's acceptance gates: the EM3D
// halo case must show a >= 1.3x simulated-time speedup, the matmul
// pipeline must win too (>= 5%), and the boundary-dominated honest case
// must neither win nor regress. Simulated times are deterministic, so the
// bounds are exact reruns, not statistics.
func TestOverlapGate(t *testing.T) {
	f, err := TableOverlap()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.X) != 3 {
		t.Fatalf("got %d cases, want 3", len(f.X))
	}
	speedup := make([]float64, len(f.X))
	for i := range f.X {
		b, o := f.Series[0].Y[i], f.Series[1].Y[i]
		if b <= 0 || o <= 0 {
			t.Fatalf("case %d: non-positive simulated time (blocking %v, overlapped %v)", i+1, b, o)
		}
		speedup[i] = b / o
		t.Logf("%s", f.Notes[i])
		// Overlap must never lose: the overlapped schedule performs the
		// same transfers, so at worst it matches the blocking time (the
		// tiny slack covers float division, not a real regression).
		if speedup[i] < 0.999 {
			t.Errorf("case %d: overlap regressed, speedup %.3fx", i+1, speedup[i])
		}
	}
	if halo := speedup[0]; halo < 1.3 {
		t.Errorf("em3d halo speedup %.3fx below the 1.3x gate", halo)
	}
	if honest := speedup[1]; honest >= 1.05 {
		t.Errorf("boundary-dominated case should be honest (no win), got %.3fx", honest)
	}
	if mm := speedup[2]; mm < 1.05 {
		t.Errorf("matmul pipeline should win, got %.3fx", mm)
	}
}
