package em3d

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/apps"
	"repro/internal/hnoc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/light.golden")

// lightConfigs are the Light problems light.golden pins: the paper-size
// and jobspec-size defaults, the two ends of BoundaryFrac, a two-body
// ring (one neighbour, not two) and a ring wider than Paper9.
var lightConfigs = []Config{
	{P: 9, TotalNodes: 400_000},
	{P: 6, TotalNodes: 60_000},
	{P: 9, TotalNodes: 150_000, BoundaryFrac: 0.1},
	{P: 9, TotalNodes: 30_000, BoundaryFrac: 0.5},
	{P: 2, TotalNodes: 2_000},
	{P: 16, TotalNodes: 32_000},
}

// digest hashes everything a run and the performance model read of a
// problem: the field values of `field` bit for bit, both boundary lists and
// D(). A Light problem holds no field values; TestLightGolden hashes those
// of its real-math twin (Generate of the same Config without Light), which
// draws the same field first and then the same lists.
func (pr *Problem) digest(field *Problem) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, b := range field.Bodies {
		for _, values := range [][]float64{b.E, b.H} {
			put(uint64(len(values)))
			for _, v := range values {
				put(math.Float64bits(v))
			}
		}
	}
	for _, dep := range [][][][]int{pr.DepH, pr.DepE} {
		for _, row := range dep {
			for _, idx := range row {
				put(uint64(len(idx)))
				for _, v := range idx {
					put(uint64(v))
				}
			}
		}
	}
	for _, d := range pr.D() {
		put(uint64(d))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLightGolden pins what Generate produces for a Light problem and what
// a timing-only run makes of it — the digest, the interior/boundary split
// of every body for both fields, and the blocking and overlapped makespans
// of the MPI baseline on the paper's network as float64 bit patterns — to
// testdata/light.golden, captured before Light problems stopped holding
// per-node dependency slices and field values.
func TestLightGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, cfg := range lightConfigs {
		twin, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Light = true
		pr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "p=%d nodes=%d frac=%v sha256=%s\n", cfg.P, cfg.TotalNodes, cfg.BoundaryFrac, pr.digest(twin))
		for i, b := range pr.Bodies {
			fmt.Fprintf(&buf, "  body %d: E %d+%d H %d+%d\n", i,
				b.NE-len(b.EBound), len(b.EBound), b.NH-len(b.HBound), len(b.HBound))
		}
		if cfg.P > 9 {
			continue
		}
		for _, overlap := range []bool{false, true} {
			prog := &Program{Problem: pr, Opts: RunOptions{Iters: 3, Overlap: overlap}}
			res, err := apps.RunOn(hnoc.Paper9(), prog, apps.MPI)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "  overlap=%v makespan=%016x\n", overlap, math.Float64bits(float64(res.Time)))
		}
	}
	const golden = "testdata/light.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run LightGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Light problems differ from %s:\n got:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}
