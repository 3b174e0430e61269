// Matrix multiplication: the paper's regular application (Section 4).
// C = A×B on a 3×3 grid of heterogeneous processors using the
// generalised-block distribution of Kalinov & Lastovetsky: every l×l block
// of the matrix is cut into rectangles whose areas are proportional to the
// processor speeds.
//
// The example verifies the distributed product against the serial
// reference, shows the HMPI_Timeof search for the optimal generalised
// block size (the loop of Figure 8), and compares the homogeneous baseline
// with the HMPI version — reproducing the ~3x gain of Figure 11.
//
// Run: go run ./examples/matmul
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/apps"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
)

// run executes the program on a fresh runtime over the cluster.
func run(cluster *hnoc.Cluster, prog apps.Program, mode apps.Mode) apps.Result {
	res, err := apps.RunOn(cluster, prog, mode)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	cluster := hnoc.Paper9()

	// --- Correctness: distributed C equals the serial product. ---
	small, err := matmul.Generate(matmul.Config{M: 3, R: 3, N: 9, RealMath: true})
	if err != nil {
		log.Fatal(err)
	}
	want := small.SerialMultiply()
	// Both schedules — the blocking pivot broadcast and the pipelined
	// post-ahead one — must reproduce the serial product.
	for _, overlap := range []bool{false, true} {
		prog := &matmul.Program{Problem: small, Ls: []int{3, 9}, Opts: matmul.RunOptions{CollectC: true, Overlap: overlap}}
		run(cluster, prog, apps.HMPI)
		for i := range want {
			if math.Abs(prog.C[i]-want[i]) > 1e-9 {
				log.Fatalf("verification failed at element %d (overlap=%v)", i, overlap)
			}
		}
	}
	fmt.Println("verification: blocking and pipelined products identical to serial reference")

	// --- The paper's experiment (r = l = 9, 3x3 grid). ---
	pr, err := matmul.Generate(matmul.Config{M: 3, R: 9, N: 135})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmatrix: %dx%d elements (%d blocks of %dx%d)\n",
		pr.N*pr.R, pr.N*pr.R, pr.N, pr.R, pr.R)

	// HMPI searches the generalised block size with HMPI_Timeof before
	// creating the group (the bsize loop of Figure 8).
	candidates := []int{3, 5, 9, 15, 27, 45}
	prog := &matmul.Program{Problem: pr, Ls: candidates}
	hres := run(cluster, prog, apps.HMPI)
	chosen := prog.Dist.L()
	mres := run(cluster, prog, apps.MPI)

	fmt.Printf("\ngeneralised block size candidates %v -> HMPI_Timeof chose l=%d\n",
		candidates, chosen)
	fmt.Println("grid placement (row-major):")
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m := cluster.Machines[hres.Selection[i*3+j]]
			fmt.Printf("  P(%d,%d)=%-12s(%3.0f)", i, j, m.Name, m.Speed)
		}
		fmt.Println()
	}
	fmt.Printf("\nMPI  time: %.3f s (homogeneous 2D block-cyclic)\n", float64(mres.Time))
	fmt.Printf("HMPI time: %.3f s (predicted %.3f s)\n", float64(hres.Time), hres.Predicted)
	fmt.Printf("speedup:   %.2fx  (paper reports almost 3x at fixed l=9;\n"+
		"           the HMPI_Timeof block-size search buys extra balance)\n",
		float64(mres.Time)/float64(hres.Time))

	// --- Pipelining on top: step k+1's pivots travel behind step k. ---
	ores := run(cluster, &matmul.Program{Problem: pr, Ls: candidates, Opts: matmul.RunOptions{Overlap: true}}, apps.HMPI)
	fmt.Printf("\nHMPI time with pipelined pivot transfers: %.3f s (%.2fx over blocking)\n",
		float64(ores.Time), float64(hres.Time)/float64(ores.Time))
}
