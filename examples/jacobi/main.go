// Jacobi relaxation: a third application, beyond the two the paper
// evaluates, built on the same machinery — a 5-point stencil on a square
// grid, decomposed into horizontal strips whose heights follow the
// measured processor speeds (the 1-D heterogeneous distribution of the
// paper's reference [6]).
//
// Because the stencil exchanges only one boundary row per neighbour per
// sweep, it is compute-bound, and the gain over uniform strips approaches
// the network's capacity ratio. The example verifies the distributed
// sweeps bit-for-bit against the serial reference, then compares against
// the uniform baseline on the paper's nine-machine network.
//
// Run: go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
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

	// --- Correctness. ---
	small, err := jacobi.Generate(jacobi.Config{Rows: 30, Cols: 20, Iters: 4, P: 5, RealMath: true})
	if err != nil {
		log.Fatal(err)
	}
	want := small.SerialRun()
	check := &jacobi.Program{Problem: small, Collect: true}
	run(cluster, check, apps.HMPI)
	for i := range want {
		if check.Field[i] != want[i] {
			log.Fatalf("verification failed at %d", i)
		}
	}
	fmt.Println("verification: distributed sweeps identical to serial reference")

	// --- Performance on the paper network. ---
	pr, err := jacobi.Generate(jacobi.Config{Rows: 2700, Cols: 2700, Iters: 10, P: 9})
	if err != nil {
		log.Fatal(err)
	}
	prog := &jacobi.Program{Problem: pr}
	hres := run(cluster, prog, apps.HMPI)
	heights := prog.Heights
	mres := run(cluster, prog, apps.MPI)

	fmt.Printf("\n2700x2700 grid, 10 sweeps, 9 strips\n")
	fmt.Println("strip -> machine (HMPI):")
	for s, rank := range hres.Selection {
		m := cluster.Machines[rank]
		fmt.Printf("  strip %d: %4d rows on %-12s (speed %3.0f)\n",
			s, heights[s], m.Name, m.Speed)
	}
	fmt.Printf("\nuniform strips: %.3f s\n", float64(mres.Time))
	fmt.Printf("HMPI:           %.3f s (predicted %.3f s)\n", float64(hres.Time), hres.Predicted)
	fmt.Printf("speedup:        %.2fx (capacity ratio bound: %.1fx)\n",
		float64(mres.Time)/float64(hres.Time), 567.0/81.0)
}
