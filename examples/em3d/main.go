// EM3D: the paper's irregular application (Section 3). A 3-D object is
// decomposed into nine subbodies of very different sizes; electric and
// magnetic field values propagate along a bipartite dependency graph, and
// a small fraction of dependencies crosses subbody boundaries.
//
// The example verifies the parallel solver against the serial reference at
// a small size, then compares the plain-MPI group (subbody i on process i,
// regardless of machine speed) with the HMPI-selected group on the paper's
// nine-workstation network — reproducing the ~1.5x gain of Figure 9.
//
// Run: go run ./examples/em3d
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
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

	// --- Correctness first: parallel result == serial result. ---
	small, err := em3d.Generate(em3d.Config{P: 5, TotalNodes: 1000})
	if err != nil {
		log.Fatal(err)
	}
	want := small.Clone().SerialRun(3)
	// Both halo schedules — blocking and the overlapped
	// post-early/compute/wait one — must reproduce the serial field
	// bit-for-bit.
	for _, overlap := range []bool{false, true} {
		prog := &em3d.Program{Problem: small, Opts: em3d.RunOptions{Iters: 3, RealMath: true, Overlap: overlap}}
		run(cluster, prog, apps.HMPI)
		for i := range want {
			for n := range want[i] {
				if prog.Field[i][n] != want[i][n] {
					log.Fatalf("verification failed at body %d node %d (overlap=%v)", i, n, overlap)
				}
			}
		}
	}
	fmt.Println("verification: blocking and overlapped fields identical to serial reference")

	// --- The paper's experiment: HMPI vs MPI on the 9-machine network. ---
	pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 400_000, Light: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubbody sizes (nodes): %v\n", pr.D())
	fmt.Printf("machine speeds:        %v\n\n", cluster.Speeds())

	prog := &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 10}}
	hres := run(cluster, prog, apps.HMPI)
	mres := run(cluster, prog, apps.MPI)

	fmt.Println("subbody -> machine mapping:")
	fmt.Println("  body   nodes   MPI machine(speed)   HMPI machine(speed)")
	for b := range pr.D() {
		mpiM := cluster.Machines[mres.Selection[b]]
		hmpiM := cluster.Machines[hres.Selection[b]]
		fmt.Printf("  %4d  %6d   %-12s (%3.0f)    %-12s (%3.0f)\n",
			b, pr.D()[b], mpiM.Name, mpiM.Speed, hmpiM.Name, hmpiM.Speed)
	}
	fmt.Printf("\nMPI  time: %.4f s (subbodies assigned in rank order)\n", float64(mres.Time))
	fmt.Printf("HMPI time: %.4f s (predicted %.4f s)\n", float64(hres.Time), hres.Predicted)
	fmt.Printf("speedup:   %.2fx  (paper reports almost 1.5x)\n",
		float64(mres.Time)/float64(hres.Time))

	// --- Overlap on top: hide the halo exchange behind the interior. ---
	// The overlapped schedule posts the halo receives early, updates the
	// interior nodes while the boundary values travel, and only then waits.
	ores := run(cluster, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 10, Overlap: true}}, apps.HMPI)
	fmt.Printf("\nHMPI time with overlapped halo exchange: %.4f s (%.2fx over blocking)\n",
		float64(ores.Time), float64(hres.Time)/float64(ores.Time))
}
