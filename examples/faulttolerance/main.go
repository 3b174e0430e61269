// Self-healing HMPI: the paper names surviving resource failures (after
// FT-MPI) as a necessary ingredient of a future heterogeneous
// message-passing standard and lists it as a direction for HMPI. This
// repository implements the ingredient in three layers, all shown here:
//
//  1. Failure detection — a blocked operation on a dead process aborts
//     with a ProcessFailedError instead of hanging; mpi.Catch turns the
//     abort into an error the application can handle.
//  2. ULFM-style communicator primitives — Revoke, AgreeFailed, Shrink —
//     plus HMPI_Group_recreate, which re-runs the performance-model-driven
//     selection over the surviving processors.
//  3. The self-healing harness — RunResilient retries the work on a
//     recreated group until it completes, while a deterministic chaos
//     schedule kills processes at fixed virtual times.
//
// Run: go run ./examples/faulttolerance
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/pmdl"
)

const modelSrc = `
algorithm Workers(int p, int v[p]) {
  coord I=p;
  node {I>=0: bench*(v[I]);};
  parent[0];
  scheme {
    int i;
    par (i = 0; i < p; i++) 100%%[i];
  };
}
`

func main() {
	model, err := pmdl.ParseModel(modelSrc)
	if err != nil {
		log.Fatal(err)
	}
	workload := []int{10, 200, 80}

	// --- Layer 1: a blocked receive surfaces the failure. ---
	rt1, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		log.Fatal(err)
	}
	defer rt1.Finalize()
	err = rt1.Run(func(h *hmpi.Process) error {
		switch h.Rank() {
		case 0:
			// Waits for a message the dying process will never send; Catch
			// converts the abort into an error instead of a crash.
			err := mpi.Catch(func() { h.CommWorld().Recv(6, 0) })
			var pf *mpi.ProcessFailedError
			if !errors.As(err, &pf) {
				return fmt.Errorf("expected a ProcessFailedError, got %v", err)
			}
			fmt.Printf("blocked receive aborted cleanly: %v\n", err)
		case 6:
			rt1.InjectFailure(6) // the machine crashes mid-run
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Layer 2: revoke, agree, recreate around a mid-group failure. ---
	rt2, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		log.Fatal(err)
	}
	defer rt2.Finalize()
	err = rt2.Run(func(h *hmpi.Process) error {
		var g *hmpi.Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, len(workload), workload)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			// Free processes take part in the recreation like any other:
			// the parent may select them into the replacement group.
			ng, err := h.GroupCreate(nil)
			if err != nil {
				return err
			}
			if h.IsMember(ng) {
				ng.Comm().Barrier()
			}
			return h.GroupFree(ng)
		}
		victim := g.WorldRanks()[g.Size()-1]
		if h.Rank() == victim {
			rt2.InjectFailure(victim)
			// Silent corpse; peers see the failure.
			return nil //hmpivet:ignore groupfree -- the victim just failed itself: a corpse cannot free its group, the survivors dissolve it via GroupRecreate
		}
		// The work phase aborts on the failure; Catch it, revoke so no
		// member stays blocked on a live peer (the communicator refuses any
		// further use), and agree on who died — the same set on every survivor.
		werr := mpi.Catch(func() {
			for {
				g.Comm().Barrier()
			}
		})
		g.Comm().Revoke()
		failed := g.Comm().AgreeFailed()
		rerr := mpi.Catch(func() { g.Comm().Barrier() })
		if h.IsHost() {
			fmt.Printf("work aborted (%v); members agree ranks %v failed\n", werr, failed)
			fmt.Printf("the revoked communicator refuses further use: %v\n", rerr)
		}
		var ng *hmpi.Group
		if g.Rank() == g.ParentRank() {
			ng, err = h.GroupRecreate(g, model, len(workload), workload)
		} else {
			ng, err = h.GroupRecreate(g, nil)
		}
		if err != nil {
			return err
		}
		if h.IsMember(ng) {
			ng.Comm().Barrier() // fully functional again
			if h.IsHost() {
				fmt.Printf("group recreated over the survivors: %v -> %v\n",
					g.WorldRanks(), ng.WorldRanks())
			}
		}
		return h.GroupFree(ng)
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Layer 3: RunResilient under a deterministic chaos schedule. ---
	rt3, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		log.Fatal(err)
	}
	defer rt3.Finalize()
	// Kill rank 6 — the fastest machine, certain to be selected — the
	// first time its virtual clock passes 1ms.
	sched, err := chaos.Parse("6@0.001", rt3.World().Size())
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.Attach(rt3.World(), func(e chaos.Event) {
		fmt.Printf("chaos: rank %d killed at t=%gs\n", e.Rank, float64(e.At))
	}); err != nil {
		log.Fatal(err)
	}
	var selections [][]int
	err = rt3.Run(func(h *hmpi.Process) error {
		return h.RunResilient(hmpi.FixedPlan(model, len(workload), workload),
			func(g *hmpi.Group) error {
				if h.IsHost() {
					selections = append(selections, g.WorldRanks())
				}
				h.Proc().Compute(float64(workload[g.Rank()]))
				g.Comm().Barrier()
				return nil
			})
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-healing run finished after %d attempt(s): selections %v\n",
		len(selections), selections)
	fmt.Println("\nDetection, agreement, and model-driven re-selection completed the")
	fmt.Println("work around the failure — the recovery pattern FT-MPI pioneered,")
	fmt.Println("driven by HMPI's performance-model group selection.")
}
