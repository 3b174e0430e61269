package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// attachRecorder wires a fresh structured recorder to the world.
func attachRecorder(w *World) *trace.Recorder {
	rec := trace.NewRecorder(w.Size(), trace.Options{})
	w.SetRecorder(rec)
	return rec
}

// countKind tallies the snapshot's events of one kind, optionally
// restricted to one name.
func countKind(d *trace.Data, k trace.Kind, name string) int {
	n := 0
	for _, evs := range d.PerRank {
		for i := range evs {
			if evs[i].Kind == k && (name == "" || evs[i].Name == name) {
				n++
			}
		}
	}
	return n
}

func TestRecorderSendRecvEvents(t *testing.T) {
	w := newTestWorld(t, 2)
	rec := attachRecorder(w)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			p.Compute(10)
			comm.Send(1, 9, make([]byte, 2048))
		} else {
			comm.Recv(0, 9)
		}
		return nil
	})
	d := rec.Data()
	computes, sends, recvs := 0, 0, 0
	for _, evs := range d.PerRank {
		for _, e := range evs {
			switch e.Kind {
			case trace.KindCompute:
				computes++
				if e.Rank != 0 || e.Peer != -1 || e.End <= e.Start {
					t.Errorf("compute event = %+v", e)
				}
			case trace.KindSend:
				sends++
				if e.Rank != 0 || e.Peer != 1 || e.Tag != 9 || e.Bytes != 2048 {
					t.Errorf("send event = %+v", e)
				}
				if e.End < e.Start {
					t.Errorf("send interval inverted: %+v", e)
				}
			case trace.KindRecv:
				recvs++
				if e.Rank != 1 || e.Peer != 0 || e.Tag != 9 || e.Bytes != 2048 {
					t.Errorf("recv event = %+v", e)
				}
			}
		}
	}
	if computes != 1 || sends != 1 || recvs != 1 {
		t.Fatalf("computes %d sends %d recvs %d, want 1/1/1", computes, sends, recvs)
	}
}

// TestRecorderGanttDrawsWait renders the text timeline of a live run:
// rank 1 posts an Irecv and blocks in Wait while rank 0 computes, so its
// row must open with the wait glyph against rank 0's compute glyph.
func TestRecorderGanttDrawsWait(t *testing.T) {
	w := newTestWorld(t, 2)
	rec := attachRecorder(w)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			p.Compute(100)
			comm.Send(1, 0, make([]byte, 500_000))
		} else {
			comm.Irecv(0, 0).Wait()
			p.Compute(50)
		}
		return nil
	})
	var buf bytes.Buffer
	if err := rec.Data().Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want a legend and two rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "rank  0 |c") || !strings.HasPrefix(lines[2], "rank  1 |r") {
		t.Fatalf("rows should open with c (rank 0 computing) and r (rank 1 in Wait):\n%s", buf.String())
	}
	if !strings.Contains(lines[1], "s") || !strings.HasSuffix(lines[2], "c|") {
		t.Fatalf("rank 0 never sends or rank 1 never computes:\n%s", buf.String())
	}
}

// TestRecorderCollectiveAlgNames pins the contract that KindColl events
// carry the RESOLVED algorithm (name and code), not the Auto request:
// the trace must say what actually ran.
func TestRecorderCollectiveAlgNames(t *testing.T) {
	run := func(t *testing.T, tuning *CollTuning, body func(c *Comm)) *trace.Data {
		t.Helper()
		w := newTestWorld(t, 4)
		w.SetCollTuning(tuning)
		rec := attachRecorder(w)
		runWorld(t, w, func(p *Proc) error {
			body(p.CommWorld())
			return nil
		})
		return rec.Data()
	}

	t.Run("explicit", func(t *testing.T) {
		tuning := &CollTuning{
			Allreduce:     AllreduceRecursiveDoubling,
			ReduceScatter: ReduceScatterPairwise,
			Bcast:         BcastSegmented,
			Gather:        GatherBinomial,
			Scatter:       ScatterBinomial,
		}
		d := run(t, tuning, func(c *Comm) {
			c.Allreduce(make([]byte, 64), SumFloat64)
			c.Bcast(0, make([]byte, 64))
			c.Gather(0, make([]byte, 64))
			parts := make([][]byte, c.Size())
			for i := range parts {
				parts[i] = make([]byte, 64)
			}
			c.Scatter(0, parts)
			c.ReduceScatter(parts, SumFloat64)
		})
		for name, want := range map[string]int{
			"allreduce/recdbl":       4,
			"bcast/segmented":        4,
			"gather/binomial":        4,
			"scatter/binomial":       4,
			"reducescatter/pairwise": 4,
		} {
			if got := countKind(d, trace.KindColl, name); got != want {
				t.Errorf("%s events = %d, want %d (one per rank)", name, got, want)
			}
		}
	})

	t.Run("legacy-defaults", func(t *testing.T) {
		d := run(t, nil, func(c *Comm) {
			c.Allreduce(make([]byte, 64), SumFloat64)
			c.Bcast(0, make([]byte, 64))
		})
		if got := countKind(d, trace.KindColl, "allreduce/redbcast"); got != 4 {
			t.Errorf("allreduce/redbcast events = %d, want 4", got)
		}
		// The legacy allreduce broadcasts the result, so nested
		// bcast/binomial events appear too; the explicit Bcast adds 4 more.
		if got := countKind(d, trace.KindColl, "bcast/binomial"); got < 4 {
			t.Errorf("bcast/binomial events = %d, want >= 4", got)
		}
	})

	t.Run("auto-resolves", func(t *testing.T) {
		tuning := &CollTuning{Allreduce: AllreduceAuto}
		// Small payload: Auto must resolve to recursive doubling and the
		// trace must record that resolution.
		d := run(t, tuning, func(c *Comm) {
			c.Allreduce(make([]byte, 64), SumFloat64)
		})
		if got := countKind(d, trace.KindColl, "allreduce/recdbl"); got != 4 {
			t.Errorf("auto small allreduce recorded %d recdbl events, want 4", got)
		}
		if got := countKind(d, trace.KindColl, "allreduce/auto"); got != 0 {
			t.Error("trace recorded the Auto request instead of the resolved algorithm")
		}
	})
}

// TestAllreduceSingleRankEmitsOneEvent: one KindColl event per public
// collective call, whatever the policy. A single-rank Allreduce used to
// return before its event under every algorithm but the default.
func TestAllreduceSingleRankEmitsOneEvent(t *testing.T) {
	for alg := AllreduceRedBcast; alg <= AllreduceHier; alg++ {
		w := newTestWorld(t, 1)
		w.SetCollTuning(&CollTuning{Allreduce: alg})
		rec := attachRecorder(w)
		runWorld(t, w, func(p *Proc) error {
			p.CommWorld().Allreduce(make([]byte, 64), SumFloat64)
			return nil
		})
		if got := countKind(rec.Data(), trace.KindColl, ""); got != 1 {
			t.Errorf("%s: %d collective events on a single-rank communicator, want 1", allreduceAlgNames[alg], got)
		}
	}
}

// TestTracingPreservesVirtualClocks is the on/off determinism property:
// attaching a recorder must not move any simulated clock by a single bit.
// The same workload runs twice on fresh worlds — once traced, once not —
// and every rank's final virtual time must be bit-identical.
func TestTracingPreservesVirtualClocks(t *testing.T) {
	workload := func(traced bool) ([]vclock.Time, *trace.Recorder) {
		w := newTestWorld(t, 4)
		var rec *trace.Recorder
		if traced {
			rec = attachRecorder(w)
		}
		finals := make([]vclock.Time, 4)
		runWorld(t, w, func(p *Proc) error {
			comm := p.CommWorld()
			for iter := 0; iter < 3; iter++ {
				p.Compute(1000)
				comm.Allreduce(make([]byte, 256), SumFloat64)
				next := (p.Rank() + 1) % comm.Size()
				prev := (p.Rank() + comm.Size() - 1) % comm.Size()
				comm.Send(next, iter, make([]byte, 512))
				comm.Recv(prev, iter)
				comm.Bcast(0, make([]byte, 128))
			}
			finals[p.Rank()] = p.Now()
			return nil
		})
		return finals, rec
	}
	plain, _ := workload(false)
	traced, rec := workload(true)
	for r := range plain {
		if plain[r] != traced[r] {
			t.Errorf("rank %d final clock: untraced %v, traced %v", r, plain[r], traced[r])
		}
	}
	if n := len(rec.Data().Events()); n == 0 {
		t.Fatal("traced run recorded nothing")
	}
}

// TestTCPPooledTraced is the ownership regression for tracing over the
// pooled wire path (run it under -race): events must carry byte counts
// and metadata only, never retain payload buffers — with pooling on, a
// retained buffer would be recycled under the recorder and corrupt either
// payloads or events.
func TestTCPPooledTraced(t *testing.T) {
	c := testCluster(2)
	w, closeT, err := NewWorldTCP(c, OneProcessPerMachine(c))
	if err != nil {
		t.Fatal(err)
	}
	defer closeT()
	rec := attachRecorder(w)
	const rounds = 64
	const size = 4096
	err = w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		payload := bytes.Repeat([]byte{0xA5}, size)
		for i := 0; i < rounds; i++ {
			if p.Rank() == 0 {
				comm.Send(1, i, payload)
				got, _ := comm.Recv(1, i)
				if len(got) != size || got[0] != 0xA5 || got[size-1] != 0xA5 {
					return fmt.Errorf("round %d: corrupt echo", i)
				}
			} else {
				got, _ := comm.Recv(0, i)
				if len(got) != size || got[0] != 0xA5 || got[size-1] != 0xA5 {
					return fmt.Errorf("round %d: corrupt payload", i)
				}
				comm.Send(0, i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Data()
	if got := countKind(d, trace.KindSend, ""); got != 2*rounds {
		t.Errorf("send events = %d, want %d", got, 2*rounds)
	}
	if got := countKind(d, trace.KindRecv, ""); got != 2*rounds {
		t.Errorf("recv events = %d, want %d", got, 2*rounds)
	}
	for _, evs := range d.PerRank {
		for _, e := range evs {
			if e.Bytes != size {
				t.Fatalf("event byte count = %d, want %d: %+v", e.Bytes, size, e)
			}
		}
	}
}

// TestRecorderFaultEvents checks the fault-tolerance lifecycle events:
// revoke, agree and shrink must be recorded on every participating rank.
func TestRecorderFaultEvents(t *testing.T) {
	w := newTestWorld(t, 3)
	rec := attachRecorder(w)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Revoke()
		}
		comm.AgreeFailed()
		if nc := comm.Shrink(); nc == nil {
			return fmt.Errorf("shrink returned nil")
		}
		return nil
	})
	d := rec.Data()
	if got := countKind(d, trace.KindRevoke, ""); got != 1 {
		t.Errorf("revoke events = %d, want 1", got)
	}
	// Two agreements per rank: the explicit AgreeFailed plus the one
	// Shrink runs internally.
	if got := countKind(d, trace.KindAgree, ""); got != 6 {
		t.Errorf("agree events = %d, want 6", got)
	}
	if got := countKind(d, trace.KindShrink, ""); got != 3 {
		t.Errorf("shrink events = %d, want 3", got)
	}
}
