package mpi

// Golden receives: the point-to-point receive paths whose matching rules
// are easiest to get subtly wrong — a blocking receive behind an
// overlapping posted Irecv, WaitAny over mixed requests, Sendrecv, a Test
// spin and a traced flat Gather, whose drain takes messages in arrival
// order — pinned per rank as the payloads and Status in the order
// received, the final virtual clock (float64 bits) and every recv event's
// Peer, Bytes and A1 (the wildcard flag). Both transports must reproduce
// the same lines. `go test ./internal/mpi -run TestReceiveGolden -update`
// rewrites testdata/recv.golden from the in-process run.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/trace"
)

const recvGoldenPath = "testdata/recv.golden"

var updateRecvGolden = flag.Bool("update", false, "rewrite testdata/recv.golden")

// recvCase is one program of the golden set: a cluster, a placement and
// the rank body, which returns the (payload, Status) pairs it received in
// order.
type recvCase struct {
	name    string
	cluster func() *hnoc.Cluster
	tuning  *CollTuning
	body    func(c *Comm) (data [][]byte, sts []Status)
}

func recvCases() []recvCase {
	two := func() *hnoc.Cluster { return testCluster(2) }
	got := func(data [][]byte, sts []Status, d []byte, st Status) ([][]byte, []Status) {
		return append(data, d), append(sts, st)
	}
	pattern := func(n, seed int) []byte { return goldenPayload(seed, 0, n) }
	return []recvCase{
		{name: "recv-behind-irecv/directed", cluster: two, body: func(c *Comm) (data [][]byte, sts []Status) {
			if c.Rank() == 0 {
				c.Send(1, 4, []byte("A"))
				c.Send(1, 4, []byte("BB"))
				c.Send(1, 5, []byte("CCC"))
				c.Send(1, 5, []byte("DDDD"))
				return
			}
			r := c.Irecv(0, 4)
			c.p.Compute(5)
			d, st := c.Recv(0, 4)
			data, sts = got(data, sts, d, st)
			d, st = r.Wait()
			data, sts = got(data, sts, d, st)
			r = c.Irecv(AnySource, 5)
			d, st = c.Recv(0, 5)
			data, sts = got(data, sts, d, st)
			d, st = r.Wait()
			return got(data, sts, d, st)
		}},
		{name: "recv-behind-irecv/anysource", cluster: two, body: func(c *Comm) (data [][]byte, sts []Status) {
			if c.Rank() == 0 {
				for i, tag := range []int{4, 4, 6, 6} {
					c.Send(1, tag, pattern(10*(i+1), i))
				}
				return
			}
			r := c.Irecv(0, 4)
			d, st := c.Recv(AnySource, 4)
			data, sts = got(data, sts, d, st)
			d, st = r.Wait()
			data, sts = got(data, sts, d, st)
			r = c.Irecv(AnySource, AnyTag)
			c.p.Compute(5)
			d, st = c.Recv(AnySource, 6)
			data, sts = got(data, sts, d, st)
			d, st = r.Wait()
			return got(data, sts, d, st)
		}},
		{name: "waitany-mixed", cluster: two, body: func(c *Comm) (data [][]byte, sts []Status) {
			peer := 1 - c.Rank()
			if c.Rank() == 1 {
				d, st := c.Recv(0, 1)
				data, sts = got(data, sts, d, st)
				c.Send(0, 2, []byte("reply"))
				c.Send(0, 4, []byte("token"))
				c.Send(0, 5, []byte("sync"))
				d, st = c.Recv(0, 3)
				return got(data, sts, d, st)
			}
			// The receive is first, so WaitAny blocks on it while the
			// large send is still on the interface.
			reqs := []*Request{c.Irecv(peer, 2), c.Isend(peer, 1, pattern(1<<16, 1))}
			for range reqs {
				i, d, st := WaitAny(reqs)
				data, sts = got(data, sts, append([]byte{byte(i)}, d...), st)
			}
			// The token is queued before the sync message the blocking
			// Recv takes, so WaitAny skips the unfinished send and
			// completes the receive without blocking, then waits the send.
			r := c.Irecv(peer, 4)
			d, st := c.Recv(peer, 5)
			data, sts = got(data, sts, d, st)
			reqs = []*Request{c.Isend(peer, 3, pattern(1<<16, 3)), r}
			for range reqs {
				i, d, st := WaitAny(reqs)
				data, sts = got(data, sts, append([]byte{byte(i)}, d...), st)
			}
			return
		}},
		{name: "sendrecv-ring", cluster: func() *hnoc.Cluster { return testCluster(4) }, body: func(c *Comm) (data [][]byte, sts []Status) {
			n := c.Size()
			for round := 0; round < 3; round++ {
				d, st := c.Sendrecv((c.Rank()+1)%n, round, pattern(100*(c.Rank()+1)+round, c.Rank()),
					(c.Rank()+n-1)%n, round)
				data, sts = got(data, sts, d, st)
			}
			return
		}},
		{name: "test-spin", cluster: two, body: func(c *Comm) (data [][]byte, sts []Status) {
			if c.Rank() == 0 {
				c.p.Compute(20)
				c.Send(1, 9, []byte("spun"))
				return
			}
			r := c.Irecv(0, 9)
			for {
				ok, d, st := r.Test()
				if ok {
					return got(data, sts, d, st)
				}
				runtime.Gosched()
			}
		}},
		{name: "gather-flat/paper9", cluster: hnoc.Paper9, tuning: &CollTuning{Gather: GatherFlat}, body: func(c *Comm) (data [][]byte, sts []Status) {
			c.p.Compute(float64(10 * (9 - c.Rank())))
			for _, part := range c.Gather(0, pattern(1000+c.Rank(), c.Rank())) {
				data, sts = got(data, sts, part, Status{Bytes: len(part)})
			}
			return
		}},
	}
}

// recvGoldenRun runs k on a fresh world of the named transport and returns
// one golden line body per rank.
func recvGoldenRun(t *testing.T, k recvCase, transport string) []string {
	t.Helper()
	cl := k.cluster()
	place := OneProcessPerMachine(cl)
	var w *World
	if transport == "tcp" {
		tw, closeT, err := newWorldTCPOpts(cl, place, tcpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = closeT() }()
		w = tw
	} else {
		w = NewWorld(cl, place)
	}
	w.SetCollTuning(k.tuning)
	rec := trace.NewRecorder(w.Size(), trace.Options{})
	w.SetRecorder(rec)
	lines := make([]string, w.Size())
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		data, sts := k.body(p.CommWorld())
		var sb strings.Builder
		for i := range data {
			if len(data[i]) <= 8 {
				fmt.Fprintf(&sb, "%q", data[i])
			} else {
				fmt.Fprintf(&sb, "%d#%x", len(data[i]), goldenHash(goldenSeed, data[i]))
			}
			fmt.Fprintf(&sb, "%+v ", sts[i])
		}
		lines[p.Rank()] = sb.String()
		return nil
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", transport, k.name, err)
	}
	for r, evs := range rec.Data().PerRank {
		lines[r] += fmt.Sprintf("clock=%x recv=[", math.Float64bits(float64(w.procs[r].clock.Now())))
		for _, e := range evs {
			if e.Kind == trace.KindRecv {
				lines[r] += fmt.Sprintf(" %d/%d/%d", e.Peer, e.Bytes, e.A1)
			}
		}
		lines[r] += " ]"
	}
	return lines
}

// TestReceiveGolden replays every case on both transports and demands the
// committed lines.
func TestReceiveGolden(t *testing.T) {
	var out strings.Builder
	want := map[string]string{}
	if !*updateRecvGolden {
		raw, err := os.ReadFile(recvGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(string(raw), "\n") {
			if key, body, ok := strings.Cut(l, " : "); ok {
				want[key] = body
			}
		}
	}
	for _, k := range recvCases() {
		for _, transport := range nbTransports {
			for r, body := range recvGoldenRun(t, k, transport) {
				key := fmt.Sprintf("%s rank=%d", k.name, r)
				switch {
				case *updateRecvGolden && transport == nbTransports[0]:
					fmt.Fprintf(&out, "%s : %s\n", key, body)
					want[key] = body
				case want[key] != body:
					t.Errorf("%s %s:\n got  %s\n want %s", transport, key, body, want[key])
				}
			}
		}
	}
	if *updateRecvGolden {
		if err := os.WriteFile(recvGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
