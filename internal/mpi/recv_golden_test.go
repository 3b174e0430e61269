package mpi

// Golden receives: the point-to-point receive paths whose matching rules
// are easiest to get subtly wrong — a blocking receive behind an
// overlapping posted Irecv, WaitAny over mixed requests, Sendrecv, a Test
// spin, a traced flat Gather, whose drain takes messages in arrival
// order, and a backlog of a thousand messages on two communicators taken
// out of posting order — pinned per rank as the payloads and Status in
// the order received, the final virtual clock (float64 bits) and every
// recv event's Peer, Bytes and A1 (the wildcard flag); a list of more
// than 64 entries is pinned by its count and hash. Both transports must
// reproduce the same lines. `go test ./internal/mpi -run TestReceiveGolden
// -update` rewrites testdata/recv.golden from the in-process run.

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
		{name: "deep-queue/world+split", cluster: func() *hnoc.Cluster { return testCluster(3) }, body: func(c *Comm) (data [][]byte, sts []Status) {
			// Rank 1 queues 2n+1 messages at rank 0, alternating CommWorld
			// and a Split communicator over the same ranks, before rank 0
			// takes any. Rank 0 then takes the world tags and the Split
			// tags out of posting order, so most receives pop from inside
			// a queue, and both queues stay non-empty to the end. Rank 2
			// sends only after rank 1's messages are all queued, so the
			// AnySource receives that find both senders take rank 1's.
			const n = 510
			sub := c.Split(0, c.Rank())
			switch c.Rank() {
			case 1:
				for i := 0; i < n; i++ {
					c.Send(0, i%3, pattern(16+i%3, i))
					sub.Send(0, i%2, pattern(24, n+i))
				}
				c.Send(0, 9, []byte("done"))
				return
			case 2:
				d, st := c.Recv(0, 8)
				data, sts = got(data, sts, d, st)
				for i := 0; i < 3; i++ {
					c.Send(0, 2, pattern(32, 2*n+i))
				}
				return
			}
			first := sub.Irecv(1, 1)
			d, st := c.Recv(1, 9)
			data, sts = got(data, sts, d, st)
			c.Send(2, 8, []byte("go"))
			for i := 0; i < n; i += 3 {
				src := 1
				if i%2 == 1 {
					src = AnySource
				}
				for _, tag := range []int{2, 0, 1} {
					d, st = c.Recv(src, tag)
					data, sts = got(data, sts, d, st)
				}
				for _, tag := range []int{1, 0} {
					d, st = sub.Recv(1, tag)
					data, sts = got(data, sts, d, st)
				}
			}
			for i := 0; i < 3; i++ {
				d, st = c.Recv(AnySource, 2)
				data, sts = got(data, sts, d, st)
			}
			for i := 0; i < n-1-2*n/3; i++ {
				d, st = sub.Recv(AnySource, AnyTag)
				data, sts = got(data, sts, d, st)
			}
			d, st = first.Wait()
			return got(data, sts, d, st)
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
		tw, closeT, err := NewWorldTCP(cl, place)
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
		var got []string
		for i := range data {
			s := fmt.Sprintf("%q", data[i])
			if len(data[i]) > 8 {
				s = fmt.Sprintf("%d#%x", len(data[i]), goldenHash(goldenSeed, data[i]))
			}
			got = append(got, fmt.Sprintf("%s%+v ", s, sts[i]))
		}
		lines[p.Rank()] = foldGolden(got, "%d#%x ")
		return nil
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", transport, k.name, err)
	}
	assertNoneFailed(t, w)
	for r, evs := range rec.Data().PerRank {
		var recvs []string
		for _, e := range evs {
			if e.Kind == trace.KindRecv {
				recvs = append(recvs, fmt.Sprintf(" %d/%d/%d", e.Peer, e.Bytes, e.A1))
			}
		}
		lines[r] += fmt.Sprintf("clock=%x recv=[%s ]", math.Float64bits(float64(w.procs[r].clock.Now())), foldGolden(recvs, " %d#%x"))
	}
	return lines
}

// foldGolden joins the entries of a golden line, or, past 64 of them,
// prints their count and the hash of their join in format instead, so a
// case of a thousand messages pins every one of them in one short line.
func foldGolden(entries []string, format string) string {
	s := strings.Join(entries, "")
	if len(entries) <= 64 {
		return s
	}
	return fmt.Sprintf(format, len(entries), goldenHash(goldenSeed, []byte(s)))
}

// TestReceiveGolden replays every case on both transports and demands the
// committed lines. Each case runs three times per transport: the TCP
// pumps' timing differs from run to run, and every run must print the
// same lines.
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
			for run := 0; run < 3; run++ {
				for r, body := range recvGoldenRun(t, k, transport) {
					key := fmt.Sprintf("%s rank=%d", k.name, r)
					switch {
					case *updateRecvGolden && transport == nbTransports[0] && run == 0:
						fmt.Fprintf(&out, "%s : %s\n", key, body)
						want[key] = body
					case want[key] != body:
						t.Errorf("%s run %d %s:\n got  %s\n want %s", transport, run, key, body, want[key])
					}
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
