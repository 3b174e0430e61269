package mpi

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// testCluster returns a small cluster with easy-to-check timing: machine i
// has speed 10*(i+1); remote links are 1 MB/s with 1 ms latency and no
// overhead; local links are 100 MB/s with zero latency.
func testCluster(n int) *hnoc.Cluster {
	c := &hnoc.Cluster{
		Remote: hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 1e6},
		Local:  hnoc.LinkSpec{Protocol: hnoc.ProtoSHM, Latency: 0, Bandwidth: 100e6},
	}
	for i := 0; i < n; i++ {
		c.Machines = append(c.Machines, hnoc.Machine{
			Name:  fmt.Sprintf("m%d", i),
			Speed: 10 * float64(i+1),
		})
	}
	return c
}

func newTestWorld(t *testing.T, n int) *World {
	t.Helper()
	c := testCluster(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewWorld(c, OneProcessPerMachine(c))
}

func runWorld(t *testing.T, w *World, main func(p *Proc) error) {
	t.Helper()
	if err := w.Run(main); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 0:
			comm.Send(1, 7, []byte("hello"))
		case 1:
			data, st := comm.Recv(0, 7)
			if string(data) != "hello" {
				return fmt.Errorf("got %q", data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 5 {
				return fmt.Errorf("bad status %+v", st)
			}
		}
		return nil
	})
}

func TestSendBuffersData(t *testing.T) {
	// The sender may overwrite its buffer immediately after Send returns.
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			buf := []byte{1, 2, 3}
			comm.Send(1, 0, buf)
			buf[0] = 99
			comm.Send(1, 0, buf)
		} else {
			a, _ := comm.Recv(0, 0)
			b, _ := comm.Recv(0, 0)
			if a[0] != 1 || b[0] != 99 {
				return fmt.Errorf("buffering broken: %v %v", a, b)
			}
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	w := newTestWorld(t, 3)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 1:
			comm.Send(0, 5, []byte("from1"))
		case 2:
			comm.Send(0, 6, []byte("from2"))
		case 0:
			// AnyTag from a specific source.
			d1, st1 := comm.Recv(1, AnyTag)
			if string(d1) != "from1" || st1.Tag != 5 {
				return fmt.Errorf("AnyTag recv got %q tag %d", d1, st1.Tag)
			}
			// AnySource with a specific tag.
			d2, st2 := comm.Recv(AnySource, 6)
			if string(d2) != "from2" || st2.Source != 2 {
				return fmt.Errorf("AnySource recv got %q src %d", d2, st2.Source)
			}
		}
		return nil
	})
}

func TestNonOvertakingSameSender(t *testing.T) {
	w := newTestWorld(t, 2)
	const n = 50
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				comm.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				data, _ := comm.Recv(0, 3)
				if data[0] != byte(i) {
					return fmt.Errorf("message %d overtaken by %d", i, data[0])
				}
			}
		}
		return nil
	})
}

func TestTagSelectionOutOfOrder(t *testing.T) {
	// A receive for tag B must skip an earlier-queued tag-A message.
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 1, []byte("first"))
			comm.Send(1, 2, []byte("second"))
		} else {
			d2, _ := comm.Recv(0, 2)
			d1, _ := comm.Recv(0, 1)
			if string(d2) != "second" || string(d1) != "first" {
				return fmt.Errorf("tag matching broken: %q %q", d2, d1)
			}
		}
		return nil
	})
}

func TestIsendIrecvWait(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			r1 := comm.Isend(1, 1, []byte("a"))
			r2 := comm.Isend(1, 2, []byte("b"))
			WaitAll([]*Request{r1, r2})
		} else {
			r2 := comm.Irecv(0, 2)
			r1 := comm.Irecv(0, 1)
			d2, st2 := r2.Wait()
			d1, st1 := r1.Wait()
			if string(d1) != "a" || string(d2) != "b" {
				return fmt.Errorf("got %q %q", d1, d2)
			}
			if st1.Tag != 1 || st2.Tag != 2 {
				return fmt.Errorf("tags %d %d", st1.Tag, st2.Tag)
			}
		}
		return nil
	})
}

func TestRequestTest(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 9, []byte("x"))
		} else {
			req := comm.Irecv(0, 9)
			// Spin until Test succeeds (message will arrive).
			for {
				ok, data, st := req.Test()
				if ok {
					if string(data) != "x" || st.Tag != 9 {
						return fmt.Errorf("Test returned %q %+v", data, st)
					}
					break
				}
			}
			// A second Wait returns the same payload.
			data, _ := req.Wait()
			if string(data) != "x" {
				return fmt.Errorf("Wait after Test returned %q", data)
			}
		}
		return nil
	})
}

func TestProbeAndIprobe(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 4, []byte("abc"))
		} else {
			st := comm.Probe(AnySource, AnyTag)
			if st.Bytes != 3 || st.Source != 0 || st.Tag != 4 {
				return fmt.Errorf("Probe status %+v", st)
			}
			ok, st2 := comm.Iprobe(0, 4)
			if !ok || st2.Bytes != 3 {
				return fmt.Errorf("Iprobe after Probe: %v %+v", ok, st2)
			}
			// The message is still receivable.
			data, _ := comm.Recv(0, 4)
			if string(data) != "abc" {
				return fmt.Errorf("Recv after Probe got %q", data)
			}
			// Nothing left.
			if ok, _ := comm.Iprobe(AnySource, AnyTag); ok {
				return fmt.Errorf("Iprobe found phantom message")
			}
		}
		return nil
	})
}

// TestProbeLeavesAPostedIrecvItsMessage: a message that arrives while Probe
// blocks, and that an earlier-posted Irecv matches, belongs to the Irecv;
// Probe reports the next one, which the following Recv then gets.
func TestProbeLeavesAPostedIrecvItsMessage(t *testing.T) {
	w := newTestWorld(t, 2)
	probing := make(chan struct{})
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			<-probing
			time.Sleep(20 * time.Millisecond) // let rank 1 block in Probe
			comm.Send(1, 4, []byte("A"))
			comm.Send(1, 4, []byte("BB"))
			return nil
		}
		r := comm.Irecv(0, 4)
		close(probing)
		if st := comm.Probe(0, 4); st.Bytes != 2 {
			return fmt.Errorf("Probe reported %d bytes, want 2: the 1-byte message is the Irecv's", st.Bytes)
		}
		if data, _ := comm.Recv(0, 4); string(data) != "BB" {
			return fmt.Errorf("Recv after Probe got %q, want \"BB\"", data)
		}
		if data, _ := r.Wait(); string(data) != "A" {
			return fmt.Errorf("the Irecv got %q, want \"A\"", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := newTestWorld(t, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		n := comm.Size()
		right := (comm.Rank() + 1) % n
		left := (comm.Rank() - 1 + n) % n
		data, _ := comm.Sendrecv(right, 0, []byte{byte(comm.Rank())}, left, 0)
		if int(data[0]) != left {
			return fmt.Errorf("rank %d received %d, want %d", comm.Rank(), data[0], left)
		}
		return nil
	})
}

func TestComputeAdvancesClockBySpeed(t *testing.T) {
	w := newTestWorld(t, 2) // speeds 10 and 20
	runWorld(t, w, func(p *Proc) error {
		p.Compute(100)
		want := vclock.Time(100 / (10 * float64(p.Rank()+1)))
		if math.Abs(float64(p.Now()-want)) > 1e-12 {
			return fmt.Errorf("rank %d clock %v, want %v", p.Rank(), p.Now(), want)
		}
		return nil
	})
}

func TestMessageTimingRemoteLink(t *testing.T) {
	// 1 MB over a 1 MB/s link with 1 ms latency: receiver's clock must be
	// at least 1.001 s after the send started.
	w := newTestWorld(t, 2)
	var recvTime vclock.Time
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 0, make([]byte, 1e6))
			// Sender is charged the serialisation: 1 s.
			if math.Abs(float64(p.Now())-1.0) > 1e-9 {
				return fmt.Errorf("sender clock %v, want 1.0", p.Now())
			}
		} else {
			comm.Recv(0, 0)
			recvTime = p.Now()
		}
		return nil
	})
	if math.Abs(float64(recvTime)-1.001) > 1e-9 {
		t.Fatalf("receiver clock %v, want 1.001", recvTime)
	}
}

func TestIsendOverlapsTransfer(t *testing.T) {
	// Isend should not charge the sender the full serialisation time.
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			req := comm.Isend(1, 0, make([]byte, 1e6))
			if p.Now() >= 1.0 {
				return fmt.Errorf("Isend charged sender %v seconds", p.Now())
			}
			p.Compute(5) // 0.5 s of useful work on machine 0 (speed 10)
			req.Wait()   // completes at transfer end: 1.0 s
			if math.Abs(float64(p.Now())-1.0) > 1e-9 {
				return fmt.Errorf("after Wait clock %v, want 1.0", p.Now())
			}
		} else {
			comm.Recv(0, 0)
		}
		return nil
	})
}

func TestSenderNICSerialisesFanout(t *testing.T) {
	// Rank 0 sends 1 MB to ranks 1..3: the third message cannot arrive
	// before 3 s + latency.
	w := newTestWorld(t, 4)
	times := make([]vclock.Time, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			for dst := 1; dst <= 3; dst++ {
				comm.Isend(dst, 0, make([]byte, 1e6))
			}
		} else {
			comm.Recv(0, 0)
			times[p.Rank()] = p.Now()
		}
		return nil
	})
	for i, want := range []float64{1.001, 2.001, 3.001} {
		got := float64(times[i+1])
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("receiver %d clock %v, want %v", i+1, got, want)
		}
	}
}

func TestLocalLinkFasterThanRemote(t *testing.T) {
	// Two processes on one machine communicate over the shm link.
	c := testCluster(2)
	w := NewWorld(c, []int{0, 0}) // both on machine 0
	var recvTime vclock.Time
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 0, make([]byte, 1e6))
		} else {
			comm.Recv(0, 0)
			recvTime = p.Now()
		}
		return nil
	})
	// 1 MB at 100 MB/s, zero latency: 10 ms.
	if math.Abs(float64(recvTime)-0.01) > 1e-9 {
		t.Fatalf("shm receive at %v, want 0.01", recvTime)
	}
}

func TestRecvWaitsForVirtualArrival(t *testing.T) {
	// Receiver that was "early" in virtual time absorbs the arrival time.
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			p.Compute(50) // 5 s on machine 0
			comm.Send(1, 0, []byte{1})
		} else {
			comm.Recv(0, 0)
			if p.Now() < 5.0 {
				return fmt.Errorf("receiver clock %v, should be >= sender's 5 s", p.Now())
			}
		}
		return nil
	})
}

func TestFailureInjection(t *testing.T) {
	w := newTestWorld(t, 2)
	w.Fail(1)
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.Send(1, 0, []byte{1}) // to failed process: panics
		}
		return nil
	})
	pf, ok := err.(*ProcessFailedError)
	if !ok {
		t.Fatalf("error = %v, want *ProcessFailedError", err)
	}
	if pf.Rank != 1 {
		t.Fatalf("failed rank = %d, want 1", pf.Rank)
	}
}

func TestFailureUnblocksReceiver(t *testing.T) {
	// A process blocked in Recv on a process that fails must not hang.
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.CommWorld().Recv(1, 0)
			return nil
		}
		// Rank 1 fails itself instead of sending.
		p.world.Fail(1)
		return nil
	})
	if _, ok := err.(*ProcessFailedError); !ok {
		t.Fatalf("error = %v, want *ProcessFailedError", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic was not converted to an error")
	}
}

// TestPanicAbortsWorld: a rank that panics outside the fault-tolerance
// protocol aborts the world. Its peers, blocked on it in a receive or a
// collective, unwind instead of waiting forever, and Run returns the
// panicking rank's error.
func TestPanicAbortsWorld(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(c *Comm)
	}{
		{"Recv", func(c *Comm) { c.Recv(1, 0) }},
		{"Barrier", func(c *Comm) { c.Barrier() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(hnoc.Paper9(), OneProcessPerMachine(hnoc.Paper9()))
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(p *Proc) error {
					if p.Rank() == 1 {
						panic("bug")
					}
					tc.block(p.CommWorld())
					return nil
				})
			}()
			select {
			case err := <-done:
				if want := "mpi: process 1 panicked: bug"; err == nil || err.Error() != want {
					t.Fatalf("Run = %v, want %q", err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run still blocked 10s after rank 1 panicked")
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			p.Compute(30)
			comm.Send(1, 0, make([]byte, 1000))
		} else {
			comm.Recv(0, 0)
		}
		return nil
	})
	st := w.Stats()
	if st[0].ComputeUnits != 30 || st[0].BytesSent != 1000 || st[0].MsgsSent != 1 {
		t.Errorf("sender stats %+v", st[0])
	}
	if st[1].BytesRecv != 1000 || st[1].MsgsRecv != 1 {
		t.Errorf("receiver stats %+v", st[1])
	}
}

func TestMakespan(t *testing.T) {
	w := newTestWorld(t, 3)
	runWorld(t, w, func(p *Proc) error {
		if p.Rank() == 2 {
			p.Compute(300) // 10 s on machine 2 (speed 30)
		}
		return nil
	})
	if math.Abs(float64(w.Makespan())-10) > 1e-9 {
		t.Fatalf("makespan %v, want 10", w.Makespan())
	}
}

func TestInvalidRankPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.CommWorld().Send(5, 0, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Send to out-of-range rank did not error")
	}
}

func TestNewWorldValidation(t *testing.T) {
	c := testCluster(2)
	for _, bad := range [][]int{{}, {0, 5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld(%v) did not panic", bad)
				}
			}()
			NewWorld(c, bad)
		}()
	}
}

func TestWaitAny(t *testing.T) {
	w := newTestWorld(t, 3)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 1:
			comm.Send(0, 1, []byte("one"))
		case 2:
			comm.Send(0, 2, []byte("two"))
		case 0:
			reqs := []*Request{comm.Irecv(1, 1), comm.Irecv(2, 2)}
			seen := map[string]bool{}
			for range reqs {
				idx, data, st := WaitAny(reqs)
				if idx < 0 || idx > 1 || st.Bytes != 3 {
					return fmt.Errorf("WaitAny idx %d status %+v", idx, st)
				}
				seen[string(data)] = true
			}
			if !seen["one"] || !seen["two"] {
				return fmt.Errorf("WaitAny results %v", seen)
			}
		}
		return nil
	})
}

func TestWaitAnyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WaitAny(nil) did not panic")
		}
	}()
	WaitAny(nil)
}
