package mpi

// Equivalence suite for the nonblocking layer: a blocking Send/Recv
// program and its nonblocking mirror must be indistinguishable — the
// received bytes AND every rank's final virtual clock, bit for bit.
//
// "Mirror" means the blocking op order is preserved: Send ≡ Isend
// completed immediately (Isend;Wait), Recv ≡ Irecv;Wait. That is the
// strongest claim that can hold: posting both requests and waiting later
// legitimately finishes EARLIER (that is the entire point of overlap), so
// the post-early variant below asserts payload equality only. Test and
// WaitAny are documented wall-sensitive and are excluded from clock
// identity (see Request.Test).

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/vclock"
)

type nbMode int

const (
	nbBlocking  nbMode = iota // Send / Recv
	nbMirror                  // Isend;Wait / Irecv;Wait — same op order
	nbPostEarly               // Irecv first, Isend, Wait both at the end
)

func (m nbMode) String() string {
	return [...]string{"blocking", "mirror", "postearly"}[m]
}

// nbEquivSizes covers the message-size edge cases: empty, one byte, an
// odd size straddling no alignment, and a large multi-frame payload.
var nbEquivSizes = []int{0, 1, 37, 1 << 16}

// nbTransports names the two wirings a world can use.
var nbTransports = []string{"inprocess", "tcp"}

// nbWorld builds a fresh world of n ranks on the named transport,
// optionally with a deterministic single-frame link drop (the first
// attempt of rank 0's first frame, whoever it goes to) and retransmission
// armed. The filter is pure in its arguments, so every schedule replays
// the identical fault.
func nbWorld(t *testing.T, n int, transport string, filtered bool) *World {
	t.Helper()
	c := testCluster(n)
	place := OneProcessPerMachine(c)
	var w *World
	switch transport {
	case "inprocess":
		w = NewWorld(c, place)
	case "tcp":
		tw, closeT, err := newWorldTCPOpts(c, place, tcpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = closeT() })
		w = tw
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	if filtered {
		w.SetLinkFilter(func(src, dst int, at vclock.Time, seq int64, attempt int) LinkOutcome {
			return LinkOutcome{Drop: src == 0 && seq == 1 && attempt == 0}
		})
	}
	return w
}

// nbRingRun shifts one patterned message per round around the ring
// (rank → rank+1), one round per entry of nbEquivSizes, and returns each
// rank's received bytes (rounds concatenated) and final virtual clock.
// n == 1 is the degenerate ring: no communication, clocks untouched.
func nbRingRun(w *World, n int, mode nbMode) (data [][]byte, clocks []vclock.Time, err error) {
	data = make([][]byte, n)
	clocks = make([]vclock.Time, n)
	payload := func(rank, round, size int) []byte {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(rank*17 + round*5 + i)
		}
		return out
	}
	err = w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		r := p.Rank()
		next, prev := (r+1)%n, (r+n-1)%n
		var got bytes.Buffer
		if n > 1 {
			for round, size := range nbEquivSizes {
				out := payload(r, round, size)
				switch mode {
				case nbBlocking:
					comm.Send(next, round, out)
					in, _ := comm.Recv(prev, round)
					got.Write(in)
				case nbMirror:
					sr := comm.Isend(next, round, out)
					sr.Wait()
					rr := comm.Irecv(prev, round)
					in, _ := rr.Wait()
					got.Write(in)
				case nbPostEarly:
					rr := comm.Irecv(prev, round)
					sr := comm.Isend(next, round, out)
					in, _ := rr.Wait()
					sr.Wait()
					got.Write(in)
				}
			}
		}
		data[r] = got.Bytes()
		clocks[r] = p.clock.Now()
		return nil
	})
	return data, clocks, err
}

// runNBEquiv asserts blocking ≡ mirror (payloads and clocks bit-identical)
// and blocking ≡ post-early (payloads only, clocks no later) on both
// transports at world size n. Each schedule gets a fresh world so the
// virtual clocks start from zero.
func runNBEquiv(t *testing.T, n int, filtered bool) {
	t.Helper()
	type result struct {
		data   [][]byte
		clocks []vclock.Time
	}
	for _, transport := range nbTransports {
		t.Run(fmt.Sprintf("%s/n%d", transport, n), func(t *testing.T) {
			results := map[nbMode]result{}
			for _, mode := range []nbMode{nbBlocking, nbMirror, nbPostEarly} {
				w := nbWorld(t, n, transport, filtered)
				data, clocks, err := nbRingRun(w, n, mode)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if filtered {
					if st := w.LinkStatsSnapshot()[[2]int{0, 1}]; st.Drops == 0 {
						t.Fatalf("%v: seeded single-frame drop never engaged", mode)
					}
				}
				results[mode] = result{data, clocks}
			}
			ref := results[nbBlocking]
			for _, mode := range []nbMode{nbMirror, nbPostEarly} {
				got := results[mode]
				for r := 0; r < n; r++ {
					if !bytes.Equal(got.data[r], ref.data[r]) {
						t.Errorf("%v: rank %d payload differs from blocking", mode, r)
					}
				}
			}
			// Clock identity holds for the mirror only; post-early may
			// (and should) finish no later.
			for r := 0; r < n; r++ {
				if results[nbMirror].clocks[r] != ref.clocks[r] {
					t.Errorf("mirror: rank %d clock %v != blocking %v", r, results[nbMirror].clocks[r], ref.clocks[r])
				}
				if results[nbPostEarly].clocks[r] > ref.clocks[r] {
					t.Errorf("postearly: rank %d clock %v exceeds blocking %v", r, results[nbPostEarly].clocks[r], ref.clocks[r])
				}
			}
		})
	}
}

// TestNonblockingEquivalence: every world size 1..9, both transports,
// perfect links.
func TestNonblockingEquivalence(t *testing.T) {
	for n := 1; n <= 9; n++ {
		runNBEquiv(t, n, false)
	}
}

// TestNonblockingEquivalenceUnderDrop repeats the suite with a
// deterministic single-frame link drop and retransmission enabled: the
// recovery path must preserve the equivalence too.
func TestNonblockingEquivalenceUnderDrop(t *testing.T) {
	for _, n := range []int{2, 3, 9} {
		runNBEquiv(t, n, true)
	}
}
