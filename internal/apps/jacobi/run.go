package jacobi

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/hmpi"
	"repro/internal/mpi"
	"repro/internal/pmdl"
)

const (
	tagDown = 1 // boundary row travelling to the strip below
	tagUp   = 2 // boundary row travelling to the strip above
)

// RunParallel executes the strip-decomposed relaxation on the
// communicator: rank i owns strip i with heights[i] interior rows. The
// identical code serves the uniform baseline and the HMPI version.
// With RealMath it returns the assembled final field on comm rank 0.
func RunParallel(comm *mpi.Comm, pr *Problem, heights []int, collect bool) ([]float64, error) {
	if comm.Size() != pr.P {
		return nil, fmt.Errorf("jacobi: %d processes for %d strips", comm.Size(), pr.P)
	}
	if len(heights) != pr.P {
		return nil, fmt.Errorf("jacobi: %d heights for %d strips", len(heights), pr.P)
	}
	total := 0
	start := 0
	me := comm.Rank()
	for r, h := range heights {
		if h <= 0 {
			return nil, fmt.Errorf("jacobi: non-positive strip height %d", h)
		}
		if r < me {
			start += h
		}
		total += h
	}
	if total != pr.Rows {
		return nil, fmt.Errorf("jacobi: heights sum to %d, want %d", total, pr.Rows)
	}

	w := pr.Cols + 2
	myH := heights[me]
	// Local strip with two ghost rows (row 0 and row myH+1).
	var cur, next []float64
	if pr.RealMath {
		cur = make([]float64, (myH+2)*w)
		next = make([]float64, (myH+2)*w)
		copy(cur, pr.Grid[start*w:(start+myH+2)*w])
		copy(next, cur)
	}
	// payload carries strip row r. A timing-only run sends a charge-only
	// row every time: only its size is read.
	zeroRow := apps.ChargeOnly(pr.Cols * 8)
	payload := func(r int) []byte {
		if !pr.RealMath {
			return zeroRow
		}
		return mpi.Float64Bytes(cur[r*w+1 : r*w+1+pr.Cols])
	}

	up, down := me-1, me+1 // neighbouring strips
	for it := 0; it < pr.Iters; it++ {
		// Exchange boundary rows with the neighbours.
		var reqs []*mpi.Request
		if up >= 0 {
			reqs = append(reqs, comm.IsendOwned(up, tagUp, payload(1)))
		}
		if down < pr.P {
			reqs = append(reqs, comm.IsendOwned(down, tagDown, payload(myH)))
		}
		if up >= 0 {
			data, _ := comm.Recv(up, tagDown)
			if pr.RealMath {
				copy(cur[0*w+1:0*w+1+pr.Cols], mpi.BytesFloat64(data))
			}
		}
		if down < pr.P {
			data, _ := comm.Recv(down, tagUp)
			if pr.RealMath {
				copy(cur[(myH+1)*w+1:(myH+1)*w+1+pr.Cols], mpi.BytesFloat64(data))
			}
		}
		mpi.WaitAll(reqs)

		// Sweep the strip.
		comm.Proc().Compute(pr.KernelUnits(float64(myH)))
		if pr.RealMath {
			for i := 1; i <= myH; i++ {
				for j := 1; j <= pr.Cols; j++ {
					next[i*w+j] = 0.25 * (cur[(i-1)*w+j] + cur[(i+1)*w+j] + cur[i*w+j-1] + cur[i*w+j+1])
				}
			}
			cur, next = next, cur
		}
	}

	if !pr.RealMath || !collect {
		return nil, nil
	}
	// Assemble on rank 0: every rank contributes its interior rows.
	mine := mpi.Float64Bytes(cur[w : (myH+1)*w])
	parts := comm.Gather(0, mine)
	if parts == nil {
		return nil, nil
	}
	out := append([]float64(nil), pr.Grid...)
	row := 1
	for r := 0; r < pr.P; r++ {
		vals := mpi.BytesFloat64(parts[r])
		copy(out[row*w:row*w+len(vals)], vals)
		row += heights[r]
	}
	return out, nil
}

// Program is the relaxation as the driver runs it (apps.Program). A plan
// is a set of strip heights; the one HMPI candidate sizes the strips by the
// measured speeds.
type Program struct {
	Problem *Problem
	// Collect gathers the final field on communicator rank 0 (RealMath).
	Collect bool
	// Heights are the strip heights the run used and Field the gathered
	// result, both set on communicator rank 0.
	Heights []int
	Field   []float64
}

// strips is a plan: the heights of the problem's strips.
type strips struct {
	pr      *Problem
	heights []int
}

func (s strips) ModelArgs() []any { return s.pr.ModelArgs(s.heights) }

func (p *Program) Name() string       { return "jacobi" }
func (p *Program) Model() *pmdl.Model { return Model() }

// KernelUnits: the update of one grid row.
func (p *Program) KernelUnits() float64 { return p.Problem.KernelUnits(1) }

// Scale: the model describes one sweep.
func (p *Program) Scale() float64 { return float64(p.Problem.Iters) }

// Plans sizes the strips by speed: the host first (it is the parent, strip
// 0), then the other processes fastest-first — mirroring the greedy order
// the selection will tend to choose.
func (p *Program) Plans(speeds []float64) ([]apps.Plan, error) {
	pr := p.Problem
	if len(speeds) < pr.P {
		return nil, fmt.Errorf("jacobi: %d processes cannot run %d strips", len(speeds), pr.P)
	}
	stripSpeeds := make([]float64, pr.P)
	for i, rank := range apps.SpeedOrder(speeds, hmpi.HostRank, pr.P) {
		stripSpeeds[i] = speeds[rank]
	}
	heights, err := pr.Heights(stripSpeeds)
	if err != nil {
		return nil, err
	}
	return []apps.Plan{strips{pr, heights}}, nil
}

// Baseline is uniform strips on the first P processes.
func (p *Program) Baseline() (apps.Plan, int) {
	return strips{p.Problem, p.Problem.UniformHeights()}, p.Problem.P
}

// Share broadcasts the host's strip heights.
func (p *Program) Share(comm *mpi.Comm, plan apps.Plan) apps.Plan {
	var payload []byte
	if s, ok := plan.(strips); ok {
		payload = mpi.IntsBytes(s.heights)
	}
	return strips{p.Problem, mpi.BytesInts(comm.Bcast(0, payload))}
}

func (p *Program) Run(comm *mpi.Comm, plan apps.Plan) (func(), error) {
	heights := plan.(strips).heights
	field, err := RunParallel(comm, p.Problem, heights, p.Collect)
	if comm.Rank() == 0 {
		p.Heights, p.Field = heights, field
	}
	return nil, err
}
