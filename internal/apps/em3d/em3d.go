// Package em3d implements the paper's irregular demonstration application:
// EM3D, the simulation of interacting electric and magnetic fields on a
// three-dimensional object (originally a Split-C benchmark). The object is
// decomposed into subbodies of varying sizes; each subbody holds E nodes
// (electric field) and H nodes (magnetic field) whose dependencies form a
// bipartite graph, with a small number of dependencies crossing subbody
// boundaries.
//
// The package provides the workload generator, the serial reference
// kernel, the parallel algorithm over a communicator (the same code runs
// under the plain-MPI baseline and under an HMPI-selected group, exactly
// as in the paper, where only the group-creation code differs), the
// performance model of Figure 4, and the Program the apps driver runs.
package em3d

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/hnoc"
	"repro/internal/pmdl"
)

// NodeRef addresses one H or E node in some subbody.
type NodeRef struct {
	Body, Index int
}

// Body is one subbody of the decomposed object.
type Body struct {
	// E and H are the field values.
	E, H []float64
	// EDeps[i] lists the H nodes the value of E node i depends on;
	// HDeps[i] lists the E nodes H node i depends on. Dependencies may
	// be local or remote. Both are nil on a Light problem.
	EDeps, HDeps [][]NodeRef
	// EBound and HBound list, ascending, the E and H nodes that read at
	// least one remote value: the part of an update that has to wait for
	// the halo exchange. Light problems have them too.
	EBound, HBound []int
}

// Nodes returns the total node count of the subbody.
func (b *Body) Nodes() int { return len(b.E) + len(b.H) }

// Problem is a generated EM3D workload.
type Problem struct {
	Bodies []*Body
	// DepH[i][j] lists the indices of H nodes of body j that body i's E
	// updates read (i != j); DepE is the analogue for E nodes read by H
	// updates. These are the boundary values exchanged each iteration.
	DepH, DepE [][][]int
	// K is the benchmark kernel size: the number of nodes whose update
	// constitutes one unit of the performance model (the paper's k).
	K int
	// FlopsPerNode is the arithmetic cost of updating one node.
	FlopsPerNode int
	// Light marks a problem generated without per-node dependency lists;
	// such problems cannot run with real math.
	Light bool
}

// Config drives the workload generator.
type Config struct {
	// P is the number of subbodies.
	P int
	// TotalNodes is the node count across all subbodies (E plus H).
	TotalNodes int
	// Shares gives each subbody's fraction of TotalNodes. Nil means the
	// deterministic irregular pattern IrregularShares(P).
	Shares []float64
	// BoundaryFrac is the fraction of a subbody's nodes that depend on
	// each neighbouring subbody (default 0.05).
	BoundaryFrac float64
	// Degree is the number of local dependencies per node (default 4).
	Degree int
	// K is the benchmark kernel size in nodes (default 1000).
	K int
	// Light skips materialising the per-node dependency lists, which
	// timing-only runs never read (real-math runs need them and must not
	// set Light): the problem then holds no per-node slice at all. The
	// field arrays and boundary lists, which the communication code
	// reads, are always built.
	Light bool
	// Seed makes generation deterministic.
	Seed uint64
}

// IrregularShares returns the deterministic irregular size distribution
// used by the experiments: subbody sizes spread over roughly a 1:3 range.
func IrregularShares(p int) []float64 {
	shares := make([]float64, p)
	sum := 0.0
	for i := range shares {
		// A fixed quasi-random but reproducible pattern.
		shares[i] = 1 + float64((i*4+6)%9)/4
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

func (c *Config) fill() error {
	if c.P <= 0 {
		return fmt.Errorf("em3d: non-positive subbody count %d", c.P)
	}
	if c.TotalNodes < 2*c.P {
		return fmt.Errorf("em3d: %d nodes cannot fill %d subbodies", c.TotalNodes, c.P)
	}
	if c.Shares == nil {
		c.Shares = IrregularShares(c.P)
	}
	if len(c.Shares) != c.P {
		return fmt.Errorf("em3d: %d shares for %d subbodies", len(c.Shares), c.P)
	}
	if c.BoundaryFrac == 0 {
		c.BoundaryFrac = 0.05
	}
	if c.BoundaryFrac < 0 || c.BoundaryFrac > 0.5 {
		return fmt.Errorf("em3d: boundary fraction %v outside [0,0.5]", c.BoundaryFrac)
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.K == 0 {
		c.K = 1000
	}
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
	return nil
}

// xorshift is a tiny deterministic PRNG so workloads are reproducible
// bit-for-bit across runs and platforms.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

func (x *xorshift) float() float64 { return float64(x.next()%(1<<53)) / (1 << 53) }

// Generate builds a deterministic EM3D problem: subbodies sized by Shares,
// ring-neighbour boundary dependencies sized by BoundaryFrac, and Degree
// local dependencies per node.
func Generate(cfg Config) (*Problem, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := xorshift(cfg.Seed)
	pr := &Problem{
		K: cfg.K, FlopsPerNode: 2 * cfg.Degree, Light: cfg.Light,
		DepH: make([][][]int, cfg.P), DepE: make([][][]int, cfg.P),
	}

	// Size the subbodies (half E, half H nodes each).
	sizes := make([]int, cfg.P)
	for i := range sizes {
		sizes[i] = int(float64(cfg.TotalNodes) * cfg.Shares[i])
		if sizes[i] < 2 {
			sizes[i] = 2
		}
	}
	for i := 0; i < cfg.P; i++ {
		nE := sizes[i] / 2
		nH := sizes[i] - nE
		b := &Body{E: make([]float64, nE), H: make([]float64, nH)}
		for n := 0; n < nE; n++ {
			b.E[n] = rng.float()
		}
		for n := 0; n < nH; n++ {
			b.H[n] = rng.float()
		}
		pr.Bodies = append(pr.Bodies, b)
		pr.DepH[i] = make([][]int, cfg.P)
		pr.DepE[i] = make([][]int, cfg.P)
	}

	// Local dependencies.
	if !cfg.Light {
		for _, b := range pr.Bodies {
			b.EDeps, b.HDeps = make([][]NodeRef, len(b.E)), make([][]NodeRef, len(b.H))
			for n := range b.E {
				for d := 0; d < cfg.Degree; d++ {
					b.EDeps[n] = append(b.EDeps[n], NodeRef{Body: -1, Index: rng.intn(len(b.H))})
				}
			}
			for n := range b.H {
				for d := 0; d < cfg.Degree; d++ {
					b.HDeps[n] = append(b.HDeps[n], NodeRef{Body: -1, Index: rng.intn(len(b.E))})
				}
			}
		}
	}

	// Boundary dependencies between ring neighbours: some E nodes of
	// body i read H nodes of bodies i±1, and vice versa.
	if cfg.P > 1 {
		for i := range pr.Bodies {
			for _, j := range []int{(i + 1) % cfg.P, (i - 1 + cfg.P) % cfg.P} {
				if j == i {
					continue
				}
				bi, bj := pr.Bodies[i], pr.Bodies[j]
				nBound := int(cfg.BoundaryFrac * float64(min(bi.Nodes(), bj.Nodes())) / 2)
				if nBound < 1 {
					nBound = 1
				}
				// E nodes of i reading H nodes of j.
				hIdx := pickDistinct(&rng, len(bj.H), nBound)
				pr.DepH[i][j] = append(pr.DepH[i][j], hIdx...)
				for _, h := range hIdx {
					e := rng.intn(len(bi.E))
					bi.EBound = append(bi.EBound, e)
					if !cfg.Light {
						bi.EDeps[e] = append(bi.EDeps[e], NodeRef{Body: j, Index: h})
					}
				}
				// H nodes of i reading E nodes of j.
				eIdx := pickDistinct(&rng, len(bj.E), nBound)
				pr.DepE[i][j] = append(pr.DepE[i][j], eIdx...)
				for _, ei := range eIdx {
					hn := rng.intn(len(bi.H))
					bi.HBound = append(bi.HBound, hn)
					if !cfg.Light {
						bi.HDeps[hn] = append(bi.HDeps[hn], NodeRef{Body: j, Index: ei})
					}
				}
			}
		}
	}
	// Two boundary values may land on one node: a node is listed once.
	for _, b := range pr.Bodies {
		slices.Sort(b.EBound)
		slices.Sort(b.HBound)
		b.EBound, b.HBound = slices.Compact(b.EBound), slices.Compact(b.HBound)
	}
	return pr, nil
}

// pickDistinct selects n distinct indices in [0,limit).
func pickDistinct(rng *xorshift, limit, n int) []int {
	if n > limit {
		n = limit
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := rng.intn(limit)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// D returns the node counts per subbody: the d parameter of the
// performance model.
func (pr *Problem) D() []int {
	out := make([]int, len(pr.Bodies))
	for i, b := range pr.Bodies {
		out[i] = b.Nodes()
	}
	return out
}

// Dep returns the boundary-value counts: dep[i][j] is the number of nodal
// values subbody i needs from subbody j each iteration, the dep parameter
// of the performance model.
func (pr *Problem) Dep() [][]int {
	p := len(pr.Bodies)
	out := make([][]int, p)
	for i := range out {
		out[i] = make([]int, p)
		for j := 0; j < p; j++ {
			out[i][j] = len(pr.DepH[i][j]) + len(pr.DepE[i][j])
		}
	}
	return out
}

// KernelUnits converts a node count into hardware speed units: one
// benchmark kernel (K nodes) costs K*FlopsPerNode flops.
func (pr *Problem) KernelUnits(nodes int) float64 {
	return float64(nodes) * float64(pr.FlopsPerNode) / hnoc.FlopsPerSpeedUnit
}

// modelSource is the performance model of the EM3D algorithm, verbatim
// Figure 4 of the paper.
const modelSource = `
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
}
`

// Model returns the Em3d performance model (Figure 4), compiled on first
// use. A compiled model is immutable, so every caller shares the one
// value.
func Model() *pmdl.Model { return compiledModel() }

var compiledModel = sync.OnceValue(func() *pmdl.Model { return pmdl.MustParseModel(modelSource) })

// ModelArgs returns the actual parameters (p, k, d, dep) for the model.
func (pr *Problem) ModelArgs() []any {
	return []any{len(pr.Bodies), pr.K, pr.D(), pr.Dep()}
}
