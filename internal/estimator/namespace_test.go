package estimator

import (
	"bytes"
	"testing"

	"repro/internal/hnoc"
)

func nsOf(t *testing.T, e *Estimator) []byte {
	t.Helper()
	ns := e.AppendNamespace(nil)
	if len(ns) == 0 {
		t.Fatal("empty namespace")
	}
	return ns
}

// TestNamespaceDeterministic: rebuilding the same estimator yields the
// same namespace, and the append contract preserves the prefix.
func TestNamespaceDeterministic(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	a, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nsOf(t, a), nsOf(t, b)) {
		t.Fatal("identical estimators produced different namespaces")
	}
	withPrefix := a.AppendNamespace([]byte("pre/"))
	if !bytes.Equal(withPrefix[:4], []byte("pre/")) || !bytes.Equal(withPrefix[4:], nsOf(t, a)) {
		t.Fatal("AppendNamespace does not append to the given prefix")
	}
}

// TestNamespaceSeparatesLinkCosts is the cross-cluster collision
// regression at the namespace level: two clusters whose machines classify
// identically (both fully homogeneous) but whose link costs differ must
// get different namespaces — with equal namespaces their byte-identical
// canonical keys would alias cache entries across cost models.
func TestNamespaceSeparatesLinkCosts(t *testing.T) {
	inst := chainInstance(t)
	mk := func(bw float64) *hnoc.Cluster {
		return &hnoc.Cluster{
			Remote: hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: bw},
			Local:  hnoc.LinkSpec{Protocol: hnoc.ProtoSHM, Latency: 0, Bandwidth: 1e9},
			Machines: []hnoc.Machine{
				{Name: "a", Speed: 50}, {Name: "b", Speed: 50}, {Name: "c", Speed: 50},
			},
		}
	}
	speeds := []float64{50, 50, 50}
	place := []int{0, 1, 2}
	fast, err := New(inst, mk(1e6), speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(inst, mk(1e5), speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	// Same class structure ⇒ same canonical keys for the same candidate…
	cand := []int{0, 1}
	if !bytes.Equal(fast.AppendCanonicalKey(nil, cand), slow.AppendCanonicalKey(nil, cand)) {
		t.Fatal("fixture broken: clusters must produce identical canonical keys")
	}
	// …so the namespaces must differ.
	if bytes.Equal(nsOf(t, fast), nsOf(t, slow)) {
		t.Fatal("clusters with different link costs share a namespace")
	}
}

// TestNamespaceTracksDegradation: degrading a link changes what
// ModelLink reports, so it changes the namespace of an estimator built
// after it. An estimator built before prices the links as of its New: its
// namespace and its Timeof stay as they were, so the two never disagree.
func TestNamespaceTracksDegradation(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	e, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	cand := []int{0, 1}
	before, timeBefore := nsOf(t, e), e.Timeof(cand)
	cl.DegradeLink(0, 1, 4)
	if !bytes.Equal(nsOf(t, e), before) || e.Timeof(cand) != timeBefore {
		t.Fatal("a DegradeLink after New changed the estimator's namespace or Timeof")
	}
	fresh, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nsOf(t, fresh), before) {
		t.Fatal("degrading a link did not change the namespace")
	}
	if fresh.Timeof(cand) <= timeBefore {
		t.Fatalf("Timeof on the degraded link %v, want more than %v", fresh.Timeof(cand), timeBefore)
	}
}

// TestNamespaceIgnoresSpeedsAndPlacement: per-process speeds travel in
// the canonical key itself, and the class encoding absorbs placement, so
// neither may perturb the namespace (or warm-cache sharing across Recon
// refreshes would break for no reason).
func TestNamespaceIgnoresSpeedsAndPlacement(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	a, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(inst, cl, []float64{99, 1, 3}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nsOf(t, a), nsOf(t, b)) {
		t.Fatal("speeds/placement leaked into the namespace")
	}
}

// TestNamespaceSeparatesInstances: a different task graph (different
// volumes here) is a different objective and needs its own namespace.
func TestNamespaceSeparatesInstances(t *testing.T) {
	m := chainInstance(t).Model
	other, err := m.Instantiate(2, []int{100, 800}, [][]int{{0, 1000}, {1000, 0}})
	if err != nil {
		t.Fatal(err)
	}
	cl, speeds, place := testNet()
	a, err := New(chainInstance(t), cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(other, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nsOf(t, a), nsOf(t, b)) {
		t.Fatal("different model instances share a namespace")
	}
}
