package mpi

import "testing"

func g(ranks ...int) *Group { return NewGroup(ranks) }

func TestGroupBasics(t *testing.T) {
	grp := g(3, 1, 4)
	if grp.Size() != 3 {
		t.Fatalf("size = %d", grp.Size())
	}
	if grp.WorldRank(0) != 3 || grp.WorldRank(2) != 4 {
		t.Fatal("WorldRank order wrong")
	}
	if grp.Rank(1) != 1 || grp.Rank(4) != 2 || grp.Rank(99) != -1 {
		t.Fatal("Rank lookup wrong")
	}
	if !grp.Contains(3) || grp.Contains(0) {
		t.Fatal("Contains wrong")
	}
}

func TestNewGroupRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ranks accepted")
		}
	}()
	NewGroup([]int{1, 2, 1})
}

func TestInclExcl(t *testing.T) {
	grp := g(10, 11, 12, 13, 14)
	in := grp.Incl([]int{4, 0, 2})
	if want := []int{14, 10, 12}; !equalInts(in.Ranks(), want) {
		t.Errorf("Incl = %v, want %v", in.Ranks(), want)
	}
}

func TestEqualSimilar(t *testing.T) {
	a := g(1, 2, 3)
	if !a.Equal(g(1, 2, 3)) || a.Equal(g(3, 2, 1)) || a.Equal(g(1, 2)) {
		t.Fatal("Equal wrong")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
