package chaos

// Link faults: the degraded-network half of the chaos engine. Where kill
// events model crash-stop, link faults model everything a heterogeneous
// or wide-area network does to traffic before anyone actually dies —
// extra latency and jitter, probabilistic frame loss, duplication, and
// transient partitions. A schedule's link faults compile (LinkFilter)
// into an mpi.LinkFilter: a pure function of (link, time, sequence,
// attempt) and the schedule's seed, evaluated at the frame layer shared
// by both transports, so the same spec and seed reproduce the same
// faulted run bit for bit.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mpi"
	"repro/internal/vclock"
)

// LinkFault degrades the (undirected) link between ranks A and B for a
// window of virtual time: frames crossing it in either direction during
// [From, From+Dur) are independently dropped with probability Drop,
// duplicated with probability Dup, and delayed by Delay plus a uniform
// draw in [0, Jitter).
type LinkFault struct {
	A, B   int
	From   vclock.Time
	Dur    vclock.Time // <= 0 means open-ended (until the run finishes)
	Drop   float64     // per-frame drop probability in [0,1]
	Dup    float64     // per-frame duplication probability in [0,1]
	Delay  float64     // fixed extra latency, seconds
	Jitter float64     // extra uniform latency in [0, Jitter), seconds
}

// active reports whether the fault window covers virtual time t.
func (l *LinkFault) active(t vclock.Time) bool {
	return t >= l.From && (l.Dur <= 0 || t < l.From+l.Dur)
}

// matches reports whether the fault covers the directed link src->dst.
func (l *LinkFault) matches(src, dst int) bool {
	return (src == l.A && dst == l.B) || (src == l.B && dst == l.A)
}

// String renders the fault in the "link:" spec form Parse accepts.
func (l LinkFault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link:%d-%d@%g", l.A, l.B, float64(l.From))
	if l.Dur > 0 {
		fmt.Fprintf(&b, "+%g", float64(l.Dur))
	}
	b.WriteByte(':')
	var params []string
	if l.Drop > 0 {
		params = append(params, fmt.Sprintf("drop=%g", l.Drop))
	}
	if l.Dup > 0 {
		params = append(params, fmt.Sprintf("dup=%g", l.Dup))
	}
	if l.Delay > 0 {
		params = append(params, fmt.Sprintf("delay=%g", l.Delay))
	}
	if l.Jitter > 0 {
		params = append(params, fmt.Sprintf("jitter=%g", l.Jitter))
	}
	if len(params) == 0 {
		params = append(params, "drop=0") // a no-op fault still round-trips
	}
	b.WriteString(strings.Join(params, ","))
	return b.String()
}

// Partition splits the world into two sides for a window of virtual
// time: every frame between a SideA rank and a SideB rank during
// [From, From+Dur) is dropped. Traffic within a side is untouched, as is
// traffic involving ranks on neither side.
type Partition struct {
	SideA, SideB []int
	From         vclock.Time
	Dur          vclock.Time // <= 0 means open-ended
}

// active reports whether the partition window covers virtual time t.
func (p *Partition) active(t vclock.Time) bool {
	return t >= p.From && (p.Dur <= 0 || t < p.From+p.Dur)
}

// crosses reports whether src->dst traffic crosses the partition.
func (p *Partition) crosses(src, dst int) bool {
	return (rankIn(p.SideA, src) && rankIn(p.SideB, dst)) ||
		(rankIn(p.SideB, src) && rankIn(p.SideA, dst))
}

func rankIn(set []int, r int) bool {
	for _, v := range set {
		if v == r {
			return true
		}
	}
	return false
}

// String renders the partition in the "part:" spec form Parse accepts.
func (p Partition) String() string {
	var b strings.Builder
	b.WriteString("part:")
	b.WriteString(formatSet(p.SideA))
	b.WriteByte('|')
	b.WriteString(formatSet(p.SideB))
	fmt.Fprintf(&b, "@%g", float64(p.From))
	if p.Dur > 0 {
		fmt.Fprintf(&b, "+%g", float64(p.Dur))
	}
	return b.String()
}

func formatSet(set []int) string {
	parts := make([]string, len(set))
	for i, r := range set {
		parts[i] = strconv.Itoa(r)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// parseWindow parses the "start" or "start+dur" tail of a faulted
// segment.
func parseWindow(s, seg string) (from, dur vclock.Time, err error) {
	fromStr, durStr, hasDur := strings.Cut(s, "+")
	f, err := strconv.ParseFloat(strings.TrimSpace(fromStr), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("chaos: bad start time in %q: %v", seg, err)
	}
	if f < 0 {
		return 0, 0, fmt.Errorf("chaos: negative start time in %q", seg)
	}
	from = vclock.Time(f)
	if hasDur {
		d, err := strconv.ParseFloat(strings.TrimSpace(durStr), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("chaos: bad duration in %q: %v", seg, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("chaos: duration must be positive in %q", seg)
		}
		dur = vclock.Time(d)
	}
	return from, dur, nil
}

// parseLinkFault parses the body of a "link:" segment:
// "A-B@start[+dur]:key=val[,key=val...]".
func parseLinkFault(body string, worldSize int) (LinkFault, error) {
	seg := "link:" + body
	head, params, found := strings.Cut(body, ":")
	if !found {
		return LinkFault{}, fmt.Errorf("chaos: bad link fault %q (want link:A-B@start+dur:drop=p,...)", seg)
	}
	ends, window, found := strings.Cut(head, "@")
	if !found {
		return LinkFault{}, fmt.Errorf("chaos: missing @time in link fault %q", seg)
	}
	aStr, bStr, found := strings.Cut(ends, "-")
	if !found {
		return LinkFault{}, fmt.Errorf("chaos: bad link endpoints in %q (want A-B)", seg)
	}
	a, err := strconv.Atoi(strings.TrimSpace(aStr))
	if err != nil {
		return LinkFault{}, fmt.Errorf("chaos: bad rank in %q: %v", seg, err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(bStr))
	if err != nil {
		return LinkFault{}, fmt.Errorf("chaos: bad rank in %q: %v", seg, err)
	}
	for _, r := range [2]int{a, b} {
		if r < 0 || r >= worldSize {
			return LinkFault{}, fmt.Errorf("chaos: rank %d outside world of size %d in %q", r, worldSize, seg)
		}
	}
	if a == b {
		return LinkFault{}, fmt.Errorf("chaos: link fault endpoints must differ in %q", seg)
	}
	if a > b {
		a, b = b, a
	}
	l := LinkFault{A: a, B: b}
	if l.From, l.Dur, err = parseWindow(window, seg); err != nil {
		return LinkFault{}, err
	}
	if strings.TrimSpace(params) == "" {
		return LinkFault{}, fmt.Errorf("chaos: link fault %q needs at least one of drop=, dup=, delay=, jitter=", seg)
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return LinkFault{}, fmt.Errorf("chaos: bad link fault element %q in %q (want key=value)", kv, seg)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return LinkFault{}, fmt.Errorf("chaos: bad %s value in %q: %v", key, seg, err)
		}
		switch key {
		case "drop", "dup":
			if v < 0 || v > 1 {
				return LinkFault{}, fmt.Errorf("chaos: %s probability %g outside [0,1] in %q", key, v, seg)
			}
			if key == "drop" {
				l.Drop = v
			} else {
				l.Dup = v
			}
		case "delay", "jitter":
			if v < 0 {
				return LinkFault{}, fmt.Errorf("chaos: negative %s in %q", key, seg)
			}
			if key == "delay" {
				l.Delay = v
			} else {
				l.Jitter = v
			}
		default:
			return LinkFault{}, fmt.Errorf("chaos: unknown link fault key %q in %q", key, seg)
		}
	}
	return l, nil
}

// parsePartition parses the body of a "part:" segment:
// "{set}|{set}@start[+dur]" where a set is "{1,2,5}" or "{3..8}" (forms
// may mix: "{0,4..6}").
func parsePartition(body string, worldSize int) (Partition, error) {
	seg := "part:" + body
	sets, window, found := strings.Cut(body, "@")
	if !found {
		return Partition{}, fmt.Errorf("chaos: missing @time in partition %q", seg)
	}
	aStr, bStr, found := strings.Cut(sets, "|")
	if !found {
		return Partition{}, fmt.Errorf("chaos: bad partition %q (want part:{..}|{..}@start+dur)", seg)
	}
	var p Partition
	var err error
	if p.SideA, err = parseSet(aStr, worldSize, seg); err != nil {
		return Partition{}, err
	}
	if p.SideB, err = parseSet(bStr, worldSize, seg); err != nil {
		return Partition{}, err
	}
	for _, r := range p.SideA {
		if rankIn(p.SideB, r) {
			return Partition{}, fmt.Errorf("chaos: rank %d on both sides of partition %q", r, seg)
		}
	}
	if p.From, p.Dur, err = parseWindow(window, seg); err != nil {
		return Partition{}, err
	}
	return p, nil
}

// parseSet parses "{1,2,5}" / "{3..8}" / "{0,4..6}" into a sorted,
// duplicate-free rank list.
func parseSet(s string, worldSize int, seg string) ([]int, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("chaos: bad rank set %q in %q (want {a,b..c})", s, seg)
	}
	if strings.TrimSpace(s[1:len(s)-1]) == "" {
		return nil, fmt.Errorf("chaos: empty rank set in %q", seg)
	}
	seen := make(map[int]bool)
	var out []int
	add := func(r int) error {
		if r < 0 || r >= worldSize {
			return fmt.Errorf("chaos: rank %d outside world of size %d in %q", r, worldSize, seg)
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
		return nil
	}
	for _, el := range strings.Split(s[1:len(s)-1], ",") {
		el = strings.TrimSpace(el)
		if lo, hi, isRange := strings.Cut(el, ".."); isRange {
			l, err1 := strconv.Atoi(strings.TrimSpace(lo))
			h, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || l > h {
				return nil, fmt.Errorf("chaos: bad rank range %q in %q", el, seg)
			}
			for r := l; r <= h; r++ {
				if err := add(r); err != nil {
					return nil, err
				}
			}
			continue
		}
		r, err := strconv.Atoi(el)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad rank %q in %q: %v", el, seg, err)
		}
		if err := add(r); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: empty rank set in %q", seg)
	}
	sort.Ints(out)
	return out, nil
}

// parseRandLinks parses the key=value tail of a "randlink:" segment and
// expands it into k seeded-random link faults.
func parseRandLinks(rest string, worldSize int) ([]LinkFault, error) {
	k, seed, tmax, dur := 1, int64(1), 1.0, 0.2
	tmpl := LinkFault{Drop: 0.2}
	for _, kv := range strings.Split(rest, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return nil, fmt.Errorf("chaos: bad randlink spec element %q (want key=value)", kv)
		}
		switch key {
		case "k":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad k: %v", err)
			}
			k = v
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed: %v", err)
			}
			seed = v
		case "tmax", "dur", "drop", "dup", "delay", "jitter":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad %s: %v", key, err)
			}
			switch key {
			case "tmax":
				tmax = v
			case "dur":
				dur = v
			case "drop":
				tmpl.Drop = v
			case "dup":
				tmpl.Dup = v
			case "delay":
				tmpl.Delay = v
			case "jitter":
				tmpl.Jitter = v
			}
		default:
			return nil, fmt.Errorf("chaos: unknown randlink spec key %q", key)
		}
	}
	return RandomLinks(k, seed, tmax, dur, worldSize, tmpl)
}

// RandomLinks builds k link faults on seeded-random distinct rank pairs,
// each starting at a seeded-random time in (0, tmax] with duration dur
// and the drop/dup/delay/jitter rates of tmpl. The same arguments always
// produce the same faults.
func RandomLinks(k int, seed int64, tmax, dur float64, worldSize int, tmpl LinkFault) ([]LinkFault, error) {
	npairs := worldSize * (worldSize - 1) / 2
	if k < 0 || k > npairs {
		return nil, fmt.Errorf("chaos: cannot fault %d of %d links in a world of size %d", k, npairs, worldSize)
	}
	if tmax <= 0 {
		return nil, fmt.Errorf("chaos: tmax must be positive, got %g", tmax)
	}
	if dur <= 0 {
		return nil, fmt.Errorf("chaos: dur must be positive, got %g", dur)
	}
	if tmpl.Drop < 0 || tmpl.Drop > 1 || tmpl.Dup < 0 || tmpl.Dup > 1 {
		return nil, fmt.Errorf("chaos: probabilities must be in [0,1]")
	}
	if tmpl.Delay < 0 || tmpl.Jitter < 0 {
		return nil, fmt.Errorf("chaos: delay and jitter must be non-negative")
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, 0, npairs)
	for a := 0; a < worldSize; a++ {
		for b := a + 1; b < worldSize; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	var out []LinkFault
	for _, i := range rng.Perm(npairs)[:k] {
		l := tmpl
		l.A, l.B = pairs[i][0], pairs[i][1]
		l.From = vclock.Time((1 - rng.Float64()) * tmax) // in (0, tmax]
		l.Dur = vclock.Time(dur)
		out = append(out, l)
	}
	sortLinks(out)
	return out, nil
}

func sortLinks(ls []LinkFault) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From < ls[j].From
		}
		if ls[i].A != ls[j].A {
			return ls[i].A < ls[j].A
		}
		return ls[i].B < ls[j].B
	})
}

func sortParts(ps []Partition) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].From != ps[j].From {
			return ps[i].From < ps[j].From
		}
		if len(ps[i].SideA) > 0 && len(ps[j].SideA) > 0 {
			return ps[i].SideA[0] < ps[j].SideA[0]
		}
		return len(ps[i].SideA) < len(ps[j].SideA)
	})
}

// HasLinkFaults reports whether the schedule degrades any links (so
// callers know whether to install a filter and arm retransmission).
func (s *Schedule) HasLinkFaults() bool {
	return len(s.Links) > 0 || len(s.Parts) > 0
}

// splitmix64's finalizer: the per-frame deterministic "coin".
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash01 derives a uniform [0,1) draw from the frame's identity: fault
// index, endpoints, sequence, attempt, and a salt distinguishing the
// drop/dup/jitter decisions. Virtual time is deliberately excluded — a
// retransmission re-rolls via the attempt counter, keeping the filter a
// pure function of its arguments.
func hash01(seed int64, fault, src, dst int, seq int64, attempt int, salt uint64) float64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x = mix64(x + uint64(fault+1)*0xff51afd7ed558ccd)
	x = mix64(x ^ uint64(src)<<32 ^ uint64(dst))
	x = mix64(x ^ uint64(seq))
	x = mix64(x ^ uint64(attempt)<<8 ^ salt)
	return float64(x>>11) / (1 << 53)
}

// LinkFilter compiles the schedule's link faults and partitions into a
// frame adjudicator for mpi.World.SetLinkFilter. Returns nil when the
// schedule has no link faults (the world then keeps its exact,
// zero-overhead fast path, preserving bit-identical clocks). The seed
// drives every probabilistic decision; the filter is pure, so a run is
// reproducible from (schedule, seed).
func (s *Schedule) LinkFilter(seed int64) mpi.LinkFilter {
	if !s.HasLinkFaults() {
		return nil
	}
	links := append([]LinkFault(nil), s.Links...)
	parts := append([]Partition(nil), s.Parts...)
	return func(src, dst int, at vclock.Time, seq int64, attempt int) mpi.LinkOutcome {
		var out mpi.LinkOutcome
		for i := range parts {
			if parts[i].active(at) && parts[i].crosses(src, dst) {
				out.Drop = true
				return out
			}
		}
		for i := range links {
			l := &links[i]
			if !l.matches(src, dst) || !l.active(at) {
				continue
			}
			if l.Drop > 0 && hash01(seed, i, src, dst, seq, attempt, 1) < l.Drop {
				out.Drop = true
				return out
			}
			if l.Dup > 0 && hash01(seed, i, src, dst, seq, attempt, 2) < l.Dup {
				out.Dup = true
			}
			d := l.Delay
			if l.Jitter > 0 {
				d += l.Jitter * hash01(seed, i, src, dst, seq, attempt, 3)
			}
			out.Delay += vclock.Time(d)
		}
		return out
	}
}

// Arm installs the whole schedule on a world: kill events via Attach and,
// when the schedule has link faults, the link filter (which arms the
// retransmit path). seed drives the filter's probabilistic decisions;
// onKill observes kill events as in Attach. Install before Run.
func (s *Schedule) Arm(w *mpi.World, seed int64, onKill func(Event)) error {
	for _, l := range s.Links {
		for _, r := range [2]int{l.A, l.B} {
			if r < 0 || r >= w.Size() {
				return fmt.Errorf("chaos: link fault rank %d outside world of size %d", r, w.Size())
			}
		}
	}
	for _, p := range s.Parts {
		for _, r := range append(append([]int(nil), p.SideA...), p.SideB...) {
			if r < 0 || r >= w.Size() {
				return fmt.Errorf("chaos: partition rank %d outside world of size %d", r, w.Size())
			}
		}
	}
	if err := s.Attach(w, onKill); err != nil {
		return err
	}
	if f := s.LinkFilter(seed); f != nil {
		w.SetLinkFilter(f)
	}
	return nil
}
