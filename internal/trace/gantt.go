package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/vclock"
)

// ganttOrder lists the timeline glyphs by rising paint priority: where
// activities share a column, compute beats send beats recv/wait beats idle.
const ganttOrder = ".rsc"

// ganttGlyph returns the glyph of an event the text timeline draws, or 0
// for kinds it does not. A Wait interval is what a request's completion
// blocked on — the NIC draining an Isend, a nonblocking collective's
// remaining steps — and reads as waiting, like the blocked part of a
// receive; a Wait that found its request already complete draws nothing.
func ganttGlyph(e *Event) byte {
	switch e.Kind {
	case KindCompute:
		return 'c'
	case KindSend:
		return 's'
	case KindRecv:
		return 'r'
	case KindWait:
		if e.End > e.Start {
			return 'r'
		}
	}
	return 0
}

// Gantt renders a text timeline of the snapshot: one row per rank, width
// columns across the virtual makespan of the drawn activity; c =
// computing, s = sending, r = receiving or waiting, . = idle. A snapshot
// whose ring overwrote events says so in its first line: the timeline then
// shows only each rank's retained tail.
func (d *Data) Gantt(w io.Writer, width int) error {
	var makespan vclock.Time
	d.EachEvent(func(_ int, e Event) bool {
		if ganttGlyph(&e) != 0 && e.End > makespan {
			makespan = e.End
		}
		return true
	})
	if makespan == 0 || width <= 0 {
		_, err := fmt.Fprintln(w, "(no activity)")
		return err
	}
	rows := make([][]byte, d.NumRanks())
	for r := range rows {
		rows[r] = []byte(strings.Repeat(".", width))
	}
	d.EachEvent(func(rank int, e Event) bool {
		g := ganttGlyph(&e)
		if g == 0 {
			return true
		}
		lo := int(float64(e.Start) / float64(makespan) * float64(width))
		hi := int(float64(e.End) / float64(makespan) * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		prio := strings.IndexByte(ganttOrder, g)
		for i := lo; i < hi; i++ {
			if prio > strings.IndexByte(ganttOrder, rows[rank][i]) {
				rows[rank][i] = g
			}
		}
		return true
	})
	if d.Meta.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "partial timeline: the recorder's ring overwrote %d earlier events\n", d.Meta.Dropped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "virtual time 0 .. %.4gs  (c=compute s=send r=recv/wait .=idle)\n", float64(makespan)); err != nil {
		return err
	}
	for r, row := range rows {
		if _, err := fmt.Fprintf(w, "rank %2d |%s|\n", r, row); err != nil {
			return err
		}
	}
	return nil
}
