package trace

import (
	"strings"
	"testing"
)

// TestGanttGolden pins the text timeline byte for byte on hand-built
// snapshots ten columns wide over a ten-second makespan, so every column
// is one virtual second.
func TestGanttGolden(t *testing.T) {
	const legend = "virtual time 0 .. 10s  (c=compute s=send r=recv/wait .=idle)\n"
	blocking := [][]Event{
		{{Kind: KindCompute, Start: 0, End: 5}, {Kind: KindSend, Start: 5, End: 7}},
		{{Kind: KindRecv, Start: 0, End: 8}, {Kind: KindCompute, Start: 8, End: 10}},
	}
	cases := []struct {
		name string
		data Data
		want string
	}{
		{
			// Rank 1 waits in its receive while rank 0 computes and sends.
			name: "blocking",
			data: Data{PerRank: blocking},
			want: legend +
				"rank  0 |cccccss...|\n" +
				"rank  1 |rrrrrrrrcc|\n",
		},
		{
			// Rank 0 posts an Isend, computes, then waits for the NIC to
			// drain; rank 1 posts an Irecv, computes, and blocks in Wait
			// until the message lands. Posting events are instants and
			// draw nothing, as does a Wait on a finished request; collective
			// envelopes (KindColl) never paint over their point activity.
			name: "nonblocking",
			data: Data{PerRank: [][]Event{
				{
					{Kind: KindIsend, Start: 0, End: 0},
					{Kind: KindSend, Start: 0, End: 1},
					{Kind: KindCompute, Start: 1, End: 4},
					{Kind: KindWait, Start: 4, End: 6},
					{Kind: KindWait, Start: 8, End: 8},
				},
				{
					{Kind: KindIrecv, Start: 0, End: 0},
					{Kind: KindCompute, Start: 0, End: 3},
					{Kind: KindRecv, Start: 3, End: 6},
					{Kind: KindWait, Start: 3, End: 6},
					{Kind: KindCompute, Start: 6, End: 10},
					{Kind: KindColl, Start: 0, End: 10},
				},
			}},
			want: legend +
				"rank  0 |scccrr....|\n" +
				"rank  1 |cccrrrcccc|\n",
		},
		{
			name: "dropped",
			data: Data{Meta: Meta{Dropped: 7}, PerRank: blocking},
			want: "partial timeline: the recorder's ring overwrote 7 earlier events\n" + legend +
				"rank  0 |cccccss...|\n" +
				"rank  1 |rrrrrrrrcc|\n",
		},
		{
			name: "empty",
			data: Data{PerRank: make([][]Event, 1)},
			want: "(no activity)\n",
		},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if err := tc.data.Gantt(&sb, 10); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sb.String(); got != tc.want {
			t.Errorf("%s: timeline differs\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
