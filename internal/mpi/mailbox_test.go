package mpi

import (
	"slices"
	"testing"
)

// TestMailboxFIFOBounded: a (sender, context) queue that never drains —
// a backlog of k messages, one taken for each one added, alternately the
// oldest and one from the middle — hands out exactly the message each
// receive selects and keeps the others in arrival order.
// TestBacklogAllocationFloor holds what such a backlog allocates.
func TestMailboxFIFOBounded(t *testing.T) {
	for _, k := range []int{0, 1, 5, 64, 1000} {
		var m mailbox
		m.init(2)
		var model []int // the tags queued, oldest first
		check := func(step int) {
			var got []int
			if q := m.peers[1].queue(7); q != nil { // nil: drained, the queue waits for the next context
				for e := q.first; e != nil; e = e.next {
					got = append(got, e.tag)
				}
			}
			if !slices.Equal(got, model) {
				t.Fatalf("k=%d step %d: queued tags %v, want %v", k, step, got, model)
			}
		}
		tag := 0
		put := func() {
			m.put(&envelope{ctx: 7, src: 1, tag: tag})
			model = append(model, tag)
			tag++
		}
		for range k {
			put()
		}
		for step := range 5000 {
			put()
			pos := 0
			if step%2 == 1 {
				pos = len(model) / 2
			}
			want := model[pos]
			m.drain(recvSel{ctx: 7, src: 1, tag: want})
			e := m.get(recvSel{ctx: 7, src: 1, tag: want}, false)
			if e == nil || e.tag != want {
				t.Fatalf("k=%d step %d: took %v, want tag %d", k, step, e, want)
			}
			m.free(e)
			model = slices.Delete(model, pos, pos+1)
			check(step)
		}
	}
}
