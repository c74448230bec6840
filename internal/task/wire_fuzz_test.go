package upcxx

// FuzzTaskWire drives what a thief does with a steal reply's bytes: decode
// them as the RPC layer decodes the reply's argument, then check each task as
// stealReplyBody does before queueing it (adopt). Arbitrary bytes must panic
// neither, and a task adopt accepts must name a home rank in range and be
// bound to a task form of its own name and kind — what a worker then runs.

import (
	"bytes"
	"testing"

	"upcxx/internal/serial"
)

func FuzzTaskWire(f *testing.F) {
	const n = 4 // ranks in the thief's job
	val, ff := spawnOf(tDouble).bodies[0].task.name, spawnOf(tChain).bodies[0].task.name
	for _, rep := range []stealReply{
		{Victim: 1, Loot: []rec{{Seq: 1, Home: 0, Name: val, Args: []byte{1, 2, 3}}}},
		{Victim: 3, Loot: []rec{
			{Seq: 1 << 60, Trace: 99, Home: 3, Group: 7, Flags: flagFF, Name: ff, Args: bytes.Repeat([]byte{0xAB}, 300)},
			{Seq: 2, Home: 1, Name: val},
		}},
		{Victim: 2},
		{Loot: []rec{{Seq: 1, Home: 1, Name: "no/such.task"}}},
		{Loot: []rec{{Seq: 1, Home: 1, Name: val, Flags: flagFF}}}, // a result-bearing task named fire-and-forget
		{Loot: []rec{{Seq: 1, Home: n, Name: val}}},
		{Loot: []rec{{Seq: 1, Home: -1, Name: val}}},
	} {
		f.Add(marshal(&rep))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep stealReply
		if serial.Decode(data, &rep) != nil {
			return
		}
		for _, r := range rep.Loot {
			if r.adopt(n) != nil {
				continue
			}
			if r.Home < 0 || r.Home >= n {
				t.Fatalf("adopted a task homed at rank %d of %d", r.Home, n)
			}
			if r.b == nil || r.b.name != r.Name || r.b.flags&flagFF != r.Flags&flagFF {
				t.Fatalf("adopted %q (flags %#x) bound to %+v", r.Name, r.Flags, r.b)
			}
		}
	})
}
