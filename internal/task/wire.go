package task

// Task frame wire format. Every task that leaves its spawning rank —
// the initial AsyncAt ship and every later steal migration — travels as
// one versioned frame inside a registered fire-and-forget RPC (the
// steal/migrate protocol lowers onto the batched RPC wire rather than
// adding a conduit message type; cf. the paper's position that the
// runtime composes from one injection path). The frame is versioned and
// magic-tagged independently of the RPC envelope because it is
// re-encoded mid-flight: a victim decodes an enqueued frame, sets the
// stolen flag, and re-ships it, so both ends of a migration must agree
// on this layout even across runtime revisions.
//
//	u8  magic (0xCA)   u8 version (1)
//	u64 id             spawn sequence number, scoped to the home rank
//	u64 trace          home-ring trace id (0 = unsampled)
//	u32 home           world rank that spawned the task (owns id/trace/group)
//	u64 group          TaskGroup id on the home rank (0 = none)
//	u8  flags          fire-and-forget, stolen
//	uvarint-len bytes  registered function name
//	uvarint-len bytes  serialized argument (must end the frame)
//
// Both length prefixes are checked against the bytes actually present, so
// a corrupt one cannot drive allocation. decodeRec returns errors (not
// panics) for malformed input: frames cross trust boundaries between
// processes, and FuzzTaskWire drives this decoder directly.

import (
	"fmt"

	"upcxx/internal/serial"
)

const (
	taskMagic   = 0xCA
	taskWireVer = 1
)

const (
	// flagFF marks a fire-and-forget task: no result frame returns to the
	// home rank, and the executing rank counts its completion.
	flagFF = 1 << iota
	// flagStolen marks a migrated task, so the executing rank attributes
	// it to the steal path in counters and traces.
	flagStolen
)

// rec is one shippable task: everything a rank needs to execute a spawn
// that happened elsewhere.
type rec struct {
	ID    uint64
	Trace uint64
	Home  int32
	Group uint64
	Flags uint8
	Name  string
	Args  []byte
}

func encodeRec(r rec) []byte {
	e := serial.NewEncoder(make([]byte, 0, 32+len(r.Name)+len(r.Args)))
	e.PutU8(taskMagic)
	e.PutU8(taskWireVer)
	e.PutU64(r.ID)
	e.PutU64(r.Trace)
	e.PutU32(uint32(r.Home))
	e.PutU64(r.Group)
	e.PutU8(r.Flags)
	e.PutString(r.Name)
	e.PutBytes(r.Args)
	return e.Bytes()
}

func decodeRec(b []byte) (rec, error) {
	const format = "task frame"
	var r rec
	d := serial.NewDecoder(b)
	if err := d.Header(format, taskMagic, taskWireVer); err != nil {
		return r, err
	}
	r.ID = d.U64()
	r.Trace = d.U64()
	r.Home = int32(d.U32())
	r.Group = d.U64()
	r.Flags = d.U8()
	r.Name = d.String()
	var err error
	if r.Args, err = d.Tail(format); err != nil {
		return r, err
	}
	if r.Home < 0 {
		return r, fmt.Errorf("%s: home rank %d negative", format, r.Home)
	}
	if r.Name == "" {
		return r, fmt.Errorf("%s: names no function", format)
	}
	return r, nil
}
