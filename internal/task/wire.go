package task

// Task frame wire format: what a steal re-ships. A spawn is an RPC entry
// (task.go) and needs no frame; a task that migrates travels in the steal
// reply as one frame holding what the entry's message said about it, the
// argument bytes still undecoded. Versioned and magic-tagged apart from the
// RPC envelope: both ends of a migration must agree on it across revisions.
//
//	u8  magic (0xCA)   u8 version (2)
//	u64 seq            the home rank's reply sequence number (0: fire-and-forget)
//	u64 trace          home-ring trace id (0 = unsampled)
//	u32 home           world rank that spawned the task (owns seq/trace/group)
//	u64 group          TaskGroup id on the home rank (0 = none)
//	u8  flags          fire-and-forget, stolen
//	uvarint-len bytes  registered function name
//	uvarint-len bytes  serialized argument (must end the frame)
//
// Lengths are checked against the bytes present, and decodeRec returns errors,
// not panics: frames cross process boundaries (FuzzTaskWire drives it).

import (
	"fmt"

	"upcxx/internal/serial"
)

const (
	taskMagic   = 0xCA
	taskWireVer = 2
)

const (
	// flagFF marks a fire-and-forget task: no reply entry returns to the
	// home rank; a retire frame carries its credit.
	flagFF = 1 << iota
	// flagStolen marks loot: it runs where it landed and is not offered to
	// another steal.
	flagStolen
)

// rec is one queued task: what a rank needs to run a spawn and answer it. The
// capitalised fields are the frame's; b is what Name resolves to on this rank.
type rec struct {
	Seq   uint64
	Trace uint64
	Home  int32
	Group uint64
	Flags uint8
	Name  string
	Args  []byte

	b *body
}

func encodeRec(r rec) []byte {
	e := serial.NewEncoder(make([]byte, 0, 32+len(r.Name)+len(r.Args)))
	e.PutU8(taskMagic)
	e.PutU8(taskWireVer)
	e.PutU64(r.Seq)
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
	r.Seq = d.U64()
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
