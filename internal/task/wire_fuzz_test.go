package task

// FuzzTaskWire drives the task-frame decoder through the runtime's shared
// wire-format harness: arbitrary bytes must never panic it (frames cross
// process boundaries), and any frame it accepts must be canonical and
// survive a re-encode/re-decode round trip unchanged — the property steal
// migration relies on when a victim re-ships a decoded frame.

import (
	"bytes"
	"testing"

	"upcxx/internal/serial/serialtest"
)

func FuzzTaskWire(f *testing.F) {
	seeds := [][]byte{
		encodeRec(rec{Seq: 1, Home: 0, Name: "pkg.fn", Args: []byte{1, 2, 3}}),
		encodeRec(rec{Seq: 1 << 60, Trace: 99, Home: 3, Group: 7, Flags: flagFF | flagStolen,
			Name: "upcxx/internal/task.tChain", Args: bytes.Repeat([]byte{0xAB}, 300)}),
		encodeRec(rec{Seq: 2, Home: 1, Name: "n", Args: nil}),
		{},
		{taskMagic},
		{taskMagic, taskWireVer, 0, 0, 0},
		{taskMagic, taskWireVer + 1},
	}
	serialtest.FuzzCanonical(f, seeds, decodeRec, encodeRec, func(r rec) string {
		switch {
		case r.Home < 0:
			return "a negative home rank"
		case r.Name == "":
			return "a frame naming no function"
		}
		return ""
	})
}
