// Package serialtest holds the one fuzz harness the runtime's hand-rolled
// wire format — the RPC message in its call, collective and remote-cx
// shapes — is checked with.
package serialtest

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCanonical fuzzes a decode/encode pair from the given seeds. decode
// must never panic, whatever the bytes; and whatever it accepts must be in
// canonical form — encode(decode(b)) is b again, and decodes to an equal
// value — so a message has exactly one wire form and survives being
// decoded and re-shipped. valid, when non-nil, names a format invariant a
// decoded value breaks ("" for none): something decode must have refused.
func FuzzCanonical[T any](f *testing.F, seeds [][]byte, decode func([]byte) (T, error), encode func(T) []byte, valid func(T) string) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(data)
		if err != nil {
			return
		}
		if valid != nil {
			if why := valid(v); why != "" {
				t.Fatalf("decoder accepted %s from % x", why, data)
			}
		}
		re := encode(v)
		if !bytes.Equal(re, data) {
			t.Fatalf("wire form not canonical: % x -> %+v -> % x", data, v, re)
		}
		v2, err := decode(re)
		if err != nil {
			t.Fatalf("re-encoded form rejected: %v", err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip mismatch: %+v != %+v", v2, v)
		}
	})
}
