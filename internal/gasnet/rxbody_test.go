package gasnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestConformanceBulkPayloadReleased: AMs longer than the socket read buffer
// are read into pooled bodies, over tcp and over shm's socket path (every
// size here is past a ring record). A handler that releases its payload
// checks it first; one in four it keeps instead. Every payload must read as
// it was sent while its handler runs, and every kept one still at the end,
// after later messages were read into the released bodies (in a race build,
// released bodies are poisoned as well). The sizes straddle the first size
// class's edge.
func TestConformanceBulkPayloadReleased(t *testing.T) {
	const head = 8 // an fAM frame's head with no aux
	sizes := []int{1<<16 + 100, 1<<16 + recvSlack - head, 1<<16 + recvSlack - head + 1, 300 << 10}
	const N, burst = 40, 10
	backends := []string{"tcp"}
	if runtime.GOOS == "linux" {
		backends = append(backends, "shm")
	}
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			nets, _ := wirePair(t, backend)
			defer closeAll(nets)
			got, bad := 0, 0
			kept := map[int][]byte{}
			for _, n := range nets {
				n.RegisterAM(func(ep *Endpoint, _ Rank, p []byte, _ any) {
					i := got
					got++
					if !bytes.Equal(p, pattern(sizes[i%len(sizes)], byte(i))) {
						bad++
					}
					if i%4 == 3 {
						kept[i] = p
						return
					}
					ep.ReleasePayload()
				})
			}
			from, to := nets[0].Endpoint(0), nets[1].Endpoint(1)
			for sent := 0; sent < N; {
				for range burst {
					from.AM(1, 0, pattern(sizes[sent%len(sizes)], byte(sent)), nil)
					sent++
				}
				for deadline := time.Now().Add(20 * time.Second); got < sent; to.Poll() {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d AMs arrived", got, sent)
					}
				}
			}
			if bad != 0 {
				t.Errorf("%d of %d payloads did not read as sent inside their handler", bad, N)
			}
			for i, p := range kept {
				if !bytes.Equal(p, pattern(sizes[i%len(sizes)], byte(i))) {
					t.Errorf("the payload kept from AM %d (%d bytes) was rewritten after its handler returned", i, len(p))
				}
			}
			if err := nets[1].Failed(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecvBodyAllocs pins what a released body saves: bursts of 64 KiB AMs
// read off the socket into bodies their handler hands back allocate, in
// bytes, less than one body per 16 AMs — each burst reads into the bodies the
// last one released. Without the release every AM is a fresh body, and a
// body past the largest class is a plain one with no handle.
func TestRecvBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it is given at random under -race")
	}
	const size, burst, rounds = 64 << 10, 8, 32
	r := newReaderRig(1 << 12)
	release := true
	h := r.net.RegisterAM(func(ep *Endpoint, _ Rank, p []byte, _ any) {
		if release {
			ep.ReleasePayload()
		}
	})
	var stream []byte
	for i := range burst {
		stream = append(stream, encodeAM(0, uint16(h), nil, pattern(size, byte(i)), nil)...)
	}
	stream = append(stream, encodeEmpty(fBye)...)
	perAM := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			r.feed(stream)
			r.ep.PollAMs()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (rounds * burst)
	}
	perAM() // the rig's queues grow, the pool fills
	if b := perAM(); b >= size/16 {
		t.Errorf("a released 64 KiB AM allocates %.0f bytes, want < %d (one body per 16 AMs)", b, size/16)
	}
	release = false
	if b := perAM(); b < size {
		t.Errorf("an AM its handler keeps allocates %.0f bytes, want a body of its own (>= %d)", b, size)
	}
	if err := r.net.Failed(); err != nil || r.w.failure() != nil {
		t.Errorf("the rig's reader failed its peer: %v / %v", err, r.w.failure())
	}
	if b, rb := newRecvBody(1<<recvMaxShift + recvSlack + 1); rb != nil || len(b) != 1<<recvMaxShift+recvSlack+1 {
		t.Errorf("a body past the largest class came from a pool (handle %v, %d bytes)", rb != nil, len(b))
	}
}
