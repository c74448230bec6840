package gasnet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"upcxx/internal/obs"
)

// Backend conformance: the same table of operations runs against every
// conduit backend — loopback, loggp, and wire networks (one Network per
// rank, all in this process) over tcp and, on linux, shm — with and
// without GPUDirect. Each row checks the moved bytes, the completion
// order (landing before remote-completion AM before ack) and the exact
// Stats delta, and every backend's DMA-descriptor counts must equal
// loopback's.

// --- planHops ---------------------------------------------------------------

func segAt(r Rank, dev bool) loc {
	l := loc{rank: r}
	if dev {
		l.seg = 1
	}
	return l
}

func bufAt(r Rank) loc { return loc{isBuf: true, rank: r} }

// TestPlanHopsTable pins every row of the hop table next to planHops,
// with and without GPUDirect: the chain, its landing hop, and the
// descriptors charged.
func TestPlanHopsTable(t *testing.T) {
	type charges = []DMAHop
	const B, D = obs.DMAD2DBounced, obs.DMAD2DDirect
	cases := []struct {
		name     string
		src, dst loc
		gdr      bool
		hops     []hop
		land     int
		dma      charges
	}{
		{"put host→remote host", bufAt(0), segAt(1, false), false,
			[]hop{{hopWire, 0, 1}, {hopAck, 1, 0}}, 0, nil},
		{"put host→remote device", bufAt(0), segAt(1, true), false,
			[]hop{{hopWire, 0, 1}, {hopH2D, 1, 1}, {hopAck, 1, 0}}, 1, charges{{1, 64, obs.DMAH2D}}},
		{"put host→remote device, gdr", bufAt(0), segAt(1, true), true,
			[]hop{{hopWire, 0, 1}, {hopAck, 1, 0}}, 0, charges{{1, 64, obs.DMAH2D}}},
		{"put host→own device", bufAt(0), segAt(0, true), false,
			[]hop{{hopH2D, 0, 0}}, 0, charges{{0, 64, obs.DMAH2D}}},
		{"put host→own device, gdr", bufAt(0), segAt(0, true), true,
			[]hop{{hopH2D, 0, 0}}, 0, charges{{0, 64, obs.DMAH2D}}},
		{"put host→own host", bufAt(0), segAt(0, false), false,
			[]hop{{hopLocal, 0, 0}}, 0, nil},
		{"get remote host→host", segAt(1, false), bufAt(0), false,
			[]hop{{hopRequest, 0, 1}, {hopWire, 1, 0}}, 1, nil},
		{"get remote device→host", segAt(1, true), bufAt(0), false,
			[]hop{{hopRequest, 0, 1}, {hopD2H, 1, 1}, {hopWire, 1, 0}}, 2, charges{{1, 64, obs.DMAD2H}}},
		{"get remote device→host, gdr", segAt(1, true), bufAt(0), true,
			[]hop{{hopRequest, 0, 1}, {hopWire, 1, 0}}, 1, charges{{1, 64, obs.DMAD2H}}},
		{"get own device→host", segAt(0, true), bufAt(0), false,
			[]hop{{hopD2H, 0, 0}}, 0, charges{{0, 64, obs.DMAD2H}}},
		{"copy device→device, one rank", segAt(0, true), segAt(0, true), false,
			[]hop{{hopD2D, 0, 0}}, 0, charges{{0, 64, D}}},
		{"copy device→device, one rank, gdr", segAt(0, true), segAt(0, true), true,
			[]hop{{hopD2D, 0, 0}}, 0, charges{{0, 64, D}}},
		{"copy device→device, two ranks", segAt(0, true), segAt(1, true), false,
			[]hop{{hopD2H, 0, 0}, {hopWire, 0, 1}, {hopH2D, 1, 1}, {hopNotify, 1, 0}}, 2, charges{{0, 64, B}, {1, 64, B}}},
		{"copy device→device, two ranks, gdr", segAt(0, true), segAt(1, true), true,
			[]hop{{hopWire, 0, 1}, {hopNotify, 1, 0}}, 0, charges{{0, 64, D}, {1, 64, D}}},
		{"copy device→device, third party", segAt(1, true), segAt(2, true), false,
			[]hop{{hopRequest, 0, 1}, {hopD2H, 1, 1}, {hopWire, 1, 2}, {hopH2D, 2, 2}, {hopNotify, 2, 0}}, 3, charges{{1, 64, B}, {2, 64, B}}},
		{"copy device→device, third party, gdr", segAt(1, true), segAt(2, true), true,
			[]hop{{hopRequest, 0, 1}, {hopWire, 1, 2}, {hopNotify, 2, 0}}, 1, charges{{1, 64, D}, {2, 64, D}}},
		{"copy remote device→own host (pull)", segAt(1, true), segAt(0, false), false,
			[]hop{{hopRequest, 0, 1}, {hopD2H, 1, 1}, {hopWire, 1, 0}}, 2, charges{{1, 64, obs.DMAD2H}}},
		{"copy host→device on a remote rank", segAt(1, false), segAt(1, true), false,
			[]hop{{hopRequest, 0, 1}, {hopH2D, 1, 1}, {hopNotify, 1, 0}}, 1, charges{{1, 64, obs.DMAH2D}}},
		{"copy host→host, one rank", segAt(0, false), segAt(0, false), false,
			[]hop{{hopLocal, 0, 0}}, 0, nil},
		{"copy host→remote host", segAt(0, false), segAt(1, false), false,
			[]hop{{hopWire, 0, 1}, {hopNotify, 1, 0}}, 0, nil},
	}
	for _, tc := range cases {
		p := planHops(&xfer{init: 0, src: tc.src, dst: tc.dst, n: 64}, tc.gdr)
		if got := p.hops[:p.nhops]; fmt.Sprint(got) != fmt.Sprint(tc.hops) {
			t.Errorf("%s: hops = %v, want %v", tc.name, got, tc.hops)
		}
		if p.land != tc.land {
			t.Errorf("%s: landing hop = %d, want %d", tc.name, p.land, tc.land)
		}
		if got := p.dma[:p.ndma]; fmt.Sprint(got) != fmt.Sprint(tc.dma) {
			t.Errorf("%s: dma charges = %v, want %v", tc.name, got, tc.dma)
		}
	}
}

// --- the matrix -------------------------------------------------------------

// intAux ships int aux tokens as one byte; 0xFF does not decode.
type intAux struct{}

func (intAux) EncodeAux(aux any) ([]byte, error) { return []byte{byte(aux.(int))}, nil }
func (intAux) DecodeAux(b []byte) (any, error) {
	if len(b) != 1 || b[0] == 0xFF {
		return nil, errors.New("intAux: undecodable token")
	}
	return int(b[0]), nil
}

const (
	confRanks = 3
	confN     = 64 // payload bytes per fragment
	confAux   = 7
)

// confWorld is one job as the matrix sees it: an endpoint per rank,
// whatever hosts them.
type confWorld struct {
	name string
	nets []*Network // one in-process network, or one wire network per rank
	eps  []*Endpoint
	ob   *obs.Obs
	wire bool
	// remBeforeAck: the backend enqueues a remote-completion AM at the
	// destination before the initiator can observe the ack. shm only
	// *sends* it first — the standalone fAM rides the ring while the
	// memcpy'd put completes locally at once.
	remBeforeAck bool
	dev          []SegID // each rank's device segment
	hAM, hRem    HandlerID
	row          *confRow // the row in flight, for the AM handlers
}

func (w *confWorld) finish(t *testing.T) {
	closeAll(w.nets)
	for r, n := range w.nets {
		if err := n.Failed(); err != nil {
			t.Errorf("%s: network %d failed: %v", w.name, r, err)
		}
	}
}

func (w *confWorld) setup() {
	for _, n := range w.nets {
		w.hAM = n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, aux any) { w.row.onAM(ep, src, payload, aux) })
		w.hRem = n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, aux any) { w.row.onRem(ep, src, payload, aux) })
	}
	w.dev = make([]SegID, len(w.eps))
	for r, ep := range w.eps {
		w.dev[r] = ep.AddDeviceSegment(1 << 16)
	}
}

func inprocWorld(name string, model Model, dma DMAModel) *confWorld {
	ob := obs.New(confRanks, obs.Options{TraceDepth: 64})
	n := NewNetwork(Config{Ranks: confRanks, RanksPerNode: 1, SegmentSize: 1 << 16, Model: model, DMA: dma, Obs: ob})
	w := &confWorld{name: name, nets: []*Network{n}, ob: ob, remBeforeAck: true}
	for r := 0; r < confRanks; r++ {
		w.eps = append(w.eps, n.Endpoint(Rank(r)))
	}
	return w
}

func wireWorld(t *testing.T, backend string, gdr bool) *confWorld {
	dir := t.TempDir()
	ob := obs.New(confRanks, obs.Options{TraceDepth: 64})
	w := &confWorld{name: backend, nets: make([]*Network, confRanks), ob: ob, wire: true, remBeforeAck: backend != "shm"}
	var wg sync.WaitGroup
	for r := range w.nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.nets[r] = NewNetwork(Config{Ranks: confRanks, SegmentSize: 1 << 16, DMA: NoDelayDMA{GDR: gdr}, Obs: ob, Aux: intAux{},
				Real: &RealConduit{Backend: backend, Rank: r, BootDir: dir, Timeout: 20 * time.Second}})
		}()
	}
	wg.Wait()
	for r, n := range w.nets {
		w.eps = append(w.eps, n.Endpoint(Rank(r)))
	}
	return w
}

type confSpec struct {
	op    string // put get am amv amo copy
	dev   bool   // the segment sides are device memory
	place string // self peer third pull
	rem   string // none rem counted
}

func (s confSpec) String() string {
	kind := "host"
	if s.dev {
		kind = "device"
	}
	return fmt.Sprintf("%s/%s/%s/%s", s.op, kind, s.place, s.rem)
}

func confSpecs() []confSpec {
	var out []confSpec
	for _, dev := range []bool{false, true} {
		for _, rem := range []string{"none", "rem", "counted"} {
			for _, place := range []string{"self", "peer"} {
				out = append(out, confSpec{"put", dev, place, rem})
			}
			for _, place := range []string{"self", "peer", "third", "pull"} {
				out = append(out, confSpec{"copy", dev, place, rem})
			}
		}
		for _, place := range []string{"self", "peer"} {
			out = append(out, confSpec{"get", dev, place, "none"})
		}
	}
	for _, op := range []string{"am", "amv", "amo"} {
		for _, place := range []string{"self", "peer"} {
			out = append(out, confSpec{op, false, place, "none"})
		}
	}
	return out
}

// confRow is the state of one row while it runs.
type confRow struct {
	t    *testing.T
	w    *confWorld
	spec confSpec
	what string

	dstRank  Rank
	pat      [][]byte           // per-fragment payload
	dstBytes func(f int) []byte // where fragment f must become visible

	acks, remFired, amGot int
}

func (r *confRow) landed(f int) bool { return bytes.Equal(r.dstBytes(f), r.pat[f]) }

func (r *confRow) onRem(ep *Endpoint, src Rank, payload []byte, aux any) {
	r.remFired++
	if ep.Rank() != r.dstRank || src != 0 || string(payload) != "sig" || aux != confAux {
		r.t.Errorf("%s: rem-AM ran at rank %d from %d with %q/%v", r.what, ep.Rank(), src, payload, aux)
	}
	for f := range r.pat {
		if !r.landed(f) {
			r.t.Errorf("%s: rem-AM ran before fragment %d landed", r.what, f)
		}
	}
}

func (r *confRow) onAM(ep *Endpoint, src Rank, payload []byte, aux any) {
	r.amGot++
	if ep.Rank() != r.dstRank || src != 0 || !bytes.Equal(payload, r.pat[0]) || aux != confAux {
		r.t.Errorf("%s: AM ran at rank %d from %d with %d bytes, aux %v", r.what, ep.Rank(), src, len(payload), aux)
	}
}

// fence orders this goroutine's direct accesses to rank r's segments
// against r's wire reader goroutine, the way the rank's own next Poll
// would: both sides take the endpoint queue lock (syncDirect). The real
// ordering runs through sockets and rings, where the race detector cannot
// follow it. It reports whether a delivery is queued at r.
func (w *confWorld) fence(r Rank) bool { return w.eps[r].Pending() }

// confResult is what a row must reproduce on every backend: the Stats
// counters summed over ranks, and the DMA descriptors by kind.
type confResult struct {
	stats Stats
	dma   [obs.NumDMAKinds]uint64
}

// fields lists the counters of c, for summing and differencing.
func (c *confResult) fields() []*uint64 {
	s := &c.stats
	f := []*uint64{&s.Puts, &s.PutBytes, &s.Gets, &s.GetBytes, &s.AMs, &s.AMBytes, &s.AMOs, &s.DMAs, &s.DMABytes}
	for k := range c.dma {
		f = append(f, &c.dma[k])
	}
	return f
}

func (w *confWorld) counters() confResult {
	var c confResult
	for _, ep := range w.eps {
		one := confResult{stats: ep.Stats()}
		for i, f := range c.fields() {
			*f += *one.fields()[i]
		}
	}
	c.dma = w.ob.Merged().DMA
	return c
}

func (c confResult) minus(o confResult) confResult {
	for i, f := range c.fields() {
		*f -= *o.fields()[i]
	}
	return c
}

// run executes one row from rank 0 and returns its counter delta.
func (w *confWorld) run(t *testing.T, spec confSpec, seed byte) confResult {
	row := &confRow{t: t, w: w, spec: spec, what: w.name + " " + spec.String()}
	w.row = row
	init := w.eps[0]
	srcRank, dstRank := Rank(0), Rank(0)
	switch spec.place {
	case "peer":
		if spec.op == "get" {
			srcRank = 1
		} else {
			dstRank = 1
		}
	case "third":
		srcRank, dstRank = 1, 2
	case "pull":
		srcRank = 1
	}
	row.dstRank = dstRank
	frags := 1
	if spec.rem == "counted" {
		frags = 3
	}
	seg := func(r Rank) SegID {
		if spec.dev {
			return w.dev[r]
		}
		return HostSeg
	}
	alloc := func(r Rank) (off uint64, mem []byte) {
		s := w.eps[r].SegByID(seg(r))
		off, err := s.Alloc(confN)
		if err != nil {
			t.Fatal(err)
		}
		return off, s.Bytes(off, confN)
	}
	for f := 0; f < frags; f++ {
		p := make([]byte, confN)
		for i := range p {
			p[i] = seed + byte(f*31+i)
		}
		row.pat = append(row.pat, p)
	}
	var rem *RemoteAM
	if spec.rem != "none" {
		rem = &RemoteAM{Handler: w.hRem, Payload: []byte("sig"), Aux: confAux}
		if frags > 1 {
			rem.SetFragments(frags)
		}
	}
	onDone := func(f int) func() {
		return func() {
			row.acks++
			remQueued := w.fence(dstRank)
			if !row.landed(f) {
				t.Errorf("%s: ack delivered before fragment %d landed", row.what, f)
			}
			if rem != nil && w.remBeforeAck && row.acks == frags && row.remFired == 0 && !remQueued {
				t.Errorf("%s: ack delivered before the rem-AM was enqueued at rank %d", row.what, dstRank)
			}
		}
	}
	tag := func(k obs.OpKind) obs.OpTag { return w.ob.Rank(0).OpStart(k, confN) }

	before := w.counters()
	want := Stats{}
	done := func() bool { return row.acks == frags }
	switch spec.op {
	case "put":
		dsts := make([][]byte, frags)
		row.dstBytes = func(f int) []byte { return dsts[f] }
		for f := 0; f < frags; f++ {
			off, mem := alloc(dstRank)
			dsts[f] = mem
			src := append([]byte(nil), row.pat[f]...)
			init.PutSegTag(dstRank, seg(dstRank), off, src, onDone(f), rem, tag(obs.KindPut))
			src[0] ^= 0xFF // source completion: reusable on return
		}
		want.Puts, want.PutBytes = uint64(frags), uint64(frags*confN)
	case "copy":
		dsts := make([][]byte, frags)
		row.dstBytes = func(f int) []byte { return dsts[f] }
		for f := 0; f < frags; f++ {
			soff, smem := alloc(srcRank)
			copy(smem, row.pat[f])
			w.fence(srcRank)
			doff, dmem := alloc(dstRank)
			dsts[f] = dmem
			init.CopySegTag(srcRank, seg(srcRank), soff, dstRank, seg(dstRank), doff, confN, onDone(f), rem, tag(obs.KindCopy))
		}
		want.Puts, want.PutBytes = uint64(frags), uint64(frags*confN)
	case "get":
		off, mem := alloc(srcRank)
		copy(mem, row.pat[0])
		w.fence(srcRank)
		into := make([]byte, confN)
		row.dstBytes = func(int) []byte { return into }
		init.GetSegTag(srcRank, seg(srcRank), off, into, onDone(0), tag(obs.KindGet))
		want.Gets, want.GetBytes = 1, confN
	case "am":
		src := append([]byte(nil), row.pat[0]...)
		init.AMTag(dstRank, w.hAM, src, nil, confAux, tag(obs.KindAM)) // src is the conduit's now; the amv row borrows
		want.AMs, want.AMBytes = 1, confN
		done = func() bool { return row.amGot == 1 }
	case "amv":
		src := append([]byte(nil), row.pat[0]...)
		init.AMTag(dstRank, w.hAM, nil, [][]byte{src[:10], src[10:10], src[10:]}, confAux, tag(obs.KindAM))
		src[0] ^= 0xFF
		want.AMs, want.AMBytes = 1, confN
		done = func() bool { return row.amGot == 1 }
	case "amo":
		s := w.eps[dstRank].Segment()
		off, err := s.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		s.WriteU64(off, 100)
		var old uint64
		init.AMOTag(dstRank, off, AMOAdd, uint64(seed), 0, func(o uint64) { old = o; row.acks++ }, tag(obs.KindAtomic))
		want.AMOs = 1
		defer func() {
			if got := s.ReadU64(off); old != 100 || got != 100+uint64(seed) {
				t.Errorf("%s: fetch-add returned %d and left %d, want 100 and %d", row.what, old, got, 100+uint64(seed))
			}
		}()
	}

	deadline := time.Now().Add(20 * time.Second)
	for !done() || (rem != nil && row.remFired == 0) {
		for _, ep := range w.eps {
			ep.Poll()
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: never completed (acks %d/%d, rem %d, am %d)", row.what, row.acks, frags, row.remFired, row.amGot)
		}
	}
	if rem != nil && row.remFired != 1 {
		t.Errorf("%s: rem-AM fired %d times, want exactly once", row.what, row.remFired)
	}
	got := w.counters().minus(before)
	want.DMAs, want.DMABytes = got.stats.DMAs, got.stats.DMABytes // compared across backends, below
	if got.stats != want {
		t.Errorf("%s: Stats delta = %+v, want %+v", row.what, got.stats, want)
	}
	if spec.dev == (got.stats.DMAs == 0) {
		t.Errorf("%s: %d DMA descriptors for device=%v", row.what, got.stats.DMAs, spec.dev)
	}
	return got
}

func TestBackendConformanceMatrix(t *testing.T) {
	specs := confSpecs()
	for _, gdr := range []bool{false, true} {
		mode := "bounced"
		if gdr {
			mode = "gdr"
		}
		worlds := []func() *confWorld{
			func() *confWorld { return inprocWorld("loopback", nil, NoDelayDMA{GDR: gdr}) },
			func() *confWorld {
				us := time.Microsecond
				return inprocWorld("loggp", &LogGP{O: us, L: 2 * us, Gp: us, IntraO: us, IntraL: us, IntraGp: us},
					&PCIeDMA{O: us, L: 2 * us, Gp: us, GDR: gdr})
			},
			func() *confWorld { return wireWorld(t, "tcp", gdr) },
		}
		if runtime.GOOS == "linux" {
			worlds = append(worlds, func() *confWorld { return wireWorld(t, "shm", gdr) })
		}
		ref := map[confSpec]confResult{} // loopback's deltas
		for _, mk := range worlds {
			w := mk()
			w.setup()
			t.Run(mode+"/"+w.name, func(t *testing.T) {
				for i, spec := range specs {
					got := w.run(t, spec, byte(3+5*i))
					want, ok := ref[spec]
					if !ok {
						ref[spec] = got
						continue
					}
					if got.stats != want.stats {
						t.Errorf("%s %v: Stats delta %+v differs from loopback's %+v", w.name, spec, got.stats, want.stats)
					}
					// A wire peer labels its half of a transfer from what
					// the frame reveals (h2d / d2h): it cannot know a
					// cross-rank device→device copy from a staged one, so
					// there only the descriptor total is comparable.
					if w.wire && spec.dev && spec.op == "copy" && spec.place != "self" {
						continue
					}
					if got.dma != want.dma {
						t.Errorf("%s %v: DMA kinds %v differ from loopback's %v", w.name, spec, got.dma, want.dma)
					}
				}
			})
			w.finish(t)
		}
	}
}

// TestConformanceAMPayloadIsTheHandlersToKeep pins AMHandler's ownership rule
// on every backend: a handler keeps the payloads of one burst, the sender
// scribbles over the buffer it sent each from (source completion), a second
// burst goes through the same socket read buffer or ring, and what was kept
// still reads as it was sent.
func TestConformanceAMPayloadIsTheHandlersToKeep(t *testing.T) {
	const N, size = 100, 300 // a burst fits the shm ring: one goroutine sends and polls
	worlds := map[string]func(t *testing.T) []*Network{
		"loopback": func(*testing.T) []*Network { return []*Network{NewNetwork(Config{Ranks: 2, SegmentSize: 1 << 12})} },
		"tcp":      func(t *testing.T) []*Network { nets, _ := wirePair(t, "tcp"); return nets },
	}
	if runtime.GOOS == "linux" {
		worlds["shm"] = func(t *testing.T) []*Network { nets, _ := wirePair(t, "shm"); return nets }
	}
	for name, mk := range worlds {
		t.Run(name, func(t *testing.T) {
			nets := mk(t)
			defer closeAll(nets)
			var kept [][]byte
			for _, n := range nets {
				n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { kept = append(kept, p) })
			}
			from, to := nets[0].Endpoint(0), nets[len(nets)-1].Endpoint(1)
			buf := make([]byte, size)
			for sent := 0; sent < 2*N; {
				for i := 0; i < N; i, sent = i+1, sent+1 {
					copy(buf, pattern(size, byte(sent)))
					from.AM(1, 0, buf, nil)
					clear(buf)
				}
				for deadline := time.Now().Add(20 * time.Second); len(kept) < sent; to.Poll() {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d AMs arrived", len(kept), sent)
					}
				}
			}
			for i, p := range kept {
				if !bytes.Equal(p, pattern(size, byte(i))) {
					t.Fatalf("the payload kept from AM %d was rewritten after its handler returned", i)
				}
			}
		})
	}
}

// --- hostile frames ---------------------------------------------------------

// TestWireHostileFramesFailPeer feeds the inbound dispatcher frames whose
// addressing is out of range or whose aux does not decode. Each must fail
// the sending peer — Failed() wraps ErrPeerLost — and none may panic the
// process.
func TestWireHostileFramesFailPeer(t *testing.T) {
	nets, wires := wirePair(t, "tcp")
	defer closeAll(nets)
	w := wires[0]
	peer := w.peers[1]
	closedDev := w.ep.AddDeviceSegment(64)
	w.ep.CloseDeviceSegment(closedDev)
	const segEnd, wild = 1 << 12, ^uint64(0) - 3
	badRem := &remWire{handler: 0, aux: []byte{0xFF}}
	// A get reply must be exactly as long as its get: a short one would
	// complete it over stale bytes, a long one be cut — small, and of a size
	// that arrives by the bulk path (TestWireBulkLandsInPlace drives that path
	// itself: there the check must come before the read into place).
	gets, completed := map[int][]byte{8: make([]byte, 8), 1 << 17: make([]byte, 1<<17)}, 0
	getID := func(n int) uint64 { return w.newPending(pendingOp{dst: gets[n], onDone: func() { completed++ }}) }
	frames := map[string][]byte{
		"getrep: short":           encodeGetRep(getID(8), []byte("1234567")),
		"getrep: long":            encodeGetRep(getID(8), []byte("123456789")),
		"getrep: short, bulk":     encodeGetRep(getID(1<<17), bytes.Repeat([]byte{1}, 1<<17-1)),
		"getrep: long, bulk":      encodeGetRep(getID(1<<17), bytes.Repeat([]byte{1}, 1<<17+1)),
		"put: wild segment":       encodePut(1, 9, 0, 1, 0, nil, make([]byte, 8)),
		"put: closed segment":     encodePut(1, uint16(closedDev), 0, 1, 0, nil, make([]byte, 8)),
		"put: past the end":       encodePut(1, 0, segEnd-4, 1, 0, nil, make([]byte, 8)),
		"put: offset overflow":    encodePut(1, 0, wild, 1, 0, nil, make([]byte, 8)),
		"put: ackRank":            encodePut(1, 0, 0, 7, 1, nil, make([]byte, 8)),
		"put: source rank":        encodePut(7, 0, 0, 1, 0, nil, make([]byte, 8)),
		"put: undecodable rem":    encodePut(1, 0, 0, 1, 0, badRem, make([]byte, 8)),
		"get: wild segment":       encodeGet(1, 9, 0, 8),
		"get: past the end":       encodeGet(1, 0, segEnd-4, 8),
		"get: huge n":             encodeGet(1, 0, 0, ^uint32(0)),
		"amo: past the end":       encodeAMO(1, segEnd-4, byte(AMOAdd), 1, 0),
		"amo: offset overflow":    encodeAMO(1, wild, byte(AMOAdd), 1, 0),
		"copy: wild source":       encodeCopy(1, 9, 0, 1, 0, 0, 8, 1, 0, nil),
		"copy: source past end":   encodeCopy(1, 0, segEnd-4, 1, 0, 0, 8, 1, 0, nil),
		"copy: dstRank":           encodeCopy(1, 0, 0, 7, 0, 0, 8, 1, 0, nil),
		"copy: ackRank":           encodeCopy(1, 0, 0, 1, 0, 0, 8, 7, 1, nil),
		"copy: local dst wild":    encodeCopy(1, 0, 0, 0, 9, 0, 8, 1, 0, nil),
		"copy: local dst past":    encodeCopy(1, 0, 0, 0, 0, segEnd-4, 8, 1, 0, nil),
		"copy: undecodable rem":   encodeCopy(1, 0, 0, 0, 0, 0, 8, 1, 0, badRem),
		"am: undecodable aux":     encodeAM(1, 0, []byte{0xFF}, nil, nil),
		"am: source rank":         encodeAM(7, 0, nil, nil, nil),
		"unknown frame mid-flow":  encodeHello(1, 2),
		"truncated frame (codec)": encodePutAck(1)[:8],
	}
	for name, fb := range frames {
		w.failErr.Store(nil)
		select { // empty the doorbell
		case <-w.ep.notify:
		default:
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked the process: %v", name, r)
				}
			}()
			w.handleFrame(peer, fb[4:])
		}()
		if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
			t.Errorf("%s: Failed() = %v, want an ErrPeerLost-wrapped error", name, err)
		}
		// A failure ends every wait on this rank, so it must ring: a
		// parked waiter would otherwise meet it only at its park bound.
		if !w.ep.WaitPending(10 * time.Second) {
			t.Errorf("%s: failing the peer did not ring the doorbell", name)
		}
	}
	for n, b := range gets {
		if w.ep.PollCompletions(); completed != 0 || !bytes.Equal(b, make([]byte, n)) {
			t.Errorf("a get of %d bytes was completed (%d) or written by a reply of another length", n, completed)
		}
	}
	// A well-formed frame still lands.
	w.failErr.Store(nil)
	w.handleFrame(peer, encodePut(1, 0, 16, 1, 0, nil, []byte("hello"))[4:])
	if err := nets[0].Failed(); err != nil || string(w.ep.Segment().Bytes(16, 5)) != "hello" {
		t.Errorf("well-formed put: Failed() = %v, segment holds %q", err, w.ep.Segment().Bytes(16, 5))
	}
}
