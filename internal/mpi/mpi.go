// Package mpi implements the subset of MPI the paper benchmarks against:
// two-sided point-to-point with tag matching and eager/rendezvous
// protocols, the collectives the sparse-solver baselines and windows use
// (Barrier, Alltoall/Alltoallv, Allgather), and MPI-3 passive-target
// one-sided RMA (Win/Put/Get/Flush).
//
// It is the stand-in for Cray MPICH (closed source) in this reproduction:
// it runs over the same gasnet conduit as the UPC++ runtime, so every
// byte crosses the same simulated wire. The performance differences the
// paper measures come from the software MPI layers on top — matching
// queues, unexpected-message copies, rendezvous handshakes, window flush
// synchronization — which are implemented (not faked) here, plus
// CPU-overhead constants calibrated to the published behaviour of Cray
// MPICH on Aries (see Protocol and EXPERIMENTS.md).
package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// Wildcards for Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Protocol holds the tunable software-cost model of the MPI
// implementation. Each cost is charged to the calling rank's model clock
// (gasnet's Endpoint.Charge) when the conduit has a timing model, and
// skipped entirely otherwise.
type Protocol struct {
	EagerMax int // largest eager (payload-in-message) send, bytes

	SendOverhead  time.Duration // per-Isend software cost
	RecvOverhead  time.Duration // per-Irecv software cost
	MatchCost     time.Duration // per-message matching work at the target
	UnexpectedPer int           // extra ns per KB for unexpected-queue copy

	RMAPutBase   time.Duration // per-Put software cost
	RMAFlushBase time.Duration // per-Flush software cost
	RMAFlushSync time.Duration // extra flush cost for messages >= 256B (FMA completion wait)
	RMAChunk     int           // internal pipelining chunk for large puts

	// FMA/BTE-style per-byte CPU cost bands for one-sided puts,
	// reproducing the mid-size bandwidth dip of Fig 3b. Band i applies to
	// bytes in (Knee[i-1], Knee[i]].
	Knees  []int     // ascending byte thresholds; implicit +inf at end
	NsPerB []float64 // len(Knees)+1 rates, ns per byte
}

// DefaultProtocol returns constants calibrated for the Aries conduit model
// (gasnet.Aries), reproducing the relative UPC++/MPI gaps of Fig 3.
func DefaultProtocol() Protocol {
	return Protocol{
		EagerMax:      8 << 10,
		SendOverhead:  150 * time.Nanosecond,
		RecvOverhead:  100 * time.Nanosecond,
		MatchCost:     250 * time.Nanosecond,
		UnexpectedPer: 120, // ns per KB copied

		RMAPutBase:   60 * time.Nanosecond,
		RMAFlushBase: 100 * time.Nanosecond,
		RMAFlushSync: 300 * time.Nanosecond,
		RMAChunk:     64 << 10,

		// The last band is zero: transfers beyond 256KB ride the BTE
		// offload engine and cost no per-byte CPU.
		Knees:  []int{1 << 10, 16 << 10, 256 << 10},
		NsPerB: []float64{0.06, 0.13, 0.095, 0.0},
	}
}

// PutCPUBytes integrates the banded per-byte CPU rate over n bytes.
func (pr *Protocol) PutCPUBytes(n int) time.Duration {
	total := 0.0
	prev := 0
	for i, knee := range pr.Knees {
		if n <= prev {
			break
		}
		hi := n
		if hi > knee {
			hi = knee
		}
		total += float64(hi-prev) * pr.NsPerB[i]
		prev = knee
	}
	if n > prev {
		total += float64(n-prev) * pr.NsPerB[len(pr.NsPerB)-1]
	}
	return time.Duration(total)
}

// Config describes an MPI job.
type Config struct {
	Ranks        int
	RanksPerNode int
	SegmentSize  int
	Model        *gasnet.LogGP
	Protocol     *Protocol // nil: DefaultProtocol
}

// World is one MPI job over its own conduit instance.
type World struct {
	net   *gasnet.Network
	procs []*Proc
	proto Protocol

	amEager gasnet.HandlerID
	amRTS   gasnet.HandlerID
	amDone  gasnet.HandlerID
}

// NewWorld creates an MPI job.
func NewWorld(cfg Config) *World {
	proto := DefaultProtocol()
	if cfg.Protocol != nil {
		proto = *cfg.Protocol
	}
	w := &World{proto: proto}
	w.net = gasnet.NewNetwork(gasnet.Config{
		Ranks:        cfg.Ranks,
		RanksPerNode: cfg.RanksPerNode,
		SegmentSize:  cfg.SegmentSize,
		Model:        cfg.Model,
	})
	w.amEager = w.net.RegisterAM(w.handleEager)
	w.amRTS = w.net.RegisterAM(w.handleRTS)
	w.amDone = w.net.RegisterAM(w.handleDone)
	w.procs = make([]*Proc, cfg.Ranks)
	for r := range w.procs {
		w.procs[r] = &Proc{
			w:  w,
			ep: w.net.Endpoint(int32(r)),
			me: r,
			n:  cfg.Ranks,
		}
	}
	return w
}

// Close tears down the conduit.
func (w *World) Close() { w.net.Close() }

// Proc returns rank r's process object.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Network exposes the conduit (stats, tooling).
func (w *World) Network() *gasnet.Network { return w.net }

// Run executes fn SPMD across all ranks and waits for completion.
func (w *World) Run(fn func(p *Proc)) {
	var wg sync.WaitGroup
	wg.Add(len(w.procs))
	for _, p := range w.procs {
		p := p
		go func() {
			defer wg.Done()
			fn(p)
			p.Barrier()
		}()
	}
	wg.Wait()
}

// Run creates an n-rank zero-delay MPI world, executes fn, and tears it
// down.
func Run(n int, fn func(p *Proc)) {
	w := NewWorld(Config{Ranks: n})
	defer w.Close()
	w.Run(fn)
}

// Proc is one MPI process. All methods must be called from the process's
// own goroutine.
type Proc struct {
	w  *World
	ep *gasnet.Endpoint
	me int
	n  int

	postedRecvs []*recvReq // posted receives, FIFO
	unexpected  []inMsg    // unmatched arrivals, FIFO

	rendSeq   uint64
	rendStage map[uint64]*rendSend // outstanding rendezvous sends by seq

	collSeq uint64
	winSeq  uint64
}

// Rank returns this process's rank.
func (p *Proc) Rank() int { return p.me }

// Size returns the job size.
func (p *Proc) Size() int { return p.n }

// Clock returns the process's model clock (Endpoint.Clock): the model time
// it has spent, 0 without a timing model.
func (p *Proc) Clock() time.Duration { return p.ep.Clock() }

type inMsg struct {
	src, tag int
	eager    []byte // non-nil for eager messages
	rts      *rtsInfo
}

type rtsInfo struct {
	src    int
	seq    uint64
	segOff uint64
	nbytes int
}

type rendSend struct {
	req    *Request
	segOff uint64
	nbytes int
}

// Request tracks one non-blocking operation.
type Request struct {
	done   bool
	Status Status
}

// Status reports the source, tag and byte count of a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Done reports completion without progressing.
func (r *Request) Done() bool { return r.done }

// Wait progresses until the request completes.
func (p *Proc) Wait(r *Request) Status {
	deadline := time.Now().Add(60 * time.Second)
	for !r.done {
		if p.ep.Poll() == 0 {
			runtime.Gosched()
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("mpi: rank %d Wait exceeded 60s (deadlock?)", p.me))
		}
	}
	return r.Status
}

// Waitall progresses until every request completes.
func (p *Proc) Waitall(rs []*Request) {
	for _, r := range rs {
		p.Wait(r)
	}
}

// Probe progresses until a message matching (src, tag) is available
// without receiving it, returning its envelope.
func (p *Proc) Probe(src, tag int) Status {
	for {
		for i := range p.unexpected {
			m := &p.unexpected[i]
			if matches(src, tag, m.src, m.tag) {
				n := len(m.eager)
				if m.rts != nil {
					n = m.rts.nbytes
				}
				return Status{Source: m.src, Tag: m.tag, Count: n}
			}
		}
		p.ep.Poll()
	}
}

func matches(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	if wantTag == AnyTag {
		// Wildcards never match the reserved collective tag space — the
		// analogue of MPI keeping collective traffic in a separate
		// communicator context.
		return tag < collTagBase
	}
	return wantTag == tag
}

// header encodes the match envelope preceding each message payload.
func packHeader(src, tag int, seq uint64, segOff uint64, nbytes int) []byte {
	e := serial.NewEncoder(make([]byte, 0, 36))
	e.PutU32(uint32(src))
	e.PutI64(int64(tag))
	e.PutU64(seq)
	e.PutU64(segOff)
	e.PutU64(uint64(nbytes))
	return e.Bytes()
}

func unpackHeader(b []byte) (src, tag int, seq uint64, segOff uint64, nbytes int, rest []byte) {
	d := serial.NewDecoder(b)
	src = int(d.U32())
	tag = int(d.I64())
	seq = d.U64()
	segOff = d.U64()
	nbytes = int(d.U64())
	rest = d.Raw(d.Remaining())
	if d.Err() != nil {
		panic("mpi: malformed message header")
	}
	return
}
