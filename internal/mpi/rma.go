package mpi

import "fmt"

// MPI-3 one-sided RMA with passive-target synchronization: the mode the
// paper's microbenchmarks compare against (IMB-RMA Unidir_put with
// MPI_Win_flush). A window exposes a region of each rank's shared
// segment; Put/Get move data one-sidedly over the conduit and Flush waits
// for remote completion at a target.
//
// The software costs layered on the conduit model Cray MPICH's documented
// protocol structure on Aries: FMA-style CPU-driven injection for small
// and mid sizes (banded per-byte CPU cost — the source of the Fig 3b
// mid-size bandwidth dip) and a completion-synchronization charge on
// flushes of non-trivial transfers (the source of the Fig 3a 256B+ latency
// gap). See Protocol and EXPERIMENTS.md for the calibration.

// Win is one rank's handle on a window.
type Win struct {
	p     *Proc
	size  int
	local uint64   // offset of our exposure in our segment
	bases []uint64 // exposure offset on every rank

	pending []winTarget // per-target outstanding-put state
}

type winTarget struct {
	outstanding int
	maxSize     int
}

// CreateWin collectively creates a window exposing size bytes on every
// rank.
func CreateWin(p *Proc, size int) *Win {
	off, err := p.ep.Segment().Alloc(size)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d window allocation: %v", p.me, err))
	}
	w := &Win{p: p, size: size, local: off}
	w.bases = p.Allgather8(off)
	w.pending = make([]winTarget, p.n)
	p.winSeq++
	return w
}

// LocalData returns the window's local exposure for initialization.
func (w *Win) LocalData() []byte {
	return w.p.ep.Segment().Bytes(w.local, w.size)
}

// Put starts a one-sided put of src into the window at (target, disp
// bytes). Completion at the target is observed via Flush.
func (w *Win) Put(src []byte, target, disp int) {
	p := w.p
	n := len(src)
	if disp+n > w.size {
		panic(fmt.Sprintf("mpi: Put of %d bytes at disp %d exceeds window size %d", n, disp, w.size))
	}
	// Software injection path: base cost plus the banded FMA per-byte
	// CPU cost.
	p.ep.Charge(p.w.proto.RMAPutBase + p.w.proto.PutCPUBytes(n))
	t := &w.pending[target]
	if n > t.maxSize {
		t.maxSize = n
	}
	base := w.bases[target] + uint64(disp)
	chunk := p.w.proto.RMAChunk
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		t.outstanding++
		p.ep.Put(int32(target), base+uint64(off), src[off:end], func() {
			t.outstanding--
		})
	}
}

// Get starts a one-sided get from the window at (target, disp) into dst;
// completion is observed via Flush.
func (w *Win) Get(dst []byte, target, disp int) {
	p := w.p
	n := len(dst)
	if disp+n > w.size {
		panic(fmt.Sprintf("mpi: Get of %d bytes at disp %d exceeds window size %d", n, disp, w.size))
	}
	p.ep.Charge(p.w.proto.RMAPutBase + p.w.proto.PutCPUBytes(n))
	t := &w.pending[target]
	if n > t.maxSize {
		t.maxSize = n
	}
	t.outstanding++
	p.ep.Get(int32(target), w.bases[target]+uint64(disp), dst, func() {
		t.outstanding--
	})
}

// Flush blocks until every outstanding Put/Get to target has completed
// remotely (MPI_Win_flush in a passive-target epoch). The completion-
// synchronization work (descriptor retirement, FMA completion wait) is
// serial CPU time spent after the network acknowledges — it cannot hide
// under the wire time, which is what costs MPI the paper's 256B+ latency
// gap (Fig 3a).
func (w *Win) Flush(target int) {
	p := w.p
	t := &w.pending[target]
	hadWork := t.outstanding > 0
	sync := hadWork && t.maxSize >= 256
	for t.outstanding > 0 {
		p.ep.Poll()
	}
	cost := p.w.proto.RMAFlushBase
	if sync {
		cost += p.w.proto.RMAFlushSync
	}
	p.ep.Charge(cost)
	t.maxSize = 0
}

// FlushAll flushes every target (MPI_Win_flush_all).
func (w *Win) FlushAll() {
	for target := range w.pending {
		if w.pending[target].outstanding > 0 || target == w.p.me {
			w.Flush(target)
		}
	}
}

// Free collectively destroys the window.
func (w *Win) Free() {
	w.FlushAll()
	w.p.Barrier()
	if err := w.p.ep.Segment().Free(w.local); err != nil {
		panic(err)
	}
}
