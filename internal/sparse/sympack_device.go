package sparse

import (
	"fmt"
	"time"

	"upcxx"
)

// Device-resident mini-symPACK: the same multifrontal Cholesky as CholV1,
// with every frontal matrix living in *device* memory. Assembly, panel
// factorization, contribution-block packing and extend-add all run as
// device kernels, and contribution blocks travel device-to-device as
// signaling puts into pre-carved landing slots at the parent's owner —
// on a GPUDirect-capable DMA model the push is a single direct NIC↔device
// chain with no host staging, and the remote-cx notification fires the
// extend-add kernel only after the bytes are visible in the target device
// segment. The only host crossing of the whole factorization is the final
// RGet of the computed L panels.
//
// The device segment is sized for the owned fronts alone; landing slots
// and send buffers are carved later and grow the segment on exhaustion
// (DeviceAllocator.Grow keeps every outstanding front pointer valid).

// devCholState is the per-rank distributed object shared by incoming
// slot lookups and arrival notifications.
type devCholState struct {
	plan    *CholPlan
	da      *upcxx.DeviceAllocator
	fronts  map[int]upcxx.GPtr[float64]         // owned fronts, dim*dim dense, device
	landing map[int]map[int]upcxx.GPtr[float64] // owned front -> child -> packed-CB slot
	pending map[int]*upcxx.Promise[upcxx.Unit]  // child-arrival counters
}

// cbTriLen is the packed (lower-triangle, row-major) length of an s x s
// contribution block.
func cbTriLen(s int) int { return s * (s + 1) / 2 }

// devAlloc carves n float64s from the device segment, growing it in
// place when exhausted — offsets (and therefore every GPtr handed out
// before the growth) stay stable.
func devAlloc(da *upcxx.DeviceAllocator, n int) upcxx.GPtr[float64] {
	p, err := upcxx.NewDeviceArray[float64](da, n)
	if err == nil {
		return p
	}
	da.Grow(8*n + 64)
	return upcxx.MustNewDeviceArray[float64](da, n)
}

func devState(trk *upcxx.Rank, id upcxx.DistID) *devCholState {
	obj, ok := upcxx.LookupDist[*devCholState](trk, id)
	if !ok {
		panic(fmt.Sprintf("sparse: rank %d missing device chol state", trk.Me()))
	}
	return *obj.Value()
}

type devSlotArgs struct {
	ID    upcxx.DistID
	Child int64
}

func init() {
	upcxx.RegisterRPC(devSlotRPC)
	upcxx.RegisterRPCFF(devCBArrive)
}

// devSlotRPC returns the landing slot the parent's owner carved for this
// child's contribution block.
func devSlotRPC(trk *upcxx.Rank, a devSlotArgs) upcxx.GPtr[float64] {
	st := devState(trk, a.ID)
	child := int(a.Child)
	parent := st.plan.T.Fronts[child].Parent
	return st.landing[parent][child]
}

type devArriveArgs struct {
	ID    upcxx.DistID
	Child int64
}

// devCBArrive is the remote completion of a child's signaling put: the
// packed block is already visible in this rank's device segment, so the
// extend-add runs as a kernel straight out of the landing slot.
func devCBArrive(trk *upcxx.Rank, a devArriveArgs) {
	st := devState(trk, a.ID)
	child := int(a.Child)
	parent := st.plan.T.Fronts[child].Parent
	st.devExtendAdd(parent, child)
	st.pending[parent].FulfillAnonymous(1)
}

func (st *devCholState) devExtendAdd(parent, child int) {
	pf := &st.plan.T.Fronts[parent]
	rows := st.plan.T.Fronts[child].CBRows()
	dim := len(pf.Rows)
	upcxx.RunKernel(st.da, st.fronts[parent], dim*dim, func(fd []float64) {
		upcxx.RunKernel(st.da, st.landing[parent][child], cbTriLen(len(rows)), func(cb []float64) {
			df := &denseFront{id: parent, dim: dim, w: pf.Width, data: fd}
			df.extendAdd(pf, rows, cb)
		})
	})
}

func (st *devCholState) devFactor(i int) {
	f := &st.plan.T.Fronts[i]
	dim := len(f.Rows)
	var err error
	upcxx.RunKernel(st.da, st.fronts[i], dim*dim, func(fd []float64) {
		df := &denseFront{id: i, dim: dim, w: f.Width, data: fd}
		err = df.factor()
	})
	if err != nil {
		panic(err)
	}
}

// devPackCB packs front i's contribution block into the device send
// buffer — device-to-device, no host copy.
func (st *devCholState) devPackCB(i int, send upcxx.GPtr[float64]) {
	f := &st.plan.T.Fronts[i]
	dim := len(f.Rows)
	upcxx.RunKernel(st.da, st.fronts[i], dim*dim, func(fd []float64) {
		df := &denseFront{id: i, dim: dim, w: f.Width, data: fd}
		cb := df.cbPacked()
		upcxx.RunKernel(st.da, send, len(cb), func(sb []float64) {
			copy(sb, cb)
		})
	})
}

// CholV1Device runs the v1.0 factorization with device-resident fronts;
// see the package comment above. Task structure matches CholV1: per-front
// counting promises gate factorization, futures chain the CB push.
func CholV1Device(rk *upcxx.Rank, plan *CholPlan) CholResult {
	me := rk.Me()
	order := ownedAscending(plan, me)

	frontBytes := 64
	for _, i := range order {
		d := len(plan.T.Fronts[i].Rows)
		frontBytes += 8 * d * d
	}
	da := upcxx.NewDeviceAllocator(rk, frontBytes)

	st := &devCholState{
		plan:    plan,
		da:      da,
		fronts:  make(map[int]upcxx.GPtr[float64]),
		landing: make(map[int]map[int]upcxx.GPtr[float64]),
		pending: make(map[int]*upcxx.Promise[upcxx.Unit]),
	}
	sends := make(map[int]upcxx.GPtr[float64])
	for _, i := range order {
		f := &plan.T.Fronts[i]
		dim := len(f.Rows)
		fr := devAlloc(da, dim*dim)
		st.fronts[i] = fr
		upcxx.RunKernel(da, fr, dim*dim, func(fd []float64) {
			df := &denseFront{id: i, dim: dim, w: f.Width, data: fd}
			df.assemble(plan.A, f)
		})
		// Landing slots for the children's packed blocks: these carve
		// past the front-only sizing and exercise segment growth. Every
		// child of a front has a non-empty contribution block (parents
		// exist only through CB rows).
		st.landing[i] = make(map[int]upcxx.GPtr[float64])
		for _, c := range f.Children {
			st.landing[i][c] = devAlloc(da, cbTriLen(plan.T.Fronts[c].CBSize()))
		}
		if f.Parent >= 0 && f.CBSize() > 0 { // before the barrier: a growth under a peer's copy loses it
			sends[i] = devAlloc(da, cbTriLen(f.CBSize()))
		}
		p := upcxx.NewPromise[upcxx.Unit](rk)
		p.RequireAnonymous(len(f.Children))
		st.pending[i] = p
	}
	obj := upcxx.NewDistObject(rk, st)
	id := obj.ID()
	rk.Barrier()

	start := time.Now()
	conj := upcxx.EmptyFuture(rk)
	for _, i := range order {
		i := i
		f := &plan.T.Fronts[i]
		done := upcxx.ThenFut(st.pending[i].Finalize(), func(upcxx.Unit) upcxx.Future[upcxx.Unit] {
			st.devFactor(i)
			if f.Parent < 0 || f.CBSize() == 0 {
				return upcxx.EmptyFuture(rk)
			}
			n, send := cbTriLen(f.CBSize()), sends[i]
			st.devPackCB(i, send)
			owner := plan.Map.Owner(f.Parent)
			slotF := upcxx.RPC(rk, owner, devSlotRPC, devSlotArgs{ID: id, Child: int64(i)})
			return upcxx.ThenFut(slotF, func(slot upcxx.GPtr[float64]) upcxx.Future[upcxx.Unit] {
				op := upcxx.NewPromise[upcxx.Unit](rk)
				upcxx.CopyWith(rk, send, slot, n,
					upcxx.OpCxAsPromise(op),
					upcxx.RemoteCxAsRPC(devCBArrive, devArriveArgs{ID: id, Child: int64(i)}))
				return op.Finalize()
			})
		})
		conj = upcxx.WhenAll(rk, conj, done)
	}
	conj.Wait()
	elapsed := time.Since(start)
	rk.Barrier()

	var out [][3]float64
	for _, i := range order {
		f := &plan.T.Fronts[i]
		dim := len(f.Rows)
		host := make([]float64, dim*dim)
		upcxx.RGet(rk, st.fronts[i], host).Wait()
		df := &denseFront{id: i, dim: dim, w: f.Width, data: host}
		out = append(out, df.panelL(f)...)
	}
	rk.Barrier()
	da.Close()
	return CholResult{Elapsed: elapsed, L: out}
}
