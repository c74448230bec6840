package expmodel

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"upcxx/internal/gasnet"
	"upcxx/internal/sparse"
)

// Fig 8 model: strong scaling of the extend-add operation. The model
// consumes the real structural plan (front tree, proportional mapping,
// block-cyclic message matrix from internal/sparse) and simulates the
// three communication strategies' timing:
//
//   - UPC++ RPC: every (child, src, dst) message launched asynchronously
//     across the whole tree, no level synchronization.
//   - MPI Alltoallv: per-level collective — a Bruck-style size exchange
//     (the Theta(P) cost every collective pays regardless of payload)
//     plus the pairwise data exchange, with level barriers.
//   - MPI P2P: per-message Isend/Irecv with matching costs and a Waitall
//     per level.

// frontMsg is one (child, src->dst) message extracted from the plan.
type frontMsg struct {
	front    int
	src, dst int32
	count    int
}

func planMessages(plan *sparse.EAddPlan) [][]frontMsg {
	byLevel := make([][]frontMsg, len(plan.ByLevel))
	for f := range plan.T.Fronts {
		if plan.T.Fronts[f].Parent < 0 {
			continue
		}
		level := plan.T.Fronts[f].Level
		var msgs []frontMsg
		for key, cnt := range plan.Msgs[f] {
			msgs = append(msgs, frontMsg{front: f, src: key[0], dst: key[1], count: cnt})
		}
		sort.Slice(msgs, func(i, j int) bool {
			a, b := msgs[i], msgs[j]
			if a.src != b.src {
				return a.src < b.src
			}
			return a.dst < b.dst
		})
		byLevel[level] = append(byLevel[level], msgs...)
	}
	return byLevel
}

func (m Machine) intra(a, b int32) bool {
	return int(a)/m.RanksPerNode == int(b)/m.RanksPerNode
}

// SimulateEAddUPCXX returns the modeled wall time (seconds) of the UPC++
// variant for the given plan.
func SimulateEAddUPCXX(m Machine, plan *sparse.EAddPlan) float64 {
	var sim gasnet.Queue[float64]
	cpu := make([]gasnet.Channel[float64], plan.P)
	nic := make([]gasnet.Channel[float64], plan.P)
	makespan := 0.0
	observe := func(t float64) {
		if t > makespan {
			makespan = t
		}
	}
	// Initiator side: packing and injection, in front order, fully
	// asynchronous across levels.
	byLevel := planMessages(plan)
	for level := len(byLevel) - 1; level >= 1; level-- {
		for _, msg := range byLevel[level] {
			msg := msg
			size := msg.count * 16
			packT := float64(msg.count) * m.cpu(packEntryCost)
			if msg.src == msg.dst {
				// Local extend-add: no wire, just pack + accumulate.
				end := cpu[msg.src].Book(0,
					packT+float64(msg.count)*m.cpu(accumEntryCost))
				observe(end)
				continue
			}
			intra := m.intra(msg.src, msg.dst)
			injT := m.cpu(rpcInject) + m.overhead(size, intra)
			cpuEnd := cpu[msg.src].Book(0, packT+injT)
			nicEnd := nic[msg.src].Book(cpuEnd, m.gap(size, intra))
			arrival := nicEnd + m.lat(size, intra)
			sim.At(arrival, func() {
				hDur := m.cpu(rpcHandler) + float64(msg.count)*m.cpu(accumEntryCost)
				hEnd := cpu[msg.dst].Book(sim.Now(), hDur)
				ackArr := hEnd + m.gap(16, intra) + m.lat(16, intra)
				sim.At(ackArr, func() {
					end := cpu[msg.src].Book(sim.Now(), m.cpu(futureFulfill))
					observe(end)
				})
			})
		}
	}
	sim.Run()
	return makespan
}

// SimulateEAddA2A returns the modeled wall time of the MPI Alltoallv
// variant (STRUMPACK's strategy): per level, each parent front's process
// group runs an Alltoallv — a Bruck-style size exchange over the group
// (the Theta(g log g) cost every collective pays regardless of payload)
// plus the pairwise data exchange — and the level completes when the
// slowest group does (the collective's implicit synchronization).
func SimulateEAddA2A(m Machine, plan *sparse.EAddPlan) float64 {
	byLevel := planMessages(plan)
	t := 0.0
	for level := len(byLevel) - 1; level >= 1; level-- {
		if len(byLevel[level]) == 0 {
			continue
		}
		// Group messages by parent front: each parent group runs its own
		// collective. A rank belonging to several groups at one level
		// (small P) performs their exchanges back to back, so work
		// accumulates per rank across groups; the level ends when the
		// busiest rank finishes. Groups and pairs are walked in ascending
		// order, so the float sums do not follow map iteration order.
		byParent := map[int][]frontMsg{}
		for _, msg := range byLevel[level] {
			parent := plan.T.Fronts[msg.front].Parent
			byParent[parent] = append(byParent[parent], msg)
		}
		work := map[int32]float64{}
		for _, parent := range slices.Sorted(maps.Keys(byParent)) {
			msgs := byParent[parent]
			lo, hi := plan.Map.Range(parent)
			g := int(hi - lo)
			// Size exchange over the group: ceil(log2 g) Bruck rounds of
			// g*8/2 bytes, paid by every group member.
			sizeEx := 0.0
			for r := 0; (1 << r) < g; r++ {
				n := g * 4
				sizeEx += m.cpu(m.Proto.SendOverhead) + m.overhead(n, false) +
					m.gap(n, false) + m.lat(n, false)
			}
			for q := lo; q < hi; q++ {
				work[q] += sizeEx
			}
			// Per-rank pack, wire and accumulate work within the group.
			sendBytes := map[[2]int32]int{}
			for _, msg := range msgs {
				work[msg.src] += float64(msg.count) * m.cpu(packEntryCost)
				if msg.src == msg.dst {
					// Local contribution: accumulate without the wire.
					work[msg.src] += float64(msg.count) * m.cpu(accumEntryCost)
					continue
				}
				sendBytes[[2]int32{msg.src, msg.dst}] += msg.count * 16
				work[msg.dst] += float64(msg.count)*m.cpu(accumEntryCost) +
					m.cpu(m.Proto.MatchCost)
			}
			for _, key := range slices.SortedFunc(maps.Keys(sendBytes), comparePair) {
				bytes := sendBytes[key]
				intra := m.intra(key[0], key[1])
				work[key[0]] += m.cpu(m.Proto.SendOverhead) +
					m.overhead(bytes, intra) + m.gap(bytes, intra)
				work[key[1]] += m.cpu(m.Proto.RecvOverhead) + m.copyCost(bytes)
			}
		}
		levelTime := m.lat(0, false)
		for _, w := range work {
			if w > levelTime {
				levelTime = w
			}
		}
		t += levelTime
	}
	return t
}

// comparePair orders (src, dst) pairs by src, then dst.
func comparePair(a, b [2]int32) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// SimulateEAddP2P returns the modeled wall time of the MPI
// point-to-point variant (MUMPS's strategy): one message per
// (child, src, dst), received through a Probe + Recv loop. Because the
// receiver discovers messages by probing, every arrival lands in the
// unexpected queue (an extra copy) and matching is serialized on the
// receiving rank — the per-message software costs that make this variant
// fall behind at scale. Rendezvous transfers add a handshake round trip.
func SimulateEAddP2P(m Machine, plan *sparse.EAddPlan) float64 {
	byLevel := planMessages(plan)
	t := 0.0
	for level := len(byLevel) - 1; level >= 1; level-- {
		if len(byLevel[level]) == 0 {
			continue
		}
		var sim gasnet.Queue[float64]
		cpu := make([]gasnet.Channel[float64], plan.P)
		nic := make([]gasnet.Channel[float64], plan.P)
		queued := make([]int, plan.P) // unexpected-queue depth per rank
		levelEnd := 0.0
		observe := func(x float64) {
			if x > levelEnd {
				levelEnd = x
			}
		}
		// Every probe/match traverses the unexpected queue linearly; under
		// congestion the scans compound (the classic MPI matching-queue
		// cost, physically present in internal/mpi's linear scan as well).
		const queueScan = 40 * 1e-9
		for _, msg := range byLevel[level] {
			msg := msg
			size := msg.count * 16
			packT := float64(msg.count) * m.cpu(packEntryCost)
			if msg.src == msg.dst {
				end := cpu[msg.src].Book(0,
					packT+float64(msg.count)*m.cpu(accumEntryCost))
				observe(end)
				continue
			}
			intra := m.intra(msg.src, msg.dst)
			sendT := m.cpu(m.Proto.SendOverhead) + m.overhead(size, intra)
			cpuEnd := cpu[msg.src].Book(0, packT+sendT)
			rendezvous := size > m.Proto.EagerMax
			nicEnd := nic[msg.src].Book(cpuEnd, m.gap(size, intra))
			arrival := nicEnd + m.lat(size, intra)
			if rendezvous {
				// RTS/GET/DONE adds a round trip before the payload moves.
				arrival += 2 * m.lat(0, intra)
			}
			sim.At(arrival, func() {
				queued[msg.dst]++
				// Probe-matched arrival: queue scan, unexpected-queue
				// copy, probe + recv software, then the accumulate
				// traversal.
				hDur := m.cpu(m.Proto.MatchCost) + m.cpu(m.Proto.RecvOverhead) +
					float64(queued[msg.dst])*queueScan*m.CPUScale +
					m.copyCost(size) +
					float64(msg.count)*m.cpu(accumEntryCost)
				hEnd := cpu[msg.dst].Book(sim.Now(), hDur)
				sim.At(hEnd, func() { queued[msg.dst]-- })
				observe(hEnd)
			})
		}
		sim.Run()
		t += levelEnd + m.lat(0, false) // Waitall settling
	}
	return t
}

// Fig8ProcessCounts is the paper's strong-scaling x axis.
func Fig8ProcessCounts() []int {
	return []int{1, 4, 32, 64, 128, 256, 512, 1024, 2048}
}
