package expmodel

import (
	"upcxx/internal/gasnet"
)

// Fig 4 model: weak scaling of blocking distributed-hash-table insertion
// (landing-zone variant). Every rank repeatedly performs the paper's
// blocking insert — an RPC of make_lz to a random home rank followed by
// an rput of the value — and the model simulates the full pipeline per
// operation, including CPU contention at the home rank (incoming RPC
// handlers compete with the target's own inserts for its one core) and
// the intra-node fast path. At P == 1 the paper's serial baseline (plain
// map, no UPC++ calls) applies.

// DHTConfig describes one weak-scaling data point.
type DHTConfig struct {
	M              Machine
	P              int
	ElemSize       int
	InsertsPerRank int
	Seed           uint64
}

// DHTResult reports the simulated aggregate throughput.
type DHTResult struct {
	P         int
	ElemSize  int
	Makespan  float64 // seconds
	Aggregate float64 // inserts/sec across the job
	PerRank   float64 // inserts/sec/rank
}

// serialInsertCost is the measured-scale cost of a local map insert plus
// the value copy (the serial baseline's whole iteration).
func (m Machine) serialInsertCost(elem int) float64 {
	return m.cpu(mapInsert) + m.copyCost(elem)
}

// SimulateDHT runs the weak-scaling model for one (P, elemSize) point.
func SimulateDHT(cfg DHTConfig) DHTResult {
	m := cfg.M
	if cfg.P == 1 {
		t := float64(cfg.InsertsPerRank) * m.serialInsertCost(cfg.ElemSize)
		return DHTResult{
			P: 1, ElemSize: cfg.ElemSize, Makespan: t,
			Aggregate: float64(cfg.InsertsPerRank) / t,
			PerRank:   float64(cfg.InsertsPerRank) / t,
		}
	}
	var sim gasnet.Queue[float64]
	rng := NewRNG(cfg.Seed ^ 0xdeadbeef)
	cpu := make([]gasnet.Channel[float64], cfg.P)
	nic := make([]gasnet.Channel[float64], cfg.P)
	node := func(r int) int { return r / m.RanksPerNode }

	done := 0
	var makespan float64
	var issue func(r, k int, at float64)

	// One blocking landing-zone insert from rank r starting no earlier
	// than at. The rank's CPU is busy only for the software segments;
	// while blocked on the wire it serves incoming handlers (modeled by
	// the channel bookings from other ranks' events).
	issue = func(r, k int, at float64) {
		if k >= cfg.InsertsPerRank {
			done++
			if at > makespan {
				makespan = at
			}
			return
		}
		tgt := rng.Intn(cfg.P)
		if tgt == r {
			tgt = (tgt + 1) % cfg.P
		}
		intra := node(r) == node(tgt)
		keyMsg := 48 // key + header + dist-object id

		// 1. Inject the make_lz RPC.
		injEnd := cpu[r].Book(at, m.cpu(rpcInject)+m.overhead(keyMsg, intra))
		nicEnd := nic[r].Book(injEnd, m.gap(keyMsg, intra))
		arrival := nicEnd + m.lat(keyMsg, intra)

		// 2. Home-rank handler: dispatch, allocate the landing zone,
		// insert into the local map, inject the reply.
		sim.At(arrival, func() {
			hDur := m.cpu(rpcHandler) + m.cpu(segAlloc) + m.cpu(mapInsert) +
				m.overhead(16, intra)
			hEnd := cpu[tgt].Book(sim.Now(), hDur)
			rNicEnd := nic[tgt].Book(hEnd, m.gap(16, intra))
			replyArr := rNicEnd + m.lat(16, intra)

			// 3. Initiator: future fulfillment + rput injection.
			sim.At(replyArr, func() {
				iDur := m.cpu(futureFulfill) + m.cpu(rpcInject) +
					m.overhead(cfg.ElemSize, intra)
				iEnd := cpu[r].Book(sim.Now(), iDur)
				pNicEnd := nic[r].Book(iEnd, m.gap(cfg.ElemSize, intra))
				// 4. Remote completion ack (NIC to NIC, no target CPU).
				ackArr := pNicEnd + m.lat(cfg.ElemSize, intra) +
					m.gap(0, intra) + m.lat(0, intra)
				sim.At(ackArr, func() {
					end := cpu[r].Book(sim.Now(), m.cpu(futureFulfill))
					issue(r, k+1, end)
				})
			})
		})
	}

	for r := 0; r < cfg.P; r++ {
		issue(r, 0, 0)
	}
	sim.Run()
	total := float64(cfg.P * cfg.InsertsPerRank)
	return DHTResult{
		P: cfg.P, ElemSize: cfg.ElemSize, Makespan: makespan,
		Aggregate: total / makespan,
		PerRank:   total / makespan / float64(cfg.P),
	}
}

// Fig4ProcessCounts returns the paper's weak-scaling x axis up to max
// (1, 2, 4, ... powers of two, then the partition's full size).
func Fig4ProcessCounts(max int) []int {
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
