package dht

import (
	"math/rand"
	"time"

	"upcxx"
)

// The Fig 4 workload's insert loops: every rank inserts randomly-keyed
// values of a fixed element size. A BenchConfig fixes the volume each rank
// inserts, so halving the element size doubles the iteration count.

// BenchConfig describes one weak-scaling data point.
type BenchConfig struct {
	ElemSize      int // value bytes per insert
	VolumePerRank int // total value bytes inserted by each rank
	Seed          int64
}

// Iterations returns the per-rank insert count for the configured volume.
func (c BenchConfig) Iterations() int {
	n := c.VolumePerRank / c.ElemSize
	if n < 1 {
		n = 1
	}
	return n
}

// BenchResult reports one rank's measurement.
type BenchResult struct {
	Inserts int
	Elapsed time.Duration
}

// InsertsPerSec returns this rank's blocking-insert rate.
func (r BenchResult) InsertsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Inserts) / r.Elapsed.Seconds()
}

// RunInsertPipelinedBench is the completion-vocabulary variant of the
// insert loop: one value buffer is reused across every iteration — the
// loop waits only for *source* completion (the RPC's argument
// serialization captured by the conduit) before refilling it — while all
// operation completions accumulate on a single promise whose one future
// is waited at the end, like the paper's flood-bandwidth idiom. RPCOnly
// mode only.
func RunInsertPipelinedBench(rk *upcxx.Rank, d *DHT, cfg BenchConfig) BenchResult {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(rk.Me())*1_000_003))
	val := make([]byte, cfg.ElemSize)
	iters := cfg.Iterations()
	done := upcxx.NewPromise[upcxx.Unit](rk)
	start := time.Now()
	for i := 0; i < iters; i++ {
		rng.Read(val) // reuse the same buffer every iteration
		key := rng.Uint64()
		src := d.InsertAsync(key, val, done)
		src.Wait() // buffer reusable; the op rides the shared promise
		if i%16 == 0 {
			rk.Progress()
		}
	}
	done.Finalize().Wait()
	return BenchResult{Inserts: iters, Elapsed: time.Since(start)}
}

// RunInsertBatchBench is the batched-message variant of the pipelined
// loop: inserts accumulate into per-home-rank batches and every
// batchSize inserts ship as (at most N) coalesced wire messages, with
// all operation completions on one promise waited at the end. batchSize
// value buffers rotate so each stays unchanged from its insert until the
// FlushAll that captures it. batchSize 1 degenerates to one message per
// insert, the per-AM floor.
// RPCOnly mode only.
func RunInsertBatchBench(rk *upcxx.Rank, d *DHT, cfg BenchConfig, batchSize int) BenchResult {
	if batchSize < 1 {
		batchSize = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(rk.Me())*1_000_003))
	bufs := make([][]byte, batchSize)
	for i := range bufs {
		bufs[i] = make([]byte, cfg.ElemSize)
	}
	iters := cfg.Iterations()
	bi := d.NewBatchInserter()
	done := upcxx.NewPromise[upcxx.Unit](rk)
	start := time.Now()
	for i := 0; i < iters; i++ {
		val := bufs[i%batchSize]
		rng.Read(val)
		bi.Insert(rng.Uint64(), val)
		if bi.Pending() >= batchSize {
			bi.FlushAll(done)
			rk.Progress()
		}
	}
	bi.FlushAll(done)
	done.Finalize().Wait()
	return BenchResult{Inserts: iters, Elapsed: time.Since(start)}
}

// RunSerialBench is the paper's one-process baseline: the insert loop with
// all UPC++ calls omitted — a plain map insert, "the best we can achieve
// with the underlying standard library".
func RunSerialBench(cfg BenchConfig) BenchResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	val := make([]byte, cfg.ElemSize)
	rng.Read(val)
	local := make(map[uint64][]byte)
	iters := cfg.Iterations()
	start := time.Now()
	for i := 0; i < iters; i++ {
		key := rng.Uint64()
		stored := make([]byte, len(val))
		copy(stored, val)
		local[key] = stored
	}
	_ = local
	return BenchResult{Inserts: iters, Elapsed: time.Since(start)}
}
