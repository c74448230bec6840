package upcxx

// Multi-process SPMD bootstrap: ranks as OS processes over the real
// transport conduit (internal/gasnet's tcp and shm backends).
//
// The launch protocol is environment-driven, mirroring how upcxx-run
// seeds GASNet jobs. A parent invocation (no UPCXX_RANK) spawns N
// copies of its own binary — each with UPCXX_RANK/UPCXX_NPROC/
// UPCXX_BOOT_DIR set — and waits; each child runs the same main() and
// its RunConfig builds a one-rank World wired to the real conduit.
// Repeated worlds in one process (tests, multi-epoch tools) bump a
// per-process epoch counter that namespaces the bootstrap directory;
// SPMD ordering makes the counters agree across ranks.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Bootstrap environment, set by LaunchWorld for every rank process.
const (
	envConduit = "UPCXX_CONDUIT"  // transport backend: tcp | shm (unset/model: in-process)
	envRank    = "UPCXX_RANK"     // this process's rank (workers only)
	envNProc   = "UPCXX_NPROC"    // job size
	envBootDir = "UPCXX_BOOT_DIR" // rendezvous directory (addr files, shm segments)
	envSegSize = "UPCXX_SEGSIZE"  // per-rank segment bytes override
)

// DistBackend returns the real transport backend selected by
// UPCXX_CONDUIT ("tcp" or "shm"), or "" when the in-process conduit is
// active (unset, empty, or "model").
func DistBackend() string {
	switch b := os.Getenv(envConduit); b {
	case "", "model":
		return ""
	default:
		return b
	}
}

// DistActive reports whether UPCXX_CONDUIT selects a real multi-process
// backend.
func DistActive() bool { return DistBackend() != "" }

// DistNProc returns the rank-process count of the active multi-process
// job (UPCXX_NPROC), or 0 when no real conduit is active or the count is
// not yet fixed (the parent launcher without an explicit override).
func DistNProc() int {
	if !DistActive() {
		return 0
	}
	return envInt(envNProc, 0)
}

// distWorker reports whether this process is a spawned rank (as opposed
// to the parent launcher).
func distWorker() bool { return os.Getenv(envRank) != "" }

// worldEpoch namespaces bootstrap directories when one process creates
// several distributed worlds in sequence.
var worldEpoch atomic.Uint64

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// NewWorldDist builds this process's single-rank view of a multi-process
// job from the bootstrap environment. cfg.Ranks is ignored (UPCXX_NPROC
// is authoritative — the parent already spawned that many processes);
// timing models are meaningless against a real wire and must be nil.
// Bootstrap blocks until every rank has rendezvoused.
func NewWorldDist(cfg Config) *World {
	backend := DistBackend()
	if backend == "" {
		panic("upcxx: NewWorldDist without UPCXX_CONDUIT")
	}
	if !distWorker() {
		panic("upcxx: NewWorldDist in a non-worker process (no UPCXX_RANK — launch via RunConfig or upcxx-run)")
	}
	if cfg.Model != nil {
		panic("upcxx: network timing models are incompatible with a real transport backend")
	}
	rank := envInt(envRank, -1)
	nproc := envInt(envNProc, 0)
	dir := os.Getenv(envBootDir)
	if rank < 0 || nproc <= 0 || rank >= nproc || dir == "" {
		panic(fmt.Sprintf("upcxx: malformed bootstrap environment (rank %d, nproc %d, dir %q)", rank, nproc, dir))
	}
	if v := envInt(envSegSize, 0); v > 0 {
		cfg.SegmentSize = v
	}
	cfg.Ranks = nproc
	wdir := filepath.Join(dir, fmt.Sprintf("w%d", worldEpoch.Add(1)))
	if err := os.MkdirAll(wdir, 0o777); err != nil {
		panic(fmt.Sprintf("upcxx: bootstrap dir: %v", err))
	}
	return newWorld(&World{cfg: cfg, dist: true, self: Intrank(rank)}, gasnet.Config{
		Real: &gasnet.RealConduit{
			Backend: backend,
			Rank:    rank,
			BootDir: wdir,
		},
		Aux: new(distAuxCodec),
	})
}

// SpawnSelf re-executes this binary as an n-rank job over the
// UPCXX_CONDUIT backend and returns the aggregate exit code. The rank
// count may be overridden by UPCXX_NPROC (so `UPCXX_NPROC=4 prog` scales
// a program whose source says Run(2, ...)).
func SpawnSelf(n int) int {
	n = envInt(envNProc, n)
	dir, err := os.MkdirTemp("", "upcxx-boot-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "upcxx-run: boot dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	return LaunchWorld(n, DistBackend(), dir, os.Args[0], os.Args[1:], nil)
}

// LaunchWorld spawns bin args... as an n-rank SPMD job over the given
// transport backend, rendezvousing through dir, and waits for every
// rank. Ranks inherit this process's stdio and environment (plus
// extraEnv and the bootstrap variables). The first rank to fail kills
// the rest; the return value is the first non-zero exit code, else 0.
func LaunchWorld(n int, backend, dir, bin string, args []string, extraEnv []string) int {
	if n <= 0 {
		fmt.Fprintf(os.Stderr, "upcxx-run: rank count must be positive (got %d)\n", n)
		return 2
	}
	if backend != "tcp" && backend != "shm" {
		fmt.Fprintf(os.Stderr, "upcxx-run: unknown conduit backend %q (want tcp or shm)\n", backend)
		return 2
	}
	cmds := make([]*exec.Cmd, n)
	for r := 0; r < n; r++ {
		cmd := exec.Command(bin, args...)
		cmd.Stdin = os.Stdin
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(),
			envConduit+"="+backend,
			envRank+"="+strconv.Itoa(r),
			envNProc+"="+strconv.Itoa(n),
			envBootDir+"="+dir,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "upcxx-run: rank %d: %v\n", r, err)
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return 1
		}
		cmds[r] = cmd
	}
	// Forward interrupts to the whole job so ^C tears down every rank.
	sig := make(chan os.Signal, 8)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		for s := range sig {
			for _, c := range cmds {
				if c.Process != nil {
					c.Process.Signal(s)
				}
			}
		}
	}()
	type result struct {
		rank int
		code int
	}
	results := make(chan result, n)
	for r, cmd := range cmds {
		r, cmd := r, cmd
		go func() {
			err := cmd.Wait()
			code := 0
			if err != nil {
				code = 1
				if cmd.ProcessState != nil {
					if c := cmd.ProcessState.ExitCode(); c > 0 {
						code = c
					}
				}
			}
			results <- result{r, code}
		}()
	}
	exit := 0
	for i := 0; i < n; i++ {
		res := <-results
		if res.code != 0 && exit == 0 {
			exit = res.code
			fmt.Fprintf(os.Stderr, "upcxx-run: rank %d exited with code %d; terminating job\n", res.rank, res.code)
			for _, c := range cmds {
				if c.Process != nil {
					c.Process.Kill()
				}
			}
		}
	}
	return exit
}

// --- cross-process stats ------------------------------------------------

// statsSnapBody is the registered fetch half of StatsMergedDist: each
// rank serializes its own observability snapshot.
func statsSnapBody(trk *Rank, _ uint8) []byte {
	b, err := json.Marshal(trk.Stats())
	if err != nil {
		panic(fmt.Sprintf("upcxx: stats snapshot marshal: %v", err))
	}
	return b
}

func init() { RegisterRPC(statsSnapBody) }

// StatsMergedDist is StatsMerged for any world shape: in-process worlds
// merge locally; multi-process worlds gather every sibling rank's
// snapshot by RPC (call it from rank 0, SPMD-collectively if every rank
// wants the result), transport counters included.
func (w *World) StatsMergedDist(rk *Rank) obs.Snapshot {
	ss := w.StatsAll()
	for r := Intrank(0); w.dist && r < rk.n; r++ {
		if r == rk.me {
			continue
		}
		b := RPC(rk, r, statsSnapBody, uint8(0)).Wait()
		var s obs.Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			panic(fmt.Sprintf("upcxx: stats snapshot from rank %d: %v", r, err))
		}
		ss = append(ss, s)
	}
	return obs.Merged(ss)
}
