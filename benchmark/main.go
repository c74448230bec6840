// The repository's benchmark: one program that drives the runtime through
// its public functions only, prints every declared metric by name with its
// unit, and checks every result. See README.md for the metric → layer →
// workload table and BENCHMARK.json (repository root) for the contract.
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                      [-rounds r] [-out file]
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"upcxx"
	"upcxx/internal/stats"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rounds   int
	out      string
	traceDir string // where the traced run leaves trace-<workload>.json
	fault    bool   // self-test only: make the RPC oracle wrong

	// Set by the driver on the processes it spawns.
	role   string // setup | run | obs
	result string // where rank 0 leaves its result
	t0     int64  // driver's launch time, unix ns
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main with its arguments and exit status explicit, so the self-test
// binary can stand in for the benchmark binary when it is spawned as a rank.
func run(args []string) int {
	var o options
	var trace int
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for payload bytes, table keys, task grains and matrix inputs")
	fs.Float64Var(&o.seconds, "seconds", 26, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	fs.IntVar(&o.rounds, "rounds", 0, "interleaved measurement rounds (default 60; 15 for the traced run)")
	fs.StringVar(&o.out, "out", "", "also write the full result (fingerprint, rounds, quartiles) to this file")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join("benchmark", "out"), "directory for the traced run's trace-<workload>.json")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: -compare a.json b.json")
	fs.StringVar(&o.role, "role", "", "internal: set on spawned processes")
	fs.StringVar(&o.result, "result", "", "internal: rank 0's result file")
	fs.Int64Var(&o.t0, "t0", 0, "internal: launch time")
	fs.BoolVar(&o.fault, "fault", false, "internal: self-test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if o.rounds == 0 {
		o.rounds = 60
		if o.trace {
			// The traced run has twice as many phases, several of them of
			// fixed size; its numbers are not gated.
			o.rounds = 15
		}
	}
	switch {
	case compare:
		return compareMain(fs.Args())
	case o.role != "":
		return rankMain(o)
	default:
		return driverMain(o)
	}
}

// --- what a rank hands back -------------------------------------------------

type rankResult struct {
	SetupS    float64               `json:"setup_s"`   // as measured
	SetupRef  float64               `json:"setup_ref"` // the reference reading (µs) taken when set-up ended
	Series    map[string]*seriesOut `json:"series,omitempty"`
	Plan      plan                  `json:"plan,omitempty"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Procs     int                   `json:"procs"` // GOMAXPROCS of the rank's process
	Extra     map[string]float64    `json:"extra,omitempty"`
	Err       string                `json:"err,omitempty"`
}

// obsTime is how long the traced run's two rput-only worlds (plain and
// stats-on) each measure.
func obsTime(o options) time.Duration {
	return min(time.Second, time.Duration(o.seconds*float64(time.Second)/20))
}

// rankBody is the SPMD program of one launch. Rank 0 returns the result.
func rankBody(rk *upcxx.Rank, wl workload, o options, t0 time.Time, raw *rawAM) (res *rankResult) {
	res = &rankResult{Procs: runtime.GOMAXPROCS(0)}
	var b *bench
	defer func() {
		if b != nil {
			res.Attempted, res.Failed = b.attempted, b.failed
		}
		if r := recover(); r != nil {
			// A panic is the runtime's report of a timeout, a lost peer or a
			// bug; the ranks are out of step from here on, so the run ends.
			res.Err = fmt.Sprint(r)
			res.Failed++
			res.Attempted++
		}
		states.Delete(rk)
		if rk.Me() != 0 && res.Err == "" {
			res = nil
		}
	}()
	b = newBench(rk, wl, o.seed, o.fault)
	b.raw = raw
	res.SetupS = time.Since(t0).Seconds()
	res.SetupRef = b.refReading()
	budget := time.Duration(o.seconds * float64(time.Second))
	switch o.role {
	case "obs", "plain":
		// The traced run's pair of rput-only worlds: fresh processes that
		// differ in nothing but Config.Stats.
		b.tr = newSpanRec()
		if rk.Me() == 0 {
			before := refReading()
			extra := map[string]float64{"rput_p50_us": p50us(b.rputFor(obsTime(o)))}
			if o.role == "obs" {
				extra = b.obsLayer(obsTime(o))
			}
			res.Extra = scaleExtra(extra, (before+refReading())/2)
		}
	case "run":
		phases := b.endToEndPhases()
		if o.trace {
			ls := newLayerState(b, o.seed)
			b.tr = newSpanRec()
			phases = b.layerPhases(ls)
			budget -= 2 * obsTime(o)
		}
		before := readProc()
		series, pl := b.measure(phases, budget, o.rounds)
		after := readProc()
		if rk.Me() != 0 {
			return
		}
		res.Plan, res.Series = pl, series
		if o.trace {
			// Totals over the whole run: no one reading applies, so these
			// stay as measured.
			res.Extra = map[string]float64{
				"proc.cpu_us_per_op": float64((after.cpu - before.cpu).Microseconds()) / float64(max(b.attempted, 1)),
				"proc.rss_mb":        after.rss,
				"proc.gc_cycles":     float64(after.gcs - before.gcs),
			}
			path := filepath.Join(o.traceDir, "trace-"+wl.name+".json")
			if err := b.tr.write(path, wl.name); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
			}
		}
	}
	return
}

// scaleExtra applies one reference reading to the numbers of the traced
// run's rput-only worlds. Names outside the declared metrics carry their
// unit as a suffix.
func scaleExtra(extra map[string]float64, refUS float64) map[string]float64 {
	for name, v := range extra {
		unit := unitOf[name]
		if unit == "" && strings.HasSuffix(name, "_us") {
			unit = "us"
		}
		extra[name] = scaled(v, unit, refUS)
	}
	return extra
}

func worldConfig(role string) upcxx.Config {
	cfg := upcxx.Config{Ranks: 2, SegmentSize: segmentSize, WaitTimeout: waitTimeout}
	if role == "obs" {
		cfg.Stats = true
		cfg.TraceDepth = 4096
	}
	return cfg
}

// rankMain is a spawned process: one of the two ranks of a shm/tcp job, or
// the single process that hosts both goroutine ranks of an in-process world.
func rankMain(o options) int {
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	var w *upcxx.World
	if wl.backend == "inproc" {
		w = upcxx.NewWorld(worldConfig(o.role))
	} else {
		w = upcxx.NewWorldDist(worldConfig(o.role))
	}
	raw := registerRawAM(w.Network())
	t0 := time.Unix(0, o.t0)
	var res *rankResult
	w.Run(func(rk *upcxx.Rank) {
		r := rankBody(rk, wl, o, t0, raw)
		if r == nil {
			return
		}
		if r.Err != "" {
			// The ranks are out of step: this one leaves without the closing
			// barrier. A sibling process sees the peer lost (and the launcher
			// kills it); a sibling goroutine goes down with the process.
			fmt.Fprintf(os.Stderr, "benchmark: rank %d: %s\n", rk.Me(), r.Err)
			if rk.Me() == 0 {
				writeResult(o.result, r)
			}
			os.Exit(1)
		}
		res = r
	})
	w.Close()
	if res != nil && !writeResult(o.result, res) {
		return 1
	}
	return 0
}

func writeResult(path string, res *rankResult) bool {
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(path, b, 0o666)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: rank result:", err)
	}
	return err == nil
}

// --- launching ----------------------------------------------------------------

// buildDir holds everything a run writes besides trace files; it is the
// directory the wrapper script builds into. (A variable for the self-test,
// which points it at a temporary directory.)
var buildDir = ".bench_build"

var launchSeq atomic.Int64

// launch runs one world to completion in fresh processes — this binary
// again, as two rank processes (shm, tcp) or as one process hosting both
// goroutine ranks (inproc) — and returns rank 0's result. Set-up is timed
// from here, so it includes the spawn and, on shm/tcp, the rendezvous.
func launch(wl workload, o options, role string) (*rankResult, error) {
	// A relative boot directory keeps the shm backend's unix-socket paths
	// short however deep the checkout sits.
	dir := filepath.Join(buildDir, fmt.Sprintf("boot-%d-%d", os.Getpid(), launchSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	result := filepath.Join(dir, "result.json")
	tr := 0
	if o.trace {
		tr = 1
	}
	args := []string{
		"-role", role, "-workload", wl.name, "-result", result,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-rounds", strconv.Itoa(o.rounds), "-trace", strconv.Itoa(tr), "-trace-dir", o.traceDir,
		"-fault=" + strconv.FormatBool(o.fault),
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	// While the job runs its launcher holds the interrupt: it passes the
	// signal on and returns once the processes are gone, so the deferred
	// clean-up above still runs. Between jobs there is nothing to clean up.
	var code int
	if wl.backend == "inproc" {
		code = runChild(exe, args)
	} else {
		code = upcxx.LaunchWorld(2, wl.backend, dir, exe, args, nil)
	}
	var res rankResult
	if b, err := os.ReadFile(result); err == nil {
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("rank result: %w", err)
		}
	} else if code == 0 {
		return nil, fmt.Errorf("rank result: %w", err)
	}
	if code != 0 {
		if res.Err == "" {
			res.Err = fmt.Sprintf("rank job exited with code %d", code)
			res.Attempted++
			res.Failed++
		}
		return &res, errors.New(res.Err)
	}
	return &res, nil
}

// runChild runs the in-process world's host process and waits for it,
// passing an interrupt on like LaunchWorld does for rank jobs.
func runChild(exe string, args []string) int {
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr // stdout carries only the driver's result
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			_ = cmd.Process.Signal(s) // the child may already be gone
		case <-done:
		}
	}()
	err := cmd.Wait()
	close(done)
	if err != nil {
		return max(cmd.ProcessState.ExitCode(), 1)
	}
	return 0
}

// --- the driver -----------------------------------------------------------------

// setupTrials is how many times set-up is measured per run, each in fresh
// processes.
const setupTrials = 25

type metricOut struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Value    float64   `json:"value"` // the rounds' median
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Rounds   []float64 `json:"rounds"`        // per round, scaled by the reference clock
	Raw      []float64 `json:"raw,omitempty"` // per round, as measured
	Ref      []float64 `json:"ref,omitempty"` // per round, the reference reading (µs) it was scaled by
	Tail     float64   `json:"tail,omitempty"`
	TailPct  float64   `json:"tail_pct,omitempty"`
	Samples  int       `json:"samples"`
	Unstable bool      `json:"unstable,omitempty"`
}

type report struct {
	Workload  string      `json:"workload"`
	Backend   string      `json:"backend"`
	Size      int         `json:"size"`
	Trace     bool        `json:"trace"`
	Metrics   []metricOut `json:"metrics"`
	OpCounts  plan        `json:"op_counts"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Correct   bool        `json:"correct"`
	Missing   []string    `json:"missing,omitempty"`
	Procs     int         `json:"procs"` // GOMAXPROCS of a rank's process
}

func failedReport(wl workload, o options, r *rankResult) *report {
	if r == nil {
		r = &rankResult{}
	}
	return &report{Workload: wl.name, Backend: wl.backend, Size: wl.size, Trace: o.trace,
		Attempted: max(r.Attempted, 1), Failed: max(r.Failed, 1)}
}

// runWorkload measures one workload: set-up several times, then the rounds
// (and, traced, the stats-on world), and folds rank 0's numbers into the
// declared metrics.
func runWorkload(wl workload, o options) (*report, error) {
	setup := &seriesOut{}
	addSetup := func(r *rankResult) {
		setup.Values = append(setup.Values, scaled(r.SetupS, "s", r.SetupRef))
		setup.Raw = append(setup.Raw, r.SetupS)
		setup.Ref = append(setup.Ref, r.SetupRef)
		setup.Ops++
	}
	if !o.trace {
		for i := 1; i < setupTrials; i++ {
			r, err := launch(wl, o, "setup")
			if err != nil {
				return failedReport(wl, o, r), err
			}
			addSetup(r)
		}
	}
	res, err := launch(wl, o, "run")
	if err != nil {
		return failedReport(wl, o, res), err
	}
	values := map[string]*seriesOut{}
	for name, s := range res.Series {
		values[name] = s
	}
	one := func(name string, v float64) { values[name] = &seriesOut{Values: []float64{v}, Ops: 1} }
	addSetup(res)
	values["setup_s"] = setup
	attempted, failed := res.Attempted, res.Failed
	if o.trace {
		var rput [2]float64 // p50 in the plain world, in the stats-on world
		for i, role := range [2]string{"plain", "obs"} {
			r, err := launch(wl, o, role)
			if err != nil {
				return failedReport(wl, o, r), err
			}
			attempted += r.Attempted
			failed += r.Failed
			for name, v := range r.Extra {
				one(name, v)
			}
			rput[i] = r.Extra["rput_p50_us"]
		}
		for name, v := range res.Extra {
			one(name, v)
		}
		one("obs.traced_overhead_pct", 100*(rput[1]/rput[0]-1))
		one("fail_ratio", float64(failed)/float64(max(attempted, 1)))
	}
	rep := &report{Workload: wl.name, Backend: wl.backend, Size: wl.size, Trace: o.trace,
		OpCounts: res.Plan, Attempted: attempted, Failed: failed, Procs: res.Procs}
	for _, d := range declared(o.trace) {
		s := values[d.name]
		if s == nil || len(s.Values) == 0 {
			rep.Missing = append(rep.Missing, d.name)
			continue
		}
		m := metricOut{Name: d.name, Unit: d.unit, Better: d.better(), Value: median(s.Values),
			Rounds: s.Values, Raw: s.Raw, Ref: s.Ref, Tail: s.Tail, TailPct: s.TailPct, Samples: s.Ops}
		m.Q1, m.Q3 = quartiles(s.Values)
		sm := stats.Sample{Values: s.Values}
		if lo, hi := sm.Min(), sm.Max(); d.exact && wl.backend == "inproc" && hi-lo > exactTolerance {
			// A count that moves between rounds means GC or lazy
			// initialisation leaked into the timed region.
			m.Unstable = true
			fmt.Fprintf(os.Stderr, "benchmark: warning: %s on %s is not the same in every round: %.2f to %.2f\n", d.name, wl.name, lo, hi)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Missing = append(rep.Missing, d.name)
			continue
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	rep.Correct = failed == 0 && len(rep.Missing) == 0
	return rep, nil
}

// exactTolerance is how far a per-op count may move between rounds and
// still be called the same count: the heap counters also see the odd
// allocation by the Go runtime's own goroutines, a few per thousand ops.
const exactTolerance = 0.5

// printReport writes the human-readable table.
func printReport(rep *report, o options) {
	note := ""
	if rep.Backend == "tcp" {
		note = " — tcp traffic crosses the host loopback interface, not a network"
	}
	fmt.Printf("\n%s: %s conduit, S=%d B, seed %d, %d rounds, %.4g s, GOMAXPROCS %d in a rank%s\n",
		rep.Workload, rep.Backend, rep.Size, o.seed, o.rounds, o.seconds, rep.Procs, note)
	var refs []float64
	for _, m := range rep.Metrics {
		refs = append(refs, m.Ref...)
	}
	if len(refs) > 0 {
		fmt.Printf("  times and rates are scaled by the reference clock: median reading %.3g us, nominal %.3g us (README)\n",
			median(refs), refNominalUS)
	}
	fmt.Printf("  %-32s %-8s %12s %12s %12s %12s %14s %9s\n", "metric", "unit", "median", "q1", "q3", "unscaled", "tail", "samples")
	for _, m := range rep.Metrics {
		tail := ""
		if m.Tail != 0 {
			tail = fmt.Sprintf("%.4g@p%.3g", m.Tail, m.TailPct)
		}
		raw := ""
		if len(m.Raw) > 0 {
			raw = fmt.Sprintf("%.5g", median(m.Raw))
		}
		flag := ""
		if m.Unstable {
			flag = "  unstable"
		}
		fmt.Printf("  %-32s %-8s %12.5g %12.5g %12.5g %12s %14s %9d%s\n", m.Name, m.Unit, m.Value, m.Q1, m.Q3, raw, tail, m.Samples, flag)
		if m.Name == "rput_flood_mops" {
			fmt.Printf("  %-32s %-8s %12.5g\n", "  (rput flood bandwidth)", "MB/s", m.Value*float64(rep.Size))
		}
	}
	fmt.Printf("  attempted %d, failed %d, fail_ratio %.3g\n", rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, name := range rep.Missing {
		fmt.Printf("  MISSING %s\n", name)
	}
}

// printResult writes the contract's result line: the last line of stdout.
func printResult(rep *report) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": max(rep.Attempted, 1), "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(b))
}

// fingerprint identifies the host and inputs a result file came from.
type fingerprint struct {
	NProc     int     `json:"nproc"`
	CPU       int     `json:"cpu"` // the CPU the whole job is confined to; -1 if it is not
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"kernel"`
	Commit    string  `json:"git_commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Rounds    int     `json:"rounds"`
	Trace     bool    `json:"trace"`
}

type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Reports     []*report   `json:"reports"`
}

func hostFingerprint(o options, cpu int) fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), CPU: cpu, GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: gitCommit(), Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, Trace: o.trace}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		fp.Kernel = sb.String()
	}
	return fp
}

// gitCommit reads HEAD without running git; the driver's checkouts are not
// repositories, so "unknown" is an expected answer.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if strings.HasSuffix(line, " "+ref) {
				return strings.Fields(line)[0]
			}
		}
	}
	return "unknown"
}

func driverMain(o options) int {
	if o.seconds <= 0 || o.rounds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -rounds not negative")
		return 2
	}
	run := workloads
	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		run = []workload{wl}
	}
	// The whole job runs on one CPU: see README, "Placement".
	cpu, err := confine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: warning: the job is not confined to one CPU, expect noisier numbers: %v\n", err)
	}
	fp := hostFingerprint(o, cpu)
	fmt.Printf("upcxx benchmark: nproc %d, job confined to cpu %d, %s, kernel %s, commit %s\n",
		fp.NProc, fp.CPU, fp.GoVersion, fp.Kernel, fp.Commit)
	file := resultFile{Fingerprint: fp}
	code := 0
	for _, wl := range run {
		rep, err := runWorkload(wl, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		}
		printReport(rep, o)
		printResult(rep)
		file.Reports = append(file.Reports, rep)
		if !rep.Correct {
			code = 1
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, b, 0o666)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
