package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// -compare a.json b.json: a per (metric, workload) delta table between two
// -out files, a being the baseline. Verdicts, against the bound that
// BENCHMARK.json fixes for the metric:
//
//	ok          b's value is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound and by more than either
//	            side's own round-to-round spread
//	unresolved  a side's spread (interquartile distance ÷ median over its
//	            rounds) is wider than the bound, so "unchanged" cannot be said
//
// Per-layer metrics have no bound and are listed with their delta only.
// The exit status is non-zero when anything regressed.

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareFiles(a, b, bounds)
}

func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// verdict judges b against baseline a for one metric.
func verdict(a, b metricOut, bound float64) (worse float64, v string) {
	worse = (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	noise := max(spread(a.Rounds), spread(b.Rounds))
	switch {
	case worse > bound && worse > noise:
		return worse, "regressed"
	case noise > bound:
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

func compareFiles(a, b *resultFile, bounds map[string]float64) int {
	fa, fb := a.Fingerprint, b.Fingerprint
	// Seed, run length and rounds fix the inputs and the calibrated op
	// counts; values from different ones are not comparable.
	if fa.Seed != fb.Seed || fa.Seconds != fb.Seconds || fa.Rounds != fb.Rounds || fa.Trace != fb.Trace {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: seed/seconds/rounds/trace differ (%d/%g/%d/%v vs %d/%g/%d/%v)\n",
			fa.Seed, fa.Seconds, fa.Rounds, fa.Trace, fb.Seed, fb.Seconds, fb.Rounds, fb.Trace)
		return 2
	}
	if fa.NProc != fb.NProc || fa.GoVersion != fb.GoVersion {
		fmt.Printf("note: hosts differ (nproc %d %s vs nproc %d %s)\n", fa.NProc, fa.GoVersion, fb.NProc, fb.GoVersion)
	}
	fmt.Printf("a: commit %s   b: commit %s\n", fa.Commit, fb.Commit)
	byName := map[string]*report{}
	for _, r := range b.Reports {
		byName[r.Workload] = r
	}
	regressed := 0
	for _, ra := range a.Reports {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: workload %s is missing from b\n", ra.Workload)
			return 2
		}
		fmt.Printf("\n%s\n  %-32s %-8s %34s %34s %8s  %s\n", ra.Workload, "metric", "unit",
			"a value [q1, q3]", "b value [q1, q3]", "worse", "verdict")
		mb := map[string]metricOut{}
		for _, m := range rb.Metrics {
			mb[m.Name] = m
		}
		for _, x := range ra.Metrics {
			y, ok := mb[x.Name]
			if !ok {
				fmt.Printf("  %-32s missing from b\n", x.Name)
				regressed++
				continue
			}
			worse, v := verdict(x, y, bounds[x.Name])
			if _, bounded := bounds[x.Name]; !bounded {
				v = "-"
			}
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("  %-32s %-8s %12.5g [%9.4g,%9.4g] %12.5g [%9.4g,%9.4g] %+7.1f%%  %s\n",
				x.Name, x.Unit, x.Value, x.Q1, x.Q3, y.Value, y.Q1, y.Q3, 100*worse, v)
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("  failed operations rose from %d to %d\n", ra.Failed, rb.Failed)
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Printf("\n%d regressed\n", regressed)
		return 1
	}
	return 0
}
