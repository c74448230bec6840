package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The self-test runs inproc-small with tiny op counts and checks the
// benchmark's own contract: every declared metric appears exactly once with
// a finite value, nothing fails, and the names, units and directions match
// BENCHMARK.json.

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readContract(t *testing.T) (e2e, layers []declaredMetric, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	return c.EndToEnd, c.PerLayer, names
}

// TestMain lets the test binary stand in for the benchmark binary: the
// driver under test spawns os.Executable() with -role as the first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T, trace bool) options {
	buildDir = t.TempDir()
	return options{seed: 7, seconds: 0.4, rounds: 3, trace: trace, traceDir: t.TempDir()}
}

func checkReport(t *testing.T, rep *report, want []declaredMetric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || len(rep.Missing) != 0 {
		t.Fatalf("correct=%v failed=%d missing=%v", rep.Correct, rep.Failed, rep.Missing)
	}
	if rep.Attempted < 1 {
		t.Fatalf("attempted %d", rep.Attempted)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	got := map[string]metricOut{}
	for _, m := range rep.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s reported twice", m.Name)
		}
		got[m.Name] = m
		if !nameOK.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json declares %s, not reported", w.Name)
			continue
		}
		if m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("%s: reported %s/%s, declared %s/%s", w.Name, m.Unit, m.Better, w.Unit, w.Better)
		}
	}
}

func TestEndToEndMetricsMatchContract(t *testing.T) {
	e2e, _, names := readContract(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: %s vs %s", i, names[i], w.name)
		}
	}
	rep, err := runWorkload(workloads[0], tinyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, e2e)
	for _, m := range rep.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
		}
	}
}

func TestPerLayerMetricsMatchContract(t *testing.T) {
	_, layers, _ := readContract(t)
	o := tinyOptions(t, true)
	rep, err := runWorkload(workloads[0], o)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, layers)
	if _, err := os.Stat(o.traceDir + "/trace-inproc-small.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// A phase whose oracle is wrong on purpose must show up as failures.
func TestWrongOracleRaisesFailRatio(t *testing.T) {
	o := tinyOptions(t, false)
	o.fault = true
	rep, err := runWorkload(workloads[0], o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Correct {
		t.Fatalf("failed=%d correct=%v with a wrong RPC oracle", rep.Failed, rep.Correct)
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which
// the acceptance rule is written against.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Fatalf("got %v %v, want 1.75 5.25", q1, q3)
	}
}

// The reference clock shrinks times and grows rates by how much slower than
// nominal the host ran, and leaves counts alone.
func TestScaled(t *testing.T) {
	slow := 2 * refNominalUS
	for _, c := range []struct {
		unit string
		want float64
	}{{"us", 50}, {"s", 50}, {"kops/s", 200}, {"count", 100}, {"ratio", 100}, {"B", 100}} {
		if got := scaled(100, c.unit, slow); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scaled(100, %q) at half speed = %v, want %v", c.unit, got, c.want)
		}
	}
	if r := refReading(); r <= 0 || math.IsNaN(r) {
		t.Errorf("reference reading %v", r)
	}
}
