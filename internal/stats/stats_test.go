package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Percentile(50)) {
		t.Error("empty sample should yield NaN")
	}
	s.Values = []float64{3, 1, 4, 1, 5}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if s.Values[0] != 3 || s.Values[4] != 5 {
		t.Errorf("Percentile reordered the caller's values: %v", s.Values)
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(vs []float64, p float64) bool {
		if len(vs) == 0 {
			return true
		}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p = math.Mod(math.Abs(p), 100)
		s := Sample{Values: vs}
		got := s.Percentile(p)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "b"}
	b.Add(2, 200)
	b.Add(4, 400)
	if a.YAt(2) != 20 || !math.IsNaN(a.YAt(3)) {
		t.Error("YAt wrong")
	}
	tab := &Table{Title: "t", XLabel: "x", Series: []*Series{a, b}}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"t\n", "x", "a", "b", "10", "200", "400", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestBytesHuman(t *testing.T) {
	cases := map[int]string{
		8:       "8B",
		1024:    "1KB",
		8192:    "8KB",
		1 << 20: "1MB",
		4 << 20: "4MB",
		1000:    "1000B",
	}
	for n, want := range cases {
		if got := BytesHuman(n); got != want {
			t.Errorf("BytesHuman(%d) = %q, want %q", n, got, want)
		}
	}
}
