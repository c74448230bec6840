package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestFigureGolden pins the figure: it is computed in model time, so it is
// the same bytes on every host and at every GOMAXPROCS, and a change that
// moves a modelled event shows up as a diff against testdata/figure.golden.
// Regenerate it, when the move is intended, with
// go run ./cmd/sympack-bench > cmd/sympack-bench/testdata/figure.golden.
func TestFigureGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figure.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var got bytes.Buffer
			if err := run(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("figure differs from testdata/figure.golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
			}
		})
	}
}
