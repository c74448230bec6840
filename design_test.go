package upcxx_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// northStar are the contracts every change to the runtime must keep; each
// opens a row of DESIGN.md's §10 table.
var northStar = []string{
	"Per-pair FIFO",
	"Completion before signal",
	"Persona ownership",
	"Quiescence ⇒ delivered results",
	"Canonical wire forms",
}

var (
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Za-z0-9_]*(?:/[A-Za-z0-9_-]+)?`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]*)\(`)
	docHeading = regexp.MustCompile(`(?m)^## (\d+)\.`)
	sectionRef = regexp.MustCompile(`(?:(DESIGN|EXPERIMENTS)(?:\.md)?\s+)?§(\d+)`)
)

// TestDesignContractsPinned keeps DESIGN.md's contracts table true to the
// tree: every row of §10 names the test(s) that pin its contract and the
// code that keeps it, every named Test or Fuzz function is declared in some
// _test.go file (TestX/sub counts as TestX), and every north-star contract
// has its row. It also holds every "DESIGN §N" / "EXPERIMENTS §N" reference
// in the Go sources, scripts, Makefile, the two docs and the verify skill
// (and a bare §N inside a doc, which means its own section) to a "## N."
// heading that exists, so trimming a doc cannot strand a citation.
// Directories whose names start with "." are not walked: the benchmark's
// stale copies of the tree under .bench_build must not satisfy a lookup.
func TestDesignContractsPinned(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"DESIGN", "EXPERIMENTS"} {
		b, err := os.ReadFile(name + ".md")
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}

	declared := map[string]bool{}
	var sources []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(b), -1) {
				declared[m[1]] = true
			}
			sources = append(sources, path)
		case strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".sh"):
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := contractRows(t, docs["DESIGN"])
	for _, want := range northStar {
		found := false
		for _, r := range rows {
			found = found || strings.Contains(r[0], want)
		}
		if !found {
			t.Errorf("DESIGN §10 has no row for the contract %q", want)
		}
	}
	for _, r := range rows {
		contract, _, _ := strings.Cut(strings.TrimPrefix(r[0], "**"), ".**")
		names := testName.FindAllString(r[1], -1)
		if len(names) == 0 {
			t.Errorf("DESIGN §10 row %q names no test", contract)
		}
		if strings.TrimSpace(r[2]) == "" {
			t.Errorf("DESIGN §10 row %q names no code", contract)
		}
		for _, n := range names {
			base, _, _ := strings.Cut(n, "/")
			if !declared[base] {
				t.Errorf("DESIGN §10 row %q names %s, which no _test.go declares", contract, n)
			}
		}
	}

	headings := map[string]map[string]bool{}
	for name, text := range docs {
		headings[name] = map[string]bool{}
		for _, m := range docHeading.FindAllStringSubmatch(text, -1) {
			headings[name][m[1]] = true
		}
	}
	texts := map[string]string{"DESIGN.md": docs["DESIGN"], "EXPERIMENTS.md": docs["EXPERIMENTS"]}
	for _, path := range append(sources, "Makefile", filepath.Join(".claude", "skills", "verify", "SKILL.md")) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	for path, text := range texts {
		self := strings.TrimSuffix(path, ".md")
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			doc := m[1]
			if doc == "" {
				if _, isDoc := docs[self]; !isDoc {
					continue // a bare § outside the docs names no doc
				}
				doc = self
			}
			if !headings[doc][m[2]] {
				t.Errorf("%s cites %q, but %s.md has no \"## %s.\" section", path, m[0], doc, m[2])
			}
		}
	}
}

// contractRows returns the cells of DESIGN §10's table below its header row:
// contract, the tests that pin it, the code that keeps it.
func contractRows(t *testing.T, design string) [][3]string {
	_, sec, ok := strings.Cut(design, "\n## 10.")
	if !ok {
		t.Fatal("DESIGN.md has no §10")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][3]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|-") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 3 {
			t.Errorf("DESIGN §10 row has %d cells, want 3: %s", len(cells), line)
			continue
		}
		rows = append(rows, [3]string{cells[0], cells[1], cells[2]})
	}
	if len(rows) < 2 {
		t.Fatal("DESIGN §10 holds no contracts table")
	}
	return rows[1:]
}
