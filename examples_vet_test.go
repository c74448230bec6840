package upcxx_test

import (
	"os/exec"
	"testing"
)

// TestExamplesVetClean is the smoke test that the example programs keep
// compiling cleanly against the package: `go vet` both type-checks and
// lints every main under examples/.
func TestExamplesVetClean(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(gobin, "vet", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet ./examples/... failed: %v\n%s", err, out)
	}
}
