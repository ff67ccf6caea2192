package darksim

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every program under examples/ once into a temp
// dir and runs each binary: it must exit 0 and print something. The
// examples are the only callers of sim.Run, tsp.Calculator.Given and
// core.BestDVFSConfig outside the benchmark harness, so a change that
// breaks one of those paths for them fails here.
func TestExamplesRun(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no example programs found; is the test running at the module root?")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatalf("%s printed nothing", name)
			}
		})
	}
}
