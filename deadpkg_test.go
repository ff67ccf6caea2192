package darksim

import (
	"bytes"
	"fmt"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoOrphanInternalPackages is the dead-package guard: every
// internal/ package must be imported by at least one non-test package of
// the module (a command, an example or another internal package).
// Test-only importers do not count, so a package kept alive only by its
// own tests fails here. It runs `go list` offline and needs no
// downloaded tool; if `go list` itself fails, so does the test.
func TestNoOrphanInternalPackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goTool, "list", "-f", "{{.ImportPath}} {{.Imports}}", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	graph, err := parseImports(string(out))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := graph["darksim/internal/sim"]; !ok {
		t.Fatalf("go list output lacks darksim/internal/sim; is the test running at the module root?\n%s", out)
	}
	if orphans := orphanPackages("darksim/internal/", graph); len(orphans) > 0 {
		t.Errorf("internal packages with no non-test importer: %v (delete them or use them)", orphans)
	}
}

// parseImports reads `go list -f '{{.ImportPath}} {{.Imports}}'` output
// into a map from each package to its non-test imports.
func parseImports(out string) (map[string][]string, error) {
	graph := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		path, imports, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(imports, "[") || !strings.HasSuffix(imports, "]") {
			return nil, fmt.Errorf("unexpected go list line %q", line)
		}
		graph[path] = strings.Fields(imports[1 : len(imports)-1])
	}
	return graph, nil
}

// orphanPackages returns, sorted, the packages under prefix that no
// other package in graph imports.
func orphanPackages(prefix string, graph map[string][]string) []string {
	imported := map[string]bool{}
	for pkg, imports := range graph {
		for _, imp := range imports {
			if imp != pkg {
				imported[imp] = true
			}
		}
	}
	var orphans []string
	for pkg := range graph {
		if strings.HasPrefix(pkg, prefix) && !imported[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	return orphans
}

func TestOrphanPackages(t *testing.T) {
	const listing = `darksim []
darksim/cmd/tool [darksim/internal/a fmt]
darksim/internal/a [darksim/internal/b]
darksim/internal/b []
darksim/internal/orphan [darksim/internal/b]
darksim/internal/self [darksim/internal/self]
darksim/examples/demo [darksim/internal/c]
darksim/internal/c []`
	graph, err := parseImports(listing)
	if err != nil {
		t.Fatal(err)
	}
	if got := graph["darksim/cmd/tool"]; !reflect.DeepEqual(got, []string{"darksim/internal/a", "fmt"}) {
		t.Fatalf("parsed imports %v", got)
	}
	cases := []struct {
		name  string
		graph map[string][]string
		want  []string
	}{
		{"listing", graph, []string{"darksim/internal/orphan", "darksim/internal/self"}},
		{"empty", map[string][]string{}, nil},
		{"all imported", map[string][]string{
			"darksim/cmd/x":      {"darksim/internal/a"},
			"darksim/internal/a": {"darksim/internal/b"},
			"darksim/internal/b": nil,
		}, nil},
		{"only commands", map[string][]string{"darksim/cmd/x": nil}, nil},
	}
	for _, tc := range cases {
		if got := orphanPackages("darksim/internal/", tc.graph); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: orphans %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, bad := range []string{"darksim", "darksim fmt", "darksim [fmt"} {
		if _, err := parseImports(bad); err == nil {
			t.Errorf("parseImports(%q) accepted malformed output", bad)
		}
	}
}
