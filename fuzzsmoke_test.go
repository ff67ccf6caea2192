package darksim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFuzzSmokeNamesEveryTarget is the fuzz-smoke guard. `go test
// -fuzz=Name` exits 0 with "no fuzz tests to fuzz" when Name matches no
// target, so a fuzz target renamed or deleted would silently drop out of
// `make fuzz-smoke`. Every -fuzz= name in the Makefile must be a fuzz
// target declared in the package directory its line runs, and every
// fuzz target of the module must have a Makefile line.
func TestFuzzSmokeNamesEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	named, err := fuzzSmokeTargets(string(mk))
	if err != nil {
		t.Fatal(err)
	}
	if len(named) == 0 {
		t.Fatal("the Makefile names no -fuzz= target; is the test running at the module root?")
	}
	declared, err := fuzzTargets(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fuzzSmokeMismatch(named, declared) {
		t.Error(p)
	}
}

// fuzzSmokeLine matches a `go test -fuzz=Name ... ./dir` recipe line.
var fuzzSmokeLine = regexp.MustCompile(`-fuzz=(\S+)\s.*\s(\./\S+)\s*$`)

// fuzzSmokeTargets returns the "dir:Name" of every -fuzz= line of a
// Makefile, dir as the line spells it ("./internal/vf"). A -fuzz= line
// that names no package directory is an error.
func fuzzSmokeTargets(makefile string) ([]string, error) {
	var out []string
	for _, line := range strings.Split(makefile, "\n") {
		if !strings.Contains(line, "-fuzz=") {
			continue
		}
		m := fuzzSmokeLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("Makefile -fuzz= line names no ./package directory: %q", strings.TrimSpace(line))
		}
		out = append(out, m[2]+":"+m[1])
	}
	return out, nil
}

// fuzzTargets parses the _test.go files below root, skipping nested
// modules (a directory with its own go.mod) and hidden directories, and
// returns the "./dir:Name" of every fuzz target: a top-level func
// FuzzXxx(f *testing.F).
func fuzzTargets(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isFuzzTarget(fn) {
				out = append(out, "./"+filepath.ToSlash(rel)+":"+fn.Name.Name)
			}
		}
		return nil
	})
	return out, err
}

// isFuzzTarget reports whether fn is declared as func FuzzXxx(*testing.F).
func isFuzzTarget(fn *ast.FuncDecl) bool {
	if fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || len(fn.Type.Params.List) != 1 {
		return false
	}
	star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}

// fuzzSmokeMismatch returns, sorted, one message per Makefile name with
// no declared target and per declared target with no Makefile line.
func fuzzSmokeMismatch(named, declared []string) []string {
	in := func(set []string) map[string]bool {
		m := map[string]bool{}
		for _, s := range set {
			m[s] = true
		}
		return m
	}
	isNamed, isDeclared := in(named), in(declared)
	var out []string
	for n := range isNamed {
		if !isDeclared[n] {
			out = append(out, "make fuzz-smoke runs "+n+", but that package declares no such fuzz target")
		}
	}
	for d := range isDeclared {
		if !isNamed[d] {
			out = append(out, "fuzz target "+d+" has no line in make fuzz-smoke")
		}
	}
	sort.Strings(out)
	return out
}

func TestFuzzSmokeMismatch(t *testing.T) {
	const makefile = `fuzz-smoke:
	$(GO) test -fuzz=FuzzA -fuzztime=$(FUZZTIME) -run='^$$' ./internal/a
	$(GO) test -fuzz=FuzzNope -fuzztime=$(FUZZTIME) -run='^$$' ./internal/b
# "go test -fuzz" takes one target per invocation`
	named, err := fuzzSmokeTargets(makefile)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"./internal/a:FuzzA", "./internal/b:FuzzNope"}; !reflect.DeepEqual(named, want) {
		t.Fatalf("parsed %v, want %v", named, want)
	}
	got := fuzzSmokeMismatch(named, []string{"./internal/a:FuzzA", "./internal/b:FuzzB", "./internal/a:FuzzNope"})
	want := []string{
		"fuzz target ./internal/a:FuzzNope has no line in make fuzz-smoke",
		"fuzz target ./internal/b:FuzzB has no line in make fuzz-smoke",
		"make fuzz-smoke runs ./internal/b:FuzzNope, but that package declares no such fuzz target",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mismatch %q, want %q", got, want)
	}
	if got := fuzzSmokeMismatch(named[:1], named[:1]); got != nil {
		t.Errorf("matching sets reported %q", got)
	}
	if _, err := fuzzSmokeTargets("\tgo test -fuzz=FuzzA -fuzztime=1s\n"); err == nil {
		t.Error("a -fuzz= line without a package directory was accepted")
	}
	src := `package p
import "testing"
func FuzzA(f *testing.F) {}
func FuzzHelper(n int) {}
func fuzzB(f *testing.F) {}
type T struct{}
func (T) FuzzM(f *testing.F) {}`
	f, err := parser.ParseFile(token.NewFileSet(), "p_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && isFuzzTarget(fn) {
			targets = append(targets, fn.Name.Name)
		}
	}
	if !reflect.DeepEqual(targets, []string{"FuzzA"}) {
		t.Errorf("fuzz targets %v, want [FuzzA]", targets)
	}
}
