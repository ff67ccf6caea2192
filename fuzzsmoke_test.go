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
	declared, err := testDecls(".", isFuzzTarget)
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

// testDecls parses the _test.go files below root, skipping nested
// modules (a directory with its own go.mod) and hidden directories, and
// returns the "./dir:Name" of every function declaration keep accepts.
func testDecls(root string, keep func(*ast.FuncDecl) bool) ([]string, error) {
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
			if fn, ok := decl.(*ast.FuncDecl); ok && keep(fn) {
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

// TestSmokeNamesMatchTests is the -run/-bench guard. `go test
// -run='TestA|TestB'` passes when TestB matches nothing, so a smoke test
// renamed or deleted would silently drop out of its target. Every
// alternative of every -run= and -bench= pattern in the Makefile, except
// the run-nothing pattern ^$, must match a test (for -run) or benchmark
// (for -bench) declared in the packages its line names.
func TestSmokeNamesMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	pats, err := smokePatterns(string(mk))
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("the Makefile has no -run= or -bench= pattern; is the test running at the module root?")
	}
	declared, err := testDecls(".", func(fn *ast.FuncDecl) bool { return fn.Recv == nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range smokePatternMismatch(pats, declared) {
		t.Error(p)
	}
}

// smokePattern is one alternative of a Makefile -run= or -bench= pattern
// with the package directories its line names ("./internal/jobs",
// "./...").
type smokePattern struct {
	flag, alt string
	pkgs      []string
}

var (
	smokeFlag = regexp.MustCompile(`-(run|bench)=('[^']*'|\S+)`)
	smokePkg  = regexp.MustCompile(`(?:^|\s)(\./\S*)`)
)

// smokePatterns returns every -run= and -bench= alternative of the
// go test lines of a Makefile, with $$ unescaped. A line that names no
// package directory is an error.
func smokePatterns(makefile string) ([]smokePattern, error) {
	var out []smokePattern
	for _, line := range strings.Split(makefile, "\n") {
		flags := smokeFlag.FindAllStringSubmatch(line, -1)
		if len(flags) == 0 {
			continue
		}
		var pkgs []string
		for _, m := range smokePkg.FindAllStringSubmatch(line, -1) {
			pkgs = append(pkgs, m[1])
		}
		if len(pkgs) == 0 {
			return nil, fmt.Errorf("Makefile -run=/-bench= line names no ./package directory: %q", strings.TrimSpace(line))
		}
		for _, f := range flags {
			pat := strings.ReplaceAll(strings.Trim(f[2], "'"), "$$", "$")
			for _, alt := range strings.Split(pat, "|") {
				if alt != "^$" {
					out = append(out, smokePattern{flag: f[1], alt: alt, pkgs: pkgs})
				}
			}
		}
	}
	return out, nil
}

// smokePatternMismatch returns one message per pattern alternative that
// matches no declared "./dir:Name" of its kind in its line's packages:
// Test, Example and Fuzz functions for -run, Benchmark functions for
// -bench.
func smokePatternMismatch(pats []smokePattern, declared []string) []string {
	var out []string
	for _, p := range pats {
		re, err := regexp.Compile(p.alt)
		if err != nil {
			out = append(out, fmt.Sprintf("-%s=%s: %v", p.flag, p.alt, err))
			continue
		}
		found := false
		for _, d := range declared {
			dir, name, _ := strings.Cut(d, ":")
			if runnable(p.flag, name) && inPackages(dir, p.pkgs) && re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("-%s=%s matches nothing declared in %s", p.flag, p.alt, strings.Join(p.pkgs, " ")))
		}
	}
	return out
}

// runnable reports whether go test's -run (or -bench) flag selects
// functions named like name.
func runnable(flag, name string) bool {
	if flag == "bench" {
		return strings.HasPrefix(name, "Benchmark")
	}
	for _, prefix := range []string{"Test", "Example", "Fuzz"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// inPackages reports whether the package directory dir ("./internal/a")
// is one of pkgs, where "./x/..." names x and everything below it.
func inPackages(dir string, pkgs []string) bool {
	for _, p := range pkgs {
		if base, ok := strings.CutSuffix(p, "/..."); ok {
			if base == "." || dir == base || strings.HasPrefix(dir, base+"/") {
				return true
			}
		} else if dir == p {
			return true
		}
	}
	return false
}

func TestSmokePatternMismatch(t *testing.T) {
	const makefile = `smoke:
	$(GO) test -run='TestA|TestNope' -count=1 ./internal/a ./internal/b
	$(GO) test -bench='Solve|TestA' -benchtime=1x -run='^$$' ./internal/...
	$(GO) test -fuzz=FuzzA -fuzztime=$(FUZZTIME) -run='^$$' ./internal/a`
	pats, err := smokePatterns(makefile)
	if err != nil {
		t.Fatal(err)
	}
	want := []smokePattern{
		{"run", "TestA", []string{"./internal/a", "./internal/b"}},
		{"run", "TestNope", []string{"./internal/a", "./internal/b"}},
		{"bench", "Solve", []string{"./internal/..."}},
		{"bench", "TestA", []string{"./internal/..."}},
	}
	if !reflect.DeepEqual(pats, want) {
		t.Fatalf("parsed %v, want %v", pats, want)
	}
	declared := []string{"./internal/b:TestAlpha", "./internal/a/sub:BenchmarkSolveDense", "./internal/c:TestNope"}
	got := smokePatternMismatch(pats, declared)
	wantMsgs := []string{
		"-run=TestNope matches nothing declared in ./internal/a ./internal/b",
		"-bench=TestA matches nothing declared in ./internal/...",
	}
	if !reflect.DeepEqual(got, wantMsgs) {
		t.Errorf("mismatch %q, want %q", got, wantMsgs)
	}
	if _, err := smokePatterns("\tgo test -run='TestA' -count=1\n"); err == nil {
		t.Error("a -run= line without a package directory was accepted")
	}
}
