package darksim

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
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

// keptDecls are the internal/ declarations that no non-test code
// references but that stay on purpose, each with the reason: a reference
// the tests check live code against, or a writer whose deletion would
// mean re-implementing it in another package's tests.
var keptDecls = map[string]bool{
	// Dense LU with partial pivoting: the reference the envelope
	// Cholesky (linalg) and the thermal solves (thermal) are checked
	// against.
	"linalg.NewLU": true,
	// HotSpot file writers: the hotspot round-trip tests and the CLI's
	// thermal tests (cmd/darksim) write their input files with them.
	"hotspot.WriteConfig": true,
	"hotspot.WritePTrace": true,
	// The zero StepMode: code gets it by default, tests name it to pin
	// the exact path StepAuto must match.
	"sim.StepExact": true,
	// The paper's literal Eq.(2) factor k = 3.7 at 22 nm, which the
	// derived Spec.K is checked against.
	"tech.BaselineK": true,
}

// TestNoUnreferencedDecls is the dead-declaration guard: every
// package-level func, type, var and const under internal/ must be
// referenced by some other non-test declaration in cmd/, examples/,
// internal/ or perfbench/. A declaration only tests use fails here, as
// does a keptDecls entry that is no longer unreferenced. It parses the
// sources with go/parser and resolves no types, so a name counts as
// referenced whenever an identifier spelling it appears in its package
// or a selector on its package's import spells it: the guard can miss
// dead code, but (dot imports aside) never flags live code.
func TestNoUnreferencedDecls(t *testing.T) {
	dead, err := unreferencedDecls(".", "darksim", []string{"cmd", "examples", "internal", "perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if !keptDecls[name] {
			t.Errorf("%s is referenced by no non-test code (delete it or use it)", name)
		}
	}
	for name := range keptDecls {
		if !found[name] {
			t.Errorf("keptDecls entry %s is stale: it is gone or non-test code references it now", name)
		}
	}
}

// unreferencedDecls parses every non-test .go file under dirs of the
// module rooted at root (module path mod; nested modules are assumed to
// sit at mod + "/" + their directory) and returns, sorted, the
// package-level declarations under internal/ that no other declaration
// references, each named by its package path below internal/ and its
// identifier ("linalg.NewLU"). A method belongs to its receiver type's
// declaration, so a type used only by its own methods is unreferenced.
func unreferencedDecls(root, mod string, dirs []string) ([]string, error) {
	type file struct {
		pkg string
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkg := path.Join(mod, filepath.ToSlash(rel))
			pkgName[pkg] = f.Name.Name
			files = append(files, file{pkg, f})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	internal := mod + "/internal/"
	declared := map[string]bool{}   // pkg.name of each checked declaration
	referenced := map[string]bool{} // pkg.name referenced from another declaration
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			name, ok := pkgName[p]
			if !ok {
				continue // outside the scanned tree: declares nothing checked
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		// A unit is one declaration: a func (a method counts as its
		// receiver type), or one spec of a type, var or const group.
		type unit struct {
			names   []string
			checked bool // a package-level func, type, var or const, not a method
			node    ast.Node
		}
		var units []unit
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					units = append(units, unit{[]string{receiverName(d.Recv.List[0].Type)}, false, d})
				} else {
					units = append(units, unit{[]string{d.Name.Name}, true, d})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						units = append(units, unit{[]string{s.Name.Name}, true, s})
					case *ast.ValueSpec:
						var names []string
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
						units = append(units, unit{names, true, s})
					}
				}
			}
		}
		for _, u := range units {
			self := map[string]bool{}
			for _, name := range u.names {
				self[f.pkg+"."+name] = true
				if u.checked && strings.HasPrefix(f.pkg+"/", internal) && name != "_" && name != "init" {
					declared[f.pkg+"."+name] = true
				}
			}
			ref := func(key string) {
				if !self[key] {
					referenced[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							ref(p + "." + x.Sel.Name)
						}
					}
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					ref(f.pkg + "." + x.Name)
				}
				return true
			}
			ast.Inspect(u.node, visit)
		}
	}

	var dead []string
	for key := range declared {
		if !referenced[key] {
			dead = append(dead, strings.TrimPrefix(key, internal))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// receiverName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(expr ast.Expr) string {
	for {
		switch x := expr.(type) {
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.IndexListExpr:
			expr = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func TestUnreferencedDecls(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"cmd/tool/main.go": `package main

import (
	"darksim/internal/a"
	b2 "darksim/internal/b"
)

func main() { a.Used(); _ = b2.Kind(0) }
`,
		"internal/a/a.go": `package a

import (
	"errors"
	"fmt"

	"darksim/internal/b"
)

const dead, live = 1, 2

var (
	errBase = errors.New("base")
	ErrWrapped = fmt.Errorf("wrapped: %w", errBase)
)

type onlyMethods struct{}

func (onlyMethods) m() int { return helper() + live }

func helper() int { return 0 }

func Used() { _ = b.Gen[int]() }

func Dead() { Dead() }

var _ = 0

func init() {}
`,
		"internal/b/b.go": `package b

type Kind int

func Gen[T any]() T { var z T; return z }
`,
		"internal/a/a_test.go": `package a

func useInTest() { Dead(); _ = dead }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreferencedDecls(root, "darksim", []string{"cmd", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Dead", "a.ErrWrapped", "a.dead", "a.onlyMethods"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unreferenced %v, want %v", got, want)
	}
	if _, err := unreferencedDecls(root, "darksim", []string{"missing"}); err == nil {
		t.Error("a missing directory was accepted")
	}
}
