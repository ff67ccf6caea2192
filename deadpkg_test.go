package darksim

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
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

// keptDecls are the internal/ declarations, methods and fields that no
// non-test code uses but that stay on purpose. Each maps to a test that
// uses it as an oracle ("./<package dir>:<TestName>"): a reference the
// test checks code other than its own type against, or a writer whose
// deletion would mean re-implementing it in another package's tests. The
// guard fails when the named test no longer exists.
var keptDecls = map[string]string{
	// Dense LU with partial pivoting: the reference the envelope
	// Cholesky and the thermal solves are checked against, with the
	// dense form of the CSR conductances as its input.
	"linalg.NewLU":     "./internal/thermal:TestEnvelopeMatchesLUOracle",
	"linalg.LU.Solve":  "./internal/thermal:TestEnvelopeMatchesLUOracle",
	"linalg.CSR.Dense": "./internal/thermal:TestEnvelopeMatchesLUOracle",
	// Residual and symmetry checks of the envelope solves and of the
	// thermal model's matrices.
	"linalg.CSR.MulVec":         "./internal/linalg:TestEnvelopeCholeskyExactOnTridiagonal",
	"linalg.Vector.NormInf":     "./internal/linalg:TestCholeskyResidualProperty",
	"linalg.CSR.IsSymmetric":    "./internal/thermal:TestConductanceMatrixSymmetric",
	"linalg.Matrix.IsSymmetric": "./internal/thermal:TestInfluenceMatrix",
	// The factor size ProfileOrder's ordering is judged by.
	"linalg.EnvelopeCholesky.Profile": "./internal/linalg:TestSparsePreconditionedMatchesDenseCholesky",
	// The area mcpat's sub-core expansion must preserve.
	"floorplan.Floorplan.TotalAreaMM2": "./internal/mcpat:TestExpandFloorplan",
	// HotSpot file writers: the CLI's thermal tests (cmd/darksim) and
	// the hotspot round-trip tests write their input files with them.
	"hotspot.WriteConfig": "./cmd/darksim:TestThermalSteadyState",
	"hotspot.WritePTrace": "./cmd/darksim:TestThermalSteadyState",
	// The zero StepMode: code gets it by default, tests name it to pin
	// the exact path StepAuto must match.
	"sim.StepExact": "./internal/sim:TestStepAutoDegradesBitIdentical",
	// The paper's literal Eq.(2) factor k = 3.7 at 22 nm, which the
	// derived Spec.K is checked against.
	"tech.BaselineK": "./internal/tech:TestSpecNominalPoints",
}

// TestNoUnreferencedDecls is the dead-code guard. It type-checks every
// non-test package under cmd/, examples/, internal/ and perfbench/ and
// fails, naming each, on anything under internal/ that only tests use:
//   - a package-level func, type, var or const that no other non-test
//     declaration references (a method belongs to its receiver type, so
//     a type used only by its own methods is unreferenced);
//   - a method that non-test code neither calls nor takes as a method
//     value or expression, and that implements no interface method
//     non-test code calls or that a standard-library interface declares
//     (error, fmt.Stringer, http.Handler, ...);
//   - a field of a package-level struct type that non-test code never
//     names, where a positional composite literal names every field;
//   - a field of a struct type named *Options that no keyed composite
//     literal in non-test code sets (assignments are default fills, not
//     settings).
//
// A keptDecls entry that is no longer reported, or whose oracle test is
// gone, fails too. It runs offline: the standard library comes from the
// export data `go list -export` reports.
func TestNoUnreferencedDecls(t *testing.T) {
	dirs := []string{"cmd", "examples", "internal", "perfbench"}
	dead, err := unreferencedDecls(".", "darksim", dirs)
	if err != nil {
		t.Fatal(err)
	}
	testList, err := testDecls(".", isTestFunc)
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	for _, name := range testList {
		tests[name] = true
	}
	found := map[string]bool{}
	for _, d := range dead {
		found[d.name] = true
		if _, ok := keptDecls[d.name]; !ok {
			t.Errorf("%s %s: %s (delete it or use it)", d.kind, d.name, deadWhy[d.kind])
		}
	}
	for name, test := range keptDecls {
		if !found[name] {
			t.Errorf("keptDecls entry %s is stale: it is gone or non-test code uses it now", name)
		}
		if !tests[test] {
			t.Errorf("keptDecls entry %s names %s, which is no test function", name, test)
		}
	}
}

// deadWhy says, per kind of finding, what non-test code fails to do.
var deadWhy = map[string]string{
	"decl":   "referenced by no non-test code",
	"method": "called by no non-test code, directly or through an interface",
	"field":  "referenced by no non-test code",
	"option": "set by no keyed composite literal in non-test code",
}

// isTestFunc reports whether fn is a Test function.
func isTestFunc(fn *ast.FuncDecl) bool {
	return fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test")
}

// A deadDecl is one finding: kind is "decl", "method", "field" or
// "option", and name is the package path below internal/ followed by
// the identifier ("linalg.NewLU") or by the type and its member
// ("linalg.Matrix.Add").
type deadDecl struct{ kind, name string }

// A srcPkg is one package of the scanned tree, type-checked from its
// non-test files.
type srcPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadTree parses every non-test .go file under dirs of the module
// rooted at root (module path mod; a nested module is assumed to sit at
// mod + "/" + its directory) and type-checks each package, importing
// the others from source and the standard library from the export data
// `go list -export` reports. extra, if set, is one more source file
// type-checked as its own package after the tree.
func loadTree(root, mod string, dirs []string, extra string) ([]*srcPkg, error) {
	fset := token.NewFileSet()
	byPath := map[string]*srcPkg{}
	var pkgs []*srcPkg
	add := func(path string, f *ast.File) {
		p := byPath[path]
		if p == nil {
			p = &srcPkg{path: path}
			byPath[path] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, f)
	}
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
			add(path.Join(mod, filepath.ToSlash(rel)), f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if extra != "" {
		f, err := parser.ParseFile(fset, "extra.go", extra, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		add(mod+"/.extra", f)
	}

	std := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return nil, err
				}
				if byPath[ip] == nil {
					std[ip] = true
				}
			}
		}
	}
	exports, err := exportData(std)
	if err != nil {
		return nil, err
	}
	im := &treeImporter{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok || file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
		src:  byPath,
		fset: fset,
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// exportData maps each of the standard-library packages in paths, and
// each package they depend on, to its export data file.
func exportData(paths map[string]bool) (map[string]string, error) {
	files := map[string]string{}
	if len(paths) == 0 {
		return files, nil
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		files[path] = file
	}
	return files, nil
}

// treeImporter type-checks the scanned tree's packages from source on
// first import and reads every other package from export data.
type treeImporter struct {
	std  types.Importer
	src  map[string]*srcPkg
	fset *token.FileSet
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	p, ok := im.src[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// implicitInterfaces declares the interfaces the standard library
// checks for without naming them: errors.Is, errors.As and errors.Unwrap
// look for the first four, http.ResponseController for the last.
const implicitInterfaces = `package implicit

import "net/http"

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
	rwUnwrapper    interface{ Unwrap() http.ResponseWriter }
)
`

// unreferencedDecls type-checks the tree (see loadTree) and returns,
// sorted by name, what under internal/ only tests use (see
// TestNoUnreferencedDecls for the rules).
func unreferencedDecls(root, mod string, dirs []string) ([]deadDecl, error) {
	pkgs, err := loadTree(root, mod, dirs, implicitInterfaces)
	if err != nil {
		return nil, err
	}
	implicit := pkgs[len(pkgs)-1]
	pkgs = pkgs[:len(pkgs)-1]

	used := map[types.Object]bool{} // used by non-test code outside its own declaration
	set := map[types.Object]bool{}  // a field some composite literal sets
	// The interfaces a method can be reached through: those whose
	// methods non-test code uses, every interface the standard library
	// declares, and the ones it checks for without naming them.
	ifaces := map[*types.Interface]bool{}
	useEmbedded := func(recv types.Type, index []int) {
		for _, i := range index[:len(index)-1] {
			if ptr, ok := recv.Underlying().(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			st, ok := recv.Underlying().(*types.Struct)
			if !ok {
				return // the rest of the path runs through an interface
			}
			f := st.Field(i).Origin()
			used[f] = true
			recv = f.Type()
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, unit := range declUnits(f) {
				self := ownObjects(unit, p.info)
				ast.Inspect(unit, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						obj := origin(p.info.Uses[x])
						if obj == nil || self[obj] {
							break
						}
						used[obj] = true
						if fn, ok := obj.(*types.Func); ok {
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
								ifaces[recv.Type().Underlying().(*types.Interface)] = true
							}
						}
					case *ast.SelectorExpr:
						if sel, ok := p.info.Selections[x]; ok {
							useEmbedded(sel.Recv(), sel.Index())
						}
					case *ast.CompositeLit:
						st := structOf(p.info.TypeOf(x))
						for i, elt := range x.Elts {
							if st == nil {
								break
							}
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									set[origin(p.info.Uses[id])] = true
								}
								continue
							}
							field := st.Field(i).Origin()
							used[field] = true
							set[field] = true
						}
					}
					return true
				})
			}
		}
	}

	seen := map[*types.Package]bool{}
	var stdIfaces func(pkg *types.Package)
	stdIfaces = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			stdIfaces(imp)
		}
		if strings.HasPrefix(pkg.Path()+"/", mod+"/") {
			return
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
						ifaces[it] = true
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		stdIfaces(p.pkg)
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, name := range implicit.pkg.Scope().Names() {
		ifaces[implicit.pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)] = true
	}
	ifaceNames := map[string]bool{}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			ifaceNames[it.Method(i).Name()] = true
		}
	}
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if named.TypeParams().Len() > 0 {
				// A generic type implements nothing until instantiated:
				// count its methods by name.
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); ifaceNames[m.Name()] {
						used[m] = true
					}
				}
				continue
			}
			ptr := types.NewPointer(named)
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, index, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
						useEmbedded(ptr, index)
					}
				}
			}
		}
	}

	internal := mod + "/internal/"
	var dead []deadDecl
	report := func(kind string, obj types.Object, name string) {
		dead = append(dead, deadDecl{kind, strings.TrimPrefix(obj.Pkg().Path(), internal) + "." + name})
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path+"/", internal) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] {
				// Its methods and fields go with it.
				report("decl", obj, name)
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !used[m] {
						report("method", m, name+"."+m.Name())
					}
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case f.Name() == "_":
				case !used[f]:
					report("field", f, name+"."+f.Name())
				case strings.HasSuffix(name, "Options") && !set[f]:
					report("option", f, name+"."+f.Name())
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

// declUnits splits a file into its declaration units: each func or
// method, and each spec of a type, var, const or import group.
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				units = append(units, spec)
			}
		}
	}
	return units
}

// ownObjects returns the objects a declaration unit declares, whose uses
// inside it do not count: a func, a method and its receiver type, or the
// names of a type, var or const spec.
func ownObjects(unit ast.Node, info *types.Info) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := unit.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil {
			if id := receiverIdent(d.Recv.List[0].Type); id != nil {
				own[info.Uses[id]] = true
			}
		}
	case *ast.TypeSpec:
		own[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, n := range d.Names {
			own[info.Defs[n]] = true
		}
	}
	return own
}

// receiverIdent returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverIdent(expr ast.Expr) *ast.Ident {
	for {
		switch x := expr.(type) {
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.IndexListExpr:
			expr = x.X
		case *ast.ParenExpr:
			expr = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// origin maps a method or field of an instantiated generic type to the
// generic declaration's object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// structOf returns the struct a composite literal of type t builds, or
// nil if it builds no struct.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func TestUnreferencedDecls(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"darksim/internal/a"
	b2 "darksim/internal/b"
)

func main() {
	a.Used()
	_ = b2.Kind(0)
	fmt.Println(a.Err{}, a.Point{1, 2}, a.Options{Live: 1}.Read())
	var s a.Shape = a.Square{}
	get := a.T{}.MethodValue
	fmt.Println(s.Area(), get(), a.Outer{}.V)
}
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

func Used() { _ = b.Box[int]{}.Get() }

func Dead() { Dead() }

var _ = 0

func init() {}

// Err is live through the error interface.
type Err struct{}

func (Err) Error() string { return "err" }

// Point is only ever built positionally.
type Point struct{ X, Y int }

// Options has one setting product code makes and one only tests make.
type Options struct{ Live, TestSet int }

func (o Options) Read() int { return o.Live + o.TestSet }

// Shape's method is called through the interface.
type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

// T has a method taken as a value, one only tests call and a field
// nothing names.
type T struct{ never int }

func (T) MethodValue() int { return 0 }

func (T) TestOnly() int { return 0 }

// Outer reaches Inner's field by promotion.
type Inner struct{ V int }

type Outer struct{ Inner }
`,
		"internal/b/b.go": `package b

type Kind int

type Box[T any] struct{ v T }

func (x Box[T]) Get() T { return x.v }
`,
		"internal/a/a_test.go": `package a

func useInTest() { Dead(); _ = dead; _ = T{never: 1}.TestOnly(); _ = Options{TestSet: 1} }
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
	want := []deadDecl{
		{"decl", "a.Dead"},
		{"decl", "a.ErrWrapped"},
		{"option", "a.Options.TestSet"},
		{"method", "a.T.TestOnly"},
		{"field", "a.T.never"},
		{"decl", "a.dead"},
		{"decl", "a.onlyMethods"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unreferenced %v, want %v", got, want)
	}
	if _, err := unreferencedDecls(root, "darksim", []string{"missing"}); err == nil {
		t.Error("a missing directory was accepted")
	}
}
