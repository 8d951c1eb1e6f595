package seatwin_bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions the reachability gate lets stand
// without a non-test caller, each with its reason: paper baselines, and
// test oracles that another package's tests call. Keys are the module
// path-relative package, then the receiver type for a method, then the
// name. A seam that only its own package's tests call belongs in a
// _test.go file, not here.
var reachAllowlist = map[string]string{
	"internal/vtff.DirectARForecast":   "the §5.1 paper baseline the VTFF experiment compares against; bench_test.go and the vtff tests run it",
	"internal/nn.SeqRegressor.Predict": "the interpreted reference forward pass: the parity oracle the nn and svrf tests hold the compiled path to",
	"internal/geo.CrossTrack":          "great-circle oracle the lvrf tests check the route fallback against",
}

// TestEveryFunctionHasACaller is the reachability gate. It type-checks
// the module and the bench/ harness module from source and fails on any
// function or method declared in a non-test file under cmd/, internal/
// or examples/ that no non-test code references. main and init are
// exempt, and so is a method that implements an interface declaring
// it, since an interface call does not name the concrete method.
func TestEveryFunctionHasACaller(t *testing.T) {
	pkgs := listPackages(t, ".")
	pkgs = append(pkgs, listPackages(t, "bench")...)

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	var (
		infos      []*types.Info
		interfaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		decls      []reachDecl
	)
	for _, p := range pkgs {
		if checked[p.ImportPath] != nil {
			continue // seatwin packages appear in both lists
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		var info *types.Info
		if !p.Standard {
			info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			infos = append(infos, info)
		}
		var firstErr error
		conf := types.Config{
			Importer:         reachImporter{checked, p.ImportMap},
			IgnoreFuncBodies: p.Standard,
			Sizes:            types.SizesFor("gc", runtime.GOARCH),
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		pkg, _ := conf.Check(p.ImportPath, fset, files, info)
		if firstErr != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, firstErr)
		}
		checked[p.ImportPath] = pkg
		interfaces = appendInterfaces(interfaces, pkg.Scope(), info)
		if rel, ok := scannedDir(p); ok {
			decls = appendDecls(decls, fset, files, info, rel)
		}
	}

	used := map[*types.Func]bool{}
	declOf := map[*types.Func]*reachDecl{}
	for i := range decls {
		declOf[decls[i].fn] = &decls[i]
	}
	use := func(at token.Pos, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if d := declOf[fn]; d != nil && at >= d.pos && at < d.end {
			return // recursion is not a caller
		}
		used[fn] = true
	}
	for _, info := range infos {
		for id, obj := range info.Uses {
			use(id.Pos(), obj)
		}
		for sel, s := range info.Selections {
			use(sel.Sel.Pos(), s.Obj())
		}
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if used[d.fn] || implementsDeclaring(d.fn, interfaces) {
			if _, ok := reachAllowlist[d.key]; ok {
				t.Errorf("%s is allowlisted but has a caller: remove its entry", d.key)
			}
			continue
		}
		if _, ok := reachAllowlist[d.key]; ok {
			continue
		}
		pos := fset.Position(d.pos)
		unused = append(unused, fmt.Sprintf("%s:%d: %s (%d lines)", pos.Filename, pos.Line, d.key, d.lines))
	}
	for key := range reachAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no declaration: remove it", key)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d functions have no non-test caller; delete them, move a same-package test seam into a _test.go file, or allowlist a paper baseline with its reason:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// reachPackage is the part of `go list -json` output the gate reads.
type reachPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// listPackages runs `go list -deps -json ./...` in dir. The output is in
// dependency order, so each package can be checked after its imports.
// cgo is off so that no package needs its C half to type-check.
func listPackages(t *testing.T, dir string) []reachPackage {
	t.Helper()
	cmd := exec.Command(goTool(), "list", "-e", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []reachPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p reachPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		// The module root holds only test files; it has nothing to check.
		if len(p.GoFiles) == 0 && p.Error != nil && p.ImportPath == "seatwin" {
			continue
		}
		pkgs = append(pkgs, p)
	}
}

func goTool() string {
	if p := filepath.Join(runtime.GOROOT(), "bin", "go"); fileExists(p) {
		return p
	}
	return "go"
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// reachImporter resolves imports to packages already checked, through
// the importing package's vendor map.
type reachImporter struct {
	checked   map[string]*types.Package
	importMap map[string]string
}

func (r reachImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := r.importMap[path]; ok {
		path = mapped
	}
	if pkg := r.checked[path]; pkg != nil {
		return pkg, nil
	}
	return nil, fmt.Errorf("%s not checked before its importer", path)
}

// scannedDir reports the module-relative directory of a seatwin package
// whose functions the gate checks: those under cmd/, internal/ and
// examples/.
func scannedDir(p reachPackage) (string, bool) {
	rel, ok := strings.CutPrefix(p.ImportPath, "seatwin/")
	if !ok {
		return "", false
	}
	for _, root := range []string{"cmd/", "internal/", "examples/"} {
		if strings.HasPrefix(rel, root) {
			return rel, true
		}
	}
	return "", false
}

// reachDecl is one function or method the gate checks.
type reachDecl struct {
	fn       *types.Func
	key      string
	pos, end token.Pos
	lines    int
}

func appendDecls(decls []reachDecl, fset *token.FileSet, files []*ast.File, info *types.Info, rel string) []reachDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			key := rel + "." + fd.Name.Name
			if recv := receiverNamed(fn); recv != nil {
				key = rel + "." + recv.Obj().Name() + "." + fd.Name.Name
			}
			decls = append(decls, reachDecl{
				fn:    fn,
				key:   key,
				pos:   fd.Pos(),
				end:   fd.End(),
				lines: fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1,
			})
		}
	}
	return decls
}

func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// appendInterfaces collects the interfaces that declare at least one
// method: those named at package level in scope and, where info is
// recorded, every interface type the package's code spells out, such as
// an optional-capability check `x.(interface{ M() })`.
func appendInterfaces(ifaces []*types.Interface, scope *types.Scope, info *types.Info) []*types.Interface {
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			add(tn.Type())
		}
	}
	if info != nil {
		for expr, tv := range info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return ifaces
}

// implementsDeclaring reports whether fn is a method whose receiver
// type implements an interface that declares a method of fn's name.
func implementsDeclaring(fn *types.Func, ifaces []*types.Interface) bool {
	named := receiverNamed(fn)
	if named == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}
