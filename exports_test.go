package rotaryclk

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed lists what the guard below flags but the repository
// keeps, each with its reason: exported functions and methods under
// internal/ that no non-test code uses, and exported option fields that no
// non-test code outside their own package sets. An entry the check would not
// flag fails the test, so the list cannot grow stale.
var testOnlyExportsAllowed = map[string]string{
	"internal/exp.Fig1bPhases":            "reproduces the paper's Fig. 1(b); BenchmarkFig1bPhases runs it",
	"internal/assign.NearestOnly":         "assigner ablation arm of the root benchmarks",
	"internal/assign.FirstFitDecreasing":  "assigner ablation arm of the root benchmarks",
	"internal/clocktree.ZSTotalWL":        "zero-skew tree arm of the root benchmarks",
	"internal/clocktree.TotalWL":          "unbalanced pairing-tree arm of the root zero-skew benchmark",
	"internal/power.Params.SignalSteiner": "Steiner signal-power arm of the root benchmarks",
	"internal/skew.Feasible":              "cross-package test verifier of skew schedules",
	"internal/lp.Problem.Feasible":        "cross-package test verifier of LP solutions",
	"internal/mcmf.Graph.Capacity":        "cross-package test verifier of flow capacities",
	"internal/congestion.Map.Stats":       "the facade exports CongestionMap and its CongestionStats result type; Stats is how a caller gets one",
	"internal/faultinject.Enable":         "fault-injection test API",
	"internal/faultinject.Enabled":        "fault-injection test API",
	"internal/faultinject.Calls":          "fault-injection test API",
	"internal/faultinject.Firings":        "fault-injection test API",
	"internal/faultinject.Sites":          "fault-injection test API",

	"internal/core.Config.Params":       "the facade's technology calibration (rotary ring constants)",
	"internal/core.Config.TModel":       "the facade's technology calibration (timing model)",
	"internal/core.Config.PowerPar":     "the facade's technology calibration (power model)",
	"internal/bench.ECOOptions.Cells":   "size of the make eco smoke run",
	"internal/bench.ECOOptions.Edits":   "size of the make eco smoke run",
	"internal/localtree.Options.Radius": "BenchmarkAblationLocalTreeRadius sweeps it",
	"internal/placer.System.SolveQP":    "the oracle's place arm solves this exact system against its dense Gaussian reference and shrinks through the campaign; moving that arm would duplicate the shrink and repro machinery in placer",
}

// TestNoTestOnlyExports type-checks every non-test package of the
// repository from source, benchmark/ included, and fails in two cases:
//
//   - an exported function or method declared under internal/ has no use
//     in non-test code. Uses are matched by object, not by name, so a
//     method is not kept alive by a field or another method that shares
//     its name; a use inside the declaration's own body (recursion) does
//     not count, and a method that satisfies an interface the standard
//     library calls (error, fmt.Stringer, http.Handler, the Unwrap of
//     errors.Is) counts as used when its type implements that interface.
//   - an exported field of an exported struct type named *Options or
//     *Config under internal/ is set by no non-test code outside its own
//     package. A field is set by a composite-literal key, an assignment or
//     increment, or by taking its address (flag.IntVar(&cfg.X, ...)); go
//     vet already rejects unkeyed literals of another package's structs.
//
// No interface under internal/ has methods today; a method reached only
// through one would need an allowlist entry.
//
// Code that only tests reach is deleted, not kept in case; a knob no
// caller turns is a constant. A test that needs a helper or a tuning value
// reaches unexported code in its own package.
func TestNoTestOnlyExports(t *testing.T) {
	g, err := checkRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.funcs) == 0 || len(g.fields) == 0 {
		t.Fatalf("found %d exported functions and %d option fields under internal/", len(g.funcs), len(g.fields))
	}
	flagged := map[string]bool{}
	var bad []string
	for _, f := range g.funcs {
		if g.used[f] || g.runtimeCalled(f) {
			continue
		}
		key := g.key(f)
		flagged[key] = true
		if _, ok := testOnlyExportsAllowed[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s has no caller outside tests: delete it or move it into a _test.go file", g.fset.Position(f.Pos()), key))
		}
	}
	for _, v := range g.fields {
		if g.set[v] {
			continue
		}
		key := g.key(v)
		flagged[key] = true
		if _, ok := testOnlyExportsAllowed[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s is set by no caller outside its package: make it a constant or an unexported field", g.fset.Position(v.Pos()), key))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for key, reason := range testOnlyExportsAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !flagged[key] {
			t.Errorf("allowlist entry %s is neither a test-only export nor an option field no caller sets; drop it", key)
		}
	}
}

// repoGraph is the type-checked non-test code of the repository.
type repoGraph struct {
	fset   *token.FileSet
	module string               // module path of the root
	funcs  []*types.Func        // exported functions and methods under internal/
	fields []*types.Var         // exported fields of exported *Options/*Config structs under internal/
	used   map[*types.Func]bool // funcs with a non-test use outside their own body
	set    map[*types.Var]bool  // fields set outside their package
	ifaces []*types.Interface   // interfaces the standard library calls methods through
}

// checkRepo type-checks every package under root whose directory holds
// non-test .go files; imports of the module come from source and the
// standard library from export data.
func checkRepo(root string) (*repoGraph, error) {
	const module = "rotaryclk"
	dirs := map[string][]string{} // import path -> non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = append(dirs[ip], path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := &repoGraph{fset: token.NewFileSet(), module: module, used: map[*types.Func]bool{}, set: map[*types.Var]bool{}}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &srcImporter{fset: g.fset, std: importer.Default(), dirs: dirs, info: info,
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}}
	files := imp.files
	paths := make([]string, 0, len(dirs))
	for ip := range dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}
	if err := g.collectIfaces(imp); err != nil {
		return nil, err
	}

	// Declarations: exported funcs and methods, and option fields, under internal/.
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := info.Defs[d.Name].(*types.Func); ok && d.Name.IsExported() {
						g.funcs = append(g.funcs, fn)
						bodies[fn] = d.Body
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
							continue
						}
						st, ok := info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						if !ok {
							continue
						}
						for i := 0; i < st.NumFields(); i++ {
							if v := st.Field(i); v.Exported() {
								g.fields = append(g.fields, v)
							}
						}
					}
				}
			}
		}
	}

	// Uses and sets, from every non-test file.
	for _, ip := range paths {
		for _, f := range files[ip] {
			g.scanFile(ip, f, info, bodies)
		}
	}
	return g, nil
}

// scanFile records the function uses and the field sets of file f of
// package filePkg.
func (g *repoGraph) scanFile(filePkg string, f *ast.File, info *types.Info, bodies map[*types.Func]*ast.BlockStmt) {
	setField := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != filePkg {
			g.set[v.Origin()] = true
		}
	}
	setSelected := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			setField(sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[x].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if b := bodies[fn]; b != nil && b.Pos() <= x.Pos() && x.End() <= b.End() {
				return true // recursion
			}
			g.used[fn] = true
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				setField(id)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				setSelected(lhs)
			}
		case *ast.IncDecStmt:
			setSelected(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				setSelected(x.X)
			}
		}
		return true
	})
}

// collectIfaces builds the interfaces through which the standard library
// calls methods the repository declares.
func (g *repoGraph) collectIfaces(imp types.Importer) error {
	lookup := func(path, name string) (*types.Interface, error) {
		pkg, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		return pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface), nil
	}
	stringer, err := lookup("fmt", "Stringer")
	if err != nil {
		return err
	}
	handler, err := lookup("net/http", "Handler")
	if err != nil {
		return err
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	unwrapper := types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()
	g.ifaces = []*types.Interface{errType.Underlying().(*types.Interface), stringer, handler, unwrapper}
	return nil
}

// runtimeCalled reports whether method fn is reached through one of the
// standard library's interfaces its receiver type implements.
func (g *repoGraph) runtimeCalled(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range g.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// key names obj as "internal/pkg.Name", "internal/pkg.Type.Method" or
// "internal/pkg.Struct.Field".
func (g *repoGraph) key(obj types.Object) string {
	dir := strings.TrimPrefix(obj.Pkg().Path(), g.module+"/")
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return dir + "." + typeName(recv.Type()) + "." + o.Name()
		}
	case *types.Var:
		if owner := g.fieldOwner(o); owner != "" {
			return dir + "." + owner + "." + o.Name()
		}
	}
	return dir + "." + obj.Name()
}

// fieldOwner returns the name of the package-level struct type declaring v.
func (g *repoGraph) fieldOwner(v *types.Var) string {
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return name
				}
			}
		}
	}
	return ""
}

// typeName returns the name of a receiver type without pointer or type
// arguments.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// srcImporter type-checks the repository's packages from source, once each,
// and imports everything else from the standard library's export data.
type srcImporter struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string][]string       // import path -> non-test files
	info  *types.Info               // shared by every package checked
	pkgs  map[string]*types.Package // checked packages by import path
	files map[string][]*ast.File    // their parsed files
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if pkg := im.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	paths, ok := im.dirs[path]
	if !ok {
		return im.std.Import(path)
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(im.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	im.files[path] = files
	return pkg, nil
}
