package rotaryclk

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportsAllowed lists the exported functions and methods under
// internal/ that no non-test file names but that stay, each with its reason.
// An entry the check would not flag fails the test, so the list cannot grow
// stale. The test verifier (*mcmf.Graph).Capacity needs no entry: the field
// assign.Problem.Capacity shares its name.
var testOnlyExportsAllowed = map[string]string{
	"internal/exp.Fig1bPhases":            "reproduces the paper's Fig. 1(b); BenchmarkFig1bPhases runs it",
	"internal/assign.NearestOnly":         "assigner ablation arm of the root benchmarks",
	"internal/clocktree.ZSTotalWL":        "zero-skew tree arm of the root benchmarks",
	"internal/power.Params.SignalSteiner": "Steiner signal-power arm of the root benchmarks",
	"internal/skew.Feasible":              "cross-package test verifier of skew schedules",
	"internal/lp.Problem.Feasible":        "cross-package test verifier of LP solutions",
	"internal/faultinject.Enable":         "fault-injection test API",
	"internal/faultinject.Enabled":        "fault-injection test API",
	"internal/faultinject.Calls":          "fault-injection test API",
	"internal/faultinject.Firings":        "fault-injection test API",
	"internal/faultinject.Sites":          "fault-injection test API",
	"internal/core.StageError.Unwrap":     "errors.Is and errors.As call it",
	"internal/serve.Server.ServeHTTP":     "net/http calls it through http.Handler",
	"internal/serve.cache.Len":            "test view of the daemon's result-cache size",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// under internal/ has a name that no non-test .go file in the repository
// uses, benchmark/ included. Code that only tests reach is deleted, not kept
// in case; a test that needs a helper keeps it in a _test.go file.
//
// The check is by name: a declaration counts as used when any other
// identifier with its name appears in a non-test file (a field, a local, or
// a method of another type named alike). A use inside the declaration's own
// body, such as a recursive call, does not count. The check therefore sets
// a floor: it catches an export nothing names, and does not prove that every
// remaining function has a production caller.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key  string // package dir, receiver type, name
		name string
		pos  token.Position
	}
	var decls []decl
	uses := map[string]int{}     // name -> uses in non-test files
	selfUses := map[string]int{} // declaration key -> uses of its name in its own body
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, top := range f.Decls {
			fd, _ := top.(*ast.FuncDecl)
			key := ""
			if fd != nil {
				key = dir + "." + fd.Name.Name
				if recv := recvType(fd); recv != "" {
					key = dir + "." + recv + "." + fd.Name.Name
				}
				if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
					decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos())})
				}
			}
			ast.Inspect(top, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || (fd != nil && id == fd.Name) {
					return true
				}
				uses[id.Name]++
				if fd != nil && id.Name == fd.Name.Name {
					selfUses[key]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}

	flagged := map[string]bool{}
	var unused []string
	for _, d := range decls {
		if uses[d.name] > selfUses[d.key] {
			continue
		}
		flagged[d.key] = true
		if _, ok := testOnlyExportsAllowed[d.key]; !ok {
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it or move it into a _test.go file", u)
	}
	for key := range testOnlyExportsAllowed {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is not an exported function that only tests name; drop it", key)
		}
	}
}

// recvType returns the receiver's type name of a method, without pointer or
// type parameters, and "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
