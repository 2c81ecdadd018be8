package tierbase

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// statsAllowlist names fields of the Stats types under internal/ that only
// tests read, and why they stay.
var statsAllowlist = map[string]string{
	"cache.RPCStats.KeysMoved":    "cache.Remote: the write-back tests assert how many keys a flush carried",
	"lsm.Stats.TableCount":        "lsm: the flush and settle tests assert that tables were written",
	"lsm.Stats.SequenceNumber":    "lsm: the reopen and stats tests assert the sequence number",
	"workload.Stats.DistinctKeys": "workload: the stream tests assert how many keys a stream touches",
}

// TestStatsFieldsHaveReaders fails on a field of a struct type under
// internal/ whose name ends in Stats that no non-test file of the root
// module or of benchmark/ reads, unless statsAllowlist names it. A read is
// a field selector that is not the target of an assignment, an IncDec, or
// an atomic Add or Store. The packages are type-checked from source, so a
// field is matched by its object, not by its name.
func TestStatsFieldsHaveReaders(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	fields := map[*types.Var]string{} // each Stats field, as pkg.Type.Field
	read := map[*types.Var]bool{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		// -deps lists a package after everything it imports.
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var lp struct {
				ImportPath, Dir string
				GoFiles         []string
				Standard        bool
			}
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				path := filepath.Join(lp.Dir, name)
				if rel, err := filepath.Rel(wd, path); err == nil {
					path = rel
				}
				f, err := parser.ParseFile(fset, path, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			if strings.HasPrefix(lp.ImportPath, "tierbase/internal/") {
				for _, name := range pkg.Scope().Names() {
					tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
					if !ok || !strings.HasSuffix(name, "Stats") {
						continue
					}
					if st, ok := tn.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							fields[st.Field(i)] = pkg.Name() + "." + name + "." + st.Field(i).Name()
						}
					}
				}
			}
			for _, f := range files {
				markFieldReads(f, info, read)
			}
		}
	}
	var unread []string
	for v, name := range fields {
		if !read[v] && statsAllowlist[name] == "" {
			unread = append(unread, name+" ("+fset.Position(v.Pos()).String()+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d Stats fields are written but never read outside tests; delete them with their counters, "+
			"or add them to statsAllowlist with a reason:\n\t%s", len(unread), strings.Join(unread, "\n\t"))
	}
}

// markFieldReads marks in read the struct fields f reads: the objects of
// its field selectors, less those that an assignment, an IncDec or an
// atomic Add or Store writes.
func markFieldReads(f *ast.File, info *types.Info, read map[*types.Var]bool) {
	writes := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writes[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(n.X)] = true
		case *ast.CallExpr:
			fn, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(fn.Sel.Name, "Add") && !strings.HasPrefix(fn.Sel.Name, "Store") {
				break
			}
			if obj := info.Uses[fn.Sel]; obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				break
			}
			if info.Selections[fn] != nil {
				writes[ast.Unparen(fn.X)] = true // x.f.Add(n)
			} else if u, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
				writes[ast.Unparen(u.X)] = true // atomic.AddInt64(&x.f, n)
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !writes[sel] {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				read[s.Obj().(*types.Var)] = true
			}
		}
		return true
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
