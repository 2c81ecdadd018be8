package tierbase

import (
	"go/ast"
	"go/token"
	"go/types"
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
	fset, pkgs := repoSources(t)
	fields := map[*types.Var]string{} // each Stats field, as pkg.Type.Field
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		if strings.HasPrefix(p.path, "tierbase/internal/") {
			structFields(p, fields, "Stats")
		}
		for _, f := range p.files {
			markFieldReads(f, p.info, read)
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
