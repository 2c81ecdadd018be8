package tierbase

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods under internal/ and
// cmd/ that no non-test file of the repo references, and why they stay.
var exportAllowlist = map[string]string{
	// Called by the standard library through an interface, never by name.
	"String": "fmt.Stringer",
	"Error":  "error",
	"Unwrap": "errors.Unwrap",
	"Len":    "sort and container/heap",
	"Less":   "sort and container/heap",
	"Swap":   "sort and container/heap",
	"Push":   "container/heap",
	"Pop":    "container/heap",

	// Kept on purpose although only tests call them today.
	"NewCluster":    "internal/client: the server and e2e tests drive nodes through it",
	"Pipeline":      "internal/client: the server and e2e tests drive nodes through it",
	"NewMapStorage": "cache: the in-memory Storage tests stand a tier on",
	"TotalRPCs":     "cache.Remote: the RPC count its tests assert",
	"RetrainNeeded": "compress.Monitor: waits for the retrain trigger",
	"UnmatchedRate": "compress.Monitor: waits for the retrain trigger",
}

// TestExportsHaveShippingCallers fails on an exported function or method
// declared under internal/ or cmd/ whose name no non-test .go file in the
// repository (benchmark/ and examples/ included) mentions, unless
// exportAllowlist names it. Matching is by name only, so a test-only name
// that shares its spelling with a used one slips through, but a used name
// is never reported.
func TestExportsHaveShippingCallers(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset, pkgs := repoSources(t)
	for _, p := range pkgs {
		for _, f := range p.files {
			path := fset.Position(f.Pos()).Filename
			declared := map[*ast.Ident]bool{}
			// internal/faults is exempt: its seams exist for the chaos tests
			// to inject failures with.
			scanned := (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")) &&
				!strings.HasPrefix(path, "internal/faults/")
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name] = true
				if scanned && fn.Name.IsExported() {
					decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	var unused []string
	for _, d := range decls {
		if !used[d.name] && exportAllowlist[d.name] == "" {
			unused = append(unused, d.name+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names have no caller outside tests; delete them with their tests, "+
			"or add them to exportAllowlist with a reason:\n\t%s", len(unused), strings.Join(unused, "\n\t"))
	}
}
