package tierbase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// srcPackage is one package of the repository's non-test Go files,
// parsed and type-checked from source.
type srcPackage struct {
	path  string // import path
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

var (
	srcOnce sync.Once
	srcFset = token.NewFileSet()
	srcPkgs []srcPackage
	srcErr  error
)

// repoSources returns every package of the root module and of the
// benchmark/ module (cmd/ and examples/ included), non-test files only,
// each listed after the packages it imports. File names in srcFset are
// relative to the root. The lint tests share one load per test binary.
func repoSources(t *testing.T) (*token.FileSet, []srcPackage) {
	t.Helper()
	srcOnce.Do(func() { srcPkgs, srcErr = loadSources(srcFset) })
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcFset, srcPkgs
}

func loadSources(fset *token.FileSet) ([]srcPackage, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []srcPackage
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
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
				return nil, err
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
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			pkgs = append(pkgs, srcPackage{lp.ImportPath, files, info, pkg})
		}
	}
	return pkgs, nil
}

// structFields adds to fields each field of p's package-level struct types
// whose names end in one of suffixes, named pkg.Type.Field.
func structFields(p srcPackage, fields map[*types.Var]string, suffixes ...string) {
	for _, name := range p.pkg.Scope().Names() {
		tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !slices.ContainsFunc(suffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				fields[st.Field(i)] = p.pkg.Name() + "." + name + "." + st.Field(i).Name()
			}
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
