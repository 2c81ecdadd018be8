package tierbase

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"
)

// optionsAllowlist names fields of the configuration types that only tests
// set, and why they stay: each is a seam some test needs at another value
// than its default to reach a behaviour within seconds.
var optionsAllowlist = map[string]string{
	"engine.Options.Shards": "TestOneStripeReadersAndOverwriters and the engine's model tests put every key " +
		"in one stripe to race readers and writers on one lock; TestShardCountRounding checks the rounding",
	"engine.Options.Clock": "TestTTLExpiry and the other TTL tests move a fake clock past deadlines instead of sleeping",
	"cache.Options.FlushBatch": "TestWBBackpressure and TestWBOneBudgetBackpressure reach the dirty budget " +
		"(eight batches) in a few keys; TestWBAcksBeforeStorage and the other held write-back tests keep " +
		"the flusher from draining by batch",
	"cache.Options.FlushInterval": "TestWBAcksBeforeStorage and the other held write-back tests stop the " +
		"ticker (an hour) so FlushDirty is the only flush; the backpressure tests flush every millisecond",
	"cache.Options.DegradedProbeInterval": "TestStoragePolicyCoversEveryRoute and TestHoldFailedFillRunsNoOp " +
		"hold the probe (an hour) so a degraded route makes no storage call; TestDegradedModeServesCacheOnlyAndHeals " +
		"and TestChaosDiskErrors heal within tens of milliseconds",
	"lsm.Options.L0CompactionTrigger": "the compaction tests' loadUncompacted holds the compactor so a test " +
		"takes its rounds one at a time; stepOptions and TestConcurrentReadsDuringFlushAndCompaction compact every two flushes",
	"lsm.Options.BaseLevelBytes":  "TestWriteAmplificationCounts pins its counts at a 64 KiB L1; the level tests fill four levels with a few hundred KB",
	"lsm.Options.MaxLevels":       "TestWriteAmplificationCounts pins four levels; TestDBTombstonesDroppedAtBottom makes L1 the bottom",
	"lsm.Options.TargetFileBytes": "TestWriteAmplificationCounts pins its counts at 16 KiB outputs; the level tests cut tables of a few KB",
	"wal.Options.SyncEvery": "TestIntervalSyncCrashAcrossRotations and TestSyncIntervalPolicy see several fsync " +
		"ticks in milliseconds; TestIntervalRotateLeavesFsyncToTicker holds the ticker an hour",
	"wal.Options.MaxSegmentBytes": "TestSegmentRotation rotates 256 B segments within 50 appends, not 64 MiB ones",
}

// TestOptionsHaveShippingSetters fails on an exported field of a struct
// type named *Options, *Config or *Opts, in the root package or under
// internal/, that no non-test file of the root module or of benchmark/
// sets, unless optionsAllowlist names it. A set is a key of a composite
// literal of the type, the target of an assignment or IncDec, or a field
// whose address is taken (a flag bound to it). The packages are
// type-checked from source, so a write is matched to the field's object,
// not to its name. A function of the field's own package that writes the
// options it was handed (its receiver or a parameter, as fill, normalize
// and a stream generator's defaults do) is defaulting them and does not
// count as a setter. An allowlist entry for a field that is gone or has a
// shipping setter fails too.
func TestOptionsHaveShippingSetters(t *testing.T) {
	fset, pkgs := repoSources(t)
	fields := map[*types.Var]string{}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		if p.path == "tierbase" || strings.HasPrefix(p.path, "tierbase/internal/") {
			structFields(p, fields, "Options", "Config", "Opts")
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				markFieldSets(d, p, set)
			}
		}
	}
	var unset []string
	stale := maps.Clone(optionsAllowlist)
	for v, name := range fields {
		if !set[v] {
			delete(stale, name)
		}
		if v.Exported() && !set[v] && optionsAllowlist[name] == "" {
			unset = append(unset, name+" ("+fset.Position(v.Pos()).String()+")")
		}
	}
	for name := range stale {
		t.Errorf("optionsAllowlist names %s, which is gone or has a shipping setter; drop the entry", name)
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d configuration fields are set by nothing outside tests; delete them or make them constants, "+
			"or add them to optionsAllowlist with the test that needs them:\n\t%s", len(unset), strings.Join(unset, "\n\t"))
	}
}

// markFieldSets marks in set the struct fields declaration d of package p
// writes: composite literal keys (or positions), assignment and IncDec
// targets, and fields whose address is taken, less p's writes to its own
// fields through d's receiver or parameters.
func markFieldSets(d ast.Decl, p srcPackage, set map[*types.Var]bool) {
	handed := map[types.Object]bool{} // d's receiver and parameters
	if fn, ok := d.(*ast.FuncDecl); ok {
		for _, fl := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, name := range field.Names {
					handed[p.info.Defs[name]] = true
				}
			}
		}
	}
	mark := func(v *types.Var) {
		if v != nil && v.IsField() {
			set[v.Origin()] = true
		}
	}
	markSel := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := p.info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		if v := s.Obj().(*types.Var); v.Pkg() != p.pkg || !handed[p.info.Uses[rootIdent(sel)]] {
			mark(v)
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSel(lhs)
			}
		case *ast.IncDecStmt:
			markSel(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSel(n.X)
			}
		case *ast.CompositeLit:
			typ := p.info.Types[n].Type
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem() // an elided &T in a []*T literal
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						v, _ := p.info.Uses[id].(*types.Var)
						mark(v)
					}
				} else {
					mark(st.Field(i))
				}
			}
		}
		return true
	})
}

// rootIdent returns the variable a selector chain starts from (o in
// o.A.B), or nil when it starts from a call or an index.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
