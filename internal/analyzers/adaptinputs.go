package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// AdaptInputs guards the online-retune determinism contract
// (DESIGN.md §13): every retune decision must be a pure function of
// the logged profile and the current plan, so a retune replays from
// its inputs alone. The decision functions it protects are
// tuner.retuneMoves, which ranks candidate plans from a measured
// profile, and exec.Trainer.Retune, which builds, preflights and
// adopts one. The determinism analyzer already bans these constructs
// across the whole deterministic core, but internal/tuner sits
// outside that core — it measures wall time on purpose — and there
// the line runs through individual functions: measurement may read
// the clock, decisions may not. This pass draws that line lexically:
// inside any function whose name says it adapts or retunes
// (retuneMoves, Retune, and any future adapt*/retune* decision), it
// forbids
//
//   - wall-clock reads (time.Now, time.Since, time.Until): a decision
//     keyed to elapsed time diverges across runs and machines;
//   - math/rand package-level state: interleaving-ordered and
//     unseedable per component;
//   - map iteration: Go randomizes range order per run, so any
//     decision folded over a ranged map is run-dependent.
//
// Scope: internal/exec and internal/tuner, where the retune decisions
// live.
var AdaptInputs = &Analyzer{
	Name: "adaptinputs",
	Doc: "forbid wall-clock reads, math/rand global state and map iteration " +
		"inside adaptation/retune decision functions (internal/{exec,tuner})",
	Run: runAdaptInputs,
}

// adaptScope lists the package path suffixes in scope; as in the
// determinism pass, exact base names match too so fixture packages
// load under their own name.
var adaptScope = []string{"internal/exec", "internal/tuner"}

func inAdaptScope(path string) bool {
	if path == "adaptinputs" { // fixture package
		return true
	}
	for _, s := range adaptScope {
		if strings.HasSuffix(path, s) {
			return true
		}
		if base := s[strings.LastIndex(s, "/")+1:]; path == base {
			return true
		}
	}
	return false
}

// adaptFuncRe matches the names of functions that take adaptation or
// retune decisions. Anything the retuner exports or calls for a
// decision is named to match; helpers that must stay exempt (profile
// measurement, stats accessors) must not be.
var adaptFuncRe = regexp.MustCompile(`(?i)(adapt|retune)`)

func runAdaptInputs(pass *Pass) error {
	if !inAdaptScope(pass.Pkg.Path()) {
		return nil
	}
	forEachFunc(pass.Files, func(fd *ast.FuncDecl) {
		if !adaptFuncRe.MatchString(fd.Name.Name) {
			return
		}
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for fn := range wallClockFuncs {
					if pkgFunc(pass.Info, n, "time", fn) {
						pass.Reportf(n.Pos(),
							"time.%s feeds adaptation decision %s; key decisions to the step counter, not wall time", fn, name)
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "math/rand" {
						if isRandGlobal(pass.Info, n) {
							pass.Reportf(n.Pos(),
								"math/rand global state (rand.%s) feeds adaptation decision %s; decisions must replay from logged inputs", n.Sel.Name, name)
						}
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"map iteration inside adaptation decision %s; range order is randomized per run — iterate a slice in fixed order", name)
					}
				}
			}
			return true
		})
	})
	return nil
}
