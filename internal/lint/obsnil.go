package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsNil flags direct method calls on values whose static type is the
// obs.Recorder interface anywhere but internal/obs itself. The
// observability layer's zero-cost-when-disabled guarantee rests on one
// convention: instrumented code goes through the nil-guarded package
// helpers (obs.Count, obs.Gauge, obs.Observe, obs.Histogram, obs.SpanCtx),
// which compile to a single pointer test when no recorder is installed.
// A direct rec.Count(...) call panics on a nil interface and, worse,
// normalizes a second calling convention that silently skips the guard.
// Calls on concrete sink types (*obs.Collector, *obs.TraceWriter) are
// fine — those values are provably non-nil at the call site.
func ObsNil() *Analyzer {
	return &Analyzer{
		Name: "obsnil",
		Doc:  "direct obs.Recorder method calls outside internal/obs",
		Run:  runObsNil,
	}
}

// obsPkgPath is the package allowed to touch Recorder values directly:
// the helpers and sinks it defines are the guard.
const obsPkgPath = "internal/obs"

func runObsNil(p *Package) []Finding {
	if p.Path == obsPkgPath || strings.HasSuffix(p.Path, "/"+obsPkgPath) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := p.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			if !isObsRecorder(selection.Recv()) {
				return true
			}
			out = append(out, p.finding("obsnil", call.Pos(),
				"direct %s call on an obs.Recorder; use the nil-guarded obs.%s helper so a disabled recorder stays zero-cost",
				sel.Sel.Name, helperFor(sel.Sel.Name)))
			return true
		})
	}
	return out
}

// isObsRecorder reports whether t is the named interface
// multiclust/internal/obs.Recorder (aliases resolve to the same named type).
func isObsRecorder(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Recorder" {
		return false
	}
	path := obj.Pkg().Path()
	return path == obsPkgPath || strings.HasSuffix(path, "/"+obsPkgPath)
}

// helperFor names the package helper that wraps the given Recorder method.
func helperFor(method string) string {
	switch method {
	case "Count", "Gauge", "Observe", "Histogram":
		return method
	case "StartSpan":
		return "SpanCtx"
	default:
		return "Count/Gauge/Observe/Histogram/SpanCtx"
	}
}
