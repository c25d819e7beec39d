// Package closecheck enforces the Evaluator lifecycle convention:
// backends own goroutines and queued work, so every constructed
// evaluator must have a reachable Close, and Close's error — which
// reports jobs resolved with ErrClosed and per-backend shutdown
// failures — must not be silently dropped.
package closecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags discarded Evaluator.Close() results and evaluator
// constructions with no reachable Close.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc: "evaluators must be closed, and Close() errors must not be discarded\n\n" +
		"Flags (outside test files and *test harness packages):\n" +
		"  - ev.Close() or defer ev.Close() discarding the error when ev is an\n" +
		"    Evaluator-shaped value (has Run/Stream/Stats/Close). Assigning the\n" +
		"    error — even to _ — is an explicit, accepted acknowledgement.\n" +
		"  - an evaluator obtained from art9.New / engine.New* / remote.New* that\n" +
		"    is never closed and never escapes the constructing function.",
	Run: run,
}

// constructors maps package path to the constructor functions whose
// results demand a Close. Constructors whose results are returned,
// stored, or passed on transfer ownership and are not flagged.
var constructors = map[string]map[string]bool{
	"repro":                 {"New": true, "NewEngine": true},
	"repro/internal/engine": {"New": true, "NewBalancer": true, "NewAutoscaler": true},
	"repro/internal/remote": {"New": true, "NewBackendWith": true},
}

func run(pass *analysis.Pass) (any, error) {
	// Test harness packages (faulttest, scenariotest, linttest) and
	// _test.go files manage lifecycles through t.Cleanup-style helpers;
	// the convention targets production code.
	if strings.HasSuffix(pass.Pkg.Name(), "test") {
		return nil, nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.File(file.Pos()).Name(), "_test.go") {
			continue
		}
		checkFile(pass, file)
	}
	return nil, nil
}

// isEvaluator reports whether t's method set is Evaluator-shaped:
// Run, Stream, Stats and Close() error. Structural matching keeps the
// analyzer honest on any backend — including ones internal/lint has
// never seen — without importing the engine package.
func isEvaluator(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		if _, ok := t.Underlying().(*types.Interface); !ok {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	need := map[string]bool{"Run": false, "Stream": false, "Stats": false, "Close": false}
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if _, ok := need[m.Name()]; ok {
			need[m.Name()] = true
		}
		if m.Name() == "Close" {
			sig, ok := m.Type().(*types.Signature)
			if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				return false
			}
			named, ok := sig.Results().At(0).Type().(*types.Named)
			if !ok || named.Obj().Name() != "error" {
				return false
			}
		}
	}
	for _, have := range need {
		if !have {
			return false
		}
	}
	return true
}

// evaluatorClose reports whether call is ev.Close() on an
// Evaluator-shaped receiver.
func evaluatorClose(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && isEvaluator(tv.Type)
}

// constructorCall returns the qualified name of the evaluator
// constructor call, if call is one.
func constructorCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		obj = pass.TypesInfo.Defs[id]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	names := constructors[fn.Pkg().Path()]
	if names == nil || !names[fn.Name()] {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	// Part 1: discarded Close results. A bare expression statement,
	// defer, or go statement throws the error away.
	ast.Inspect(file, func(n ast.Node) bool {
		var call *ast.CallExpr
		verb := ""
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, verb = n.Call, "defer "
		case *ast.GoStmt:
			call, verb = n.Call, "go "
		default:
			return true
		}
		if call != nil && evaluatorClose(pass, call) {
			pass.Reportf(call.Pos(), "%sev.Close() discards the close error; handle it (assigning to _ is an explicit acknowledgement)", verb)
		}
		return true
	})

	// Part 2: constructed evaluators with no reachable Close.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checkFuncLeaks(pass, fd)
	}
}

// checkFuncLeaks flags evaluator constructions in fd whose results
// neither get closed nor escape the function. The ownership analysis is
// deliberately conservative: any use of the variable other than a
// method call on it — passing it along, returning it, storing it in a
// composite, capturing it in a closure — counts as an ownership
// transfer and suppresses the diagnostic.
func checkFuncLeaks(pass *analysis.Pass, fd *ast.FuncDecl) {
	type candidate struct {
		obj  types.Object
		name string // constructor, e.g. "engine.New"
		pos  ast.Node
	}
	var cands []candidate

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			// A constructor whose result is discarded outright leaks
			// unconditionally.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := constructorCall(pass, call); ok {
					pass.Reportf(call.Pos(), "result of %s is discarded; the evaluator is never closed", name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := constructorCall(pass, call)
			if !ok {
				return true
			}
			// The evaluator is whichever LHS ident is Evaluator-shaped
			// (multi-result constructors pair it with an error).
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isEvaluator(obj.Type()) {
					continue
				}
				cands = append(cands, candidate{obj: obj, name: name, pos: call})
			}
		}
		return true
	})

	if len(cands) == 0 {
		return
	}

	closed := make(map[types.Object]bool)
	escaped := make(map[types.Object]bool)
	tracked := make(map[types.Object]bool)
	for _, c := range cands {
		tracked[c.obj] = true
	}

	// Classify every use of each tracked variable by its ancestors.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && tracked[obj] {
				classifyUse(pass, id, stack, obj, closed, escaped)
			}
		}
		stack = append(stack, n)
		return true
	})

	for _, c := range cands {
		if !closed[c.obj] && !escaped[c.obj] {
			pass.Reportf(c.pos.Pos(), "evaluator from %s is never closed and never leaves %s; call Close (or defer a handled Close) on every path", c.name, fd.Name.Name)
		}
	}
}

// classifyUse decides whether one identifier use closes the evaluator
// or transfers its ownership. stack holds the ancestors, outermost
// first; the identifier's immediate parent is the last element.
func classifyUse(pass *analysis.Pass, id *ast.Ident, stack []ast.Node, obj types.Object, closed, escaped map[types.Object]bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.SelectorExpr:
			if parent.X != id {
				continue
			}
			// A method call on the evaluator: Close satisfies the
			// contract; Run/Stream/Stats are plain uses. A method
			// *value* (ev.Close passed elsewhere) escapes.
			if i+1 < len(stack) {
				continue // selector is not the outermost interesting node
			}
			if parent.Sel.Name == "Close" {
				closed[obj] = true
			}
			return
		case *ast.CallExpr:
			// id (or an expression containing it) in argument position
			// escapes; id as the receiver chain of Fun was handled by
			// the SelectorExpr case below it on the stack.
			if inExprs(parent.Args, id) {
				escaped[obj] = true
				return
			}
		case *ast.FuncLit:
			// Captured by a closure: whatever the closure does with it
			// (commonly the deferred handled Close) is out of scope for
			// a per-function analysis — treat as satisfied.
			closed[obj] = true
			return
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr, *ast.IndexExpr:
			escaped[obj] = true
			return
		case *ast.AssignStmt:
			// Re-assigned somewhere (field, map, another variable):
			// ownership moved.
			for _, rhs := range parent.Rhs {
				if containsIdent(rhs, id) {
					escaped[obj] = true
					return
				}
			}
			return
		case *ast.UnaryExpr, *ast.StarExpr, *ast.ParenExpr:
			continue
		}
	}
}

// inExprs reports whether id sits at any depth inside one of exprs.
func inExprs(exprs []ast.Expr, id *ast.Ident) bool {
	for _, e := range exprs {
		if containsIdent(e, id) {
			return true
		}
	}
	return false
}

func containsIdent(root ast.Expr, id *ast.Ident) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == id {
			found = true
		}
		return !found
	})
	return found
}
