package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the zero-allocation discipline on functions
// annotated //paramecium:hotpath: the invocation and data fast paths
// are gated at zero allocs/op by benchgate, and this analyzer flags
// the allocation sites statically — make, new, append that cannot
// reuse its destination, string concatenation, boxing a non-pointer
// value into an interface, function literals that outlive the
// statement (captured by defer is fine, anything else is not), and
// spawning goroutines.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//paramecium:hotpath functions must not allocate",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(pass *Pass) error {
	h := &hotpathAlloc{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			h.checkFunc(fn)
		}
	}
	return nil
}

type hotpathAlloc struct {
	pass        *Pass
	selfAppends map[*ast.CallExpr]bool
}

func (h *hotpathAlloc) checkFunc(fn *ast.FuncDecl) {
	deferLits := make(map[*ast.FuncLit]bool)
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				deferLits[fl] = true
			}
		case *ast.AssignStmt:
			// x = append(x, ...) reuses a retained backing array.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) || len(call.Args) == 0 {
					continue
				}
				dst := exprString(n.Lhs[i])
				if dst != "" && dst == exprString(call.Args[0]) {
					selfAppends[call] = true
				}
			}
		}
		return true
	})
	h.selfAppends = selfAppends
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			h.pass.Reportf(n.Pos(), "hot path spawns a goroutine (allocates a stack and schedules)")
		case *ast.FuncLit:
			if !deferLits[n] {
				h.pass.Reportf(n.Pos(), "hot path creates a function literal that may escape")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(h.pass.TypesInfo.TypeOf(n)) {
				h.pass.Reportf(n.Pos(), "hot path concatenates strings (allocates)")
			}
		case *ast.CompositeLit:
			t := h.pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					h.pass.Reportf(n.Pos(), "hot path builds a %s literal (allocates)", typeKind(t))
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					h.pass.Reportf(n.Pos(), "hot path takes the address of a composite literal (escapes to heap)")
				}
			}
		case *ast.CallExpr:
			h.checkCall(n)
		}
		return true
	})
}

func (h *hotpathAlloc) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := h.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				h.pass.Reportf(call.Pos(), "hot path calls make (allocates)")
				return
			case "new":
				h.pass.Reportf(call.Pos(), "hot path calls new (allocates)")
				return
			case "append":
				if !h.selfAppends[call] {
					h.pass.Reportf(call.Pos(), "hot path appends to a slice it does not reuse (may grow and allocate)")
				}
				return
			}
		}
	}
	// Interface boxing: passing a concrete non-pointer value where the
	// parameter is an interface forces a heap allocation on escape.
	sig, ok := calleeSignature(h.pass.TypesInfo, call)
	if !ok {
		return
	}
	if isExemptBoxer(h.pass.TypesInfo, call) {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := h.pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if at == types.Typ[types.UntypedNil] {
			continue
		}
		h.pass.Reportf(arg.Pos(), "hot path boxes a non-pointer %s into an interface argument (allocates on escape)", at.String())
	}
}

// exprString renders simple ident/selector chains for comparison.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// calleeSignature resolves a call's signature, skipping type
// conversions and builtins.
func calleeSignature(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// isExemptBoxer exempts error-path formatting calls (fmt.*, errors.*):
// they only run off the fast path, after the invariant is already
// broken, and flagging them would force unreadable error handling.
func isExemptBoxer(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkg.Imported().Path() {
	case "fmt", "errors":
		return true
	}
	return false
}
