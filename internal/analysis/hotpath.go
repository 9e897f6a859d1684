package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer statically guards the 0 allocs/op property of the
// module-tick spine. The CI benchmark gate samples that property at two
// points (BenchmarkModuleTickSatellite and its timeline variant); this
// analyzer enforces it structurally on every function annotated
// //air:hotpath: no allocation constructs (make, new, map/slice literals,
// address-taken composite literals, string concatenation, append growth),
// no closures, no fmt machinery, no interface boxing, and no calls that
// leave the hot-path set — a callee must itself be //air:hotpath (in this
// package or, via facts, in a dependency), a non-allocating builtin, or on
// the small allowlist of known allocation-free standard-library calls.
// Genuinely cold branches inside hot functions (first-seen state creation,
// failure paths) carry documented //air:allow suppressions, which is itself
// the point: every potential allocation on the spine is either impossible
// or annotated.
//
// Keys: alloc, closure, boxing, fmt, call.
var HotpathAnalyzer = &Analyzer{
	Name:        "airhotpath",
	Doc:         "functions marked //air:hotpath must be statically allocation-free and stay inside the hot-path call set",
	Run:         runHotpath,
	SyntaxFacts: hotpathSyntaxFacts,
}

// hotpathSyntaxFacts exports the package's //air:hotpath function keys.
func hotpathSyntaxFacts(pkgPath string, _ *token.FileSet, files []*ast.File) Facts {
	f := Facts{}
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && IsHotpath(fd) {
				if f.Hotpath == nil {
					f.Hotpath = map[string]bool{}
				}
				f.Hotpath[SyntaxFuncKey(pkgPath, fd)] = true
			}
		}
	}
	return f
}

// allowedStdlibPkgs may be called freely from hot paths: pure functions.
var allowedStdlibPkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"unicode/utf8": true,
}

// allowedStdlibFuncs are individually vetted allocation-free calls.
var allowedStdlibFuncs = map[string]bool{
	"strconv.AppendInt":    true,
	"sync.Mutex.Lock":      true,
	"sync.Mutex.Unlock":    true,
	"sync.Mutex.TryLock":   true,
	"sync.RWMutex.Lock":    true,
	"sync.RWMutex.Unlock":  true,
	"sync.RWMutex.RLock":   true,
	"sync.RWMutex.RUnlock": true,
}

func runHotpath(pass *Pass) {
	// Pass 1: the package's own hot set, by defining object.
	hotDecls := map[*ast.FuncDecl]bool{}
	hotObjs := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && IsHotpath(fd) {
				hotDecls[fd] = true
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					hotObjs[obj] = true
				}
			}
		}
	}
	if len(hotDecls) == 0 {
		return
	}
	// Pass 2: check each hot function body.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hotDecls[fd] || fd.Body == nil {
				continue
			}
			hp := &hotpathChecker{pass: pass, hotObjs: hotObjs, sig: pass.Info.Defs[fd.Name].Type().(*types.Signature)}
			ast.Inspect(fd.Body, hp.check)
		}
	}
}

type hotpathChecker struct {
	pass    *Pass
	hotObjs map[types.Object]bool
	sig     *types.Signature
}

func (hp *hotpathChecker) check(n ast.Node) bool {
	pass := hp.pass
	switch e := n.(type) {
	case *ast.FuncLit:
		pass.Reportf(e.Pos(), KeyClosure, "closure in hot path: function literals capture by reference and allocate")
		return false // don't descend; one finding per closure
	case *ast.GoStmt:
		pass.Reportf(e.Pos(), KeyAlloc, "go statement allocates a goroutine on the hot path")
	case *ast.CompositeLit:
		if t := pass.Info.TypeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice:
				pass.Reportf(e.Pos(), KeyAlloc, "map/slice literal allocates on the hot path")
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := e.X.(*ast.CompositeLit); ok {
				pass.Reportf(e.Pos(), KeyAlloc, "address-taken composite literal escapes to the heap")
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t := pass.Info.TypeOf(e); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if !isConstant(pass, e) {
						pass.Reportf(e.Pos(), KeyAlloc, "string concatenation allocates on the hot path")
					}
				}
			}
		}
	case *ast.CallExpr:
		hp.checkCall(e)
	case *ast.AssignStmt:
		for i, lhs := range e.Lhs {
			if i < len(e.Rhs) && len(e.Lhs) == len(e.Rhs) {
				hp.checkBoxing(pass.Info.TypeOf(lhs), e.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if len(e.Names) == len(e.Values) {
			for i, name := range e.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					hp.checkBoxing(obj.Type(), e.Values[i])
				}
			}
		}
	case *ast.ReturnStmt:
		results := hp.sig.Results()
		if len(e.Results) == results.Len() {
			for i, r := range e.Results {
				hp.checkBoxing(results.At(i).Type(), r)
			}
		}
	}
	return true
}

// isConstant reports whether the expression folds to a compile-time
// constant (constant string concatenation does not allocate at run time).
func isConstant(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// checkBoxing flags a concrete value reaching an interface-typed slot.
func (hp *hotpathChecker) checkBoxing(dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	st := hp.pass.Info.TypeOf(src)
	if st == nil {
		return
	}
	if _, srcIface := st.Underlying().(*types.Interface); srcIface {
		return // interface-to-interface: no box
	}
	if b, ok := st.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isPtr := st.Underlying().(*types.Pointer); isPtr {
		return // pointers box without allocating a copy
	}
	hp.pass.Reportf(src.Pos(), KeyBoxing, "value of type %s is boxed into interface %s on the hot path", st, dst)
}

func (hp *hotpathChecker) checkCall(call *ast.CallExpr) {
	pass := hp.pass
	// Resolve the callee identifier.
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		// Conversion to a type literal, e.g. []byte(s) or any(v).
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			hp.checkConversion(call, tv.Type)
			return
		}
		pass.Reportf(call.Pos(), KeyCall, "indirect call through a function value cannot be verified allocation-free")
		return
	}
	switch obj := pass.Info.Uses[id].(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "append":
			pass.Reportf(call.Pos(), KeyAlloc, "append may grow its backing array on the hot path; preallocate or document amortization with //air:allow(alloc)")
		case "print", "println":
			pass.Reportf(call.Pos(), KeyFmt, "built-in %s allocates; hot paths must not format", obj.Name())
		}
		return
	case *types.TypeName:
		// Conversion T(x): flag interface targets and string/[]byte copies.
		hp.checkConversion(call, obj.Type())
		return
	case *types.Func:
		hp.checkFuncCall(call, obj)
		return
	case *types.Var:
		pass.Reportf(call.Pos(), KeyCall, "call through function-typed value %s cannot be verified allocation-free", obj.Name())
		return
	case nil:
		// Conversion to a type literal, e.g. []byte(s): Uses has no entry.
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			hp.checkConversion(call, tv.Type)
		}
		return
	}
	// Boxing of arguments is checked for resolved and unresolved calls alike
	// via checkFuncCall; nothing further here.
}

func (hp *hotpathChecker) checkConversion(call *ast.CallExpr, target types.Type) {
	pass := hp.pass
	if len(call.Args) != 1 {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); isIface {
		hp.checkBoxing(target, call.Args[0])
		return
	}
	src := pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if isStringByteConv(target, src) {
		pass.Reportf(call.Pos(), KeyAlloc, "conversion between string and []byte copies on the hot path")
	}
}

func isStringByteConv(a, b types.Type) bool {
	return (isString(a) && isByteSlice(b)) || (isByteSlice(a) && isString(b))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && e.Kind() == types.Byte
}

func (hp *hotpathChecker) checkFuncCall(call *ast.CallExpr, fn *types.Func) {
	pass := hp.pass
	sig, _ := fn.Type().(*types.Signature)
	// fmt is reported once as a class of its own; per-argument boxing
	// reports on top of it would be noise.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), KeyFmt, "fmt.%s boxes its operands and allocates; hot paths must not format", fn.Name())
		return
	}
	// Argument boxing against the callee's parameter types.
	if sig != nil {
		hp.checkArgBoxing(call, sig)
	}
	// Dynamic dispatch: a call through an interface method cannot be pinned
	// to an implementation, so the hot-path property is unverifiable.
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			pass.Reportf(call.Pos(), KeyCall,
				"dynamic dispatch through interface method %s cannot be verified allocation-free; pin the implementation or document the contract with //air:allow(call)", fn.Name())
			return
		}
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	switch {
	case pkg.Path() == pass.Pkg.Path():
		if !hp.hotObjs[fn.Origin()] {
			pass.Reportf(call.Pos(), KeyCall,
				"hot path calls %s, which is not //air:hotpath; annotate it or document the cold branch with //air:allow(call)", fn.Name())
		}
	case isAirPackage(pkg.Path()):
		if !pass.Imported.Hotpath[FuncKey(fn.Origin())] {
			pass.Reportf(call.Pos(), KeyCall,
				"hot path calls %s.%s, which is not //air:hotpath in its package; annotate it or document the cold branch with //air:allow(call)", pkg.Path(), fn.Name())
		}
	default: // standard library
		if allowedStdlibPkgs[pkg.Path()] || allowedStdlibFuncs[stdlibKey(fn)] {
			return
		}
		pass.Reportf(call.Pos(), KeyCall,
			"hot path calls %s.%s, which is not on the allocation-free stdlib allowlist", pkg.Path(), fn.Name())
	}
}

// stdlibKey renders "pkg.Recv.Name" for the stdlib allowlist lookup.
func stdlibKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			key += name + "."
		}
	}
	return key + fn.Name()
}

func (hp *hotpathChecker) checkArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		hp.checkBoxing(pt, arg)
	}
}
