package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var analyzerTraceNilsafe = &Analyzer{
	Name: "trace-nilsafe",
	Doc:  "internal/trace recorders are nil-safe; don't guard pure recording with nil checks or dereference a Tracer",
	Run:  runTraceNilsafe,
}

var analyzerTraceSpanname = &Analyzer{
	Name: "trace-spanname",
	Doc:  "span, event and event-log names (trace StartSpan/Event/Log, obs Debug/Info/Warn/Error/Fatal) must be compile-time constants",
	Run:  runTraceSpanname,
}

// tracePkg is the tracing package whose Tracer/Span methods are all no-ops
// on the zero value, making defensive nil guards around recording dead
// weight. Nil checks that gate non-recording work (wiring a tracer into a
// network, skipping lane construction) stay legal.
var tracePkg = modulePrefix + "/internal/trace"

// obsPkg is the event-log package; its logger methods forward their message
// to trace as a record name.
var obsPkg = modulePrefix + "/internal/obs"

// traceRecorderType reports whether t is trace.Tracer or trace.Span
// (possibly behind a pointer).
func traceRecorderType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	n := recvNamed(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != tracePkg {
		return "", false
	}
	name := n.Obj().Name()
	if name == "Tracer" || name == "Span" {
		return name, true
	}
	return "", false
}

// recorderCall reports whether the expression is a method call whose
// receiver is a trace.Tracer or trace.Span — i.e. a call that is already
// nil-safe and needs no guard.
func recorderCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	_, isRecorder := traceRecorderType(tv.Type)
	return isRecorder
}

// guardOnlyRecords reports whether every statement in the guarded block is a
// nil-safe recording call (possibly deferred or assigned, as in
// `sp := tr.StartSpan(...)`).
func guardOnlyRecords(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		switch s := st.(type) {
		case *ast.ExprStmt:
			if !recorderCall(info, s.X) {
				return false
			}
		case *ast.DeferStmt:
			if !recorderCall(info, s.Call) {
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if !recorderCall(info, rhs) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

func runTraceNilsafe(pkg *Package) []Finding {
	if pkg.ScopePath() == tracePkg {
		return nil // the package that implements nil-safety may inspect nil
	}
	var findings []Finding
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IfStmt:
				cond, ok := x.Cond.(*ast.BinaryExpr)
				if !ok || cond.Op != token.NEQ {
					return true
				}
				var other ast.Expr
				if isNil(info, cond.X) {
					other = cond.Y
				} else if isNil(info, cond.Y) {
					other = cond.X
				} else {
					return true
				}
				tv, ok := info.Types[other]
				if !ok {
					return true
				}
				if name, ok := traceRecorderType(tv.Type); ok && guardOnlyRecords(info, x.Body) {
					findings = append(findings, report(pkg, x, "trace-nilsafe",
						"nil guard around trace."+name+" recording; recorder methods are nil-safe, call them unconditionally"))
				}
			case *ast.StarExpr:
				// Value-position StarExpr is a dereference; type position
				// (pointer syntax) has IsType set.
				if tv, ok := info.Types[x]; ok && tv.IsType() {
					return true
				}
				inner, ok := info.Types[x.X]
				if !ok {
					return true
				}
				if name, ok := traceRecorderType(inner.Type); ok {
					findings = append(findings, report(pkg, x, "trace-nilsafe",
						"dereference of trace."+name+"; a nil recorder would panic — use its methods instead"))
				}
			}
			return true
		})
	}
	return findings
}

// nameSink is a recorder whose name argument becomes a trace record name:
// trace's span/event recorders and the obs methods that forward their
// message to trace.Tracer.Log.
type nameSink struct {
	pkg, recv, method string
	arg               int // index of the name argument
}

var nameSinks = []nameSink{
	{tracePkg, "Tracer", "StartSpan", 0},
	{tracePkg, "Tracer", "Event", 0},
	{tracePkg, "Tracer", "Log", 1},
	{obsPkg, "Logger", "Debug", 0},
	{obsPkg, "Logger", "Info", 0},
	{obsPkg, "Logger", "Warn", 0},
	{obsPkg, "Logger", "Error", 0},
	{obsPkg, "Logger", "log", 1},
	{obsPkg, "CLI", "Fatal", 1},
}

// sinkArg returns the name-argument index when obj is a name sink, else -1.
func sinkArg(obj types.Object) int {
	fn, ok := obj.(*types.Func)
	if !ok {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1
	}
	n := recvNamed(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return -1
	}
	for _, s := range nameSinks {
		if fn.Name() == s.method && n.Obj().Name() == s.recv && n.Obj().Pkg().Path() == s.pkg {
			return s.arg
		}
	}
	return -1
}

// runTraceSpanname requires every name sink's name argument to be a
// compile-time constant. The one exception is a sink forwarding its own name
// parameter to another sink (obs.Logger.Info → log → trace.Tracer.Log):
// the obligation then rests on the outer sink's callers, which this rule
// checks in turn, so a non-constant name has no unchecked path to a record.
func runTraceSpanname(pkg *Package) []Finding {
	var findings []Finding
	info := pkg.Info
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			// forwarded is the enclosing sink's own name parameter, if any.
			var forwarded types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := info.Defs[fd.Name]; obj != nil {
					if i := sinkArg(obj); i >= 0 {
						if params := obj.Type().(*types.Signature).Params(); i < params.Len() {
							forwarded = params.At(i)
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObject(info, call)
				if obj == nil {
					return true
				}
				i := sinkArg(obj)
				if i < 0 || i >= len(call.Args) {
					return true
				}
				arg := call.Args[i]
				if tv, ok := info.Types[arg]; ok && tv.Value != nil {
					return true
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && forwarded != nil && info.Uses[id] == forwarded {
					return true
				}
				findings = append(findings, report(pkg, arg, "trace-spanname",
					obj.Name()+" name must be a compile-time constant so traces aggregate and lint stays greppable"))
				return true
			})
		}
	}
	return findings
}
