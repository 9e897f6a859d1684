package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DurableAnalyzer is airdurable: the write→fsync→rename durability protocol
// in the packages that persist state. Three rules:
//
//  1. An os.Rename that publishes a temp file must be preceded by a Sync on
//     the handle that wrote it — rename is atomic on the directory entry,
//     but without the fsync the newly visible file can be empty or torn
//     after a crash. When the Sync exists but sits after the Rename, the
//     finding carries a machine fix that reorders it.
//  2. os.WriteFile never syncs, so in a durable package it is always a
//     finding: durable bytes must go through open, write, Sync, Close.
//  3. A raw Write on a struct-field *os.File bypasses the package's framing
//     encoder (CRC frames, fsynced JSONL records): appends go through the
//     encoder, or the site documents why it IS the encoder with
//     //air:allow(durable).
var DurableAnalyzer = &Analyzer{
	Name: "airdurable",
	Doc:  "durable state is published fsync-before-rename and appended through the framing encoder",
	Run:  runDurable,
}

// durablePkgs are the packages that own crash-recoverable state: the shared
// log format and atomic file writer, the fleet coordinator's journal and
// archive index, the flight archive's segments and manifest, and the
// campaign engine's shipped-archive store.
var durablePkgs = map[string]bool{
	"air/internal/durable":  true,
	"air/internal/fleet":    true,
	"air/internal/archive":  true,
	"air/internal/campaign": true,
}

func runDurable(pass *Pass) {
	if !durablePkgs[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDurableFunc(pass, fd)
		}
		checkRawWrites(pass, file)
	}
}

// fileEvent is one durability-relevant call, ordered by position.
type fileEvent struct {
	pos     token.Pos
	kind    string       // "open", "sync", "rename", "writefile"
	obj     types.Object // open: the handle variable; sync: the receiver root
	pathKey string       // open/rename: rendered source-path expression
	stmt    ast.Stmt     // enclosing statement (reorder fix anchors)
}

// checkDurableFunc enforces sync-before-rename and no-WriteFile within one
// function, by position order (durability code is straight-line).
func checkDurableFunc(pass *Pass, fd *ast.FuncDecl) {
	var events []fileEvent
	var stack []ast.Node
	// enclosingStmt resolves the block-level statement around the node under
	// visit — the IfStmt, not its init clause — so fix edits anchor at a
	// position where a whole statement can be inserted.
	enclosingStmt := func() ast.Stmt {
		for i := len(stack) - 1; i >= 0; i-- {
			s, ok := stack[i].(ast.Stmt)
			if !ok {
				continue
			}
			if i == 0 {
				return s
			}
			switch stack[i-1].(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				return s
			}
		}
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && isOSFile(pass.Info.TypeOf(sel.X)) {
			if root := (&guardWalker{pass: pass}).rootIdent(sel.X); root != nil {
				events = append(events, fileEvent{pos: call.Pos(), kind: "sync", obj: root, stmt: enclosingStmt()})
			}
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" && isPackageFunc(fn) {
			switch fn.Name() {
			case "OpenFile", "Create":
				if len(call.Args) >= 1 {
					events = append(events, fileEvent{
						pos:     call.Pos(),
						kind:    "open",
						pathKey: renderPath(call.Args[0]),
						obj:     assignTarget(pass, enclosingStmt(), call),
					})
				}
			case "Rename":
				if len(call.Args) == 2 {
					events = append(events, fileEvent{
						pos:     call.Pos(),
						kind:    "rename",
						pathKey: renderPath(call.Args[0]),
						stmt:    enclosingStmt(),
					})
				}
			case "WriteFile":
				events = append(events, fileEvent{pos: call.Pos(), kind: "writefile"})
			}
			return true
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	for i, ev := range events {
		switch ev.kind {
		case "writefile":
			pass.Reportf(ev.pos, KeyDurable, "os.WriteFile cannot fsync: durable state must go through open, write, Sync, Close before publication")
		case "rename":
			if ev.pathKey == "" {
				continue
			}
			// Which handle wrote the rename source?
			var opened *fileEvent
			for j := i - 1; j >= 0; j-- {
				if events[j].kind == "open" && events[j].pathKey == ev.pathKey {
					opened = &events[j]
					break
				}
			}
			if opened == nil || opened.obj == nil {
				continue
			}
			synced := false
			for j := 0; j < i; j++ {
				if events[j].kind == "sync" && events[j].obj == opened.obj {
					synced = true
					break
				}
			}
			if synced {
				continue
			}
			// A Sync after the rename is the reorder case: machine-fixable
			// when the Sync is a plain statement.
			var fix *SuggestedFix
			for j := i + 1; j < len(events); j++ {
				if events[j].kind == "sync" && events[j].obj == opened.obj {
					fix = reorderFix(pass, events[j], ev)
					break
				}
			}
			pass.ReportFix(ev.pos, KeyDurable, fix, "os.Rename publishes %s without a preceding Sync on its handle: a crash can surface an empty or torn file", ev.pathKey)
		}
	}
}

// assignTarget resolves the variable an os.OpenFile/os.Create result binds
// to: `f, err := os.OpenFile(...)`, directly or in an if-init.
func assignTarget(pass *Pass, stmt ast.Stmt, call *ast.CallExpr) types.Object {
	if ifs, ok := stmt.(*ast.IfStmt); ok {
		stmt = ifs.Init
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(call) || len(as.Lhs) == 0 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// isPackageFunc reports whether fn is a package-level function (not a
// method): os.File methods also carry Pkg()=="os" and must not be eaten
// by the package-function switch.
func isPackageFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}

// reorderFix moves a plain `f.Sync()` statement to just before the rename's
// enclosing statement.
func reorderFix(pass *Pass, syncEv, renameEv fileEvent) *SuggestedFix {
	syncStmt, ok := syncEv.stmt.(*ast.ExprStmt)
	if !ok || renameEv.stmt == nil {
		return nil
	}
	call, ok := syncStmt.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	recv := renderPath(sel.X)
	if recv == "" {
		return nil
	}
	sp := pass.Fset.Position(syncStmt.Pos())
	se := pass.Fset.Position(syncStmt.End())
	rp := pass.Fset.Position(renameEv.stmt.Pos())
	if sp.Filename != rp.Filename {
		return nil
	}
	indent := strings.Repeat("\t", rp.Column-1)
	return &SuggestedFix{
		Message: "move the Sync before the Rename",
		Edits: []TextEdit{
			{
				// Delete the Sync statement's line (indentation + newline).
				File:  sp.Filename,
				Start: sp.Offset - (sp.Column - 1),
				End:   se.Offset + 1,
			},
			{
				// Re-insert it before the rename statement.
				File:    rp.Filename,
				Start:   rp.Offset,
				End:     rp.Offset,
				NewText: recv + ".Sync()\n" + indent,
			},
		},
	}
}

// checkRawWrites flags Write calls on struct-field file handles: those are
// the framed journal/segment files, and raw bytes bypass the CRC framing.
func checkRawWrites(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Write" && sel.Sel.Name != "WriteString" {
			return true
		}
		if !isOSFile(pass.Info.TypeOf(sel.X)) {
			return true
		}
		// Only struct-field handles (x.f.Write): a local handle is a
		// staging file covered by the rename rule.
		base, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[base.Sel]; obj != nil {
			if v, isVar := obj.(*types.Var); isVar && v.IsField() {
				pass.Reportf(call.Pos(), KeyDurable, "raw %s on framed handle %s bypasses the framing encoder: append through the frame encoder or document the framing discipline with //air:allow(durable)", sel.Sel.Name, renderPath(sel.X))
			}
		}
		return true
	})
}
