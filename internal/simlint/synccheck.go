package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// synccheck is the annotation-driven concurrency-discipline rule
// group. `go test -race` only catches races the test inputs happen to
// execute; synccheck makes the locking discipline itself checkable,
// before any schedule runs:
//
//  1. Guarded-by discipline. A struct field annotated
//     `synccheck:guardedby <mutexField>` may only be read or written
//     while that mutex is held; lock state is tracked through
//     Lock/RLock/Unlock/RUnlock and `defer Unlock` in the enclosing
//     function (writes require the write lock). In any struct that
//     has a sync.Mutex/RWMutex field, every other field must carry
//     either `synccheck:guardedby <mutexField>` or
//     `synccheck:unguarded <reason>`, so the annotation set stays
//     total. Package-level vars opt in with the same guardedby marker
//     naming a package-level mutex. A function whose doc carries
//     `synccheck:holds <recv>.<mutexField>` (or a package-level mutex
//     name) is checked assuming the caller holds that lock, and every
//     call site must actually hold it. A lock still held at return
//     without a deferred unlock, an unlock without a matching lock,
//     and re-locking a held mutex are all diagnostics — the static
//     shadow of a deadlock or a dropped Unlock. Function literals
//     (`go func` bodies included) start with an empty lock set, so a
//     guarded field they touch lock-free is flagged even when the
//     creating function held the lock.
//
//  2. WaitGroup pairing. A goroutine that calls WaitGroup.Done must
//     be covered by an Add that precedes the spawn (an Add inside the
//     goroutine is the classic Add-after-Wait race) and the Done must
//     be deferred so panic paths still release it.
//
//  3. Close-once. A channel may be closed at most once across the
//     module.
//
//  4. Determinism bridge. Functions reachable from a `go` statement
//     may not write package-level variables or call the determinism
//     rule's nondeterminism sinks (wall clock, global math/rand,
//     environment reads): parallel execution must stay inside the
//     byte-identical-output contract the experiment scheduler
//     promises. Audited exceptions carry `synccheck:nondet <reason>`
//     on the line (or the line above, or the function doc), e.g. for
//     progress timing that only ever reaches stderr.
//
// Known approximations (documented in docs/ANALYSIS.md): lock state
// is tracked per named expression, so aliases (`m := &s.mu`) escape
// it; branches are merged by intersection, so a lock held on only one
// path counts as not held afterwards; dynamic calls (interface
// methods, function values) are not traversed, the same boundary the
// hotpath rule draws.

const (
	syncGuardedByMarker = "synccheck:guardedby"
	syncUnguardedMarker = "synccheck:unguarded"
	syncHoldsMarker     = "synccheck:holds"
	syncNondetMarker    = "synccheck:nondet"
)

// NewSyncCheck builds the concurrency-discipline rule group.
func NewSyncCheck() *Analyzer {
	return &Analyzer{
		Name: "synccheck",
		Doc: "synccheck:guardedby fields are only touched under their mutex " +
			"(total over mutex-bearing structs), goroutines pair WaitGroup Add/Done, " +
			"channels close once, and nothing reachable from a goroutine writes " +
			"globals or reads nondeterminism sinks",
		Run: runSyncCheck,
	}
}

// guardInfo ties one guarded variable to the mutex that protects it.
type guardInfo struct {
	mutexName string     // field or package-var name of the mutex
	mutexObj  *types.Var // package-level mutex var (nil for struct fields)
}

// syncChecker carries the per-run state of the analysis.
type syncChecker struct {
	prog   *Program
	report Reporter
	funcs  funcIndex
	nondet auditLines

	guards map[*types.Var]*guardInfo // guarded field/var -> its mutex
	holds  map[*types.Func]string    // fn -> raw synccheck:holds marker text
	// closes records every close(ch) site per channel variable.
	closes map[*types.Var][]token.Pos

	// goCallees seed the determinism bridge: each function a go
	// statement spawns, and each static callee of a spawned literal
	// (whose own body is scanned at the spawn).
	goCallees []*types.Func
}

func runSyncCheck(prog *Program, report Reporter) {
	sc := &syncChecker{
		prog:   prog,
		report: report,
		funcs:  indexFuncs(prog),
		nondet: collectAuditLines(prog, syncNondetMarker, report),
		guards: map[*types.Var]*guardInfo{},
		holds:  map[*types.Func]string{},
		closes: map[*types.Var][]token.Pos{},
	}
	sc.collect()
	for _, fn := range sc.funcs.list {
		sc.checkFunc(fn)
	}
	sc.checkCloseCounts()
	sc.checkBridge()
}

// --- annotation collection ---

func (sc *syncChecker) collect() {
	for _, pkg := range sc.prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.GenDecl); ok {
					sc.collectGenDecl(pkg, d)
				}
			}
		}
	}
	for _, fn := range sc.funcs.list {
		if marker, found := markerReason(fn.decl.Doc, syncHoldsMarker); found {
			if marker == "" {
				sc.report(fn.decl.Pos(), "synccheck:holds marker on %s is missing its mutex", fn.decl.Name.Name)
			} else {
				sc.holds[fn.obj] = marker
			}
		}
	}
}

// collectGenDecl handles struct-type declarations (guarded-by
// totality) and package-level var annotations.
func (sc *syncChecker) collectGenDecl(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if st, ok := s.Type.(*ast.StructType); ok {
				sc.collectStruct(pkg, s.Name.Name, st)
			}
		case *ast.ValueSpec:
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			sc.collectPackageVar(pkg, s, doc)
		}
	}
}

// collectStruct enforces annotation totality over mutex-bearing
// structs and records the guarded-field map.
func (sc *syncChecker) collectStruct(pkg *Package, name string, st *ast.StructType) {
	mutexFields := map[string]bool{}
	for _, f := range st.Fields.List {
		if isSyncMutexType(fieldType(pkg, f)) {
			for _, id := range f.Names {
				mutexFields[id.Name] = true
			}
		}
	}
	for _, f := range st.Fields.List {
		target, hasGuard := fieldMarkerReason(f, syncGuardedByMarker)
		unguardReason, hasUnguard := fieldMarkerReason(f, syncUnguardedMarker)
		ft := fieldType(pkg, f)
		switch {
		case hasGuard && target == "":
			sc.report(f.Pos(), "synccheck:guardedby marker on %s.%s is missing its mutex field name", name, fieldLabel(f))
		case hasGuard && !mutexFields[target]:
			sc.report(f.Pos(), "synccheck:guardedby names %s, which is not a sync.Mutex/RWMutex field of %s", target, name)
		case hasGuard:
			for _, id := range f.Names {
				if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
					sc.guards[v] = &guardInfo{mutexName: target}
				}
			}
		}
		if hasUnguard && unguardReason == "" {
			sc.report(f.Pos(), "synccheck:unguarded marker on %s.%s is missing a reason", name, fieldLabel(f))
		}
		if len(mutexFields) > 0 && !hasGuard && !hasUnguard &&
			!isSyncPackageType(ft) && len(f.Names) > 0 {
			sc.report(f.Pos(),
				"field %s of mutex-bearing struct %s needs a synccheck:guardedby <mutex> or synccheck:unguarded <reason> marker",
				fieldLabel(f), name)
		}
	}
}

// collectPackageVar records package-level `synccheck:guardedby`
// annotations; package-level coverage is opt-in (only annotated vars
// are checked).
func (sc *syncChecker) collectPackageVar(pkg *Package, s *ast.ValueSpec, doc *ast.CommentGroup) {
	target, found := markerReason(doc, syncGuardedByMarker)
	if !found {
		return
	}
	if target == "" {
		sc.report(s.Pos(), "synccheck:guardedby marker is missing its mutex name")
		return
	}
	var mu *types.Var
	if pkg.Types != nil {
		if obj, ok := pkg.Types.Scope().Lookup(target).(*types.Var); ok && isSyncMutexType(obj.Type()) {
			mu = obj
		}
	}
	if mu == nil {
		sc.report(s.Pos(), "synccheck:guardedby names %s, which is not a package-level sync.Mutex/RWMutex in %s", target, pkg.Name)
		return
	}
	for _, id := range s.Names {
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			sc.guards[v] = &guardInfo{mutexName: target, mutexObj: mu}
		}
	}
}

// --- per-function lock-flow analysis ---

// lockHeld is one held mutex in the flow state.
type lockHeld struct {
	display  string // source rendering, e.g. "e.mu", for diagnostics
	pos      token.Pos
	write    bool // Lock (vs RLock)
	deferred bool // a deferred unlock pins release to function exit
}

// lockState maps canonical mutex keys to held-lock info.
type lockState map[string]*lockHeld

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// merge intersects two branch outcomes: a lock is held afterwards
// only if both paths hold it.
func mergeLockStates(a, b lockState) lockState {
	out := lockState{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// syncScope is the walk state for one function body (a declaration or
// a function literal).
type syncScope struct {
	sc   *syncChecker
	pkg  *Package
	file *ast.File
	// adds records WaitGroup.Add sites seen so far, by mutex-style key.
	adds map[string]token.Pos
}

func (sc *syncChecker) checkFunc(fn *moduleFunc) {
	scope := &syncScope{sc: sc, pkg: fn.pkg, file: fn.file, adds: map[string]token.Pos{}}
	st := lockState{}
	if marker, ok := sc.holds[fn.obj]; ok {
		if key, display, ok := sc.resolveHoldsMarker(fn.pkg, fn.decl, marker); ok {
			// The caller holds it; release is the caller's job too.
			st[key] = &lockHeld{display: display, pos: fn.decl.Pos(), write: true, deferred: true}
		} else {
			sc.report(fn.decl.Pos(), "synccheck:holds marker %q on %s does not resolve to a receiver mutex field or package-level mutex", marker, fn.decl.Name.Name)
		}
	}
	end, terminated := scope.walkStmts(fn.decl.Body.List, st)
	if !terminated {
		scope.checkLeaks(end, fn.decl.Body.Rbrace)
	}
}

// resolveHoldsMarker maps a holds marker to the canonical lock key as
// seen from inside the function: `recv.mu` via the receiver object,
// or a bare package-level mutex name.
func (sc *syncChecker) resolveHoldsMarker(pkg *Package, d *ast.FuncDecl, marker string) (key, display string, ok bool) {
	if recv, rest, found := strings.Cut(marker, "."); found {
		if d.Recv == nil || len(d.Recv.List) == 0 || len(d.Recv.List[0].Names) == 0 {
			return "", "", false
		}
		rid := d.Recv.List[0].Names[0]
		if rid.Name != recv {
			return "", "", false
		}
		v, okDef := pkg.Info.Defs[rid].(*types.Var)
		if !okDef {
			return "", "", false
		}
		return varKey(v) + "." + rest, marker, true
	}
	if pkg.Types != nil {
		if obj, okVar := pkg.Types.Scope().Lookup(marker).(*types.Var); okVar && isSyncMutexType(obj.Type()) {
			return varKey(obj), marker, true
		}
	}
	return "", "", false
}

// checkLeaks flags locks still held (without a deferred unlock) when
// control can leave the function.
func (s *syncScope) checkLeaks(st lockState, pos token.Pos) {
	for _, h := range st {
		if !h.deferred {
			s.sc.report(pos, "%s is still held here; release it on every path or defer the unlock", h.display)
		}
	}
}

// walkStmts walks a statement list in source order, threading lock
// state. It returns the final state and whether every path terminated
// (return/panic), so branch merges can discard dead ends.
func (s *syncScope) walkStmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, stmt := range list {
		var terminated bool
		st, terminated = s.walkStmt(stmt, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (s *syncScope) walkStmt(stmt ast.Stmt, st lockState) (lockState, bool) {
	switch t := stmt.(type) {
	case *ast.ExprStmt:
		s.walkExpr(t.X, st, false)
		if isTerminalCall(s.pkg, t.X) {
			return st, true
		}
	case *ast.AssignStmt:
		s.walkAssign(t, st)
	case *ast.IncDecStmt:
		s.walkExpr(t.X, st, true)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.walkExpr(v, st, false)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.walkExpr(t.Chan, st, false)
		s.walkExpr(t.Value, st, false)
	case *ast.DeferStmt:
		s.walkDefer(t, st)
	case *ast.GoStmt:
		s.walkGo(t, st)
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			s.walkExpr(r, st, false)
		}
		s.checkLeaks(st, t.Pos())
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave this path; treat as terminal for
		// merge purposes (approximation).
		return st, true
	case *ast.BlockStmt:
		return s.walkStmts(t.List, st)
	case *ast.LabeledStmt:
		return s.walkStmt(t.Stmt, st)
	case *ast.IfStmt:
		return s.walkIf(t, st)
	case *ast.ForStmt:
		if t.Init != nil {
			st, _ = s.walkStmt(t.Init, st)
		}
		if t.Cond != nil {
			s.walkExpr(t.Cond, st, false)
		}
		return s.walkLoopBody(t.Body, t.Post, st), false
	case *ast.RangeStmt:
		s.walkExpr(t.X, st, false)
		if t.Key != nil {
			s.walkExpr(t.Key, st, t.Tok == token.ASSIGN)
		}
		if t.Value != nil {
			s.walkExpr(t.Value, st, t.Tok == token.ASSIGN)
		}
		return s.walkLoopBody(t.Body, nil, st), false
	case *ast.SwitchStmt:
		if t.Init != nil {
			st, _ = s.walkStmt(t.Init, st)
		}
		if t.Tag != nil {
			s.walkExpr(t.Tag, st, false)
		}
		return s.walkClauses(t.Body, st)
	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			st, _ = s.walkStmt(t.Init, st)
		}
		st, _ = s.walkStmt(t.Assign, st)
		return s.walkClauses(t.Body, st)
	case *ast.SelectStmt:
		return s.walkClauses(t.Body, st)
	}
	return st, false
}

// walkIf threads state through both branches and merges by
// intersection; terminated branches drop out of the merge.
func (s *syncScope) walkIf(t *ast.IfStmt, st lockState) (lockState, bool) {
	if t.Init != nil {
		st, _ = s.walkStmt(t.Init, st)
	}
	s.walkExpr(t.Cond, st, false)
	thenSt, thenTerm := s.walkStmts(t.Body.List, st.clone())
	elseSt, elseTerm := st, false
	if t.Else != nil {
		elseSt, elseTerm = s.walkStmt(t.Else, st.clone())
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseSt, false
	case elseTerm:
		return thenSt, false
	default:
		return mergeLockStates(thenSt, elseSt), false
	}
}

// walkClauses handles switch/select bodies: every clause starts from
// the incoming state; the result intersects the non-terminated ones.
func (s *syncScope) walkClauses(body *ast.BlockStmt, st lockState) (lockState, bool) {
	var merged lockState
	sawLive := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s.walkExpr(e, st, false)
			}
			stmts = c.Body
		case *ast.CommClause:
			cst := st.clone()
			if c.Comm != nil {
				cst, _ = s.walkStmt(c.Comm, cst)
			}
			out, term := s.walkStmts(c.Body, cst)
			if !term {
				if !sawLive {
					merged, sawLive = out, true
				} else {
					merged = mergeLockStates(merged, out)
				}
			}
			continue
		}
		out, term := s.walkStmts(stmts, st.clone())
		if !term {
			if !sawLive {
				merged, sawLive = out, true
			} else {
				merged = mergeLockStates(merged, out)
			}
		}
	}
	if !sawLive {
		// No live clause; fall back to the incoming state (a switch
		// need not execute any case).
		return st, false
	}
	return mergeLockStates(merged, st), false
}

// walkLoopBody walks a loop body once on a cloned state. A lock
// acquired inside the body and still held (non-deferred) at the end
// of the iteration never releases on iteration two — the dropped
// Unlock shape.
func (s *syncScope) walkLoopBody(body *ast.BlockStmt, post ast.Stmt, st lockState) lockState {
	bodySt, terminated := s.walkStmts(body.List, st.clone())
	if post != nil && !terminated {
		bodySt, _ = s.walkStmt(post, bodySt)
	}
	if !terminated {
		for key, h := range bodySt {
			if _, before := st[key]; !before && !h.deferred {
				s.sc.report(h.pos, "%s locked in this loop body is still held at the end of the iteration; it deadlocks on the next Lock", h.display)
			}
		}
	}
	// The body may run zero times: keep only locks held on both paths.
	if terminated {
		return st
	}
	return mergeLockStates(st, bodySt)
}

// walkAssign checks guarded writes and walks both sides.
func (s *syncScope) walkAssign(t *ast.AssignStmt, st lockState) {
	for _, r := range t.Rhs {
		s.walkExpr(r, st, false)
	}
	for _, l := range t.Lhs {
		if t.Tok == token.DEFINE {
			if id, ok := l.(*ast.Ident); ok {
				if _, isDef := s.pkg.Info.Defs[id]; isDef {
					continue // fresh variable, not an access
				}
			}
		}
		s.walkExpr(l, st, true)
	}
}

// walkDefer handles deferred unlocks (pinning the lock to function
// exit) and deferred closures (fresh lock state).
func (s *syncScope) walkDefer(t *ast.DeferStmt, st lockState) {
	if key, h := s.mutexOp(t.Call, st); h != "" {
		switch h {
		case "Unlock", "RUnlock":
			if held, ok := st[key]; ok {
				held.deferred = true
			} else {
				s.sc.report(t.Pos(), "deferred %s of a mutex that is not held here", h)
			}
		case "Lock", "RLock":
			s.sc.report(t.Pos(), "deferred %s acquires at function exit; lock before the defer instead", h)
		}
		return
	}
	if lit, ok := t.Call.Fun.(*ast.FuncLit); ok {
		s.walkLit(lit)
		return
	}
	for _, a := range t.Call.Args {
		s.walkExpr(a, st, false)
	}
}

// walkGo handles a goroutine spawn: WaitGroup pairing, and seeding the
// determinism bridge.
func (s *syncScope) walkGo(t *ast.GoStmt, st lockState) {
	lit, isLit := t.Call.Fun.(*ast.FuncLit)
	for _, a := range t.Call.Args {
		s.walkExpr(a, st, false)
	}
	if !isLit {
		s.walkExpr(t.Call.Fun, st, false)
		if callee := staticCallee(s.pkg.Info, t.Call); callee != nil {
			s.sc.goCallees = append(s.sc.goCallees, callee)
		}
		return
	}
	s.checkWaitGroupPairing(lit)
	s.sc.goCallees = append(s.sc.goCallees, s.sc.scanBridgeNode(s.pkg, s.file, lit.Body, nil)...)
	s.walkLit(lit)
}

// walkLit analyzes a function literal body as its own scope with an
// empty lock set: whatever the creating function holds is not held
// when the literal eventually runs.
func (s *syncScope) walkLit(lit *ast.FuncLit) {
	inner := &syncScope{sc: s.sc, pkg: s.pkg, file: s.file, adds: map[string]token.Pos{}}
	end, terminated := inner.walkStmts(lit.Body.List, lockState{})
	if !terminated {
		inner.checkLeaks(end, lit.Body.Rbrace)
	}
}

// checkWaitGroupPairing: a spawned body calling wg.Done needs an Add
// on the same WaitGroup before the spawn, the Done should be
// deferred, and an Add inside the body is the Add-after-Wait race.
func (s *syncScope) checkWaitGroupPairing(lit *ast.FuncLit) {
	deferredDones := map[ast.Node]bool{}
	for _, stmt := range lit.Body.List {
		if d, ok := stmt.(*ast.DeferStmt); ok {
			deferredDones[d.Call] = true
		}
	}
	// Adds inside the body are their own diagnostic; remember them so
	// the matching Done is not double-flagged as uncovered too.
	insideAdds := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isSyncMethod(s.pkg, sel, "WaitGroup") {
				if key, _, ok := syncExprKey(s.pkg.Info, sel.X); ok {
					insideAdds[key] = true
				}
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSyncMethod(s.pkg, sel, "WaitGroup") {
			return true
		}
		key, display, _ := syncExprKey(s.pkg.Info, sel.X)
		switch sel.Sel.Name {
		case "Done":
			if _, added := s.adds[key]; !added && !insideAdds[key] {
				s.sc.report(call.Pos(), "goroutine calls %s.Done but no %s.Add precedes the spawn; Add must happen-before the go statement", display, display)
			}
			if !deferredDones[call] {
				s.sc.report(call.Pos(), "%s.Done in a goroutine should be deferred so a panicking body still releases the WaitGroup", display)
			}
		case "Add":
			s.sc.report(call.Pos(), "%s.Add inside the goroutine it covers races Wait; call Add before the go statement", display)
		}
		return true
	})
}

// chanVar resolves the variable a close targets.
func chanVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// walkExpr walks one expression in evaluation order, checking guarded
// accesses (isWrite for assignment targets), mutex operations, holds
// obligations, and close() sites.
func (s *syncScope) walkExpr(e ast.Expr, st lockState, isWrite bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		s.checkGuardedAccess(t, nil, st, isWrite)
	case *ast.SelectorExpr:
		s.checkGuardedAccess(t.Sel, t, st, isWrite)
		s.walkExpr(t.X, st, false)
	case *ast.CallExpr:
		s.walkCall(t, st)
	case *ast.UnaryExpr:
		// &x may let the guarded value escape its lock; treat as write.
		s.walkExpr(t.X, st, isWrite || t.Op == token.AND)
	case *ast.StarExpr:
		s.walkExpr(t.X, st, isWrite)
	case *ast.IndexExpr:
		s.walkExpr(t.X, st, isWrite)
		s.walkExpr(t.Index, st, false)
	case *ast.SliceExpr:
		s.walkExpr(t.X, st, isWrite)
		for _, idx := range []ast.Expr{t.Low, t.High, t.Max} {
			if idx != nil {
				s.walkExpr(idx, st, false)
			}
		}
	case *ast.BinaryExpr:
		s.walkExpr(t.X, st, false)
		s.walkExpr(t.Y, st, false)
	case *ast.KeyValueExpr:
		s.walkExpr(t.Value, st, false)
	case *ast.CompositeLit:
		for _, el := range t.Elts {
			s.walkExpr(el, st, false)
		}
	case *ast.TypeAssertExpr:
		s.walkExpr(t.X, st, false)
	case *ast.FuncLit:
		s.walkLit(t)
	}
}

// walkCall dispatches one call: mutex ops mutate the lock state,
// holds-marked callees impose their lock at the call site, close()
// sites are recorded. Literal arguments (callbacks, Once.Do bodies)
// are analyzed with their own empty lock state by walkExpr.
func (s *syncScope) walkCall(call *ast.CallExpr, st lockState) {
	if key, op := s.mutexOp(call, st); op != "" {
		s.applyMutexOp(call, key, op, st)
		return
	}
	if isBuiltinCall(s.pkg.Info, call, "close") && len(call.Args) == 1 {
		if v := chanVar(s.pkg, call.Args[0]); v != nil {
			s.sc.closes[v] = append(s.sc.closes[v], call.Pos())
		}
		return
	}
	if isBuiltinCall(s.pkg.Info, call, "panic") {
		return // terminal; diagnostic construction is exempt
	}
	if callee := staticCallee(s.pkg.Info, call); callee != nil {
		if marker, ok := s.sc.holds[callee]; ok {
			s.checkHoldsCall(call, callee, marker, st)
		}
	}
	s.recordAdd(call)
	s.walkExpr(call.Fun, st, false)
	for _, a := range call.Args {
		s.walkExpr(a, st, false)
	}
}

// recordAdd notes WaitGroup.Add sites for the spawn-pairing check.
func (s *syncScope) recordAdd(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" || !isSyncMethod(s.pkg, sel, "WaitGroup") {
		return
	}
	if key, _, ok := syncExprKey(s.pkg.Info, sel.X); ok {
		if _, seen := s.adds[key]; !seen {
			s.adds[key] = call.Pos()
		}
	}
}

// mutexOp reports whether call is Lock/Unlock/RLock/RUnlock on a
// sync.Mutex/RWMutex, returning the canonical key of the mutex.
func (s *syncScope) mutexOp(call *ast.CallExpr, st lockState) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if !isSyncMethod(s.pkg, sel, "Mutex") && !isSyncMethod(s.pkg, sel, "RWMutex") {
		return "", ""
	}
	k, _, ok := syncExprKey(s.pkg.Info, sel.X)
	if !ok {
		return "", ""
	}
	return k, sel.Sel.Name
}

func (s *syncScope) applyMutexOp(call *ast.CallExpr, key, op string, st lockState) {
	sel := call.Fun.(*ast.SelectorExpr)
	_, display, _ := syncExprKey(s.pkg.Info, sel.X)
	switch op {
	case "Lock", "RLock":
		if held, ok := st[key]; ok {
			s.sc.report(call.Pos(), "%s.%s while %s is already held (locked at %s); this self-deadlocks", display, op, display, s.sc.prog.Fset.Position(held.pos))
			return
		}
		st[key] = &lockHeld{display: display, pos: call.Pos(), write: op == "Lock"}
	case "Unlock", "RUnlock":
		if _, ok := st[key]; !ok {
			s.sc.report(call.Pos(), "%s.%s without a matching lock on this path", display, op)
			return
		}
		delete(st, key)
	}
}

// checkHoldsCall enforces a callee's synccheck:holds obligation at
// the call site.
func (s *syncScope) checkHoldsCall(call *ast.CallExpr, callee *types.Func, marker string, st lockState) {
	var required, display string
	if _, rest, found := strings.Cut(marker, "."); found {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base, disp, ok := syncExprKey(s.pkg.Info, sel.X)
		if !ok {
			return
		}
		required, display = base+"."+rest, disp+"."+rest
	} else {
		if callee.Pkg() == nil {
			return
		}
		obj, ok := callee.Pkg().Scope().Lookup(marker).(*types.Var)
		if !ok {
			return
		}
		required, display = varKey(obj), marker
	}
	if _, ok := st[required]; !ok {
		s.sc.report(call.Pos(), "call to %s requires holding %s (synccheck:holds)", callee.Name(), display)
	}
}

// checkGuardedAccess flags reads/writes of guarded fields and package
// vars performed without their mutex.
func (s *syncScope) checkGuardedAccess(id *ast.Ident, sel *ast.SelectorExpr, st lockState, isWrite bool) {
	var obj *types.Var
	if sel != nil {
		if selection, ok := s.pkg.Info.Selections[sel]; ok {
			obj, _ = selection.Obj().(*types.Var)
		} else if v, ok := s.pkg.Info.Uses[sel.Sel].(*types.Var); ok {
			obj = v
		}
	} else if v, ok := s.pkg.Info.Uses[id].(*types.Var); ok {
		obj = v
	}
	if obj == nil {
		return
	}
	guard, guarded := s.sc.guards[obj]
	if !guarded {
		return
	}
	var required, display string
	if guard.mutexObj != nil {
		required, display = varKey(guard.mutexObj), guard.mutexName
	} else {
		if sel == nil {
			return // field object referenced without a selector (shouldn't happen)
		}
		base, disp, ok := syncExprKey(s.pkg.Info, sel.X)
		if !ok {
			s.sc.report(id.Pos(), "access to %s (guarded by %s) through an untrackable expression; synccheck cannot prove %s is held", obj.Name(), guard.mutexName, guard.mutexName)
			return
		}
		required, display = base+"."+guard.mutexName, disp+"."+guard.mutexName
	}
	held, ok := st[required]
	verb := "read"
	if isWrite {
		verb = "write"
	}
	if !ok {
		s.sc.report(id.Pos(), "%s of %s (guarded by %s) without holding %s", verb, obj.Name(), guard.mutexName, display)
		return
	}
	if isWrite && !held.write {
		s.sc.report(id.Pos(), "write of %s (guarded by %s) under RLock; writes need the write lock", obj.Name(), guard.mutexName)
	}
}

// --- module-wide checks after the walks ---

// checkCloseCounts enforces exactly-one-close per channel variable.
func (sc *syncChecker) checkCloseCounts() {
	for v, sites := range sc.closes {
		if len(sites) <= 1 {
			continue
		}
		for _, pos := range sites[1:] {
			sc.report(pos, "channel %s is closed more than once (first close at %s); a second close panics at run time", v.Name(), sc.prog.Fset.Position(sites[0]))
		}
	}
}

// checkBridge walks the static call graph out of every go statement
// (spawned literal bodies were scanned at the spawn) and flags
// nondeterminism sinks and package-level writes.
func (sc *syncChecker) checkBridge() {
	sc.funcs.walk(sc.goCallees, func(fn *moduleFunc, _ *types.Func) []*types.Func {
		return sc.scanBridgeNode(fn.pkg, fn.file, fn.decl.Body, fn.decl.Doc)
	})
}

// scanBridgeNode scans one goroutine-reachable body for sinks and
// global writes, returning the static callees that extend the graph.
func (sc *syncChecker) scanBridgeNode(pkg *Package, file *ast.File, body *ast.BlockStmt, doc *ast.CommentGroup) []*types.Func {
	var callees []*types.Func
	flag := func(pos token.Pos, format string, args ...any) {
		if !sc.nondet.covers(doc, pos) {
			sc.report(pos, format, args...)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pkg.Info, t, "panic") {
				return false // terminal
			}
			if sel, ok := t.Fun.(*ast.SelectorExpr); ok {
				switch {
				case usesPackage(pkg, file, sel, "time") && bannedTimeFuncs[sel.Sel.Name]:
					flag(t.Pos(), "goroutine-reachable code calls time.%s; wall-clock reads break the byte-identical parallel-output contract (audit with synccheck:nondet if it cannot reach results)", sel.Sel.Name)
				case usesPackage(pkg, file, sel, "os") && bannedOSFuncs[sel.Sel.Name]:
					flag(t.Pos(), "goroutine-reachable code calls os.%s; environment reads are nondeterministic across runs", sel.Sel.Name)
				case usesPackage(pkg, file, sel, "math/rand") || usesPackage(pkg, file, sel, "math/rand/v2"):
					flag(t.Pos(), "goroutine-reachable code calls the process-global math/rand; use a seeded internal/rng stream owned by one goroutine")
				}
			}
			if callee := staticCallee(pkg.Info, t); callee != nil {
				callees = append(callees, callee)
			}
		case *ast.AssignStmt:
			for _, l := range t.Lhs {
				sc.flagGlobalWrite(pkg, flag, l)
			}
		case *ast.IncDecStmt:
			sc.flagGlobalWrite(pkg, flag, t.X)
		}
		return true
	})
	return callees
}

// flagGlobalWrite reports an assignment target that is (or roots in) a
// package-level variable, unless that variable is itself guarded (the
// guarded-by discipline already polices those).
func (sc *syncChecker) flagGlobalWrite(pkg *Package, flag func(token.Pos, string, ...any), target ast.Expr) {
	root := rootIdent(target)
	if root == nil {
		return
	}
	v, ok := pkg.Info.Uses[root].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return // not package-level
	}
	if _, guarded := sc.guards[v]; guarded {
		return
	}
	flag(target.Pos(), "goroutine-reachable code writes package-level var %s; shared globals make parallel runs order-dependent (guard it with synccheck:guardedby or pass state explicitly)", v.Name())
}

// --- type and marker helpers ---

// isSyncMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	return isNamedSyncType(t, "Mutex") || isNamedSyncType(t, "RWMutex")
}

// isSyncPackageType reports whether t is any named type from sync or
// sync/atomic — self-synchronizing, so exempt from guard totality.
func isSyncPackageType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}

func isNamedSyncType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// isSyncMethod reports whether sel selects a method of the named sync
// type (directly or through an embedded field).
func isSyncMethod(pkg *Package, sel *ast.SelectorExpr, typeName string) bool {
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return isNamedSyncType(rt, typeName)
}

// fieldType resolves a struct field's type.
func fieldType(pkg *Package, f *ast.Field) types.Type {
	return exprType(pkg.Info, f.Type)
}

// fieldLabel names a field list entry for diagnostics.
func fieldLabel(f *ast.Field) string {
	if len(f.Names) == 0 {
		return "(embedded)"
	}
	names := make([]string, len(f.Names))
	for i, n := range f.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// fieldMarkerReason extracts a `marker <rest>` line from a field's
// doc or trailing line comment.
func fieldMarkerReason(f *ast.Field, marker string) (string, bool) {
	if r, ok := markerReason(f.Doc, marker); ok {
		return r, true
	}
	return markerReason(f.Comment, marker)
}

// syncExprKey canonicalizes a mutex/field base expression to an
// identity key (rooted at the variable object, so two locals with the
// same name never collide) plus a human-readable rendering.
func syncExprKey(info *types.Info, e ast.Expr) (key, display string, ok bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		var obj types.Object
		if u, found := info.Uses[t]; found {
			obj = u
		} else if d, found := info.Defs[t]; found {
			obj = d
		}
		if v, isVar := obj.(*types.Var); isVar {
			return varKey(v), t.Name, true
		}
		return "", "", false
	case *ast.SelectorExpr:
		base, disp, okBase := syncExprKey(info, t.X)
		if !okBase {
			return "", "", false
		}
		return base + "." + t.Sel.Name, disp + "." + t.Sel.Name, true
	case *ast.StarExpr:
		return syncExprKey(info, t.X)
	case *ast.IndexExpr:
		base, disp, okBase := syncExprKey(info, t.X)
		if !okBase {
			return "", "", false
		}
		switch idx := ast.Unparen(t.Index).(type) {
		case *ast.BasicLit:
			return base + "[" + idx.Value + "]", disp + "[" + idx.Value + "]", true
		case *ast.Ident:
			ik, id, okIdx := syncExprKey(info, idx)
			if okIdx {
				return base + "[" + ik + "]", disp + "[" + id + "]", true
			}
		}
		return "", "", false
	}
	return "", "", false
}

// varKey is the identity key of one variable object.
func varKey(v *types.Var) string {
	return "v@" + strconv.FormatUint(uint64(v.Pos()), 10) + "/" + v.Name()
}

// isTerminalCall reports whether an expression statement is a panic
// call, ending the control-flow path.
func isTerminalCall(pkg *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isBuiltinCall(pkg.Info, call, "panic")
}
