package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// LockCheck enforces the suite's lock contracts: annotated fields are
// only touched with their mutex held, annotated functions are only
// called with their mutex held (and analyze with it held at entry), and
// declared lock orders are respected.
//
// Annotations (field doc/trailing comment, function doc):
//
//	//tcrowd:guardedby mu            // field: sibling mutex on the struct
//	//tcrowd:guardedby Platform.mu   // field: mutex on another type
//	//tcrowd:locked mu               // func: caller holds receiver's mu
//	//tcrowd:locked Platform.mu      // func: caller holds Platform's mu
//
// The legacy prose forms "guarded by <mu>" and "Caller holds <mu>" parse
// to the same contracts, so the comments the codebase already carries
// are machine-checked without rewriting them.
//
// Package-level lock-order directives live in the package comment:
//
//	//tcrowd:lockorder Project.inferMu < Platform.mu
//
// meaning inferMu is acquired before mu: taking Project.inferMu while
// Platform.mu is held is a violation. A directive that is malformed, or
// names a type or mutex field the package does not declare, is reported:
// a stale order would otherwise check nothing without a word.
//
// The analysis is intra-procedural and deliberately conservative in what
// it tracks: Lock/RLock add a mutex to the held set, Unlock/RUnlock
// remove it, deferred unlocks keep it held to the end of the function,
// locks taken inside a branch do not survive the branch, and the
// "if x.TryLock() { ... }" / "if !x.TryLock() { return }" idioms are
// recognized. A held mutex satisfies a contract when either the guarding
// expression matches textually ("proj.inferMu" locked, "proj.absorbed"
// touched) or the mutex's owning type matches the annotation — the type
// match keeps aliased receivers (p vs proj) from raising false alarms at
// the cost of not distinguishing two instances of one type.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "reports accesses to guarded fields and calls to locked functions without the contracted mutex held",
	Run:  runLockCheck,
}

// guardSpec is one resolved lock contract: the mutex field name and the
// name of the type that owns it.
type guardSpec struct {
	mu    string
	owner string
	// structName is the type the annotation sits on (for messages).
	structName string
	// member is the annotated field/function name (for messages).
	member string
}

func (g guardSpec) guardName() string {
	if g.owner == "" {
		return g.mu
	}
	return g.owner + "." + g.mu
}

// heldKey identifies one held mutex: the rendered base expression it was
// locked through ("proj" for proj.inferMu.Lock), the mutex field name,
// and the owning type's bare name.
type heldKey struct {
	base string
	mu   string
	typ  string
}

type heldSet map[heldKey]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// satisfied reports whether some held mutex discharges a contract on
// muName owned by ownerType, accessed through baseRender ("" when the
// access has no usable base expression).
func (h heldSet) satisfied(muName, ownerType, baseRender string) bool {
	for k := range h {
		if k.mu != muName {
			continue
		}
		if baseRender != "" && k.base == baseRender {
			return true
		}
		if ownerType != "" && k.typ == ownerType {
			return true
		}
	}
	return false
}

// lockOrder declares that (firstOwner.firstMu) is acquired before
// (thenOwner.thenMu): taking first while then is held is a violation.
type lockOrder struct {
	firstOwner, firstMu string
	thenOwner, thenMu   string
}

func runLockCheck(pass *Pass) error {
	c := &lockChecker{
		pass:   pass,
		guards: collectFieldGuards(pass),
		locked: collectLockedFuncs(pass),
		orders: collectLockOrders(pass),
	}
	if len(c.guards) == 0 && len(c.locked) == 0 && len(c.orders) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := heldSet{}
			c.addEntryHeld(fd, held)
			c.stmts(fd.Body.List, held)
		}
	}
	return nil
}

// resolveGuardRef normalizes an annotation's mutex reference. "mu" and
// "p.mu" (lowercase receiver) resolve against the enclosing type;
// "Platform.mu" names the owning type explicitly.
func resolveGuardRef(ref, enclosingType string) (mu, owner string, ok bool) {
	ref = trimProseRef(ref)
	if ref == "" {
		return "", "", false
	}
	parts := strings.Split(ref, ".")
	switch len(parts) {
	case 1:
		if enclosingType == "" {
			return "", "", false
		}
		return parts[0], enclosingType, true
	case 2:
		first := []rune(parts[0])[0]
		if unicode.IsUpper(first) {
			return parts[1], parts[0], true
		}
		// "p.mu": receiver-relative prose form.
		if enclosingType == "" {
			return "", "", false
		}
		return parts[1], enclosingType, true
	}
	return "", "", false
}

// guardRefs extracts mutex references from directives and legacy prose
// in the comment groups.
func guardRefs(directive string, prose func(string) []string, groups ...*ast.CommentGroup) []string {
	var refs []string
	for _, d := range parseDirectives(groups...) {
		if d.Name == directive && len(d.Args) > 0 {
			refs = append(refs, d.Args[0])
		}
	}
	for _, g := range groups {
		if g == nil {
			continue
		}
		refs = append(refs, prose(g.Text())...)
	}
	return refs
}

func proseGuardRefs(text string) []string {
	var out []string
	for _, m := range proseGuard.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

func proseHoldsRefs(text string) []string {
	var out []string
	for _, m := range proseHolds.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// collectFieldGuards maps struct field objects to their lock contracts.
// A //tcrowd:guardedby directive on the type declaration itself applies
// to every field except the sync primitives (the mutex cannot guard
// itself); per-field annotations override it.
func collectFieldGuards(pass *Pass) map[types.Object]guardSpec {
	out := map[types.Object]guardSpec{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var structRef string
				for _, d := range parseDirectives(gd.Doc, ts.Doc) {
					if d.Name == "guardedby" && len(d.Args) > 0 {
						structRef = d.Args[0]
					}
				}
				for _, field := range st.Fields.List {
					refs := guardRefs("guardedby", proseGuardRefs, field.Doc, field.Comment)
					if len(refs) == 0 && structRef != "" && !isSyncField(pass.TypesInfo, field) {
						refs = []string{structRef}
					}
					if len(refs) == 0 {
						continue
					}
					mu, owner, ok := resolveGuardRef(refs[0], ts.Name.Name)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							out[obj] = guardSpec{mu: mu, owner: owner, structName: ts.Name.Name, member: name.Name}
						}
					}
				}
			}
		}
	}
	return out
}

// isSyncField reports whether the field's type lives in package sync
// (Mutex, RWMutex, Cond, Once, WaitGroup, ...), directly or behind a
// pointer — the fields a struct-level guardedby must not cover.
func isSyncField(info *types.Info, field *ast.Field) bool {
	_, ok := syncTypeName(info.TypeOf(field.Type))
	return ok
}

// syncTypeName returns the name of t's type when it lives in package sync,
// directly or behind a pointer.
func syncTypeName(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return "", false
	}
	return n.Obj().Name(), true
}

// collectLockedFuncs maps function objects to their caller-holds
// contracts.
func collectLockedFuncs(pass *Pass) map[types.Object]guardSpec {
	out := map[types.Object]guardSpec{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			refs := guardRefs("locked", proseHoldsRefs, fd.Doc)
			if len(refs) == 0 {
				continue
			}
			mu, owner, ok := resolveGuardRef(refs[0], recvTypeName(fd))
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				out[obj] = guardSpec{mu: mu, owner: owner, structName: recvTypeName(fd), member: fd.Name.Name}
			}
		}
	}
	return out
}

// collectLockOrders parses the package's lock-order directives, reporting
// each one it cannot use.
func collectLockOrders(pass *Pass) []lockOrder {
	var out []lockOrder
	for _, d := range pass.packageDirectives() {
		if d.Name != "lockorder" {
			continue
		}
		if len(d.Args) != 3 || d.Args[1] != "<" || !strings.Contains(d.Args[0], ".") || !strings.Contains(d.Args[2], ".") {
			pass.Reportf(d.Pos, "malformed lock-order directive %q: want Type.mu < Type.mu", strings.Join(d.Args, " "))
			continue
		}
		fo, fm, _ := strings.Cut(d.Args[0], ".")
		to, tm, _ := strings.Cut(d.Args[2], ".")
		known := declaresMutex(pass.Pkg, fo, fm)
		if !known {
			pass.Reportf(d.Pos, "lock-order directive names %s, but the package declares no such mutex field", d.Args[0])
		}
		if !declaresMutex(pass.Pkg, to, tm) {
			pass.Reportf(d.Pos, "lock-order directive names %s, but the package declares no such mutex field", d.Args[2])
			known = false
		}
		if known {
			out = append(out, lockOrder{firstOwner: fo, firstMu: fm, thenOwner: to, thenMu: tm})
		}
	}
	return out
}

// declaresMutex reports whether pkg declares a type owner (exported or
// not) with a sync.Mutex or sync.RWMutex field mu.
func declaresMutex(pkg *types.Package, owner, mu string) bool {
	tn, ok := pkg.Scope().Lookup(owner).(*types.TypeName)
	if !ok {
		return false
	}
	f, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, mu)
	v, ok := f.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	name, ok := syncTypeName(v.Type())
	return ok && strings.HasSuffix(name, "Mutex")
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// ---- the walker ----

type lockChecker struct {
	pass   *Pass
	guards map[types.Object]guardSpec
	locked map[types.Object]guardSpec
	orders []lockOrder
}

// lockOp is one recognized mutex method call.
type lockOp struct {
	key     heldKey
	acquire bool
	read    bool // RLock/RUnlock
	try     bool
}

// lockCall recognizes x.Lock() / x.RLock() / x.Unlock() / x.RUnlock() /
// x.TryLock() / x.TryRLock() where the method belongs to package sync
// (including promoted embedded mutexes).
func (c *lockChecker) lockCall(e ast.Expr) (lockOp, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return lockOp{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire = true
	case "RLock":
		op.acquire, op.read = true, true
	case "TryLock":
		op.acquire, op.try = true, true
	case "TryRLock":
		op.acquire, op.read, op.try = true, true, true
	case "Unlock":
	case "RUnlock":
		op.read = true
	default:
		return lockOp{}, false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch me := sel.X.(type) {
	case *ast.SelectorExpr:
		op.key = heldKey{base: exprString(me.X), mu: me.Sel.Name, typ: namedTypeName(c.pass.TypesInfo, me.X)}
	case *ast.Ident:
		op.key = heldKey{mu: me.Name, typ: ""}
	default:
		op.key = heldKey{base: exprString(me), mu: "?", typ: namedTypeName(c.pass.TypesInfo, me)}
	}
	return op, true
}

func (c *lockChecker) applyLock(op lockOp, held heldSet, pos token.Pos) {
	if op.acquire {
		for _, o := range c.orders {
			if op.key.mu != o.firstMu || op.key.typ != o.firstOwner {
				continue
			}
			for k := range held {
				if k.mu == o.thenMu && k.typ == o.thenOwner {
					c.pass.Reportf(pos, "lock order violation: %s.%s acquired while %s.%s is held (declared order: %s.%s < %s.%s)",
						o.firstOwner, o.firstMu, o.thenOwner, o.thenMu, o.firstOwner, o.firstMu, o.thenOwner, o.thenMu)
				}
			}
		}
		held[op.key] = true
		return
	}
	// Release: drop every entry for the same (base, mu) pair.
	for k := range held {
		if k.mu == op.key.mu && k.base == op.key.base {
			delete(held, k)
		}
	}
}

func (c *lockChecker) addEntryHeld(fd *ast.FuncDecl, held heldSet) {
	obj := c.pass.TypesInfo.Defs[fd.Name]
	spec, ok := c.locked[obj]
	if !ok {
		return
	}
	recvName := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvName = fd.Recv.List[0].Names[0].Name
	}
	if spec.owner == recvTypeName(fd) && recvName != "" {
		held[heldKey{base: recvName, mu: spec.mu, typ: spec.owner}] = true
		return
	}
	held[heldKey{base: "", mu: spec.mu, typ: spec.owner}] = true
}

func (c *lockChecker) stmts(list []ast.Stmt, held heldSet) {
	for _, s := range list {
		c.stmt(s, held)
	}
}

func (c *lockChecker) stmt(s ast.Stmt, held heldSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if op, ok := c.lockCall(s.X); ok {
			c.applyLock(op, held, s.X.Pos())
			return
		}
		c.expr(s.X, held)
	case *ast.DeferStmt:
		if op, ok := c.lockCall(s.Call); ok {
			if op.acquire {
				c.applyLock(op, held, s.Call.Pos())
			}
			// Deferred unlock: the mutex stays held to function end.
			return
		}
		c.expr(s.Call, held)
	case *ast.GoStmt:
		// Arguments evaluate now (under the current locks); the body
		// runs later on another goroutine holding nothing.
		for _, a := range s.Call.Args {
			c.expr(a, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, heldSet{})
		} else {
			c.checkCallTarget(s.Call, heldSet{})
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, held)
		}
		for _, e := range s.Lhs {
			c.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		bodyHeld := held.clone()
		afterOp, afterOK := lockOp{}, false
		if op, ok := c.tryLockCond(s.Cond, false); ok {
			// if x.TryLock() { ... held inside ... }
			bodyHeld[op.key] = true
		} else if op, ok := c.tryLockCond(s.Cond, true); ok && terminates(s.Body) {
			// if !x.TryLock() { return } — held after the if.
			afterOp, afterOK = op, true
		} else {
			c.expr(s.Cond, held)
		}
		c.stmts(s.Body.List, bodyHeld)
		if s.Else != nil {
			c.stmt(s.Else, held.clone())
		}
		if afterOK {
			held[afterOp.key] = true
		}
	case *ast.BlockStmt:
		c.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Cond != nil {
			c.expr(s.Cond, held)
		}
		inner := held.clone()
		c.stmts(s.Body.List, inner)
		if s.Post != nil {
			c.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.expr(s.X, held)
		if s.Key != nil {
			c.expr(s.Key, held)
		}
		if s.Value != nil {
			c.expr(s.Value, held)
		}
		c.stmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				for _, e := range clause.List {
					c.expr(e, held)
				}
				c.stmts(clause.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.stmt(s.Assign, held)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.stmts(clause.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				inner := held.clone()
				if clause.Comm != nil {
					c.stmt(clause.Comm, inner)
				}
				c.stmts(clause.Body, inner)
			}
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, held)
		}
	case *ast.SendStmt:
		c.expr(s.Chan, held)
		c.expr(s.Value, held)
	case *ast.IncDecStmt:
		c.expr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, held)
					}
				}
			}
		}
	}
}

// tryLockCond matches a TryLock/TryRLock call condition, optionally
// under a single negation.
func (c *lockChecker) tryLockCond(cond ast.Expr, negated bool) (lockOp, bool) {
	if negated {
		un, ok := cond.(*ast.UnaryExpr)
		if !ok || un.Op != token.NOT {
			return lockOp{}, false
		}
		cond = un.X
	}
	op, ok := c.lockCall(cond)
	if !ok || !op.try {
		return lockOp{}, false
	}
	return op, true
}

// terminates reports whether the block always leaves the enclosing
// function or loop iteration (return, branch, panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// expr walks an expression, checking guarded-field accesses and calls to
// locked functions against the current held set.
func (c *lockChecker) expr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Inline closures (sort.Slice comparators, etc.) run on this
			// goroutine under the current locks.
			c.stmts(n.Body.List, held.clone())
			return false
		case *ast.CompositeLit:
			// Struct-literal keys are field names, not reads; values are.
			isStruct := false
			if t := c.pass.TypesInfo.TypeOf(n); t != nil {
				_, isStruct = t.Underlying().(*types.Struct)
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && isStruct {
					c.expr(kv.Value, held)
					continue
				}
				c.expr(elt, held)
			}
			return false
		case *ast.CallExpr:
			c.checkCallTarget(n, held)
			return true
		case *ast.SelectorExpr:
			c.checkGuardedAccess(n, held)
			return true
		}
		return true
	})
}

func (c *lockChecker) checkGuardedAccess(sel *ast.SelectorExpr, held heldSet) {
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	spec, ok := c.guards[obj]
	if !ok {
		return
	}
	if held.satisfied(spec.mu, spec.owner, exprString(sel.X)) {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s but the lock is not held here",
		spec.structName, spec.member, spec.guardName())
}

func (c *lockChecker) checkCallTarget(call *ast.CallExpr, held heldSet) {
	var obj types.Object
	base := ""
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
		base = exprString(fun.X)
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	default:
		return
	}
	spec, ok := c.locked[obj]
	if !ok {
		return
	}
	if held.satisfied(spec.mu, spec.owner, base) {
		return
	}
	c.pass.Reportf(call.Pos(), "call to %s requires %s held (declared by its caller-holds contract)",
		spec.member, spec.guardName())
}
