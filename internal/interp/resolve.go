// Resolution: the one-time translation of a program into closures.
//
// NewSession turns every function a run can reach into a tree of Go
// closures, once, and every run of the session executes them. What
// depends only on the program is decided here instead of at every
// statement of every schedule: each variable becomes a (frame hops,
// slot) address with the usual lexical shadowing, each call its callee
// or intrinsic, and each MPI statement's operation, reduction and
// location string, each CC operation name and each "return:<fn>" id a
// constant.
//
// A function activation gets one frame holding a cell per declaration
// slot; each team member's region body gets its own frame, chained to
// the forker's, so variables declared before a parallel region stay
// shared and declarations inside it stay private. The closures hold no
// run state — that lives in the thread contexts and their frames — so
// concurrent runs of one session share them read-only.
//
// A name that cannot be bound here (only trees that skipped sem have
// one) becomes a closure that fails at run time, at the same statement
// and with the same error a lookup at run time would give.
package interp

import (
	"errors"
	"fmt"
	"strings"

	"parcoach/internal/ast"
	"parcoach/internal/monitor"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/source"
	"parcoach/internal/token"
)

// frame holds the variables of one function activation or of one team
// member's region body, one cell per declaration slot. up is the
// forker's frame for a region body and nil for a function.
type frame struct {
	up    *frame
	cells []cell
}

// at returns the cell of the given slot, hops frames up.
func (f *frame) at(hops, slot int) *cell {
	for ; hops > 0; hops-- {
		f = f.up
	}
	return &f.cells[slot]
}

type (
	// intFn evaluates an expression whose value must be a scalar.
	intFn func(c *thctx, f *frame) (int64, error)
	// valFn evaluates an expression that may name an array.
	valFn func(c *thctx, f *frame) (value, error)
	// storeFn assigns v to an lvalue under one assignment operator.
	storeFn func(c *thctx, f *frame, v int64) error
	// vecFn stores a collective's vector result into an array.
	vecFn func(c *thctx, f *frame, vec []int64) error
)

// stmt is one resolved statement.
type stmt struct {
	pos source.Pos
	run func(c *thctx, f *frame) error
}

// exec runs the statement behind its statement boundary: every executed
// statement steps exactly once, before it runs.
func (s *stmt) exec(c *thctx, f *frame) error {
	if err := c.step(s.pos); err != nil {
		return err
	}
	return s.run(c, f)
}

// errReturn unwinds a function body from its return statement; the
// returned value is in thctx.ret.
var errReturn = errors.New("return")

type block []stmt

func (b block) exec(c *thctx, f *frame) error {
	for i := range b {
		if err := b[i].exec(c, f); err != nil {
			return err
		}
	}
	return nil
}

// run executes the body of a threading construct, where a return ends
// only the body.
func (b block) run(c *thctx, f *frame) error {
	if err := b.exec(c, f); err != errReturn {
		return err
	}
	return nil
}

// funcCode is one resolved function. Calls point at it before its body
// is built, so recursion resolves like any other call.
type funcCode struct {
	decl  *ast.FuncDecl
	slots int // frame size: the parameters first, then every declaration
	body  block
}

// call runs fn on a frame whose parameter slots hold the arguments. The
// parameters get their trace ids left to right once every argument is
// evaluated. The frame goes back to the free list only on a clean
// return.
func (c *thctx) call(fn *funcCode, fr *frame) (int64, error) {
	if c.trace {
		for i := range fn.decl.Params {
			fr.cells[i].id = c.r.tr.nextAlloc()
		}
	}
	err := fn.body.exec(c, fr)
	ret := int64(0)
	if err == errReturn {
		ret, err = c.ret, nil
	}
	if err != nil {
		return 0, err
	}
	c.releaseFrame(fr)
	return ret, nil
}

// runMain runs a rank's main function.
func (c *thctx) runMain(fn *funcCode) (int64, error) {
	if n := len(fn.decl.Params); n != 0 {
		return 0, c.errf(fn.decl.NamePos, "function %q expects %d argument(s), got 0", fn.decl.Name, n)
	}
	return c.call(fn, c.newFrame(nil, fn.slots))
}

// define binds a slot to a fresh value. Traced runs stamp the cell
// with its schedule-ordered allocation id, the identity trace tags use
// in place of the machine address, which frame recycling decides; a
// slot declared again, as in a loop body, gets a fresh id like a fresh
// variable.
func (c *thctx) define(cl *cell, v value) {
	cl.v = v
	if c.trace {
		cl.id = c.r.tr.nextAlloc()
	}
}

// resolve builds the code of prog's main function and of every function
// it can reach; nil when prog has no main.
func resolve(prog *ast.Program) *funcCode {
	decl := prog.Func("main")
	if decl == nil {
		return nil
	}
	b := &builder{prog: prog, funcs: make(map[*ast.FuncDecl]*funcCode)}
	main := b.funcOf(decl)
	for len(b.todo) > 0 {
		fn := b.todo[len(b.todo)-1]
		b.todo = b.todo[:len(b.todo)-1]
		b.function(fn)
	}
	return main
}

// builder holds the resolution state: the functions resolved so far and
// the scopes and frame layouts at the point being built.
type builder struct {
	prog  *ast.Program
	funcs map[*ast.FuncDecl]*funcCode
	todo  []*funcCode
	fn    *ast.FuncDecl
	sc    *scope
	fr    *layout
}

// layout counts the slots of one frame being built.
type layout struct {
	up *layout
	n  int
}

// scope is one lexical scope: its names in declaration order, each with
// its slot in the frame fr.
type scope struct {
	up    *scope
	fr    *layout
	names []string
	slots []int
}

func (b *builder) funcOf(decl *ast.FuncDecl) *funcCode {
	fn := b.funcs[decl]
	if fn == nil {
		fn = &funcCode{decl: decl}
		b.funcs[decl] = fn
		b.todo = append(b.todo, fn)
	}
	return fn
}

// function builds fn's body. The parameters sit in a scope outside the
// body's top-level block.
func (b *builder) function(fn *funcCode) {
	b.fn = fn.decl
	b.fr = &layout{}
	b.sc = &scope{fr: b.fr}
	for _, p := range fn.decl.Params {
		b.local(p)
	}
	fn.body = b.block(fn.decl.Body)
	fn.slots = b.fr.n
}

// local gives name the next slot of the current frame, shadowing any
// earlier binding from here on.
func (b *builder) local(name string) int {
	slot := b.fr.n
	b.fr.n++
	b.sc.names = append(b.sc.names, name)
	b.sc.slots = append(b.sc.slots, slot)
	return slot
}

// lookup resolves name at the current point: the latest declaration in
// the innermost scope that has one.
func (b *builder) lookup(name string) (hops, slot int, ok bool) {
	for sc := b.sc; sc != nil; sc = sc.up {
		for i := len(sc.names) - 1; i >= 0; i-- {
			if sc.names[i] == name {
				for l := b.fr; l != sc.fr; l = l.up {
					hops++
				}
				return hops, sc.slots[i], true
			}
		}
	}
	return 0, 0, false
}

func (b *builder) push() { b.sc = &scope{up: b.sc, fr: b.fr} }
func (b *builder) pop()  { b.sc = b.sc.up }

func (b *builder) block(bl *ast.Block) block {
	b.push()
	out := make(block, len(bl.Stmts))
	for i, s := range bl.Stmts {
		out[i] = stmt{pos: s.Pos(), run: b.stmt(s)}
	}
	b.pop()
	return out
}

// region builds a parallel region's body in a frame of its own, chained
// to the forker's, and returns the body with its frame size.
func (b *builder) region(bl *ast.Block) (block, int) {
	b.fr = &layout{up: b.fr}
	b.sc = &scope{up: b.sc, fr: b.fr}
	body := b.block(bl)
	n := b.fr.n
	b.sc, b.fr = b.sc.up, b.fr.up
	return body, n
}

func (b *builder) stmt(s ast.Stmt) func(*thctx, *frame) error {
	switch s := s.(type) {
	case *ast.Block:
		return b.block(s).exec

	case *ast.VarDecl:
		name, pos := s.Name, s.VarPos
		if s.ArraySize != nil {
			size := b.intExpr(s.ArraySize)
			slot := b.local(name)
			return func(c *thctx, f *frame) error {
				n, err := size(c, f)
				if err != nil {
					return err
				}
				if n < 0 {
					return c.errf(pos, "invalid array size %d for %q", n, name)
				}
				if n > maxArrayElems-c.r.arrayElems {
					return c.errf(pos, "array %q of %d elements exceeds the run's budget of %d array elements (%d declared)",
						name, n, maxArrayElems, c.r.arrayElems)
				}
				c.r.arrayElems += n
				av := value{arr: make([]int64, n)}
				if c.trace {
					av.aid = c.r.tr.nextAlloc()
				}
				c.define(&f.cells[slot], av)
				return nil
			}
		}
		init := b.intOr(s.Init, 0)
		slot := b.local(name)
		return func(c *thctx, f *frame) error {
			v, err := init(c, f)
			if err != nil {
				return err
			}
			c.define(&f.cells[slot], scalar(v))
			return nil
		}

	case *ast.Assign:
		val, store := b.intExpr(s.Value), b.store(s.Target, s.Op)
		return func(c *thctx, f *frame) error {
			v, err := val(c, f)
			if err != nil {
				return err
			}
			return store(c, f, v)
		}

	case *ast.CallStmt:
		call := b.intExpr(s.Call)
		return func(c *thctx, f *frame) error {
			_, err := call(c, f)
			return err
		}

	case *ast.If:
		cond, then := b.intExpr(s.Cond), b.block(s.Then)
		var els *stmt
		if s.Else != nil {
			// The else arm is a statement of its own and steps.
			els = &stmt{pos: s.Else.Pos(), run: b.stmt(s.Else)}
		}
		return func(c *thctx, f *frame) error {
			v, err := cond(c, f)
			if err != nil {
				return err
			}
			if v != 0 {
				return then.exec(c, f)
			}
			if els != nil {
				return els.exec(c, f)
			}
			return nil
		}

	case *ast.For:
		from, to := b.intExpr(s.From), b.intExpr(s.To)
		b.push()
		slot := b.local(s.Var)
		body := b.block(s.Body)
		b.pop()
		pos := s.ForPos
		return func(c *thctx, f *frame) error {
			lo, err := from(c, f)
			if err != nil {
				return err
			}
			hi, err := to(c, f)
			if err != nil {
				return err
			}
			v := &f.cells[slot]
			c.define(v, scalar(lo))
			for i := lo; i < hi; i++ {
				v.v = scalar(i)
				if err := body.exec(c, f); err != nil {
					return err
				}
				if err := c.step(pos); err != nil {
					return err
				}
			}
			return nil
		}

	case *ast.While:
		cond, body, pos := b.intExpr(s.Cond), b.block(s.Body), s.WhilePos
		return func(c *thctx, f *frame) error {
			for {
				v, err := cond(c, f)
				if err != nil || v == 0 {
					return err
				}
				if err := body.exec(c, f); err != nil {
					return err
				}
				if err := c.step(pos); err != nil {
					return err
				}
			}
		}

	case *ast.Return:
		val := b.intOr(s.Value, 0)
		return func(c *thctx, f *frame) error {
			v, err := val(c, f)
			if err != nil {
				return err
			}
			c.ret = v
			return errReturn
		}

	case *ast.Print:
		args := make([]valFn, len(s.Args))
		for i, a := range s.Args {
			args[i] = b.valExpr(a)
		}
		pos := s.Pos()
		return func(c *thctx, f *frame) error {
			parts := make([]string, len(args))
			for i, a := range args {
				v, err := a(c, f)
				if err != nil {
					return err
				}
				if v.arr != nil {
					parts[i] = fmt.Sprint(v.arr)
				} else {
					parts[i] = fmt.Sprint(v.i)
				}
			}
			line := fmt.Sprintf("r%d: %s\n", c.p.Rank(), strings.Join(parts, " "))
			if printed := c.r.output.Len(); len(line) > maxOutputBytes-printed {
				return c.errf(pos, "print of %d bytes exceeds the run's budget of %d output bytes (%d printed)",
					len(line), maxOutputBytes, printed)
			}
			c.r.printLine(line)
			return nil
		}

	case *ast.MPIStmt:
		return b.mpi(s)

	case *ast.ParallelStmt:
		var numThreads intFn
		if s.NumThreads != nil {
			numThreads = b.intExpr(s.NumThreads)
		}
		body, slots := b.region(s.Body)
		pos := s.Pos()
		return func(c *thctx, f *frame) error {
			n := 0
			if numThreads != nil {
				nv, err := numThreads(c, f)
				if err != nil {
					return err
				}
				if nv > maxWidth {
					return c.errf(pos, "team of %d threads exceeds the limit of %d", nv, maxWidth)
				}
				n = int(nv)
			}
			return c.parallel(pos, n, body, slots, f)
		}

	case *ast.SingleStmt:
		body, id, nowait := b.block(s.Body), s.RegionID, s.Nowait
		return func(c *thctx, f *frame) error {
			if c.trace {
				// The first-arrival election is decided by arrival order, so
				// arrivals of one single region conflict.
				c.tagSingle(id)
			}
			if c.th.Single(id) {
				if err := body.run(c, f); err != nil {
					return err
				}
			}
			return c.endConstruct(nowait)
		}

	case *ast.MasterStmt:
		body := b.block(s.Body)
		return func(c *thctx, f *frame) error {
			if c.th.Master() {
				return body.run(c, f)
			}
			return nil
		}

	case *ast.CriticalStmt:
		body, name := b.block(s.Body), s.Name
		return func(c *thctx, f *frame) error {
			if c.trace {
				// Acquisition order is schedule-dependent: the queue write
				// conflicts across threads. The handoff acquire must wait
				// until entry *returns* — tagged at entry it would land in
				// the blocked event, before the previous holder's release.
				c.tagWrite(c.critQObj(name))
			}
			if err := c.rt.CriticalEnter(c.th, name); err != nil {
				return err
			}
			if c.trace {
				c.tagAcq(c.critHObj(name))
			}
			err := body.run(c, f)
			if c.trace {
				c.tagRel(c.critHObj(name))
			}
			c.rt.CriticalExit(c.th, name)
			return err
		}

	case *ast.BarrierStmt:
		return func(c *thctx, f *frame) error { return c.endConstruct(false) }

	case *ast.AtomicStmt:
		val, store := b.intExpr(s.Value), b.store(s.Target, s.Op)
		return func(c *thctx, f *frame) error {
			// No statement boundary falls between the store's read and its
			// write, so no other thread runs in between: under
			// serialization the update is atomic.
			v, err := val(c, f)
			if err != nil {
				return err
			}
			return store(c, f, v)
		}

	case *ast.PforStmt:
		from, to := b.intExpr(s.From), b.intExpr(s.To)
		b.push()
		slot := b.local(s.Var)
		body := b.block(s.Body)
		b.pop()
		id, dynamic, nowait, pos := s.RegionID, s.Sched == ast.ScheduleDynamic, s.Nowait, s.PforPos
		return func(c *thctx, f *frame) error {
			lo, err := from(c, f)
			if err != nil {
				return err
			}
			hi, err := to(c, f)
			if err != nil {
				return err
			}
			var loop *omp.ForLoop
			if dynamic {
				loop = c.th.DynamicFor(id, lo, hi)
			} else {
				loop = c.th.StaticFor(id, lo, hi)
			}
			v := &f.cells[slot]
			c.define(v, scalar(0))
			for {
				if c.trace && dynamic {
					// Dynamic chunk claiming is arrival-order dependent;
					// static partitioning is a pure function of (tid, bounds).
					c.tagDynNext(id)
				}
				i, ok := loop.Next()
				if !ok {
					break
				}
				v.v = scalar(i)
				if err := body.run(c, f); err != nil {
					return err
				}
				if err := c.step(pos); err != nil {
					return err
				}
			}
			return c.endConstruct(nowait)
		}

	case *ast.SectionsStmt:
		bodies := make([]block, len(s.Bodies))
		for i, bl := range s.Bodies {
			bodies[i] = b.block(bl)
		}
		id, nowait := s.RegionID, s.Nowait
		return func(c *thctx, f *frame) error {
			first, stride := c.th.Sections(id)
			for idx := first; idx < len(bodies); idx += stride {
				if err := bodies[idx].run(c, f); err != nil {
					return err
				}
			}
			return c.endConstruct(nowait)
		}

	case *ast.InstrCC:
		op, at, once := s.OpName(), s.At, s.Once
		return func(c *thctx, f *frame) error { return c.execCC(op, at, once) }

	case *ast.InstrCCReturn:
		op, at, once := "return:"+b.fn.Name, s.At, s.Once
		return func(c *thctx, f *frame) error { return c.execCC(op, at, once) }

	case *ast.InstrPhaseCount:
		node, kind, at := s.NodeID, s.CollKind.String(), s.At
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagVerifier()
			}
			return c.r.ver.PhaseCount(c.p, c.th, node, kind, at)
		}

	case *ast.InstrMonoCheck, *ast.InstrConcNote:
		// Markers: they take their statement step and check nothing
		// (the phase counts of the collectives they guard do).
		return func(c *thctx, f *frame) error { return nil }
	}
	return func(c *thctx, f *frame) error { return c.errf(s.Pos(), "unhandled statement %T", s) }
}

// endConstruct runs a worksharing construct's closing team barrier
// unless it is nowait; a barrier statement is one on its own.
func (c *thctx) endConstruct(nowait bool) error {
	if nowait {
		return nil
	}
	c.r.barriers++
	return c.barrier()
}

// parallel forks a team of n threads (the default size when n <= 0)
// that each run body in a frame of slots cells chained to f, the
// forker's.
func (c *thctx) parallel(pos source.Pos, n int, body block, slots int, f *frame) error {
	// The fork is itself a deterministic schedule event: Parallel
	// starts the workers here, while this thread holds the token,
	// so they take the next thread ids in member order.
	teamSize := n
	if teamSize <= 0 {
		teamSize = c.rt.DefaultThreads()
	}
	if live := c.r.ctl.Live(); live+teamSize-1 > maxLiveThreads {
		return c.errf(pos, "team of %d threads would take the run past the limit of %d live threads (%d live)",
			teamSize, maxLiveThreads, live)
	}
	var regionTag uint64
	if c.trace {
		regionTag = c.r.tr.nextRegion()
		// The fork edge: the parent's pre-region history
		// happens-before every team member's first step.
		c.tagRel(forkObj(c.p.Rank(), regionTag))
	}
	err := c.rt.Parallel(c.th, n, func(th *omp.Thread) error {
		// The master runs the body on the forking thread, so it keeps
		// the forker's gate; workers look up the gate Parallel
		// registered for them.
		gate := c.gate
		if th.TID() != 0 {
			gate = c.r.ctl.Running()
		} else {
			c.forked = th.Team().ID()
		}
		child := c.r.newThctx()
		child.r, child.p, child.rt, child.th, child.gate = c.r, c.p, c.rt, th, gate
		child.trace, child.regionTag = c.trace, regionTag
		if child.trace && th.TID() != 0 {
			child.tagAcq(forkObj(c.p.Rank(), regionTag))
		}
		fr := child.newFrame(f, slots)
		err := body.run(child, fr)
		if err != nil {
			return err
		}
		if child.trace {
			// The join edge: each member's region history
			// happens-before the parent's post-region steps.
			child.tagRel(joinObj(c.p.Rank(), th.TID(), regionTag))
		}
		child.releaseFrame(fr)
		c.r.putThctx(child)
		return nil
	})
	// Every member has passed the join barrier, so none counts a
	// collective in the team again.
	c.r.ver.EndTeam(c.p, c.forked)
	if c.trace && err == nil {
		for tid := 0; tid < teamSize; tid++ {
			c.tagAcq(joinObj(c.p.Rank(), tid, regionTag))
		}
	}
	return err
}

//
// Expressions
//

// intOr resolves ex, or the constant def when ex is absent.
func (b *builder) intOr(ex ast.Expr, def int64) intFn {
	if ex == nil {
		return func(*thctx, *frame) (int64, error) { return def, nil }
	}
	return b.intExpr(ex)
}

func (b *builder) intExpr(ex ast.Expr) intFn {
	switch ex := ex.(type) {
	case *ast.IntLit:
		v := ex.Value
		return func(*thctx, *frame) (int64, error) { return v, nil }
	case *ast.BoolLit:
		v := int64(0)
		if ex.Value {
			v = 1
		}
		return func(*thctx, *frame) (int64, error) { return v, nil }
	case *ast.VarRef:
		return b.scalarOf(ex, "array used as a scalar value")
	case *ast.IndexExpr:
		name, pos := ex.Name, ex.NamePos
		hops, slot, ok := b.lookup(name)
		if !ok {
			return func(c *thctx, f *frame) (int64, error) { return 0, c.errf(pos, "undefined variable %q", name) }
		}
		index := b.intExpr(ex.Index)
		return func(c *thctx, f *frame) (int64, error) {
			cl := f.at(hops, slot)
			i, err := index(c, f)
			if err != nil {
				return 0, err
			}
			v := cl.v
			if v.arr == nil {
				return 0, c.errf(pos, "scalar %q indexed like an array", name)
			}
			if i < 0 || i >= int64(len(v.arr)) {
				return 0, c.errf(pos, "index %d out of range for %q (len %d)", i, name, len(v.arr))
			}
			if c.trace {
				c.tagRead(elemObj(v, i))
			}
			return v.arr[i], nil
		}
	case *ast.UnaryExpr:
		x := b.intExpr(ex.X)
		if ex.Op == token.Not {
			return func(c *thctx, f *frame) (int64, error) {
				v, err := x(c, f)
				return boolInt(v == 0), err
			}
		}
		return func(c *thctx, f *frame) (int64, error) {
			v, err := x(c, f)
			return -v, err
		}
	case *ast.BinaryExpr:
		return b.binary(ex)
	case *ast.CallExpr:
		return b.call(ex)
	}
	return func(c *thctx, f *frame) (int64, error) { return 0, c.errf(ex.Pos(), "unhandled expression %T", ex) }
}

// scalarOf resolves an expression whose value must be a scalar; a variable
// naming an array fails with msg at the variable.
func (b *builder) scalarOf(ex ast.Expr, msg string) intFn {
	ref, ok := ex.(*ast.VarRef)
	if !ok {
		return b.intExpr(ex)
	}
	name, pos := ref.Name, ref.NamePos
	hops, slot, ok := b.lookup(name)
	if !ok {
		return func(c *thctx, f *frame) (int64, error) { return 0, c.errf(pos, "undefined variable %q", name) }
	}
	return func(c *thctx, f *frame) (int64, error) {
		cl := f.at(hops, slot)
		if c.trace {
			c.tagRead(cellObj(cl))
		}
		if cl.v.arr != nil {
			return 0, c.errf(pos, "%s", msg)
		}
		return cl.v.i, nil
	}
}

// valExpr resolves an expression in a context that takes arrays too: a
// call argument, a print argument, len's operand.
func (b *builder) valExpr(ex ast.Expr) valFn {
	ref, ok := ex.(*ast.VarRef)
	if !ok {
		x := b.intExpr(ex)
		return func(c *thctx, f *frame) (value, error) {
			v, err := x(c, f)
			return scalar(v), err
		}
	}
	name, pos := ref.Name, ref.NamePos
	hops, slot, ok := b.lookup(name)
	if !ok {
		return func(c *thctx, f *frame) (value, error) { return value{}, c.errf(pos, "undefined variable %q", name) }
	}
	return func(c *thctx, f *frame) (value, error) {
		cl := f.at(hops, slot)
		if c.trace {
			c.tagRead(cellObj(cl))
		}
		return cl.v, nil
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (b *builder) binary(ex *ast.BinaryExpr) intFn {
	x, y, op, pos := b.intExpr(ex.X), b.intExpr(ex.Y), ex.Op, ex.OpPos
	if op == token.AndAnd || op == token.OrOr {
		// Short-circuit: the left operand alone decides when it is false
		// under && or true under ||.
		decides := op == token.OrOr
		return func(c *thctx, f *frame) (int64, error) {
			l, err := x(c, f)
			if err != nil {
				return 0, err
			}
			if (l != 0) == decides {
				return boolInt(decides), nil
			}
			r, err := y(c, f)
			return boolInt(r != 0), err
		}
	}
	return func(c *thctx, f *frame) (int64, error) {
		l, err := x(c, f)
		if err != nil {
			return 0, err
		}
		r, err := y(c, f)
		if err != nil {
			return 0, err
		}
		switch op {
		case token.Plus:
			return l + r, nil
		case token.Minus:
			return l - r, nil
		case token.Star:
			return l * r, nil
		case token.Slash:
			if r == 0 {
				return 0, c.errf(pos, "division by zero")
			}
			return l / r, nil
		case token.Percent:
			if r == 0 {
				return 0, c.errf(pos, "modulo by zero")
			}
			return l % r, nil
		case token.Eq:
			return boolInt(l == r), nil
		case token.NotEq:
			return boolInt(l != r), nil
		case token.Lt:
			return boolInt(l < r), nil
		case token.LtEq:
			return boolInt(l <= r), nil
		case token.Gt:
			return boolInt(l > r), nil
		case token.GtEq:
			return boolInt(l >= r), nil
		}
		return 0, c.errf(pos, "unhandled operator %s", op)
	}
}

// call resolves a call to an intrinsic or, when no intrinsic has the
// name, to a function. A call of an undefined function fails before its
// arguments are evaluated, one with the wrong arity after.
func (b *builder) call(ex *ast.CallExpr) intFn {
	name, pos := ex.Name, ex.NamePos
	arity := func(want int, msg string) intFn {
		if len(ex.Args) == want {
			return nil
		}
		return func(c *thctx, f *frame) (int64, error) { return 0, c.errf(pos, "%s", msg) }
	}
	switch name {
	case "rank":
		return func(c *thctx, f *frame) (int64, error) { return int64(c.p.Rank()), nil }
	case "size":
		return func(c *thctx, f *frame) (int64, error) { return int64(c.p.Size()), nil }
	case "tid":
		return func(c *thctx, f *frame) (int64, error) { return int64(c.th.TID()), nil }
	case "nthreads":
		return func(c *thctx, f *frame) (int64, error) { return int64(c.th.Team().Size()), nil }
	case "len":
		if bad := arity(1, "len expects 1 argument"); bad != nil {
			return bad
		}
		x := b.valExpr(ex.Args[0])
		return func(c *thctx, f *frame) (int64, error) {
			v, err := x(c, f)
			if err != nil {
				return 0, err
			}
			if v.arr == nil {
				return 0, c.errf(pos, "len of a non-array")
			}
			return int64(len(v.arr)), nil
		}
	case "abs":
		if bad := arity(1, "abs expects 1 argument"); bad != nil {
			return bad
		}
		x := b.intExpr(ex.Args[0])
		return func(c *thctx, f *frame) (int64, error) {
			v, err := x(c, f)
			if v < 0 {
				v = -v
			}
			return v, err
		}
	case "min", "max":
		if bad := arity(2, name+" expects 2 arguments"); bad != nil {
			return bad
		}
		x, y, min := b.intExpr(ex.Args[0]), b.intExpr(ex.Args[1]), name == "min"
		return func(c *thctx, f *frame) (int64, error) {
			l, err := x(c, f)
			if err != nil {
				return 0, err
			}
			r, err := y(c, f)
			if err != nil {
				return 0, err
			}
			if min == (l < r) {
				return l, nil
			}
			return r, nil
		}
	}
	decl := b.prog.Func(name)
	if decl == nil {
		return func(c *thctx, f *frame) (int64, error) {
			return 0, c.errf(pos, "call to undefined function %q", name)
		}
	}
	fn := b.funcOf(decl)
	args := make([]valFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = b.valExpr(a)
	}
	if len(args) != len(decl.Params) {
		return func(c *thctx, f *frame) (int64, error) {
			for _, a := range args {
				if _, err := a(c, f); err != nil {
					return 0, err
				}
			}
			return 0, c.errf(pos, "function %q expects %d argument(s), got %d", decl.Name, len(decl.Params), len(args))
		}
	}
	return func(c *thctx, f *frame) (int64, error) {
		// The arguments go straight into the callee's parameter slots.
		fr := c.newFrame(nil, fn.slots)
		for i, a := range args {
			v, err := a(c, f)
			if err != nil {
				return 0, err
			}
			fr.cells[i].v = v
		}
		return c.call(fn, fr)
	}
}

//
// Assignment
//

func (b *builder) store(lv ast.LValue, op ast.AssignOp) storeFn {
	switch lv := lv.(type) {
	case *ast.VarRef:
		name, pos := lv.Name, lv.NamePos
		hops, slot, ok := b.lookup(name)
		if !ok {
			return func(c *thctx, f *frame, v int64) error { return c.errf(pos, "undefined variable %q", name) }
		}
		return func(c *thctx, f *frame, v int64) error {
			cl := f.at(hops, slot)
			if c.trace {
				c.tagWrite(cellObj(cl))
			}
			if cl.v.arr != nil {
				return c.errf(pos, "array %q used as a scalar", name)
			}
			cl.v = scalar(apply(op, cl.v.i, v))
			return nil
		}
	case *ast.IndexExpr:
		name, pos := lv.Name, lv.NamePos
		hops, slot, ok := b.lookup(name)
		if !ok {
			return func(c *thctx, f *frame, v int64) error { return c.errf(pos, "undefined variable %q", name) }
		}
		index := b.intExpr(lv.Index)
		return func(c *thctx, f *frame, v int64) error {
			cl := f.at(hops, slot)
			i, err := index(c, f)
			if err != nil {
				return err
			}
			a := cl.v
			if a.arr == nil {
				return c.errf(pos, "scalar %q indexed like an array", name)
			}
			if i < 0 || i >= int64(len(a.arr)) {
				return c.errf(pos, "index %d out of range for %q (len %d)", i, name, len(a.arr))
			}
			if c.trace {
				c.tagWrite(elemObj(a, i))
			}
			a.arr[i] = apply(op, a.arr[i], v)
			return nil
		}
	}
	return func(c *thctx, f *frame, v int64) error { return c.errf(lv.Pos(), "bad assignment target") }
}

func apply(op ast.AssignOp, old, v int64) int64 {
	switch op {
	case ast.AssignAdd:
		return old + v
	case ast.AssignSub:
		return old - v
	}
	return v
}

// vector resolves the destination of a collective's vector result,
// which must name an array; the result is copied in up to its length.
func (b *builder) vector(lv ast.LValue) vecFn {
	ref, ok := lv.(*ast.VarRef)
	if !ok {
		return func(c *thctx, f *frame, vec []int64) error {
			return c.errf(lv.Pos(), "vector destination must be an array variable")
		}
	}
	name, pos := ref.Name, ref.NamePos
	hops, slot, ok := b.lookup(name)
	if !ok {
		return func(c *thctx, f *frame, vec []int64) error { return c.errf(pos, "undefined variable %q", name) }
	}
	return func(c *thctx, f *frame, vec []int64) error {
		v := f.at(hops, slot).v
		if v.arr == nil {
			return c.errf(pos, "vector destination %q must be an array", name)
		}
		for i := 0; i < len(v.arr) && i < len(vec); i++ {
			if c.trace {
				c.tagWrite(elemObj(v, int64(i)))
			}
			v.arr[i] = vec[i]
		}
		return nil
	}
}

//
// MPI statements
//

func (b *builder) mpi(s *ast.MPIStmt) func(*thctx, *frame) error {
	loc := s.KindPos.String()
	switch s.Kind {
	case ast.MPIInit:
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagMPIEntry()
			}
			return c.p.Init(c.th.ID())
		}
	case ast.MPIFinalize:
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagMPIEntry()
			}
			return c.p.Finalize(c.th.ID())
		}
	case ast.MPISend:
		src, dest, tag := b.intExpr(s.Src), b.intExpr(s.Dest), b.intOr(s.Tag, 0)
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagMPIEntry()
			}
			v, err := src(c, f)
			if err != nil {
				return err
			}
			d, err := dest(c, f)
			if err != nil {
				return err
			}
			t, err := tag(c, f)
			if err != nil {
				return err
			}
			if c.trace {
				c.tagSend(int(d), int(t))
			}
			c.r.p2p++
			return c.p.Send(c.th.ID(), v, int(d), int(t), loc)
		}
	case ast.MPIRecv:
		src, tag, dst := b.intExpr(s.Dest), b.intOr(s.Tag, 0), b.store(s.Dst, ast.AssignSet)
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagMPIEntry()
			}
			sr, err := src(c, f)
			if err != nil {
				return err
			}
			t, err := tag(c, f)
			if err != nil {
				return err
			}
			var sendEP monitor.Obj
			var matchK uint64
			if c.trace {
				sendEP, matchK = c.tagRecvEntry(int(sr), int(t))
			}
			c.r.p2p++
			v, err := c.p.Recv(c.th.ID(), int(sr), int(t), loc)
			if err != nil {
				return err
			}
			if c.trace {
				// The acquire lands in the post-return event, after the
				// matching send's release in trace order.
				c.tagRecvDone(sendEP, matchK)
			}
			return dst(c, f, v)
		}
	}
	op, err := collOp(s.Kind)
	var red mpi.RedOp
	if err == nil {
		red, err = mpi.ParseRedOp(s.OpName)
	}
	if err != nil {
		pos := s.KindPos
		return func(c *thctx, f *frame) error {
			if c.trace {
				c.tagMPIEntry()
			}
			return c.errf(pos, "%v", err)
		}
	}
	root := b.intOr(s.Root, 0)
	// The contribution: a scalar, or a live array (Scatter, Alltoall).
	var scalarIn intFn
	var vectorIn valFn
	switch s.Kind {
	case ast.MPIBcast:
		scalarIn = b.scalarOf(s.Dst, "array used where a scalar is needed")
	case ast.MPIReduce, ast.MPIAllreduce, ast.MPIScan, ast.MPIGather, ast.MPIAllgather:
		scalarIn = b.intExpr(s.Src)
	case ast.MPIScatter, ast.MPIAlltoall:
		vectorIn = b.valExpr(s.Src)
	}
	// The result: a scalar or a vector, at every rank or at the root.
	var out storeFn
	var outVec vecFn
	rootOnly := s.Kind == ast.MPIReduce || s.Kind == ast.MPIGather
	switch s.Kind {
	case ast.MPIBcast, ast.MPIAllreduce, ast.MPIScan, ast.MPIScatter, ast.MPIReduce:
		out = b.store(s.Dst, ast.AssignSet)
	case ast.MPIGather, ast.MPIAllgather, ast.MPIAlltoall:
		outVec = b.vector(s.Dst)
	}
	return func(c *thctx, f *frame) error {
		if c.trace {
			// Same-rank MPI call order is semantically visible (sequencing
			// rules, concurrent-call detection), so every call writes its
			// rank's call slot; cross-rank order stays free to commute.
			c.tagMPIEntry()
		}
		r64, err := root(c, f)
		if err != nil {
			return err
		}
		root := int(r64)
		var contribValue int64
		var contribVector []int64
		if scalarIn != nil {
			if contribValue, err = scalarIn(c, f); err != nil {
				return err
			}
		} else if vectorIn != nil {
			v, err := vectorIn(c, f)
			if err != nil {
				return err
			}
			if v.arr == nil {
				return c.errf(s.Src.Pos(), "array expected")
			}
			if c.trace {
				// The snapshot feeds a collective result, so every element
				// read is verdict-visible and must participate in conflict
				// detection.
				for i := range v.arr {
					c.tagRead(elemObj(v, int64(i)))
				}
			}
			contribVector = v.arr
		}
		var collK uint64
		if c.trace {
			collK = c.tagRoundEntry(objCollHB, c.r.tr.collSeq)
		}
		c.r.collectives++
		// The matcher copies the vector at the call, and the value oracle
		// compares that copy with the live array at the match.
		outV, outVector, err := c.p.CollectiveLive(c.th.ID(), op, red, root, contribValue, contribVector, contribVector, loc)
		if err != nil {
			return err
		}
		if c.trace {
			// The completed rendezvous ordered this thread behind every
			// rank's arrival of round collK.
			c.tagRoundDone(objCollHB, collK)
		}
		if rootOnly && c.p.Rank() != root {
			return nil
		}
		if out != nil {
			return out(c, f, outV)
		}
		if outVec != nil {
			return outVec(c, f, outVector)
		}
		return nil
	}
}

func collOp(k ast.MPIKind) (mpi.Op, error) {
	switch k {
	case ast.MPIBarrier:
		return mpi.OpBarrier, nil
	case ast.MPIBcast:
		return mpi.OpBcast, nil
	case ast.MPIReduce:
		return mpi.OpReduce, nil
	case ast.MPIAllreduce:
		return mpi.OpAllreduce, nil
	case ast.MPIGather:
		return mpi.OpGather, nil
	case ast.MPIAllgather:
		return mpi.OpAllgather, nil
	case ast.MPIScatter:
		return mpi.OpScatter, nil
	case ast.MPIAlltoall:
		return mpi.OpAlltoall, nil
	case ast.MPIScan:
		return mpi.OpScan, nil
	}
	return 0, fmt.Errorf("not a collective: %v", k)
}
