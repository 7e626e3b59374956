// Package ast defines the abstract syntax tree of MiniHybrid programs.
//
// The tree mirrors what the paper's analyses need from the compiler middle
// end: structured control flow (if/for/while), MPI collective and
// point-to-point statements, and fork/join threading constructs with
// perfectly nested regions (parallel, single, master, critical, sections,
// worksharing loops, barriers). Every threading construct carries a
// RegionID, the `i` in the paper's parallelism-word letters P_i and S_i.
//
// The instrumentation pass (internal/instrument) injects the Instr* nodes;
// they have no surface syntax and are executed by the interpreter through
// the runtime verifier.
package ast

import (
	"parcoach/internal/source"
	"parcoach/internal/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() source.Pos
}

// Program is a parsed MiniHybrid source file.
type Program struct {
	File    *source.File
	Funcs   []*FuncDecl
	ByName  map[string]*FuncDecl
	Regions int // number of threading regions; RegionIDs are in [0,Regions)
}

// Pos returns the position of the first function, or an invalid Pos for an
// empty program.
func (p *Program) Pos() source.Pos {
	if len(p.Funcs) > 0 {
		return p.Funcs[0].Pos()
	}
	return source.Pos{}
}

// Func returns the function declaration with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	if p.ByName == nil {
		return nil
	}
	return p.ByName[name]
}

// FuncDecl is a function definition. All functions return an int (0 by
// default); parameters are ints passed by value, arrays by reference.
type FuncDecl struct {
	NamePos source.Pos
	Name    string
	Params  []string
	Body    *Block
}

// Pos returns the position of the function name.
func (f *FuncDecl) Pos() source.Pos { return f.NamePos }

// Block is a braced statement list.
type Block struct {
	Lbrace source.Pos
	Stmts  []Stmt
}

// Pos returns the opening brace position.
func (b *Block) Pos() source.Pos { return b.Lbrace }

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// LValue is an assignable location: a variable or an array element.
type LValue interface {
	Expr
	lvalueNode()
}

//
// Statements
//

// VarDecl declares a local variable. If ArraySize is non-nil the variable
// is an integer array of that length (zero initialized); otherwise it is a
// scalar, optionally initialized by Init. Variables declared inside a
// threading construct are private to each executing thread; all others are
// shared by the threads of enclosing regions.
type VarDecl struct {
	VarPos    source.Pos
	Name      string
	ArraySize Expr // nil for scalars
	Init      Expr // nil means 0
}

// AssignOp distinguishes plain and compound assignment.
type AssignOp int

// Assignment operators.
const (
	AssignSet AssignOp = iota // =
	AssignAdd                 // +=
	AssignSub                 // -=
)

func (op AssignOp) String() string {
	switch op {
	case AssignAdd:
		return "+="
	case AssignSub:
		return "-="
	}
	return "="
}

// Assign stores Value into Target.
type Assign struct {
	Target LValue
	Op     AssignOp
	Value  Expr
}

// CallStmt invokes a function for its effects, discarding the result.
type CallStmt struct {
	Call *CallExpr
}

// If is a two-way branch. Else is nil, a *Block, or another *If.
type If struct {
	IfPos source.Pos
	Cond  Expr
	Then  *Block
	Else  Stmt
}

// For is a sequential counted loop: Var ranges over [From, To).
type For struct {
	ForPos   source.Pos
	Var      string
	From, To Expr
	Body     *Block
}

// While loops while Cond holds.
type While struct {
	WhilePos source.Pos
	Cond     Expr
	Body     *Block
}

// Return leaves the current function. Value may be nil (returns 0).
type Return struct {
	RetPos source.Pos
	Value  Expr
}

// Print writes its arguments to the run's output stream, space separated
// and newline terminated; used by examples and tests to observe execution.
type Print struct {
	PrintPos source.Pos
	Args     []Expr
}

//
// MPI statements
//

// MPIKind enumerates the MPI operations of MiniHybrid.
type MPIKind int

// MPI operations. Collective operations are those for which IsCollective
// reports true; Send/Recv are point-to-point and invisible to the
// collective-validation analyses (but still run on the simulated runtime).
const (
	MPIInit MPIKind = iota
	MPIFinalize
	MPIBarrier
	MPIBcast
	MPIReduce
	MPIAllreduce
	MPIGather
	MPIAllgather
	MPIScatter
	MPIAlltoall
	MPIScan
	MPISend
	MPIRecv
)

var mpiNames = [...]string{
	MPIInit:      "MPI_Init",
	MPIFinalize:  "MPI_Finalize",
	MPIBarrier:   "MPI_Barrier",
	MPIBcast:     "MPI_Bcast",
	MPIReduce:    "MPI_Reduce",
	MPIAllreduce: "MPI_Allreduce",
	MPIGather:    "MPI_Gather",
	MPIAllgather: "MPI_Allgather",
	MPIScatter:   "MPI_Scatter",
	MPIAlltoall:  "MPI_Alltoall",
	MPIScan:      "MPI_Scan",
	MPISend:      "MPI_Send",
	MPIRecv:      "MPI_Recv",
}

// String returns the MPI_* name of the operation.
func (k MPIKind) String() string {
	if int(k) < len(mpiNames) {
		return mpiNames[k]
	}
	return "MPI_?"
}

// IsCollective reports whether the operation synchronizes the whole
// communicator, i.e. participates in the paper's validation problem.
func (k MPIKind) IsCollective() bool {
	switch k {
	case MPIBarrier, MPIBcast, MPIReduce, MPIAllreduce, MPIGather,
		MPIAllgather, MPIScatter, MPIAlltoall, MPIScan:
		return true
	}
	return false
}

// MPIStmt is one MPI call. Field use by kind:
//
//	MPI_Barrier()                    — no fields
//	MPI_Bcast(dst [, root])          — Dst (in/out), Root
//	MPI_Reduce(dst, src [, op [, root]])
//	MPI_Allreduce(dst, src [, op])
//	MPI_Gather(dstArray, src [, root])
//	MPI_Allgather(dstArray, src)
//	MPI_Scatter(dst, srcArray [, root])
//	MPI_Alltoall(dstArray, srcArray)
//	MPI_Scan(dst, src [, op])
//	MPI_Send(value, dest [, tag])    — Src, Dest, Tag
//	MPI_Recv(dst, src [, tag])       — Dst, Dest (peer), Tag
type MPIStmt struct {
	KindPos source.Pos
	Kind    MPIKind
	Dst     LValue // destination lvalue, nil when unused
	Src     Expr   // contribution / payload, nil when unused
	OpName  string // "sum", "min", "max", "prod" (reductions); "" defaults to sum
	Root    Expr   // root rank, nil defaults to 0
	Dest    Expr   // peer rank for Send/Recv
	Tag     Expr   // message tag for Send/Recv, nil defaults to 0
}

//
// Threading (OpenMP-like) statements
//

// ParallelStmt forks a team of threads that each execute Body; an implicit
// barrier joins them at the end. NumThreads, when non-nil, sets the team
// size, otherwise the runtime default applies.
type ParallelStmt struct {
	ParPos     source.Pos
	NumThreads Expr
	Body       *Block
	RegionID   int
}

// SingleStmt executes Body on exactly one thread of the current team; the
// others skip it and, unless Nowait is set, wait on an implicit barrier.
type SingleStmt struct {
	SingPos  source.Pos
	Nowait   bool
	Body     *Block
	RegionID int
}

// MasterStmt executes Body on thread 0 only. There is no implicit barrier.
type MasterStmt struct {
	MastPos  source.Pos
	Body     *Block
	RegionID int
}

// CriticalStmt serializes Body across the threads of the process. It does
// NOT make a region monothreaded in the paper's sense: every thread still
// executes Body, one at a time.
type CriticalStmt struct {
	CritPos source.Pos
	Name    string // optional critical-section name; "" is the anonymous lock
	Body    *Block
}

// BarrierStmt is an explicit team barrier (the letter B).
type BarrierStmt struct {
	BarPos source.Pos
}

// AtomicStmt performs Target op= Value atomically within the process.
type AtomicStmt struct {
	AtomPos source.Pos
	Target  LValue
	Op      AssignOp // AssignAdd or AssignSub
	Value   Expr
}

// Schedule names a worksharing loop schedule.
type Schedule int

// Worksharing schedules.
const (
	ScheduleStatic Schedule = iota
	ScheduleDynamic
)

func (s Schedule) String() string {
	if s == ScheduleDynamic {
		return "dynamic"
	}
	return "static"
}

// PforStmt is a worksharing loop: iterations of [From, To) are distributed
// across the current team. Unless Nowait is set, an implicit barrier ends
// the construct. The loop body remains multithreaded for the parallelism
// word (no letter is emitted, only the ending B).
type PforStmt struct {
	PforPos  source.Pos
	Var      string
	From, To Expr
	Sched    Schedule
	Nowait   bool
	Body     *Block
	RegionID int
}

// SectionsStmt distributes its section blocks across the team: each section
// executes on one thread, like concurrently running singles. Unless Nowait
// is set, an implicit barrier ends the construct.
type SectionsStmt struct {
	SecsPos    source.Pos
	Nowait     bool
	Bodies     []*Block
	SectionIDs []int // one region id per section body
	RegionID   int   // id of the sections construct itself
}

//
// Instrumentation statements (inserted by internal/instrument)
//

// InstrCC is the paper's CC check, inserted immediately before a collective
// call: all processes agree on the id of the next collective operation or
// the run aborts with a located error (PARCOACH Algorithm 3). When the
// guarded statement is a call to a collective-bearing function rather than
// a direct collective, Callee names it and the agreed id is "call:<name>".
type InstrCC struct {
	At       source.Pos
	CollKind MPIKind
	Callee   string
	CollPos  source.Pos // position of the guarded collective
	// Once marks sites reached by every thread of a team (directly in a
	// parallel body, or at function level under a multithreaded caller):
	// the check then runs with execute-once semantics (the paper's single
	// wrapping). Sites inside single/master/section bodies are reached by
	// exactly the thread executing the guarded statement and must not be
	// filtered.
	Once bool
}

// OpName returns the operation identifier processes must agree on.
func (s *InstrCC) OpName() string {
	if s.Callee != "" {
		return "call:" + s.Callee
	}
	return s.CollKind.String()
}

// InstrCCReturn is the CC check inserted before return statements (and at
// function end) so a process leaving the function while others still expect
// collectives is reported instead of deadlocking. When inside a threaded
// region it executes under execute-once (single) semantics as in the paper.
type InstrCCReturn struct {
	At   source.Pos
	Once bool
}

// InstrMonoCheck marks a parallel entry of the paper's set Sipw, whose
// region may run the collectives it dominates on several threads. It
// checks nothing at run time: the InstrPhaseCount on each of those
// collectives does, passing when the region runs with one thread.
type InstrMonoCheck struct {
	At       source.Pos
	RegionID int
}

// InstrPhaseCount is inserted before a collective node in the paper's set S
// (collectives in a possibly multithreaded context): the verifier counts
// executions per (process, team, barrier phase) and aborts when more than
// one thread executes the collective in the same phase.
type InstrPhaseCount struct {
	At       source.Pos
	NodeID   int // CFG node id of the collective
	CollKind MPIKind
}

// InstrConcNote brackets a monothreaded region in the paper's set Scc
// (Enter at its start, !Enter at its end). It checks nothing at run time:
// the InstrPhaseCount on the region's collectives aborts when two
// different threads run collectives of concurrent monothreaded regions
// without an ordering barrier.
type InstrConcNote struct {
	At       source.Pos
	RegionID int
	Enter    bool
}

//
// Expressions
//

// IntLit is an integer literal.
type IntLit struct {
	LitPos source.Pos
	Value  int64
}

// BoolLit is true or false.
type BoolLit struct {
	LitPos source.Pos
	Value  bool
}

// VarRef names a scalar variable (or a whole array when used as an MPI
// buffer or call argument).
type VarRef struct {
	NamePos source.Pos
	Name    string
}

// IndexExpr is an array element a[i].
type IndexExpr struct {
	NamePos source.Pos
	Name    string
	Index   Expr
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	OpPos source.Pos
	Op    token.Kind
	X, Y  Expr
}

// UnaryExpr applies ! or unary -.
type UnaryExpr struct {
	OpPos source.Pos
	Op    token.Kind
	X     Expr
}

// CallExpr invokes a user function or an intrinsic. Intrinsics:
//
//	rank()      — MPI rank of the calling process
//	size()      — number of MPI processes
//	tid()       — thread id within the innermost team
//	nthreads()  — size of the innermost team
//	len(a)      — array length
//	abs(x), min(x,y), max(x,y)
type CallExpr struct {
	NamePos source.Pos
	Name    string
	Args    []Expr
}

// Intrinsics lists the built-in function names.
var Intrinsics = map[string]int{ // name -> arity
	"rank": 0, "size": 0, "tid": 0, "nthreads": 0,
	"len": 1, "abs": 1, "min": 2, "max": 2,
}

//
// Interface plumbing
//

func (*Block) stmtNode()           {}
func (*VarDecl) stmtNode()         {}
func (*Assign) stmtNode()          {}
func (*CallStmt) stmtNode()        {}
func (*If) stmtNode()              {}
func (*For) stmtNode()             {}
func (*While) stmtNode()           {}
func (*Return) stmtNode()          {}
func (*Print) stmtNode()           {}
func (*MPIStmt) stmtNode()         {}
func (*ParallelStmt) stmtNode()    {}
func (*SingleStmt) stmtNode()      {}
func (*MasterStmt) stmtNode()      {}
func (*CriticalStmt) stmtNode()    {}
func (*BarrierStmt) stmtNode()     {}
func (*AtomicStmt) stmtNode()      {}
func (*PforStmt) stmtNode()        {}
func (*SectionsStmt) stmtNode()    {}
func (*InstrCC) stmtNode()         {}
func (*InstrCCReturn) stmtNode()   {}
func (*InstrMonoCheck) stmtNode()  {}
func (*InstrPhaseCount) stmtNode() {}
func (*InstrConcNote) stmtNode()   {}

func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*VarRef) exprNode()     {}
func (*IndexExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}

func (*VarRef) lvalueNode()    {}
func (*IndexExpr) lvalueNode() {}

func (s *VarDecl) Pos() source.Pos         { return s.VarPos }
func (s *Assign) Pos() source.Pos          { return s.Target.Pos() }
func (s *CallStmt) Pos() source.Pos        { return s.Call.Pos() }
func (s *If) Pos() source.Pos              { return s.IfPos }
func (s *For) Pos() source.Pos             { return s.ForPos }
func (s *While) Pos() source.Pos           { return s.WhilePos }
func (s *Return) Pos() source.Pos          { return s.RetPos }
func (s *Print) Pos() source.Pos           { return s.PrintPos }
func (s *MPIStmt) Pos() source.Pos         { return s.KindPos }
func (s *ParallelStmt) Pos() source.Pos    { return s.ParPos }
func (s *SingleStmt) Pos() source.Pos      { return s.SingPos }
func (s *MasterStmt) Pos() source.Pos      { return s.MastPos }
func (s *CriticalStmt) Pos() source.Pos    { return s.CritPos }
func (s *BarrierStmt) Pos() source.Pos     { return s.BarPos }
func (s *AtomicStmt) Pos() source.Pos      { return s.AtomPos }
func (s *PforStmt) Pos() source.Pos        { return s.PforPos }
func (s *SectionsStmt) Pos() source.Pos    { return s.SecsPos }
func (s *InstrCC) Pos() source.Pos         { return s.At }
func (s *InstrCCReturn) Pos() source.Pos   { return s.At }
func (s *InstrMonoCheck) Pos() source.Pos  { return s.At }
func (s *InstrPhaseCount) Pos() source.Pos { return s.At }
func (s *InstrConcNote) Pos() source.Pos   { return s.At }

func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *BoolLit) Pos() source.Pos    { return e.LitPos }
func (e *VarRef) Pos() source.Pos     { return e.NamePos }
func (e *IndexExpr) Pos() source.Pos  { return e.NamePos }
func (e *BinaryExpr) Pos() source.Pos { return e.X.Pos() }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *CallExpr) Pos() source.Pos   { return e.NamePos }
