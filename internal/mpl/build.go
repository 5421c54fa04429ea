package mpl

// This file provides the programmatic construction API used by examples,
// tests, and the transformation phases: expression helpers, a statement
// Builder, and deep cloning.

// Int returns an integer literal expression.
func Int(v int) Expr { return &IntLit{Value: v} }

// V returns an identifier expression.
func V(name string) Expr { return &Ident{Name: name} }

// Rank returns the rank builtin.
func Rank() Expr { return &Ident{Name: BuiltinRank} }

// Nproc returns the nproc builtin.
func Nproc() Expr { return &Ident{Name: BuiltinNproc} }

// InputAt returns input(i), an irregular (data-dependent) expression.
func InputAt(i Expr) Expr { return &Call{Name: BuiltinInput, Args: []Expr{i}} }

// Binary expression helpers.

// Add returns l + r.
func Add(l, r Expr) Expr { return &Binary{Op: "+", L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Binary{Op: "-", L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Binary{Op: "*", L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return &Binary{Op: "/", L: l, R: r} }

// Mod returns l % r.
func Mod(l, r Expr) Expr { return &Binary{Op: "%", L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return &Binary{Op: "==", L: l, R: r} }

// Neq returns l != r.
func Neq(l, r Expr) Expr { return &Binary{Op: "!=", L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return &Binary{Op: "<", L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return &Binary{Op: ">", L: l, R: r} }

// And returns l && r.
func And(l, r Expr) Expr { return &Binary{Op: "&&", L: l, R: r} }

// Not returns !x.
func Not(x Expr) Expr { return &Unary{Op: "!", X: x} }

// Builder accumulates a program body with automatically assigned statement
// IDs. Obtain one from NewBuilder, add declarations and statements, and
// call Program to finish (which also runs Check).
type Builder struct {
	prog   *Program
	nextID int
	// target is the statement list under construction (nesting pushes).
	target *[]Stmt
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	b := &Builder{prog: &Program{Name: name}}
	b.target = &b.prog.Body
	return b
}

// Const declares a constant.
func (b *Builder) Const(name string, value int) *Builder {
	b.prog.Consts = append(b.prog.Consts, Const{Name: name, Value: value})
	return b
}

// Vars declares variables.
func (b *Builder) Vars(names ...string) *Builder {
	b.prog.Vars = append(b.prog.Vars, names...)
	return b
}

func (b *Builder) base() StmtBase {
	id := b.nextID
	b.nextID++
	return StmtBase{StmtID: id}
}

func (b *Builder) push(s Stmt) *Builder {
	*b.target = append(*b.target, s)
	return b
}

// Assign appends "name = x".
func (b *Builder) Assign(name string, x Expr) *Builder {
	return b.push(&Assign{StmtBase: b.base(), Name: name, X: x})
}

// Work appends "work(amount)".
func (b *Builder) Work(amount Expr) *Builder {
	return b.push(&Work{StmtBase: b.base(), Amount: amount})
}

// Send appends "send(dest, varName)".
func (b *Builder) Send(dest Expr, varName string) *Builder {
	return b.push(&Send{StmtBase: b.base(), Dest: dest, Var: varName})
}

// Recv appends "recv(src, varName)".
func (b *Builder) Recv(src Expr, varName string) *Builder {
	return b.push(&Recv{StmtBase: b.base(), Src: src, Var: varName})
}

// Bcast appends "bcast(root, varName)".
func (b *Builder) Bcast(root Expr, varName string) *Builder {
	return b.push(&Bcast{StmtBase: b.base(), Root: root, Var: varName})
}

// Reduce appends "reduce(root, varName)".
func (b *Builder) Reduce(root Expr, varName string) *Builder {
	return b.push(&Reduce{StmtBase: b.base(), Root: root, Var: varName})
}

// Chkpt appends a checkpoint statement.
func (b *Builder) Chkpt() *Builder {
	return b.push(&Chkpt{StmtBase: b.base()})
}

// While appends "while cond { ... }", building the body via fn.
func (b *Builder) While(cond Expr, fn func(*Builder)) *Builder {
	w := &While{StmtBase: b.base(), Cond: cond}
	b.nested(&w.Body, fn)
	return b.push(w)
}

// If appends "if cond { then }" with no else branch.
func (b *Builder) If(cond Expr, then func(*Builder)) *Builder {
	s := &If{StmtBase: b.base(), Cond: cond}
	b.nested(&s.Then, then)
	return b.push(s)
}

// IfElse appends "if cond { then } else { els }".
func (b *Builder) IfElse(cond Expr, then, els func(*Builder)) *Builder {
	s := &If{StmtBase: b.base(), Cond: cond}
	b.nested(&s.Then, then)
	b.nested(&s.Else, els)
	return b.push(s)
}

func (b *Builder) nested(list *[]Stmt, fn func(*Builder)) {
	saved := b.target
	b.target = list
	fn(b)
	b.target = saved
}

// Program finishes construction, validates the program, and returns it.
func (b *Builder) Program() (*Program, error) {
	if err := Check(b.prog); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustProgram is Program for static program literals in examples and tests;
// it panics on semantic errors, which there indicate a programming bug.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns a deep copy of the program. Statement IDs are preserved;
// expressions are copied so mutations of the clone never alias the
// original.
//
// The copy is slab-allocated: a counting pre-pass sizes one typed slab per
// concrete node type, so cloning costs one allocation per node TYPE (plus
// the backing arrays) instead of one per node — the difference between
// ~constant and ~program-sized allocation counts in Phase III, which
// clones per Transform.
func Clone(p *Program) *Program {
	var m cloneMem
	m.count(p.Body)
	m.assigns = make([]Assign, 0, m.nAssign)
	m.works = make([]Work, 0, m.nWork)
	m.sends = make([]Send, 0, m.nSend)
	m.recvs = make([]Recv, 0, m.nRecv)
	m.bcasts = make([]Bcast, 0, m.nBcast)
	m.reduces = make([]Reduce, 0, m.nReduce)
	m.chkpts = make([]Chkpt, 0, m.nChkpt)
	m.whiles = make([]While, 0, m.nWhile)
	m.ifs = make([]If, 0, m.nIf)
	m.intLits = make([]IntLit, 0, m.nIntLit)
	m.idents = make([]Ident, 0, m.nIdent)
	m.calls = make([]Call, 0, m.nCall)
	m.unaries = make([]Unary, 0, m.nUnary)
	m.binaries = make([]Binary, 0, m.nBinary)
	m.stmts = make([]Stmt, m.nStmtSlot)
	m.exprs = make([]Expr, m.nExprSlot)
	return &Program{
		Name:   p.Name,
		Consts: append([]Const(nil), p.Consts...),
		Vars:   append([]string(nil), p.Vars...),
		Body:   m.body(p.Body),
	}
}

// cloneMem holds one Clone call's slabs and their fill offsets.
type cloneMem struct {
	nAssign, nWork, nSend, nRecv, nBcast, nReduce, nChkpt, nWhile, nIf int
	nIntLit, nIdent, nCall, nUnary, nBinary                            int
	nStmtSlot, nExprSlot                                               int // total body / call-arg slots

	assigns  []Assign
	works    []Work
	sends    []Send
	recvs    []Recv
	bcasts   []Bcast
	reduces  []Reduce
	chkpts   []Chkpt
	whiles   []While
	ifs      []If
	intLits  []IntLit
	idents   []Ident
	calls    []Call
	unaries  []Unary
	binaries []Binary
	stmts    []Stmt
	exprs    []Expr
	stmtOff  int
	exprOff  int
}

func (m *cloneMem) count(body []Stmt) {
	m.nStmtSlot += len(body)
	for _, s := range body {
		switch st := s.(type) {
		case *Assign:
			m.nAssign++
			m.countExpr(st.X)
		case *Work:
			m.nWork++
			m.countExpr(st.Amount)
		case *Send:
			m.nSend++
			m.countExpr(st.Dest)
		case *Recv:
			m.nRecv++
			m.countExpr(st.Src)
		case *Bcast:
			m.nBcast++
			m.countExpr(st.Root)
		case *Reduce:
			m.nReduce++
			m.countExpr(st.Root)
		case *Chkpt:
			m.nChkpt++
		case *While:
			m.nWhile++
			m.countExpr(st.Cond)
			m.count(st.Body)
		case *If:
			m.nIf++
			m.countExpr(st.Cond)
			m.count(st.Then)
			m.count(st.Else)
		default:
			panic("mpl: Clone: unknown statement type")
		}
	}
}

func (m *cloneMem) countExpr(e Expr) {
	switch x := e.(type) {
	case nil:
	case *IntLit:
		m.nIntLit++
	case *Ident:
		m.nIdent++
	case *Call:
		m.nCall++
		m.nExprSlot += len(x.Args)
		for _, a := range x.Args {
			m.countExpr(a)
		}
	case *Unary:
		m.nUnary++
		m.countExpr(x.X)
	case *Binary:
		m.nBinary++
		m.countExpr(x.L)
		m.countExpr(x.R)
	default:
		panic("mpl: Clone: unknown expression type")
	}
}

// body carves a full-capacity subslice for the statement list (appends to
// it later therefore reallocate rather than bleed into a sibling block)
// and fills it.
func (m *cloneMem) body(body []Stmt) []Stmt {
	if body == nil {
		return nil
	}
	out := m.stmts[m.stmtOff : m.stmtOff+len(body) : m.stmtOff+len(body)]
	m.stmtOff += len(body)
	for i, s := range body {
		out[i] = m.stmt(s)
	}
	return out
}

func (m *cloneMem) stmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *Assign:
		m.assigns = append(m.assigns, Assign{StmtBase: st.StmtBase, Name: st.Name, X: m.expr(st.X)})
		return &m.assigns[len(m.assigns)-1]
	case *Work:
		m.works = append(m.works, Work{StmtBase: st.StmtBase, Amount: m.expr(st.Amount)})
		return &m.works[len(m.works)-1]
	case *Send:
		m.sends = append(m.sends, Send{StmtBase: st.StmtBase, Dest: m.expr(st.Dest), Var: st.Var})
		return &m.sends[len(m.sends)-1]
	case *Recv:
		m.recvs = append(m.recvs, Recv{StmtBase: st.StmtBase, Src: m.expr(st.Src), Var: st.Var})
		return &m.recvs[len(m.recvs)-1]
	case *Bcast:
		m.bcasts = append(m.bcasts, Bcast{StmtBase: st.StmtBase, Root: m.expr(st.Root), Var: st.Var})
		return &m.bcasts[len(m.bcasts)-1]
	case *Reduce:
		m.reduces = append(m.reduces, Reduce{StmtBase: st.StmtBase, Root: m.expr(st.Root), Var: st.Var})
		return &m.reduces[len(m.reduces)-1]
	case *Chkpt:
		m.chkpts = append(m.chkpts, Chkpt{StmtBase: st.StmtBase})
		return &m.chkpts[len(m.chkpts)-1]
	case *While:
		m.whiles = append(m.whiles, While{StmtBase: st.StmtBase, Cond: m.expr(st.Cond), Body: m.body(st.Body)})
		return &m.whiles[len(m.whiles)-1]
	case *If:
		m.ifs = append(m.ifs, If{StmtBase: st.StmtBase, Cond: m.expr(st.Cond), Then: m.body(st.Then), Else: m.body(st.Else)})
		return &m.ifs[len(m.ifs)-1]
	default:
		panic("mpl: Clone: unknown statement type")
	}
}

func (m *cloneMem) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit:
		m.intLits = append(m.intLits, IntLit{Value: x.Value})
		return &m.intLits[len(m.intLits)-1]
	case *Ident:
		m.idents = append(m.idents, Ident{Name: x.Name})
		return &m.idents[len(m.idents)-1]
	case *Call:
		args := m.exprs[m.exprOff : m.exprOff+len(x.Args) : m.exprOff+len(x.Args)]
		m.exprOff += len(x.Args)
		for i, a := range x.Args {
			args[i] = m.expr(a)
		}
		m.calls = append(m.calls, Call{Name: x.Name, Args: args})
		return &m.calls[len(m.calls)-1]
	case *Unary:
		m.unaries = append(m.unaries, Unary{Op: x.Op, X: m.expr(x.X)})
		return &m.unaries[len(m.unaries)-1]
	case *Binary:
		m.binaries = append(m.binaries, Binary{Op: x.Op, L: m.expr(x.L), R: m.expr(x.R)})
		return &m.binaries[len(m.binaries)-1]
	default:
		panic("mpl: Clone: unknown expression type")
	}
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit:
		return &IntLit{Value: x.Value}
	case *Ident:
		return &Ident{Name: x.Name}
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &Call{Name: x.Name, Args: args}
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	default:
		panic("mpl: CloneExpr: unknown expression type")
	}
}
