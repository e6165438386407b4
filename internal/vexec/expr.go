// Vectorized expression compilation. Native kernels cover the
// arithmetic/comparison/boolean shapes the provenance-rewritten
// workloads consist of, plus uncorrelated scalar/EXISTS sublinks
// (evaluated once and broadcast). Every other shape — CASE, casts,
// function calls (EXTRACT included), quantified sublinks, interval
// arithmetic — compiles to the fallback kernel, which runs the row
// evaluator's closure (eval.Compile) over the selected lanes, so every
// expression the analyzer accepts has a batch form.
//
// Result-vector ownership: kernels allocate their outputs from the shared
// batch-buffer pool (vector.NewBatchVec) and free the intermediates they
// consumed. Var, Const and SubLink results are aliasing — they reference
// batch columns or caches shared across calls — and are never freed;
// Expr.FreeResult encapsulates the distinction for operators.
package vexec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/types"
	"perm/internal/vector"
)

// exprFn evaluates an expression over the physical batch rows listed in
// sel (nil = all rows 0..b.N-1). The result vector is defined at exactly
// those positions; other lanes hold unspecified values.
type exprFn func(b *vector.Batch, sel []int) (*vector.Vec, error)

// Expr is a compiled vectorized expression with its static result kind.
type Expr struct {
	fn   exprFn
	kind types.Kind
	// aliasing marks expressions whose result vector is shared (a batch
	// column, a constant cache, a sublink broadcast) rather than freshly
	// allocated per evaluation. Consumers must not free aliasing results.
	aliasing bool
}

// Kind returns the static result kind of the expression.
func (e *Expr) Kind() types.Kind { return e.kind }

// FreeResult returns an evaluation result to the batch-buffer pool, if
// this expression owns its results. Callers invoke it once they are done
// reading the vector (and never after placing it in an emitted batch).
func (e *Expr) FreeResult(v *vector.Vec) {
	if !e.aliasing {
		v.Free()
	}
}

// errUnsupported makes a native compiler give way to the fallback
// kernel.
var errUnsupported = fmt.Errorf("vexec: no native kernel")

// identitySel is the shared all-rows selection 0..BatchSize-1 (read-only).
var identitySel = func() []int {
	s := make([]int, vector.BatchSize)
	for i := range s {
		s[i] = i
	}
	return s
}()

// resolveSel turns a nil selection into an explicit one. Batches never
// exceed BatchSize rows, so the shared identity prefix always suffices.
func resolveSel(b *vector.Batch, sel []int) []int {
	if sel != nil {
		return sel
	}
	return identitySel[:b.N]
}

// CompileExpr compiles an analyzed expression for vectorized evaluation:
// a native kernel where one exists, the fallback kernel otherwise. An
// error comes only from binding. The binder resolves column references
// to flat batch positions and sublinks to their (lazily materialized)
// subplans.
func CompileExpr(e algebra.Expr, bind eval.Binder) (*Expr, error) {
	c, err := compileNative(e, bind)
	if err == errUnsupported {
		return compileFallback(e, bind)
	}
	return c, err
}

func compileNative(e algebra.Expr, bind eval.Binder) (*Expr, error) {
	switch n := e.(type) {
	case *algebra.Var:
		return compileVar(n, bind)
	case *algebra.Const:
		return compileConst(n)
	case *algebra.BinOp:
		return compileBinOp(n, bind)
	case *algebra.UnOp:
		return compileUnOp(n, bind)
	case *algebra.IsNull:
		return compileIsNull(n, bind)
	case *algebra.DistinctFrom:
		return compileDistinctFrom(n, bind)
	case *algebra.SubLink:
		return compileSubLink(n, bind)
	default:
		return nil, errUnsupported
	}
}

// CompileExprs compiles a slice of expressions; it fails if any one of
// them is unsupported.
func CompileExprs(es []algebra.Expr, bind eval.Binder) ([]*Expr, error) {
	out := make([]*Expr, len(es))
	for i, e := range es {
		c, err := CompileExpr(e, bind)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// recordingBinder notes the batch positions an expression reads, so the
// fallback kernel boxes only those columns.
type recordingBinder struct {
	eval.Binder
	cols []int
}

func (r *recordingBinder) BindVar(v *algebra.Var) (int, error) {
	pos, err := r.Binder.BindVar(v)
	if err == nil && !slices.Contains(r.cols, pos) {
		r.cols = append(r.cols, pos)
	}
	return pos, err
}

// compileFallback is the per-lane kernel: it boxes the referenced columns
// of each selected lane into a row and runs the row evaluator's closure,
// so its results, errors and short-circuiting are the evaluator's own.
func compileFallback(e algebra.Expr, bind eval.Binder) (*Expr, error) {
	rb := &recordingBinder{Binder: bind}
	f, err := eval.Compile(e, rb)
	if err != nil {
		return nil, err
	}
	kind := algebra.TypeOf(e)
	width := 0
	for _, c := range rb.cols {
		if c >= width {
			width = c + 1
		}
	}
	cols := rb.cols
	ctx := eval.Ctx{Row: make(types.Row, width)}
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		for _, c := range cols {
			if c >= len(b.Cols) {
				return nil, fmt.Errorf("vexec: batch too narrow (%d <= %d)", len(b.Cols), c)
			}
		}
		out := vector.NewBatchVec(kind, b.N)
		for _, i := range sel {
			for _, c := range cols {
				ctx.Row[c] = b.Cols[c].Value(i)
			}
			v, err := f(&ctx)
			if err != nil {
				out.Free()
				return nil, err
			}
			if !v.Null && v.K != kind && !(v.K == types.KindInt && kind == types.KindFloat) {
				out.Free()
				return nil, fmt.Errorf("vexec: %s value where %s was expected", v.K, kind)
			}
			out.Set(i, v)
		}
		return out, nil
	}
	return &Expr{fn: fn, kind: kind}, nil
}

// Coerce converts an expression's results to kind k lane by lane with
// types.Coerce (int to float, untyped NULL to a typed NULL), the
// conversion set operations and predicates need when the static kinds of
// their inputs differ. It returns e itself when the kinds already agree.
func Coerce(e *Expr, k types.Kind) *Expr {
	if e.kind == k {
		return e
	}
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		in, err := e.fn(b, sel)
		if err != nil {
			return nil, err
		}
		out := vector.NewBatchVec(k, b.N)
		for _, i := range sel {
			v, err := types.Coerce(in.Value(i), k)
			if err != nil {
				out.Free()
				e.FreeResult(in)
				return nil, err
			}
			out.Set(i, v)
		}
		e.FreeResult(in)
		return out, nil
	}
	return &Expr{fn: fn, kind: k}
}

// ColumnRef compiles a reference to batch column pos of kind k.
func ColumnRef(pos int, k types.Kind) *Expr {
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		if pos >= len(b.Cols) {
			return nil, fmt.Errorf("vexec: batch too narrow (%d <= %d)", len(b.Cols), pos)
		}
		return b.Cols[pos], nil
	}
	return &Expr{fn: fn, kind: k, aliasing: true}
}

func compileVar(n *algebra.Var, bind eval.Binder) (*Expr, error) {
	pos, err := bind.BindVar(n)
	if err != nil {
		return nil, err
	}
	return ColumnRef(pos, n.Typ), nil
}

func compileConst(n *algebra.Const) (*Expr, error) {
	val := n.Val
	var cache *vector.Vec
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		if cache == nil || cache.Len() < b.N {
			cache = broadcast(val, val.K, b.N)
		}
		return cache, nil
	}
	return &Expr{fn: fn, kind: val.K, aliasing: true}, nil
}

// compileSubLink vectorizes uncorrelated scalar and EXISTS sublinks: the
// subplan is materialized once (lazily, by the planner's sublink
// runtime) and the resulting value broadcast to a cached vector.
// Quantified (ANY/ALL) sublinks compare per lane and take the fallback
// kernel.
func compileSubLink(n *algebra.SubLink, bind eval.Binder) (*Expr, error) {
	kind := n.Typ
	if n.Kind == algebra.SubExists {
		kind = types.KindBool
	}
	if n.Kind != algebra.SubScalar && n.Kind != algebra.SubExists {
		return nil, errUnsupported
	}
	slv, err := bind.BindSubLink(n)
	if err != nil {
		return nil, err
	}
	isExists := n.Kind == algebra.SubExists
	var cache *vector.Vec
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		if cache == nil || cache.Len() < b.N {
			var val types.Value
			if isExists {
				ok, err := slv.Exists()
				if err != nil {
					return nil, err
				}
				val = types.NewBool(ok)
			} else {
				v, err := slv.Scalar()
				if err != nil {
					return nil, err
				}
				val = v
			}
			cache = broadcast(val, kind, b.N)
		}
		return cache, nil
	}
	return &Expr{fn: fn, kind: kind, aliasing: true}, nil
}

// broadcast fills a fresh (unpooled: it is cached across batches) vector
// of n copies of val, declared as kind (numeric values coerce).
func broadcast(val types.Value, kind types.Kind, n int) *vector.Vec {
	v := vector.NewVec(kind, n)
	if val.Null {
		for w := range v.Nulls {
			v.Nulls[w] = ^uint64(0)
		}
		return v
	}
	switch kind {
	case types.KindBool:
		for i := range v.B {
			v.B[i] = val.B
		}
	case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
		iv := val.I
		if val.K == types.KindFloat {
			iv = int64(val.F)
		}
		for i := range v.I {
			v.I[i] = iv
		}
	case types.KindFloat:
		f := val.AsFloat()
		for i := range v.F {
			v.F[i] = f
		}
	case types.KindString:
		for i := range v.S {
			v.S[i] = val.S
		}
	}
	return v
}

// numAt reads a numeric lane as float64 (operand kind is int or float).
func numAt(v *vector.Vec, i int) float64 {
	if v.Kind == types.KindFloat {
		return v.F[i]
	}
	return float64(v.I[i])
}

// cmpOp encodes a comparison operator for branch-light inner loops.
type cmpOp uint8

const (
	cmpEQ cmpOp = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpOpOf(op string) (cmpOp, bool) {
	switch op {
	case "=":
		return cmpEQ, true
	case "<>":
		return cmpNE, true
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	default:
		return 0, false
	}
}

func cmpOK(c int, op cmpOp) bool {
	switch op {
	case cmpEQ:
		return c == 0
	case cmpNE:
		return c != 0
	case cmpLT:
		return c < 0
	case cmpLE:
		return c <= 0
	case cmpGT:
		return c > 0
	default:
		return c >= 0
	}
}

// cmpClass describes how two operand kinds compare lane-wise.
type cmpClass uint8

const (
	classNone  cmpClass = iota
	classInt            // both int, or both date (compare I)
	classFloat          // numeric pair with at least one float
	classString
	classBool
	classInterval // both interval (compare approximate days, like types.Compare)
)

func classify(a, b types.Kind) cmpClass {
	switch {
	case a == types.KindInt && b == types.KindInt,
		a == types.KindDate && b == types.KindDate:
		return classInt
	case a.Numeric() && b.Numeric():
		return classFloat
	case a == types.KindString && b == types.KindString:
		return classString
	case a == types.KindBool && b == types.KindBool:
		return classBool
	case a == types.KindInterval && b == types.KindInterval:
		return classInterval
	default:
		return classNone
	}
}

// laneCompare orders two non-NULL lanes of a classified kind pair.
func laneCompare(class cmpClass, l *vector.Vec, li int, r *vector.Vec, ri int) int {
	switch class {
	case classInt:
		a, b := l.I[li], r.I[ri]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case classFloat:
		a, b := numAt(l, li), numAt(r, ri)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case classString:
		return strings.Compare(l.S[li], r.S[ri])
	case classInterval:
		return cmpI(intervalDays(l.I[li]), intervalDays(r.I[ri]))
	default: // classBool
		a, b := l.B[li], r.B[ri]
		switch {
		case a == b:
			return 0
		case b:
			return -1
		}
		return 1
	}
}

func compileBinOp(n *algebra.BinOp, bind eval.Binder) (*Expr, error) {
	if v, ok := algebra.FoldConst(n); ok && v.K == n.Typ {
		return compileConst(&algebra.Const{Val: v})
	}
	switch n.Op {
	case "AND", "OR":
		return compileLogic(n, bind)
	}
	l, err := CompileExpr(n.Left, bind)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(n.Right, bind)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return compileCompare(n, l, r)
	case "LIKE":
		return compileLike(n, l, r)
	case "+", "-", "*", "/", "%":
		return compileArith(n, l, r)
	default:
		return nil, errUnsupported
	}
}

func compileCompare(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	if n.Typ != types.KindBool {
		return nil, errUnsupported
	}
	op, ok := cmpOpOf(n.Op)
	if !ok {
		return nil, errUnsupported
	}
	class := classify(l.kind, r.kind)
	if class == classNone {
		return nil, errUnsupported
	}
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		lv, err := l.fn(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r.fn(b, sel)
		if err != nil {
			l.FreeResult(lv)
			return nil, err
		}
		out := vector.NewBatchVec(types.KindBool, b.N)
		if !lv.Nulls.AnySet(b.N) && !rv.Nulls.AnySet(b.N) {
			// Null-free fast path: no per-lane bitmap checks.
			if class == classInt {
				li, ri := lv.I, rv.I
				for _, i := range sel {
					out.B[i] = cmpOK(cmpI(li[i], ri[i]), op)
				}
			} else {
				for _, i := range sel {
					out.B[i] = cmpOK(laneCompare(class, lv, i, rv, i), op)
				}
			}
		} else {
			for _, i := range sel {
				if lv.Nulls.Get(i) || rv.Nulls.Get(i) {
					out.Nulls.Set(i)
					continue
				}
				out.B[i] = cmpOK(laneCompare(class, lv, i, rv, i), op)
			}
		}
		l.FreeResult(lv)
		r.FreeResult(rv)
		return out, nil
	}
	return &Expr{fn: fn, kind: types.KindBool}, nil
}

// intervalDays is an interval payload's ordering key: months count as
// 30 days, as in types.Compare.
func intervalDays(payload int64) int64 {
	mo, dy := types.Value{K: types.KindInterval, I: payload}.IntervalParts()
	return int64(mo)*30 + int64(dy)
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compileLike(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	if n.Typ != types.KindBool || l.kind != types.KindString || r.kind != types.KindString {
		return nil, errUnsupported
	}
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		lv, err := l.fn(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r.fn(b, sel)
		if err != nil {
			l.FreeResult(lv)
			return nil, err
		}
		out := vector.NewBatchVec(types.KindBool, b.N)
		for _, i := range sel {
			if lv.Nulls.Get(i) || rv.Nulls.Get(i) {
				out.Nulls.Set(i)
				continue
			}
			out.B[i] = eval.MatchLike(lv.S[i], rv.S[i])
		}
		l.FreeResult(lv)
		r.FreeResult(rv)
		return out, nil
	}
	return &Expr{fn: fn, kind: types.KindBool}, nil
}

func compileArith(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	op := n.Op
	if l.kind == types.KindInt && r.kind == types.KindInt {
		// Integer arithmetic (division truncates, / and % error on zero).
		if n.Typ != types.KindInt {
			return nil, errUnsupported
		}
		fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
			sel = resolveSel(b, sel)
			lv, err := l.fn(b, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r.fn(b, sel)
			if err != nil {
				l.FreeResult(lv)
				return nil, err
			}
			out := vector.NewBatchVec(types.KindInt, b.N)
			skipNulls := !lv.Nulls.AnySet(b.N) && !rv.Nulls.AnySet(b.N)
			for _, i := range sel {
				if !skipNulls && (lv.Nulls.Get(i) || rv.Nulls.Get(i)) {
					out.Nulls.Set(i)
					continue
				}
				a, c := lv.I[i], rv.I[i]
				switch op {
				case "+":
					out.I[i] = a + c
				case "-":
					out.I[i] = a - c
				case "*":
					out.I[i] = a * c
				default: // "/", "%"
					if c == 0 {
						out.Free()
						l.FreeResult(lv)
						r.FreeResult(rv)
						return nil, fmt.Errorf("division by zero")
					}
					if op == "/" {
						out.I[i] = a / c
					} else {
						out.I[i] = a % c
					}
				}
			}
			l.FreeResult(lv)
			r.FreeResult(rv)
			return out, nil
		}
		return &Expr{fn: fn, kind: types.KindInt}, nil
	}
	if l.kind.Numeric() && r.kind.Numeric() && op != "%" {
		if n.Typ != types.KindFloat {
			return nil, errUnsupported
		}
		fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
			sel = resolveSel(b, sel)
			lv, err := l.fn(b, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r.fn(b, sel)
			if err != nil {
				l.FreeResult(lv)
				return nil, err
			}
			out := vector.NewBatchVec(types.KindFloat, b.N)
			skipNulls := !lv.Nulls.AnySet(b.N) && !rv.Nulls.AnySet(b.N)
			for _, i := range sel {
				if !skipNulls && (lv.Nulls.Get(i) || rv.Nulls.Get(i)) {
					out.Nulls.Set(i)
					continue
				}
				a, c := numAt(lv, i), numAt(rv, i)
				switch op {
				case "+":
					out.F[i] = a + c
				case "-":
					out.F[i] = a - c
				case "*":
					out.F[i] = a * c
				default: // "/"
					if c == 0 {
						out.Free()
						l.FreeResult(lv)
						r.FreeResult(rv)
						return nil, fmt.Errorf("division by zero")
					}
					out.F[i] = a / c
				}
			}
			l.FreeResult(lv)
			r.FreeResult(rv)
			return out, nil
		}
		return &Expr{fn: fn, kind: types.KindFloat}, nil
	}
	return nil, errUnsupported
}

// compileLogic implements three-valued AND/OR with the row evaluator's
// short-circuit behaviour: the right operand is only evaluated on lanes
// the left operand does not already decide (so e.g. a division guarded
// by an AND never runs on the guarded-out lanes).
func compileLogic(n *algebra.BinOp, bind eval.Binder) (*Expr, error) {
	l, err := CompileExpr(n.Left, bind)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(n.Right, bind)
	if err != nil {
		return nil, err
	}
	if n.Typ != types.KindBool || l.kind != types.KindBool || r.kind != types.KindBool {
		return nil, errUnsupported
	}
	isAnd := n.Op == "AND"
	var subBuf []int
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		lv, err := l.fn(b, sel)
		if err != nil {
			return nil, err
		}
		// Lanes the left side does not decide.
		if subBuf == nil {
			subBuf = make([]int, 0, vector.BatchSize)
		}
		sub := subBuf[:0]
		for _, i := range sel {
			decided := !lv.Nulls.Get(i) && (lv.B[i] != isAnd)
			if !decided {
				sub = append(sub, i)
			}
		}
		subBuf = sub
		var rv *vector.Vec
		if len(sub) > 0 {
			rv, err = r.fn(b, sub)
			if err != nil {
				l.FreeResult(lv)
				return nil, err
			}
		}
		out := vector.NewBatchVec(types.KindBool, b.N)
		for _, i := range sel {
			ln := lv.Nulls.Get(i)
			if !ln && lv.B[i] != isAnd {
				out.B[i] = !isAnd // left decided: AND→false, OR→true
				continue
			}
			rn := rv.Nulls.Get(i)
			if !rn && rv.B[i] != isAnd {
				out.B[i] = !isAnd
				continue
			}
			if ln || rn {
				out.Nulls.Set(i)
				continue
			}
			out.B[i] = isAnd // both undecided and non-null: AND→true, OR→false
		}
		l.FreeResult(lv)
		if rv != nil {
			r.FreeResult(rv)
		}
		return out, nil
	}
	return &Expr{fn: fn, kind: types.KindBool}, nil
}

func compileUnOp(n *algebra.UnOp, bind eval.Binder) (*Expr, error) {
	if v, ok := algebra.FoldConst(n); ok && v.K == n.Typ {
		return compileConst(&algebra.Const{Val: v})
	}
	inner, err := CompileExpr(n.Expr, bind)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "NOT":
		if inner.kind != types.KindBool {
			return nil, errUnsupported
		}
		fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
			sel = resolveSel(b, sel)
			v, err := inner.fn(b, sel)
			if err != nil {
				return nil, err
			}
			out := vector.NewBatchVec(types.KindBool, b.N)
			for _, i := range sel {
				if v.Nulls.Get(i) {
					out.Nulls.Set(i)
					continue
				}
				out.B[i] = !v.B[i]
			}
			inner.FreeResult(v)
			return out, nil
		}
		return &Expr{fn: fn, kind: types.KindBool}, nil
	case "-":
		switch inner.kind {
		case types.KindInt, types.KindFloat:
		default:
			return nil, errUnsupported
		}
		if n.Typ != inner.kind {
			return nil, errUnsupported
		}
		kind := inner.kind
		fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
			sel = resolveSel(b, sel)
			v, err := inner.fn(b, sel)
			if err != nil {
				return nil, err
			}
			out := vector.NewBatchVec(kind, b.N)
			for _, i := range sel {
				if v.Nulls.Get(i) {
					out.Nulls.Set(i)
					continue
				}
				if kind == types.KindInt {
					out.I[i] = -v.I[i]
				} else {
					out.F[i] = -v.F[i]
				}
			}
			inner.FreeResult(v)
			return out, nil
		}
		return &Expr{fn: fn, kind: kind}, nil
	default:
		return nil, errUnsupported
	}
}

func compileIsNull(n *algebra.IsNull, bind eval.Binder) (*Expr, error) {
	inner, err := CompileExpr(n.Expr, bind)
	if err != nil {
		return nil, err
	}
	not := n.Not
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		v, err := inner.fn(b, sel)
		if err != nil {
			return nil, err
		}
		out := vector.NewBatchVec(types.KindBool, b.N)
		for _, i := range sel {
			out.B[i] = v.Nulls.Get(i) != not
		}
		inner.FreeResult(v)
		return out, nil
	}
	return &Expr{fn: fn, kind: types.KindBool}, nil
}

func compileDistinctFrom(n *algebra.DistinctFrom, bind eval.Binder) (*Expr, error) {
	l, err := CompileExpr(n.Left, bind)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(n.Right, bind)
	if err != nil {
		return nil, err
	}
	class := classify(l.kind, r.kind)
	if class == classNone {
		return nil, errUnsupported
	}
	not := n.Not
	fn := func(b *vector.Batch, sel []int) (*vector.Vec, error) {
		sel = resolveSel(b, sel)
		lv, err := l.fn(b, sel)
		if err != nil {
			return nil, err
		}
		rv, err := r.fn(b, sel)
		if err != nil {
			l.FreeResult(lv)
			return nil, err
		}
		out := vector.NewBatchVec(types.KindBool, b.N)
		for _, i := range sel {
			ln, rn := lv.Nulls.Get(i), rv.Nulls.Get(i)
			var distinct bool
			switch {
			case ln && rn:
				distinct = false
			case ln != rn:
				distinct = true
			default:
				distinct = laneCompare(class, lv, i, rv, i) != 0
			}
			out.B[i] = distinct != not
		}
		l.FreeResult(lv)
		r.FreeResult(rv)
		return out, nil
	}
	return &Expr{fn: fn, kind: types.KindBool}, nil
}

// ---------------------------------------------------------------------------
// Lane hashing and equality (hash join, hash aggregation)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashLane mixes one key lane into h. Numeric lanes hash by their
// float64 value so int and float keys that compare equal hash equal;
// NULL lanes hash to a sentinel (grouping and null-safe joins treat
// NULLs as equal).
func hashLane(h uint64, v *vector.Vec, i int) uint64 {
	if v.Nulls.Get(i) {
		return (h ^ 0xff) * fnvPrime64
	}
	switch v.Kind {
	case types.KindBool:
		h = (h ^ 1) * fnvPrime64
		if v.B[i] {
			h = (h ^ 1) * fnvPrime64
		} else {
			h = (h ^ 2) * fnvPrime64
		}
	case types.KindInt, types.KindFloat:
		h = (h ^ 2) * fnvPrime64
		h = (h ^ math.Float64bits(numAt(v, i))) * fnvPrime64
	case types.KindString:
		h = (h ^ 3) * fnvPrime64
		s := v.S[i]
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * fnvPrime64
		}
	case types.KindDate:
		h = (h ^ 4) * fnvPrime64
		h = (h ^ uint64(v.I[i])) * fnvPrime64
	case types.KindInterval:
		h = (h ^ 5) * fnvPrime64
		h = (h ^ uint64(intervalDays(v.I[i]))) * fnvPrime64
	default:
		h = (h ^ 0xfe) * fnvPrime64
	}
	return h
}

// hashLanes hashes one row of key vectors.
func hashLanes(keys []*vector.Vec, i int) uint64 {
	h := uint64(fnvOffset64)
	for _, kv := range keys {
		h = hashLane(h, kv, i)
	}
	return h
}

// lanesEqualNullSafe compares key lane a[i] with b[j] treating NULLs as
// equal (grouping / IS NOT DISTINCT FROM semantics). Kind pairs outside
// the comparable classes never match.
func lanesEqualNullSafe(a *vector.Vec, i int, b *vector.Vec, j int) bool {
	an, bn := a.Nulls.Get(i), b.Nulls.Get(j)
	if an || bn {
		return an && bn
	}
	class := classify(a.Kind, b.Kind)
	if class == classNone {
		return false
	}
	return laneCompare(class, a, i, b, j) == 0
}
