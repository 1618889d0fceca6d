//! Classic dataflow analyses over the HIR statement tree.
//!
//! The lint layer ([`crate::lint`]) is built on four analyses, all running
//! directly on the structured `HStmt` tree (no CFG is needed — the
//! language has no `goto`, so loops are the only back edges and a local
//! fixpoint per loop suffices):
//!
//! * **use-def events** ([`scalar_events`]) — every scalar read, write and
//!   reduction-shaped update, each tagged with its enclosing-loop chain
//!   and a preorder position. This is the use-def-chain substrate the
//!   placement analysis (paper §3.2.1) walks.
//! * **consume liveness** ([`consume_liveness`]) — backward liveness in
//!   which a reduction-shaped update `s = s ⊕ e` does *not* read `s`:
//!   what remains live is exactly the set of variables whose value is
//!   *consumed* later, which is the paper's "where is the variable next
//!   used" question.
//! * **definite assignment** ([`read_before_write`]) — forward
//!   must-assigned analysis (the dual of reaching definitions over the
//!   "uninitialized" pseudo-definition) used by the `private`
//!   read-before-write check.
//! * **affine dependence** ([`loop_dependence`]) — strong-SIV distance
//!   tests on affine subscripts, used to detect loop-carried dependences
//!   in loops the user parallelized.

use crate::ast::{BinOpKind, RedOp};
use crate::diag::Span;
use crate::hir::{visit_stmts, HExpr, HExprKind, HLoop, HStmt, Sym};
use crate::reduction::update_form;
use std::collections::{BTreeMap, HashSet};

/// Identifies a loop by its source span (unique per loop).
pub type LoopKey = (usize, usize);

/// The [`LoopKey`] of a loop.
pub fn loop_key(l: &HLoop) -> LoopKey {
    (l.span.start, l.span.end)
}

// ---- expression walkers -------------------------------------------------

/// Strip top-level implicit casts (sema's `coerce` wraps values).
pub fn strip_casts(e: &HExpr) -> &HExpr {
    match &e.kind {
        HExprKind::Cast { operand } => strip_casts(operand),
        _ => e,
    }
}

/// Span-insensitive structural equality of expressions.
pub fn expr_eq(a: &HExpr, b: &HExpr) -> bool {
    if a.ty != b.ty {
        return false;
    }
    match (&a.kind, &b.kind) {
        (HExprKind::Int(x), HExprKind::Int(y)) => x == y,
        (HExprKind::Float(x), HExprKind::Float(y)) => x == y,
        (HExprKind::Sym(x), HExprKind::Sym(y)) => x == y,
        (
            HExprKind::Load {
                array: ax,
                indices: ix,
            },
            HExprKind::Load {
                array: ay,
                indices: iy,
            },
        ) => ax == ay && ix.len() == iy.len() && ix.iter().zip(iy).all(|(p, q)| expr_eq(p, q)),
        (
            HExprKind::Un {
                op: ox,
                operand: px,
            },
            HExprKind::Un {
                op: oy,
                operand: py,
            },
        ) => ox == oy && expr_eq(px, py),
        (
            HExprKind::Bin {
                op: ox,
                lhs: lx,
                rhs: rx,
                ..
            },
            HExprKind::Bin {
                op: oy,
                lhs: ly,
                rhs: ry,
                ..
            },
        ) => ox == oy && expr_eq(lx, ly) && expr_eq(rx, ry),
        (
            HExprKind::Cond {
                cond: cx,
                then: tx,
                els: ex,
            },
            HExprKind::Cond {
                cond: cy,
                then: ty,
                els: ey,
            },
        ) => expr_eq(cx, cy) && expr_eq(tx, ty) && expr_eq(ex, ey),
        (HExprKind::Call { func: fx, args: ax }, HExprKind::Call { func: fy, args: ay }) => {
            fx == fy && ax.len() == ay.len() && ax.iter().zip(ay).all(|(p, q)| expr_eq(p, q))
        }
        (HExprKind::Cast { operand: px }, HExprKind::Cast { operand: py }) => expr_eq(px, py),
        _ => false,
    }
}

// ---- reduction-shaped updates -------------------------------------------

/// A recognized `s = s ⊕ e` assignment (the shape sema turns into
/// `ReduceUpdate` when a matching clause is active; without a clause it
/// stays a plain assignment — and is a cross-iteration race in a parallel
/// loop).
#[derive(Debug, Clone, Copy)]
pub struct UpdateShape<'a> {
    pub sym: Sym,
    pub op: RedOp,
    /// The non-self operand `e`.
    pub operand: &'a HExpr,
    pub span: Span,
}

fn sym_of(e: &HExpr) -> Option<Sym> {
    match &strip_casts(e).kind {
        HExprKind::Sym(s) => Some(*s),
        _ => None,
    }
}

/// Recognize a reduction-shaped assignment ([`update_form`]): `s = s ⊕ e`
/// / `s = e ⊕ s` for the paper's nine operators, or `s = fmax(s, e)` /
/// `min`/`max` forms. The operand must not read `s` again (an expression
/// like `s = s + s` is not a clean reduction).
pub fn update_shape(stmt: &HStmt) -> Option<UpdateShape<'_>> {
    let (target, value) = stmt.scalar_target()?;
    let v = strip_casts(value);
    let (op, operand) = update_form(v, |e| sym_of(e) == Some(target), |e| !e.reads_sym(target))?;
    Some(UpdateShape {
        sym: target,
        op,
        operand,
        span: v.span,
    })
}

// ---- use-def events -----------------------------------------------------

/// What a [`ScalarEvent`] does to its symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarEventKind {
    /// A reduction-shaped plain assignment (`s = s ⊕ e` with no clause).
    Update(RedOp),
    /// A `ReduceUpdate` under an active reduction clause.
    ClauseUpdate(RedOp),
    /// Any other write.
    Write,
    /// A read (the self-read of an `Update`/`ClauseUpdate` is *not*
    /// reported — only its operand's reads are).
    Read,
}

/// One scalar use or definition, with its position in the loop structure.
#[derive(Debug, Clone)]
pub struct ScalarEvent<'a> {
    pub sym: Sym,
    pub kind: ScalarEventKind,
    /// Enclosing loops, outermost first.
    pub chain: Vec<&'a HLoop>,
    /// Preorder position in the region body (use-def ordering).
    pub order: usize,
    pub span: Span,
}

struct EventWalker<'a> {
    order: usize,
    out: Vec<ScalarEvent<'a>>,
}

impl<'a> EventWalker<'a> {
    /// One read per distinct symbol of `e`, in the order of its first read.
    fn reads(&mut self, e: &HExpr, chain: &[&'a HLoop]) {
        let first = self.out.len();
        e.walk(&mut |n| {
            if let HExprKind::Sym(sym) = n.kind {
                if !self.out[first..].iter().any(|ev| ev.sym == sym) {
                    self.event(sym, ScalarEventKind::Read, e.span, chain);
                }
            }
        });
    }

    fn event(&mut self, sym: Sym, kind: ScalarEventKind, span: Span, chain: &[&'a HLoop]) {
        self.out.push(ScalarEvent {
            sym,
            kind,
            chain: chain.to_vec(),
            order: self.order,
            span,
        });
    }

    fn stmt(&mut self, stmt: &'a HStmt, chain: &[&'a HLoop]) {
        self.order += 1;
        if let Some(u) = update_shape(stmt) {
            self.reads(u.operand, chain);
            self.event(u.sym, ScalarEventKind::Update(u.op), u.span, chain);
            return;
        }
        for e in stmt.exprs() {
            self.reads(e, chain);
        }
        match stmt {
            HStmt::ReduceUpdate { sym, op, span, .. } => {
                self.event(*sym, ScalarEventKind::ClauseUpdate(*op), *span, chain)
            }
            HStmt::Loop(l) => {
                // The loop defines its induction variable, inside the loop.
                self.order += 1;
                let inner: Vec<&HLoop> = chain.iter().copied().chain([l]).collect();
                self.event(Sym::Local(l.var), ScalarEventKind::Write, l.span, &inner);
            }
            _ => {
                if let Some((sym, value)) = stmt.scalar_target() {
                    self.event(sym, ScalarEventKind::Write, value.span, chain);
                }
            }
        }
    }
}

/// Collect every scalar use/def in `body` with loop chains and preorder
/// positions.
pub fn scalar_events(body: &[HStmt]) -> Vec<ScalarEvent<'_>> {
    let mut w = EventWalker {
        order: 0,
        out: Vec::new(),
    };
    visit_stmts(body, &mut |s, chain| w.stmt(s, chain));
    w.out
}

// ---- consume liveness ---------------------------------------------------

/// Result of [`consume_liveness`]: which symbols are consumed (read in a
/// non-update position) after each loop.
#[derive(Debug, Default)]
pub struct Liveness {
    /// Symbols live immediately *after* each loop, keyed by [`LoopKey`].
    pub live_after_loop: BTreeMap<LoopKey, HashSet<Sym>>,
}

/// Backward liveness over the statement tree where reduction-shaped
/// updates do not gen their own symbol (their self-read only feeds the
/// accumulation, not a *use* of the combined value). The result answers
/// §3.2.1's placement question: a symbol in `live_after_loop[l]` has its
/// accumulated value consumed somewhere after `l`.
pub fn consume_liveness(body: &[HStmt], exit_live: &HashSet<Sym>) -> Liveness {
    let mut lv = Liveness::default();
    let mut live = exit_live.clone();
    stmts_live(body, &mut live, &mut lv);
    lv
}

fn gen_expr(e: &HExpr, live: &mut HashSet<Sym>) {
    e.walk(&mut |n| {
        if let HExprKind::Sym(s) = n.kind {
            live.insert(s);
        }
    });
}

fn stmts_live(stmts: &[HStmt], live: &mut HashSet<Sym>, lv: &mut Liveness) {
    for s in stmts.iter().rev() {
        stmt_live(s, live, lv);
    }
}

fn stmt_live(stmt: &HStmt, live: &mut HashSet<Sym>, lv: &mut Liveness) {
    match stmt {
        HStmt::If { cond, then, els } => {
            let mut t = live.clone();
            stmts_live(then, &mut t, lv);
            stmts_live(els, live, lv);
            live.extend(t);
            gen_expr(cond, live);
        }
        HStmt::Loop(l) => {
            lv.live_after_loop
                .entry(loop_key(l))
                .or_default()
                .extend(live.iter().copied());
            // Fixpoint over the back edge: anything generated by the body
            // may flow into an earlier iteration of the body.
            loop {
                let before = live.clone();
                let mut body_live = live.clone();
                stmts_live(&l.body, &mut body_live, lv);
                live.extend(body_live);
                if *live == before {
                    break;
                }
            }
            live.remove(&Sym::Local(l.var));
            stmt.exprs().for_each(|e| gen_expr(e, live));
        }
        _ => {
            // Any other statement runs its nested bodies (none today)
            // once, after its own expressions.
            for body in stmt.bodies().iter().rev() {
                stmts_live(body, live, lv);
            }
            match update_shape(stmt) {
                // kill nothing (the accumulated value flows through),
                // gen the operand but not the self-read.
                Some(u) => gen_expr(u.operand, live),
                None => {
                    if let Some((sym, _)) = stmt.scalar_target() {
                        live.remove(&sym);
                    }
                    stmt.exprs().for_each(|e| gen_expr(e, live));
                }
            }
        }
    }
}

// ---- definite assignment ------------------------------------------------

/// Forward must-assigned analysis: report, for each tracked symbol, the
/// first read that can execute before any write on some path (the
/// `private` read-before-write check), one report per symbol in the order
/// of those reads. Loop bodies are treated as possibly executing zero
/// times, so writes inside a nested loop do not count as definite. Reads
/// inside `ReduceUpdate` self-positions do not count (codegen initializes
/// the accumulator with the identity).
pub fn read_before_write(
    body: &[HStmt],
    tracked: &HashSet<Sym>,
    pre_assigned: &HashSet<Sym>,
) -> Vec<(Sym, Span)> {
    let mut da = DefiniteAssignment {
        tracked,
        seen: HashSet::new(),
        reports: Vec::new(),
    };
    da.stmts(body, &mut pre_assigned.clone());
    da.reports
}

struct DefiniteAssignment<'t> {
    tracked: &'t HashSet<Sym>,
    seen: HashSet<Sym>,
    reports: Vec<(Sym, Span)>,
}

impl DefiniteAssignment<'_> {
    /// Report each tracked, unassigned symbol `e` reads, the first time
    /// it is read; the report carries the span of the whole expression.
    fn check(&mut self, e: &HExpr, assigned: &HashSet<Sym>) {
        e.walk(&mut |n| {
            if let HExprKind::Sym(s) = n.kind {
                if self.tracked.contains(&s) && !assigned.contains(&s) && self.seen.insert(s) {
                    self.reports.push((s, e.span));
                }
            }
        });
    }

    fn stmts(&mut self, stmts: &[HStmt], assigned: &mut HashSet<Sym>) {
        for s in stmts {
            self.stmt(s, assigned);
        }
    }

    fn stmt(&mut self, stmt: &HStmt, assigned: &mut HashSet<Sym>) {
        for e in stmt.exprs() {
            self.check(e, assigned);
        }
        match stmt {
            HStmt::If { then, els, .. } => {
                let mut a_then = assigned.clone();
                let mut a_els = assigned.clone();
                self.stmts(then, &mut a_then);
                self.stmts(els, &mut a_els);
                *assigned = a_then.intersection(&a_els).copied().collect();
            }
            HStmt::Loop(l) => {
                // The body may run zero times: analyze it (the loop var is
                // assigned inside), but discard its assignments.
                let mut a_body = assigned.clone();
                a_body.insert(Sym::Local(l.var));
                self.stmts(&l.body, &mut a_body);
            }
            HStmt::ReduceUpdate { sym, .. } => {
                assigned.insert(*sym);
            }
            _ => {
                assigned.extend(stmt.scalar_target().map(|(sym, _)| sym));
                // Any other statement runs its nested bodies (none today)
                // once, in order.
                for body in stmt.bodies() {
                    self.stmts(body, assigned);
                }
            }
        }
    }
}

// ---- array accesses and affine dependence -------------------------------

/// One array access inside a loop body.
#[derive(Debug, Clone, Copy)]
pub struct ArrayAccess<'a> {
    pub array: usize,
    pub indices: &'a [HExpr],
    pub is_write: bool,
    pub span: Span,
}

/// Collect every array access (loads and stores) in `stmts`, descending
/// into nested control flow and loops. A store precedes the loads of its
/// own subscripts and value.
pub fn collect_array_accesses<'a>(stmts: &'a [HStmt], out: &mut Vec<ArrayAccess<'a>>) {
    visit_stmts(stmts, &mut |s, _| {
        if let HStmt::Store {
            array,
            indices,
            value,
        } = s
        {
            out.push(ArrayAccess {
                array: *array,
                indices,
                is_write: true,
                span: indices.first().map(|e| e.span).unwrap_or(value.span),
            });
        }
        for e in s.exprs() {
            e.walk(&mut |n| {
                if let HExprKind::Load { array, indices } = &n.kind {
                    out.push(ArrayAccess {
                        array: *array,
                        indices,
                        is_write: false,
                        span: n.span,
                    });
                }
            });
        }
    });
}

/// Symbols whose value varies across iterations of a loop body: targets
/// of any write in the body, plus nested induction variables.
pub fn varying_syms(body: &[HStmt]) -> HashSet<Sym> {
    let mut out = HashSet::new();
    for ev in scalar_events(body) {
        if !matches!(ev.kind, ScalarEventKind::Read) {
            out.insert(ev.sym);
        }
    }
    out
}

/// `coeff * var + offset [+ base]` decomposition of a subscript.
#[derive(Debug, Clone, Copy)]
pub struct AffineForm<'a> {
    pub coeff: i64,
    pub offset: i64,
    /// Var-free symbolic remainder (`None` = 0).
    pub base: Option<&'a HExpr>,
}

/// Decompose `e` as an affine form in local `var`. Returns `None` when
/// the subscript is not affine in `var` (e.g. `i*i`, `a[i]`-dependent).
pub fn affine_in(e: &HExpr, var: usize) -> Option<AffineForm<'_>> {
    if let Some(k) = e.const_int() {
        return Some(AffineForm {
            coeff: 0,
            offset: k,
            base: None,
        });
    }
    if !e.reads_sym(Sym::Local(var)) {
        return Some(AffineForm {
            coeff: 0,
            offset: 0,
            base: Some(e),
        });
    }
    match &e.kind {
        HExprKind::Sym(Sym::Local(v)) if *v == var => Some(AffineForm {
            coeff: 1,
            offset: 0,
            base: None,
        }),
        HExprKind::Cast { operand } => affine_in(operand, var),
        HExprKind::Un {
            op: crate::ast::UnOpKind::Neg,
            operand,
        } => {
            let a = affine_in(operand, var)?;
            if a.base.is_some() {
                return None;
            }
            Some(AffineForm {
                coeff: a.coeff.checked_neg()?,
                offset: a.offset.checked_neg()?,
                base: None,
            })
        }
        HExprKind::Bin { op, lhs, rhs, .. } => match op {
            BinOpKind::Add | BinOpKind::Sub => {
                let a = affine_in(lhs, var)?;
                let b = affine_in(rhs, var)?;
                let sign = if *op == BinOpKind::Add { 1 } else { -1 };
                let base = match (a.base, b.base) {
                    (x, None) => x,
                    (None, Some(y)) if *op == BinOpKind::Add => Some(y),
                    (Some(x), Some(y)) if expr_eq(x, y) && *op == BinOpKind::Sub => None,
                    _ => return None,
                };
                // Checked arithmetic throughout: a subscript built from
                // absurd literals must degrade to "not affine" (and thus a
                // conservative Unanalyzable verdict), never wrap or panic.
                let add_signed = |x: i64, y: i64| {
                    if sign == 1 {
                        x.checked_add(y)
                    } else {
                        x.checked_sub(y)
                    }
                };
                Some(AffineForm {
                    coeff: add_signed(a.coeff, b.coeff)?,
                    offset: add_signed(a.offset, b.offset)?,
                    base,
                })
            }
            BinOpKind::Mul => {
                let (k, other) = if let Some(k) = lhs.const_int() {
                    (k, rhs)
                } else if let Some(k) = rhs.const_int() {
                    (k, lhs)
                } else {
                    return None;
                };
                let a = affine_in(other, var)?;
                if a.base.is_some() {
                    return None;
                }
                Some(AffineForm {
                    coeff: k.checked_mul(a.coeff)?,
                    offset: k.checked_mul(a.offset)?,
                    base: None,
                })
            }
            _ => None,
        },
        _ => None,
    }
}

/// Per-dimension relation between two subscripts w.r.t. the loop var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DimRel {
    /// The subscripts can never be equal.
    Indep,
    /// Equal only at iteration distance `d` (`d == 0` pins same-iteration).
    Dist(i64),
    /// Equal at every iteration distance (loop-invariant equal subscripts).
    AllIter,
    /// Not analyzable.
    Unknown,
}

fn dim_rel(a: &HExpr, b: &HExpr, var: usize, varying: &HashSet<Sym>) -> DimRel {
    let (Some(fa), Some(fb)) = (affine_in(a, var), affine_in(b, var)) else {
        return DimRel::Unknown;
    };
    // A symbolic base must be invariant across iterations of the analyzed
    // loop, otherwise the "same base" reasoning is unsound (e.g. an inner
    // induction variable takes every value in every outer iteration).
    let base_invariant = |base: Option<&HExpr>| {
        base.is_none_or(|e| {
            !e.any(&mut |n| matches!(n.kind, HExprKind::Sym(s) if varying.contains(&s)))
        })
    };
    let bases_known = match (fa.base, fb.base) {
        (None, None) => true,
        (Some(x), Some(y)) => expr_eq(x, y) && base_invariant(Some(x)),
        _ => false,
    };
    if !bases_known {
        return DimRel::Unknown;
    }
    if fa.coeff != fb.coeff {
        // Weak SIV; solvable in principle, out of scope here.
        return DimRel::Unknown;
    }
    // coeff*(i2 - i1) = d; offsets near the i64 boundary fall back to
    // Unknown instead of overflowing.
    let Some(d) = fa.offset.checked_sub(fb.offset) else {
        return DimRel::Unknown;
    };
    if fa.coeff == 0 {
        return if d == 0 {
            DimRel::AllIter
        } else {
            DimRel::Indep
        };
    }
    match (d.checked_rem(fa.coeff), d.checked_div(fa.coeff)) {
        (Some(0), Some(q)) => DimRel::Dist(q),
        (Some(_), _) => DimRel::Indep,
        // i64::MIN / -1 style overflow: not analyzable.
        _ => DimRel::Unknown,
    }
}

/// Result of a dependence test between two accesses in a parallel loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepResult {
    /// No two distinct iterations touch the same element.
    Independent,
    /// Conflicts only within one iteration — safe to parallelize.
    SameIteration,
    /// Distinct iterations at the given distance touch the same element.
    Carried(i64),
    /// Every iteration touches the same element.
    SameElement,
    /// Subscripts not analyzable; a carried dependence cannot be excluded.
    Unanalyzable,
}

/// Strong-SIV dependence test between a write and another access to the
/// same array, with respect to loop variable `var`. `varying` is the set
/// of symbols whose value changes across iterations of the loop body
/// (see [`varying_syms`]).
pub fn loop_dependence(
    w: &ArrayAccess<'_>,
    o: &ArrayAccess<'_>,
    var: usize,
    varying: &HashSet<Sym>,
) -> DepResult {
    debug_assert_eq!(w.array, o.array);
    let mut dist: Option<i64> = None;
    let mut unknown = false;
    for (ia, ib) in w.indices.iter().zip(o.indices.iter()) {
        match dim_rel(ia, ib, var, varying) {
            DimRel::Indep => return DepResult::Independent,
            DimRel::Dist(k) => match dist {
                Some(prev) if prev != k => return DepResult::Independent,
                _ => dist = Some(k),
            },
            DimRel::AllIter => {}
            DimRel::Unknown => unknown = true,
        }
    }
    match dist {
        // A required distance of zero excludes cross-iteration conflicts
        // regardless of unanalyzable dimensions.
        Some(0) => DepResult::SameIteration,
        Some(k) => {
            if unknown {
                DepResult::Unanalyzable
            } else {
                DepResult::Carried(k)
            }
        }
        None => {
            if unknown {
                DepResult::Unanalyzable
            } else {
                DepResult::SameElement
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sema::analyze;

    fn compile_region(src: &str) -> crate::hir::AnalyzedProgram {
        let ast = crate::parser::parse_program(src).expect("parse");
        analyze(&ast).expect("analyze")
    }

    fn grid_like(update: &str) -> String {
        format!(
            "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{\n{update}\n}}\n}}"
        )
    }

    #[test]
    fn update_shape_recognizes_all_forms() {
        for (stmt, op) in [
            ("s = s + a[i];", RedOp::Add),
            ("s += a[i];", RedOp::Add),
            ("s = a[i] + s;", RedOp::Add),
            ("s = s * a[i];", RedOp::Mul),
            ("s = fmax(s, a[i]);", RedOp::Max),
            ("s = fmin(a[i], s);", RedOp::Min),
        ] {
            let p = compile_region(&grid_like(stmt));
            let evs = scalar_events(&p.regions[0].body);
            let found = evs
                .iter()
                .find(|e| matches!(e.kind, ScalarEventKind::Update(_)))
                .unwrap_or_else(|| panic!("no update event for `{stmt}`"));
            assert_eq!(found.kind, ScalarEventKind::Update(op), "for `{stmt}`");
            assert_eq!(found.chain.len(), 1, "for `{stmt}`");
        }
    }

    #[test]
    fn update_shape_rejects_non_reductions() {
        for stmt in ["s = s + a[i] + s;", "s = a[i];", "s = s - a[i];"] {
            let p = compile_region(&grid_like(stmt));
            let evs = scalar_events(&p.regions[0].body);
            assert!(
                !evs.iter()
                    .any(|e| matches!(e.kind, ScalarEventKind::Update(_))),
                "`{stmt}` must not be update-shaped"
            );
        }
    }

    #[test]
    fn consume_liveness_excludes_update_self_read() {
        let src = "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { s += a[i]; }\n}";
        let p = compile_region(src);
        let r = &p.regions[0];
        // s is a host scalar written by the region: live at exit.
        let s_sym = Sym::Host(p.hosts.iter().position(|h| h.name == "s").expect("host s"));
        let exit: HashSet<Sym> = [s_sym].into_iter().collect();
        let lv = consume_liveness(&r.body, &exit);
        let (_, after) = lv.live_after_loop.iter().next().expect("one loop");
        assert!(after.contains(&s_sym));
        // With nothing live at exit, the update alone keeps nothing alive.
        let lv2 = consume_liveness(&r.body, &HashSet::new());
        let (_, after2) = lv2.live_after_loop.iter().next().expect("one loop");
        assert!(!after2.contains(&s_sym));
    }

    #[test]
    fn read_before_write_flags_uninitialized_use() {
        let src = "int N;\ndouble a[N]; double out[N];\n\
             #pragma acc parallel copyin(a) copyout(out)\n{\n\
             double t = 0.0;\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { out[i] = t + a[i]; t = a[i]; }\n}";
        let p = compile_region(src);
        let r = &p.regions[0];
        let t_sym = Sym::Local(
            r.locals
                .iter()
                .position(|l| l.name == "t")
                .expect("local t"),
        );
        // Track t across the loop body only (private-per-iteration view):
        // the read `t + a[i]` precedes the write `t = a[i]`.
        let body = match r.body.iter().find(|s| matches!(s, HStmt::Loop(_))) {
            Some(HStmt::Loop(l)) => &l.body,
            _ => panic!("no loop"),
        };
        let tracked: HashSet<Sym> = [t_sym].into_iter().collect();
        let reports = read_before_write(body, &tracked, &HashSet::new());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, t_sym);
    }

    #[test]
    fn affine_decomposition() {
        let src = "int N; int M;\ndouble a[N]; double out[N];\n\
             #pragma acc parallel copyin(a) copyout(out)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { out[2*i + 3] = a[M + i] + a[7]; }\n}";
        let p = compile_region(src);
        let mut accs = Vec::new();
        collect_array_accesses(&p.regions[0].body, &mut accs);
        let var = match &p.regions[0].body[0] {
            HStmt::Loop(l) => l.var,
            _ => panic!(),
        };
        let store = accs.iter().find(|a| a.is_write).unwrap();
        let f = affine_in(&store.indices[0], var).unwrap();
        assert_eq!((f.coeff, f.offset), (2, 3));
        assert!(f.base.is_none());
        let loads: Vec<_> = accs.iter().filter(|a| !a.is_write).collect();
        let fm = affine_in(&loads[0].indices[0], var).unwrap();
        assert_eq!(fm.coeff, 1);
        assert!(fm.base.is_some());
        let fc = affine_in(&loads[1].indices[0], var).unwrap();
        assert_eq!((fc.coeff, fc.offset), (0, 7));
    }

    #[test]
    fn dependence_distances() {
        // a[i] = a[i-1] + 1 — classic distance-1 carried dependence.
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 1; i < N; i++) { a[i] = a[i - 1] + 1.0; }\n}";
        let p = compile_region(src);
        let body = match &p.regions[0].body[0] {
            HStmt::Loop(l) => l,
            _ => panic!(),
        };
        let mut accs = Vec::new();
        collect_array_accesses(&body.body, &mut accs);
        let varying = varying_syms(&body.body);
        let w = accs.iter().find(|a| a.is_write).unwrap();
        let r = accs.iter().find(|a| !a.is_write).unwrap();
        assert_eq!(
            loop_dependence(w, r, body.var, &varying),
            DepResult::Carried(1)
        );
        assert_eq!(
            loop_dependence(w, w, body.var, &varying),
            DepResult::SameIteration
        );
    }

    /// Build the (write, other) access pair plus loop var/varying set for a
    /// single-loop body containing exactly one store.
    fn dep_of(src: &str) -> DepResult {
        let p = compile_region(src);
        let body = match &p.regions[0].body[0] {
            HStmt::Loop(l) => l,
            _ => panic!("no loop"),
        };
        let mut accs = Vec::new();
        collect_array_accesses(&body.body, &mut accs);
        let varying = varying_syms(&body.body);
        let w = accs.iter().find(|a| a.is_write).expect("write access");
        let r = accs
            .iter()
            .find(|a| !a.is_write && a.array == w.array)
            .expect("read access");
        loop_dependence(w, r, body.var, &varying)
    }

    #[test]
    fn dependence_negative_distance() {
        // a[i] = a[i+1]: the write at iteration i conflicts with the read
        // issued at iteration i+1 — a carried anti-dependence at distance
        // -1 from the write's perspective.
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N - 1; i++) { a[i] = a[i + 1]; }\n}";
        assert_eq!(dep_of(src), DepResult::Carried(-1));
    }

    #[test]
    fn dependence_zero_distance_with_scaled_subscripts() {
        // a[2*i] = a[2*i] + 1: same scaled subscript on both sides — a
        // distance of exactly zero, which is safe to parallelize.
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N / 2; i++) { a[2*i] = a[2*i] + 1.0; }\n}";
        assert_eq!(dep_of(src), DepResult::SameIteration);
    }

    #[test]
    fn dependence_loop_var_on_both_sides_of_subscript() {
        // a[i + i] = a[2*i]: `i` appears twice in the left subscript; the
        // affine collector must fold it to coeff 2 and prove distance 0.
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N / 2; i++) { a[i + i] = a[2*i]; }\n}";
        assert_eq!(dep_of(src), DepResult::SameIteration);
        // a[i - i] cancels to a constant subscript: every iteration hits
        // element 0 while reading a varying one — SameElement conflict.
        let src2 = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { a[i - i] = a[0] + 1.0; }\n}";
        assert_eq!(dep_of(src2), DepResult::SameElement);
    }

    #[test]
    fn dependence_offset_overflow_is_conservative() {
        // Subscript offsets near the i64 boundary: constant folding and
        // the affine test must degrade to Unanalyzable (or prove
        // independence), never wrap or panic in debug builds.
        let big = i64::MAX;
        let src = format!(
            "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{ a[i + {big}] = a[i - {big}]; }}\n}}"
        );
        // `i + MAX` is affine (coeff 1, offset MAX); the distance test
        // MAX - (-MAX) overflows and must come back Unknown → Unanalyzable.
        assert_eq!(dep_of(&src), DepResult::Unanalyzable);
        // Constant-folded subscript overflow: MAX + MAX is not a
        // representable constant; the whole expression degrades.
        let src2 = format!(
            "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{ a[{big} + {big}] = a[i]; }}\n}}"
        );
        assert_eq!(dep_of(&src2), DepResult::Unanalyzable);
        // Scaled-coefficient overflow: MAX * 2 * i cannot be represented.
        let src3 = format!(
            "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{ a[{big} * i + i] = a[i]; }}\n}}"
        );
        assert_eq!(dep_of(&src3), DepResult::Unanalyzable);
    }

    #[test]
    fn dependence_same_element_and_unknown() {
        let src = "int N;\ndouble a[N]; double b[N];\nint idx[N];\n\
             #pragma acc parallel copy(a) copyin(b) copyin(idx)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { a[0] = b[i]; a[idx[i]] = 1.0; }\n}";
        let p = compile_region(src);
        let body = match &p.regions[0].body[0] {
            HStmt::Loop(l) => l,
            _ => panic!(),
        };
        let mut accs = Vec::new();
        collect_array_accesses(&body.body, &mut accs);
        let varying = varying_syms(&body.body);
        let writes: Vec<_> = accs.iter().filter(|a| a.is_write).collect();
        assert_eq!(
            loop_dependence(writes[0], writes[0], body.var, &varying),
            DepResult::SameElement
        );
        assert_eq!(
            loop_dependence(writes[1], writes[1], body.var, &varying),
            DepResult::Unanalyzable
        );
    }
}
