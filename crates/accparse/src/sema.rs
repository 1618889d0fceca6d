//! Semantic analysis: resolve names, type expressions, canonicalize loops,
//! recognize reduction updates and detect each reduction's parallelism span.
//!
//! The span detection implements the paper's §3.2.1 behaviour: the user
//! writes one `reduction` clause on the loop closest to the next use of the
//! variable; the compiler finds every update of the variable in deeper
//! loops and widens the reduction to cover all parallelism levels between
//! the clause loop and the innermost updating loop.

use crate::ast::{
    self, AssignOp, BinOpKind, CType, DataDir, Expr, ExprKind, LValue, Level, NameItem, Program,
    RedOp, ReductionClause, Stmt, StmtKind, UnOpKind,
};
use crate::diag::{Diag, Span};
use crate::hir::*;
use crate::reduction::{update_form, Combine};
use std::collections::{HashMap, HashSet};

/// Analyze a parsed program into typed HIR.
pub fn analyze(p: &Program) -> Result<AnalyzedProgram, Diag> {
    let mut hosts: Vec<HostScalar> = Vec::new();
    let mut arrays: Vec<ArrayDecl> = Vec::new();
    let mut host_assigns: Vec<HostAssign> = Vec::new();
    let mut names: HashMap<String, Sym0> = HashMap::new();

    // -- top-level declarations and host assignments ------------------------
    for d in &p.decls {
        match &d.kind {
            StmtKind::Decl {
                ty,
                name,
                dims,
                init,
            } => {
                if names.contains_key(name) {
                    return Err(Diag::new(format!("`{name}` redeclared"), d.span));
                }
                if dims.is_empty() {
                    let idx = hosts.len();
                    hosts.push(HostScalar {
                        name: name.clone(),
                        ty: *ty,
                    });
                    names.insert(name.clone(), Sym0::Host(idx));
                    if let Some(e) = init {
                        let value = RegionSema::new(&hosts, &arrays, &names).host_scope(e)?;
                        host_assigns.push(HostAssign {
                            host: idx,
                            value,
                            span: d.span,
                        });
                    }
                } else {
                    let mut rs = RegionSema::new(&hosts, &arrays, &names);
                    let dims = dims
                        .iter()
                        .map(|dim| rs.host_scope(dim))
                        .collect::<Result<_, _>>()?;
                    let idx = arrays.len();
                    arrays.push(ArrayDecl {
                        name: name.clone(),
                        ty: *ty,
                        dims,
                    });
                    names.insert(name.clone(), Sym0::Array(idx));
                }
            }
            StmtKind::Assign {
                op: AssignOp::Assign,
                lhs: LValue::Var(name),
                rhs,
            } => {
                let Some(&Sym0::Host(idx)) = names.get(name) else {
                    return Err(Diag::new(
                        format!("assignment to undeclared host scalar `{name}`"),
                        d.span,
                    ));
                };
                let value = RegionSema::new(&hosts, &arrays, &names).host_scope(rhs)?;
                host_assigns.push(HostAssign {
                    host: idx,
                    value,
                    span: d.span,
                });
            }
            _ => {
                return Err(Diag::new(
                    "only declarations and scalar assignments are allowed at host scope",
                    d.span,
                ))
            }
        }
    }

    // -- regions -------------------------------------------------------------
    let mut regions = Vec::new();
    for r in &p.regions {
        regions.push(RegionSema::new(&hosts, &arrays, &names).region(r)?);
    }

    // Resolve structured data regions.
    let mut data_scopes = Vec::new();
    for db in &p.data_blocks {
        let mut bindings = Vec::new();
        for item in &db.items {
            match names.get(&item.name) {
                Some(Sym0::Array(i)) => bindings.push((*i, item.dir)),
                Some(Sym0::Host(_)) => {
                    return Err(Diag::new(
                        format!("`{}` is a scalar; data clauses take arrays", item.name),
                        item.span,
                    ))
                }
                None => {
                    return Err(Diag::new(
                        format!("unknown array `{}` in data region", item.name),
                        item.span,
                    ))
                }
            }
        }
        data_scopes.push(DataScope {
            bindings,
            first_region: db.first_region,
            end_region: db.end_region,
        });
    }

    Ok(AnalyzedProgram {
        hosts,
        arrays,
        host_assigns,
        regions,
        data_scopes,
        line_starts: Vec::new(),
    })
}

/// What a top-level name declares.
#[derive(Clone, Copy)]
enum Sym0 {
    Host(usize),
    Array(usize),
}

/// Result type of a binary operator given operand types (C rules), with
/// validity checks for int-only operators.
fn bin_result_type(op: BinOpKind, l: CType, r: CType, span: Span) -> Result<CType, Diag> {
    use BinOpKind::*;
    match op {
        Add | Sub | Mul | Div => Ok(CType::promote(l, r)),
        Rem | Shl | Shr | BitAnd | BitOr | BitXor => {
            if l.is_float() || r.is_float() {
                Err(Diag::new(
                    format!("operator `{op:?}` requires integer operands"),
                    span,
                ))
            } else {
                Ok(CType::promote(l, r))
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne | LogAnd | LogOr => Ok(CType::Int),
    }
}

/// An active reduction clause while walking the body of its loop.
struct ActiveRed {
    sym: Sym,
    op: RedOp,
    /// Depth of `level_path` at the clause loop (levels before the clause
    /// loop's own levels were pushed).
    base_depth: usize,
    /// Accumulated span levels (set).
    span_levels: HashSet<Level>,
    /// Distinct crossed-level signatures of update sites (used to detect
    /// mixed-depth updates, which codegen must reject).
    update_sites: Vec<Vec<Level>>,
    found_update: bool,
    /// The clause's source span.
    span: Span,
}

/// The one typer and checker: it analyzes a region, and, with
/// `in_host_scope` set, a host-scope expression.
struct RegionSema<'a> {
    hosts: &'a [HostScalar],
    arrays: &'a [ArrayDecl],
    names: &'a HashMap<String, Sym0>,
    /// Set while typing a host-scope expression: names resolve only to
    /// host scalars, and no use is recorded.
    in_host_scope: bool,
    locals: Vec<LocalScalar>,
    scopes: Vec<HashMap<String, Sym>>,
    active_reds: Vec<ActiveRed>,
    /// The scheduled levels of the enclosing loops, outermost first, one
    /// entry per level (a `gang vector` loop contributes two entries).
    level_path: Vec<Level>,
    hosts_used: Vec<usize>,
    hosts_written: Vec<usize>,
    arrays_used: Vec<usize>,
}

impl<'a> RegionSema<'a> {
    fn new(
        hosts: &'a [HostScalar],
        arrays: &'a [ArrayDecl],
        names: &'a HashMap<String, Sym0>,
    ) -> Self {
        RegionSema {
            hosts,
            arrays,
            names,
            in_host_scope: false,
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            active_reds: Vec::new(),
            level_path: Vec::new(),
            hosts_used: Vec::new(),
            hosts_written: Vec::new(),
            arrays_used: Vec::new(),
        }
    }

    /// Type `e` at host scope — a declaration initializer, host
    /// assignment, array dimension or launch clause — with the one typer:
    /// names resolve only to the host scalars declared so far.
    fn host_scope(&mut self, e: &Expr) -> Result<HExpr, Diag> {
        self.in_host_scope = true;
        let h = self.expr(e);
        self.in_host_scope = false;
        h
    }

    fn region(&mut self, r: &ast::ParallelConstruct) -> Result<AnalyzedRegion, Diag> {
        let mut launch = |e: &Option<Expr>| e.as_ref().map(|e| self.host_scope(e)).transpose();
        let num_gangs = launch(&r.num_gangs)?;
        let num_workers = launch(&r.num_workers)?;
        let vector_length = launch(&r.vector_length)?;

        // Reductions written on the parallel construct apply to the
        // outermost gang loop: they are open, at depth 0, while the whole
        // body is analyzed, and then attached to that loop.
        let (construct_reds, privates, mut body) =
            self.under_clauses(&r.reductions, &r.privates, &[], |rs| rs.stmts(&r.body))?;
        if !construct_reds.is_empty() {
            attach_to_outermost_parallel_loop(&mut body, construct_reds, r.span)?;
        }

        // Data bindings: explicit clauses + implied copies.
        let mut data: Vec<DataBinding> = Vec::new();
        let mut named: HashSet<usize> = HashSet::new();
        for item in &r.data {
            let idx = match self.names.get(&item.name) {
                Some(&Sym0::Array(i)) => i,
                Some(Sym0::Host(_)) => {
                    return Err(Diag::new(
                        format!(
                            "`{}` is a scalar; scalars are passed as parameters, not data \
                             clauses",
                            item.name
                        ),
                        item.span,
                    ))
                }
                None => {
                    return Err(Diag::new(
                        format!("unknown array `{}` in data clause", item.name),
                        item.span,
                    ))
                }
            };
            if !named.insert(idx) {
                return Err(Diag::new(
                    format!("array `{}` appears in multiple data clauses", item.name),
                    item.span,
                ));
            }
            data.push(DataBinding {
                array: idx,
                dir: item.dir,
                implied: false,
            });
        }
        for &a in &self.arrays_used {
            if !named.contains(&a) {
                data.push(DataBinding {
                    array: a,
                    dir: DataDir::Copy,
                    implied: true,
                });
            }
        }

        Ok(AnalyzedRegion {
            num_gangs,
            num_workers,
            vector_length,
            data,
            locals: std::mem::take(&mut self.locals),
            hosts_used: std::mem::take(&mut self.hosts_used),
            hosts_written: std::mem::take(&mut self.hosts_written),
            privates,
            body,
            span: r.span,
        })
    }

    fn sym_type(&self, s: Sym) -> CType {
        match s {
            Sym::Host(i) => self.hosts[i].ty,
            Sym::Local(i) => self.locals[i].ty,
        }
    }

    /// The scalar `name` denotes here, without recording a use.
    fn scalar_named(&self, name: &str) -> Option<Sym> {
        let local = self.scopes.iter().rev().find_map(|s| s.get(name)).copied();
        local.or_else(|| match self.names.get(name) {
            Some(&Sym0::Host(i)) => Some(Sym::Host(i)),
            _ => None,
        })
    }

    fn resolve(&mut self, name: &str, span: Span) -> Result<ResolvedName, Diag> {
        if self.in_host_scope {
            return match self.names.get(name) {
                Some(&Sym0::Host(i)) => Ok(ResolvedName::Scalar(Sym::Host(i))),
                _ => Err(Diag::new(
                    format!(
                        "`{name}` is not a host scalar (host expressions may only use \
                         literals and previously declared scalars)"
                    ),
                    span,
                )),
            };
        }
        if let Some(s) = self.scopes.iter().rev().find_map(|s| s.get(name)) {
            return Ok(ResolvedName::Scalar(*s));
        }
        match self.names.get(name) {
            Some(&Sym0::Host(i)) => {
                if !self.hosts_used.contains(&i) {
                    self.hosts_used.push(i);
                }
                Ok(ResolvedName::Scalar(Sym::Host(i)))
            }
            Some(&Sym0::Array(i)) => {
                if !self.arrays_used.contains(&i) {
                    self.arrays_used.push(i);
                }
                Ok(ResolvedName::Array(i))
            }
            None => Err(Diag::new(format!("unknown identifier `{name}`"), span)),
        }
    }

    fn resolve_scalar(&mut self, name: &str, span: Span) -> Result<Sym, Diag> {
        match self.resolve(name, span)? {
            ResolvedName::Scalar(s) => Ok(s),
            ResolvedName::Array(_) => Err(Diag::new(
                format!("`{name}` is an array, expected a scalar"),
                span,
            )),
        }
    }

    fn mark_host_written(&mut self, s: Sym) {
        if let Sym::Host(i) = s {
            if !self.hosts_written.contains(&i) {
                self.hosts_written.push(i);
            }
            if !self.hosts_used.contains(&i) {
                self.hosts_used.push(i);
            }
        }
    }

    fn new_local(&mut self, name: &str, ty: CType, is_loop_var: bool) -> usize {
        let id = self.locals.len();
        self.locals.push(LocalScalar {
            name: name.to_string(),
            ty,
            is_loop_var,
        });
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), Sym::Local(id));
        id
    }

    // ---- statements --------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<HStmt>, Diag> {
        let mut out = Vec::new();
        for s in stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<HStmt>) -> Result<(), Diag> {
        match &s.kind {
            StmtKind::Decl {
                ty,
                name,
                dims,
                init,
            } => {
                if !dims.is_empty() {
                    return Err(Diag::new(
                        "array declarations inside a parallel region are not supported",
                        s.span,
                    ));
                }
                let init_h = init.as_ref().map(|e| self.expr(e)).transpose()?;
                let id = self.new_local(name, *ty, false);
                if let Some(v) = init_h {
                    out.push(HStmt::AssignLocal {
                        local: id,
                        value: self.coerce(v, *ty),
                    });
                }
            }
            StmtKind::Assign { op, lhs, rhs } => {
                self.assign(*op, lhs, rhs, s.span, out)?;
            }
            StmtKind::IncDec { name, inc } => {
                let one = Expr::new(ExprKind::IntLit(1), s.span);
                let op = if *inc { AssignOp::Add } else { AssignOp::Sub };
                self.assign(op, &LValue::Var(name.clone()), &one, s.span, out)?;
            }
            StmtKind::If { cond, then, els } => {
                let c = self.expr(cond)?;
                self.scopes.push(HashMap::new());
                let t = self.stmts(then)?;
                self.scopes.pop();
                self.scopes.push(HashMap::new());
                let e = self.stmts(els)?;
                self.scopes.pop();
                out.push(HStmt::If {
                    cond: c,
                    then: t,
                    els: e,
                });
            }
            StmtKind::For(f) => {
                let l = self.for_loop(f, s.span)?;
                out.push(HStmt::Loop(l));
            }
            StmtKind::Block(inner) => {
                self.scopes.push(HashMap::new());
                let mut stmts = self.stmts(inner)?;
                self.scopes.pop();
                out.append(&mut stmts);
            }
        }
        Ok(())
    }

    fn assign(
        &mut self,
        op: AssignOp,
        lhs: &LValue,
        rhs: &Expr,
        span: Span,
        out: &mut Vec<HStmt>,
    ) -> Result<(), Diag> {
        match lhs {
            LValue::Var(name) => {
                let sym = self.resolve_scalar(name, span)?;
                let ty = self.sym_type(sym);
                // Is this an update of an active reduction?
                if let Some(red_idx) = self.active_reds.iter().rposition(|ar| ar.sym == sym) {
                    let red_op = self.active_reds[red_idx].op;
                    let value = self.reduction_update_value(red_op, op, sym, rhs, span)?;
                    let value = self.coerce(value, ty);
                    // Record the span levels crossed at this update site.
                    let base = self.active_reds[red_idx].base_depth;
                    let crossed: Vec<Level> = self.level_path[base..].to_vec();
                    let ar = &mut self.active_reds[red_idx];
                    ar.found_update = true;
                    if !ar.update_sites.contains(&crossed) {
                        ar.update_sites.push(crossed.clone());
                    }
                    for l in crossed {
                        ar.span_levels.insert(l);
                    }
                    out.push(HStmt::ReduceUpdate {
                        sym,
                        op: red_op,
                        value,
                        span,
                    });
                    return Ok(());
                }
                let value = self.assigned_value(op, ty, || HExprKind::Sym(sym), rhs, span)?;
                match sym {
                    Sym::Local(i) => out.push(HStmt::AssignLocal { local: i, value }),
                    Sym::Host(i) => {
                        self.mark_host_written(sym);
                        out.push(HStmt::AssignHost { host: i, value });
                    }
                }
            }
            LValue::Elem { base, indices } => {
                let (arr, idx_h) = self.element(base, indices, span)?;
                let ety = self.arrays[arr].ty;
                let load = || HExprKind::Load {
                    array: arr,
                    indices: idx_h.clone(),
                };
                let value = self.assigned_value(op, ety, load, rhs, span)?;
                out.push(HStmt::Store {
                    array: arr,
                    indices: idx_h,
                    value,
                });
            }
        }
        Ok(())
    }

    /// The value a plain or compound assignment stores into a `ty` target
    /// whose current value reads as `cur`: `rhs`, or `cur ⊕ rhs` for
    /// `⊕=`, converted to `ty`.
    fn assigned_value(
        &mut self,
        op: AssignOp,
        ty: CType,
        cur: impl FnOnce() -> HExprKind,
        rhs: &Expr,
        span: Span,
    ) -> Result<HExpr, Diag> {
        let rhs_h = self.expr(rhs)?;
        let value = match op.bin_op() {
            None => rhs_h,
            Some(bop) => HExpr {
                ty: bin_result_type(bop, ty, rhs_h.ty, span)?,
                kind: HExprKind::Bin {
                    op: bop,
                    cmp_ty: CType::promote(ty, rhs_h.ty),
                    lhs: Box::new(HExpr {
                        ty,
                        kind: cur(),
                        span,
                    }),
                    rhs: Box::new(rhs_h),
                },
                span,
            },
        };
        Ok(self.coerce(value, ty))
    }

    /// Validate that an assignment to a reduction variable matches the
    /// clause operator and extract the contributed value.
    fn reduction_update_value(
        &mut self,
        red_op: RedOp,
        aop: AssignOp,
        sym: Sym,
        rhs: &Expr,
        span: Span,
    ) -> Result<HExpr, Diag> {
        let mismatch = |found: &str| {
            Diag::new(
                format!(
                    "reduction variable is updated with `{found}` but the clause declares \
                     `{}`",
                    red_op.clause_token()
                ),
                span,
            )
        };
        // Compound-assignment forms: `v ⊕= e` contributes `e`.
        if aop != AssignOp::Assign {
            return match RedOp::of_assign(aop) {
                Some(op) if op == red_op => self.expr(rhs),
                Some(op) => Err(mismatch(op.clause_token())),
                None => Err(mismatch(aop.token())),
            };
        }
        // Plain `v = <expr>` form: the rhs must be `v <op> e`, `e <op> v`,
        // or `fmax/fmin/max/min(v, e)`.
        let found = match &rhs.kind {
            ExprKind::Bin { op, .. } => format!("{op:?}"),
            ExprKind::Call { name, args } if args.len() == 2 => name.clone(),
            _ => {
                return Err(Diag::new(
                    "assignment to a reduction variable must be a reduction update \
                     (e.g. `v += e` or `v = fmax(v, e)`)",
                    span,
                ))
            }
        };
        if !matches!(rhs.combine(), Some((op, _)) if op == red_op) {
            return Err(mismatch(&found));
        }
        let is_self =
            |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if self.scalar_named(n) == Some(sym));
        match update_form(rhs, is_self, |_| true) {
            Some((_, e)) => self.expr(e),
            None => Err(Diag::new(
                "reduction update must reference the reduction variable",
                span,
            )),
        }
    }

    fn for_loop(&mut self, f: &ast::ForLoop, span: Span) -> Result<HLoop, Diag> {
        let dir = f.directive.clone().unwrap_or_default();
        if let Some(n) = dir.collapse {
            if n > 1 {
                return self.collapsed_loop(f, n, span);
            }
        }
        let sched = self.schedule(&dir)?;
        let head = self.loop_rule(f, !sched.is_empty())?;

        self.scopes.push(HashMap::new());
        let var = self.new_local(&f.var, head.var_ty, true);
        let (reductions, privates, body) =
            self.under_clauses(&dir.reductions, &dir.privates, &sched, |rs| {
                rs.stmts(&f.body)
            })?;
        self.scopes.pop();

        Ok(HLoop {
            var,
            lower: head.lower,
            bound: head.bound,
            cmp: f.cmp,
            step: head.step,
            sched,
            reductions,
            privates,
            body,
            span,
        })
    }

    /// The one rule every loop obeys — a plain loop and each level of a
    /// collapsed nest alike: integer bounds, step and loop variable, a
    /// step whose direction agrees with the comparison, and a constant
    /// step on a `parallel` loop. Bounds and step are typed in the
    /// enclosing scope.
    fn loop_rule(&mut self, f: &ast::ForLoop, parallel: bool) -> Result<LoopHead, Diag> {
        let lower = self.expr(&f.init)?;
        let bound = self.expr(&f.bound)?;
        let step = self.expr(&f.step)?;
        for part in [&lower, &bound, &step] {
            if part.ty.is_float() {
                return Err(Diag::new(
                    "loop bounds and step must be integers",
                    part.span,
                ));
            }
        }
        if parallel && step.const_int().is_none() {
            return Err(Diag::new(
                "a parallel loop requires a constant step",
                step.span,
            ));
        }
        if let Some(s) = step.const_int() {
            let upward = matches!(f.cmp, BinOpKind::Lt | BinOpKind::Le);
            if s == 0 || (upward && s < 0) || (!upward && s > 0) {
                return Err(Diag::new(
                    "loop step direction contradicts its condition",
                    step.span,
                ));
            }
        }
        let var_ty = f.decl_ty.unwrap_or(CType::Int);
        if var_ty.is_float() {
            return Err(Diag::new(
                "loop variable must have integer type",
                f.var_span,
            ));
        }
        Ok(LoopHead {
            lower,
            bound,
            step,
            var_ty,
        })
    }

    /// The levels a loop directive schedules: each named once, ordered
    /// gang, worker, vector, none under `seq`, and each deeper than every
    /// enclosing level.
    fn schedule(&self, dir: &ast::LoopDirective) -> Result<Vec<Level>, Diag> {
        if dir.seq && !dir.levels.is_empty() {
            return Err(Diag::new(
                "`seq` conflicts with parallelism levels",
                dir.span,
            ));
        }
        let mut sched: Vec<Level> = Vec::new();
        for l in &dir.levels {
            if sched.contains(l) {
                return Err(Diag::new(
                    format!("duplicate `{l}` on loop directive"),
                    dir.span,
                ));
            }
            sched.push(*l);
        }
        if !sched.is_sorted() {
            return Err(Diag::new(
                "parallelism levels must be ordered gang, worker, vector",
                dir.span,
            ));
        }
        if let (Some(&outer_max), Some(&inner_min)) = (self.level_path.last(), sched.first()) {
            if inner_min <= outer_max {
                return Err(Diag::new(
                    format!("`{inner_min}` loop cannot be nested inside a `{outer_max}` loop"),
                    dir.span,
                ));
            }
        }
        Ok(sched)
    }

    /// Analyze `body` under a directive's clauses — the bookkeeping the
    /// `parallel` construct, a loop and a collapsed nest share. The
    /// directive's levels `sched` and its reduction clauses are open while
    /// `body` runs; each clause then closes into a [`Reduction`] carrying
    /// the levels its updates crossed. Also resolves the `private` items.
    #[allow(clippy::type_complexity)]
    fn under_clauses(
        &mut self,
        clauses: &[ReductionClause],
        privates: &[NameItem],
        sched: &[Level],
        body: impl FnOnce(&mut Self) -> Result<Vec<HStmt>, Diag>,
    ) -> Result<(Vec<Reduction>, Vec<(Sym, Span)>, Vec<HStmt>), Diag> {
        let base_depth = self.level_path.len();
        self.level_path.extend(sched.iter().copied());
        let first = self.active_reds.len();
        for rc in clauses {
            let sym = self.resolve_scalar(&rc.var, rc.span)?;
            if self.active_reds.iter().any(|ar| ar.sym == sym) {
                return Err(Diag::new(
                    format!(
                        "`{}` already has a reduction clause on this or an enclosing \
                         directive",
                        rc.var
                    ),
                    rc.span,
                ));
            }
            // A host scalar reduced inside an enclosing parallel loop would
            // end with a different value in every gang/worker; its value
            // after the region would be unspecified. Require the clause on
            // the outermost parallel loop (the span auto-detection widens it
            // from there).
            if matches!(sym, Sym::Host(_)) && base_depth > 0 {
                return Err(Diag::new(
                    format!(
                        "reduction on `{}` is nested inside {} parallelism, so its \
                         value after the region would be unspecified; move the \
                         reduction clause to the outermost parallel loop (the \
                         compiler widens the span automatically)",
                        rc.var,
                        self.level_path[base_depth - 1]
                    ),
                    rc.span,
                ));
            }
            if let Some(refusal) = rc.op.refusal(&rc.var, self.sym_type(sym)) {
                return Err(Diag::new(refusal, rc.span));
            }
            self.mark_host_written(sym);
            self.active_reds.push(ActiveRed {
                sym,
                op: rc.op,
                base_depth,
                span_levels: sched.iter().copied().collect(),
                update_sites: Vec::new(),
                found_update: false,
                span: rc.span,
            });
        }
        let privates = self.resolve_privates(privates)?;
        let body = body(self)?;
        let reductions = self
            .active_reds
            .drain(first..)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|ar| Reduction {
                op: ar.op,
                sym: ar.sym,
                ty: self.sym_type(ar.sym),
                clause_levels: sched.to_vec(),
                span_levels: sorted_levels(&ar.span_levels),
                mixed_updates: ar.update_sites.len() > 1,
                has_update: ar.found_update,
                span: ar.span,
            })
            .collect();
        self.level_path.truncate(base_depth);
        Ok((reductions, privates, body))
    }

    /// Resolve the names of `private(...)` clause items. The variables must
    /// be visible at the directive; items are kept with their clause span
    /// for the lint layer.
    fn resolve_privates(&mut self, items: &[NameItem]) -> Result<Vec<(Sym, Span)>, Diag> {
        let mut out = Vec::new();
        for item in items {
            let sym = self.resolve_scalar(&item.name, item.span)?;
            out.push((sym, item.span));
        }
        Ok(out)
    }

    /// Handle `collapse(n)` with `n > 1`: fuse a perfectly nested,
    /// rectangular loop nest into a single linearized loop distributed over
    /// the directive's levels. Inner loop variables are recovered with
    /// div/mod arithmetic, exactly as CUDA compilers lower `collapse`.
    fn collapsed_loop(&mut self, f: &ast::ForLoop, n: u32, span: Span) -> Result<HLoop, Diag> {
        let dir = f.directive.clone().unwrap_or_default();
        // Gather the n perfectly nested loops.
        let mut specs: Vec<ast::ForLoop> = vec![f.clone()];
        for d in 1..n {
            let body = &specs[d as usize - 1].body;
            // Exactly one statement, which must be a for loop.
            let inner = match body.as_slice() {
                [Stmt {
                    kind: StmtKind::For(inner),
                    ..
                }] => inner.clone(),
                _ => {
                    return Err(Diag::new(
                        format!(
                            "collapse({n}) requires {n} perfectly nested loops; level {d} \
                             is not a single nested for loop"
                        ),
                        dir.span,
                    ))
                }
            };
            if inner.directive.is_some() {
                return Err(Diag::new(
                    "loops inside a collapse nest must not carry their own directives",
                    dir.span,
                ));
            }
            specs.push(inner);
        }

        let sched = self.schedule(&dir)?;
        let mk_long = |kind: HExprKind| HExpr {
            ty: CType::Long,
            kind,
            span,
        };
        let int_lit = |v: i64| HExpr {
            ty: CType::Long,
            kind: HExprKind::Int(v),
            span,
        };
        let bin = |op: BinOpKind, l: HExpr, r: HExpr| HExpr {
            ty: CType::Long,
            kind: HExprKind::Bin {
                op,
                cmp_ty: CType::Long,
                lhs: Box::new(l),
                rhs: Box::new(r),
            },
            span,
        };
        let cast_long = |e: HExpr| {
            if e.ty == CType::Long {
                e
            } else {
                mk_long(HExprKind::Cast {
                    operand: Box::new(e),
                })
            }
        };

        struct LevelInfo {
            head: LoopHead,
            trip: HExpr,
            stepv: i64,
        }
        let mut levels: Vec<LevelInfo> = Vec::new();
        for (d, sp) in specs.iter().enumerate() {
            // Rectangularity: the bounds are typed in the enclosing scope,
            // where no collapsed loop variable is visible, so a use of one
            // is caught here before it can resolve to an outer name.
            for outer in &specs[..d] {
                if let Some(at) = mention(&sp.init, &outer.var).or(mention(&sp.bound, &outer.var)) {
                    return Err(Diag::new(
                        format!(
                            "collapse({n}) requires a rectangular nest: the bounds of level \
                             {d} use the outer loop variable `{}`",
                            outer.var
                        ),
                        at,
                    ));
                }
            }
            let head = self.loop_rule(sp, !sched.is_empty())?;
            let stepv = match head.step.const_int() {
                Some(s @ (1 | -1)) => s,
                _ => {
                    return Err(Diag::new(
                        "collapsed loops require constant steps of +1 or -1",
                        span,
                    ))
                }
            };
            let upward = matches!(sp.cmp, BinOpKind::Lt | BinOpKind::Le);
            let incl = matches!(sp.cmp, BinOpKind::Le | BinOpKind::Ge);
            // trip = max(0, bound - lower [+1]) for upward, (lower - bound
            // [+1]) for downward. Negative trips are clamped by the fused
            // bound comparison (a negative factor makes the product <= 0,
            // and the fused loop runs `lin < total`).
            let (lo64, bo64) = (cast_long(head.lower.clone()), cast_long(head.bound.clone()));
            let diff = if upward {
                bin(BinOpKind::Sub, bo64, lo64)
            } else {
                bin(BinOpKind::Sub, lo64, bo64)
            };
            let trip = if incl {
                bin(BinOpKind::Add, diff, int_lit(1))
            } else {
                diff
            };
            levels.push(LevelInfo { head, trip, stepv });
        }

        // total = product of trips.
        let mut total = levels[0].trip.clone();
        for l in &levels[1..] {
            total = bin(BinOpKind::Mul, total, l.trip.clone());
        }

        self.scopes.push(HashMap::new());
        let lin = self.new_local("__collapse_lin", CType::Long, true);

        // Recover each original loop variable:
        //   var_d = lower_d + stepv_d * ((lin / stride_d) % trip_d)
        // with stride_d the product of deeper trips.
        let mut recover: Vec<HStmt> = Vec::new();
        let mut var_ids: Vec<usize> = Vec::new();
        for (d, sp) in specs.iter().enumerate() {
            let var = self.new_local(&sp.var, levels[d].head.var_ty, true);
            var_ids.push(var);
        }
        for d in 0..specs.len() {
            let mut idx = mk_long(HExprKind::Sym(Sym::Local(lin)));
            // stride = product of trips deeper than d
            for deeper in &levels[d + 1..] {
                idx = bin(BinOpKind::Div, idx, deeper.trip.clone());
            }
            if d > 0 {
                idx = bin(BinOpKind::Rem, idx, levels[d].trip.clone());
            }
            let scaled = if levels[d].stepv == 1 {
                idx
            } else {
                bin(BinOpKind::Sub, int_lit(0), idx)
            };
            let value = bin(
                BinOpKind::Add,
                cast_long(levels[d].head.lower.clone()),
                scaled,
            );
            let value = HExpr {
                ty: levels[d].head.var_ty,
                kind: HExprKind::Cast {
                    operand: Box::new(value),
                },
                span,
            };
            recover.push(HStmt::AssignLocal {
                local: var_ids[d],
                value,
            });
        }

        let body_stmts = &specs[n as usize - 1].body;
        let (reductions, privates, body) =
            self.under_clauses(&dir.reductions, &dir.privates, &sched, |rs| {
                let mut body = recover;
                body.extend(rs.stmts(body_stmts)?);
                Ok(body)
            })?;
        self.scopes.pop();

        Ok(HLoop {
            var: lin,
            lower: int_lit(0),
            bound: total,
            cmp: BinOpKind::Lt,
            step: int_lit(1),
            sched,
            reductions,
            privates,
            body,
            span,
        })
    }

    // ---- expressions -------------------------------------------------------

    fn coerce(&self, e: HExpr, ty: CType) -> HExpr {
        if e.ty == ty {
            e
        } else {
            let span = e.span;
            HExpr {
                ty,
                kind: HExprKind::Cast {
                    operand: Box::new(e),
                },
                span,
            }
        }
    }

    /// The array `base[indices...]` names and its typed indices, for a
    /// load and a store alike.
    fn element(
        &mut self,
        base: &str,
        indices: &[Expr],
        span: Span,
    ) -> Result<(usize, Vec<HExpr>), Diag> {
        let arr = match self.resolve(base, span)? {
            ResolvedName::Array(i) => i,
            ResolvedName::Scalar(_) => {
                return Err(Diag::new(
                    format!("`{base}` is a scalar, cannot subscript"),
                    span,
                ))
            }
        };
        let ndims = self.arrays[arr].dims.len();
        if indices.len() != ndims {
            return Err(Diag::new(
                format!(
                    "array `{}` has {ndims} dimension(s) but {} index(es) were given",
                    self.arrays[arr].name,
                    indices.len()
                ),
                span,
            ));
        }
        let mut out = Vec::new();
        for ix in indices {
            let h = self.expr(ix)?;
            if h.ty.is_float() {
                return Err(Diag::new("array index must be an integer", ix.span));
            }
            out.push(h);
        }
        Ok((arr, out))
    }

    fn expr(&mut self, e: &Expr) -> Result<HExpr, Diag> {
        let (kind, ty): (HExprKind, CType) = match &e.kind {
            ExprKind::IntLit(v) => (HExprKind::Int(*v), CType::Int),
            ExprKind::FloatLit(v) => (HExprKind::Float(*v), CType::Double),
            ExprKind::Ident(n) => match self.resolve(n, e.span)? {
                ResolvedName::Scalar(s) => (HExprKind::Sym(s), self.sym_type(s)),
                ResolvedName::Array(_) => {
                    return Err(Diag::new(
                        format!("array `{n}` used without a subscript"),
                        e.span,
                    ))
                }
            },
            ExprKind::Index { base, indices } => {
                let (array, indices) = self.element(base, indices, e.span)?;
                (HExprKind::Load { array, indices }, self.arrays[array].ty)
            }
            ExprKind::Un { op, operand } => {
                let o = self.expr(operand)?;
                let ty = match op {
                    UnOpKind::Neg => o.ty,
                    UnOpKind::Not => CType::Int,
                    UnOpKind::BitNot => {
                        if o.ty.is_float() {
                            return Err(Diag::new("`~` requires an integer operand", e.span));
                        }
                        o.ty
                    }
                };
                (
                    HExprKind::Un {
                        op: *op,
                        operand: Box::new(o),
                    },
                    ty,
                )
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                let ty = bin_result_type(*op, l.ty, r.ty, e.span)?;
                let cmp_ty = CType::promote(l.ty, r.ty);
                (
                    HExprKind::Bin {
                        op: *op,
                        cmp_ty,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    ty,
                )
            }
            ExprKind::Cond { cond, then, els } => {
                let c = self.expr(cond)?;
                let t = self.expr(then)?;
                let el = self.expr(els)?;
                let ty = CType::promote(t.ty, el.ty);
                (
                    HExprKind::Cond {
                        cond: Box::new(c),
                        then: Box::new(t),
                        els: Box::new(el),
                    },
                    ty,
                )
            }
            ExprKind::Call { name, args } => {
                let func = MathFunc::from_name(name).ok_or_else(|| {
                    Diag::new(
                        format!(
                            "unknown function `{name}` (only math intrinsics are callable \
                             in kernels)"
                        ),
                        e.span,
                    )
                })?;
                if args.len() != func.arity() {
                    return Err(Diag::new(
                        format!("`{name}` takes {} argument(s)", func.arity()),
                        e.span,
                    ));
                }
                let mut hargs = Vec::new();
                for a in args {
                    hargs.push(self.expr(a)?);
                }
                let ty = match func {
                    MathFunc::FMax | MathFunc::FMin => {
                        let t = CType::promote(hargs[0].ty, hargs[1].ty);
                        if t.is_float() {
                            t
                        } else {
                            CType::Double
                        }
                    }
                    MathFunc::FAbs | MathFunc::Sqrt => {
                        if hargs[0].ty == CType::Float {
                            CType::Float
                        } else {
                            CType::Double
                        }
                    }
                    MathFunc::IMax | MathFunc::IMin => {
                        let t = CType::promote(hargs[0].ty, hargs[1].ty);
                        if t.is_float() {
                            return Err(Diag::new(
                                format!("`{name}` requires integer arguments (use f{name})"),
                                e.span,
                            ));
                        }
                        t
                    }
                    MathFunc::IAbs => {
                        if hargs[0].ty.is_float() {
                            return Err(Diag::new(
                                "`abs` requires an integer argument (use fabs)",
                                e.span,
                            ));
                        }
                        hargs[0].ty
                    }
                };
                (HExprKind::Call { func, args: hargs }, ty)
            }
            ExprKind::Cast { ty, operand } => {
                let o = self.expr(operand)?;
                (
                    HExprKind::Cast {
                        operand: Box::new(o),
                    },
                    *ty,
                )
            }
        };
        Ok(HExpr {
            ty,
            kind,
            span: e.span,
        })
    }
}

/// A loop header that passed [`RegionSema::loop_rule`].
struct LoopHead {
    lower: HExpr,
    bound: HExpr,
    step: HExpr,
    var_ty: CType,
}

/// The span of the first use of the scalar `name` in `e`, if any.
fn mention(e: &Expr, name: &str) -> Option<Span> {
    match &e.kind {
        ExprKind::Ident(n) => (n == name).then_some(e.span),
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => None,
        ExprKind::Index { indices: xs, .. } | ExprKind::Call { args: xs, .. } => {
            xs.iter().find_map(|x| mention(x, name))
        }
        ExprKind::Un { operand, .. } | ExprKind::Cast { operand, .. } => mention(operand, name),
        ExprKind::Bin { lhs, rhs, .. } => mention(lhs, name).or_else(|| mention(rhs, name)),
        ExprKind::Cond { cond, then, els } => {
            [cond, then, els].into_iter().find_map(|x| mention(x, name))
        }
    }
}

enum ResolvedName {
    Scalar(Sym),
    Array(usize),
}

fn sorted_levels(set: &HashSet<Level>) -> Vec<Level> {
    let mut v: Vec<Level> = set.iter().copied().collect();
    v.sort();
    v
}

/// Attach construct-level reductions to the outermost parallel loop of the
/// region body.
fn attach_to_outermost_parallel_loop(
    body: &mut [HStmt],
    reds: Vec<Reduction>,
    span: Span,
) -> Result<(), Diag> {
    for s in body.iter_mut() {
        if let HStmt::Loop(l) = s {
            if !l.sched.is_empty() {
                for mut r in reds {
                    r.clause_levels = l.sched.clone();
                    l.reductions.push(r);
                }
                return Ok(());
            }
        }
    }
    Err(Diag::new(
        "reduction on `parallel` construct requires a parallel loop in the region",
        span,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze_src(src: &str) -> Result<AnalyzedProgram, Diag> {
        analyze(&parse_program(src).unwrap())
    }

    const VECTOR_RED: &str = r#"
        int NK; int NJ; int NI;
        float input[NK][NJ][NI];
        float temp[NK][NJ][NI];
        #pragma acc parallel copyin(input) copyout(temp)
        {
            #pragma acc loop gang
            for (int k = 0; k < NK; k++) {
                #pragma acc loop worker
                for (int j = 0; j < NJ; j++) {
                    int i_sum = j;
                    #pragma acc loop vector reduction(+:i_sum)
                    for (int i = 0; i < NI; i++) {
                        i_sum += input[k][j][i];
                    }
                    temp[k][j][0] = i_sum;
                }
            }
        }
    "#;

    #[test]
    fn analyzes_vector_reduction() {
        let p = analyze_src(VECTOR_RED).unwrap();
        assert_eq!(p.hosts.len(), 3);
        assert_eq!(p.arrays.len(), 2);
        let r = &p.regions[0];
        // find the vector loop's reduction
        let mut found = false;
        visit_loops(&r.body, &mut |l| {
            if l.sched == vec![Level::Vector] {
                assert_eq!(l.reductions.len(), 1);
                let red = &l.reductions[0];
                assert_eq!(red.op, RedOp::Add);
                assert_eq!(red.span_levels, vec![Level::Vector]);
                assert_eq!(red.ty, CType::Int);
                found = true;
            }
        });
        assert!(found);
        // i_sum += ... became a ReduceUpdate
        let mut has_update = false;
        crate::hir::visit_stmts(&r.body, &mut |s, _| {
            has_update |= matches!(s, HStmt::ReduceUpdate { .. })
        });
        assert!(has_update);
    }

    #[test]
    fn rmp_span_autodetected_across_loops() {
        // Paper Fig. 9: clause on the worker loop, update inside the vector
        // loop -> span must be worker+vector.
        let src = r#"
            int NK; int NJ; int NI;
            float input[NK][NJ][NI];
            float temp[NK];
            #pragma acc parallel copyin(input) copyout(temp)
            {
                #pragma acc loop gang
                for (int k = 0; k < NK; k++) {
                    int j_sum = k;
                    #pragma acc loop worker reduction(+:j_sum)
                    for (int j = 0; j < NJ; j++) {
                        #pragma acc loop vector
                        for (int i = 0; i < NI; i++) {
                            j_sum += input[k][j][i];
                        }
                    }
                    temp[k] = j_sum;
                }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut spans = Vec::new();
        visit_loops(&p.regions[0].body, &mut |l| {
            for r in &l.reductions {
                spans.push(r.span_levels.clone());
            }
        });
        assert_eq!(spans, vec![vec![Level::Worker, Level::Vector]]);
    }

    #[test]
    fn same_loop_multi_level_span() {
        let src = r#"
            int N; int s;
            int a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang worker vector reduction(+:s)
                for (int i = 0; i < N; i++) {
                    s += a[i];
                }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut spans = Vec::new();
        visit_loops(&p.regions[0].body, &mut |l| {
            for r in &l.reductions {
                spans.push(r.span_levels.clone());
            }
        });
        assert_eq!(spans, vec![vec![Level::Gang, Level::Worker, Level::Vector]]);
        // s is a host scalar written back
        assert_eq!(p.regions[0].hosts_written, vec![p.host_index("s").unwrap()]);
    }

    /// §3.2.1 span auto-detection, pinned for all six placements of the
    /// Fig. 4/5/9 shapes in a gang/worker/vector loop nest: the clause
    /// sits on one loop and the update at the same or a deeper level; the
    /// detected span must cover exactly the levels in between.
    #[test]
    fn span_autodetection_all_six_placements() {
        // (clause loop, update site, expected span). Sites: "gang" =
        // directly in the gang body, "worker" = in the worker body after
        // the vector loop, "vector" = in the vector body.
        let cases: [(&str, &str, Vec<Level>); 6] = [
            ("gang", "gang", vec![Level::Gang]),
            ("worker", "worker", vec![Level::Worker]),
            ("vector", "vector", vec![Level::Vector]),
            ("gang", "worker", vec![Level::Gang, Level::Worker]),
            ("worker", "vector", vec![Level::Worker, Level::Vector]),
            (
                "gang",
                "vector",
                vec![Level::Gang, Level::Worker, Level::Vector],
            ),
        ];
        for (clause_loop, update_site, expected) in cases {
            // Host scalars must carry the clause on the outermost parallel
            // loop; deeper clauses use a per-gang local consumed into an
            // output array so sema accepts the placement.
            let host_sum = clause_loop == "gang";
            let decl = if host_sum { "float sum;\nsum = 0;" } else { "" };
            let local_decl = if host_sum { "" } else { "float sum = 0;" };
            let consume = if host_sum { "" } else { "out[k] = sum;" };
            let red = |l: &str| {
                if l == clause_loop {
                    " reduction(+:sum)"
                } else {
                    ""
                }
            };
            let upd = |site: &str| {
                if site == update_site {
                    "sum += input[k][j][i];"
                } else {
                    ""
                }
            };
            let src = format!(
                r#"
                int NK; int NJ; int NI;
                {decl}
                float input[NK][NJ][NI];
                float out[NK];
                #pragma acc parallel copyin(input) copyout(out)
                {{
                    #pragma acc loop gang{g}
                    for (int k = 0; k < NK; k++) {{
                        {local_decl}
                        #pragma acc loop worker{w}
                        for (int j = 0; j < NJ; j++) {{
                            #pragma acc loop vector{v}
                            for (int i = 0; i < NI; i++) {{
                                {uv}
                                out[k] = input[k][j][i];
                            }}
                            int j2 = j; int i2 = 0;
                            {uw}
                        }}
                        int j3 = 0; int i3 = 0;
                        {ug}
                        {consume}
                    }}
                }}
                "#,
                g = red("gang"),
                w = red("worker"),
                v = red("vector"),
                uv = upd("vector"),
                uw = upd("worker").replace("[j][i]", "[j2][i2]"),
                ug = upd("gang").replace("[j][i]", "[j3][i3]"),
            );
            let p = analyze_src(&src)
                .unwrap_or_else(|d| panic!("{clause_loop}/{update_site}: {}", d.render(&src)));
            let mut spans = Vec::new();
            visit_loops(&p.regions[0].body, &mut |l| {
                for r in &l.reductions {
                    spans.push(r.span_levels.clone());
                }
            });
            assert_eq!(
                spans,
                vec![expected.clone()],
                "clause on {clause_loop}, update in {update_site}"
            );
        }
    }

    #[test]
    fn max_reduction_via_fmax() {
        let src = r#"
            int N; double err;
            double a[N]; double b[N];
            #pragma acc parallel copyin(a, b)
            {
                #pragma acc loop gang vector reduction(max:err)
                for (int i = 0; i < N; i++) {
                    err = fmax(err, fabs(a[i] - b[i]));
                }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut ops = Vec::new();
        visit_loops(&p.regions[0].body, &mut |l| {
            for r in &l.reductions {
                ops.push(r.op);
            }
        });
        assert_eq!(ops, vec![RedOp::Max]);
    }

    #[test]
    fn mismatched_update_operator_rejected() {
        let src = r#"
            int N; int s;
            int a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang reduction(+:s)
                for (int i = 0; i < N; i++) {
                    s *= a[i];
                }
            }
        "#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.message.contains("clause declares"), "{}", err.message);
    }

    #[test]
    fn subtraction_update_rejected() {
        let src = r#"
            int N; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang reduction(+:s)
                for (int i = 0; i < N; i++) { s -= 1; }
            }
        "#;
        assert!(analyze_src(src).is_err());
    }

    #[test]
    fn nesting_order_enforced() {
        let src = r#"
            int N;
            float a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop vector
                for (int i = 0; i < N; i++) {
                    #pragma acc loop gang
                    for (int j = 0; j < N; j++) {
                        a[j] = 0.0;
                    }
                }
            }
        "#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.message.contains("nested"), "{}", err.message);
    }

    #[test]
    fn implied_copy_binding_created() {
        let src = r#"
            int N;
            float a[N];
            #pragma acc parallel
            {
                #pragma acc loop gang
                for (int i = 0; i < N; i++) { a[i] = 1.0; }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let d = &p.regions[0].data;
        assert_eq!(d.len(), 1);
        assert!(d[0].implied);
        assert_eq!(d[0].dir, DataDir::Copy);
    }

    #[test]
    fn type_errors_detected() {
        // float loop bound
        assert!(analyze_src(
            "int N; float s;\n#pragma acc parallel\n{\n#pragma acc loop gang reduction(+:s)\nfor (int i = 0; i < 1.5; i++) { s += 1.0; } }"
        )
        .is_err());
        // modulo on float
        assert!(analyze_src(
            "int N; float s; float a[N];\n#pragma acc parallel copyin(a)\n{\n#pragma acc loop gang reduction(+:s)\nfor (int i = 0; i < N; i++) { s += a[i] % 2.0; } }"
        )
        .is_err());
        // wrong index count
        assert!(analyze_src(
            "int N; float s; float a[N][N];\n#pragma acc parallel copyin(a)\n{\n#pragma acc loop gang reduction(+:s)\nfor (int i = 0; i < N; i++) { s += a[i]; } }"
        )
        .is_err());
        // unknown function
        assert!(analyze_src(
            "int N; float s;\n#pragma acc parallel\n{\n#pragma acc loop gang reduction(+:s)\nfor (int i = 0; i < N; i++) { s += rand(); } }"
        )
        .is_err());
    }

    #[test]
    fn host_assigns_ordered() {
        let src = r#"
            int N = 4;
            int s;
            s = 0;
            int a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang reduction(+:s)
                for (int i = 0; i < N; i++) { s += a[i]; }
            }
        "#;
        let p = analyze_src(src).unwrap();
        assert_eq!(p.host_assigns.len(), 2);
        assert_eq!(p.host_assigns[0].host, p.host_index("N").unwrap());
        assert_eq!(p.host_assigns[1].host, p.host_index("s").unwrap());
    }

    #[test]
    fn host_scope_is_the_one_typer_over_host_scalars_only() {
        let src = r#"
            int N; int G; double d;
            int M = N > 2 ? abs(N) : 1;
            double r = !d;
            double a[M];
            #pragma acc parallel copyin(a) num_gangs(G > 4 ? 4 : G)
            {
                #pragma acc loop gang vector
                for (int i = 0; i < M; i++) { a[i] = 1.0; }
            }
        "#;
        let p = analyze_src(src).unwrap();
        // `?:` and the intrinsics type at host scope; `!` is a C int.
        assert_eq!(p.host_assigns[0].value.ty, CType::Int);
        assert_eq!(p.host_assigns[1].value.ty, CType::Int);
        // A launch clause records no use: `G` is not a kernel parameter.
        let g = p.host_index("G").unwrap();
        assert!(!p.regions[0].hosts_used.contains(&g));
        assert!(p.regions[0]
            .hosts_used
            .contains(&p.host_index("M").unwrap()));
        // Only the host scalars declared so far resolve.
        for (decl, name) in [("int x = a[0];", "a"), ("int x = later;", "later")] {
            let src = format!("double a[4];\n{decl}\nint later;\n#pragma acc parallel\n{{\n}}\n");
            let err = analyze_src(&src).unwrap_err();
            assert!(
                err.message
                    .starts_with(&format!("`{name}` is not a host scalar")),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn duplicate_reduction_clause_rejected() {
        let src = r#"
            int N; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang reduction(+:s)
                for (int i = 0; i < N; i++) {
                    #pragma acc loop vector reduction(+:s)
                    for (int j = 0; j < N; j++) { s += 1; }
                }
            }
        "#;
        let err = analyze_src(src).unwrap_err();
        assert!(
            err.message.contains("already has a reduction"),
            "{}",
            err.message
        );
        // The construct's clauses are held to the same rule.
        let construct = "int N; int s;\n\
            #pragma acc parallel reduction(+:s) reduction(*:s)\n{\n\
            #pragma acc loop gang\nfor (int i = 0; i < N; i++) { s += 1; }\n}";
        let err = analyze_src(construct).unwrap_err();
        assert!(
            err.message.contains("already has a reduction"),
            "{}",
            err.message
        );
    }

    #[test]
    fn bitwise_and_logical_reductions_need_an_integer_variable() {
        for (ty, op, legal) in [
            ("float", "&", false),
            ("double", "||", false),
            ("float", "&&", false),
            ("long", "^", true),
            ("float", "max", true),
        ] {
            let src = format!(
                "int N; {ty} s;\nint a[N];\n\
                 #pragma acc parallel reduction({op}:s)\n{{\n\
                 #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{ a[i] = 0; }}\n}}"
            );
            match analyze_src(&src) {
                Ok(_) => assert!(legal, "`{op}` on `{ty}` must be rejected"),
                Err(e) => {
                    assert!(!legal, "`{op}` on `{ty}`: {}", e.message);
                    assert!(
                        e.message.contains("needs an integer variable"),
                        "{}",
                        e.message
                    );
                }
            }
        }
    }

    #[test]
    fn seq_conflicts_with_levels_on_a_collapsed_nest_too() {
        let src = "int N; int M;\nint a[N][M];\n\
            #pragma acc parallel\n{\n\
            #pragma acc loop seq gang collapse(2)\n\
            for (int i = 0; i < N; i++) { for (int j = 0; j < M; j++) { a[i][j] = 0; } }\n}";
        let err = analyze_src(src).unwrap_err();
        assert!(err.message.contains("`seq` conflicts"), "{}", err.message);
    }

    #[test]
    fn reduction_on_parallel_construct_attaches_to_gang_loop() {
        let src = r#"
            int N; int s;
            #pragma acc parallel reduction(+:s)
            {
                #pragma acc loop gang
                for (int i = 0; i < N; i++) { s += 1; }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut found = Vec::new();
        visit_loops(&p.regions[0].body, &mut |l| {
            for r in &l.reductions {
                found.push((r.op, r.span_levels.clone()));
            }
        });
        assert_eq!(found, vec![(RedOp::Add, vec![Level::Gang])]);
    }

    #[test]
    fn downward_loop_canonicalized() {
        let src = r#"
            int N; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang reduction(+:s)
                for (int i = N; i > 0; i--) { s += i; }
            }
        "#;
        let p = analyze_src(src).unwrap();
        visit_loops(&p.regions[0].body, &mut |l| {
            assert_eq!(l.cmp, BinOpKind::Gt);
            assert_eq!(l.step.const_int(), Some(-1));
        });
    }

    #[test]
    fn seq_loop_reduction_has_empty_extra_span() {
        // reduction clause on a seq loop inside a gang loop: purely
        // sequential accumulation per thread.
        let src = r#"
            int N; int M;
            float A[N][M];
            float out[N];
            #pragma acc parallel copyin(A) copyout(out)
            {
                #pragma acc loop gang
                for (int i = 0; i < N; i++) {
                    float c = 0.0;
                    #pragma acc loop seq reduction(+:c)
                    for (int k = 0; k < M; k++) {
                        c += A[i][k];
                    }
                    out[i] = c;
                }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut spans = Vec::new();
        visit_loops(&p.regions[0].body, &mut |l| {
            for r in &l.reductions {
                spans.push(r.span_levels.clone());
            }
        });
        assert_eq!(spans, vec![Vec::<Level>::new()]);
    }
}

#[cfg(test)]
mod collapse_tests {
    use super::*;
    use crate::parser::parse_program;

    fn analyze_src(src: &str) -> Result<AnalyzedProgram, Diag> {
        analyze(&parse_program(src).unwrap())
    }

    #[test]
    fn collapse_fuses_rectangular_nest() {
        let src = r#"
            int NI; int NJ; int s;
            int a[NI][NJ];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang vector collapse(2) reduction(+:s)
                for (int i = 0; i < NI; i++) {
                    for (int j = 0; j < NJ; j++) {
                        s += a[i][j];
                    }
                }
            }
        "#;
        let p = analyze_src(src).unwrap();
        let mut found = 0;
        visit_loops(&p.regions[0].body, &mut |l| {
            found += 1;
            assert_eq!(l.sched, vec![Level::Gang, Level::Vector]);
            assert_eq!(l.cmp, BinOpKind::Lt);
            assert_eq!(l.lower.const_int(), Some(0));
        });
        // The nest fused into exactly one loop.
        assert_eq!(found, 1);
    }

    #[test]
    fn collapse_requires_perfect_nest() {
        let src = r#"
            int NI; int NJ; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang collapse(2) reduction(+:s)
                for (int i = 0; i < NI; i++) {
                    s += 1;
                    for (int j = 0; j < NJ; j++) { s += 1; }
                }
            }
        "#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.message.contains("perfectly nested"), "{}", err.message);
    }

    #[test]
    fn collapse_rejects_non_rectangular() {
        let src = r#"
            int NI; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang collapse(2) reduction(+:s)
                for (int i = 0; i < NI; i++) {
                    for (int j = 0; j < i; j++) { s += 1; }
                }
            }
        "#;
        let err = analyze_src(src).unwrap_err();
        assert!(err.message.contains("rectangular"), "{}", err.message);
        // An outer name the collapsed variable shadows does not make the
        // nest rectangular: `j < i` still reads the loop's `i`.
        let shadowed = src.replace("int NI; int s;", "int NI; int i; int s;");
        let err = analyze_src(&shadowed).unwrap_err();
        assert!(err.message.contains("rectangular"), "{}", err.message);
        assert_eq!(&shadowed[err.span.start..err.span.end], "i");
    }

    #[test]
    fn collapse_rejects_inner_directives_and_big_steps() {
        let src = r#"
            int NI; int NJ; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang collapse(2) reduction(+:s)
                for (int i = 0; i < NI; i++) {
                    #pragma acc loop vector
                    for (int j = 0; j < NJ; j++) { s += 1; }
                }
            }
        "#;
        assert!(analyze_src(src).unwrap_err().message.contains("directives"));
        let src = r#"
            int NI; int NJ; int s;
            #pragma acc parallel
            {
                #pragma acc loop gang collapse(2) reduction(+:s)
                for (int i = 0; i < NI; i += 2) {
                    for (int j = 0; j < NJ; j++) { s += 1; }
                }
            }
        "#;
        assert!(analyze_src(src)
            .unwrap_err()
            .message
            .contains("steps of +1 or -1"));
    }
}
