//! High-level IR: the typed, resolved form of a program produced by
//! [`crate::sema::analyze`] and consumed by the lowering compiler.
//!
//! Scalars are resolved to symbol ids, expressions carry their C result
//! type, loops are canonicalized to `(var, lower, bound, cmp, step)` form,
//! and every reduction clause carries its *detected span*: the set of
//! parallelism levels the reduction must cover (the paper's §3.2.1
//! auto-detection).

use crate::ast::{BinOpKind, CType, DataDir, Level, RedOp, UnOpKind};
use crate::diag::Span;

/// A resolved scalar symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// Host-bound scalar (`hosts[i]`): uniform kernel parameter; written
    /// back if it is a reduction target or assigned in the region.
    Host(usize),
    /// Region-local scalar (`locals[i]`): a per-thread register.
    Local(usize),
}

/// A host scalar declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostScalar {
    pub name: String,
    pub ty: CType,
}

/// An array declaration with runtime-evaluated dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    pub ty: CType,
    /// Dimension extents, host-evaluable expressions (may reference host
    /// scalars). Row-major layout, like C.
    pub dims: Vec<HExpr>,
}

/// A region-local scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalScalar {
    pub name: String,
    pub ty: CType,
    /// True if this local is a loop induction variable.
    pub is_loop_var: bool,
}

/// Math intrinsics callable in kernel code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFunc {
    FMax,
    FMin,
    FAbs,
    Sqrt,
    IMax,
    IMin,
    IAbs,
}

impl MathFunc {
    /// Resolve a C function name (including `f`-suffixed float variants).
    pub fn from_name(s: &str) -> Option<MathFunc> {
        match s {
            "fmax" | "fmaxf" => Some(MathFunc::FMax),
            "fmin" | "fminf" => Some(MathFunc::FMin),
            "fabs" | "fabsf" => Some(MathFunc::FAbs),
            "sqrt" | "sqrtf" => Some(MathFunc::Sqrt),
            "max" => Some(MathFunc::IMax),
            "min" => Some(MathFunc::IMin),
            "abs" | "labs" => Some(MathFunc::IAbs),
            _ => None,
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            MathFunc::FMax | MathFunc::FMin | MathFunc::IMax | MathFunc::IMin => 2,
            MathFunc::FAbs | MathFunc::Sqrt | MathFunc::IAbs => 1,
        }
    }
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub struct HExpr {
    pub ty: CType,
    pub kind: HExprKind,
    pub span: Span,
}

/// Typed expression variants. Binary operands are *not* pre-converted;
/// codegen converts each side to `ty` (or to the comparison type for
/// comparison ops, which have `ty == Int` like C).
#[derive(Debug, Clone, PartialEq)]
pub enum HExprKind {
    Int(i64),
    Float(f64),
    /// Read a scalar symbol.
    Sym(Sym),
    /// Load `array[indices...]`.
    Load {
        array: usize,
        indices: Vec<HExpr>,
    },
    Un {
        op: UnOpKind,
        operand: Box<HExpr>,
    },
    /// Arithmetic / comparison / logical binary op. For comparisons and
    /// logical ops `ty` is `Int` (C truth values); `cmp_ty` records the
    /// promoted operand type used for the comparison itself.
    Bin {
        op: BinOpKind,
        cmp_ty: CType,
        lhs: Box<HExpr>,
        rhs: Box<HExpr>,
    },
    Cond {
        cond: Box<HExpr>,
        then: Box<HExpr>,
        els: Box<HExpr>,
    },
    Call {
        func: MathFunc,
        args: Vec<HExpr>,
    },
    Cast {
        operand: Box<HExpr>,
    },
}

impl HExpr {
    /// Fold a constant integer expression, if it is one. Overflow during
    /// folding yields `None` (the expression is treated as non-constant)
    /// rather than wrapping or panicking — downstream analyses must stay
    /// conservative on absurd literals, not crash on them.
    pub fn const_int(&self) -> Option<i64> {
        match &self.kind {
            HExprKind::Int(v) => Some(*v),
            HExprKind::Un {
                op: UnOpKind::Neg,
                operand,
            } => operand.const_int().and_then(i64::checked_neg),
            HExprKind::Cast { operand } if !self.ty.is_float() => operand.const_int(),
            HExprKind::Bin { op, lhs, rhs, .. } => {
                let (a, b) = (lhs.const_int()?, rhs.const_int()?);
                match op {
                    BinOpKind::Add => a.checked_add(b),
                    BinOpKind::Sub => a.checked_sub(b),
                    BinOpKind::Mul => a.checked_mul(b),
                    BinOpKind::Div if b != 0 => a.checked_div(b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Call `f` on each direct operand, in evaluation (source) order.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a HExpr)) {
        match &self.kind {
            HExprKind::Int(_) | HExprKind::Float(_) | HExprKind::Sym(_) => {}
            HExprKind::Load { indices: xs, .. } | HExprKind::Call { args: xs, .. } => {
                xs.iter().for_each(f)
            }
            HExprKind::Un { operand, .. } | HExprKind::Cast { operand } => f(operand),
            HExprKind::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            HExprKind::Cond { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
        }
    }

    /// Pre-order walk: `f` sees this node, then every sub-expression, in
    /// source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a HExpr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// Does any node of the walk satisfy `pred`? Stops descending at the
    /// first hit.
    pub fn any(&self, pred: &mut impl FnMut(&HExpr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        let mut hit = false;
        self.for_each_child(|c| hit = hit || c.any(pred));
        hit
    }

    /// Does this expression read scalar `s` anywhere?
    pub fn reads_sym(&self, s: Sym) -> bool {
        self.any(&mut |e| matches!(e.kind, HExprKind::Sym(t) if t == s))
    }
}

/// A reduction attached to a loop, with its detected span.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    pub op: RedOp,
    /// The reduction target (host scalar or region local).
    pub sym: Sym,
    /// Element type of the reduction.
    pub ty: CType,
    /// The levels the user wrote on the clause (on this loop).
    pub clause_levels: Vec<Level>,
    /// The detected full span: every parallelism level between this loop
    /// and the innermost loop updating the variable (paper §3.2.1). Sorted
    /// outermost-first. Always non-empty for a parallel loop.
    pub span_levels: Vec<Level>,
    /// True when update sites occur at *different* parallelism depths
    /// (e.g. one update directly in the gang loop body and another inside
    /// the nested worker loop). A single per-thread private accumulator
    /// over-counts the shallow site, so codegen rejects this case.
    pub mixed_updates: bool,
    /// True when at least one update of the variable was found under the
    /// clause loop. A clause whose variable is never updated is dead (the
    /// lint layer warns on it); codegen still honors it.
    pub has_update: bool,
    pub span: Span,
}

/// A canonicalized loop.
#[derive(Debug, Clone, PartialEq)]
pub struct HLoop {
    /// Local id of the induction variable.
    pub var: usize,
    /// Inclusive start value.
    pub lower: HExpr,
    /// Bound expression from the condition.
    pub bound: HExpr,
    /// The comparison against `bound` (`Lt`, `Le`, `Gt`, `Ge`).
    pub cmp: BinOpKind,
    /// Signed step (constant or uniform expression).
    pub step: HExpr,
    /// Parallelism levels this loop is distributed over (empty = sequential).
    pub sched: Vec<Level>,
    /// Reductions whose clause sits on this loop.
    pub reductions: Vec<Reduction>,
    /// `private(...)` variables named on this loop's directive, with the
    /// clause-item span. Codegen treats region locals as per-thread
    /// already; the list is kept for the lint layer (read-before-write,
    /// duplicate-variable checks).
    pub privates: Vec<(Sym, Span)>,
    pub body: Vec<HStmt>,
    pub span: Span,
}

/// A typed, resolved statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Loop dominates; statements are built once
pub enum HStmt {
    /// `locals[local] = value` (covers declarations with initializers;
    /// compound assignments are normalized into plain assigns).
    AssignLocal {
        local: usize,
        value: HExpr,
    },
    /// `hosts[h] = value` — assignment to a host scalar inside the region
    /// (the final value is copied back to the host).
    AssignHost {
        host: usize,
        value: HExpr,
    },
    /// `array[indices...] = value`.
    Store {
        array: usize,
        indices: Vec<HExpr>,
        value: HExpr,
    },
    /// A recognized reduction update: `sym = sym <op> value` (or the
    /// equivalent `+=`/`fmax` form). Codegen accumulates into the
    /// reduction's private register.
    ReduceUpdate {
        sym: Sym,
        op: RedOp,
        value: HExpr,
        span: Span,
    },
    If {
        cond: HExpr,
        then: Vec<HStmt>,
        els: Vec<HStmt>,
    },
    Loop(HLoop),
}

/// The structural facts of a statement. These three accessors are the only
/// place outside the semantic engines (codegen, the reference evaluators)
/// that matches every variant; the front-end analyses read them instead of
/// re-deriving the shape of each statement.
impl HStmt {
    /// The expressions the statement evaluates itself, in evaluation order
    /// (a store's subscripts before its value; a loop's lower, bound and
    /// step). Expressions of nested bodies are not included.
    pub fn exprs(&self) -> impl Iterator<Item = &HExpr> {
        let (head, tail): (&[HExpr], [Option<&HExpr>; 3]) = match self {
            HStmt::AssignLocal { value, .. }
            | HStmt::AssignHost { value, .. }
            | HStmt::ReduceUpdate { value, .. } => (&[], [Some(value), None, None]),
            HStmt::Store { indices, value, .. } => (indices, [Some(value), None, None]),
            HStmt::If { cond, .. } => (&[], [Some(cond), None, None]),
            HStmt::Loop(l) => (&[], [Some(&l.lower), Some(&l.bound), Some(&l.step)]),
        };
        head.iter().chain(tail.into_iter().flatten())
    }

    /// The nested statement lists, in source order; unused slots are empty.
    pub fn bodies(&self) -> [&[HStmt]; 2] {
        match self {
            HStmt::AssignLocal { .. }
            | HStmt::AssignHost { .. }
            | HStmt::Store { .. }
            | HStmt::ReduceUpdate { .. } => [&[], &[]],
            HStmt::If { then, els, .. } => [then, els],
            HStmt::Loop(l) => [&l.body, &[]],
        }
    }

    /// The scalar a plain assignment writes, with the assigned value.
    pub fn scalar_target(&self) -> Option<(Sym, &HExpr)> {
        match self {
            HStmt::AssignLocal { local, value } => Some((Sym::Local(*local), value)),
            HStmt::AssignHost { host, value } => Some((Sym::Host(*host), value)),
            HStmt::Store { .. }
            | HStmt::ReduceUpdate { .. }
            | HStmt::If { .. }
            | HStmt::Loop(_) => None,
        }
    }
}

/// A resolved data clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataBinding {
    pub array: usize,
    pub dir: DataDir,
    /// True when the binding was implied (array referenced but not named in
    /// any data clause: OpenACC `present_or_copy` default).
    pub implied: bool,
}

/// An analyzed parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedRegion {
    pub num_gangs: Option<HExpr>,
    pub num_workers: Option<HExpr>,
    pub vector_length: Option<HExpr>,
    pub data: Vec<DataBinding>,
    /// Region-local scalars (indexed by `Sym::Local`).
    pub locals: Vec<LocalScalar>,
    /// Host scalars referenced by the region (indices into
    /// `AnalyzedProgram::hosts`), in first-use order.
    pub hosts_used: Vec<usize>,
    /// Host scalars written by the region (reduction results and direct
    /// assignments) that must be copied back.
    pub hosts_written: Vec<usize>,
    /// `private(...)` variables named on the construct itself (per-gang
    /// privates in OpenACC terms), kept for the lint layer.
    pub privates: Vec<(Sym, Span)>,
    pub body: Vec<HStmt>,
    pub span: Span,
}

/// A host-side scalar assignment executed before the regions run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostAssign {
    pub host: usize,
    pub value: HExpr,
    /// Source span of the assignment statement. The runtime hoists every
    /// host assignment before the first region, but the *source position*
    /// matters to the fusion-legality analysis ([`crate::redflow`]): a
    /// host mutation written between two regions interleaves with the
    /// chain as authored and disqualifies fusing across it.
    pub span: Span,
}

/// A resolved structured data region: residency of `bindings` spans the
/// execution of `regions[first_region..end_region]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataScope {
    /// (array index, direction) pairs.
    pub bindings: Vec<(usize, DataDir)>,
    pub first_region: usize,
    pub end_region: usize,
}

/// The analyzed program.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedProgram {
    pub hosts: Vec<HostScalar>,
    pub arrays: Vec<ArrayDecl>,
    /// Host assignments, in source order (before any region executes).
    pub host_assigns: Vec<HostAssign>,
    pub regions: Vec<AnalyzedRegion>,
    /// Structured `acc data` scopes, in source order.
    pub data_scopes: Vec<DataScope>,
    /// Byte offset of the start of each source line (line `k` is
    /// 1-based at `line_starts[k-1]`). Filled by [`crate::compile`];
    /// empty when the program was analyzed without its source text, in
    /// which case [`Self::line_of`] reports every span as unknown.
    pub line_starts: Vec<usize>,
}

impl AnalyzedProgram {
    /// Look up a host scalar by name.
    pub fn host_index(&self, name: &str) -> Option<usize> {
        self.hosts.iter().position(|h| h.name == name)
    }

    /// The 1-based source line containing byte offset `pos`, or 0 when
    /// no line table is available (the convention kernels' line tables
    /// use for "unknown").
    pub fn line_of(&self, pos: usize) -> u32 {
        if self.line_starts.is_empty() {
            return 0;
        }
        self.line_starts.partition_point(|&s| s <= pos) as u32
    }

    /// Look up an array by name.
    pub fn array_index(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }
}

/// The one statement walk: `f` sees every statement of `stmts` and of
/// every nested body, pre-order, with the chain of loops enclosing it
/// (outermost first; a loop's own chain excludes the loop itself).
pub fn visit_stmts<'a>(stmts: &'a [HStmt], f: &mut impl FnMut(&'a HStmt, &[&'a HLoop])) {
    fn go<'a>(
        stmts: &'a [HStmt],
        chain: &mut Vec<&'a HLoop>,
        f: &mut impl FnMut(&'a HStmt, &[&'a HLoop]),
    ) {
        for s in stmts {
            f(s, chain);
            let depth = chain.len();
            if let HStmt::Loop(l) = s {
                chain.push(l);
            }
            for body in s.bodies() {
                go(body, chain, f);
            }
            chain.truncate(depth);
        }
    }
    go(stmts, &mut Vec::new(), f)
}

/// Visit every loop in a statement list, pre-order.
pub fn visit_loops<'a>(stmts: &'a [HStmt], f: &mut impl FnMut(&'a HLoop)) {
    visit_stmts(stmts, &mut |s, _| {
        if let HStmt::Loop(l) = s {
            f(l)
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> HExpr {
        HExpr {
            ty: CType::Int,
            kind: HExprKind::Int(v),
            span: Span::default(),
        }
    }

    #[test]
    fn const_int_folding() {
        assert_eq!(int(5).const_int(), Some(5));
        let neg = HExpr {
            ty: CType::Int,
            kind: HExprKind::Un {
                op: UnOpKind::Neg,
                operand: Box::new(int(3)),
            },
            span: Span::default(),
        };
        assert_eq!(neg.const_int(), Some(-3));
        let add = HExpr {
            ty: CType::Int,
            kind: HExprKind::Bin {
                op: BinOpKind::Add,
                cmp_ty: CType::Int,
                lhs: Box::new(int(2)),
                rhs: Box::new(int(3)),
            },
            span: Span::default(),
        };
        assert_eq!(add.const_int(), Some(5));
        let sym = HExpr {
            ty: CType::Int,
            kind: HExprKind::Sym(Sym::Host(0)),
            span: Span::default(),
        };
        assert_eq!(sym.const_int(), None);
    }

    /// Every `HStmt` and `HExprKind` variant, with a store under an `if`
    /// in a loop in an `if`.
    const EVERY_VARIANT: &str = "int N; int k; double s; double h;\n\
         double a[N]; double b[N];\n\
         #pragma acc parallel copy(a) copyin(b)\n{\n\
         if (k > 0) {\n\
         #pragma acc loop gang reduction(+:s)\n\
         for (int i = 0; i < N; i++) {\n\
         double t = -b[i];\n\
         if (t > 0.5) { a[i] = fmax(t, 1.0); }\n\
         s += (t > 0.0) ? t : (double)k;\n\
         for (int j = 0; j < 2; j++) { t = t * 0.5; }\n\
         }\n\
         }\n\
         for (int m = 0; m < k; m++) { h = 2; }\n}";

    /// Variant tags and node count of the expression tree, from an
    /// exhaustive match independent of the walk.
    fn expr_census(e: &HExpr, tags: &mut std::collections::BTreeSet<&'static str>) -> usize {
        let (tag, kids): (_, Vec<&HExpr>) = match &e.kind {
            HExprKind::Int(_) => ("Int", vec![]),
            HExprKind::Float(_) => ("Float", vec![]),
            HExprKind::Sym(_) => ("Sym", vec![]),
            HExprKind::Load { indices, .. } => ("Load", indices.iter().collect()),
            HExprKind::Un { operand, .. } => ("Un", vec![operand]),
            HExprKind::Bin { lhs, rhs, .. } => ("Bin", vec![lhs, rhs]),
            HExprKind::Cond { cond, then, els } => ("Cond", vec![cond, then, els]),
            HExprKind::Call { args, .. } => ("Call", args.iter().collect()),
            HExprKind::Cast { operand } => ("Cast", vec![operand]),
        };
        tags.insert(tag);
        1 + kids
            .into_iter()
            .map(|k| expr_census(k, tags))
            .sum::<usize>()
    }

    fn stmt_tag(s: &HStmt) -> &'static str {
        match s {
            HStmt::AssignLocal { .. } => "AssignLocal",
            HStmt::AssignHost { .. } => "AssignHost",
            HStmt::Store { .. } => "Store",
            HStmt::ReduceUpdate { .. } => "ReduceUpdate",
            HStmt::If { .. } => "If",
            HStmt::Loop(_) => "Loop",
        }
    }

    #[test]
    fn the_walk_reaches_every_variant_once_in_source_order() {
        let p = crate::compile(EVERY_VARIANT).expect("compile");
        let body = &p.regions[0].body;
        let (mut stmt_tags, mut expr_tags) = (Vec::new(), std::collections::BTreeSet::new());
        let (mut census, mut starts) = (0, Vec::new());
        let mut loop_chains = Vec::new();
        let mut store_chain = None;
        visit_stmts(body, &mut |s, chain| {
            stmt_tags.push(stmt_tag(s));
            for e in s.exprs() {
                census += expr_census(e, &mut expr_tags);
                e.walk(&mut |n| starts.push(n.span.start));
            }
            let vars = |c: &[&HLoop]| c.iter().map(|l| l.var).collect::<Vec<_>>();
            match s {
                HStmt::Loop(l) => loop_chains.push((l.var, vars(chain))),
                HStmt::Store { .. } => store_chain = Some(vars(chain)),
                _ => {}
            }
        });
        let mut want = vec![
            "AssignLocal",
            "AssignHost",
            "Store",
            "ReduceUpdate",
            "If",
            "Loop",
        ];
        let mut seen = stmt_tags.clone();
        seen.sort();
        seen.dedup();
        want.sort();
        assert_eq!(seen, want, "statement variants reached: {stmt_tags:?}");
        assert_eq!(
            expr_tags.into_iter().collect::<Vec<_>>(),
            ["Bin", "Call", "Cast", "Cond", "Float", "Int", "Load", "Sym", "Un"]
        );
        // Every expression node exactly once, in source order.
        assert_eq!(starts.len(), census);
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
        // `i` sits in an `if` at region level, `j` in `i`, `m` after both;
        // the store sits under an `if` in `i`.
        let local = |name| {
            p.regions[0]
                .locals
                .iter()
                .position(|l| l.name == name)
                .unwrap()
        };
        let (i, j, m) = (local("i"), local("j"), local("m"));
        assert_eq!(loop_chains, [(i, vec![]), (j, vec![i]), (m, vec![])]);
        assert_eq!(store_chain, Some(vec![i]));
        let mut accs = Vec::new();
        crate::dataflow::collect_array_accesses(body, &mut accs);
        let a = p.array_index("a").unwrap();
        assert!(accs.iter().any(|x| x.is_write && x.array == a));
    }

    #[test]
    fn mathfunc_resolution() {
        assert_eq!(MathFunc::from_name("fmax"), Some(MathFunc::FMax));
        assert_eq!(MathFunc::from_name("fabsf"), Some(MathFunc::FAbs));
        assert_eq!(MathFunc::from_name("sqrt"), Some(MathFunc::Sqrt));
        assert_eq!(MathFunc::from_name("nosuch"), None);
        assert_eq!(MathFunc::FMax.arity(), 2);
        assert_eq!(MathFunc::FAbs.arity(), 1);
    }
}
