//! # redcert — symbolic translation validation for compiled kernels
//!
//! This module is the kernel-side half of the per-region translation
//! validator (`uhacc-cc --certify`): a **symbolic executor** over
//! [`crate::ir`] that runs a compiled kernel at small concrete launch
//! dimensions with *symbolic array contents*, folding every thread's
//! contribution into a canonical term. The source-side half (the
//! reference interpreter over the analyzed HIR) lives in
//! `uhacc-core::cert`; both sides build terms in **one shared
//! [`TermPool`]**, so proving the kernel correct reduces to comparing
//! `TermId`s at the observable boundary (host scalars + copied-out
//! array cells).
//!
//! ## Abstract domain
//!
//! A symbolic value ([`SVal`]) is either a concrete [`Value`] (scalars,
//! loop bounds and addresses are always concrete) or a reference into
//! the hash-consed term pool. Terms are:
//!
//! - `Input(region, offset, ty)` — an unknown array cell,
//! - `Bin` / `Cmp` / `Un` / `Sel` / `Cvt` — mirroring the interpreter's
//!   conversion semantics exactly (operands are converted to the
//!   operation type first, like [`crate::exec::eval_bin`]),
//! - `Fold(op, ty, args)` — an **n-ary, TermId-sorted multiset** for the
//!   flattenable commutative-associative operations
//!   (`add/mul/min/max/and/or/xor`). Nested same-op/same-ty folds are
//!   spliced, so any reassociation/commutation of the same multiset of
//!   contributions canonicalizes to the same term.
//!
//! Integer folds merge concrete contributions eagerly (integer ops are
//! exactly associative, so the merged constant is bit-faithful); the
//! merged constant is dropped only when bit-equal to the operation's
//! true neutral element. **Float folds never merge constants** — each
//! concrete contribution stays a distinct `Num` argument — because
//! reassociating a concrete float sum would change its bits; a verdict
//! that still matches is reported as *certified modulo reassociation*.
//!
//! ## Soundness
//!
//! The executor replicates the lockstep interpreter of [`crate::exec`]
//! (warps of 32, min-PC reconvergence, strict barrier rounds, ascending
//! block order) and **refuses** — verdict `Unknown` — on anything it
//! cannot model exactly: symbolic branch conditions, symbolic
//! addresses, value-returning atomics, barrier divergence, data races
//! (detected with an epoch-based per-cell log), uninitialized reads,
//! or exhausted step/term budgets. It never guesses: a `Certified`
//! verdict means every observable is the *same term* as the reference,
//! which for integer folds implies bit-identical results and for float
//! folds implies value equality modulo IEEE reassociation (and signed
//! zeros).

use std::collections::HashMap;

use crate::shadow::Paged;

use crate::exec::{eval_bin, eval_cmp, eval_un, mref_addr, LaunchConfig};
use crate::ir::{
    format_imm, AccessKind, AtomOp, BinOp, CmpOp, Inst, Kernel, MemRef, Operand, SpecialReg, UnOp,
};
use crate::types::{Ty, Value};

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

/// Index of a term in a [`TermPool`]. Equal ids ⇔ structurally equal terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// A concrete value keyed by its bit pattern (hashable; `-0.0` and `+0.0`
/// stay distinct, NaNs compare by their canonicalized payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NumBits {
    pub ty: Ty,
    pub bits: u64,
}

impl NumBits {
    pub fn of(v: Value) -> NumBits {
        let (buf, _) = v.to_bytes();
        NumBits {
            ty: v.ty(),
            bits: u64::from_le_bytes(buf),
        }
    }

    pub fn value(self) -> Value {
        Value::from_bytes(self.ty, &self.bits.to_le_bytes())
    }
}

/// Bit-level equality of two concrete values (same type, same bytes).
pub fn bit_eq(a: Value, b: Value) -> bool {
    a.ty() == b.ty() && NumBits::of(a).bits == NumBits::of(b).bits
}

/// A node in the shared term algebra. See the module docs for the domain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A concrete constant embedded in a composite term.
    Num(NumBits),
    /// Symbolic initial contents of one array cell.
    Input {
        region: u32,
        off: u64,
        ty: Ty,
    },
    /// A schedule-dependent value (racy read, or a read of a cell whose
    /// contents depend on an unordered cross-warp write). Each has a
    /// unique id so distinct races never compare equal; certification of
    /// any observable containing one degrades to `Unknown`.
    Poison {
        id: u32,
        ty: Ty,
    },
    Un {
        op: UnOp,
        ty: Ty,
        a: TermId,
    },
    Bin {
        op: BinOp,
        ty: Ty,
        a: TermId,
        b: TermId,
    },
    Cmp {
        op: CmpOp,
        ty: Ty,
        a: TermId,
        b: TermId,
    },
    Sel {
        cond: TermId,
        a: TermId,
        b: TermId,
    },
    Cvt {
        ty: Ty,
        a: TermId,
    },
    /// N-ary fold of a flattenable op; `args` is sorted by `TermId` and
    /// holds at most one `Num` for integer folds (the merged constant).
    Fold {
        op: BinOp,
        ty: Ty,
        args: Vec<TermId>,
    },
}

/// A symbolic value: concrete, or a term in the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SVal {
    C(Value),
    T(TermId),
}

/// Structural equality of two symbolic values (bitwise for concretes).
pub fn sval_eq(a: SVal, b: SVal) -> bool {
    match (a, b) {
        (SVal::C(x), SVal::C(y)) => bit_eq(x, y),
        (SVal::T(x), SVal::T(y)) => x == y,
        _ => false,
    }
}

/// True for the ops whose folds the canonicalizer may flatten (the
/// commutative-associative reduction operators of the paper's Table 1).
pub fn flattenable(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// The true (bit-level) neutral element of `op` at `ty`, when one exists.
pub fn fold_neutral(op: BinOp, ty: Ty) -> Option<Value> {
    match (op, ty) {
        (BinOp::Add, _) => Some(Value::zero(ty)),
        (BinOp::Mul, Ty::I32) => Some(Value::I32(1)),
        (BinOp::Mul, Ty::I64) => Some(Value::I64(1)),
        (BinOp::Mul, Ty::U64) => Some(Value::U64(1)),
        (BinOp::Mul, Ty::F32) => Some(Value::F32(1.0)),
        (BinOp::Mul, Ty::F64) => Some(Value::F64(1.0)),
        (BinOp::Min, Ty::I32) => Some(Value::I32(i32::MAX)),
        (BinOp::Min, Ty::I64) => Some(Value::I64(i64::MAX)),
        (BinOp::Min, Ty::U64) => Some(Value::U64(u64::MAX)),
        (BinOp::Min, Ty::F32) => Some(Value::F32(f32::INFINITY)),
        (BinOp::Min, Ty::F64) => Some(Value::F64(f64::INFINITY)),
        (BinOp::Max, Ty::I32) => Some(Value::I32(i32::MIN)),
        (BinOp::Max, Ty::I64) => Some(Value::I64(i64::MIN)),
        (BinOp::Max, Ty::U64) => Some(Value::U64(0)),
        (BinOp::Max, Ty::F32) => Some(Value::F32(f32::NEG_INFINITY)),
        (BinOp::Max, Ty::F64) => Some(Value::F64(f64::NEG_INFINITY)),
        (BinOp::And, Ty::I32) => Some(Value::I32(-1)),
        (BinOp::And, Ty::I64) => Some(Value::I64(-1)),
        (BinOp::And, Ty::U64) => Some(Value::U64(u64::MAX)),
        (BinOp::And, Ty::Pred) => Some(Value::Pred(true)),
        (BinOp::Or, Ty::I32) | (BinOp::Xor, Ty::I32) => Some(Value::I32(0)),
        (BinOp::Or, Ty::I64) | (BinOp::Xor, Ty::I64) => Some(Value::I64(0)),
        (BinOp::Or, Ty::U64) | (BinOp::Xor, Ty::U64) => Some(Value::U64(0)),
        (BinOp::Or, Ty::Pred) | (BinOp::Xor, Ty::Pred) => Some(Value::Pred(false)),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy)]
struct TermMeta {
    ty: Ty,
    /// Known to evaluate to 0 or 1 (predicates, comparisons, normalized
    /// logical values) — enables the `sel(cmp-ne-0, 1, 0)` elision.
    boolish: bool,
    /// Contains a float-typed fold somewhere below (forces the
    /// "modulo reassociation" qualifier on a matching verdict).
    float_fold: bool,
    /// Contains a `Poison` leaf somewhere below (a race reached this
    /// value); such a term can never certify.
    poisoned: bool,
}

/// Hash-consing pool shared by the kernel-side executor and the
/// source-side reference interpreter. All smart constructors live here so
/// both sides canonicalize identically.
#[derive(Debug, Default)]
pub struct TermPool {
    terms: Vec<Term>,
    meta: Vec<TermMeta>,
    index: HashMap<Term, TermId>,
    poison_msgs: Vec<String>,
}

impl TermPool {
    pub fn new() -> TermPool {
        TermPool::default()
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn term(&self, t: TermId) -> &Term {
        &self.terms[t.0 as usize]
    }

    pub fn ty_of(&self, t: TermId) -> Ty {
        self.meta[t.0 as usize].ty
    }

    /// True when the term (or a subterm) is a float-typed fold.
    pub fn has_float_fold(&self, t: TermId) -> bool {
        self.meta[t.0 as usize].float_fold
    }

    pub fn sval_float_fold(&self, v: SVal) -> bool {
        match v {
            SVal::C(_) => false,
            SVal::T(t) => self.has_float_fold(t),
        }
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let meta = self.meta_of(&t);
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.meta.push(meta);
        self.index.insert(t, id);
        id
    }

    fn meta_of(&self, t: &Term) -> TermMeta {
        let m = |id: TermId| self.meta[id.0 as usize];
        match t {
            Term::Num(nb) => TermMeta {
                ty: nb.ty,
                boolish: match nb.value() {
                    Value::Pred(_) => true,
                    Value::I32(v) => v == 0 || v == 1,
                    Value::I64(v) => v == 0 || v == 1,
                    Value::U64(v) => v == 0 || v == 1,
                    _ => false,
                },
                float_fold: false,
                poisoned: false,
            },
            Term::Input { ty, .. } => TermMeta {
                ty: *ty,
                boolish: false,
                float_fold: false,
                poisoned: false,
            },
            Term::Poison { ty, .. } => TermMeta {
                ty: *ty,
                boolish: false,
                float_fold: false,
                poisoned: true,
            },
            Term::Un { op, ty, a } => TermMeta {
                ty: *ty,
                boolish: *op == UnOp::Not && *ty == Ty::Pred,
                float_fold: m(*a).float_fold,
                poisoned: m(*a).poisoned,
            },
            Term::Bin { ty, a, b, .. } => TermMeta {
                ty: *ty,
                boolish: false,
                float_fold: m(*a).float_fold || m(*b).float_fold,
                poisoned: m(*a).poisoned || m(*b).poisoned,
            },
            Term::Cmp { a, b, .. } => TermMeta {
                ty: Ty::Pred,
                boolish: true,
                float_fold: m(*a).float_fold || m(*b).float_fold,
                poisoned: m(*a).poisoned || m(*b).poisoned,
            },
            Term::Sel { cond, a, b } => TermMeta {
                ty: m(*a).ty,
                boolish: m(*a).boolish && m(*b).boolish,
                float_fold: m(*cond).float_fold || m(*a).float_fold || m(*b).float_fold,
                poisoned: m(*cond).poisoned || m(*a).poisoned || m(*b).poisoned,
            },
            Term::Cvt { ty, a } => TermMeta {
                ty: *ty,
                boolish: m(*a).boolish,
                float_fold: m(*a).float_fold,
                poisoned: m(*a).poisoned,
            },
            Term::Fold { op, ty, args } => TermMeta {
                ty: *ty,
                boolish: matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
                    && args.iter().all(|&a| m(a).boolish),
                float_fold: ty.is_float() || args.iter().any(|&a| m(a).float_fold),
                poisoned: args.iter().any(|&a| m(a).poisoned),
            },
        }
    }

    fn num(&mut self, v: Value) -> TermId {
        self.intern(Term::Num(NumBits::of(v)))
    }

    /// Symbolic input leaf for one array cell.
    pub fn input(&mut self, region: u32, off: u64, ty: Ty) -> TermId {
        self.intern(Term::Input { region, off, ty })
    }

    /// A fresh poison leaf for a schedule-dependent value. `msg` records
    /// the race that created it; [`TermPool::sval_poison`] recovers the
    /// message of the first poison leaf inside a term.
    pub fn poison(&mut self, ty: Ty, msg: String) -> SVal {
        let id = self.poison_msgs.len() as u32;
        self.poison_msgs.push(msg);
        SVal::T(self.intern(Term::Poison { id, ty }))
    }

    /// The race message of the first poison leaf in `v`, if any. A
    /// poisoned observable can never certify: its value depends on the
    /// warp schedule, which the validator does not enumerate.
    pub fn sval_poison(&self, v: SVal) -> Option<String> {
        let SVal::T(root) = v else { return None };
        if !self.meta[root.0 as usize].poisoned {
            return None;
        }
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            if !self.meta[t.0 as usize].poisoned {
                continue;
            }
            match &self.terms[t.0 as usize] {
                Term::Poison { id, .. } => return Some(self.poison_msgs[*id as usize].clone()),
                Term::Num(_) | Term::Input { .. } => {}
                Term::Un { a, .. } | Term::Cvt { a, .. } => stack.push(*a),
                Term::Bin { a, b, .. } | Term::Cmp { a, b, .. } => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Term::Sel { cond, a, b } => {
                    stack.push(*cond);
                    stack.push(*a);
                    stack.push(*b);
                }
                Term::Fold { args, .. } => stack.extend(args.iter().copied()),
            }
        }
        None
    }

    /// A term id for any symbolic value (constants become `Num` nodes).
    pub fn term_of(&mut self, v: SVal) -> TermId {
        match v {
            SVal::C(x) => self.num(x),
            SVal::T(t) => t,
        }
    }

    /// Convert `v` to `ty`, mirroring `Value::convert` for concretes and
    /// wrapping symbolic values in a `Cvt` node (elided when the type
    /// already matches; chains through boolish values collapse, since a
    /// 0/1 survives any numeric round-trip into an integer type).
    pub fn coerce(&mut self, v: SVal, ty: Ty) -> SVal {
        match v {
            SVal::C(x) => SVal::C(x.convert(ty)),
            SVal::T(t) => {
                if self.ty_of(t) == ty {
                    return SVal::T(t);
                }
                let mut src = t;
                if !ty.is_float() {
                    while let Term::Cvt { a, .. } = self.terms[src.0 as usize] {
                        if self.meta[a.0 as usize].boolish {
                            src = a;
                        } else {
                            break;
                        }
                    }
                    if self.ty_of(src) == ty {
                        return SVal::T(src);
                    }
                }
                SVal::T(self.intern(Term::Cvt { ty, a: src }))
            }
        }
    }

    fn atom(&mut self, v: SVal, ty: Ty) -> TermId {
        let cv = self.coerce(v, ty);
        self.term_of(cv)
    }

    /// Splice `v` (coerced to `ty`) into a fold's contribution lists.
    fn fold_contrib(
        &mut self,
        op: BinOp,
        ty: Ty,
        v: SVal,
        consts: &mut Vec<Value>,
        args: &mut Vec<TermId>,
    ) {
        match self.coerce(v, ty) {
            SVal::C(x) => consts.push(x),
            SVal::T(t) => {
                if let Term::Fold {
                    op: fo,
                    ty: ft,
                    args: fa,
                } = &self.terms[t.0 as usize]
                {
                    if *fo == op && *ft == ty {
                        for x in fa.clone() {
                            if let Term::Num(nb) = self.terms[x.0 as usize] {
                                consts.push(nb.value());
                            } else {
                                args.push(x);
                            }
                        }
                        return;
                    }
                }
                args.push(t);
            }
        }
    }

    /// `a <op> b` at `ty` with the interpreter's conversion semantics.
    /// Flattenable ops canonicalize into sorted n-ary folds.
    pub fn v_bin(&mut self, op: BinOp, ty: Ty, a: SVal, b: SVal) -> Result<SVal, String> {
        let flat = flattenable(op);
        if let (SVal::C(x), SVal::C(y)) = (a, b) {
            if !flat || !ty.is_float() {
                return eval_bin(op, ty, x, y)
                    .map(SVal::C)
                    .map_err(|e| format!("concrete {op} at {ty:?} failed: {e}"));
            }
        }
        if !flat {
            if matches!(op, BinOp::Div | BinOp::Rem) && !ty.is_float() {
                if let SVal::C(y) = b {
                    if y.convert(ty).as_i64() == 0 {
                        return Err(format!("{op} by zero"));
                    }
                }
            }
            let ai = self.atom(a, ty);
            let bi = self.atom(b, ty);
            return Ok(SVal::T(self.intern(Term::Bin {
                op,
                ty,
                a: ai,
                b: bi,
            })));
        }
        // Fold canonicalization.
        let mut consts: Vec<Value> = Vec::new();
        let mut args: Vec<TermId> = Vec::new();
        self.fold_contrib(op, ty, a, &mut consts, &mut args);
        self.fold_contrib(op, ty, b, &mut consts, &mut args);
        let neutral = fold_neutral(op, ty);
        if ty.is_float() {
            // Keep float constants as distinct multiset elements: merging
            // them would commit to one association order. Only exact
            // neutral bits are dropped.
            for c in consts {
                if !neutral.is_some_and(|n| bit_eq(c, n)) {
                    let id = self.num(c);
                    args.push(id);
                }
            }
            if args.is_empty() {
                return Ok(SVal::C(neutral.expect("float fold has a neutral")));
            }
        } else {
            let mut merged: Option<Value> = None;
            for c in consts {
                merged = Some(match merged {
                    None => c,
                    Some(m) => eval_bin(op, ty, m, c)
                        .map_err(|e| format!("concrete {op} at {ty:?} failed: {e}"))?,
                });
            }
            if let Some(m) = merged {
                if args.is_empty() {
                    return Ok(SVal::C(m));
                }
                if !neutral.is_some_and(|n| bit_eq(m, n)) {
                    let id = self.num(m);
                    args.push(id);
                }
            }
        }
        args.sort_unstable();
        if args.len() == 1 {
            if let Term::Num(nb) = self.terms[args[0].0 as usize] {
                return Ok(SVal::C(nb.value()));
            }
            return Ok(SVal::T(args[0]));
        }
        Ok(SVal::T(self.intern(Term::Fold { op, ty, args })))
    }

    /// `a <cmp> b` at `ty` → predicate. Mirrors the `Inst::Cmp` arm:
    /// both operands are converted to `ty` before comparing.
    pub fn v_cmp(&mut self, op: CmpOp, ty: Ty, a: SVal, b: SVal) -> Result<SVal, String> {
        if let (SVal::C(x), SVal::C(y)) = (a, b) {
            return Ok(SVal::C(Value::Pred(eval_cmp(
                op,
                ty,
                x.convert(ty),
                y.convert(ty),
            ))));
        }
        let ai = self.atom(a, ty);
        let bi = self.atom(b, ty);
        Ok(SVal::T(self.intern(Term::Cmp {
            op,
            ty,
            a: ai,
            b: bi,
        })))
    }

    /// `<op> a` at `ty`, mirroring `eval_un` (which converts internally).
    pub fn v_un(&mut self, op: UnOp, ty: Ty, a: SVal) -> Result<SVal, String> {
        if let SVal::C(x) = a {
            return eval_un(op, ty, x)
                .map(SVal::C)
                .map_err(|e| format!("concrete {op} at {ty:?} failed: {e}"));
        }
        match op {
            UnOp::Sqrt if !ty.is_float() => return Err("sqrt at integer type".into()),
            UnOp::Not if ty.is_float() => return Err("not at float type".into()),
            UnOp::Neg | UnOp::Abs if ty == Ty::Pred => {
                return Err(format!("{op} at predicate type"))
            }
            _ => {}
        }
        let ai = self.atom(a, ty);
        Ok(SVal::T(self.intern(Term::Un { op, ty, a: ai })))
    }

    /// `cond ? a : b`; a concrete condition picks the arm *unconverted*
    /// (like `Inst::Select`). The canonical boolean normalization
    /// `sel(cmp.ne(x, 0), 1, 0)` with boolish `x` elides to `cvt(i32, x)`
    /// so re-normalizing an already-boolean value is the identity.
    pub fn v_sel(&mut self, cond: SVal, a: SVal, b: SVal) -> Result<SVal, String> {
        match cond {
            SVal::C(c) => Ok(if c.as_bool() { a } else { b }),
            SVal::T(ct) => {
                if let (SVal::C(av), SVal::C(bv)) = (a, b) {
                    if bit_eq(av, Value::I32(1)) && bit_eq(bv, Value::I32(0)) {
                        if let Term::Cmp {
                            op: CmpOp::Ne,
                            ty,
                            a: xa,
                            b: xb,
                        } = self.terms[ct.0 as usize]
                        {
                            let zero_rhs = matches!(
                                self.terms[xb.0 as usize],
                                Term::Num(nb) if bit_eq(nb.value(), Value::zero(ty))
                            );
                            if zero_rhs && self.meta[xa.0 as usize].boolish {
                                return Ok(self.coerce(SVal::T(xa), Ty::I32));
                            }
                        }
                    }
                }
                let ai = self.term_of(a);
                let bi = self.term_of(b);
                Ok(SVal::T(self.intern(Term::Sel {
                    cond: ct,
                    a: ai,
                    b: bi,
                })))
            }
        }
    }

    // -- rendering ----------------------------------------------------------

    /// Render a term for reports; `names[region]` labels input leaves.
    /// Deterministic, depth- and width-capped.
    pub fn render(&self, t: TermId, names: &[String]) -> String {
        self.render_depth(t, names, 0)
    }

    pub fn render_sval(&self, v: SVal, names: &[String]) -> String {
        match v {
            SVal::C(x) => format_imm(x),
            SVal::T(t) => self.render(t, names),
        }
    }

    fn render_depth(&self, t: TermId, names: &[String], depth: u32) -> String {
        if depth > 6 {
            return "…".into();
        }
        let name = |r: u32| -> String {
            names
                .get(r as usize)
                .cloned()
                .unwrap_or_else(|| format!("region{r}"))
        };
        match &self.terms[t.0 as usize] {
            Term::Num(nb) => format_imm(nb.value()),
            Term::Input { region, off, ty } => {
                format!("{}[{off}]:{ty}", name(*region))
            }
            Term::Poison { id, ty } => format!("poison#{id}:{ty}"),
            Term::Un { op, ty, a } => {
                format!("{op}.{ty}({})", self.render_depth(*a, names, depth + 1))
            }
            Term::Bin { op, ty, a, b } => format!(
                "({} {op}.{ty} {})",
                self.render_depth(*a, names, depth + 1),
                self.render_depth(*b, names, depth + 1)
            ),
            Term::Cmp { op, ty, a, b } => format!(
                "({} {op}.{ty} {})",
                self.render_depth(*a, names, depth + 1),
                self.render_depth(*b, names, depth + 1)
            ),
            Term::Sel { cond, a, b } => format!(
                "sel({}, {}, {})",
                self.render_depth(*cond, names, depth + 1),
                self.render_depth(*a, names, depth + 1),
                self.render_depth(*b, names, depth + 1)
            ),
            Term::Cvt { ty, a } => {
                format!("cvt.{ty}({})", self.render_depth(*a, names, depth + 1))
            }
            Term::Fold { op, ty, args } => {
                let shown: Vec<String> = args
                    .iter()
                    .take(8)
                    .map(|&a| self.render_depth(a, names, depth + 1))
                    .collect();
                let tail = if args.len() > 8 {
                    format!(", … (+{} more)", args.len() - 8)
                } else {
                    String::new()
                };
                format!("fold[{op}.{ty}]({}{tail})", shown.join(", "))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic memory
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Access {
    kind: AccessKind,
    block: u32,
    warp: u32,
    epoch: u32,
    size: u8,
    written: Option<SVal>,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    ty: Ty,
    val: SVal,
    written: bool,
}

/// Typed cells by byte offset of their first byte, and the accesses of the
/// current launch by the offset they start at: 1 Ki offsets per page.
type Cells = Paged<Option<Cell>, 10>;
type Log = Paged<Vec<Access>, 10>;

/// One global-memory region (an array or a compiler temp buffer) at a
/// fixed concrete base address, so kernel address arithmetic runs fully
/// concrete — exactly as in the real runner.
#[derive(Debug)]
pub struct Region {
    pub name: String,
    pub base: u64,
    pub size: u64,
    /// `Some(ty)` ⇒ input-backed: unwritten cells materialize as
    /// symbolic `Input` leaves of this element type.
    pub elem_ty: Option<Ty>,
    /// Races on this region are tolerated (the last-block-wins host
    /// mailbox, which the device executes deterministically).
    pub race_exempt: bool,
    cells: Cells,
    log: Log,
}

const REGION_SHIFT: u32 = 32;
const REGION_OFF_MASK: u64 = (1u64 << REGION_SHIFT) - 1;

/// Symbolic global memory: regions at spaced concrete base addresses
/// (`base = (index + 1) << 32`), resolved back by range lookup.
#[derive(Debug, Default)]
pub struct SymMemory {
    regions: Vec<Region>,
}

impl SymMemory {
    pub fn new() -> SymMemory {
        SymMemory::default()
    }

    /// Allocate a region; returns its index. The base address is
    /// `(index + 1) << 32`.
    pub fn alloc(
        &mut self,
        name: &str,
        size: u64,
        elem_ty: Option<Ty>,
        race_exempt: bool,
    ) -> Result<u32, String> {
        if size > REGION_OFF_MASK {
            return Err(format!(
                "region `{name}` too large to certify ({size} bytes)"
            ));
        }
        let idx = self.regions.len() as u32;
        self.regions.push(Region {
            name: name.to_string(),
            base: ((idx as u64) + 1) << REGION_SHIFT,
            size,
            elem_ty,
            race_exempt,
            cells: Paged::default(),
            log: Paged::default(),
        });
        Ok(idx)
    }

    pub fn region(&self, idx: u32) -> &Region {
        &self.regions[idx as usize]
    }

    pub fn base(&self, idx: u32) -> u64 {
        self.regions[idx as usize].base
    }

    pub fn names(&self) -> Vec<String> {
        self.regions.iter().map(|r| r.name.clone()).collect()
    }

    /// Byte offsets of cells written by kernel stores/atomics.
    pub fn written_offsets(&self, idx: u32) -> Vec<u64> {
        let cells = self.regions[idx as usize].cells.iter();
        cells
            .filter(|(_, c)| c.is_some_and(|c| c.written))
            .map(|(o, _)| o)
            .collect()
    }

    /// Clear access logs between kernel launches (memory persists, the
    /// happens-before edge is the launch boundary).
    pub fn clear_logs(&mut self) {
        for r in &mut self.regions {
            r.log.clear();
        }
    }

    fn find(&self, addr: u64) -> Result<(u32, u64), String> {
        let idx = (addr >> REGION_SHIFT)
            .checked_sub(1)
            .ok_or_else(|| format!("access to unmapped address {addr:#x}"))?;
        let off = addr & REGION_OFF_MASK;
        match self.regions.get(idx as usize) {
            Some(r) if off < r.size => Ok((idx as u32, off)),
            _ => Err(format!("access to unmapped address {addr:#x}")),
        }
    }

    /// Seed a cell (buffer init / staged input) without logging.
    pub fn poke(&mut self, idx: u32, off: u64, v: Value) {
        let r = &mut self.regions[idx as usize];
        *r.cells.slot(off) = Some(Cell {
            ty: v.ty(),
            val: SVal::C(v),
            written: false,
        });
    }

    /// Read a cell without logging; `Ok(None)` means uninitialized.
    /// Input-backed regions materialize `Input` leaves.
    pub fn peek(
        &mut self,
        pool: &mut TermPool,
        idx: u32,
        off: u64,
        ty: Ty,
    ) -> Result<Option<SVal>, String> {
        let r = &mut self.regions[idx as usize];
        if !off.is_multiple_of(ty.size() as u64) || off + ty.size() as u64 > r.size {
            return Err(format!(
                "misaligned or out-of-bounds peek at {}+{off} ({ty})",
                r.name
            ));
        }
        if let Some(c) = r.cells.get(off) {
            if c.ty.size() != ty.size() {
                return Err(format!(
                    "type-punned cell at {}+{off}: {} vs {ty}",
                    r.name, c.ty
                ));
            }
            return Ok(Some(c.val));
        }
        if let Some(et) = r.elem_ty {
            if et == ty {
                let t = pool.input(idx, off, ty);
                *r.cells.slot(off) = Some(Cell {
                    ty,
                    val: SVal::T(t),
                    written: false,
                });
                return Ok(Some(SVal::T(t)));
            }
            return Err(format!(
                "element-type mismatch at {}+{off}: array is {et}, access is {ty}",
                r.name
            ));
        }
        Ok(None)
    }
}

fn conflicts(p: &Access, q: &Access, same_cell: bool) -> bool {
    if p.kind == AccessKind::Read && q.kind == AccessKind::Read {
        return false;
    }
    if p.kind == AccessKind::Atomic && q.kind == AccessKind::Atomic {
        return false;
    }
    if p.block == q.block && p.warp == q.warp {
        return false;
    }
    if p.block == q.block && p.epoch != q.epoch {
        return false;
    }
    if same_cell && p.kind == AccessKind::Write && q.kind == AccessKind::Write && p.size == q.size {
        // Redundant identical stores (duplicate-rows staging) are benign.
        if let (Some(a), Some(b)) = (p.written, q.written) {
            if sval_eq(a, b) {
                return false;
            }
        }
    }
    true
}

/// Log an access and check it against every overlapping prior access in
/// this launch. Max access size is 8 bytes, so scanning start offsets in
/// `[off-7, off+size)` covers all overlaps. A conflict does not abort
/// execution: the description is returned and the caller poisons the
/// value involved, so a race only blocks certification when the
/// schedule-dependent value actually reaches an observable (generated
/// kernels legitimately contain dead redundant reads — e.g. every
/// thread of a gang evaluating the gang-level body while only thread 0
/// publishes its accumulator).
fn log_access(log: &mut Log, where_: &str, off: u64, acc: Access) -> Option<String> {
    let mut racing = None;
    for o in off.saturating_sub(7)..off + acc.size as u64 {
        for prev in log.get(o) {
            // A prior access that ends before ours starts does not overlap.
            if o + prev.size as u64 > off && conflicts(prev, &acc, o == off) {
                racing = Some(prev);
            }
        }
    }
    let race = racing.map(|prev| {
        format!(
            "data race on {where_}+{off}: {:?} by block {} warp {} epoch {} \
             vs {:?} by block {} warp {} epoch {}",
            prev.kind, prev.block, prev.warp, prev.epoch, acc.kind, acc.block, acc.warp, acc.epoch
        )
    });
    log.slot(off).push(acc);
    race
}

fn check_cell_overlap(cells: &Cells, where_: &str, off: u64, size: u64) -> Result<(), String> {
    for o in off.saturating_sub(7)..off + size {
        if o == off {
            continue;
        }
        if let Some(c) = cells.get(o) {
            if o + c.ty.size() as u64 > off {
                return Err(format!(
                    "overlapping typed cells at {where_}+{off} (existing cell at +{o})"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Verdicts and reports
// ---------------------------------------------------------------------------

/// The four-point verdict lattice, ordered by severity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertVerdict {
    /// Every observable is the same term as the reference; for integer
    /// and exact-order operations this implies bit-identical results.
    Certified,
    /// Terms match but a float-typed fold is involved: value-equal
    /// modulo IEEE reassociation (and signed zeros).
    CertifiedModuloReassoc,
    /// The validator could not model the kernel (symbolic branch, race,
    /// budget, …). Never implies correctness.
    Unknown { reason: String },
    /// An observable provably differs from the reference; the witness
    /// renders both terms.
    Refuted { witness: String },
}

impl CertVerdict {
    pub fn severity(&self) -> u8 {
        match self {
            CertVerdict::Certified => 0,
            CertVerdict::CertifiedModuloReassoc => 1,
            CertVerdict::Unknown { .. } => 2,
            CertVerdict::Refuted { .. } => 3,
        }
    }

    /// Keep the worse of the two verdicts (first wins ties).
    pub fn merge(self, other: CertVerdict) -> CertVerdict {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// True for `Certified` and `CertifiedModuloReassoc`.
    pub fn is_certified(&self) -> bool {
        self.severity() <= 1
    }

    pub fn label(&self) -> &'static str {
        match self {
            CertVerdict::Certified => "certified",
            CertVerdict::CertifiedModuloReassoc => "certified-modulo-reassoc",
            CertVerdict::Unknown { .. } => "unknown",
            CertVerdict::Refuted { .. } => "refuted",
        }
    }
}

/// One compared observable (a host scalar or an array cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CertObservable {
    pub name: String,
    pub verdict: CertVerdict,
}

/// The per-region certification report.
#[derive(Debug, Clone, PartialEq)]
pub struct CertReport {
    pub region: usize,
    pub kernel: String,
    pub dims: (u32, u32, u32),
    /// Source reduction triples `(var, op, identity)` from the accparse
    /// region summary.
    pub reductions: Vec<String>,
    pub verdict: CertVerdict,
    pub observables: Vec<CertObservable>,
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn verdict_json(v: &CertVerdict) -> String {
    let reason = match v {
        CertVerdict::Unknown { reason } => format!("\"{}\"", json_escape(reason)),
        _ => "null".into(),
    };
    let witness = match v {
        CertVerdict::Refuted { witness } => format!("\"{}\"", json_escape(witness)),
        _ => "null".into(),
    };
    format!(
        "\"verdict\":\"{}\",\"reason\":{reason},\"witness\":{witness}",
        v.label()
    )
}

impl CertReport {
    /// Byte-stable JSON object (schema v1; field order is fixed).
    pub fn to_json(&self) -> String {
        let mut obs = String::new();
        for (i, o) in self.observables.iter().enumerate() {
            if i > 0 {
                obs.push(',');
            }
            obs.push_str(&format!(
                "{{\"name\":\"{}\",{}}}",
                json_escape(&o.name),
                verdict_json(&o.verdict)
            ));
        }
        let reds = self
            .reductions
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"region\":{},\"kernel\":\"{}\",\"dims\":[{},{},{}],\"reductions\":[{reds}],{},\"observables\":[{obs}]}}",
            self.region,
            json_escape(&self.kernel),
            self.dims.0,
            self.dims.1,
            self.dims.2,
            verdict_json(&self.verdict)
        )
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let headline = match &self.verdict {
            CertVerdict::Certified => "CERTIFIED".to_string(),
            CertVerdict::CertifiedModuloReassoc => {
                "CERTIFIED (modulo FP reassociation)".to_string()
            }
            CertVerdict::Unknown { reason } => format!("UNKNOWN — {reason}"),
            CertVerdict::Refuted { witness } => format!("REFUTED — {witness}"),
        };
        let _ = writeln!(
            out,
            "redcert: region {} kernel `{}` dims {}x{}x{} — {headline}",
            self.region, self.kernel, self.dims.0, self.dims.1, self.dims.2
        );
        for r in &self.reductions {
            let _ = writeln!(out, "  reduction {r}");
        }
        for o in &self.observables {
            match &o.verdict {
                CertVerdict::Unknown { reason } => {
                    let _ = writeln!(out, "  {}: unknown — {reason}", o.name);
                }
                CertVerdict::Refuted { witness } => {
                    let _ = writeln!(out, "  {}: refuted — {witness}", o.name);
                }
                v => {
                    let _ = writeln!(out, "  {}: {}", o.name, v.label());
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Symbolic executor
// ---------------------------------------------------------------------------

/// Budgets for one region certification (all launches + reference run).
#[derive(Debug, Clone, Copy)]
pub struct CertConfig {
    /// Total symbolically executed instructions across all launches.
    pub max_steps: u64,
    /// Total threads per launch.
    pub max_threads: u64,
    /// Term-pool size cap.
    pub max_terms: u64,
}

impl Default for CertConfig {
    fn default() -> Self {
        CertConfig {
            max_steps: 5_000_000,
            max_threads: 65_536,
            max_terms: 1_000_000,
        }
    }
}

const WARP_SIZE: usize = 32;

struct SThread {
    regs: Vec<SVal>,
    pc: usize,
    exited: bool,
    at_barrier: bool,
}

struct SharedMem {
    size: u64,
    cells: Cells,
    log: Log,
}

/// Symbolically execute one kernel launch against `mem`/`pool`.
///
/// Replicates the lockstep interpreter: warps of 32 consecutive lanes,
/// min-PC reconvergence within a warp, strict barrier rounds (all
/// non-exited threads must reach the same barrier), blocks in ascending
/// linear order. Any construct the validator cannot model exactly
/// returns `Err(reason)` → verdict `Unknown`.
pub fn run_symbolic(
    kernel: &Kernel,
    cfg: LaunchConfig,
    params: &[SVal],
    mem: &mut SymMemory,
    pool: &mut TermPool,
    ccfg: &CertConfig,
    steps: &mut u64,
) -> Result<(), String> {
    let tpb = cfg.threads_per_block() as usize;
    let nblocks = cfg.num_blocks();
    if tpb == 0 || nblocks == 0 {
        return Err("empty launch".into());
    }
    if tpb as u64 * nblocks as u64 > ccfg.max_threads {
        return Err(format!(
            "launch too large to certify ({} threads)",
            tpb as u64 * nblocks as u64
        ));
    }
    if params.len() < kernel.num_params as usize {
        return Err(format!(
            "kernel `{}` expects {} params, got {}",
            kernel.name,
            kernel.num_params,
            params.len()
        ));
    }
    for block_id in 0..nblocks {
        let block_idx = (block_id % cfg.grid.0, block_id / cfg.grid.0);
        let mut shared = SharedMem {
            size: kernel.shared_bytes as u64,
            cells: Paged::default(),
            log: Paged::default(),
        };
        let mut epoch: u32 = 0;
        let mut threads: Vec<SThread> = (0..tpb)
            .map(|_| SThread {
                regs: vec![SVal::C(Value::I32(0)); kernel.num_regs as usize],
                pc: 0,
                exited: false,
                at_barrier: false,
            })
            .collect();
        let warps = tpb.div_ceil(WARP_SIZE);
        loop {
            for w in 0..warps {
                let lo = w * WARP_SIZE;
                let hi = (lo + WARP_SIZE).min(tpb);
                loop {
                    let pc = (lo..hi)
                        .filter(|&l| !threads[l].exited && !threads[l].at_barrier)
                        .map(|l| threads[l].pc)
                        .min();
                    let Some(pc) = pc else { break };
                    for l in lo..hi {
                        if threads[l].exited || threads[l].at_barrier || threads[l].pc != pc {
                            continue;
                        }
                        *steps += 1;
                        if *steps > ccfg.max_steps {
                            return Err("step budget exceeded".into());
                        }
                        if pool.len() as u64 > ccfg.max_terms {
                            return Err("term budget exceeded".into());
                        }
                        exec_inst(
                            kernel,
                            cfg,
                            params,
                            mem,
                            pool,
                            &mut threads,
                            &mut shared,
                            l,
                            block_id,
                            block_idx,
                            w as u32,
                            epoch,
                            pc,
                        )?;
                    }
                }
            }
            if threads.iter().all(|t| t.exited) {
                break;
            }
            // Barrier round.
            let mut bar_pc: Option<usize> = None;
            for t in threads.iter() {
                if t.exited {
                    continue;
                }
                if !t.at_barrier {
                    return Err(format!(
                        "barrier deadlock in `{}` (block {block_id})",
                        kernel.name
                    ));
                }
                match bar_pc {
                    None => bar_pc = Some(t.pc),
                    Some(p) if p != t.pc => {
                        return Err(format!(
                            "barrier divergence in `{}` (block {block_id})",
                            kernel.name
                        ));
                    }
                    _ => {}
                }
            }
            for t in threads.iter_mut() {
                t.at_barrier = false;
            }
            epoch += 1;
        }
    }
    mem.clear_logs();
    Ok(())
}

fn special(lane: usize, cfg: LaunchConfig, block_idx: (u32, u32), sr: SpecialReg) -> Value {
    let v = match sr {
        SpecialReg::TidX => lane as u32 % cfg.block.0,
        SpecialReg::TidY => lane as u32 / cfg.block.0,
        SpecialReg::TidZ => 0,
        SpecialReg::NTidX => cfg.block.0,
        SpecialReg::NTidY => cfg.block.1,
        SpecialReg::NTidZ => 1,
        SpecialReg::CtaIdX => block_idx.0,
        SpecialReg::CtaIdY => block_idx.1,
        SpecialReg::NCtaIdX => cfg.grid.0,
        SpecialReg::NCtaIdY => cfg.grid.1,
        SpecialReg::LaneLinear => lane as u32,
    };
    Value::I32(v as i32)
}

fn operand(threads: &[SThread], lane: usize, op: Operand) -> SVal {
    match op {
        Operand::Reg(r) => threads[lane].regs[r.0 as usize],
        Operand::Imm(v) => SVal::C(v),
    }
}

/// Resolve a memory reference to a concrete byte address, mirroring the
/// interpreter's `resolve_mref` (i64 wrapping arithmetic).
fn addr_of(threads: &[SThread], lane: usize, m: &MemRef) -> Result<u64, String> {
    let base = match operand(threads, lane, m.base) {
        SVal::C(v) => v.as_u64(),
        SVal::T(_) => return Err("symbolic address base".into()),
    };
    let idx = match m.index {
        None => 0,
        Some(r) => match threads[lane].regs[r.0 as usize] {
            SVal::C(v) => v.as_i64(),
            SVal::T(_) => return Err("symbolic address index".into()),
        },
    };
    Ok(mref_addr(base, idx, m.scale as i64, m.disp))
}

#[allow(clippy::too_many_arguments)]
fn exec_inst(
    kernel: &Kernel,
    cfg: LaunchConfig,
    params: &[SVal],
    mem: &mut SymMemory,
    pool: &mut TermPool,
    threads: &mut [SThread],
    shared: &mut SharedMem,
    lane: usize,
    block_id: u32,
    block_idx: (u32, u32),
    warp: u32,
    epoch: u32,
    pc: usize,
) -> Result<(), String> {
    let inst = &kernel.insts[pc];
    let mut next_pc = pc + 1;
    let acc = |kind: AccessKind, size: u8, written: Option<SVal>| Access {
        kind,
        block: block_id,
        warp,
        epoch,
        size,
        written,
    };
    // NOTE: this match is deliberately wildcard-free — adding a variant to
    // `Inst` without certification semantics is a compile error.
    match inst {
        Inst::MovImm { dst, value } => {
            threads[lane].regs[dst.0 as usize] = SVal::C(*value);
        }
        Inst::Mov { dst, src } => {
            threads[lane].regs[dst.0 as usize] = threads[lane].regs[src.0 as usize];
        }
        Inst::ReadSpecial { dst, sr } => {
            threads[lane].regs[dst.0 as usize] = SVal::C(special(lane, cfg, block_idx, *sr));
        }
        Inst::ReadParam { dst, idx } => {
            let v = *params
                .get(*idx as usize)
                .ok_or_else(|| format!("param index {idx} out of range"))?;
            threads[lane].regs[dst.0 as usize] = v;
        }
        Inst::Bin { op, ty, dst, a, b } => {
            let av = operand(threads, lane, *a);
            let bv = operand(threads, lane, *b);
            threads[lane].regs[dst.0 as usize] = pool.v_bin(*op, *ty, av, bv)?;
        }
        Inst::Cmp { op, ty, dst, a, b } => {
            let av = operand(threads, lane, *a);
            let bv = operand(threads, lane, *b);
            threads[lane].regs[dst.0 as usize] = pool.v_cmp(*op, *ty, av, bv)?;
        }
        Inst::Un { op, ty, dst, a } => {
            let av = operand(threads, lane, *a);
            threads[lane].regs[dst.0 as usize] = pool.v_un(*op, *ty, av)?;
        }
        Inst::Select { dst, cond, a, b } => {
            let cv = threads[lane].regs[cond.0 as usize];
            let av = operand(threads, lane, *a);
            let bv = operand(threads, lane, *b);
            threads[lane].regs[dst.0 as usize] = pool.v_sel(cv, av, bv)?;
        }
        Inst::Cvt { dst, ty, src } => {
            let sv = operand(threads, lane, *src);
            threads[lane].regs[dst.0 as usize] = pool.coerce(sv, *ty);
        }
        Inst::LdGlobal { ty, dst, mref } => {
            let addr = addr_of(threads, lane, mref)?;
            let (ridx, off) = mem.find(addr)?;
            let r = &mut mem.regions[ridx as usize];
            check_cell_overlap(&r.cells, &r.name, off, ty.size() as u64)?;
            let race = if r.race_exempt {
                None
            } else {
                log_access(
                    &mut r.log,
                    &r.name,
                    off,
                    acc(AccessKind::Read, ty.size() as u8, None),
                )
            };
            threads[lane].regs[dst.0 as usize] = if let Some(msg) = race {
                pool.poison(*ty, msg)
            } else {
                mem.peek(pool, ridx, off, *ty)?.ok_or_else(|| {
                    format!(
                        "read of uninitialized global memory ({}+{off})",
                        mem.region(ridx).name
                    )
                })?
            };
        }
        Inst::StGlobal { ty, src, mref } => {
            let addr = addr_of(threads, lane, mref)?;
            let (ridx, off) = mem.find(addr)?;
            let sv = operand(threads, lane, *src);
            let v = pool.coerce(sv, *ty);
            let r = &mut mem.regions[ridx as usize];
            if !off.is_multiple_of(ty.size() as u64) || off + ty.size() as u64 > r.size {
                return Err(format!("misaligned or OOB store at {}+{off}", r.name));
            }
            check_cell_overlap(&r.cells, &r.name, off, ty.size() as u64)?;
            let race = if r.race_exempt {
                None
            } else {
                log_access(
                    &mut r.log,
                    &r.name,
                    off,
                    acc(AccessKind::Write, ty.size() as u8, Some(v)),
                )
            };
            let val = match race {
                Some(msg) => pool.poison(*ty, msg),
                None => v,
            };
            *r.cells.slot(off) = Some(Cell {
                ty: *ty,
                val,
                written: true,
            });
        }
        Inst::LdShared { ty, dst, mref } => {
            let off = addr_of(threads, lane, mref)?;
            if off % ty.size() as u64 != 0 || off.saturating_add(ty.size() as u64) > shared.size {
                return Err(format!("misaligned or OOB shared load at +{off}"));
            }
            check_cell_overlap(&shared.cells, "shared", off, ty.size() as u64)?;
            let race = log_access(
                &mut shared.log,
                "shared",
                off,
                acc(AccessKind::Read, ty.size() as u8, None),
            );
            threads[lane].regs[dst.0 as usize] = if let Some(msg) = race {
                pool.poison(*ty, msg)
            } else {
                let c = shared
                    .cells
                    .get(off)
                    .as_ref()
                    .ok_or_else(|| format!("read of uninitialized shared memory (+{off})"))?;
                if c.ty.size() != ty.size() {
                    return Err(format!("type-punned shared cell at +{off}"));
                }
                c.val
            };
        }
        Inst::StShared { ty, src, mref } => {
            let off = addr_of(threads, lane, mref)?;
            if off % ty.size() as u64 != 0 || off.saturating_add(ty.size() as u64) > shared.size {
                return Err(format!("misaligned or OOB shared store at +{off}"));
            }
            let sv = operand(threads, lane, *src);
            let v = pool.coerce(sv, *ty);
            check_cell_overlap(&shared.cells, "shared", off, ty.size() as u64)?;
            let race = log_access(
                &mut shared.log,
                "shared",
                off,
                acc(AccessKind::Write, ty.size() as u8, Some(v)),
            );
            let val = match race {
                Some(msg) => pool.poison(*ty, msg),
                None => v,
            };
            *shared.cells.slot(off) = Some(Cell {
                ty: *ty,
                val,
                written: true,
            });
        }
        Inst::AtomGlobal {
            op,
            ty,
            mref,
            src,
            dst,
        } => {
            if dst.is_some() {
                return Err("value-returning atomic".into());
            }
            let bop = match op {
                AtomOp::Add => BinOp::Add,
                AtomOp::Min => BinOp::Min,
                AtomOp::Max => BinOp::Max,
                AtomOp::And => BinOp::And,
                AtomOp::Or => BinOp::Or,
                AtomOp::Xor => BinOp::Xor,
                AtomOp::Exch => return Err("exchange atomic".into()),
            };
            let addr = addr_of(threads, lane, mref)?;
            let (ridx, off) = mem.find(addr)?;
            let sv = operand(threads, lane, *src);
            let old = mem.peek(pool, ridx, off, *ty)?.ok_or_else(|| {
                format!(
                    "atomic on uninitialized cell ({}+{off})",
                    mem.region(ridx).name
                )
            })?;
            let new = pool.v_bin(bop, *ty, old, sv)?;
            let r = &mut mem.regions[ridx as usize];
            let race = if r.race_exempt {
                None
            } else {
                log_access(
                    &mut r.log,
                    &r.name,
                    off,
                    acc(AccessKind::Atomic, ty.size() as u8, None),
                )
            };
            let val = match race {
                Some(msg) => pool.poison(*ty, msg),
                None => new,
            };
            *r.cells.slot(off) = Some(Cell {
                ty: *ty,
                val,
                written: true,
            });
        }
        Inst::Bar => {
            threads[lane].at_barrier = true;
        }
        Inst::Bra { target, cond } => match cond {
            None => next_pc = kernel.target(*target),
            Some((r, expect)) => match threads[lane].regs[r.0 as usize] {
                SVal::C(v) => {
                    if v.as_bool() == *expect {
                        next_pc = kernel.target(*target);
                    }
                }
                SVal::T(_) => return Err("symbolic branch condition".into()),
            },
        },
        Inst::Ret => {
            threads[lane].exited = true;
        }
    }
    threads[lane].pc = next_pc;
    Ok(())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn input(pool: &mut TermPool, off: u64, ty: Ty) -> SVal {
        SVal::T(pool.input(0, off, ty))
    }

    #[test]
    fn int_fold_merges_and_drops_neutral() {
        let mut p = TermPool::new();
        let x = input(&mut p, 0, Ty::I32);
        // (0 + x) + 0 == x
        let a = p
            .v_bin(BinOp::Add, Ty::I32, SVal::C(Value::I32(0)), x)
            .unwrap();
        let b = p
            .v_bin(BinOp::Add, Ty::I32, a, SVal::C(Value::I32(0)))
            .unwrap();
        assert!(sval_eq(b, x));
        // (3 + x) + 4 keeps a single merged Num(7)
        let c = p
            .v_bin(BinOp::Add, Ty::I32, SVal::C(Value::I32(3)), x)
            .unwrap();
        let d = p
            .v_bin(BinOp::Add, Ty::I32, c, SVal::C(Value::I32(4)))
            .unwrap();
        let SVal::T(t) = d else {
            panic!("expected term")
        };
        let Term::Fold { args, .. } = p.term(t) else {
            panic!("expected fold")
        };
        let nums: Vec<_> = args
            .iter()
            .filter(|&&a| matches!(p.term(a), Term::Num(_)))
            .collect();
        assert_eq!(nums.len(), 1);
        // logical-and identity 1 is NOT the bitwise-and neutral: kept.
        let e = p
            .v_bin(BinOp::And, Ty::I32, SVal::C(Value::I32(1)), x)
            .unwrap();
        let SVal::T(t) = e else {
            panic!("expected term")
        };
        let Term::Fold { args, .. } = p.term(t) else {
            panic!("expected fold")
        };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn fold_is_order_insensitive() {
        let mut p = TermPool::new();
        let x = input(&mut p, 0, Ty::I32);
        let y = input(&mut p, 4, Ty::I32);
        let z = input(&mut p, 8, Ty::I32);
        let xy = p.v_bin(BinOp::Add, Ty::I32, x, y).unwrap();
        let xyz = p.v_bin(BinOp::Add, Ty::I32, xy, z).unwrap();
        let zy = p.v_bin(BinOp::Add, Ty::I32, z, y).unwrap();
        let zyx = p.v_bin(BinOp::Add, Ty::I32, zy, x).unwrap();
        assert!(sval_eq(xyz, zyx));
    }

    #[test]
    fn float_fold_keeps_constants_unmerged() {
        let mut p = TermPool::new();
        // 0.1 + 0.2 stays a two-element fold (merging would commit to an
        // association order), and the result is flagged as a float fold.
        let a = p
            .v_bin(
                BinOp::Add,
                Ty::F64,
                SVal::C(Value::F64(0.1)),
                SVal::C(Value::F64(0.2)),
            )
            .unwrap();
        let SVal::T(t) = a else {
            panic!("expected term")
        };
        assert!(matches!(p.term(t), Term::Fold { args, .. } if args.len() == 2));
        assert!(p.has_float_fold(t));
        // +0.0 is dropped, -0.0 is kept.
        let x = input(&mut p, 0, Ty::F64);
        let b = p
            .v_bin(BinOp::Add, Ty::F64, x, SVal::C(Value::F64(0.0)))
            .unwrap();
        assert!(sval_eq(b, x));
        let c = p
            .v_bin(BinOp::Add, Ty::F64, x, SVal::C(Value::F64(-0.0)))
            .unwrap();
        assert!(!sval_eq(c, x));
    }

    #[test]
    fn boolean_normalization_is_idempotent() {
        let mut p = TermPool::new();
        let x = input(&mut p, 0, Ty::I32);
        let norm = |p: &mut TermPool, v: SVal| {
            let z = SVal::C(Value::zero(Ty::I32));
            let c = p.v_cmp(CmpOp::Ne, Ty::I32, v, z).unwrap();
            p.v_sel(c, SVal::C(Value::I32(1)), SVal::C(Value::I32(0)))
                .unwrap()
        };
        let n1 = norm(&mut p, x);
        let n2 = norm(&mut p, n1);
        assert!(sval_eq(n1, n2));
    }

    #[test]
    fn executor_folds_a_two_thread_tree() {
        // 64 threads load in[tid], stage to shared, barrier, then lane 0
        // combines all 64 and stores out[0] — must equal the reference
        // fold(add, {in[0..64]}) built in any order.
        let n = 64u32;
        let mut b = KernelBuilder::new("tree");
        let inp = b.param(0);
        let out = b.param(1);
        let slab = b.alloc_shared(4 * n as usize, 8);
        let tid = b.special(SpecialReg::TidX);
        let t64 = b.cvt(Ty::I64, tid);
        let v = b.ld_global(Ty::I32, MemRef::indexed(inp, t64, 4));
        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), t64, 4), v);
        b.bar();
        let is0 = b.cmp(CmpOp::Eq, Ty::I32, tid, Value::I32(0));
        let done = b.new_label();
        b.bra_unless(is0, done);
        let acc = b.mov_imm(Value::I32(0));
        let i = b.mov_imm(Value::I32(0));
        let head = b.new_label();
        b.place(head);
        let i64r = b.cvt(Ty::I64, i);
        let e = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), i64r, 4));
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, e);
        b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(1));
        let more = b.cmp(CmpOp::Lt, Ty::I32, i, Value::I32(n as i32));
        b.bra_if(more, head);
        b.st_global(Ty::I32, MemRef::direct(out), acc);
        b.place(done);
        let k = b.finish();

        let mut mem = SymMemory::new();
        let rin = mem.alloc("in", 4 * n as u64, Some(Ty::I32), false).unwrap();
        let rout = mem.alloc("out", 4, None, false).unwrap();
        let mut pool = TermPool::new();
        let params = [
            SVal::C(Value::U64(mem.base(rin))),
            SVal::C(Value::U64(mem.base(rout))),
        ];
        let mut steps = 0;
        run_symbolic(
            &k,
            LaunchConfig::d1(1, n),
            &params,
            &mut mem,
            &mut pool,
            &CertConfig::default(),
            &mut steps,
        )
        .unwrap();
        let got = mem.peek(&mut pool, rout, 0, Ty::I32).unwrap().unwrap();
        // Reference: fold the same inputs in a scrambled order.
        let mut expect = SVal::C(Value::I32(0));
        for i in (0..n as u64).rev() {
            let leaf = SVal::T(pool.input(rin, i * 4, Ty::I32));
            expect = pool.v_bin(BinOp::Add, Ty::I32, expect, leaf).unwrap();
        }
        assert!(sval_eq(got, expect), "tree result != reference fold");
        assert_eq!(mem.written_offsets(rout), vec![0]);
    }

    #[test]
    fn executor_poisons_cross_warp_race() {
        // 64 threads all store tid to out[0] with no barrier: lanes in
        // different warps write different values to one cell → the cell
        // is schedule-dependent, so its value must come back poisoned
        // (execution itself continues — a dead race is benign).
        let mut b = KernelBuilder::new("race");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        b.st_global(Ty::I32, MemRef::direct(out), tid);
        let k = b.finish();
        let mut mem = SymMemory::new();
        let r = mem.alloc("out", 4, None, false).unwrap();
        let mut pool = TermPool::new();
        let params = [SVal::C(Value::U64(mem.base(r)))];
        let mut steps = 0;
        run_symbolic(
            &k,
            LaunchConfig::d1(1, 64),
            &params,
            &mut mem,
            &mut pool,
            &CertConfig::default(),
            &mut steps,
        )
        .unwrap();
        let v = mem.peek(&mut pool, r, 0, Ty::I32).unwrap().unwrap();
        let msg = pool.sval_poison(v).expect("racy cell must be poisoned");
        assert!(msg.contains("data race"), "got: {msg}");
    }

    #[test]
    fn executor_rejects_symbolic_branch() {
        let mut b = KernelBuilder::new("symbr");
        let inp = b.param(0);
        let v = b.ld_global(Ty::I32, MemRef::direct(inp));
        let z = b.cmp(CmpOp::Ne, Ty::I32, v, Value::I32(0));
        let l = b.new_label();
        b.bra_if(z, l);
        b.place(l);
        let k = b.finish();
        let mut mem = SymMemory::new();
        let r = mem.alloc("in", 4, Some(Ty::I32), false).unwrap();
        let mut pool = TermPool::new();
        let params = [SVal::C(Value::U64(mem.base(r)))];
        let mut steps = 0;
        let err = run_symbolic(
            &k,
            LaunchConfig::d1(1, 1),
            &params,
            &mut mem,
            &mut pool,
            &CertConfig::default(),
            &mut steps,
        )
        .unwrap_err();
        assert!(err.contains("symbolic branch"), "got: {err}");
    }
}
