//! The reduction vocabulary: the nine operators of the OpenACC
//! `reduction` clause, every source-level fact about each, and the one
//! recognizer of a reduction update's form.
//!
//! Every front-end pass that asks what an operator is reads it here: the
//! parser (the clause spelling), sema (which types an operator admits and
//! which updates spell it), the dataflow and redflow analyses (the same
//! recognizer over the typed HIR, for scalars and for array elements), the
//! region summary (the identity's text) and the testsuite (the operator
//! list). The machine-level facts — identity values, combine opcodes and
//! atomics — are `uhacc-core::types`, one match each.

use crate::ast::{AssignOp, BinOpKind, CType, Expr, ExprKind};
use crate::hir::{HExpr, HExprKind, MathFunc};
use std::fmt;

/// The reduction operators of the OpenACC spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Add,
    Mul,
    Max,
    Min,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
}

impl RedOp {
    /// All nine operators, Table 2 order first.
    pub const ALL: [RedOp; 9] = [
        RedOp::Add,
        RedOp::Mul,
        RedOp::Max,
        RedOp::Min,
        RedOp::BitAnd,
        RedOp::BitOr,
        RedOp::BitXor,
        RedOp::LogAnd,
        RedOp::LogOr,
    ];

    /// The clause spelling of the operator.
    pub fn clause_token(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Max => "max",
            RedOp::Min => "min",
            RedOp::BitAnd => "&",
            RedOp::BitOr => "|",
            RedOp::BitXor => "^",
            RedOp::LogAnd => "&&",
            RedOp::LogOr => "||",
        }
    }

    /// Parse the operator token used in a `reduction(op:var)` clause.
    pub fn from_clause_token(s: &str) -> Option<RedOp> {
        RedOp::ALL.into_iter().find(|op| op.clause_token() == s)
    }

    /// The binary operator that spells `v = v ⊕ e`. `max` and `min` have
    /// none: they are spelled as calls ([`RedOp::of_call`]).
    pub fn bin_op(self) -> Option<BinOpKind> {
        match self {
            RedOp::Add => Some(BinOpKind::Add),
            RedOp::Mul => Some(BinOpKind::Mul),
            RedOp::BitAnd => Some(BinOpKind::BitAnd),
            RedOp::BitOr => Some(BinOpKind::BitOr),
            RedOp::BitXor => Some(BinOpKind::BitXor),
            RedOp::LogAnd => Some(BinOpKind::LogAnd),
            RedOp::LogOr => Some(BinOpKind::LogOr),
            RedOp::Max | RedOp::Min => None,
        }
    }

    /// The operator a binary operator spells, if any.
    pub fn of_bin(op: BinOpKind) -> Option<RedOp> {
        RedOp::ALL.into_iter().find(|r| r.bin_op() == Some(op))
    }

    /// The operator a compound assignment `v ⊕= e` spells, if any.
    pub fn of_assign(op: AssignOp) -> Option<RedOp> {
        op.bin_op().and_then(RedOp::of_bin)
    }

    /// The operator a two-argument intrinsic spells: `fmax`/`max` and
    /// `fmin`/`min`.
    pub fn of_call(func: MathFunc) -> Option<RedOp> {
        match func {
            MathFunc::FMax | MathFunc::IMax => Some(RedOp::Max),
            MathFunc::FMin | MathFunc::IMin => Some(RedOp::Min),
            MathFunc::FAbs | MathFunc::Sqrt | MathFunc::IAbs => None,
        }
    }

    /// True for `&&` and `||`, which combine C truth values: codegen
    /// normalizes each contribution to 0/1 before combining.
    pub fn is_logical(self) -> bool {
        matches!(self, RedOp::LogAnd | RedOp::LogOr)
    }

    /// Can a variable of type `ty` carry this reduction? The bitwise and
    /// logical operators are integer-only.
    pub fn admits(self, ty: CType) -> bool {
        let int_only = matches!(
            self,
            RedOp::BitAnd | RedOp::BitOr | RedOp::BitXor | RedOp::LogAnd | RedOp::LogOr
        );
        !(int_only && ty.is_float())
    }

    /// The identity element at `ty`, as source text: the value codegen
    /// seeds every private accumulator with (`uhacc-core::types::identity`).
    pub fn identity_text(self, ty: CType) -> &'static str {
        let float = ty.is_float();
        match self {
            RedOp::Add | RedOp::BitOr | RedOp::BitXor | RedOp::LogOr if float => "0.0",
            RedOp::Add | RedOp::BitOr | RedOp::BitXor | RedOp::LogOr => "0",
            RedOp::Mul | RedOp::LogAnd if float => "1.0",
            RedOp::Mul | RedOp::LogAnd => "1",
            RedOp::BitAnd => "~0",
            RedOp::Max => match ty {
                CType::Int => "INT_MIN",
                CType::Long => "LONG_MIN",
                CType::Float | CType::Double => "-inf",
            },
            RedOp::Min => match ty {
                CType::Int => "INT_MAX",
                CType::Long => "LONG_MAX",
                CType::Float | CType::Double => "+inf",
            },
        }
    }
}

impl fmt::Display for RedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.clause_token())
    }
}

/// An expression seen as a reduction combine.
pub trait Combine: Sized {
    /// The operator the expression's root spells and its two operands:
    /// `a ⊕ b` for the seven binary spellings, `max(a, b)` or `min(a, b)`
    /// for the calls.
    fn combine(&self) -> Option<(RedOp, [&Self; 2])>;
}

impl Combine for Expr {
    fn combine(&self) -> Option<(RedOp, [&Expr; 2])> {
        match &self.kind {
            ExprKind::Bin { op, lhs, rhs } => Some((RedOp::of_bin(*op)?, [lhs, rhs])),
            ExprKind::Call { name, args } if args.len() == 2 => {
                let op = RedOp::of_call(MathFunc::from_name(name)?)?;
                Some((op, [&args[0], &args[1]]))
            }
            _ => None,
        }
    }
}

impl Combine for HExpr {
    fn combine(&self) -> Option<(RedOp, [&HExpr; 2])> {
        match &self.kind {
            HExprKind::Bin { op, lhs, rhs, .. } => Some((RedOp::of_bin(*op)?, [lhs, rhs])),
            HExprKind::Call { func, args } if args.len() == 2 => {
                Some((RedOp::of_call(*func)?, [&args[0], &args[1]]))
            }
            _ => None,
        }
    }
}

/// The recognizer of a reduction update: `value`, the right-hand side of
/// an assignment to an accumulator, is `v ⊕ e`, `e ⊕ v`, `max(v, e)` or
/// `max(e, v)` (likewise `min`), where `own` says an operand is the
/// accumulator `v` itself and `clean` says the other operand `e` may be
/// contributed. Returns the operator and `e`.
///
/// Sema recognizes clause updates with it on the source tree; the
/// dataflow and redflow analyses recognize clause-less scalar and array
/// updates on the typed HIR, where `clean` demands that `e` does not read
/// the accumulator again.
pub fn update_form<E: Combine>(
    value: &E,
    own: impl Fn(&E) -> bool,
    clean: impl Fn(&E) -> bool,
) -> Option<(RedOp, &E)> {
    let (op, [a, b]) = value.combine()?;
    [(a, b), (b, a)]
        .into_iter()
        .find(|&(v, e)| own(v) && clean(e))
        .map(|(_, e)| (op, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spelling_round_trips() {
        for op in RedOp::ALL {
            assert_eq!(RedOp::from_clause_token(op.clause_token()), Some(op));
            if let Some(b) = op.bin_op() {
                assert_eq!(RedOp::of_bin(b), Some(op));
            }
        }
        assert_eq!(RedOp::from_clause_token("-"), None);
        assert_eq!(RedOp::of_bin(BinOpKind::Sub), None);
        assert_eq!(RedOp::of_assign(AssignOp::Xor), Some(RedOp::BitXor));
        assert_eq!(RedOp::of_assign(AssignOp::Sub), None);
        assert_eq!(RedOp::of_assign(AssignOp::Assign), None);
        assert_eq!(RedOp::of_call(MathFunc::IMin), Some(RedOp::Min));
        assert_eq!(RedOp::of_call(MathFunc::Sqrt), None);
    }

    #[test]
    fn bitwise_and_logical_operators_are_integer_only() {
        assert!(!RedOp::BitAnd.admits(CType::Float));
        assert!(!RedOp::LogOr.admits(CType::Double));
        assert!(RedOp::Max.admits(CType::Float));
        assert!(RedOp::BitXor.admits(CType::Long));
    }

    #[test]
    fn identity_table() {
        assert_eq!(RedOp::Add.identity_text(CType::Int), "0");
        assert_eq!(RedOp::Add.identity_text(CType::Double), "0.0");
        assert_eq!(RedOp::Mul.identity_text(CType::Float), "1.0");
        assert_eq!(RedOp::Max.identity_text(CType::Double), "-inf");
        assert_eq!(RedOp::Max.identity_text(CType::Int), "INT_MIN");
        assert_eq!(RedOp::Max.identity_text(CType::Long), "LONG_MIN");
        assert_eq!(RedOp::Min.identity_text(CType::Long), "LONG_MAX");
        assert_eq!(RedOp::BitAnd.identity_text(CType::Int), "~0");
        assert_eq!(RedOp::LogAnd.identity_text(CType::Int), "1");
    }

    /// The right-hand side of the update statement `v = <rhs>;`.
    fn rhs(stmt: &str) -> Expr {
        let src = format!("int N; int v; int w;\n{stmt}\n#pragma acc parallel\n{{\n}}\n");
        let prog = crate::parser::parse_program(&src).expect("parse");
        match &prog.decls[3].kind {
            crate::ast::StmtKind::Assign { rhs, .. } => rhs.clone(),
            other => panic!("not an assignment: {other:?}"),
        }
    }

    #[test]
    fn the_recognizer_reads_both_operand_orders() {
        let is_v = |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if n == "v");
        let any = |_: &Expr| true;
        for (stmt, op) in [
            ("v = v + w;", RedOp::Add),
            ("v = w * v;", RedOp::Mul),
            ("v = max(v, w);", RedOp::Max),
            ("v = fmin(w, v);", RedOp::Min),
            ("v = v && w;", RedOp::LogAnd),
        ] {
            let e = rhs(stmt);
            let (got, operand) = update_form(&e, is_v, any).expect(stmt);
            assert_eq!(got, op, "{stmt}");
            assert!(
                matches!(&operand.kind, ExprKind::Ident(n) if n == "w"),
                "{stmt}"
            );
        }
        for stmt in ["v = v - w;", "v = w + w;", "v = sqrt(v);", "v = w;"] {
            assert!(update_form(&rhs(stmt), is_v, any).is_none(), "{stmt}");
        }
        // `clean` vetoes an operand that reads the accumulator again.
        let e = rhs("v = v + v;");
        assert!(update_form(&e, is_v, |e: &Expr| !is_v(e)).is_none());
    }
}
