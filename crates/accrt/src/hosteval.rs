//! Host-side evaluation of HIR expressions (array dimensions, launch
//! clauses, host assignments). Mirrors the kernel's arithmetic semantics
//! exactly, so host-computed bounds agree with device-computed bounds.

use crate::error::AccError;
use accparse::ast::{BinOpKind, UnOpKind};
use accparse::hir::{HExpr, HExprKind, MathFunc, Sym};
use gpsim::{eval_bin, eval_cmp, eval_un, BinOp, CmpOp, Ty, UnOp, Value};
use uhacc_core::types::machine_ty;

/// Evaluate a host expression against the current scalar values.
///
/// Only `Sym::Host` references are legal (sema guarantees this for host
/// contexts); anything else is reported as a binding error.
pub fn eval_host_expr(e: &HExpr, scalars: &[Value]) -> Result<Value, AccError> {
    let ty = machine_ty(e.ty);
    Ok(match &e.kind {
        HExprKind::Int(v) => match ty {
            Ty::I64 => Value::I64(*v),
            _ => Value::I32(*v as i32),
        },
        HExprKind::Float(v) => match ty {
            Ty::F32 => Value::F32(*v as f32),
            _ => Value::F64(*v),
        },
        HExprKind::Sym(Sym::Host(i)) => scalars
            .get(*i)
            .copied()
            .ok_or_else(|| AccError::Binding(format!("host scalar #{i} out of range")))?,
        HExprKind::Sym(Sym::Local(_)) | HExprKind::Load { .. } => {
            return Err(AccError::Binding(
                "host expression references kernel-only state".into(),
            ))
        }
        HExprKind::Un { op, operand } => {
            let v = eval_host_expr(operand, scalars)?;
            match op {
                UnOpKind::Neg => eval_un(UnOp::Neg, ty, v)?,
                UnOpKind::BitNot => eval_un(UnOp::Not, ty, v)?,
                UnOpKind::Not => Value::I32(if v.as_bool() { 0 } else { 1 }),
            }
        }
        HExprKind::Bin {
            op,
            cmp_ty,
            lhs,
            rhs,
        } => {
            let a = eval_host_expr(lhs, scalars)?;
            let b = eval_host_expr(rhs, scalars)?;
            match op {
                BinOpKind::Add => eval_bin(BinOp::Add, ty, a, b)?,
                BinOpKind::Sub => eval_bin(BinOp::Sub, ty, a, b)?,
                BinOpKind::Mul => eval_bin(BinOp::Mul, ty, a, b)?,
                BinOpKind::Div => eval_bin(BinOp::Div, ty, a, b)?,
                BinOpKind::Rem => eval_bin(BinOp::Rem, ty, a, b)?,
                BinOpKind::Shl => eval_bin(BinOp::Shl, ty, a, b)?,
                BinOpKind::Shr => eval_bin(BinOp::Shr, ty, a, b)?,
                BinOpKind::BitAnd => eval_bin(BinOp::And, ty, a, b)?,
                BinOpKind::BitOr => eval_bin(BinOp::Or, ty, a, b)?,
                BinOpKind::BitXor => eval_bin(BinOp::Xor, ty, a, b)?,
                BinOpKind::Lt
                | BinOpKind::Le
                | BinOpKind::Gt
                | BinOpKind::Ge
                | BinOpKind::Eq
                | BinOpKind::Ne => {
                    let cop = match op {
                        BinOpKind::Lt => CmpOp::Lt,
                        BinOpKind::Le => CmpOp::Le,
                        BinOpKind::Gt => CmpOp::Gt,
                        BinOpKind::Ge => CmpOp::Ge,
                        BinOpKind::Eq => CmpOp::Eq,
                        _ => CmpOp::Ne,
                    };
                    let r = eval_cmp(cop, machine_ty(*cmp_ty), a, b);
                    Value::I32(r as i32)
                }
                BinOpKind::LogAnd => Value::I32((a.as_bool() && b.as_bool()) as i32),
                BinOpKind::LogOr => Value::I32((a.as_bool() || b.as_bool()) as i32),
            }
        }
        HExprKind::Cond { cond, then, els } => {
            let c = eval_host_expr(cond, scalars)?;
            if c.as_bool() {
                eval_host_expr(then, scalars)?.convert(ty)
            } else {
                eval_host_expr(els, scalars)?.convert(ty)
            }
        }
        HExprKind::Call { func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_host_expr(a, scalars))
                .collect::<Result<_, _>>()?;
            match func {
                MathFunc::FMax | MathFunc::IMax => eval_bin(BinOp::Max, ty, vals[0], vals[1])?,
                MathFunc::FMin | MathFunc::IMin => eval_bin(BinOp::Min, ty, vals[0], vals[1])?,
                MathFunc::FAbs | MathFunc::IAbs => eval_un(UnOp::Abs, ty, vals[0])?,
                MathFunc::Sqrt => eval_un(UnOp::Sqrt, ty, vals[0])?,
            }
        }
        HExprKind::Cast { operand } => eval_host_expr(operand, scalars)?.convert(ty),
    })
}

/// Evaluate a host expression to a positive integer (array dims, launch
/// clauses).
pub fn eval_host_extent(e: &HExpr, scalars: &[Value], what: &str) -> Result<u64, AccError> {
    let v = eval_host_expr(e, scalars)?;
    let n = v.as_i64();
    if n <= 0 {
        return Err(AccError::Binding(format!(
            "{what} must be positive, got {n}"
        )));
    }
    Ok(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accparse::ast::CType;
    use accparse::diag::Span;

    fn int(v: i64) -> HExpr {
        HExpr {
            ty: CType::Int,
            kind: HExprKind::Int(v),
            span: Span::default(),
        }
    }

    fn host(i: usize, ty: CType) -> HExpr {
        HExpr {
            ty,
            kind: HExprKind::Sym(Sym::Host(i)),
            span: Span::default(),
        }
    }

    fn bin(op: BinOpKind, l: HExpr, r: HExpr, ty: CType) -> HExpr {
        HExpr {
            ty,
            kind: HExprKind::Bin {
                op,
                cmp_ty: CType::promote(l.ty, r.ty),
                lhs: Box::new(l),
                rhs: Box::new(r),
            },
            span: Span::default(),
        }
    }

    #[test]
    fn arithmetic_and_refs() {
        let scalars = vec![Value::I32(6), Value::F64(1.5)];
        let e = bin(BinOpKind::Mul, host(0, CType::Int), int(7), CType::Int);
        assert_eq!(eval_host_expr(&e, &scalars).unwrap(), Value::I32(42));
        let e = bin(
            BinOpKind::Add,
            host(1, CType::Double),
            int(1),
            CType::Double,
        );
        assert_eq!(eval_host_expr(&e, &scalars).unwrap(), Value::F64(2.5));
    }

    #[test]
    fn comparisons_yield_c_ints() {
        let scalars = vec![Value::I32(6)];
        let e = bin(BinOpKind::Lt, host(0, CType::Int), int(10), CType::Int);
        assert_eq!(eval_host_expr(&e, &scalars).unwrap(), Value::I32(1));
    }

    #[test]
    fn extent_validation() {
        let scalars = vec![Value::I32(0)];
        assert!(eval_host_extent(&host(0, CType::Int), &scalars, "dim").is_err());
        assert_eq!(eval_host_extent(&int(5), &scalars, "dim").unwrap(), 5);
    }
}
