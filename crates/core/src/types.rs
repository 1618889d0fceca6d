//! The machine side of the reduction vocabulary, shared by compiler and
//! runtime: each operator's identity value, combine opcode and atomic.
//! The source-level facts (spelling, admitted types, identity text, the
//! update recognizer) are `accparse::reduction`.

use accparse::ast::{CType, RedOp};
use gpsim::{eval_bin, BinOp, Ty, Value};

/// Map a C type to the simulator machine type.
pub fn machine_ty(ct: CType) -> Ty {
    match ct {
        CType::Int => Ty::I32,
        CType::Long => Ty::I64,
        CType::Float => Ty::F32,
        CType::Double => Ty::F64,
    }
}

/// The identity element of a reduction operator at a given type, i.e. the
/// initial value of every thread's private partial accumulator.
pub fn identity(op: RedOp, ct: CType) -> Value {
    let ty = machine_ty(ct);
    match op {
        RedOp::Add | RedOp::BitOr | RedOp::BitXor | RedOp::LogOr => Value::zero(ty),
        RedOp::Mul => one(ty),
        RedOp::LogAnd => one(ty),
        RedOp::BitAnd => match ty {
            Ty::I32 => Value::I32(-1),
            Ty::I64 => Value::I64(-1),
            // Bitwise ops are rejected on floats by sema; unreachable here,
            // but a total function is easier to test.
            _ => Value::zero(ty),
        },
        RedOp::Max => match ty {
            Ty::I32 => Value::I32(i32::MIN),
            Ty::I64 => Value::I64(i64::MIN),
            Ty::F32 => Value::F32(f32::NEG_INFINITY),
            Ty::F64 => Value::F64(f64::NEG_INFINITY),
            _ => Value::zero(ty),
        },
        RedOp::Min => match ty {
            Ty::I32 => Value::I32(i32::MAX),
            Ty::I64 => Value::I64(i64::MAX),
            Ty::F32 => Value::F32(f32::INFINITY),
            Ty::F64 => Value::F64(f64::INFINITY),
            _ => Value::zero(ty),
        },
    }
}

fn one(ty: Ty) -> Value {
    match ty {
        Ty::I32 => Value::I32(1),
        Ty::I64 => Value::I64(1),
        Ty::F32 => Value::F32(1.0),
        Ty::F64 => Value::F64(1.0),
        _ => Value::U64(1),
    }
}

/// The simulator binary opcode that combines two partial values for `op`.
///
/// Logical and/or are performed on C truth values (0/1) with the bitwise
/// opcode, which is correct because reduction inputs are normalized to 0/1
/// by the update expression codegen.
pub fn combine_binop(op: RedOp) -> BinOp {
    match op {
        RedOp::Add => BinOp::Add,
        RedOp::Mul => BinOp::Mul,
        RedOp::Max => BinOp::Max,
        RedOp::Min => BinOp::Min,
        RedOp::BitAnd | RedOp::LogAnd => BinOp::And,
        RedOp::BitOr | RedOp::LogOr => BinOp::Or,
        RedOp::BitXor => BinOp::Xor,
    }
}

/// The global atomic opcode implementing `op`, when the hardware has one
/// (there is no atomic multiply; logical and/or reduce over normalized 0/1
/// values with the bitwise atomics).
pub fn atomic_op(op: RedOp) -> Option<gpsim::AtomOp> {
    use gpsim::AtomOp;
    match op {
        RedOp::Add => Some(AtomOp::Add),
        RedOp::Max => Some(AtomOp::Max),
        RedOp::Min => Some(AtomOp::Min),
        RedOp::BitAnd | RedOp::LogAnd => Some(AtomOp::And),
        RedOp::BitOr | RedOp::LogOr => Some(AtomOp::Or),
        RedOp::BitXor => Some(AtomOp::Xor),
        RedOp::Mul => None,
    }
}

/// Host-side application of a reduction operator (used by the runtime to
/// fold a kernel result into the host scalar's initial value, and by the
/// CPU reference executor).
pub fn apply_host(op: RedOp, ct: CType, a: Value, b: Value) -> Value {
    let ty = machine_ty(ct);
    if op.is_logical() {
        let r = match op {
            RedOp::LogAnd => a.as_bool() && b.as_bool(),
            _ => a.as_bool() || b.as_bool(),
        };
        return if r { one(ty) } else { Value::zero(ty) };
    }
    eval_bin(combine_binop(op), ty, a, b).expect("reduction ops are total on valid types")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_are_identities() {
        let cases = [
            (RedOp::Add, CType::Int, Value::I32(7)),
            (RedOp::Mul, CType::Int, Value::I32(7)),
            (RedOp::Add, CType::Double, Value::F64(1.25)),
            (RedOp::Mul, CType::Float, Value::F32(3.0)),
            (RedOp::Max, CType::Int, Value::I32(-5)),
            (RedOp::Min, CType::Int, Value::I32(5)),
            (RedOp::Max, CType::Double, Value::F64(-1e300)),
            (RedOp::Min, CType::Float, Value::F32(1e30)),
            (RedOp::BitAnd, CType::Int, Value::I32(0x55)),
            (RedOp::BitOr, CType::Int, Value::I32(0x55)),
            (RedOp::BitXor, CType::Int, Value::I32(0x55)),
        ];
        for (op, ct, v) in cases {
            let id = identity(op, ct);
            let r = apply_host(op, ct, id, v);
            assert_eq!(r, v, "{op:?} identity at {ct}");
            let r2 = apply_host(op, ct, v, id);
            assert_eq!(r2, v, "{op:?} identity (commuted) at {ct}");
        }
    }

    #[test]
    fn logical_identities() {
        // LogAnd identity = true(1), LogOr identity = false(0), results 0/1.
        assert_eq!(
            apply_host(
                RedOp::LogAnd,
                CType::Int,
                identity(RedOp::LogAnd, CType::Int),
                Value::I32(5)
            ),
            Value::I32(1)
        );
        assert_eq!(
            apply_host(
                RedOp::LogAnd,
                CType::Int,
                identity(RedOp::LogAnd, CType::Int),
                Value::I32(0)
            ),
            Value::I32(0)
        );
        assert_eq!(
            apply_host(
                RedOp::LogOr,
                CType::Int,
                identity(RedOp::LogOr, CType::Int),
                Value::I32(0)
            ),
            Value::I32(0)
        );
        assert_eq!(
            apply_host(
                RedOp::LogOr,
                CType::Int,
                identity(RedOp::LogOr, CType::Int),
                Value::I32(9)
            ),
            Value::I32(1)
        );
    }

    #[test]
    fn machine_ty_mapping() {
        assert_eq!(machine_ty(CType::Int), Ty::I32);
        assert_eq!(machine_ty(CType::Long), Ty::I64);
        assert_eq!(machine_ty(CType::Float), Ty::F32);
        assert_eq!(machine_ty(CType::Double), Ty::F64);
    }

    #[test]
    fn apply_host_combines() {
        assert_eq!(
            apply_host(RedOp::Add, CType::Int, Value::I32(2), Value::I32(3)),
            Value::I32(5)
        );
        assert_eq!(
            apply_host(RedOp::Mul, CType::Double, Value::F64(2.0), Value::F64(3.0)),
            Value::F64(6.0)
        );
        assert_eq!(
            apply_host(RedOp::Max, CType::Float, Value::F32(2.0), Value::F32(3.0)),
            Value::F32(3.0)
        );
        assert_eq!(
            apply_host(RedOp::BitXor, CType::Int, Value::I32(6), Value::I32(3)),
            Value::I32(5)
        );
    }
}
