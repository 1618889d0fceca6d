//! Scalar types and dynamically typed values used by the kernel IR interpreter.
//!
//! The simulator is a register machine: every virtual register holds a
//! [`Value`], and every arithmetic instruction is annotated with the [`Ty`]
//! it operates at, mirroring PTX's typed instructions (`add.s32`,
//! `mul.f64`, ...). Conversions are explicit ([`Value::convert`]).

use std::fmt;

/// Scalar machine types supported by the simulated device.
///
/// `I32`/`I64` are the C `int`/`long` of the paper's testsuite, `F32`/`F64`
/// its `float`/`double`. `U64` is the pointer/byte-address type. `Pred` is a
/// 1-bit predicate register as produced by comparison instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    I32,
    I64,
    F32,
    F64,
    U64,
    Pred,
}

impl Ty {
    /// Size of the type in bytes when stored to memory.
    pub fn size(self) -> usize {
        match self {
            Ty::I32 | Ty::F32 => 4,
            Ty::I64 | Ty::F64 | Ty::U64 => 8,
            Ty::Pred => 1,
        }
    }

    /// True for the two IEEE-754 floating point types.
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// True for the integer types (including the address type).
    pub fn is_int(self) -> bool {
        matches!(self, Ty::I32 | Ty::I64 | Ty::U64)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I32 => "s32",
            Ty::I64 => "s64",
            Ty::F32 => "f32",
            Ty::F64 => "f64",
            Ty::U64 => "u64",
            Ty::Pred => "pred",
        };
        f.write_str(s)
    }
}

/// Canonicalize an `f32` ALU result: any NaN becomes the canonical quiet
/// NaN `0x7fc00000`.
///
/// GPU float units do not propagate NaN payloads — PTX specifies that
/// operations producing a NaN return a single canonical quiet NaN — and
/// the simulator must not either: host codegen is free to commute a
/// two-NaN `a + b` (x86 `addss` returns the *first* operand's payload),
/// so payload propagation would make results depend on which execution
/// tier's machine code the optimizer happened to emit.
///
/// The test is on the bit pattern, not `x.is_nan()`: in the float domain
/// the optimizer treats NaNs as interchangeable and folds
/// `if x.is_nan() { CANONICAL } else { x }` to `x` (observed: release
/// builds kept `sqrt(-1.0)`'s sign bit, `0xffc00000`).
#[inline(always)]
pub(crate) fn canon_f32(x: f32) -> f32 {
    let b = x.to_bits();
    f32::from_bits(if b & 0x7fff_ffff > 0x7f80_0000 {
        0x7fc0_0000
    } else {
        b
    })
}

/// `f64` counterpart of [`canon_f32`]: NaN results become `0x7ff8…0`.
#[inline(always)]
pub(crate) fn canon_f64(x: f64) -> f64 {
    let b = x.to_bits();
    f64::from_bits(if b & (u64::MAX >> 1) > 0x7ff0_0000_0000_0000 {
        0x7ff8_0000_0000_0000
    } else {
        b
    })
}

/// What a round trip through `f64` does to an `f32`: nothing, except that
/// a signalling NaN comes back quiet (payload and sign kept). Decided on
/// the bit pattern because the optimizer folds a literal
/// `x as f64 as f32` to `x`, signalling NaNs included; both engines'
/// `F32` -> `F32` conversion is this function.
#[inline(always)]
pub fn quiet_f32(x: f32) -> f32 {
    let b = x.to_bits();
    f32::from_bits(if b & 0x7fff_ffff > 0x7f80_0000 {
        b | 0x0040_0000
    } else {
        b
    })
}

/// A dynamically typed scalar value held in a virtual register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    U64(u64),
    Pred(bool),
}

impl Value {
    /// The type tag of this value.
    pub fn ty(self) -> Ty {
        match self {
            Value::I32(_) => Ty::I32,
            Value::I64(_) => Ty::I64,
            Value::F32(_) => Ty::F32,
            Value::F64(_) => Ty::F64,
            Value::U64(_) => Ty::U64,
            Value::Pred(_) => Ty::Pred,
        }
    }

    /// The zero value of `ty`.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::I32 => Value::I32(0),
            Ty::I64 => Value::I64(0),
            Ty::F32 => Value::F32(0.0),
            Ty::F64 => Value::F64(0.0),
            Ty::U64 => Value::U64(0),
            Ty::Pred => Value::Pred(false),
        }
    }

    /// Interpret the value as `i64`, the common integer domain used by
    /// address and index arithmetic. Predicates map to 0/1; floats truncate.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I32(v) => v as i64,
            Value::I64(v) => v,
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
            Value::U64(v) => v as i64,
            Value::Pred(v) => v as i64,
        }
    }

    /// Interpret the value as `u64` (byte address domain).
    pub fn as_u64(self) -> u64 {
        match self {
            Value::U64(v) => v,
            other => other.as_i64() as u64,
        }
    }

    /// Interpret the value as `f64` (widest float domain).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::U64(v) => v as f64,
            Value::Pred(v) => v as u8 as f64,
        }
    }

    /// Interpret the value as a predicate. Non-zero is true, matching C.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Pred(v) => v,
            Value::I32(v) => v != 0,
            Value::I64(v) => v != 0,
            Value::U64(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
        }
    }

    /// Convert the value to `ty` with C-like conversion semantics
    /// (truncation for float->int, wrapping for narrowing int casts).
    pub fn convert(self, ty: Ty) -> Value {
        match ty {
            Ty::I32 => Value::I32(match self {
                Value::F32(v) => v as i32,
                Value::F64(v) => v as i32,
                other => other.as_i64() as i32,
            }),
            Ty::I64 => Value::I64(match self {
                Value::F32(v) => v as i64,
                Value::F64(v) => v as i64,
                other => other.as_i64(),
            }),
            Ty::F32 => Value::F32(match self {
                // `as_f64() as f32` of an `F32`, with its one effect
                // spelled out instead of left to the optimizer's mercy.
                Value::F32(v) => quiet_f32(v),
                other => other.as_f64() as f32,
            }),
            Ty::F64 => Value::F64(self.as_f64()),
            Ty::U64 => Value::U64(self.as_u64()),
            Ty::Pred => Value::Pred(self.as_bool()),
        }
    }

    /// Encode the value to little-endian bytes for a memory store.
    ///
    /// The returned buffer has exactly `self.ty().size()` bytes.
    pub fn to_bytes(self) -> ([u8; 8], usize) {
        let mut buf = [0u8; 8];
        let n = self.ty().size();
        match self {
            Value::I32(v) => buf[..4].copy_from_slice(&v.to_le_bytes()),
            Value::F32(v) => buf[..4].copy_from_slice(&v.to_le_bytes()),
            Value::I64(v) => buf[..8].copy_from_slice(&v.to_le_bytes()),
            Value::F64(v) => buf[..8].copy_from_slice(&v.to_le_bytes()),
            Value::U64(v) => buf[..8].copy_from_slice(&v.to_le_bytes()),
            Value::Pred(v) => buf[0] = v as u8,
        }
        (buf, n)
    }

    /// Decode a value of type `ty` from little-endian bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than `ty.size()`.
    pub fn from_bytes(ty: Ty, bytes: &[u8]) -> Value {
        match ty {
            Ty::I32 => Value::I32(i32::from_le_bytes(bytes[..4].try_into().unwrap())),
            Ty::F32 => Value::F32(f32::from_le_bytes(bytes[..4].try_into().unwrap())),
            Ty::I64 => Value::I64(i64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Ty::F64 => Value::F64(f64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Ty::U64 => Value::U64(u64::from_le_bytes(bytes[..8].try_into().unwrap())),
            Ty::Pred => Value::Pred(bytes[0] != 0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v:#x}"),
            Value::Pred(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_sizes() {
        assert_eq!(Ty::I32.size(), 4);
        assert_eq!(Ty::F32.size(), 4);
        assert_eq!(Ty::I64.size(), 8);
        assert_eq!(Ty::F64.size(), 8);
        assert_eq!(Ty::U64.size(), 8);
        assert_eq!(Ty::Pred.size(), 1);
    }

    #[test]
    fn ty_class_predicates() {
        assert!(Ty::F32.is_float());
        assert!(Ty::F64.is_float());
        assert!(!Ty::I32.is_float());
        assert!(Ty::I32.is_int());
        assert!(Ty::U64.is_int());
        assert!(!Ty::F64.is_int());
        assert!(!Ty::Pred.is_int());
    }

    #[test]
    fn value_roundtrip_bytes() {
        let cases = [
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::F32(3.5),
            Value::F64(-2.25e100),
            Value::U64(0xdead_beef),
            Value::Pred(true),
        ];
        for v in cases {
            let (buf, n) = v.to_bytes();
            assert_eq!(n, v.ty().size());
            assert_eq!(Value::from_bytes(v.ty(), &buf[..n]), v);
        }
    }

    #[test]
    fn value_convert_c_semantics() {
        assert_eq!(Value::F64(3.9).convert(Ty::I32), Value::I32(3));
        assert_eq!(Value::F64(-3.9).convert(Ty::I32), Value::I32(-3));
        assert_eq!(Value::I32(-1).convert(Ty::I64), Value::I64(-1));
        assert_eq!(
            Value::I64(i64::from(u32::MAX) + 1).convert(Ty::I32),
            Value::I32(0)
        );
        assert_eq!(Value::I32(5).convert(Ty::F64), Value::F64(5.0));
        assert_eq!(Value::I32(0).convert(Ty::Pred), Value::Pred(false));
        assert_eq!(Value::F32(0.5).convert(Ty::Pred), Value::Pred(true));
    }

    #[test]
    fn value_as_bool_is_c_truthiness() {
        assert!(Value::I32(-3).as_bool());
        assert!(!Value::F64(0.0).as_bool());
        assert!(Value::U64(1).as_bool());
    }
}
