//! Expression code generation.
//!
//! Values live in registers typed by the HIR node's C type. The simulator
//! converts operands to the instruction type implicitly (like PTX's typed
//! instructions), so separate `cvt`s are only emitted where the *register*
//! must carry a converted value (HIR `Cast` nodes, which sema inserts at
//! every implicit conversion point).

use super::RegionCodegen;
use crate::types::machine_ty;
use accparse::ast::{BinOpKind, CType, UnOpKind};
use accparse::diag::Diag;
use accparse::hir::{HExpr, HExprKind, MathFunc};
use gpsim::{BinOp, CmpOp, MemRef, Reg, Ty, UnOp, Value};

impl<'a> RegionCodegen<'a> {
    /// Emit `e`, returning a register holding its value at
    /// `machine_ty(e.ty)`.
    pub fn expr(&mut self, e: &HExpr) -> Result<Reg, Diag> {
        let ty = machine_ty(e.ty);
        Ok(match &e.kind {
            HExprKind::Int(v) => self.b.mov_imm(int_literal(*v, ty)),
            HExprKind::Float(v) => self.b.mov_imm(float_literal(*v, ty)),
            HExprKind::Sym(s) => self.sym_reg(*s),
            HExprKind::Load { array, indices } => {
                let off = self.element_offset(*array, indices)?;
                let ety = machine_ty(self.prog.arrays[*array].ty);
                let base = self.array_base[array];
                self.b
                    .ld_global(ety, MemRef::indexed(base, off, ety.size() as u64))
            }
            HExprKind::Un { op, operand } => {
                let v = self.expr(operand)?;
                match classify_un(*op) {
                    UnClass::Op(uop) => self.b.un(uop, ty, v),
                    UnClass::LogNot => {
                        let oty = machine_ty(operand.ty);
                        let p = self.b.cmp(CmpOp::Eq, oty, v, Value::zero(oty));
                        self.b.select(p, Value::I32(1), Value::I32(0))
                    }
                }
            }
            HExprKind::Bin {
                op,
                cmp_ty,
                lhs,
                rhs,
            } => {
                match classify(*op) {
                    OpClass::Arith(bop) => {
                        let a = self.expr(lhs)?;
                        let b = self.expr(rhs)?;
                        self.b.bin(bop, ty, a, b)
                    }
                    OpClass::Cmp(cop) => {
                        let a = self.expr(lhs)?;
                        let b = self.expr(rhs)?;
                        let p = self.b.cmp(cop, machine_ty(*cmp_ty), a, b);
                        self.b.select(p, Value::I32(1), Value::I32(0))
                    }
                    OpClass::Logic(and) => {
                        // Non-short-circuit evaluation (kernel expressions
                        // are side-effect free).
                        let pa = self.expr_pred(lhs)?;
                        let pb = self.expr_pred(rhs)?;
                        let op = if and { BinOp::And } else { BinOp::Or };
                        let p = self.b.bin(op, Ty::Pred, pa, pb);
                        self.b.select(p, Value::I32(1), Value::I32(0))
                    }
                }
            }
            HExprKind::Cond { cond, then, els } => {
                let p = self.expr_pred(cond)?;
                let a = self.expr(then)?;
                let a = self.convert_if_needed(a, then.ty, e.ty);
                let b = self.expr(els)?;
                let b = self.convert_if_needed(b, els.ty, e.ty);
                self.b.select(p, a, b)
            }
            HExprKind::Call { func, args } => {
                let regs: Vec<Reg> = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                match intrinsic(*func) {
                    Intrinsic::Bin(bop) => self.b.bin(bop, ty, regs[0], regs[1]),
                    Intrinsic::Un(uop) => self.b.un(uop, ty, regs[0]),
                }
            }
            HExprKind::Cast { operand } => {
                let v = self.expr(operand)?;
                self.b.cvt(ty, v)
            }
        })
    }

    /// Emit `e` as a predicate register (for branches), with the
    /// comparison fast path that avoids materializing 0/1 integers.
    pub fn expr_pred(&mut self, e: &HExpr) -> Result<Reg, Diag> {
        match &e.kind {
            HExprKind::Bin {
                op,
                cmp_ty,
                lhs,
                rhs,
            } => match classify(*op) {
                OpClass::Cmp(cop) => {
                    let a = self.expr(lhs)?;
                    let b = self.expr(rhs)?;
                    Ok(self.b.cmp(cop, machine_ty(*cmp_ty), a, b))
                }
                OpClass::Logic(and) => {
                    let pa = self.expr_pred(lhs)?;
                    let pb = self.expr_pred(rhs)?;
                    let op = if and { BinOp::And } else { BinOp::Or };
                    Ok(self.b.bin(op, Ty::Pred, pa, pb))
                }
                OpClass::Arith(_) => self.value_nonzero(e),
            },
            HExprKind::Un {
                op: UnOpKind::Not,
                operand,
            } => {
                let p = self.expr_pred(operand)?;
                Ok(self.b.un(UnOp::Not, Ty::Pred, p))
            }
            _ => self.value_nonzero(e),
        }
    }

    fn value_nonzero(&mut self, e: &HExpr) -> Result<Reg, Diag> {
        let v = self.expr(e)?;
        let ty = machine_ty(e.ty);
        Ok(self.b.cmp(CmpOp::Ne, ty, v, Value::zero(ty)))
    }

    /// Emit a conversion when the source C type differs from the target.
    pub fn convert_if_needed(&mut self, v: Reg, from: CType, to: CType) -> Reg {
        if from == to {
            v
        } else {
            self.b.cvt(machine_ty(to), v)
        }
    }

    /// Evaluate `e`, or produce `default` when the active-iteration guard
    /// is off (used for loop bounds inside padded loops, where inactive
    /// threads must not evaluate expressions that may load out of bounds).
    pub fn expr_or_default(&mut self, e: &HExpr, default: Value) -> Result<Reg, Diag> {
        match self.active {
            None => self.expr(e),
            Some(p) => {
                let out = self.b.mov_imm(default);
                let skip = self.b.new_label();
                self.b.bra_unless(p, skip);
                let v = self.expr(e)?;
                self.b.mov_to(out, v);
                self.b.place(skip);
                Ok(out)
            }
        }
    }
}

// The lowering table, shared by codegen and the reference interpreter of
// `crate::cert`: both sides must agree on how a literal, an operator and
// an intrinsic become machine values and ops. The runtime's host side
// (`accrt::host`) states the same semantics on its own, because kernels
// are checked against it.

/// The machine value of an integer literal of machine type `ty`.
pub(crate) fn int_literal(v: i64, ty: Ty) -> Value {
    match ty {
        Ty::I64 => Value::I64(v),
        _ => Value::I32(v as i32),
    }
}

/// The machine value of a floating literal of machine type `ty`.
pub(crate) fn float_literal(v: f64, ty: Ty) -> Value {
    match ty {
        Ty::F32 => Value::F32(v as f32),
        _ => Value::F64(v),
    }
}

/// How a unary operator lowers: one machine op at the expression's type,
/// or C's `!` (compare the operand with zero, select 1 or 0).
pub(crate) enum UnClass {
    Op(UnOp),
    LogNot,
}

pub(crate) fn classify_un(op: UnOpKind) -> UnClass {
    match op {
        UnOpKind::Neg => UnClass::Op(UnOp::Neg),
        UnOpKind::BitNot => UnClass::Op(UnOp::Not),
        UnOpKind::Not => UnClass::LogNot,
    }
}

/// How a math intrinsic lowers: one binary or unary machine op at the
/// call's type.
pub(crate) enum Intrinsic {
    Bin(BinOp),
    Un(UnOp),
}

pub(crate) fn intrinsic(f: MathFunc) -> Intrinsic {
    match f {
        MathFunc::FMax | MathFunc::IMax => Intrinsic::Bin(BinOp::Max),
        MathFunc::FMin | MathFunc::IMin => Intrinsic::Bin(BinOp::Min),
        MathFunc::FAbs | MathFunc::IAbs => Intrinsic::Un(UnOp::Abs),
        MathFunc::Sqrt => Intrinsic::Un(UnOp::Sqrt),
    }
}

/// Binary-operator classification: which ops are arithmetic,
/// comparisons, or (non-short-circuit) logic.
pub(crate) enum OpClass {
    Arith(BinOp),
    Cmp(CmpOp),
    Logic(bool),
}

pub(crate) fn classify(op: BinOpKind) -> OpClass {
    match op {
        BinOpKind::Add => OpClass::Arith(BinOp::Add),
        BinOpKind::Sub => OpClass::Arith(BinOp::Sub),
        BinOpKind::Mul => OpClass::Arith(BinOp::Mul),
        BinOpKind::Div => OpClass::Arith(BinOp::Div),
        BinOpKind::Rem => OpClass::Arith(BinOp::Rem),
        BinOpKind::Shl => OpClass::Arith(BinOp::Shl),
        BinOpKind::Shr => OpClass::Arith(BinOp::Shr),
        BinOpKind::BitAnd => OpClass::Arith(BinOp::And),
        BinOpKind::BitOr => OpClass::Arith(BinOp::Or),
        BinOpKind::BitXor => OpClass::Arith(BinOp::Xor),
        BinOpKind::Lt => OpClass::Cmp(CmpOp::Lt),
        BinOpKind::Le => OpClass::Cmp(CmpOp::Le),
        BinOpKind::Gt => OpClass::Cmp(CmpOp::Gt),
        BinOpKind::Ge => OpClass::Cmp(CmpOp::Ge),
        BinOpKind::Eq => OpClass::Cmp(CmpOp::Eq),
        BinOpKind::Ne => OpClass::Cmp(CmpOp::Ne),
        BinOpKind::LogAnd => OpClass::Logic(true),
        BinOpKind::LogOr => OpClass::Logic(false),
    }
}
