//! The host side of a program, stated once: its scalars and arrays, the
//! rules that bind them, the extent rule that sizes and indexes arrays,
//! and the one concrete evaluator of HIR expressions.
//!
//! [`AccRunner`](crate::AccRunner) binds, sizes and evaluates launch
//! clauses through this module before it moves data and launches. The
//! sequential CPU reference (`acc-baselines`) runs the same host side and
//! evaluates region code with the same evaluator, through an [`Env`] that
//! adds the region's locals and array shapes. The compiler lowers kernel
//! expressions on its own, so the kernel is checked against this module
//! rather than against a second copy of itself.

use crate::error::AccError;
use crate::hostbuf::HostBuffer;
use accparse::ast::{BinOpKind, RedOp, UnOpKind};
use accparse::hir::{AnalyzedProgram, HExpr, HExprKind, MathFunc, Sym};
use gpsim::{eval_bin, eval_cmp, eval_un, BinOp, CmpOp, Ty, UnOp, Value};
use std::sync::Arc;
use uhacc_core::types::{apply_host, machine_ty};

/// A program's host state: each host scalar with whether it has a value,
/// each bound array, and whether the host assignments have run.
pub struct Host {
    prog: Arc<AnalyzedProgram>,
    scalars: Vec<Value>,
    bound: Vec<bool>,
    arrays: Vec<Option<HostBuffer>>,
    assigned: bool,
}

/// An array's extents under the current scalars, row-major, and the
/// product of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<u64>,
    elems: u64,
}

impl Shape {
    /// The extents, outermost first.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// The element count.
    pub fn elems(&self) -> u64 {
        self.elems
    }
}

impl Host {
    /// Fresh host state for `prog`: nothing bound, nothing assigned.
    pub fn new(prog: Arc<AnalyzedProgram>) -> Self {
        let (n_scalars, n_arrays) = (prog.hosts.len(), prog.arrays.len());
        Host {
            prog,
            scalars: vec![Value::I32(0); n_scalars],
            bound: vec![false; n_scalars],
            arrays: (0..n_arrays).map(|_| None).collect(),
            assigned: false,
        }
    }

    /// The program this state belongs to.
    pub fn program(&self) -> &Arc<AnalyzedProgram> {
        &self.prog
    }

    /// The index of host scalar `name`.
    fn host_index(&self, name: &str) -> Result<usize, AccError> {
        self.prog
            .host_index(name)
            .ok_or_else(|| AccError::Binding(format!("no host scalar named `{name}`")))
    }

    /// The index of array `name`.
    pub(crate) fn array_index(&self, name: &str) -> Result<usize, AccError> {
        self.prog
            .array_index(name)
            .ok_or_else(|| AccError::Binding(format!("no array named `{name}`")))
    }

    /// Bind host scalar `name` to `v`, converted to its declared type.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> Result<(), AccError> {
        let i = self.host_index(name)?;
        self.set(i, v);
        Ok(())
    }

    /// Host scalar `name`'s current value.
    pub fn scalar(&self, name: &str) -> Result<Value, AccError> {
        Ok(self.scalars[self.host_index(name)?])
    }

    /// Every host scalar's current value, by `Sym::Host` index.
    pub(crate) fn scalars(&self) -> &[Value] {
        &self.scalars
    }

    /// Give host scalar `i` the value `v`, converted to its declared
    /// type. From now on it counts as bound.
    pub fn set(&mut self, i: usize, v: Value) {
        self.scalars[i] = v.convert(machine_ty(self.prog.hosts[i].ty));
        self.bound[i] = true;
    }

    /// Combine `v`, already at host scalar `i`'s machine type, into it
    /// with `op`. From now on it counts as bound.
    pub fn fold(&mut self, i: usize, op: RedOp, v: Value) {
        self.scalars[i] = apply_host(op, self.prog.hosts[i].ty, self.scalars[i], v);
        self.bound[i] = true;
    }

    /// Bind array `name` to `buf`, whose element type must be the
    /// declared one. Its length is checked when a region uses it
    /// ([`Host::sized`]).
    pub fn bind_array(&mut self, name: &str, buf: HostBuffer) -> Result<(), AccError> {
        let i = self.array_index(name)?;
        let want = self.prog.arrays[i].ty;
        if buf.ty() != want {
            return Err(AccError::Binding(format!(
                "array `{name}` is declared {want} but the binding is {}",
                buf.ty()
            )));
        }
        self.arrays[i] = Some(buf);
        Ok(())
    }

    /// Array `name`'s bound buffer.
    pub fn array(&self, name: &str) -> Result<&HostBuffer, AccError> {
        self.buffer(self.array_index(name)?)
    }

    /// Array `i`'s bound buffer.
    pub(crate) fn buffer(&self, i: usize) -> Result<&HostBuffer, AccError> {
        self.arrays[i]
            .as_ref()
            .ok_or_else(|| unbound(&self.prog, i))
    }

    /// Array `i`'s bound buffer, mutably.
    pub fn buffer_mut(&mut self, i: usize) -> Result<&mut HostBuffer, AccError> {
        self.arrays[i]
            .as_mut()
            .ok_or_else(|| unbound(&self.prog, i))
    }

    /// Array `i`'s bound buffer, which must hold exactly `elems` elements.
    pub fn sized(&self, i: usize, elems: u64) -> Result<&HostBuffer, AccError> {
        let buf = self.buffer(i)?;
        if buf.len() as u64 != elems {
            return Err(AccError::Binding(format!(
                "array `{}` declared with {elems} element(s) but bound with {}",
                self.prog.arrays[i].name,
                buf.len()
            )));
        }
        Ok(buf)
    }

    /// The buffer a download of array `i` lands in: the bound one, or a
    /// zeroed one of `elems` elements bound now.
    pub(crate) fn landing(&mut self, i: usize, elems: u64) -> &mut HostBuffer {
        let ty = self.prog.arrays[i].ty;
        self.arrays[i].get_or_insert_with(|| HostBuffer::new(ty, elems as usize))
    }

    /// Exchange the bindings of arrays `a` and `b`.
    pub(crate) fn swap_arrays(&mut self, a: usize, b: usize) {
        self.arrays.swap(a, b);
    }

    /// Run the program's host assignments, once. Each binds its scalar.
    pub fn run_assigns(&mut self) -> Result<(), AccError> {
        if self.assigned {
            return Ok(());
        }
        let prog = Arc::clone(&self.prog);
        for ha in &prog.host_assigns {
            let v = eval(&ha.value, self)?;
            self.set(ha.host, v);
        }
        self.assigned = true;
        Ok(())
    }

    /// Every host scalar region `region` uses must have a value: bound by
    /// the caller, assigned on the host or written by an earlier region.
    pub fn check_used(&self, region: usize) -> Result<(), AccError> {
        for &h in &self.prog.regions[region].hosts_used {
            if !self.bound[h] {
                return Err(AccError::Binding(format!(
                    "host scalar `{}` is used by the region but never bound",
                    self.prog.hosts[h].name
                )));
            }
        }
        Ok(())
    }

    /// Evaluate the host expression `e` to a positive count; `what` names
    /// it in the error (a launch clause, an array dimension).
    pub(crate) fn extent(&self, e: &HExpr, what: &str) -> Result<u64, AccError> {
        let n = eval(e, self)?.as_i64();
        if n <= 0 {
            return Err(AccError::Binding(format!(
                "{what} must be positive, got {n}"
            )));
        }
        Ok(n as u64)
    }

    /// Array `i`'s shape under the current scalars. A dimension that is
    /// not positive, or an array whose bytes do not fit in 64 bits, is a
    /// binding error naming the array.
    pub fn shape(&self, i: usize) -> Result<Shape, AccError> {
        let decl = &self.prog.arrays[i];
        let esize = machine_ty(decl.ty).size() as u64;
        let mut shape = Shape {
            dims: Vec::with_capacity(decl.dims.len()),
            elems: 1,
        };
        for d in &decl.dims {
            let n = self.extent(d, &format!("dimension of `{}`", decl.name))?;
            shape.elems = shape
                .elems
                .checked_mul(n)
                .filter(|n| n.checked_mul(esize).is_some())
                .ok_or_else(|| {
                    AccError::Binding(format!(
                        "array `{}` is too large: its size overflows 64 bits",
                        decl.name
                    ))
                })?;
            shape.dims.push(n);
        }
        Ok(shape)
    }
}

/// What an expression reads: the host state always, and in region code
/// the region's locals and the shapes of the arrays it binds. In host
/// scope ([`Host`] itself) locals and loads are refused.
pub trait Env {
    /// The host scalars and arrays.
    fn host(&self) -> &Host;
    /// Region local `l`.
    fn local(&self, l: usize) -> Result<Value, AccError>;
    /// The shape of array `a`, for an element access.
    fn shape(&self, a: usize) -> Result<&Shape, AccError>;
}

impl Env for Host {
    fn host(&self) -> &Host {
        self
    }

    fn local(&self, _: usize) -> Result<Value, AccError> {
        Err(kernel_only())
    }

    fn shape(&self, _: usize) -> Result<&Shape, AccError> {
        Err(kernel_only())
    }
}

fn unbound(prog: &AnalyzedProgram, i: usize) -> AccError {
    AccError::Binding(format!("array `{}` is not bound", prog.arrays[i].name))
}

fn kernel_only() -> AccError {
    AccError::Binding("host expression references kernel-only state".into())
}

/// The row-major element index of `array[indices]` in `env`. An index
/// outside the array's shape, or one whose arithmetic overflows, is an
/// error, not a wrapped or panicking access.
pub fn element<E: Env>(env: &E, array: usize, indices: &[HExpr]) -> Result<usize, AccError> {
    let shape = env.shape(array)?;
    let mut flat = Some(0i64);
    for (ix, &d) in indices.iter().zip(&shape.dims) {
        let i = eval(ix, env)?.as_i64();
        flat = flat
            .and_then(|f| f.checked_mul(d as i64))
            .and_then(|f| f.checked_add(i));
    }
    match flat.and_then(|f| u64::try_from(f).ok()) {
        Some(f) if f < shape.elems => Ok(f as usize),
        _ => Err(AccError::Binding(format!(
            "index out of bounds for array `{}` of {} element(s)",
            env.host().prog.arrays[array].name,
            shape.elems
        ))),
    }
}

/// Evaluate `e` in `env` with the kernel's arithmetic: every operator,
/// conversion and intrinsic is the simulator's own (`gpsim::eval_*`), so
/// host-computed values agree with device-computed ones bit for bit.
pub fn eval<E: Env>(e: &HExpr, env: &E) -> Result<Value, AccError> {
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
        HExprKind::Sym(Sym::Host(h)) => env.host().scalars[*h],
        HExprKind::Sym(Sym::Local(l)) => env.local(*l)?,
        HExprKind::Load { array, indices } => {
            let i = element(env, *array, indices)?;
            env.host().buffer(*array)?.get(i)
        }
        HExprKind::Un { op, operand } => {
            let v = eval(operand, env)?;
            match op {
                UnOpKind::Neg => eval_un(UnOp::Neg, ty, v)?,
                UnOpKind::BitNot => eval_un(UnOp::Not, ty, v)?,
                UnOpKind::Not => Value::I32(!v.as_bool() as i32),
            }
        }
        HExprKind::Bin {
            op,
            cmp_ty,
            lhs,
            rhs,
        } => {
            let (a, b) = (eval(lhs, env)?, eval(rhs, env)?);
            let arith = |op| eval_bin(op, ty, a, b);
            let cmp = |op| Value::I32(eval_cmp(op, machine_ty(*cmp_ty), a, b) as i32);
            match op {
                BinOpKind::Add => arith(BinOp::Add)?,
                BinOpKind::Sub => arith(BinOp::Sub)?,
                BinOpKind::Mul => arith(BinOp::Mul)?,
                BinOpKind::Div => arith(BinOp::Div)?,
                BinOpKind::Rem => arith(BinOp::Rem)?,
                BinOpKind::Shl => arith(BinOp::Shl)?,
                BinOpKind::Shr => arith(BinOp::Shr)?,
                BinOpKind::BitAnd => arith(BinOp::And)?,
                BinOpKind::BitOr => arith(BinOp::Or)?,
                BinOpKind::BitXor => arith(BinOp::Xor)?,
                BinOpKind::Lt => cmp(CmpOp::Lt),
                BinOpKind::Le => cmp(CmpOp::Le),
                BinOpKind::Gt => cmp(CmpOp::Gt),
                BinOpKind::Ge => cmp(CmpOp::Ge),
                BinOpKind::Eq => cmp(CmpOp::Eq),
                BinOpKind::Ne => cmp(CmpOp::Ne),
                BinOpKind::LogAnd => Value::I32((a.as_bool() && b.as_bool()) as i32),
                BinOpKind::LogOr => Value::I32((a.as_bool() || b.as_bool()) as i32),
            }
        }
        HExprKind::Cond { cond, then, els } => {
            let arm = if eval(cond, env)?.as_bool() {
                then
            } else {
                els
            };
            eval(arm, env)?.convert(ty)
        }
        HExprKind::Call { func, args } => {
            let a = eval(&args[0], env)?;
            let b = || eval(&args[1], env);
            match func {
                MathFunc::FMax | MathFunc::IMax => eval_bin(BinOp::Max, ty, a, b()?)?,
                MathFunc::FMin | MathFunc::IMin => eval_bin(BinOp::Min, ty, a, b()?)?,
                MathFunc::FAbs | MathFunc::IAbs => eval_un(UnOp::Abs, ty, a)?,
                MathFunc::Sqrt => eval_un(UnOp::Sqrt, ty, a)?,
            }
        }
        HExprKind::Cast { operand } => eval(operand, env)?.convert(ty),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(src: &str) -> Host {
        Host::new(Arc::new(accparse::compile(src).unwrap()))
    }

    const SRC: &str = "int N; double x; int r; double y; long L;\ndouble a[N][4];\n\
                       double b[L][L][L];\n\
                       r = N * 7; y = x + 1; x = 2.5;\n\
                       #pragma acc parallel loop gang copyin(a)\n\
                       for (int i = 0; i < N; i++) { y += a[i][0]; }\n";

    #[test]
    fn host_assignments_read_the_bound_scalars_with_c_arithmetic() {
        let mut h = host(SRC);
        h.bind_scalar("N", Value::I64(6)).unwrap();
        h.bind_scalar("x", Value::I32(1)).unwrap();
        h.run_assigns().unwrap();
        assert_eq!(h.scalar("r").unwrap(), Value::I32(42));
        assert_eq!(h.scalar("y").unwrap(), Value::F64(2.0));
        assert_eq!(h.scalar("x").unwrap(), Value::F64(2.5));
        // Once only: a second call changes nothing.
        h.bind_scalar("N", Value::I32(1)).unwrap();
        h.run_assigns().unwrap();
        assert_eq!(h.scalar("r").unwrap(), Value::I32(42));
    }

    #[test]
    fn the_extent_rule_sizes_and_refuses() {
        let mut h = host(SRC);
        let err = h.shape(0).unwrap_err().to_string();
        assert_eq!(
            err,
            "binding error: dimension of `a` must be positive, got 0"
        );
        h.bind_scalar("N", Value::I32(3)).unwrap();
        assert_eq!(
            h.shape(0).unwrap(),
            Shape {
                dims: vec![3, 4],
                elems: 12
            }
        );
        // 2^63 elements fit in 64 bits; their 2^66 bytes do not.
        h.bind_scalar("L", Value::I64(1 << 21)).unwrap();
        let err = h.shape(1).unwrap_err().to_string();
        assert_eq!(
            err,
            "binding error: array `b` is too large: its size overflows 64 bits"
        );
    }

    #[test]
    fn bindings_are_checked_by_name_type_and_length() {
        let mut h = host(SRC);
        let err = h.bind_scalar("M", Value::I32(1)).unwrap_err().to_string();
        assert_eq!(err, "binding error: no host scalar named `M`");
        let err = h
            .bind_array("a", HostBuffer::from_i32(&[1]))
            .unwrap_err()
            .to_string();
        assert_eq!(
            err,
            "binding error: array `a` is declared double but the binding is int"
        );
        assert!(h.sized(0, 8).is_err());
        h.bind_array("a", HostBuffer::from_f64(&[0.0; 8])).unwrap();
        let err = h.sized(0, 12).unwrap_err().to_string();
        assert_eq!(
            err,
            "binding error: array `a` declared with 12 element(s) but bound with 8"
        );
        assert_eq!(h.sized(0, 8).unwrap().len(), 8);
        let err = h.check_used(0).unwrap_err().to_string();
        assert_eq!(
            err,
            "binding error: host scalar `N` is used by the region but never bound"
        );
    }

    #[test]
    fn host_scope_refuses_locals_and_loads() {
        let h = host(SRC);
        let prog = Arc::clone(h.program());
        let accparse::hir::HStmt::Loop(l) = &prog.regions[0].body[0] else {
            panic!("a loop")
        };
        let (accparse::hir::HStmt::ReduceUpdate { value, .. }
        | accparse::hir::HStmt::AssignHost { value, .. }) = &l.body[0]
        else {
            panic!("`y += a[i][0]`")
        };
        let err = eval(value, &h).unwrap_err().to_string();
        assert_eq!(
            err,
            "binding error: host expression references kernel-only state"
        );
        assert!(eval(&l.bound, &h).is_ok());
        assert!(eval(&l.lower, &h).is_ok());
        let local = HExpr {
            ty: accparse::ast::CType::Int,
            kind: HExprKind::Sym(Sym::Local(l.var)),
            span: Default::default(),
        };
        assert!(eval(&local, &h).is_err());
    }
}
