//! Sequential CPU reference executor.
//!
//! Interprets the analyzed HIR directly with C semantics — the "CPU
//! result" every testsuite case is verified against in the paper's
//! methodology. Loops run in source order; reduction clauses are ignored
//! (sequential execution computes the same value by definition of the
//! reduction update forms).

use accparse::ast::{BinOpKind, CType, UnOpKind};
use accparse::hir::{AnalyzedProgram, HExpr, HExprKind, HLoop, HStmt, MathFunc, Sym};
use accrt::{AccError, HostBuffer};
use gpsim::{eval_bin, eval_cmp, eval_un, BinOp, CmpOp, Ty, UnOp, Value};
use uhacc_core::types::{apply_host, machine_ty};

/// Sequential interpreter state for one program.
pub struct CpuExec {
    prog: AnalyzedProgram,
    scalars: Vec<Value>,
    arrays: Vec<Option<HostBuffer>>,
    locals: Vec<Value>,
    cur_region: usize,
}

impl CpuExec {
    /// Parse and analyze `src`.
    pub fn new(src: &str) -> Result<Self, AccError> {
        Ok(Self::from_hir(accparse::compile(src)?))
    }

    /// Build from an analyzed program.
    pub fn from_hir(prog: AnalyzedProgram) -> Self {
        let ns = prog.hosts.len();
        let na = prog.arrays.len();
        CpuExec {
            prog,
            scalars: vec![Value::I32(0); ns],
            arrays: (0..na).map(|_| None).collect(),
            locals: Vec::new(),
            cur_region: 0,
        }
    }

    /// Bind a host scalar.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> Result<(), AccError> {
        let i = self
            .prog
            .host_index(name)
            .ok_or_else(|| AccError::Binding(format!("no scalar `{name}`")))?;
        self.scalars[i] = v.convert(machine_ty(self.prog.hosts[i].ty));
        Ok(())
    }

    /// Bind an integer host scalar.
    pub fn bind_int(&mut self, name: &str, v: i64) -> Result<(), AccError> {
        self.bind_scalar(name, Value::I64(v))
    }

    /// Bind an array.
    pub fn bind_array(&mut self, name: &str, buf: HostBuffer) -> Result<(), AccError> {
        let i = self
            .prog
            .array_index(name)
            .ok_or_else(|| AccError::Binding(format!("no array `{name}`")))?;
        self.arrays[i] = Some(buf);
        Ok(())
    }

    /// Read a scalar.
    pub fn scalar(&self, name: &str) -> Result<Value, AccError> {
        let i = self
            .prog
            .host_index(name)
            .ok_or_else(|| AccError::Binding(format!("no scalar `{name}`")))?;
        Ok(self.scalars[i])
    }

    /// Borrow an array.
    pub fn array(&self, name: &str) -> Result<&HostBuffer, AccError> {
        let i = self
            .prog
            .array_index(name)
            .ok_or_else(|| AccError::Binding(format!("no array `{name}`")))?;
        self.arrays[i]
            .as_ref()
            .ok_or_else(|| AccError::Binding(format!("array `{name}` not bound")))
    }

    /// Execute the whole program sequentially.
    pub fn run(&mut self) -> Result<(), AccError> {
        let assigns = self.prog.host_assigns.clone();
        for ha in &assigns {
            let v = self.expr(&ha.value)?;
            self.scalars[ha.host] = v.convert(machine_ty(self.prog.hosts[ha.host].ty));
        }
        for r in 0..self.prog.regions.len() {
            self.run_region(r)?;
        }
        Ok(())
    }

    /// Execute one region sequentially.
    pub fn run_region(&mut self, region: usize) -> Result<(), AccError> {
        self.cur_region = region;
        let r = self.prog.regions[region].clone();
        self.locals = r
            .locals
            .iter()
            .map(|l| Value::zero(machine_ty(l.ty)))
            .collect();
        self.stmts(&r.body)
    }

    /// Element type of a local of the active region.
    fn local_ty(&self, local: usize) -> CType {
        self.prog.regions[self.cur_region].locals[local].ty
    }

    fn stmts(&mut self, stmts: &[HStmt]) -> Result<(), AccError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &HStmt) -> Result<(), AccError> {
        match s {
            HStmt::AssignLocal { local, value } => {
                let ty = machine_ty(self.local_ty(*local));
                let v = self.expr(value)?;
                self.locals[*local] = v.convert(ty);
            }
            HStmt::AssignHost { host, value } => {
                let ty = machine_ty(self.prog.hosts[*host].ty);
                let v = self.expr(value)?;
                self.scalars[*host] = v.convert(ty);
            }
            HStmt::Store {
                array,
                indices,
                value,
            } => {
                let idx = self.flat_index(*array, indices)?;
                let v = self.expr(value)?;
                let arr = self.arrays[*array]
                    .as_mut()
                    .ok_or_else(|| AccError::Binding("array not bound".into()))?;
                arr.set(idx, v);
            }
            HStmt::ReduceUpdate { sym, op, value, .. } => {
                let v = self.expr(value)?;
                let (cur, cty) = match sym {
                    Sym::Host(h) => (self.scalars[*h], self.prog.hosts[*h].ty),
                    Sym::Local(l) => (self.locals[*l], self.local_ty(*l)),
                };
                let newv = apply_host(*op, cty, cur, v.convert(machine_ty(cty)));
                match sym {
                    Sym::Host(h) => self.scalars[*h] = newv,
                    Sym::Local(l) => self.locals[*l] = newv,
                }
            }
            HStmt::If { cond, then, els } => {
                if self.expr(cond)?.as_bool() {
                    self.stmts(then)?;
                } else {
                    self.stmts(els)?;
                }
            }
            HStmt::Loop(l) => self.run_loop(l)?,
        }
        Ok(())
    }

    fn run_loop(&mut self, l: &HLoop) -> Result<(), AccError> {
        let vt = machine_ty(self.local_ty(l.var));
        let mut var = self.expr(&l.lower)?.convert(vt);
        loop {
            let bound = self.expr(&l.bound)?;
            let cont = match l.cmp {
                BinOpKind::Lt => eval_cmp(CmpOp::Lt, vt, var, bound.convert(vt)),
                BinOpKind::Le => eval_cmp(CmpOp::Le, vt, var, bound.convert(vt)),
                BinOpKind::Gt => eval_cmp(CmpOp::Gt, vt, var, bound.convert(vt)),
                BinOpKind::Ge => eval_cmp(CmpOp::Ge, vt, var, bound.convert(vt)),
                _ => unreachable!(),
            };
            if !cont {
                break;
            }
            self.locals[l.var] = var;
            self.stmts(&l.body)?;
            let step = self.expr(&l.step)?.convert(vt);
            var = eval_bin(BinOp::Add, vt, self.locals[l.var], step).map_err(AccError::Device)?;
        }
        Ok(())
    }

    fn flat_index(&mut self, array: usize, indices: &[HExpr]) -> Result<usize, AccError> {
        let dims: Vec<i64> = {
            let decl = self.prog.arrays[array].clone();
            decl.dims
                .iter()
                .map(|d| self.expr(d).map(|v| v.as_i64()))
                .collect::<Result<_, _>>()?
        };
        let mut off: i64 = 0;
        for (d, ix) in indices.iter().enumerate() {
            let i = self.expr(ix)?.as_i64();
            off = off * dims[d] + i;
        }
        Ok(off as usize)
    }

    fn expr(&mut self, e: &HExpr) -> Result<Value, AccError> {
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
            HExprKind::Sym(Sym::Host(h)) => self.scalars[*h],
            HExprKind::Sym(Sym::Local(l)) => self.locals[*l],
            HExprKind::Load { array, indices } => {
                let idx = self.flat_index(*array, indices)?;
                let arr = self.arrays[*array]
                    .as_ref()
                    .ok_or_else(|| AccError::Binding("array not bound".into()))?;
                arr.get(idx)
            }
            HExprKind::Un { op, operand } => {
                let v = self.expr(operand)?;
                match op {
                    UnOpKind::Neg => eval_un(UnOp::Neg, ty, v).map_err(AccError::Device)?,
                    UnOpKind::BitNot => eval_un(UnOp::Not, ty, v).map_err(AccError::Device)?,
                    UnOpKind::Not => Value::I32(if v.as_bool() { 0 } else { 1 }),
                }
            }
            HExprKind::Bin {
                op,
                cmp_ty,
                lhs,
                rhs,
            } => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                match op {
                    BinOpKind::Add => eval_bin(BinOp::Add, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Sub => eval_bin(BinOp::Sub, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Mul => eval_bin(BinOp::Mul, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Div => eval_bin(BinOp::Div, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Rem => eval_bin(BinOp::Rem, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Shl => eval_bin(BinOp::Shl, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::Shr => eval_bin(BinOp::Shr, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::BitAnd => {
                        eval_bin(BinOp::And, ty, a, b).map_err(AccError::Device)?
                    }
                    BinOpKind::BitOr => eval_bin(BinOp::Or, ty, a, b).map_err(AccError::Device)?,
                    BinOpKind::BitXor => {
                        eval_bin(BinOp::Xor, ty, a, b).map_err(AccError::Device)?
                    }
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
                        Value::I32(eval_cmp(cop, machine_ty(*cmp_ty), a, b) as i32)
                    }
                    BinOpKind::LogAnd => Value::I32((a.as_bool() && b.as_bool()) as i32),
                    BinOpKind::LogOr => Value::I32((a.as_bool() || b.as_bool()) as i32),
                }
            }
            HExprKind::Cond { cond, then, els } => {
                if self.expr(cond)?.as_bool() {
                    self.expr(then)?.convert(ty)
                } else {
                    self.expr(els)?.convert(ty)
                }
            }
            HExprKind::Call { func, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                match func {
                    MathFunc::FMax | MathFunc::IMax => {
                        eval_bin(BinOp::Max, ty, vals[0], vals[1]).map_err(AccError::Device)?
                    }
                    MathFunc::FMin | MathFunc::IMin => {
                        eval_bin(BinOp::Min, ty, vals[0], vals[1]).map_err(AccError::Device)?
                    }
                    MathFunc::FAbs | MathFunc::IAbs => {
                        eval_un(UnOp::Abs, ty, vals[0]).map_err(AccError::Device)?
                    }
                    MathFunc::Sqrt => eval_un(UnOp::Sqrt, ty, vals[0]).map_err(AccError::Device)?,
                }
            }
            HExprKind::Cast { operand } => self.expr(operand)?.convert(ty),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_hand_computation() {
        let src = r#"
            int N; int s;
            int a[N];
            s = 5;
            #pragma acc parallel loop gang vector reduction(+:s) copyin(a)
            for (int i = 0; i < N; i++) { s += a[i]; }
        "#;
        let mut c = CpuExec::new(src).unwrap();
        c.bind_int("N", 10).unwrap();
        c.bind_array("a", HostBuffer::from_i32(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]))
            .unwrap();
        c.run().unwrap();
        assert_eq!(c.scalar("s").unwrap().as_i64(), 60);
    }

    #[test]
    fn reference_triple_nest_with_stores() {
        let src = r#"
            int NK; int NJ;
            int t[NK][NJ];
            #pragma acc parallel copy(t)
            {
                #pragma acc loop gang
                for (int k = 0; k < NK; k++) {
                    int s = k;
                    #pragma acc loop worker reduction(+:s)
                    for (int j = 0; j < NJ; j++) {
                        s += t[k][j];
                    }
                    t[k][0] = s;
                }
            }
        "#;
        let mut c = CpuExec::new(src).unwrap();
        c.bind_int("NK", 2).unwrap();
        c.bind_int("NJ", 3).unwrap();
        c.bind_array("t", HostBuffer::from_i32(&[1, 2, 3, 4, 5, 6]))
            .unwrap();
        c.run().unwrap();
        let t = c.array("t").unwrap();
        assert_eq!(t.get(0).as_i64(), 1 + 2 + 3);
        assert_eq!(t.get(3).as_i64(), 1 + 4 + 5 + 6);
    }

    #[test]
    fn reference_max_reduction() {
        let src = r#"
            int N; double m;
            double a[N];
            m = 0.0;
            #pragma acc parallel loop gang vector reduction(max:m) copyin(a)
            for (int i = 0; i < N; i++) { m = fmax(m, a[i]); }
        "#;
        let mut c = CpuExec::new(src).unwrap();
        c.bind_int("N", 4).unwrap();
        c.bind_array("a", HostBuffer::from_f64(&[0.5, 9.25, -3.0, 2.0]))
            .unwrap();
        c.run().unwrap();
        assert_eq!(c.scalar("m").unwrap().as_f64(), 9.25);
    }
}
