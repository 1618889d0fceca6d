//! Sequential CPU reference executor.
//!
//! Interprets the analyzed HIR directly with C semantics — the "CPU
//! result" every testsuite case is verified against in the paper's
//! methodology. Loops run in source order; reduction clauses are ignored
//! (sequential execution computes the same value by definition of the
//! reduction update forms).
//!
//! The host side — binding, extents, element indices and expression
//! evaluation — is [`accrt::host`], the module the runtime uses, so a
//! binding the runtime refuses is refused here with the same words. What
//! is left here is what belongs to the reference: region locals,
//! statements, loops and reduction updates.

use accparse::ast::{BinOpKind, CType};
use accparse::hir::{AnalyzedProgram, HLoop, HStmt, Sym};
use accrt::host::{element, eval, Env, Host, Shape};
use accrt::{AccError, HostBuffer};
use gpsim::{eval_bin, eval_cmp, BinOp, CmpOp, Value};
use std::sync::Arc;
use uhacc_core::types::{apply_host, machine_ty};

/// Sequential interpreter state for one program.
pub struct CpuExec {
    host: Host,
    /// The running region's locals, and the shapes of the arrays it binds
    /// (evaluated once on entry, as a launch passes them).
    locals: Vec<Value>,
    shapes: Vec<Option<Shape>>,
    cur_region: usize,
}

impl Env for CpuExec {
    fn host(&self) -> &Host {
        &self.host
    }

    fn local(&self, l: usize) -> Result<Value, AccError> {
        Ok(self.locals[l])
    }

    fn shape(&self, a: usize) -> Result<&Shape, AccError> {
        Ok(self.shapes[a]
            .as_ref()
            .expect("sema binds every array a region touches"))
    }
}

impl CpuExec {
    /// Parse and analyze `src`.
    pub fn new(src: &str) -> Result<Self, AccError> {
        Ok(Self::from_hir(accparse::compile(src)?))
    }

    /// Build from an analyzed program.
    pub fn from_hir(prog: AnalyzedProgram) -> Self {
        let na = prog.arrays.len();
        CpuExec {
            host: Host::new(Arc::new(prog)),
            locals: Vec::new(),
            shapes: vec![None; na],
            cur_region: 0,
        }
    }

    /// Bind a host scalar.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> Result<(), AccError> {
        self.host.bind_scalar(name, v)
    }

    /// Bind an integer host scalar.
    pub fn bind_int(&mut self, name: &str, v: i64) -> Result<(), AccError> {
        self.bind_scalar(name, Value::I64(v))
    }

    /// Bind an array. The element type must match the declaration; the
    /// length is checked against the extents when a region uses it.
    pub fn bind_array(&mut self, name: &str, buf: HostBuffer) -> Result<(), AccError> {
        self.host.bind_array(name, buf)
    }

    /// Read a scalar.
    pub fn scalar(&self, name: &str) -> Result<Value, AccError> {
        self.host.scalar(name)
    }

    /// Borrow an array.
    pub fn array(&self, name: &str) -> Result<&HostBuffer, AccError> {
        self.host.array(name)
    }

    /// Execute the whole program sequentially.
    pub fn run(&mut self) -> Result<(), AccError> {
        self.host.run_assigns()?;
        for r in 0..self.host.program().regions.len() {
            self.run_region(r)?;
        }
        Ok(())
    }

    /// Execute one region sequentially, after the host assignments (once)
    /// and the runtime's binding checks: every array the region binds is
    /// sized by the extent rule and must be bound at that length — the
    /// reference has only host memory, so `create` and `present` arrays
    /// need a binding too — and every host scalar it uses must be bound.
    pub fn run_region(&mut self, region: usize) -> Result<(), AccError> {
        self.host.run_assigns()?;
        let prog = Arc::clone(self.host.program());
        let r = &prog.regions[region];
        self.shapes.fill(None);
        for db in &r.data {
            let shape = self.host.shape(db.array)?;
            self.host.sized(db.array, shape.elems())?;
            self.shapes[db.array] = Some(shape);
        }
        self.host.check_used(region)?;
        self.cur_region = region;
        self.locals = r
            .locals
            .iter()
            .map(|l| Value::zero(machine_ty(l.ty)))
            .collect();
        self.stmts(&r.body)
    }

    /// Element type of a local of the active region.
    fn local_ty(&self, local: usize) -> CType {
        self.host.program().regions[self.cur_region].locals[local].ty
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
                self.locals[*local] = eval(value, self)?.convert(ty);
            }
            HStmt::AssignHost { host, value } => {
                let v = eval(value, self)?;
                self.host.set(*host, v);
            }
            HStmt::Store {
                array,
                indices,
                value,
            } => {
                let i = element(self, *array, indices)?;
                let v = eval(value, self)?;
                self.host.buffer_mut(*array)?.set(i, v);
            }
            HStmt::ReduceUpdate { sym, op, value, .. } => {
                let v = eval(value, self)?;
                match *sym {
                    Sym::Host(h) => {
                        let ty = machine_ty(self.host.program().hosts[h].ty);
                        self.host.fold(h, *op, v.convert(ty));
                    }
                    Sym::Local(l) => {
                        let cty = self.local_ty(l);
                        let cur = self.locals[l];
                        self.locals[l] = apply_host(*op, cty, cur, v.convert(machine_ty(cty)));
                    }
                }
            }
            HStmt::If { cond, then, els } => {
                if eval(cond, self)?.as_bool() {
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
        let mut var = eval(&l.lower, self)?.convert(vt);
        loop {
            let bound = eval(&l.bound, self)?.convert(vt);
            let cmp = match l.cmp {
                BinOpKind::Lt => CmpOp::Lt,
                BinOpKind::Le => CmpOp::Le,
                BinOpKind::Gt => CmpOp::Gt,
                BinOpKind::Ge => CmpOp::Ge,
                _ => unreachable!("sema canonicalizes loop tests to <, <=, > or >="),
            };
            if !eval_cmp(cmp, vt, var, bound) {
                break;
            }
            self.locals[l.var] = var;
            self.stmts(&l.body)?;
            let step = eval(&l.step, self)?.convert(vt);
            var = eval_bin(BinOp::Add, vt, self.locals[l.var], step)?;
        }
        Ok(())
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
    fn an_index_past_the_array_or_past_64_bits_is_an_error() {
        let src = r#"
            int N; long B; int s;
            int a[N][N];
            s = 0;
            #pragma acc parallel loop gang vector reduction(+:s) copyin(a)
            for (int i = 0; i < N; i++) { s += a[B][i]; }
        "#;
        for (b, ok) in [(1, true), (2, false), (-1, false), (1 << 62, false)] {
            let mut c = CpuExec::new(src).unwrap();
            c.bind_int("N", 2).unwrap();
            c.bind_int("B", b).unwrap();
            c.bind_array("a", HostBuffer::from_i32(&[1, 2, 3, 4]))
                .unwrap();
            match c.run() {
                Ok(()) => assert!(ok && c.scalar("s").unwrap().as_i64() == 7),
                Err(e) => assert_eq!(
                    (ok, e.to_string()),
                    (
                        false,
                        "binding error: index out of bounds for array `a` of 4 element(s)".into()
                    ),
                    "B = {b}"
                ),
            }
        }
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
