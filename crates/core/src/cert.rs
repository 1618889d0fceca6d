//! # redcert, source side — reference semantics + per-region certification
//!
//! The counterpart of [`gpsim::cert`]: a **sequential reference
//! interpreter** over the analyzed HIR that evaluates the region exactly
//! as C would — loops in source order, one iteration at a time — while
//! building symbolic terms for array inputs in the *same shared
//! [`TermPool`]* the kernel-side symbolic executor uses. Certifying a
//! [`CompiledRegion`] then reduces to comparing `TermId`s at the
//! observable boundary:
//!
//! 1. kverify precondition: the main kernel and every finalize pass must
//!    verify cleanly at the launch shape (a barrier bug makes symbolic
//!    execution itself meaningless);
//! 2. symbolically execute the main kernel and the finalize kernels over
//!    a [`SymMemory`] laid out exactly like the runtime's (array regions
//!    in data-clause order, then temp buffers, mailbox race-exempt);
//! 3. replay the launch plan's epilogue in term space ([`crate::plan::ResultRead`]
//!    folds via [`apply_host_term`], mailbox readbacks);
//! 4. run the reference interpreter over the source region;
//! 5. compare every observable — host scalars and the cells of
//!    `copy`/`copyout`/`present` arrays — for term equality.
//!
//! The expression translation mirrors `codegen/expr.rs` **node for
//! node** (same literal widths, same comparison types, same 0/1
//! normalization of logical values), so a correct kernel produces the
//! *same canonical term* as the source, not merely an equivalent one.
//! Matching terms that contain a float-typed fold are reported as
//! [`CertVerdict::CertifiedModuloReassoc`]; anything the validator
//! cannot model exactly degrades to `Unknown`, never to a false
//! `Certified`.

use std::collections::HashMap;

use accparse::ast::{CType, DataDir, RedOp, UnOpKind};
use accparse::hir::{AnalyzedProgram, HExpr, HExprKind, HLoop, HStmt, MathFunc, Sym};
use gpsim::cert::{
    run_symbolic, sval_eq, CertConfig, CertObservable, CertReport, CertVerdict, SVal, SymMemory,
    TermPool,
};
use gpsim::{verify_kernel, BinOp, CmpOp, LaunchConfig, Ty, UnOp, Value, VerifyConfig};

use crate::codegen::expr::{classify, OpClass};
use crate::plan::{BufferPurpose, CompiledRegion, LaunchDims, ParamSpec};
use crate::types::{combine_binop, is_logical, machine_ty};

/// Normalize `v` to a 0/1 value at `ty` — the exact instruction sequence
/// codegen emits for logical reduction operands (`cmp.ne ty, v, 0` then
/// `select 1, 0`). The pool's select elision makes this idempotent.
fn norm01(pool: &mut TermPool, v: SVal, ty: Ty) -> Result<SVal, String> {
    let p = pool.v_cmp(CmpOp::Ne, ty, v, SVal::C(Value::zero(ty)))?;
    pool.v_sel(p, SVal::C(Value::I32(1)), SVal::C(Value::I32(0)))
}

/// Term-space mirror of [`crate::types::apply_host`]: fold `b` into `a`
/// with reduction operator `op` at machine type `ty`. Logical operators
/// normalize both operands to 0/1 first (the host does the same via
/// `as_bool`), so the result canonicalizes with the kernel's in-kernel
/// normalized combines.
pub fn apply_host_term(
    pool: &mut TermPool,
    op: RedOp,
    ty: Ty,
    a: SVal,
    b: SVal,
) -> Result<SVal, String> {
    if is_logical(op) {
        let na = norm01(pool, a, ty)?;
        let nb = norm01(pool, b, ty)?;
        return pool.v_bin(combine_binop(op), ty, na, nb);
    }
    pool.v_bin(combine_binop(op), ty, a, b)
}

fn concrete_i64(v: SVal, what: &str) -> Result<i64, String> {
    match v {
        SVal::C(x) => Ok(x.as_i64()),
        SVal::T(_) => Err(format!("symbolic {what} in the source region")),
    }
}

/// The sequential reference interpreter's state for one region.
struct RefState<'a> {
    prog: &'a AnalyzedProgram,
    region: usize,
    /// Per-array dimension extents (concrete, from the runtime bindings).
    extents: &'a [Vec<u64>],
    /// Array index → kernel-side [`SymMemory`] region index; loads from
    /// input-backed arrays materialize the *same* `Input` leaves the
    /// kernel sees.
    region_of: &'a HashMap<usize, u32>,
    input_backed: &'a [bool],
    hosts: Vec<SVal>,
    locals: Vec<SVal>,
    /// `(array, byte offset)` → value the source stored.
    written: HashMap<(usize, u64), SVal>,
    steps: u64,
    max_steps: u64,
}

impl<'a> RefState<'a> {
    fn step(&mut self) -> Result<(), String> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err("step budget exceeded (reference interpretation)".into());
        }
        Ok(())
    }

    fn local_ty(&self, l: usize) -> CType {
        self.prog.regions[self.region].locals[l].ty
    }

    fn read_sym(&self, s: Sym) -> (SVal, CType) {
        match s {
            Sym::Host(h) => (self.hosts[h], self.prog.hosts[h].ty),
            Sym::Local(l) => (self.locals[l], self.local_ty(l)),
        }
    }

    fn write_sym(&mut self, s: Sym, v: SVal) {
        match s {
            Sym::Host(h) => self.hosts[h] = v,
            Sym::Local(l) => self.locals[l] = v,
        }
    }

    /// Row-major linear byte offset of `array[indices...]`, mirroring
    /// codegen's `element_offset` (`((i0*d1 + i1)*d2 + i2)...`). Indices
    /// must be concrete; a symbolic index means the kernel side computed
    /// a symbolic address anyway (→ Unknown there too).
    fn element_offset(
        &mut self,
        pool: &mut TermPool,
        array: usize,
        indices: &[HExpr],
    ) -> Result<u64, String> {
        let name = &self.prog.arrays[array].name;
        let exts = &self.extents[array];
        if exts.len() != indices.len() {
            return Err(format!("array `{name}` indexed with wrong arity"));
        }
        let mut linear: i64 = 0;
        for (d, ix) in indices.iter().enumerate() {
            let v = self.expr(pool, ix)?;
            let iv = concrete_i64(v, "array index")?;
            linear = if d == 0 {
                iv
            } else {
                linear.wrapping_mul(exts[d] as i64).wrapping_add(iv)
            };
        }
        let total: u64 = exts.iter().product();
        if linear < 0 || linear as u64 >= total.max(1) {
            return Err(format!("array index out of bounds in `{name}`"));
        }
        let esize = machine_ty(self.prog.arrays[array].ty).size() as u64;
        Ok(linear as u64 * esize)
    }

    fn load(&mut self, pool: &mut TermPool, array: usize, off: u64) -> Result<SVal, String> {
        if let Some(&v) = self.written.get(&(array, off)) {
            return Ok(v);
        }
        let ety = machine_ty(self.prog.arrays[array].ty);
        if self.input_backed[array] {
            if let Some(&ridx) = self.region_of.get(&array) {
                return Ok(SVal::T(pool.input(ridx, off, ety)));
            }
        }
        Err(format!(
            "source reads uninitialized array `{}`",
            self.prog.arrays[array].name
        ))
    }

    /// Evaluate `e`, mirroring `codegen/expr.rs::expr` node for node.
    fn expr(&mut self, pool: &mut TermPool, e: &HExpr) -> Result<SVal, String> {
        self.step()?;
        let ty = machine_ty(e.ty);
        Ok(match &e.kind {
            HExprKind::Int(v) => SVal::C(match ty {
                Ty::I64 => Value::I64(*v),
                _ => Value::I32(*v as i32),
            }),
            HExprKind::Float(v) => SVal::C(match ty {
                Ty::F32 => Value::F32(*v as f32),
                _ => Value::F64(*v),
            }),
            HExprKind::Sym(s) => self.read_sym(*s).0,
            HExprKind::Load { array, indices } => {
                let off = self.element_offset(pool, *array, indices)?;
                self.load(pool, *array, off)?
            }
            HExprKind::Un { op, operand } => {
                let v = self.expr(pool, operand)?;
                match op {
                    UnOpKind::Neg => pool.v_un(UnOp::Neg, ty, v)?,
                    UnOpKind::BitNot => pool.v_un(UnOp::Not, ty, v)?,
                    UnOpKind::Not => {
                        let oty = machine_ty(operand.ty);
                        let p = pool.v_cmp(CmpOp::Eq, oty, v, SVal::C(Value::zero(oty)))?;
                        pool.v_sel(p, SVal::C(Value::I32(1)), SVal::C(Value::I32(0)))?
                    }
                }
            }
            HExprKind::Bin {
                op,
                cmp_ty,
                lhs,
                rhs,
            } => match classify(*op) {
                OpClass::Arith(bop) => {
                    let a = self.expr(pool, lhs)?;
                    let b = self.expr(pool, rhs)?;
                    pool.v_bin(bop, ty, a, b)?
                }
                OpClass::Cmp(cop) => {
                    let a = self.expr(pool, lhs)?;
                    let b = self.expr(pool, rhs)?;
                    let p = pool.v_cmp(cop, machine_ty(*cmp_ty), a, b)?;
                    pool.v_sel(p, SVal::C(Value::I32(1)), SVal::C(Value::I32(0)))?
                }
                OpClass::Logic(and) => {
                    // Non-short-circuit, like the kernel (side-effect free).
                    let pa = self.expr_pred(pool, lhs)?;
                    let pb = self.expr_pred(pool, rhs)?;
                    let bop = if and { BinOp::And } else { BinOp::Or };
                    let p = pool.v_bin(bop, Ty::Pred, pa, pb)?;
                    pool.v_sel(p, SVal::C(Value::I32(1)), SVal::C(Value::I32(0)))?
                }
            },
            HExprKind::Cond { cond, then, els } => {
                let p = self.expr_pred(pool, cond)?;
                let a = self.expr(pool, then)?;
                let a = self.convert_if_needed(pool, a, then.ty, e.ty);
                let b = self.expr(pool, els)?;
                let b = self.convert_if_needed(pool, b, els.ty, e.ty);
                pool.v_sel(p, a, b)?
            }
            HExprKind::Call { func, args } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.expr(pool, a)?);
                }
                match func {
                    MathFunc::FMax | MathFunc::IMax => pool.v_bin(BinOp::Max, ty, vs[0], vs[1])?,
                    MathFunc::FMin | MathFunc::IMin => pool.v_bin(BinOp::Min, ty, vs[0], vs[1])?,
                    MathFunc::FAbs | MathFunc::IAbs => pool.v_un(UnOp::Abs, ty, vs[0])?,
                    MathFunc::Sqrt => pool.v_un(UnOp::Sqrt, ty, vs[0])?,
                }
            }
            HExprKind::Cast { operand } => {
                let v = self.expr(pool, operand)?;
                pool.coerce(v, ty)
            }
        })
    }

    /// Evaluate `e` as a predicate, mirroring `expr_pred` (comparison
    /// fast path, `Not` at predicate type, value-nonzero fallback).
    fn expr_pred(&mut self, pool: &mut TermPool, e: &HExpr) -> Result<SVal, String> {
        match &e.kind {
            HExprKind::Bin {
                op,
                cmp_ty,
                lhs,
                rhs,
            } => match classify(*op) {
                OpClass::Cmp(cop) => {
                    let a = self.expr(pool, lhs)?;
                    let b = self.expr(pool, rhs)?;
                    pool.v_cmp(cop, machine_ty(*cmp_ty), a, b)
                }
                OpClass::Logic(and) => {
                    let pa = self.expr_pred(pool, lhs)?;
                    let pb = self.expr_pred(pool, rhs)?;
                    pool.v_bin(if and { BinOp::And } else { BinOp::Or }, Ty::Pred, pa, pb)
                }
                OpClass::Arith(_) => self.value_nonzero(pool, e),
            },
            HExprKind::Un {
                op: UnOpKind::Not,
                operand,
            } => {
                let p = self.expr_pred(pool, operand)?;
                pool.v_un(UnOp::Not, Ty::Pred, p)
            }
            _ => self.value_nonzero(pool, e),
        }
    }

    fn value_nonzero(&mut self, pool: &mut TermPool, e: &HExpr) -> Result<SVal, String> {
        let v = self.expr(pool, e)?;
        let ty = machine_ty(e.ty);
        pool.v_cmp(CmpOp::Ne, ty, v, SVal::C(Value::zero(ty)))
    }

    fn convert_if_needed(&mut self, pool: &mut TermPool, v: SVal, from: CType, to: CType) -> SVal {
        if from == to {
            v
        } else {
            pool.coerce(v, machine_ty(to))
        }
    }

    fn exec_stmts(&mut self, pool: &mut TermPool, stmts: &[HStmt]) -> Result<(), String> {
        for s in stmts {
            self.step()?;
            match s {
                HStmt::AssignLocal { local, value } => {
                    let v = self.expr(pool, value)?;
                    let ty = machine_ty(self.local_ty(*local));
                    self.locals[*local] = pool.coerce(v, ty);
                }
                HStmt::AssignHost { host, value } => {
                    let v = self.expr(pool, value)?;
                    let ty = machine_ty(self.prog.hosts[*host].ty);
                    self.hosts[*host] = pool.coerce(v, ty);
                }
                HStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    let off = self.element_offset(pool, *array, indices)?;
                    let v = self.expr(pool, value)?;
                    let ety = machine_ty(self.prog.arrays[*array].ty);
                    let cv = pool.coerce(v, ety);
                    self.written.insert((*array, off), cv);
                }
                HStmt::ReduceUpdate { sym, op, value, .. } => {
                    let v = self.expr(pool, value)?;
                    let (cur, cty) = self.read_sym(*sym);
                    let ty = machine_ty(cty);
                    // The kernel normalizes only the update operand (its
                    // accumulator is 0/1 by construction); the reference
                    // normalizes the accumulator too, because its chain
                    // starts at the *user's* initial value.
                    let new = if is_logical(*op) {
                        let na = norm01(pool, cur, ty)?;
                        let nv = norm01(pool, v, ty)?;
                        pool.v_bin(combine_binop(*op), ty, na, nv)?
                    } else {
                        pool.v_bin(combine_binop(*op), ty, cur, v)?
                    };
                    self.write_sym(*sym, new);
                }
                HStmt::If { cond, then, els } => match self.expr_pred(pool, cond)? {
                    SVal::C(c) => {
                        if c.as_bool() {
                            self.exec_stmts(pool, then)?;
                        } else {
                            self.exec_stmts(pool, els)?;
                        }
                    }
                    SVal::T(_) => {
                        return Err("data-dependent branch in the source region".into());
                    }
                },
                HStmt::Loop(l) => self.exec_loop(pool, l)?,
            }
        }
        Ok(())
    }

    fn exec_loop(&mut self, pool: &mut TermPool, l: &HLoop) -> Result<(), String> {
        let vty = machine_ty(self.local_ty(l.var));
        let lo = self.expr(pool, &l.lower)?;
        let mut x = concrete_i64(lo, "loop lower bound")?;
        loop {
            self.step()?;
            let cur = Value::I64(x).convert(vty);
            self.locals[l.var] = SVal::C(cur);
            let bv = {
                let b = self.expr(pool, &l.bound)?;
                match b {
                    SVal::C(v) => v.convert(vty).as_i64(),
                    SVal::T(_) => return Err("symbolic loop bound in the source region".into()),
                }
            };
            let cv = cur.as_i64();
            let go = match l.cmp {
                accparse::ast::BinOpKind::Lt => cv < bv,
                accparse::ast::BinOpKind::Le => cv <= bv,
                accparse::ast::BinOpKind::Gt => cv > bv,
                accparse::ast::BinOpKind::Ge => cv >= bv,
                _ => return Err("unsupported loop comparison".into()),
            };
            if !go {
                break;
            }
            self.exec_stmts(pool, &l.body)?;
            let sv = {
                let s = self.expr(pool, &l.step)?;
                concrete_i64(s, "loop step")?
            };
            if sv == 0 {
                return Err("zero loop step".into());
            }
            x = x.wrapping_add(sv);
        }
        Ok(())
    }
}

fn compare(pool: &TermPool, names: &[String], kernel: SVal, source: SVal) -> CertVerdict {
    // A schedule-dependent value (cross-warp race) reaching an
    // observable can never certify: the symbolic executor ran one warp
    // schedule, so agreement with the reference proves nothing.
    if let Some(msg) = pool.sval_poison(kernel) {
        return CertVerdict::Unknown {
            reason: format!("observable depends on a {msg}"),
        };
    }
    if sval_eq(kernel, source) {
        if pool.sval_float_fold(kernel) || pool.sval_float_fold(source) {
            CertVerdict::CertifiedModuloReassoc
        } else {
            CertVerdict::Certified
        }
    } else {
        CertVerdict::Refuted {
            witness: format!(
                "kernel computes {}, source computes {}",
                pool.render_sval(kernel, names),
                pool.render_sval(source, names)
            ),
        }
    }
}

fn kverify_gate(kernel: &gpsim::Kernel, cfg: LaunchConfig) -> Result<(), String> {
    let vr = verify_kernel(kernel, cfg, &VerifyConfig::default());
    if vr.errors() > 0 {
        let f = vr
            .findings
            .iter()
            .find(|f| !f.warning)
            .expect("errors() > 0 implies an error finding");
        return Err(format!("kverify error in `{}`: {}", kernel.name, f.detail));
    }
    Ok(())
}

/// Certify one compiled region against its source semantics at concrete
/// launch dims, host scalar values and array extents (symbolic array
/// *contents*). Never launches anything on a device; the whole check is
/// static. A failure to model the kernel or the source yields
/// `Unknown{reason}` — only a proven observable mismatch is `Refuted`.
pub fn certify_region(
    prog: &AnalyzedProgram,
    region: usize,
    compiled: &CompiledRegion,
    dims: LaunchDims,
    scalars: &[Value],
    extents: &[Vec<u64>],
    ccfg: &CertConfig,
) -> CertReport {
    let summary = accparse::summarize_region(prog, region);
    let mut report = CertReport {
        region,
        kernel: compiled.main.name.clone(),
        dims: (dims.gangs, dims.workers, dims.vector),
        reductions: summary.reductions.iter().map(|r| r.render()).collect(),
        verdict: CertVerdict::Certified,
        observables: Vec::new(),
    };
    match certify_inner(prog, region, compiled, dims, scalars, extents, ccfg) {
        Ok(observables) => {
            let mut v = CertVerdict::Certified;
            for o in &observables {
                v = v.merge(o.verdict.clone());
            }
            report.verdict = v;
            report.observables = observables;
        }
        Err(reason) => report.verdict = CertVerdict::Unknown { reason },
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn certify_inner(
    prog: &AnalyzedProgram,
    region: usize,
    compiled: &CompiledRegion,
    dims: LaunchDims,
    scalars: &[Value],
    extents: &[Vec<u64>],
    ccfg: &CertConfig,
) -> Result<Vec<CertObservable>, String> {
    let r = &prog.regions[region];
    if scalars.len() != prog.hosts.len() {
        return Err("host scalar vector does not match the program".into());
    }
    let cfg = LaunchConfig::gwv(dims.gangs, dims.workers, dims.vector);

    // 1. kverify precondition.
    kverify_gate(&compiled.main, cfg)?;
    for fp in &compiled.finalize {
        kverify_gate(&fp.kernel, LaunchConfig::d1(1, fp.threads))?;
    }

    // 2. Lay out symbolic memory exactly like the runtime: array regions
    // in data-clause order, then temp buffers.
    let mut pool = TermPool::new();
    let mut mem = SymMemory::new();
    let mut region_of: HashMap<usize, u32> = HashMap::new();
    let mut input_backed = vec![false; prog.arrays.len()];
    for db in &r.data {
        let a = &prog.arrays[db.array];
        let esize = machine_ty(a.ty).size() as u64;
        let elems: u64 = extents[db.array].iter().product();
        let size = elems
            .checked_mul(esize)
            .ok_or_else(|| format!("array `{}` too large to certify", a.name))?;
        let backed = matches!(db.dir, DataDir::CopyIn | DataDir::Copy | DataDir::Present);
        let ridx = mem.alloc(
            &a.name,
            size.max(esize),
            backed.then(|| machine_ty(a.ty)),
            false,
        )?;
        region_of.insert(db.array, ridx);
        input_backed[db.array] = backed;
    }
    let mut buf_region: Vec<u32> = Vec::with_capacity(compiled.buffers.len());
    for (i, spec) in compiled.buffers.iter().enumerate() {
        let name = match spec.purpose {
            BufferPurpose::GangPartials => format!("partials#{i}"),
            BufferPurpose::GlobalCombine => format!("stage#{i}"),
            BufferPurpose::Mailbox => format!("mailbox#{i}"),
            BufferPurpose::GangAtomic => format!("acc#{i}"),
        };
        let size = spec.elems.max(1) * machine_ty(spec.ty).size() as u64;
        let ridx = mem.alloc(&name, size, None, spec.purpose == BufferPurpose::Mailbox)?;
        buf_region.push(ridx);
    }

    // 3. Parameters + accumulator-buffer inits, mirroring the runtime.
    let mut params: Vec<SVal> = Vec::with_capacity(compiled.params.len());
    for p in &compiled.params {
        params.push(match p {
            ParamSpec::ArrayBase(a) => {
                let ridx = region_of.get(a).ok_or_else(|| {
                    format!("array `{}` not in a data clause", prog.arrays[*a].name)
                })?;
                SVal::C(Value::U64(mem.base(*ridx)))
            }
            ParamSpec::ArrayDim { array, dim } => {
                let e = extents
                    .get(*array)
                    .and_then(|d| d.get(*dim))
                    .ok_or("array extent missing")?;
                SVal::C(Value::I32(*e as i32))
            }
            ParamSpec::HostScalar(h) => SVal::C(scalars[*h]),
            ParamSpec::TempBuffer(i) => SVal::C(Value::U64(mem.base(buf_region[*i]))),
        });
    }
    for (spec, &ridx) in compiled.buffers.iter().zip(&buf_region) {
        if let Some(v) = spec.init {
            mem.poke(ridx, 0, v);
        }
    }

    // 4. Symbolically execute the launch plan.
    let mut steps = 0u64;
    run_symbolic(
        &compiled.main,
        cfg,
        &params,
        &mut mem,
        &mut pool,
        ccfg,
        &mut steps,
    )?;
    for fp in &compiled.finalize {
        let fparams = [
            SVal::C(Value::U64(mem.base(buf_region[fp.buffer]))),
            SVal::C(Value::I32(fp.elems as i32)),
        ];
        run_symbolic(
            &fp.kernel,
            LaunchConfig::d1(1, fp.threads),
            &fparams,
            &mut mem,
            &mut pool,
            ccfg,
            &mut steps,
        )?;
    }

    // 5. Plan epilogue in term space: gang-result folds, then mailbox
    // writebacks — same order as `AccRunner::run_region`.
    let mut sim_hosts: Vec<SVal> = scalars.iter().map(|&v| SVal::C(v)).collect();
    for rr in &compiled.results {
        let cty = prog.hosts[rr.host].ty;
        let mty = machine_ty(cty);
        let v = mem
            .peek(&mut pool, buf_region[rr.buffer], 0, mty)?
            .ok_or_else(|| {
                format!(
                    "gang-reduction buffer for `{}` never written",
                    prog.hosts[rr.host].name
                )
            })?;
        sim_hosts[rr.host] = if rr.fold {
            let old = sim_hosts[rr.host];
            apply_host_term(&mut pool, rr.op, mty, old, v)?
        } else {
            pool.coerce(v, mty)
        };
    }
    if let Some(mb) = compiled.mailbox {
        for wb in &compiled.writebacks {
            let mty = machine_ty(prog.hosts[wb.host].ty);
            let v = mem
                .peek(&mut pool, buf_region[mb], wb.slot * 8, mty)?
                .ok_or_else(|| {
                    format!(
                        "mailbox slot for `{}` never written",
                        prog.hosts[wb.host].name
                    )
                })?;
            sim_hosts[wb.host] = v;
        }
    }

    // 6. Reference interpretation of the source region.
    let mut rstate = RefState {
        prog,
        region,
        extents,
        region_of: &region_of,
        input_backed: &input_backed,
        hosts: scalars.iter().map(|&v| SVal::C(v)).collect(),
        // Locals zero-init at machine type, like kernel registers.
        locals: r
            .locals
            .iter()
            .map(|l| SVal::C(Value::zero(machine_ty(l.ty))))
            .collect(),
        written: HashMap::new(),
        steps,
        max_steps: ccfg.max_steps,
    };
    rstate.exec_stmts(&mut pool, &r.body)?;

    // 7. Compare observables.
    let names = mem.names();
    let mut observables = Vec::new();
    for h in 0..prog.hosts.len() {
        let k = sim_hosts[h];
        let s = rstate.hosts[h];
        let init = SVal::C(scalars[h]);
        let interesting = r.hosts_written.contains(&h) || !sval_eq(k, init) || !sval_eq(s, init);
        if !interesting {
            continue;
        }
        observables.push(CertObservable {
            name: prog.hosts[h].name.clone(),
            verdict: compare(&pool, &names, k, s),
        });
    }
    for db in &r.data {
        if !matches!(db.dir, DataDir::Copy | DataDir::CopyOut | DataDir::Present) {
            continue;
        }
        let a = db.array;
        let ridx = region_of[&a];
        let ety = machine_ty(prog.arrays[a].ty);
        let esize = ety.size() as u64;
        let mut offs = mem.written_offsets(ridx);
        for (&(wa, off), _) in rstate.written.iter() {
            if wa == a && !offs.contains(&off) {
                offs.push(off);
            }
        }
        offs.sort_unstable();
        for off in offs {
            let kv = mem.peek(&mut pool, ridx, off, ety)?;
            let sv = match rstate.written.get(&(a, off)) {
                Some(&v) => Some(v),
                None if input_backed[a] => Some(SVal::T(pool.input(ridx, off, ety))),
                None => None,
            };
            let name = format!("{}[{}]", prog.arrays[a].name, off / esize);
            let verdict = match (kv, sv) {
                (Some(k), Some(s)) => compare(&pool, &names, k, s),
                (None, Some(s)) => CertVerdict::Refuted {
                    witness: format!(
                        "source computes {}, kernel never writes the cell",
                        pool.render_sval(s, &names)
                    ),
                },
                (Some(k), None) => CertVerdict::Refuted {
                    witness: format!(
                        "kernel computes {}, source never writes the cell",
                        pool.render_sval(k, &names)
                    ),
                },
                (None, None) => continue,
            };
            observables.push(CertObservable { name, verdict });
        }
    }
    Ok(observables)
}

/// Certify every region of `prog` at the given dims/scalars/extents.
pub fn certify_program(
    prog: &AnalyzedProgram,
    compiled: &[(usize, &CompiledRegion, LaunchDims)],
    scalars: &[Value],
    extents: &[Vec<u64>],
    ccfg: &CertConfig,
) -> Vec<CertReport> {
    compiled
        .iter()
        .map(|(region, c, dims)| certify_region(prog, *region, c, *dims, scalars, extents, ccfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompilerOptions;
    use crate::plan::LaunchDims;

    const SRC_INT_ADD: &str = r#"
        int N; int s;
        int a[N];
        #pragma acc parallel copyin(a)
        {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < N; i++) { s += a[i]; }
        }
    "#;

    fn certify_src(src: &str, opts: &CompilerOptions, n: i64) -> CertReport {
        let prog = accparse::compile(src).unwrap();
        let dims = LaunchDims {
            gangs: 2,
            workers: 2,
            vector: 64,
        };
        let compiled = crate::compile_region(&prog, 0, dims, opts).unwrap();
        let scalars: Vec<Value> = prog
            .hosts
            .iter()
            .map(|h| Value::I64(n).convert(machine_ty(h.ty)))
            .collect();
        let extents: Vec<Vec<u64>> = prog
            .arrays
            .iter()
            .map(|a| a.dims.iter().map(|_| n as u64).collect())
            .collect();
        certify_region(
            &prog,
            0,
            &compiled,
            dims,
            &scalars,
            &extents,
            &CertConfig::default(),
        )
    }

    #[test]
    fn int_add_reduction_certifies_exactly() {
        let rep = certify_src(SRC_INT_ADD, &CompilerOptions::openuh(), 5);
        assert_eq!(rep.verdict, CertVerdict::Certified, "{}", rep.render_text());
        assert!(rep.reductions.iter().any(|r| r == "(s, +, 0)"));
    }

    #[test]
    fn double_add_reduction_certifies_modulo_reassoc() {
        let src = r#"
            int N; double s;
            double a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang vector reduction(+:s)
                for (int i = 0; i < N; i++) { s += a[i]; }
            }
        "#;
        let rep = certify_src(src, &CompilerOptions::openuh(), 5);
        assert_eq!(
            rep.verdict,
            CertVerdict::CertifiedModuloReassoc,
            "{}",
            rep.render_text()
        );
    }

    #[test]
    fn skip_init_fold_bug_is_refuted() {
        let mut opts = CompilerOptions::openuh();
        opts.bugs.skip_init_fold = true;
        let rep = certify_src(SRC_INT_ADD, &opts, 5);
        assert!(
            matches!(rep.verdict, CertVerdict::Refuted { .. }),
            "{}",
            rep.render_text()
        );
    }

    #[test]
    fn elementwise_store_certifies() {
        let src = r#"
            int N;
            int a[N]; int b[N];
            #pragma acc parallel copyin(a) copyout(b)
            {
                #pragma acc loop gang vector
                for (int i = 0; i < N; i++) { b[i] = a[i] * 2; }
            }
        "#;
        let rep = certify_src(src, &CompilerOptions::openuh(), 5);
        assert_eq!(rep.verdict, CertVerdict::Certified, "{}", rep.render_text());
        // One observable per written cell.
        assert_eq!(rep.observables.len(), 5, "{}", rep.render_text());
    }

    #[test]
    fn logical_and_reduction_certifies() {
        let src = r#"
            int N; int ok;
            int a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang vector reduction(&&:ok)
                for (int i = 0; i < N; i++) { ok = ok && (a[i] < 100); }
            }
        "#;
        let rep = certify_src(src, &CompilerOptions::openuh(), 5);
        assert_eq!(rep.verdict, CertVerdict::Certified, "{}", rep.render_text());
    }
}
