//! Code generation: lower an analyzed OpenACC region to simulator kernels.
//!
//! This is the paper's contribution: the mapping of gang/worker/vector
//! loops onto the SIMT thread hierarchy (Fig. 3) and the parallelization
//! of reduction operations at every combination of levels (§3.1–§3.3).

pub(crate) mod expr;
mod loops;
pub(crate) mod prepass;
mod reduce;

use crate::options::CompilerOptions;
use crate::plan::{CompiledRegion, LaunchDims, ParamSpec};
use crate::types::{identity, machine_ty};
use accparse::ast::{CType, Level, RedOp};
use accparse::diag::{Diag, Span};
use accparse::hir::{AnalyzedProgram, AnalyzedRegion, HStmt, Sym};
use gpsim::{CmpOp, KernelBuilder, Reg, SpecialReg, Ty, Value};
use prepass::{prepass, Plan};
use std::collections::HashMap;

/// State of one active reduction while its clause loop's body is lowered.
pub(crate) struct RedState {
    pub sym: Sym,
    pub op: RedOp,
    pub cty: CType,
    /// Per-thread private partial accumulator.
    pub priv_reg: Reg,
    /// Value of the variable at loop entry (folded in after the combine).
    pub saved_init: Reg,
    /// Effective span levels.
    pub span: Vec<Level>,
    /// Gang partials buffer index, when gang-spanning.
    pub buffer: Option<usize>,
}

/// The region code generator.
pub(crate) struct RegionCodegen<'a> {
    pub prog: &'a AnalyzedProgram,
    pub region: &'a AnalyzedRegion,
    pub opts: &'a CompilerOptions,
    pub dims: LaunchDims,
    pub plan: Plan,
    pub b: KernelBuilder,

    // Symbol state.
    pub local_regs: Vec<Reg>,
    pub host_regs: HashMap<usize, Reg>,
    pub array_base: HashMap<usize, Reg>,
    /// Per array: dimension extents as I64 regs.
    pub array_dims64: HashMap<usize, Vec<Reg>>,
    /// Temp buffer base addresses.
    pub buffer_regs: Vec<Reg>,
    pub params: Vec<ParamSpec>,

    // Walk state.
    pub red_stack: Vec<RedState>,
    /// Active-iteration predicate inside padded loops.
    pub active: Option<Reg>,
    pub next_loop_id: usize,
    pub next_red_id: usize,
    pub specials: HashMap<SpecialReg, Reg>,
    /// Shared slab byte offset for combines.
    pub slab_off: usize,
}

/// Compile region `region_idx` of `prog` for the given launch dims and
/// strategy options.
pub fn compile_region(
    prog: &AnalyzedProgram,
    region_idx: usize,
    dims: LaunchDims,
    opts: &CompilerOptions,
) -> Result<CompiledRegion, Diag> {
    let region = &prog.regions[region_idx];
    if dims.gangs == 0 || dims.workers == 0 || dims.vector == 0 {
        return Err(Diag::new("launch dimensions must be positive", region.span));
    }
    let plan = prepass(region, dims, opts)?;

    let mut cg = RegionCodegen {
        prog,
        region,
        opts,
        dims,
        b: KernelBuilder::new(format!("acc_region_{region_idx}")),
        local_regs: Vec::new(),
        host_regs: HashMap::new(),
        array_base: HashMap::new(),
        array_dims64: HashMap::new(),
        buffer_regs: Vec::new(),
        params: Vec::new(),
        red_stack: Vec::new(),
        active: None,
        next_loop_id: 0,
        next_red_id: 0,
        specials: HashMap::new(),
        slab_off: 0,
        plan,
    };
    // Source correlation: instructions are tagged with the region's
    // directive line until a loop or reduction update narrows it.
    cg.b.set_line(prog.line_of(region.span.start));
    cg.emit_entry();
    let body = region.body.clone();
    cg.stmts(&body)?;
    cg.emit_writebacks();

    // Finalize kernels for gang-spanning reductions, in plan order.
    let mut finalize = Vec::new();
    for (i, spec) in cg.plan.buffers.iter().enumerate() {
        if spec.purpose == crate::plan::BufferPurpose::GangPartials {
            let rr = cg
                .plan
                .results
                .iter()
                .find(|r| r.buffer == i)
                .expect("gang buffer always has a result read");
            let threads = cg
                .opts
                .finalize_threads
                .clamp(gpsim::WARP_SIZE, 1024)
                .next_power_of_two()
                .min(1024);
            let kernel = reduce::build_finalize_kernel(rr.op, spec.ty, threads, cg.opts)
                .map_err(|e| Diag::new(e.to_string(), region.span))?;
            finalize.push(crate::plan::FinalizePass {
                kernel: std::sync::Arc::new(kernel),
                buffer: i,
                elems: spec.elems,
                threads,
            });
        }
    }

    let main =
        cg.b.try_finish()
            .map_err(|e| Diag::new(e.to_string(), region.span))?;
    Ok(CompiledRegion {
        main: std::sync::Arc::new(main),
        dims,
        params: cg.params,
        buffers: cg.plan.buffers.clone(),
        finalize,
        results: cg.plan.results.clone(),
        writebacks: cg.plan.writebacks.clone(),
        mailbox: cg.plan.mailbox,
        kverify_gate: std::sync::OnceLock::new(),
    })
}

impl<'a> RegionCodegen<'a> {
    /// Cached read of a special register (uniform per thread, so caching a
    /// single entry-block read is sound).
    pub fn special(&mut self, sr: SpecialReg) -> Reg {
        if let Some(&r) = self.specials.get(&sr) {
            return r;
        }
        let r = self.b.special(sr);
        self.specials.insert(sr, r);
        r
    }

    /// Load all kernel parameters and set up symbol registers. Runs before
    /// any control flow so that every thread executes every `ReadParam`.
    fn emit_entry(&mut self) {
        // Pre-read the specials codegen uses so they sit in the entry block.
        for sr in [
            SpecialReg::TidX,
            SpecialReg::TidY,
            SpecialReg::CtaIdX,
            SpecialReg::LaneLinear,
        ] {
            self.special(sr);
        }
        // Arrays: base + dims.
        let bindings = self.region.data.clone();
        for db in &bindings {
            let idx = self.params.len() as u32;
            self.params.push(ParamSpec::ArrayBase(db.array));
            let base = self.b.param(idx);
            self.array_base.insert(db.array, base);
            let ndims = self.prog.arrays[db.array].dims.len();
            let mut dim_regs = Vec::new();
            for d in 0..ndims {
                let idx = self.params.len() as u32;
                self.params.push(ParamSpec::ArrayDim {
                    array: db.array,
                    dim: d,
                });
                let r = self.b.param(idx);
                let r64 = self.b.cvt(Ty::I64, r);
                dim_regs.push(r64);
            }
            self.array_dims64.insert(db.array, dim_regs);
        }
        // Host scalars.
        let hosts = self.region.hosts_used.clone();
        for h in hosts {
            let idx = self.params.len() as u32;
            self.params.push(ParamSpec::HostScalar(h));
            let r = self.b.param(idx);
            self.host_regs.insert(h, r);
        }
        // Temp buffers.
        for i in 0..self.plan.buffers.len() {
            let idx = self.params.len() as u32;
            self.params.push(ParamSpec::TempBuffer(i));
            let r = self.b.param(idx);
            self.buffer_regs.push(r);
        }
        // Locals: one register each, zero-initialized by the machine.
        for _ in 0..self.region.locals.len() {
            let r = self.b.reg();
            self.local_regs.push(r);
        }
        // Shared slab for combines.
        if self.plan.slab_bytes > 0 {
            self.slab_off = self.b.alloc_shared(self.plan.slab_bytes, 8);
        }
    }

    /// Current register holding a scalar symbol's value. Reads of an
    /// active reduction variable see the private partial (OpenACC
    /// private-copy semantics).
    pub fn sym_reg(&self, sym: Sym) -> Reg {
        if let Some(rs) = self.red_stack.iter().rev().find(|r| r.sym == sym) {
            return rs.priv_reg;
        }
        match sym {
            Sym::Local(i) => self.local_regs[i],
            Sym::Host(i) => self.host_regs[&i],
        }
    }

    /// Target register for assigning a scalar symbol (never the private —
    /// plain assignment to an active reduction variable is rejected by
    /// sema, so this is only reached for ordinary scalars).
    pub fn sym_target_reg(&self, sym: Sym) -> Reg {
        match sym {
            Sym::Local(i) => self.local_regs[i],
            Sym::Host(i) => self.host_regs[&i],
        }
    }

    /// Run `f` under the active-iteration guard, if one is in effect:
    /// inactive threads skip the emitted code entirely. Must not be used
    /// around code containing barriers.
    pub fn guarded(&mut self, f: impl FnOnce(&mut Self) -> Result<(), Diag>) -> Result<(), Diag> {
        match self.active {
            None => f(self),
            Some(p) => {
                let skip = self.b.new_label();
                self.b.bra_unless(p, skip);
                f(self)?;
                self.b.place(skip);
                Ok(())
            }
        }
    }

    // ---- statement walk ----------------------------------------------------

    pub fn stmts(&mut self, stmts: &[HStmt]) -> Result<(), Diag> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &HStmt) -> Result<(), Diag> {
        match s {
            HStmt::AssignLocal { local, value } => {
                let (local, value) = (*local, value.clone());
                self.guarded(|cg| {
                    let v = cg.expr(&value)?;
                    let dst = cg.local_regs[local];
                    cg.b.mov_to(dst, v);
                    Ok(())
                })
            }
            HStmt::AssignHost { host, value } => {
                let (host, value) = (*host, value.clone());
                self.guarded(|cg| {
                    let v = cg.expr(&value)?;
                    let dst = cg.host_regs[&host];
                    cg.b.mov_to(dst, v);
                    Ok(())
                })
            }
            HStmt::Store {
                array,
                indices,
                value,
            } => {
                let (array, indices, value) = (*array, indices.clone(), value.clone());
                self.guarded(|cg| {
                    let off = cg.element_offset(array, &indices)?;
                    let v = cg.expr(&value)?;
                    let ety = machine_ty(cg.prog.arrays[array].ty);
                    let base = cg.array_base[&array];
                    cg.b.st_global(ety, gpsim::MemRef::indexed(base, off, ety.size() as u64), v);
                    Ok(())
                })
            }
            HStmt::ReduceUpdate {
                sym,
                op,
                value,
                span,
            } => {
                let (sym, op, value, span) = (*sym, *op, value.clone(), *span);
                self.reduce_update(sym, op, &value, span)
            }
            HStmt::If { cond, then, els } => {
                let (cond, then, els) = (cond.clone(), then.clone(), els.clone());
                self.guarded(|cg| {
                    let p = cg.expr_pred(&cond)?;
                    let l_else = cg.b.new_label();
                    let l_end = cg.b.new_label();
                    cg.b.bra_unless(p, l_else);
                    cg.stmts(&then)?;
                    cg.b.bra(l_end);
                    cg.b.place(l_else);
                    cg.stmts(&els)?;
                    cg.b.place(l_end);
                    Ok(())
                })
            }
            HStmt::Loop(l) => {
                let l = l.clone();
                self.emit_loop(&l)
            }
        }
    }

    /// Accumulate a reduction update into the innermost matching private.
    fn reduce_update(
        &mut self,
        sym: Sym,
        op: RedOp,
        value: &accparse::hir::HExpr,
        span: Span,
    ) -> Result<(), Diag> {
        let Some(idx) = self.red_stack.iter().rposition(|r| r.sym == sym) else {
            return Err(Diag::new(
                "internal: reduction update outside any active reduction",
                span,
            ));
        };
        let (priv_reg, cty) = (self.red_stack[idx].priv_reg, self.red_stack[idx].cty);
        let _ = op;
        let red_op = self.red_stack[idx].op;
        let saved_line = self.b.current_line();
        self.b.set_line(self.prog.line_of(span.start));
        let r = self.guarded(|cg| {
            let v = cg.expr(value)?;
            cg.accumulate(priv_reg, red_op, cty, v);
            Ok(())
        });
        self.b.set_line(saved_line);
        r
    }

    /// `acc = acc <op> v` at the reduction's machine type. Logical ops
    /// normalize `v` to 0/1 first.
    pub fn accumulate(&mut self, acc: Reg, op: RedOp, cty: CType, v: Reg) {
        let ty = machine_ty(cty);
        let v = if op.is_logical() {
            let p = self.b.cmp(CmpOp::Ne, ty, v, Value::zero(ty));
            self.b.select(p, Value::I32(1), Value::I32(0))
        } else {
            v
        };
        self.b
            .bin_to(acc, crate::types::combine_binop(op), ty, acc, v);
    }

    /// Fresh register holding the identity element for (op, ty).
    pub fn identity_reg(&mut self, op: RedOp, cty: CType) -> Reg {
        self.b.mov_imm(identity(op, cty))
    }

    /// Emit end-of-kernel writebacks of host scalars via the mailbox.
    fn emit_writebacks(&mut self) {
        let Some(mb) = self.plan.mailbox else { return };
        if self.plan.writebacks.is_empty() {
            return;
        }
        let linear = self.special(SpecialReg::LaneLinear);
        let is0 = self.b.cmp(CmpOp::Eq, Ty::I32, linear, Value::I32(0));
        let skip = self.b.new_label();
        self.b.bra_unless(is0, skip);
        let base = self.buffer_regs[mb];
        let wbs = self.plan.writebacks.clone();
        for wb in wbs {
            let ty = machine_ty(self.prog.hosts[wb.host].ty);
            let v = self.host_regs[&wb.host];
            self.b.st_global(
                ty,
                gpsim::MemRef::direct(base).with_disp(wb.slot as i64 * 8),
                v,
            );
        }
        self.b.place(skip);
    }

    /// Compute the row-major linear element offset of `array[indices...]`
    /// as an I64 register.
    pub fn element_offset(
        &mut self,
        array: usize,
        indices: &[accparse::hir::HExpr],
    ) -> Result<Reg, Diag> {
        let dims = self.array_dims64[&array].clone();
        debug_assert_eq!(dims.len(), indices.len());
        let mut off: Option<Reg> = None;
        for (d, ix) in indices.iter().enumerate() {
            let ix_reg = self.expr(ix)?;
            let ix64 = self.b.cvt(Ty::I64, ix_reg);
            off = Some(match off {
                None => ix64,
                Some(acc) => {
                    let scaled = self.b.bin(gpsim::BinOp::Mul, Ty::I64, acc, dims[d]);
                    self.b.bin(gpsim::BinOp::Add, Ty::I64, scaled, ix64)
                }
            });
        }
        Ok(off.expect("arrays have at least one dimension"))
    }
}
