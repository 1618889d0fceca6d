//! Reduction combine emitters: the paper's §3.1–§3.3.
//!
//! After a parallel loop with a `reduction` clause exits, each thread holds
//! a private partial in a register. These emitters consolidate the
//! partials:
//!
//! - span `[vector]`: per-worker row reduction in shared memory, row-wise
//!   (Fig. 6c, OpenUH) or transposed (Fig. 6b),
//! - span `[worker]`: lane-0 staging into the first row (Fig. 8c, OpenUH)
//!   or duplicated rows (Fig. 8b),
//! - span `[worker, vector]`: one block-wide tree (Fig. 9's RMP),
//! - spans including `gang`: per-participant partials written to a global
//!   buffer, reduced by a second kernel (Fig. 5c / Fig. 10),
//! - empty span (`seq` clause): plain serial fold.
//!
//! The tree itself is the interleaved log-step reduction of Fig. 7, fully
//! unrolled with warp-synchronous tail by default (§3.3), with a pre-step
//! that folds the non-power-of-two remainder first. All barriers are
//! emitted unconditionally for every thread of the block; participation is
//! handled with branches around the data movement only, which keeps
//! `__syncthreads()` uniform.

use super::{RedState, RegionCodegen};
use crate::options::{CombineSpace, CompilerOptions, TreeStyle, VectorLayout, WorkerStrategy};
use crate::types::{combine_binop, identity, machine_ty};
use accparse::ast::{CType, Level, RedOp};
use accparse::diag::Diag;
use gpsim::{
    BinOp, CmpOp, Kernel, KernelBuilder, MemRef, Operand, Reg, SimError, SpecialReg, Ty, Value,
    WARP_SIZE,
};

/// Where a combine stages its partials.
#[derive(Clone, Copy)]
pub(crate) enum TreeSpace {
    /// Shared-memory slab at byte offset `off`, element stride `esize`.
    Shared { off: u64, esize: u64 },
    /// Global staging buffer: `base` is a U64 register pointing at this
    /// block's window; 8-byte element stride.
    Global { base: Reg },
}

/// Load element `eidx` (I32/I64 register) of the staging area.
fn ld_elem(b: &mut KernelBuilder, space: TreeSpace, ty: Ty, eidx: Reg) -> Reg {
    match space {
        TreeSpace::Shared { off, esize } => b.ld_shared(
            ty,
            MemRef {
                base: Operand::Imm(Value::U64(off)),
                index: Some(eidx),
                scale: esize,
                disp: 0,
            },
        ),
        TreeSpace::Global { base } => b.ld_global(ty, MemRef::indexed(base, eidx, 8)),
    }
}

/// Store `v` to element `eidx` of the staging area.
fn st_elem(b: &mut KernelBuilder, space: TreeSpace, ty: Ty, eidx: Reg, v: Reg) {
    match space {
        TreeSpace::Shared { off, esize } => b.st_shared(
            ty,
            MemRef {
                base: Operand::Imm(Value::U64(off)),
                index: Some(eidx),
                scale: esize,
                disp: 0,
            },
            v,
        ),
        TreeSpace::Global { base } => b.st_global(ty, MemRef::indexed(base, eidx, 8), v),
    }
}

/// Affine element indexing for the tree: element `e` lives at
/// `e * mult + base_elem`.
#[derive(Clone, Copy)]
struct Layout {
    mult: u32,
    base_elem: Option<Reg>,
}

impl Layout {
    fn elem_idx(&self, b: &mut KernelBuilder, e: Reg) -> Reg {
        let scaled = if self.mult == 1 {
            e
        } else {
            b.bin(BinOp::Mul, Ty::I32, e, Value::I32(self.mult as i32))
        };
        match self.base_elem {
            None => scaled,
            Some(base) => b.bin(BinOp::Add, Ty::I32, scaled, base),
        }
    }
}

/// One guarded tree step: lanes `< limit` do
/// `elem[lane] = elem[lane] op elem[lane + delta]`.
#[allow(clippy::too_many_arguments)]
fn emit_step(
    b: &mut KernelBuilder,
    space: TreeSpace,
    layout: Layout,
    ty: Ty,
    op: BinOp,
    lane: Reg,
    limit: Operand,
    delta: Operand,
) {
    let p = b.cmp(CmpOp::Lt, Ty::I32, lane, limit);
    let skip = b.new_label();
    b.bra_unless(p, skip);
    let e1 = layout.elem_idx(b, lane);
    let lane2 = b.bin(BinOp::Add, Ty::I32, lane, delta);
    let e2 = layout.elem_idx(b, lane2);
    let a = ld_elem(b, space, ty, e1);
    let v = ld_elem(b, space, ty, e2);
    let r = b.bin(op, ty, a, v);
    st_elem(b, space, ty, e1, r);
    b.place(skip);
}

/// Emit the interleaved log-step tree over `n` staged elements.
///
/// `lane` is the participation index; `bars_allowed` gates every barrier
/// (it must equal `prepass::combine_has_bars` for the span); `warp_sync`
/// enables the §3.3 warp-synchronous tail (skip barriers once the active
/// step fits in one warp).
#[allow(clippy::too_many_arguments)]
fn emit_tree(
    b: &mut KernelBuilder,
    space: TreeSpace,
    layout: Layout,
    ty: Ty,
    op: BinOp,
    lane: Reg,
    n: u32,
    bars_allowed: bool,
    warp_sync: bool,
    style: TreeStyle,
) {
    if n <= 1 {
        return;
    }
    let p2 = super::prepass::next_pow2_at_most(n);
    // Pre-step for non-power-of-two group sizes (§3.3): fold the remainder
    // down onto the first `n - p2` elements.
    if p2 != n {
        let rem = n - p2;
        emit_step(
            b,
            space,
            layout,
            ty,
            op,
            lane,
            Value::I32(rem as i32).into(),
            Value::I32(p2 as i32).into(),
        );
        let need = if warp_sync {
            n > WARP_SIZE && bars_allowed
        } else {
            bars_allowed
        };
        if need {
            b.bar();
        }
    }
    match style {
        TreeStyle::Unrolled => {
            let mut s = p2 / 2;
            while s >= 1 {
                emit_step(
                    b,
                    space,
                    layout,
                    ty,
                    op,
                    lane,
                    Value::I32(s as i32).into(),
                    Value::I32(s as i32).into(),
                );
                let need = if warp_sync {
                    s > WARP_SIZE && bars_allowed
                } else {
                    bars_allowed
                };
                if need && s > 1 {
                    b.bar();
                }
                s /= 2;
            }
        }
        TreeStyle::Looped => {
            // s starts at p2/2 and halves every iteration, with a barrier
            // each time — the naive form (PGI-like personality).
            let s = b.mov_imm(Value::I32((p2 / 2) as i32));
            let top = b.new_label();
            let exit = b.new_label();
            b.place(top);
            let pc = b.cmp(CmpOp::Ge, Ty::I32, s, Value::I32(1));
            b.bra_unless(pc, exit);
            emit_step(b, space, layout, ty, op, lane, s.into(), s.into());
            if bars_allowed {
                b.bar();
            }
            b.bin_to(s, BinOp::Shr, Ty::I32, s, Value::I32(1));
            b.bra(top);
            b.place(exit);
        }
    }
}

impl<'a> RegionCodegen<'a> {
    /// Resolve the staging space for an in-kernel combine of element size
    /// `esize`.
    fn combine_space(&mut self, esize: u64) -> TreeSpace {
        match self.opts.combine_space {
            CombineSpace::Shared => TreeSpace::Shared {
                off: self.slab_off as u64,
                esize,
            },
            CombineSpace::Global => {
                let buf_idx = self
                    .plan
                    .global_combine_buf
                    .expect("prepass allocates the global combine buffer");
                let buf = self.buffer_regs[buf_idx];
                let ctaid = self.special(SpecialReg::CtaIdX);
                let tpb = self.dims.threads_per_block();
                let win = self
                    .b
                    .bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(tpb as i32 * 8));
                let win64 = self.b.cvt(Ty::U64, win);
                let base = self.b.bin(BinOp::Add, Ty::U64, buf, win64);
                TreeSpace::Global { base }
            }
        }
    }

    /// Fold the saved initial value into the tree result and write the
    /// final value back to the symbol's register.
    fn finish_combine(&mut self, st: &RedState, tree_result: Reg) {
        let ty = machine_ty(st.cty);
        let fin = if self.opts.bugs.skip_init_fold {
            tree_result
        } else {
            let f = self.b.reg();
            self.b.emit(gpsim::Inst::Mov {
                dst: f,
                src: st.saved_init,
            });
            self.accumulate(f, st.op, st.cty, tree_result);
            f
        };
        let dst = self.sym_target_reg(st.sym);
        let fin_t = self.b.cvt(ty, fin);
        self.b.mov_to(dst, fin_t);
    }

    /// Emit the combine for one reduction whose clause loop just exited.
    pub fn emit_combine(&mut self, st: &RedState) -> Result<(), Diag> {
        if st.span.is_empty() {
            // `seq` reduction: serial fold of this thread's private.
            self.finish_combine(st, st.priv_reg);
            return Ok(());
        }
        if st.span.contains(&Level::Gang) {
            self.emit_gang_partial(st);
            return Ok(());
        }
        let ty = machine_ty(st.cty);
        let esize = ty.size() as u64;
        let op = combine_binop(st.op);
        let space = self.combine_space(esize);
        let tpb = self.dims.threads_per_block();
        let bars = super::prepass::combine_has_bars(&st.span, self.dims, self.opts);
        let looped = self.opts.tree == TreeStyle::Looped;
        let lin = self.special(SpecialReg::LaneLinear);
        let tidx = self.special(SpecialReg::TidX);
        let tidy = self.special(SpecialReg::TidY);

        let (stage_idx, stage_guard, lane, layout, n, warp_sync): (
            Reg,
            Option<Reg>,
            Reg,
            Layout,
            u32,
            bool,
        ) = if st.span == [Level::Vector] {
            let mode = super::prepass::vector_bar_mode(self.dims);
            let warp_sync = !looped
                && (mode == super::prepass::VectorBarMode::WarpSyncTail
                    || (self.opts.bugs.warp_tail_everywhere
                        && mode == super::prepass::VectorBarMode::EveryStep));
            match self.opts.vector_layout {
                VectorLayout::RowWise => {
                    // Fig. 6c: element (w*vector + v); each row reduces over
                    // its own contiguous slice.
                    let base = self.b.bin(
                        BinOp::Mul,
                        Ty::I32,
                        tidy,
                        Value::I32(self.dims.vector as i32),
                    );
                    (
                        lin,
                        None,
                        tidx,
                        Layout {
                            mult: 1,
                            base_elem: Some(base),
                        },
                        self.dims.vector,
                        warp_sync,
                    )
                }
                VectorLayout::Transposed => {
                    // Fig. 6b: element (v*workers + w); reductions run down
                    // strided columns (bank conflicts).
                    let scaled = self.b.bin(
                        BinOp::Mul,
                        Ty::I32,
                        tidx,
                        Value::I32(self.dims.workers as i32),
                    );
                    let sidx = self.b.bin(BinOp::Add, Ty::I32, scaled, tidy);
                    (
                        sidx,
                        None,
                        tidx,
                        Layout {
                            mult: self.dims.workers,
                            base_elem: Some(tidy),
                        },
                        self.dims.vector,
                        warp_sync,
                    )
                }
            }
        } else if st.span == [Level::Worker] {
            match self.opts.worker_strategy {
                WorkerStrategy::FirstRow => {
                    // Fig. 8c: lane 0 of each worker stages at element w;
                    // the first `workers` linear lanes reduce.
                    let is_lane0 = self.b.cmp(CmpOp::Eq, Ty::I32, tidx, Value::I32(0));
                    (
                        tidy,
                        Some(is_lane0),
                        lin,
                        Layout {
                            mult: 1,
                            base_elem: None,
                        },
                        self.dims.workers,
                        !looped,
                    )
                }
                WorkerStrategy::DuplicateRows => {
                    // Fig. 8b: every lane stages its worker's partial at
                    // (v*workers + w); every row reduces in parallel with a
                    // barrier per step.
                    let scaled = self.b.bin(
                        BinOp::Mul,
                        Ty::I32,
                        tidx,
                        Value::I32(self.dims.workers as i32),
                    );
                    let sidx = self.b.bin(BinOp::Add, Ty::I32, scaled, tidy);
                    let base = self.b.bin(
                        BinOp::Mul,
                        Ty::I32,
                        tidx,
                        Value::I32(self.dims.workers as i32),
                    );
                    (
                        sidx,
                        None,
                        tidy,
                        Layout {
                            mult: 1,
                            base_elem: Some(base),
                        },
                        self.dims.workers,
                        false, // cross-row reads: barrier every step
                    )
                }
            }
        } else if st.span == [Level::Worker, Level::Vector] {
            // RMP across worker+vector (Fig. 9): one block-wide tree over
            // every thread's partial.
            (
                lin,
                None,
                lin,
                Layout {
                    mult: 1,
                    base_elem: None,
                },
                tpb,
                !looped,
            )
        } else {
            return Err(Diag::new(
                format!("internal: unexpected reduction span {:?}", st.span),
                accparse::diag::Span::default(),
            ));
        };

        // Stage the private partial.
        match stage_guard {
            None => st_elem(&mut self.b, space, ty, stage_idx, st.priv_reg),
            Some(g) => {
                let skip = self.b.new_label();
                self.b.bra_unless(g, skip);
                st_elem(&mut self.b, space, ty, stage_idx, st.priv_reg);
                self.b.place(skip);
            }
        }
        // Stage barrier: readers of staged data may sit in other warps.
        let stage_bar = if st.span == [Level::Vector] && !looped {
            super::prepass::vector_bar_mode(self.dims) != super::prepass::VectorBarMode::NoBars
        } else {
            tpb > WARP_SIZE
        };
        if stage_bar && bars && !self.opts.bugs.skip_stage_barrier {
            self.b.bar();
        }

        emit_tree(
            &mut self.b,
            space,
            layout,
            ty,
            op,
            lane,
            n,
            bars,
            warp_sync,
            self.opts.tree,
        );

        // Broadcast barrier, then every thread reads the group result.
        if bars && !self.opts.bugs.skip_bcast_barrier {
            self.b.bar();
        }
        let res_idx = match layout.base_elem {
            None => self.b.mov_imm(Value::I32(0)),
            Some(base) => base,
        };
        let res = ld_elem(&mut self.b, space, ty, res_idx);
        // Post-read barrier: the slab is reused by the next combine (the
        // enclosing loop's next iteration, or the next reduction sharing
        // the slab); without this, a fast warp re-stages over the result
        // before slow warps have read it.
        if bars && !self.opts.bugs.skip_postread_barrier {
            self.b.bar();
        }
        self.finish_combine(st, res);
        Ok(())
    }

    /// Gang-spanning reduction: each participant writes its partial to the
    /// global buffer for the second kernel (FinalizePass), or — under the
    /// atomic gang strategy — folds it into a single accumulator with one
    /// global atomic.
    fn emit_gang_partial(&mut self, st: &RedState) {
        let ty = machine_ty(st.cty);
        let esize = ty.size() as u64;
        let buf_idx = st.buffer.expect("gang reduction has a buffer");
        let atomic = self.plan.buffers[buf_idx].purpose == crate::plan::BufferPurpose::GangAtomic;
        let buf = self.buffer_regs[buf_idx];
        let ctaid = self.special(SpecialReg::CtaIdX);
        let tidx = self.special(SpecialReg::TidX);
        let tidy = self.special(SpecialReg::TidY);
        let lin = self.special(SpecialReg::LaneLinear);

        let has_w = st.span.contains(&Level::Worker);
        let has_v = st.span.contains(&Level::Vector);
        let (guard, idx): (Option<Reg>, Reg) = match (has_w, has_v) {
            (false, false) => {
                // [gang]: one partial per block, written by thread (0,0).
                let g = self.b.cmp(CmpOp::Eq, Ty::I32, lin, Value::I32(0));
                (Some(g), ctaid)
            }
            (true, false) => {
                // [gang, worker]: lane 0 of each worker writes.
                let g = self.b.cmp(CmpOp::Eq, Ty::I32, tidx, Value::I32(0));
                let scaled = self.b.bin(
                    BinOp::Mul,
                    Ty::I32,
                    ctaid,
                    Value::I32(self.dims.workers as i32),
                );
                let idx = self.b.bin(BinOp::Add, Ty::I32, scaled, tidy);
                (Some(g), idx)
            }
            (false, true) => {
                // [gang, vector]: worker rows execute redundantly; row 0
                // writes.
                let g = self.b.cmp(CmpOp::Eq, Ty::I32, tidy, Value::I32(0));
                let scaled = self.b.bin(
                    BinOp::Mul,
                    Ty::I32,
                    ctaid,
                    Value::I32(self.dims.vector as i32),
                );
                let idx = self.b.bin(BinOp::Add, Ty::I32, scaled, tidx);
                (Some(g), idx)
            }
            (true, true) => {
                // [gang, worker, vector]: every thread writes.
                let tpb = self.dims.threads_per_block();
                let scaled = self
                    .b
                    .bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(tpb as i32));
                let idx = self.b.bin(BinOp::Add, Ty::I32, scaled, lin);
                (None, idx)
            }
        };
        let store = |cg: &mut Self, idx: Reg| {
            if atomic {
                let aop = crate::types::atomic_op(st.op)
                    .expect("prepass only selects atomic for atomic-capable ops");
                let v = if st.op.is_logical() {
                    let p = cg.b.cmp(CmpOp::Ne, ty, st.priv_reg, Value::zero(ty));
                    cg.b.select(p, Value::I32(1), Value::I32(0))
                } else {
                    st.priv_reg
                };
                cg.b.atom_global(aop, ty, MemRef::direct(buf), v, false);
            } else {
                let idx64 = cg.b.cvt(Ty::I64, idx);
                cg.b.st_global(ty, MemRef::indexed(buf, idx64, esize), st.priv_reg);
            }
        };
        match guard {
            None => store(self, idx),
            Some(g) => {
                let skip = self.b.new_label();
                self.b.bra_unless(g, skip);
                store(self, idx);
                self.b.place(skip);
            }
        }
    }
}

/// Build the second-pass kernel that reduces a gang-partials buffer of
/// `op`/`cty` down to its element 0 using one block of `threads` threads
/// (power of two). Parameters: `[0]` buffer address, `[1]` element count.
///
/// A malformed kernel (e.g. a never-placed label from a broken tree
/// emitter) surfaces as a build error rather than a panic; the caller
/// attaches the region's source span.
pub(crate) fn build_finalize_kernel(
    op: RedOp,
    cty: CType,
    threads: u32,
    opts: &CompilerOptions,
) -> Result<Kernel, SimError> {
    debug_assert!(threads.is_power_of_two());
    let ty = machine_ty(cty);
    let esize = ty.size() as u64;
    let mut b = KernelBuilder::new(format!(
        "acc_reduce_final_{}_{}",
        op.clause_token().replace(['+', '*', '&', '|', '^'], "op"),
        cty
    ));
    let buf = b.param(0);
    let n = b.param(1);
    let tid = b.special(SpecialReg::TidX);

    // Grid-stride private accumulation (window sliding over the buffer).
    let acc = b.mov_imm(identity(op, cty));
    let i = b.mov(tid);
    let top = b.new_label();
    let exit = b.new_label();
    b.place(top);
    let p = b.cmp(CmpOp::Ge, Ty::I32, i, n);
    b.bra_if(p, exit);
    let i64r = b.cvt(Ty::I64, i);
    let v = b.ld_global(ty, MemRef::indexed(buf, i64r, esize));
    b.bin_to(acc, combine_binop(op), ty, acc, v);
    b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(threads as i32));
    b.bra(top);
    b.place(exit);

    // Shared tree over the block.
    let slab = b.alloc_shared(threads as usize * esize as usize, 8) as u64;
    let space = TreeSpace::Shared { off: slab, esize };
    st_elem(&mut b, space, ty, tid, acc);
    let bars = threads > WARP_SIZE;
    if bars {
        b.bar();
    }
    emit_tree(
        &mut b,
        space,
        Layout {
            mult: 1,
            base_elem: None,
        },
        ty,
        combine_binop(op),
        tid,
        threads,
        bars,
        opts.tree != TreeStyle::Looped,
        opts.tree,
    );
    if bars {
        b.bar();
    }
    // Thread 0 writes the result back over element 0.
    let is0 = b.cmp(CmpOp::Eq, Ty::I32, tid, Value::I32(0));
    let skip = b.new_label();
    b.bra_unless(is0, skip);
    let zero = b.mov_imm(Value::I32(0));
    let r = ld_elem(&mut b, space, ty, zero);
    let z64 = b.cvt(Ty::I64, zero);
    b.st_global(ty, MemRef::indexed(buf, z64, esize), r);
    b.place(skip);
    b.try_finish()
}
