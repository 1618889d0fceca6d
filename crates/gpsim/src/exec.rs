//! The SIMT interpreter.
//!
//! A launch is a grid of thread blocks; blocks are independent (no
//! inter-block synchronization — the property the paper's gang-reduction
//! strategy works around with a second kernel). Within a block, lanes run
//! by the SIMT rule of [`crate::warp`] — warps, min-PC groups, run-to-block
//! scheduling and barrier rounds — which the typed tier and redcert's
//! executor share; this module gives each instruction its meaning.
//!
//! # Parallel block execution
//!
//! Blocks may execute on multiple host worker threads
//! ([`DeviceConfig::host_threads`], `UHACC_HOST_THREADS`), with a hard
//! guarantee: **every observable output — memory contents, results,
//! [`LaunchStats`], modelled cycles, traces, hazard reports, and errors —
//! is bit-identical to the sequential executor at any thread count.**
//!
//! The scheme: each block runs against a frozen snapshot of global memory
//! through a copy-on-write `BlockOverlay` that buffers its writes,
//! defers its atomics into a log, and records which pages it read. When
//! all blocks finish, a serial committer folds the overlays back **in
//! linear block-id order** — dirty bytes first, then the atomic log (so
//! cross-block atomic combination, including floating point where order
//! changes the bits, happens in exactly the sequential order). Traces,
//! sanitizer logs and profiles are captured per block and merged in the
//! same order. The sequential executor runs each block on global memory
//! directly and then goes through the same commit, which is also the only
//! place blocks reach the launch schedule in [`crate::cost`]: both paths
//! share one block driver and one commit by construction.
//!
//! Programs whose blocks genuinely communicate can't be replayed this way
//! bit-identically, so the executor detects them and falls back to the
//! sequential path before any state is mutated:
//! - statically, a kernel using value-returning atomics (`dst`) never
//!   takes the parallel path (the returned "old" value depends on
//!   inter-block order);
//! - dynamically, a block mixing plain and atomic accesses to one address
//!   aborts the parallel attempt;
//! - at commit, a block that read any page an earlier block wrote aborts
//!   the commit (conservative, page-granular read/write overlap check).
//!
//! The fallback re-runs the whole launch sequentially on the untouched
//! base memory, so fallbacks cost time but never change results. Errors
//! are deterministic too: the committed prefix is exactly blocks `0..=k`
//! where `k` is the lowest block id that failed, and `k`'s error is the
//! one returned — the same partial state a sequential run leaves behind.

use crate::coalesce::{bank_conflict_degree, global_transactions};
use crate::compiled::{TypedKernel, TypedState};
use crate::cost::{CostModel, DeviceConfig, Schedule};
use crate::error::SimError;
use crate::ir::{
    Access, AtomOp, BinOp, CmpOp, CostClass, Inst, Kernel, MemRef, Operand, Space, UnOp,
};
use crate::memory::{
    AccessAbort, AddrSet, AtomicLogEntry, BlockOverlay, GlobalMemory, OverlayData, SharedMemory,
};
use crate::profile::{BlockProfile, LaunchProfile, PcCounters};
use crate::sanitizer::{BlockLog, BlockSanitizer, LaunchSanitizer, SanitizerConfig};
use crate::stats::LaunchStats;
use crate::trace::{MemTouch, Trace, TraceEvent};
use crate::types::{Ty, Value};
use crate::warp::{self, BarrierRound, Thread, WARP_SIZE};

/// Grid/block geometry for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// `(gridDim.x, gridDim.y)`
    pub grid: (u32, u32),
    /// `(blockDim.x, blockDim.y)`
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// 1-D launch helper: `grid_x` blocks of `block_x` threads.
    pub fn d1(grid_x: u32, block_x: u32) -> Self {
        LaunchConfig {
            grid: (grid_x, 1),
            block: (block_x, 1),
        }
    }

    /// 2-D block helper with a 1-D grid, the paper's gang/worker/vector
    /// shape: `gangs` blocks of `vector x workers` threads.
    pub fn gwv(gangs: u32, workers: u32, vector: u32) -> Self {
        LaunchConfig {
            grid: (gangs, 1),
            block: (vector, workers),
        }
    }

    /// Threads per block. Saturating: absurd dimensions must reach
    /// [`LaunchConfig::validate`]'s rejection path, not panic on the
    /// multiply in debug builds (validate re-checks the exact product).
    pub fn threads_per_block(&self) -> u32 {
        self.block.0.saturating_mul(self.block.1)
    }

    /// Number of blocks in the grid (saturating, same rationale as
    /// [`LaunchConfig::threads_per_block`]).
    pub fn num_blocks(&self) -> u32 {
        self.grid.0.saturating_mul(self.grid.1)
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(WARP_SIZE)
    }

    /// Block coordinates of linear block id `id` (every engine runs blocks
    /// in linear order, `by` outer and `bx` inner: `id = by * grid.0 + bx`).
    pub(crate) fn block_coords(&self, id: usize) -> (u32, u32) {
        ((id as u32) % self.grid.0, (id as u32) / self.grid.0)
    }

    /// Validate against device limits.
    pub fn validate(&self, dev: &DeviceConfig) -> Result<(), SimError> {
        if self.threads_per_block() == 0 || self.num_blocks() == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "empty grid or block".into(),
            });
        }
        // Exact (u64) products: the u32 accessors saturate, so re-derive
        // the true sizes here to reject dimension combinations whose
        // products overflow `u32` instead of silently clamping them.
        let threads = self.block.0 as u64 * self.block.1 as u64;
        if threads > dev.max_threads_per_block as u64 {
            return Err(SimError::InvalidLaunch {
                reason: format!(
                    "{threads} threads per block exceeds device limit {}",
                    dev.max_threads_per_block
                ),
            });
        }
        let blocks = self.grid.0 as u64 * self.grid.1 as u64;
        if blocks > u32::MAX as u64 {
            return Err(SimError::InvalidLaunch {
                reason: format!("grid of {blocks} blocks exceeds the u32 block-id space"),
            });
        }
        Ok(())
    }
}

/// A block's view of global memory: direct (sequential executor, mutating
/// the real memory in place) or buffered through a copy-on-write overlay
/// (parallel executor; committed later in block-id order).
pub(crate) enum MemView<'g> {
    Direct(&'g mut GlobalMemory),
    Overlay(BlockOverlay<'g>),
}

impl MemView<'_> {
    pub(crate) fn read(&mut self, ty: Ty, addr: u64) -> Result<Value, AccessAbort> {
        match self {
            MemView::Direct(g) => Ok(g.read(ty, addr)?),
            MemView::Overlay(o) => o.read(ty, addr),
        }
    }

    pub(crate) fn write(&mut self, addr: u64, v: Value) -> Result<(), AccessAbort> {
        match self {
            MemView::Direct(g) => Ok(g.write(addr, v)?),
            MemView::Overlay(o) => o.write(addr, v),
        }
    }

    /// Bit-encoding read for the typed tier (identical bounds, fallback,
    /// and bit semantics to [`MemView::read`]).
    pub(crate) fn read_bits(&mut self, ty: Ty, addr: u64) -> Result<u64, AccessAbort> {
        match self {
            MemView::Direct(g) => Ok(g.read_bits(ty, addr)?),
            MemView::Overlay(o) => o.read_bits(ty, addr),
        }
    }

    /// Bit-encoding write for the typed tier.
    pub(crate) fn write_bits(&mut self, ty: Ty, addr: u64, bits: u64) -> Result<(), AccessAbort> {
        match self {
            MemView::Direct(g) => Ok(g.write_bits(ty, addr, bits)?),
            MemView::Overlay(o) => o.write_bits(ty, addr, bits),
        }
    }

    /// Coalesced span read; `false` means the caller must replay per-lane
    /// (the fast path has then touched nothing).
    pub(crate) fn read_span_bits(&mut self, ty: Ty, addr: u64, out: &mut [u64]) -> bool {
        match self {
            MemView::Direct(g) => g.read_span_bits(ty, addr, out),
            MemView::Overlay(o) => o.read_span_bits(ty, addr, out),
        }
    }

    /// Coalesced span write; `false` means the caller must replay per-lane.
    pub(crate) fn write_span_bits(&mut self, ty: Ty, addr: u64, src: &[u64]) -> bool {
        match self {
            MemView::Direct(g) => g.write_span_bits(ty, addr, src),
            MemView::Overlay(o) => o.write_span_bits(ty, addr, src),
        }
    }

    /// Perform (direct) or defer (overlay) one lane's atomic; `v` is
    /// already converted to `ty`. Returns the old value when it is
    /// immediately known, i.e. on the direct path only.
    pub(crate) fn atom(
        &mut self,
        op: AtomOp,
        ty: Ty,
        addr: u64,
        v: Value,
    ) -> Result<Option<Value>, AccessAbort> {
        match self {
            MemView::Direct(g) => {
                let old = g.read(ty, addr)?;
                let new = apply_atom(op, ty, old, v)?;
                g.write(addr, new)?;
                Ok(Some(old))
            }
            MemView::Overlay(o) => {
                // Same error precedence as the direct path: bounds first
                // (the `read`), then operation validity (the `eval_bin`).
                // AtomOp has no Div/Rem, so validity depends only on
                // (op, ty) — a dry run against `v` itself surfaces the
                // identical TypeError the deferred replay would hit.
                o.check(addr, ty.size())?;
                apply_atom(op, ty, v, v)?;
                o.log_atomic(AtomicLogEntry {
                    op,
                    ty,
                    addr,
                    val: v,
                })?;
                Ok(None)
            }
        }
    }
}

/// Combine one atomic operation; `old` and `v` are already at type `ty`.
pub(crate) fn apply_atom(op: AtomOp, ty: Ty, old: Value, v: Value) -> Result<Value, SimError> {
    Ok(match op {
        AtomOp::Add => eval_bin(BinOp::Add, ty, old, v)?,
        AtomOp::Min => eval_bin(BinOp::Min, ty, old, v)?,
        AtomOp::Max => eval_bin(BinOp::Max, ty, old, v)?,
        AtomOp::And => eval_bin(BinOp::And, ty, old, v)?,
        AtomOp::Or => eval_bin(BinOp::Or, ty, old, v)?,
        AtomOp::Xor => eval_bin(BinOp::Xor, ty, old, v)?,
        AtomOp::Exch => v,
    })
}

/// Executes one block; owns the block's threads, shared memory, memory
/// view, and (when enabled) its trace buffer and sanitizer shadow.
pub(crate) struct BlockExec<'a, 'g> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) params: &'a [Value],
    pub(crate) threads: Vec<Thread<Value>>,
    pub(crate) shared: SharedMemory,
    pub(crate) block_idx: (u32, u32),
    pub(crate) cfg: LaunchConfig,
    pub(crate) dev: &'a DeviceConfig,
    pub(crate) cost: &'a CostModel,
    pub(crate) stats: LaunchStats,
    pub(crate) cycles_raw: u64,
    // scratch buffers reused across warp steps
    pub(crate) scratch_addr: Vec<(u64, usize)>,
    pub(crate) view: MemView<'g>,
    pub(crate) trace: Option<Trace>,
    pub(crate) san: Option<&'a mut BlockSanitizer>,
    pub(crate) prof: Option<BlockProfile>,
}

impl BlockExec<'_, '_> {
    fn operand(&self, lane: usize, op: Operand) -> Value {
        match op {
            Operand::Reg(r) => self.threads[lane].regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn resolve_mref(&self, lane: usize, m: &MemRef) -> u64 {
        let base = self.operand(lane, m.base).as_u64();
        let idx = m
            .index
            .map_or(0, |r| self.threads[lane].regs[r.0 as usize].as_i64());
        mref_addr(base, idx, m.scale as i64, m.disp)
    }

    /// Post-access bookkeeping shared by the memory arms: annotate the
    /// just-recorded trace event with the warp's touched address range
    /// and feed the sanitizer, in the space and with the kind of the
    /// access at `pc`. `scratch_addr` holds one access per active
    /// lane — or, from the typed tier, the single access every lane of the
    /// warp makes (same range; the sanitizer still records every lane).
    pub(crate) fn observe_mem(&mut self, mask: &[usize], warp_id: u32, pc: usize, recorded: bool) {
        if !recorded && self.san.is_none() {
            return;
        }
        let Access { space, kind, .. } = self.kernel.insts[pc]
            .access()
            .expect("only memory instructions are observed");
        if recorded {
            // Saturating: a wild pointer near `u64::MAX` must clamp the
            // annotation, not overflow (the access itself is rejected by
            // the bounds check — which for shared loads runs *after* this
            // observation point).
            let lo = self.scratch_addr.iter().map(|&(a, _)| a).min().unwrap_or(0);
            let hi = self
                .scratch_addr
                .iter()
                .map(|&(a, s)| a.saturating_add(s as u64))
                .max()
                .unwrap_or(0);
            if let Some(t) = self.trace.as_mut() {
                t.annotate_mem(MemTouch { space, lo, hi });
            }
        }
        if let Some(s) = self.san.as_deref_mut() {
            s.warp_step(warp_id, pc, space, kind, mask, &self.scratch_addr);
        }
    }

    /// Run the block to completion — on the typed tier when the launch
    /// has a `typed` state (see [`crate::compiled`]), else interpreted. On
    /// success, `cycles_raw` holds every cycle the block's steps charged.
    fn run(&mut self, typed: Option<&mut TypedState>) -> Result<(), AccessAbort> {
        if let Some(st) = typed {
            return crate::compiled::run_block(self, st);
        }
        let mut mask = Vec::with_capacity(WARP_SIZE as usize);
        loop {
            // Run every warp until it blocks (exit or barrier).
            for w in 0..self.cfg.warps_per_block() as usize {
                let lanes = warp::lanes(w, self.threads.len());
                while let Some((pc, _)) = warp::next_group(&self.threads, lanes.clone(), &mut mask)
                {
                    self.step(&mask, pc, w as u32)?;
                    self.watchdog()?;
                }
            }
            if !self.barrier_round()? {
                break;
            }
        }
        Ok(())
    }

    /// Abort the launch when the per-block warp-instruction watchdog
    /// tripped. Checked after every warp-step on both executor tiers.
    pub(crate) fn watchdog(&self) -> Result<(), AccessAbort> {
        if self.cost.watchdog_warp_insts > 0
            && self.stats.warp_insts > self.cost.watchdog_warp_insts
        {
            return Err(SimError::Watchdog {
                executed_insts: self.stats.warp_insts,
            }
            .into());
        }
        Ok(())
    }

    /// All warps are blocked: run the barrier round. Returns `Ok(false)`
    /// when every thread has exited (the block is done), `Ok(true)` after
    /// a release; divergent barrier sites fail the block.
    pub(crate) fn barrier_round(&mut self) -> Result<bool, AccessAbort> {
        match warp::barrier_round(&mut self.threads) {
            BarrierRound::Done => Ok(false),
            BarrierRound::Released => {
                if let Some(s) = self.san.as_mut() {
                    s.barrier_release();
                }
                if let Some(p) = self.prof.as_mut() {
                    p.barrier_release();
                }
                Ok(true)
            }
            BarrierRound::Divergent { sites } => {
                let (pc_a, pc_b) = (sites[0].0, sites[1].0);
                if let Some(s) = self.san.as_mut() {
                    let detail = sites
                        .iter()
                        .map(|(pc, n)| format!("{n} thread(s) at pc {pc}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    s.sync_divergence(pc_a, pc_b, detail);
                }
                Err(SimError::BarrierDivergence {
                    block: self.block_idx,
                    pc_a,
                    pc_b,
                }
                .into())
            }
        }
    }

    /// Charge a step's memory, atomic or barrier cost to the launch
    /// statistics and the raw cycles and, when `OBSERVED`, to the
    /// profiler's buckets in `d`. `units` is what the class is charged per:
    /// the access's transactions (global) or bank ways (shared), or the
    /// atomic's active lanes. Both engines charge through here and differ
    /// only in how they count `units`; the ALU and issue cycles are a
    /// constant of the instruction, charged by the caller.
    #[inline(always)]
    pub(crate) fn charge<const OBSERVED: bool>(
        &mut self,
        class: CostClass,
        units: u64,
        d: &mut PcCounters,
    ) {
        let cost = self.cost;
        match class {
            CostClass::Memory(Space::Global) => {
                self.stats.global_accesses += 1;
                self.stats.global_transactions += units;
                self.cycles_raw += units * cost.global_segment;
                if OBSERVED {
                    d.global_accesses = 1;
                    d.global_transactions = units;
                    // First transaction is unavoidable; the rest are the
                    // serialization penalty of an uncoalesced access.
                    d.mem_cycles = cost.global_segment;
                    d.mem_serial_cycles = (units - 1) * cost.global_segment;
                }
            }
            CostClass::Memory(Space::Shared) => {
                self.stats.shared_accesses += 1;
                self.stats.shared_ways += units;
                self.cycles_raw += units * cost.shared_way;
                if OBSERVED {
                    d.shared_accesses = 1;
                    d.shared_ways = units;
                    // First way is conflict-free; extra ways are the
                    // bank-conflict serialization penalty.
                    d.shared_cycles = cost.shared_way;
                    d.conflict_cycles = (units - 1) * cost.shared_way;
                }
            }
            CostClass::Atomic => {
                self.stats.atomics += 1;
                self.stats.global_accesses += 1;
                self.stats.global_transactions += units;
                self.cycles_raw += units * cost.atomic_lane;
                if OBSERVED {
                    d.atomics = 1;
                    d.global_accesses = 1;
                    d.global_transactions = units;
                    d.atomic_cycles = units * cost.atomic_lane;
                }
            }
            CostClass::Barrier => {
                self.stats.barriers += 1;
                self.cycles_raw += cost.barrier;
                if OBSERVED {
                    d.barriers = 1;
                    d.barrier_cycles = cost.barrier;
                }
            }
            CostClass::Alu { .. } | CostClass::Free => {}
        }
    }

    /// Execute one warp-instruction: the instruction at `pc` for the lanes
    /// of group `mask` of warp `warp_id`.
    fn step(&mut self, mask: &[usize], pc: usize, warp_id: u32) -> Result<(), AccessAbort> {
        debug_assert!(
            pc < self.kernel.insts.len(),
            "pc fell off the end of the kernel"
        );
        let kernel = self.kernel;
        let inst = &kernel.insts[pc];
        debug_assert!(!mask.is_empty());
        // True when this step's event made it into the bounded trace buffer
        // (memory arms annotate it with the touched address range).
        let recorded = match self.trace.as_mut() {
            Some(t) => t.record(TraceEvent {
                block: self.block_idx,
                warp: warp_id,
                pc,
                active: mask.len() as u32,
                text: crate::ir::format_inst(inst),
                mem: None,
            }),
            None => false,
        };
        self.stats.warp_insts += 1;
        self.stats.lane_insts += mask.len() as u64;
        // Per-step stall-reason delta. The bucket fields partition the
        // step's cycle charge exactly, whether or not a profiler consumes
        // the delta: the issue and ALU cycles here, the rest in `charge`.
        let class = inst.cost();
        let mut d = PcCounters {
            warp_insts: 1,
            lane_insts: mask.len() as u64,
            issue_cycles: self.cost.issue,
            alu_cycles: self.cost.alu_cycles(class),
            ..PcCounters::default()
        };
        self.cycles_raw += d.issue_cycles + d.alu_cycles;
        if let Some(a) = inst.access() {
            self.scratch_addr.clear();
            for &l in mask {
                let addr = self.resolve_mref(l, &a.mref);
                self.scratch_addr.push((addr, a.ty.size()));
            }
        }
        let units = match class {
            CostClass::Memory(Space::Global) => {
                global_transactions(&self.scratch_addr, self.dev.segment_bytes)
            }
            CostClass::Memory(Space::Shared) => {
                bank_conflict_degree(&self.scratch_addr, self.dev.shared_banks)
            }
            CostClass::Atomic => mask.len() as u64,
            CostClass::Alu { .. } | CostClass::Barrier | CostClass::Free => 0,
        };
        self.charge::<true>(class, units, &mut d);

        let mut advance = true; // advance pc by 1 for the mask afterwards
        match inst {
            Inst::MovImm { dst, value } => {
                for &l in mask {
                    self.threads[l].regs[dst.0 as usize] = *value;
                }
            }
            Inst::Mov { dst, src } => {
                for &l in mask {
                    let v = self.threads[l].regs[src.0 as usize];
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::ReadSpecial { dst, sr } => {
                for &l in mask {
                    let v = sr.value(self.cfg, self.block_idx, l);
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::ReadParam { dst, idx } => {
                let v = *self.params.get(*idx as usize).ok_or(SimError::BadParams {
                    expected: self.kernel.num_params,
                    got: self.params.len() as u32,
                })?;
                for &l in mask {
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::Bin { op, ty, dst, a, b } => {
                for &l in mask {
                    let av = self.operand(l, *a);
                    let bv = self.operand(l, *b);
                    let r = eval_bin(*op, *ty, av, bv)?;
                    self.threads[l].regs[dst.0 as usize] = r;
                }
            }
            Inst::Cmp { op, ty, dst, a, b } => {
                for &l in mask {
                    let av = self.operand(l, *a).convert(*ty);
                    let bv = self.operand(l, *b).convert(*ty);
                    let r = eval_cmp(*op, *ty, av, bv);
                    self.threads[l].regs[dst.0 as usize] = Value::Pred(r);
                }
            }
            Inst::Un { op, ty, dst, a } => {
                for &l in mask {
                    let av = self.operand(l, *a);
                    let r = eval_un(*op, *ty, av)?;
                    self.threads[l].regs[dst.0 as usize] = r;
                }
            }
            Inst::Select { dst, cond, a, b } => {
                for &l in mask {
                    let c = self.threads[l].regs[cond.0 as usize].as_bool();
                    let v = if c {
                        self.operand(l, *a)
                    } else {
                        self.operand(l, *b)
                    };
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::Cvt { dst, ty, src } => {
                for &l in mask {
                    let v = self.operand(l, *src).convert(*ty);
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::LdGlobal { ty, dst, .. } => {
                for (i, &l) in mask.iter().enumerate() {
                    let v = self.view.read(*ty, self.scratch_addr[i].0)?;
                    self.threads[l].regs[dst.0 as usize] = v;
                }
                self.observe_mem(mask, warp_id, pc, recorded);
            }
            Inst::StGlobal { ty, src, .. } => {
                for (i, &l) in mask.iter().enumerate() {
                    let v = self.operand(l, *src).convert(*ty);
                    self.view.write(self.scratch_addr[i].0, v)?;
                }
                self.observe_mem(mask, warp_id, pc, recorded);
            }
            Inst::LdShared { ty, dst, .. } => {
                self.observe_mem(mask, warp_id, pc, recorded);
                for (i, &l) in mask.iter().enumerate() {
                    let v = self.shared.read(*ty, self.scratch_addr[i].0)?;
                    self.threads[l].regs[dst.0 as usize] = v;
                }
            }
            Inst::StShared { ty, src, .. } => {
                for (i, &l) in mask.iter().enumerate() {
                    let v = self.operand(l, *src).convert(*ty);
                    self.shared.write(self.scratch_addr[i].0, v)?;
                }
                self.observe_mem(mask, warp_id, pc, recorded);
            }
            Inst::AtomGlobal {
                op, ty, src, dst, ..
            } => {
                self.observe_mem(mask, warp_id, pc, recorded);
                if dst.is_some() && matches!(self.view, MemView::Overlay(_)) {
                    // The launch prescan routes kernels with value-returning
                    // atomics to the sequential path; this is the dynamic
                    // backstop (e.g. for unreachable-at-prescan paths).
                    return Err(AccessAbort::NeedsSequential("atomic with a result operand"));
                }
                // Atomics serialize lane by lane.
                for (i, &l) in mask.iter().enumerate() {
                    let addr = self.scratch_addr[i].0;
                    let v = self.operand(l, *src).convert(*ty);
                    if let Some(old) = self.view.atom(*op, *ty, addr, v)? {
                        if let Some(d) = dst {
                            self.threads[l].regs[d.0 as usize] = old;
                        }
                    }
                }
            }
            Inst::Bar => {
                for &l in mask {
                    self.threads[l].at_barrier = true;
                    self.threads[l].pc = pc + 1;
                }
                advance = false;
            }
            Inst::Bra { target, cond } => {
                let tpc = self.kernel.target(*target);
                for &l in mask {
                    let take = match cond {
                        None => true,
                        Some((r, expect)) => {
                            self.threads[l].regs[r.0 as usize].as_bool() == *expect
                        }
                    };
                    self.threads[l].pc = if take { tpc } else { pc + 1 };
                }
                advance = false;
            }
            Inst::Ret => {
                for &l in mask {
                    self.threads[l].exited = true;
                }
                advance = false;
            }
        }
        if advance {
            for &l in mask {
                self.threads[l].pc = pc + 1;
            }
        }
        if let Some(p) = self.prof.as_mut() {
            p.record(pc, warp_id, &d);
        }
        Ok(())
    }
}

/// Byte address of a memory operand: `base + index * scale + disp`, with
/// the wrapping two's-complement arithmetic real address units perform.
/// Wild pointers are *values* here — bounds enforcement happens at the
/// access, so overflow must wrap identically in debug and release builds
/// instead of panicking in one and wrapping in the other.
pub(crate) fn mref_addr(base: u64, idx: i64, scale: i64, disp: i64) -> u64 {
    (base as i64)
        .wrapping_add(idx.wrapping_mul(scale))
        .wrapping_add(disp) as u64
}

/// Evaluate a typed binary operation with C semantics (wrapping integer
/// arithmetic, IEEE floats).
pub fn eval_bin(op: BinOp, ty: Ty, a: Value, b: Value) -> Result<Value, SimError> {
    let a = a.convert(ty);
    let b = b.convert(ty);
    macro_rules! int_case {
        ($av:expr, $bv:expr, $wrap:ident, $ctor:ident, $t:ty) => {{
            let (x, y) = ($av, $bv);
            let r: $t = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(SimError::DivisionByZero);
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(SimError::DivisionByZero);
                    }
                    x.wrapping_rem(y)
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32),
                BinOp::Shr => x.wrapping_shr(y as u32),
            };
            Ok(Value::$ctor(r))
        }};
    }
    // Float results are NaN-canonicalized (see [`crate::types::canon_f32`]):
    // payload propagation would differ between the interpreter and the
    // typed tier depending on host codegen operand order.
    macro_rules! float_case {
        ($av:expr, $bv:expr, $ctor:ident, $canon:path) => {{
            let (x, y) = ($av, $bv);
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => {
                    return Err(SimError::TypeError {
                        context: format!("bitwise {op} on float type {ty}"),
                    })
                }
            };
            Ok(Value::$ctor($canon(r)))
        }};
    }
    match ty {
        Ty::I32 => int_case!(a.as_i64() as i32, b.as_i64() as i32, wrapping, I32, i32),
        Ty::I64 => int_case!(a.as_i64(), b.as_i64(), wrapping, I64, i64),
        Ty::U64 => int_case!(a.as_u64(), b.as_u64(), wrapping, U64, u64),
        Ty::F32 => float_case!(
            match a {
                Value::F32(v) => v,
                o => o.as_f64() as f32,
            },
            match b {
                Value::F32(v) => v,
                o => o.as_f64() as f32,
            },
            F32,
            crate::types::canon_f32
        ),
        Ty::F64 => float_case!(a.as_f64(), b.as_f64(), F64, crate::types::canon_f64),
        Ty::Pred => {
            let (x, y) = (a.as_bool(), b.as_bool());
            let r = match op {
                BinOp::And => x && y,
                BinOp::Or => x || y,
                BinOp::Xor => x ^ y,
                _ => {
                    return Err(SimError::TypeError {
                        context: format!("arithmetic {op} on predicate"),
                    })
                }
            };
            Ok(Value::Pred(r))
        }
    }
}

/// Evaluate a typed comparison.
pub fn eval_cmp(op: CmpOp, ty: Ty, a: Value, b: Value) -> bool {
    use std::cmp::Ordering;
    let ord = match ty {
        Ty::F32 | Ty::F64 => a.as_f64().partial_cmp(&b.as_f64()),
        Ty::U64 => Some(a.as_u64().cmp(&b.as_u64())),
        _ => Some(a.as_i64().cmp(&b.as_i64())),
    };
    match (op, ord) {
        (CmpOp::Eq, Some(Ordering::Equal)) => true,
        (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
        (CmpOp::Ne, None) => true, // NaN != anything
        (CmpOp::Lt, Some(Ordering::Less)) => true,
        (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
        (CmpOp::Gt, Some(Ordering::Greater)) => true,
        (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
        _ => false,
    }
}

/// Evaluate a typed unary operation.
///
/// Float results are NaN-canonicalized like [`eval_bin`]'s.
pub fn eval_un(op: UnOp, ty: Ty, a: Value) -> Result<Value, SimError> {
    use crate::types::{canon_f32, canon_f64};
    let a = a.convert(ty);
    Ok(match (op, ty) {
        (UnOp::Neg, Ty::I32) => Value::I32((a.as_i64() as i32).wrapping_neg()),
        (UnOp::Neg, Ty::I64) => Value::I64(a.as_i64().wrapping_neg()),
        (UnOp::Neg, Ty::F32) => Value::F32(canon_f32(-(a.as_f64() as f32))),
        (UnOp::Neg, Ty::F64) => Value::F64(canon_f64(-a.as_f64())),
        (UnOp::Abs, Ty::I32) => Value::I32((a.as_i64() as i32).wrapping_abs()),
        (UnOp::Abs, Ty::I64) => Value::I64(a.as_i64().wrapping_abs()),
        (UnOp::Abs, Ty::F32) => Value::F32(canon_f32((a.as_f64() as f32).abs())),
        (UnOp::Abs, Ty::F64) => Value::F64(canon_f64(a.as_f64().abs())),
        (UnOp::Sqrt, Ty::F32) => Value::F32(canon_f32((a.as_f64() as f32).sqrt())),
        (UnOp::Sqrt, Ty::F64) => Value::F64(canon_f64(a.as_f64().sqrt())),
        (UnOp::Not, Ty::Pred) => Value::Pred(!a.as_bool()),
        (UnOp::Not, Ty::I32) => Value::I32(!(a.as_i64() as i32)),
        (UnOp::Not, Ty::I64) => Value::I64(!a.as_i64()),
        (op, ty) => {
            return Err(SimError::TypeError {
                context: format!("unary {op} at type {ty}"),
            })
        }
    })
}

/// Execute `kernel` over the whole grid, returning aggregate stats.
///
/// Blocks execute on up to [`DeviceConfig::host_threads`] host worker
/// threads when they are independent, and sequentially otherwise — the
/// results are bit-identical either way (see the module docs). The
/// launch's modelled cycles come from the launch schedule in
/// [`crate::cost`], which both paths feed every committed block's raw
/// cycles in linear block-id order.
pub fn run_kernel(
    kernel: &Kernel,
    cfg: LaunchConfig,
    params: &[Value],
    global: &mut GlobalMemory,
    dev: &DeviceConfig,
    cost: &CostModel,
) -> Result<LaunchStats, SimError> {
    let ck = TypedKernel::select(dev.exec_tier, kernel, params, cost)
        .ok()
        .flatten();
    run_kernel_instrumented(
        kernel,
        cfg,
        params,
        global,
        dev,
        cost,
        ck.as_ref(),
        None,
        None,
        None,
    )
}

/// Does the kernel use value-returning global atomics? Their "old value"
/// result observes the inter-block commit order mid-block, which the
/// deferred-replay scheme cannot reproduce — such kernels always run
/// sequentially.
fn kernel_returns_atomics(kernel: &Kernel) -> bool {
    kernel
        .insts
        .iter()
        .any(|i| i.cost() == CostClass::Atomic && i.def().is_some())
}

/// The full-fat entry point: [`run_kernel`] on the engine the caller
/// selected (`ck` from [`TypedKernel::select`] with this same `cost`, whose
/// static cycles it tabulated; shared across every block/worker; `None`
/// interprets), with an optional bounded trace, an
/// optional hazard sanitizer observing every memory access and barrier
/// (see [`crate::sanitizer`]), and an optional launch profiler collecting
/// per-PC / per-barrier-interval stall attribution (see [`crate::profile`]).
/// The profile is finished here whatever the outcome: success, a block
/// error, or a launch rejected before any block ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kernel_instrumented(
    kernel: &Kernel,
    cfg: LaunchConfig,
    params: &[Value],
    global: &mut GlobalMemory,
    dev: &DeviceConfig,
    cost: &CostModel,
    ck: Option<&TypedKernel>,
    trace: Option<&mut Trace>,
    san: Option<&mut LaunchSanitizer>,
    profile: Option<&mut LaunchProfile>,
) -> Result<LaunchStats, SimError> {
    let launch = Launch {
        kernel,
        cfg,
        params,
        dev,
        cost,
        ck,
        trace_limit: trace.as_deref().map(Trace::limit),
        san_cfg: san.as_deref().map(|s| s.config().clone()),
        profiled: profile.is_some(),
    };
    let mut commit = Commit {
        global,
        trace,
        san,
        profile,
        schedule: Schedule::new(dev, cost),
        totals: LaunchStats::default(),
    };
    let result = launch.execute(&mut commit);
    commit.finish(result)
}

/// What every block of a launch runs with: the launch's inputs and the
/// instruments to attach to each block.
struct Launch<'a> {
    kernel: &'a Kernel,
    cfg: LaunchConfig,
    params: &'a [Value],
    dev: &'a DeviceConfig,
    cost: &'a CostModel,
    ck: Option<&'a TypedKernel>,
    trace_limit: Option<usize>,
    san_cfg: Option<SanitizerConfig>,
    profiled: bool,
}

/// One block's run, ready to commit.
struct BlockOutcome {
    result: Result<(), SimError>,
    stats: LaunchStats,
    cycles_raw: u64,
    warps: u32,
    /// The buffered writes and atomics of an overlay run; `None` when the
    /// block already mutated global memory directly.
    overlay: Option<OverlayData>,
    trace: Option<Trace>,
    san: Option<BlockLog>,
    prof: Option<BlockProfile>,
}

impl Launch<'_> {
    /// Validate the launch, then run its blocks and commit them in linear
    /// block-id order: on overlays across worker threads when the blocks
    /// are independent, else one by one on global memory directly.
    fn execute(&self, commit: &mut Commit) -> Result<(), SimError> {
        let (kernel, cfg, dev) = (self.kernel, self.cfg, self.dev);
        cfg.validate(dev)?;
        dev.validate()?;
        if kernel.shared_bytes > dev.shared_mem_per_block {
            return Err(SimError::SharedMemExceeded {
                requested: kernel.shared_bytes,
                limit: dev.shared_mem_per_block,
            });
        }
        if (self.params.len() as u32) < kernel.num_params {
            return Err(SimError::BadParams {
                expected: kernel.num_params,
                got: self.params.len() as u32,
            });
        }
        let host_threads = dev.resolved_host_threads();
        if host_threads >= 2 && cfg.num_blocks() >= 2 && !kernel_returns_atomics(kernel) {
            if let Some(outcomes) = self.run_overlays(commit.global, host_threads) {
                for (id, o) in outcomes.into_iter().enumerate() {
                    commit.block(id, o)?;
                }
                return Ok(());
            }
            // Fallback: the parallel attempt detected inter-block
            // communication and committed nothing; replay sequentially.
        }
        let (mut typed, mut san) = (self.typed_state(), self.block_sanitizer());
        for id in 0..cfg.num_blocks() as usize {
            let view = MemView::Direct(&mut *commit.global);
            let o = self
                .run_block(id, view, typed.as_mut(), san.as_mut())
                .unwrap_or_else(|why| {
                    unreachable!("direct-view execution cannot request a fallback ({why})")
                });
            // The merged log's buffers serve the next block.
            if let (Some(s), Some(log)) = (san.as_mut(), commit.block(id, o)?) {
                s.recycle(log);
            }
        }
        Ok(())
    }

    /// One executor thread's typed-tier state, reused by all its blocks.
    fn typed_state(&self) -> Option<TypedState<'_>> {
        self.ck
            .map(|tk| tk.state(self.cfg.threads_per_block() as usize, self.dev))
    }

    /// One executor thread's block sanitizer, reused by all its blocks.
    fn block_sanitizer(&self) -> Option<BlockSanitizer> {
        self.san_cfg
            .as_ref()
            .map(|c| BlockSanitizer::new(c.clone(), self.kernel.shared_bytes))
    }

    /// The block driver both executors share: run block `id` against
    /// `view` with the launch's instruments attached. `Err` names why an
    /// overlay run needs the sequential path.
    fn run_block(
        &self,
        id: usize,
        view: MemView,
        typed: Option<&mut TypedState>,
        mut san: Option<&mut BlockSanitizer>,
    ) -> Result<BlockOutcome, &'static str> {
        let kernel = self.kernel;
        let block_idx = self.cfg.block_coords(id);
        let warps = self.cfg.warps_per_block();
        // The typed tier keeps registers in its own bit rows; skip the
        // per-thread register vectors entirely on that path.
        let thread_regs = if typed.is_some() {
            0
        } else {
            kernel.num_regs as usize
        };
        if let Some(s) = san.as_deref_mut() {
            s.begin_block(block_idx);
        }
        let mut exec = BlockExec {
            kernel,
            params: self.params,
            threads: (0..self.cfg.threads_per_block())
                .map(|_| Thread::new(Value::I32(0), thread_regs))
                .collect(),
            shared: SharedMemory::new(kernel.shared_bytes),
            block_idx,
            cfg: self.cfg,
            dev: self.dev,
            cost: self.cost,
            stats: LaunchStats::default(),
            cycles_raw: 0,
            scratch_addr: Vec::with_capacity(WARP_SIZE as usize),
            view,
            trace: self.trace_limit.map(Trace::with_limit),
            san,
            prof: self
                .profiled
                .then(|| BlockProfile::new(id as u32, kernel.insts.len(), warps as usize)),
        };
        let result = match exec.run(typed) {
            Ok(()) => Ok(()),
            Err(AccessAbort::Sim(e)) => Err(e),
            Err(AccessAbort::NeedsSequential(why)) => return Err(why),
        };
        let BlockExec {
            stats,
            cycles_raw,
            view,
            trace,
            san,
            prof,
            ..
        } = exec;
        Ok(BlockOutcome {
            result,
            stats,
            cycles_raw,
            warps,
            overlay: match view {
                MemView::Overlay(o) => Some(o.into_data()),
                MemView::Direct(_) => None,
            },
            trace,
            san: san.map(BlockSanitizer::end_block),
            prof,
        })
    }

    /// The parallel executor: a worker pool claims blocks by linear id and
    /// runs each against the frozen `base` through a copy-on-write overlay
    /// (see module docs). Returns the outcomes to commit, in order: blocks
    /// `0..=k`, where `k` is the lowest failing block, or every block.
    /// `None` when the launch needs the sequential path.
    fn run_overlays(&self, base: &GlobalMemory, host_threads: usize) -> Option<Vec<BlockOutcome>> {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        let num_blocks = self.cfg.num_blocks() as usize;
        let num_workers = host_threads.min(num_blocks);

        // Work distribution: workers claim linear block ids from a shared
        // counter. `min_err` tracks the lowest failing block id so far —
        // blocks above it cannot affect the outcome (the sequential executor
        // would never have run them), so claims above it are skipped. Since
        // `min_err` only decreases, every skipped id stays above the final
        // minimum and the committed prefix `0..=k` is always fully populated.
        let next = AtomicUsize::new(0);
        let min_err = AtomicUsize::new(usize::MAX);
        let needs_seq = AtomicBool::new(false);

        let worker_outputs: Vec<Vec<(usize, BlockOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, BlockOutcome)> = Vec::new();
                        let (mut typed, mut san) = (self.typed_state(), self.block_sanitizer());
                        loop {
                            let id = next.fetch_add(1, Ordering::Relaxed);
                            if id >= num_blocks || needs_seq.load(Ordering::Relaxed) {
                                break;
                            }
                            if id > min_err.load(Ordering::Relaxed) {
                                continue;
                            }
                            let view = MemView::Overlay(BlockOverlay::new(base));
                            match self.run_block(id, view, typed.as_mut(), san.as_mut()) {
                                Err(_) => {
                                    needs_seq.store(true, Ordering::Relaxed);
                                    break;
                                }
                                Ok(outcome) => {
                                    if outcome.result.is_err() {
                                        min_err.fetch_min(id, Ordering::Relaxed);
                                    }
                                    out.push((id, outcome));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block worker panicked"))
                .collect()
        });

        if needs_seq.load(Ordering::Relaxed) {
            return None;
        }
        let mut slots: Vec<Option<BlockOutcome>> = (0..num_blocks).map(|_| None).collect();
        for (id, outcome) in worker_outputs.into_iter().flatten() {
            slots[id] = Some(outcome);
        }
        // Only blocks up to the first error are observable; later ones are
        // discarded exactly as the sequential executor never runs them.
        slots.truncate(min_err.load(Ordering::Relaxed).min(num_blocks - 1) + 1);
        let outcomes: Vec<BlockOutcome> = slots
            .into_iter()
            .map(|s| s.expect("every block up to the first error was executed"))
            .collect();

        // Divergence check: if any committed block read a page an earlier
        // block writes, its overlay run observed pre-launch state where the
        // sequential run would have observed the earlier block's output.
        // Conservative (page-granular, read-vs-write only) but cheap.
        let mut cum_writes = AddrSet::default();
        for o in &outcomes {
            let overlay = o.overlay.as_ref().expect("overlay runs keep their overlay");
            if overlay.reads_overlap(&cum_writes) {
                return None;
            }
            cum_writes.extend(overlay.write_pages());
        }
        Some(outcomes)
    }
}

/// The in-order commit both executors share: the launch's destinations,
/// the stats so far and the launch schedule.
struct Commit<'a> {
    global: &'a mut GlobalMemory,
    trace: Option<&'a mut Trace>,
    san: Option<&'a mut LaunchSanitizer>,
    profile: Option<&'a mut LaunchProfile>,
    schedule: Schedule,
    totals: LaunchStats,
}

impl Commit<'_> {
    /// Commit block `id`; blocks must arrive in linear block-id order. A
    /// failed block's partial effects and observations are committed too —
    /// the state a sequential run leaves behind — and then its error
    /// surfaces. Hands back the block's drained sanitizer log, if any.
    fn block(&mut self, id: usize, o: BlockOutcome) -> Result<Option<BlockLog>, SimError> {
        if let Some(overlay) = o.overlay {
            for (&page, p) in &overlay.pages {
                self.global.apply_overlay_page(page, p);
            }
            for e in &overlay.atomics {
                let old = self
                    .global
                    .read(e.ty, e.addr)
                    .expect("atomic target was bounds-checked at log time");
                let new = apply_atom(e.op, e.ty, old, e.val)
                    .expect("atomic op was validated at log time");
                self.global
                    .write(e.addr, new)
                    .expect("atomic target was bounds-checked at log time");
            }
        }
        if let (Some(dst), Some(t)) = (self.trace.as_deref_mut(), o.trace) {
            dst.merge_from(t);
        }
        let mut log = o.san;
        if let (Some(dst), Some(log)) = (self.san.as_deref_mut(), log.as_mut()) {
            dst.merge_block(log);
        }
        // A failed block takes no modelled time: the profile shows an
        // empty span where it was placed.
        let cycles_raw = if o.result.is_ok() { o.cycles_raw } else { 0 };
        let at = self.schedule.place(id, cycles_raw, o.warps);
        if let (Some(dst), Some(p)) = (self.profile.as_deref_mut(), o.prof) {
            dst.merge_block(p, at);
        }
        o.result?;
        self.totals += o.stats;
        self.totals.blocks += 1;
        Ok(log)
    }

    /// Close the launch: finish its profile on every outcome and, on
    /// success, return the totals with the schedule's launch cycles.
    fn finish(self, result: Result<(), SimError>) -> Result<LaunchStats, SimError> {
        if let Some(lp) = self.profile {
            lp.finish(&self.schedule, result.is_ok());
        }
        result.map(|()| LaunchStats {
            cycles: self.schedule.cycles(),
            ..self.totals
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{MemRef, SpecialReg};
    use crate::memory::GLOBAL_ALLOC_ALIGN;

    fn dev() -> DeviceConfig {
        DeviceConfig::test_small()
    }

    fn dev_threads(n: u32) -> DeviceConfig {
        DeviceConfig {
            host_threads: n,
            ..DeviceConfig::test_small()
        }
    }

    fn run(
        k: &Kernel,
        cfg: LaunchConfig,
        params: &[Value],
        mem: &mut GlobalMemory,
    ) -> Result<LaunchStats, SimError> {
        run_kernel(k, cfg, params, mem, &dev(), &CostModel::default())
    }

    fn run_threads(
        k: &Kernel,
        cfg: LaunchConfig,
        params: &[Value],
        mem: &mut GlobalMemory,
        n: u32,
    ) -> Result<LaunchStats, SimError> {
        run_kernel(k, cfg, params, mem, &dev_threads(n), &CostModel::default())
    }

    /// Snapshot the allocated range of a memory for bitwise comparison.
    fn dump(mem: &GlobalMemory) -> Vec<u8> {
        let mut buf = vec![0u8; mem.used() as usize];
        mem.read_bytes(GLOBAL_ALLOC_ALIGN, &mut buf).unwrap();
        buf
    }

    /// Each thread writes its global linear id to out[gid].
    #[test]
    fn threads_write_their_ids() {
        let mut b = KernelBuilder::new("ids");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let ctaid = b.special(SpecialReg::CtaIdX);
        let ntid = b.special(SpecialReg::NTidX);
        let base = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        let gid = b.bin(BinOp::Add, Ty::I32, base, tid);
        let gid64 = b.cvt(Ty::I64, gid);
        b.st_global(Ty::I32, MemRef::indexed(out, gid64, 4), gid);
        let k = b.finish();

        let mut mem = GlobalMemory::new(1 << 20);
        let buf = mem.alloc(4 * 64).unwrap();
        let stats = run(
            &k,
            LaunchConfig::d1(2, 32),
            &[Value::U64(buf.addr)],
            &mut mem,
        )
        .unwrap();
        for i in 0..64u64 {
            assert_eq!(
                mem.read(Ty::I32, buf.addr + i * 4).unwrap(),
                Value::I32(i as i32)
            );
        }
        assert_eq!(stats.blocks, 2);
        // The store is fully coalesced: one transaction per warp store.
        assert_eq!(stats.global_transactions, 2);
    }

    /// Grid-stride loop (the paper's window-sliding): 4 threads, 32 elements.
    #[test]
    fn grid_stride_loop_sums() {
        let mut b = KernelBuilder::new("stride");
        let inp = b.param(0);
        let out = b.param(1);
        let n = b.param(2);
        let i = b.special(SpecialReg::TidX);
        let acc = b.mov_imm(Value::I32(0));
        let top = b.new_label();
        let done = b.new_label();
        b.place(top);
        let c = b.cmp(CmpOp::Ge, Ty::I32, i, n);
        b.bra_if(c, done);
        let i64r = b.cvt(Ty::I64, i);
        let v = b.ld_global(Ty::I32, MemRef::indexed(inp, i64r, 4));
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
        let ntid = b.special(SpecialReg::NTidX);
        b.bin_to(i, BinOp::Add, Ty::I32, i, ntid);
        b.bra(top);
        b.place(done);
        // out[tid] = acc
        let tid = b.special(SpecialReg::TidX);
        let tid64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, tid64, 4), acc);
        let k = b.finish();

        let mut mem = GlobalMemory::new(1 << 20);
        let inp_buf = mem.alloc(4 * 32).unwrap();
        let out_buf = mem.alloc(4 * 4).unwrap();
        for i in 0..32u64 {
            mem.write(inp_buf.addr + i * 4, Value::I32(1 + i as i32))
                .unwrap();
        }
        run(
            &k,
            LaunchConfig::d1(1, 4),
            &[
                Value::U64(inp_buf.addr),
                Value::U64(out_buf.addr),
                Value::I32(32),
            ],
            &mut mem,
        )
        .unwrap();
        let mut total = 0;
        for t in 0..4u64 {
            total += match mem.read(Ty::I32, out_buf.addr + t * 4).unwrap() {
                Value::I32(v) => v,
                _ => unreachable!(),
            };
        }
        assert_eq!(total, (1..=32).sum::<i32>());
    }

    /// Divergent lanes reconverge: even lanes add 1, odd lanes add 2,
    /// then all lanes multiply by 10 after reconvergence.
    #[test]
    fn divergence_reconverges() {
        let mut b = KernelBuilder::new("div");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let two = Value::I32(2);
        let parity = b.bin(BinOp::Rem, Ty::I32, tid, two);
        let is_odd = b.cmp(CmpOp::Ne, Ty::I32, parity, Value::I32(0));
        let acc = b.mov_imm(Value::I32(0));
        let odd = b.new_label();
        let join = b.new_label();
        b.bra_if(is_odd, odd);
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, Value::I32(1));
        b.bra(join);
        b.place(odd);
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, Value::I32(2));
        b.place(join);
        b.bin_to(acc, BinOp::Mul, Ty::I32, acc, Value::I32(10));
        let tid64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, tid64, 4), acc);
        let k = b.finish();

        let mut mem = GlobalMemory::new(1 << 20);
        let buf = mem.alloc(4 * 8).unwrap();
        let stats = run(
            &k,
            LaunchConfig::d1(1, 8),
            &[Value::U64(buf.addr)],
            &mut mem,
        )
        .unwrap();
        for i in 0..8u64 {
            let want = if i % 2 == 0 { 10 } else { 20 };
            assert_eq!(
                mem.read(Ty::I32, buf.addr + i * 4).unwrap(),
                Value::I32(want)
            );
        }
        // Divergence visible in stats: average active lanes < 8.
        assert!(stats.avg_active_lanes().unwrap() < 8.0);
    }

    /// Shared memory + barrier: lane 0 writes, all lanes read after sync.
    #[test]
    fn shared_memory_barrier_broadcast() {
        let mut b = KernelBuilder::new("bcast");
        let out = b.param(0);
        let slot = b.alloc_shared(4, 4);
        let tid = b.special(SpecialReg::TidX);
        let is0 = b.cmp(CmpOp::Eq, Ty::I32, tid, Value::I32(0));
        let skip = b.new_label();
        b.bra_unless(is0, skip);
        b.st_shared(
            Ty::I32,
            MemRef::direct(Value::U64(slot as u64)),
            Value::I32(77),
        );
        b.place(skip);
        b.bar();
        let v = b.ld_shared(Ty::I32, MemRef::direct(Value::U64(slot as u64)));
        let tid64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, tid64, 4), v);
        let k = b.finish();

        let mut mem = GlobalMemory::new(1 << 20);
        // 64 threads = 2 warps: the barrier really synchronizes across warps.
        let buf = mem.alloc(4 * 64).unwrap();
        let stats = run(
            &k,
            LaunchConfig::d1(1, 64),
            &[Value::U64(buf.addr)],
            &mut mem,
        )
        .unwrap();
        for i in 0..64u64 {
            assert_eq!(mem.read(Ty::I32, buf.addr + i * 4).unwrap(), Value::I32(77));
        }
        assert!(stats.barriers >= 2); // one arrival per warp
    }

    /// Without the barrier, warp 1 reads stale zero — the deterministic
    /// manifestation of a missing-__syncthreads bug.
    #[test]
    fn missing_barrier_reads_stale_value() {
        let mut b = KernelBuilder::new("race");
        let out = b.param(0);
        let slot = b.alloc_shared(4, 4);
        let tid = b.special(SpecialReg::TidX);
        // Lane 32 (warp 1) writes; warp 0 reads without a barrier.
        let is_writer = b.cmp(CmpOp::Eq, Ty::I32, tid, Value::I32(32));
        let skip = b.new_label();
        b.bra_unless(is_writer, skip);
        b.st_shared(
            Ty::I32,
            MemRef::direct(Value::U64(slot as u64)),
            Value::I32(55),
        );
        b.place(skip);
        let v = b.ld_shared(Ty::I32, MemRef::direct(Value::U64(slot as u64)));
        let tid64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, tid64, 4), v);
        let k = b.finish();

        let mut mem = GlobalMemory::new(1 << 20);
        let buf = mem.alloc(4 * 64).unwrap();
        run(
            &k,
            LaunchConfig::d1(1, 64),
            &[Value::U64(buf.addr)],
            &mut mem,
        )
        .unwrap();
        // Warp 0 ran first and saw 0; warp 1 saw its own write.
        assert_eq!(mem.read(Ty::I32, buf.addr).unwrap(), Value::I32(0));
        assert_eq!(
            mem.read(Ty::I32, buf.addr + 32 * 4).unwrap(),
            Value::I32(55)
        );
    }

    /// Warps reaching *different* `__syncthreads()` sites is divergent-sync
    /// UB and is reported strictly.
    #[test]
    fn divergent_barrier_sites_detected() {
        let mut b = KernelBuilder::new("divergent_bar");
        let tid = b.special(SpecialReg::TidX);
        let low = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
        let other = b.new_label();
        let join = b.new_label();
        b.bra_unless(low, other);
        b.bar(); // barrier site A (lower warp)
        b.bra(join);
        b.place(other);
        b.bar(); // barrier site B (upper warp)
        b.place(join);
        b.ret();
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let err = run(&k, LaunchConfig::d1(1, 64), &[], &mut mem).unwrap_err();
        assert!(
            matches!(err, SimError::BarrierDivergence { .. }),
            "got {err:?}"
        );
    }

    /// A barrier some threads skip while others spin forever is caught by
    /// the watchdog (the lanes that skipped can never release it).
    #[test]
    fn barrier_plus_spin_hits_watchdog() {
        let mut b = KernelBuilder::new("spin_bar");
        let slot = b.alloc_shared(4, 4);
        let tid = b.special(SpecialReg::TidX);
        let low = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
        let waiter = b.new_label();
        b.bra_unless(low, waiter);
        b.bar(); // lower warp waits at the barrier...
        b.st_shared(
            Ty::I32,
            MemRef::direct(Value::U64(slot as u64)),
            Value::I32(1),
        );
        b.ret();
        b.place(waiter);
        // ...while the upper warp spins on a flag only set after the barrier.
        let top = b.new_label();
        b.place(top);
        let v = b.ld_shared(Ty::I32, MemRef::direct(Value::U64(slot as u64)));
        let unset = b.cmp(CmpOp::Eq, Ty::I32, v, Value::I32(0));
        b.bra_if(unset, top);
        b.ret();
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let cost = CostModel {
            watchdog_warp_insts: 50_000,
            ..Default::default()
        };
        let err =
            run_kernel(&k, LaunchConfig::d1(1, 64), &[], &mut mem, &dev(), &cost).unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }), "got {err:?}");
    }

    /// Threads that exited don't block a barrier (CUDA semantics).
    #[test]
    fn exited_threads_release_barrier() {
        let mut b = KernelBuilder::new("exit_bar");
        let tid = b.special(SpecialReg::TidX);
        let low = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
        let cont = b.new_label();
        b.bra_if(low, cont);
        b.ret(); // upper warp exits
        b.place(cont);
        b.bar(); // lower warp syncs among survivors
        b.ret();
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        run(&k, LaunchConfig::d1(1, 64), &[], &mut mem).unwrap();
    }

    /// Watchdog catches infinite loops.
    #[test]
    fn watchdog_fires() {
        let mut b = KernelBuilder::new("spin");
        let top = b.new_label();
        b.place(top);
        b.bra(top);
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let cost = CostModel {
            watchdog_warp_insts: 10_000,
            ..Default::default()
        };
        let err =
            run_kernel(&k, LaunchConfig::d1(1, 32), &[], &mut mem, &dev(), &cost).unwrap_err();
        assert!(matches!(err, SimError::Watchdog { .. }));
    }

    #[test]
    fn atomics_accumulate_across_all_threads() {
        let mut b = KernelBuilder::new("atom");
        let out = b.param(0);
        b.atom_global(
            AtomOp::Add,
            Ty::I32,
            MemRef::direct(out),
            Value::I32(1),
            false,
        );
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let buf = mem.alloc(4).unwrap();
        let stats = run(
            &k,
            LaunchConfig::d1(4, 64),
            &[Value::U64(buf.addr)],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read(Ty::I32, buf.addr).unwrap(), Value::I32(256));
        assert_eq!(stats.atomics, 4 * 2); // one per warp
    }

    #[test]
    fn launch_validation() {
        let k = KernelBuilder::new("t").finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let err = run(&k, LaunchConfig::d1(1, 2048), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
        let err = run(&k, LaunchConfig::d1(0, 32), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
    }

    /// A malformed device config is rejected at launch, not silently
    /// mismodelled.
    #[test]
    fn bad_device_config_rejected_at_launch() {
        let k = KernelBuilder::new("t").finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let bad = DeviceConfig {
            segment_bytes: 100,
            ..DeviceConfig::test_small()
        };
        let err = run_kernel(
            &k,
            LaunchConfig::d1(1, 32),
            &[],
            &mut mem,
            &bad,
            &CostModel::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "got {err:?}");
    }

    #[test]
    fn missing_params_rejected() {
        let mut b = KernelBuilder::new("p");
        let p = b.param(2);
        let _ = p;
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let err = run(&k, LaunchConfig::d1(1, 32), &[Value::I32(0)], &mut mem).unwrap_err();
        assert!(matches!(
            err,
            SimError::BadParams {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn shared_overflow_rejected() {
        let mut b = KernelBuilder::new("s");
        let _ = b.alloc_shared(100 * 1024, 8);
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let err = run(&k, LaunchConfig::d1(1, 32), &[], &mut mem).unwrap_err();
        assert!(matches!(err, SimError::SharedMemExceeded { .. }));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut b = KernelBuilder::new("dz");
        let z = b.mov_imm(Value::I32(0));
        let _ = b.bin(BinOp::Div, Ty::I32, Value::I32(1), z);
        let k = b.finish();
        let mut mem = GlobalMemory::new(1 << 20);
        let err = run(&k, LaunchConfig::d1(1, 32), &[], &mut mem).unwrap_err();
        assert_eq!(err, SimError::DivisionByZero);
    }

    #[test]
    fn eval_bin_int_semantics() {
        assert_eq!(
            eval_bin(BinOp::Add, Ty::I32, Value::I32(i32::MAX), Value::I32(1)).unwrap(),
            Value::I32(i32::MIN)
        );
        assert_eq!(
            eval_bin(BinOp::Max, Ty::I32, Value::I32(-5), Value::I32(3)).unwrap(),
            Value::I32(3)
        );
        assert_eq!(
            eval_bin(BinOp::Min, Ty::F64, Value::F64(-5.0), Value::F64(3.0)).unwrap(),
            Value::F64(-5.0)
        );
        assert!(eval_bin(BinOp::And, Ty::F32, Value::F32(1.0), Value::F32(2.0)).is_err());
        assert_eq!(
            eval_bin(BinOp::And, Ty::Pred, Value::Pred(true), Value::Pred(false)).unwrap(),
            Value::Pred(false)
        );
    }

    #[test]
    fn eval_cmp_nan_semantics() {
        assert!(!eval_cmp(
            CmpOp::Lt,
            Ty::F64,
            Value::F64(f64::NAN),
            Value::F64(1.0)
        ));
        assert!(eval_cmp(
            CmpOp::Ne,
            Ty::F64,
            Value::F64(f64::NAN),
            Value::F64(f64::NAN)
        ));
        assert!(!eval_cmp(
            CmpOp::Eq,
            Ty::F64,
            Value::F64(f64::NAN),
            Value::F64(f64::NAN)
        ));
        assert!(eval_cmp(CmpOp::Le, Ty::I32, Value::I32(3), Value::I32(3)));
    }

    #[test]
    fn eval_un_semantics() {
        assert_eq!(
            eval_un(UnOp::Abs, Ty::F64, Value::F64(-2.5)).unwrap(),
            Value::F64(2.5)
        );
        assert_eq!(
            eval_un(UnOp::Neg, Ty::I32, Value::I32(7)).unwrap(),
            Value::I32(-7)
        );
        assert_eq!(
            eval_un(UnOp::Sqrt, Ty::F32, Value::F32(4.0)).unwrap(),
            Value::F32(2.0)
        );
        assert_eq!(
            eval_un(UnOp::Not, Ty::Pred, Value::Pred(false)).unwrap(),
            Value::Pred(true)
        );
        assert!(eval_un(UnOp::Sqrt, Ty::I32, Value::I32(4)).is_err());
    }

    /// Timing model: the same work on more SMs takes fewer cycles.
    #[test]
    fn more_sms_is_faster() {
        let mut b = KernelBuilder::new("work");
        let acc = b.mov_imm(Value::I32(0));
        let i = b.mov_imm(Value::I32(0));
        let top = b.new_label();
        let done = b.new_label();
        b.place(top);
        let c = b.cmp(CmpOp::Ge, Ty::I32, i, Value::I32(100));
        b.bra_if(c, done);
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, i);
        b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(1));
        b.bra(top);
        b.place(done);
        let k = b.finish();
        let cost = CostModel::default();
        let mut mem1 = GlobalMemory::new(1 << 20);
        let d1 = DeviceConfig {
            num_sms: 1,
            ..DeviceConfig::test_small()
        };
        let s1 = run_kernel(&k, LaunchConfig::d1(8, 32), &[], &mut mem1, &d1, &cost).unwrap();
        let mut mem2 = GlobalMemory::new(1 << 20);
        let d8 = DeviceConfig {
            num_sms: 8,
            ..DeviceConfig::test_small()
        };
        let s8 = run_kernel(&k, LaunchConfig::d1(8, 32), &[], &mut mem2, &d8, &cost).unwrap();
        assert!(s8.cycles < s1.cycles);
    }

    // ---- parallel block execution ----------------------------------------

    /// An independent-blocks kernel for determinism tests: each thread
    /// writes a value derived from its global id.
    fn ids_kernel() -> Kernel {
        let mut b = KernelBuilder::new("ids");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let ctaid = b.special(SpecialReg::CtaIdX);
        let ntid = b.special(SpecialReg::NTidX);
        let base = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        let gid = b.bin(BinOp::Add, Ty::I32, base, tid);
        let v = b.bin(BinOp::Mul, Ty::I32, gid, Value::I32(3));
        let gid64 = b.cvt(Ty::I64, gid);
        b.st_global(Ty::I32, MemRef::indexed(out, gid64, 4), v);
        b.finish()
    }

    /// Parallel execution is bit-identical to sequential: same memory
    /// contents and the exact same [`LaunchStats`] (cycles included).
    #[test]
    fn parallel_matches_sequential_bitwise() {
        let k = ids_kernel();
        let cfg = LaunchConfig::d1(7, 96); // odd block count, multi-warp blocks
        let mut mem_seq = GlobalMemory::new(1 << 20);
        let buf_seq = mem_seq.alloc(4 * 7 * 96).unwrap();
        let seq = run_threads(&k, cfg, &[Value::U64(buf_seq.addr)], &mut mem_seq, 1).unwrap();
        for threads in [2, 3, 8] {
            let mut mem_par = GlobalMemory::new(1 << 20);
            let buf = mem_par.alloc(4 * 7 * 96).unwrap();
            let par = run_threads(&k, cfg, &[Value::U64(buf.addr)], &mut mem_par, threads).unwrap();
            assert_eq!(seq, par, "stats diverge at {threads} threads");
            assert_eq!(
                dump(&mem_seq),
                dump(&mem_par),
                "memory diverges at {threads} threads"
            );
        }
    }

    /// Cross-block floating-point atomics commit in block-id order, so the
    /// (rounding-sensitive) result is bit-identical at any thread count.
    #[test]
    fn parallel_float_atomics_are_order_deterministic() {
        let mut b = KernelBuilder::new("fatom");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let ctaid = b.special(SpecialReg::CtaIdX);
        let ntid = b.special(SpecialReg::NTidX);
        let base = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        let gid = b.bin(BinOp::Add, Ty::I32, base, tid);
        let gf = b.cvt(Ty::F32, gid);
        let v = b.bin(BinOp::Div, Ty::F32, gf, Value::F32(3.0));
        b.atom_global(AtomOp::Add, Ty::F32, MemRef::direct(out), v, false);
        let k = b.finish();
        let cfg = LaunchConfig::d1(6, 64);

        let mut mem_seq = GlobalMemory::new(1 << 20);
        let buf_seq = mem_seq.alloc(4).unwrap();
        run_threads(&k, cfg, &[Value::U64(buf_seq.addr)], &mut mem_seq, 1).unwrap();
        let want = mem_seq.read(Ty::F32, buf_seq.addr).unwrap();
        for threads in [2, 5] {
            let mut mem_par = GlobalMemory::new(1 << 20);
            let buf = mem_par.alloc(4).unwrap();
            run_threads(&k, cfg, &[Value::U64(buf.addr)], &mut mem_par, threads).unwrap();
            // Bitwise comparison: Value::F32 PartialEq compares the floats,
            // which is exactly the determinism claim (no NaN involved).
            assert_eq!(want, mem_par.read(Ty::F32, buf.addr).unwrap());
        }
    }

    /// A launch where one block reads what an earlier block wrote triggers
    /// the commit-time divergence check and silently falls back to the
    /// sequential path — results match sequential execution exactly.
    #[test]
    fn parallel_cross_block_raw_falls_back() {
        let mut b = KernelBuilder::new("raw");
        let flag = b.param(0);
        let out = b.param(1);
        // v = flag[0]; out[ctaid] = v; if ctaid == 0 { flag[0] = 99 }
        let v = b.ld_global(Ty::I32, MemRef::direct(flag));
        let ctaid = b.special(SpecialReg::CtaIdX);
        let cta64 = b.cvt(Ty::I64, ctaid);
        b.st_global(Ty::I32, MemRef::indexed(out, cta64, 4), v);
        let is0 = b.cmp(CmpOp::Eq, Ty::I32, ctaid, Value::I32(0));
        let skip = b.new_label();
        b.bra_unless(is0, skip);
        b.st_global(Ty::I32, MemRef::direct(flag), Value::I32(99));
        b.place(skip);
        b.ret();
        let k = b.finish();
        let cfg = LaunchConfig::d1(4, 32);

        let mk = || {
            let mut m = GlobalMemory::new(1 << 20);
            let f = m.alloc(4).unwrap();
            let o = m.alloc(4 * 4).unwrap();
            (m, f, o)
        };
        let (mut mem_seq, f1, o1) = mk();
        run_threads(
            &k,
            cfg,
            &[Value::U64(f1.addr), Value::U64(o1.addr)],
            &mut mem_seq,
            1,
        )
        .unwrap();
        // Sequential semantics: block 0 reads 0 then sets the flag; later
        // blocks observe 99.
        assert_eq!(mem_seq.read(Ty::I32, o1.addr).unwrap(), Value::I32(0));
        assert_eq!(mem_seq.read(Ty::I32, o1.addr + 4).unwrap(), Value::I32(99));
        let (mut mem_par, f2, o2) = mk();
        run_threads(
            &k,
            cfg,
            &[Value::U64(f2.addr), Value::U64(o2.addr)],
            &mut mem_par,
            4,
        )
        .unwrap();
        assert_eq!(dump(&mem_seq), dump(&mem_par));
    }

    /// Multi-block failure is deterministic: the error is the lowest
    /// failing block's, and the committed partial state (earlier blocks
    /// complete, failing block partial, later blocks absent) matches the
    /// sequential executor byte for byte.
    #[test]
    fn parallel_error_matches_sequential_partial_state() {
        let mut b = KernelBuilder::new("err2");
        let out = b.param(0);
        let ctaid = b.special(SpecialReg::CtaIdX);
        let one_based = b.bin(BinOp::Add, Ty::I32, ctaid, Value::I32(1));
        let cta64 = b.cvt(Ty::I64, ctaid);
        b.st_global(Ty::I32, MemRef::indexed(out, cta64, 4), one_based);
        // Block 2 divides by zero after its store.
        let is2 = b.cmp(CmpOp::Eq, Ty::I32, ctaid, Value::I32(2));
        let skip = b.new_label();
        b.bra_unless(is2, skip);
        let z = b.mov_imm(Value::I32(0));
        let _ = b.bin(BinOp::Div, Ty::I32, Value::I32(1), z);
        b.place(skip);
        b.ret();
        let k = b.finish();
        let cfg = LaunchConfig::d1(5, 32);

        let mut mem_seq = GlobalMemory::new(1 << 20);
        let b1 = mem_seq.alloc(4 * 5).unwrap();
        let err_seq = run_threads(&k, cfg, &[Value::U64(b1.addr)], &mut mem_seq, 1).unwrap_err();
        for threads in [2, 3, 8] {
            let mut mem_par = GlobalMemory::new(1 << 20);
            let b2 = mem_par.alloc(4 * 5).unwrap();
            let err_par =
                run_threads(&k, cfg, &[Value::U64(b2.addr)], &mut mem_par, threads).unwrap_err();
            assert_eq!(err_seq, err_par);
            assert_eq!(dump(&mem_seq), dump(&mem_par));
            // Blocks 0..=2 stored, blocks 3.. did not run.
            assert_eq!(mem_par.read(Ty::I32, b2.addr + 8).unwrap(), Value::I32(3));
            assert_eq!(mem_par.read(Ty::I32, b2.addr + 12).unwrap(), Value::I32(0));
        }
    }

    /// Value-returning atomics (`atomicAdd` with a destination register)
    /// observe commit order mid-block, so such kernels take the sequential
    /// path — and still produce correct results at any `host_threads`.
    #[test]
    fn parallel_returning_atomics_run_sequentially() {
        let mut b = KernelBuilder::new("ticket");
        let ctr = b.param(0);
        let out = b.param(1);
        let ticket = b
            .atom_global(
                AtomOp::Add,
                Ty::I32,
                MemRef::direct(ctr),
                Value::I32(1),
                true,
            )
            .expect("value-returning atomic");
        let t64 = b.cvt(Ty::I64, ticket);
        let gid = b.special(SpecialReg::CtaIdX);
        b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), gid);
        let k = b.finish();
        assert!(kernel_returns_atomics(&k));
        let cfg = LaunchConfig::d1(4, 1);
        let mut mem = GlobalMemory::new(1 << 20);
        let c = mem.alloc(4).unwrap();
        let o = mem.alloc(4 * 4).unwrap();
        run_threads(
            &k,
            cfg,
            &[Value::U64(c.addr), Value::U64(o.addr)],
            &mut mem,
            8,
        )
        .unwrap();
        // Sequential ticket order: block i takes ticket i.
        for i in 0..4u64 {
            assert_eq!(
                mem.read(Ty::I32, o.addr + i * 4).unwrap(),
                Value::I32(i as i32)
            );
        }
        assert_eq!(mem.read(Ty::I32, c.addr).unwrap(), Value::I32(4));
    }

    /// Hazard reports are deduplicated per block and merged in block-id
    /// order, so the sanitizer's report list (order, text, and count) is
    /// identical at any thread count. The racy kernel here only *writes*
    /// cross-block, so the parallel path does not fall back — the reports
    /// come from genuinely parallel shadow tracking.
    #[test]
    fn parallel_sanitizer_reports_are_identical() {
        use crate::sanitizer::SanitizerLevel;
        // Every thread of every block writes out[tid] — cross-block
        // same-address conflicts at every slot.
        let mut b = KernelBuilder::new("racy");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let ctaid = b.special(SpecialReg::CtaIdX);
        let tid64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, tid64, 4), ctaid);
        let k = b.finish();
        let cfg = LaunchConfig::d1(4, 32);

        let run_san = |threads: u32| {
            let mut mem = GlobalMemory::new(1 << 20);
            let buf = mem.alloc(4 * 32).unwrap();
            let mut s = LaunchSanitizer::new(SanitizerConfig {
                level: SanitizerLevel::Full,
                ..Default::default()
            });
            let params = [Value::U64(buf.addr)];
            let cost = CostModel::default();
            let ck = TypedKernel::select(crate::cost::ExecTier::Auto, &k, &params, &cost).unwrap();
            run_kernel_instrumented(
                &k,
                cfg,
                &params,
                &mut mem,
                &dev_threads(threads),
                &cost,
                ck.as_ref(),
                None,
                Some(&mut s),
                None,
            )
            .unwrap();
            (s.hazard_count(), s.take_reports(), dump(&mem))
        };
        let (count_seq, reports_seq, mem_seq) = run_san(1);
        assert!(count_seq > 0, "racy kernel must report hazards");
        for threads in [2, 4] {
            let (count, reports, mem) = run_san(threads);
            assert_eq!(count_seq, count);
            assert_eq!(reports_seq, reports);
            // Block-id-ordered dirty-byte commit: the last block's writes
            // win, exactly like sequential execution.
            assert_eq!(mem_seq, mem);
        }
    }

    /// Traces are captured per block and merged in block-id order, so a
    /// bounded trace is event-for-event identical at any thread count —
    /// including the truncation point.
    #[test]
    fn parallel_traces_are_identical() {
        let k = ids_kernel();
        let cfg = LaunchConfig::d1(4, 32);
        let run_traced = |threads: u32| {
            let mut mem = GlobalMemory::new(1 << 20);
            let buf = mem.alloc(4 * 4 * 32).unwrap();
            let mut t = Trace::with_limit(11); // truncates mid-block
            let params = [Value::U64(buf.addr)];
            let cost = CostModel::default();
            let ck = TypedKernel::select(crate::cost::ExecTier::Auto, &k, &params, &cost).unwrap();
            run_kernel_instrumented(
                &k,
                cfg,
                &params,
                &mut mem,
                &dev_threads(threads),
                &cost,
                ck.as_ref(),
                Some(&mut t),
                None,
                None,
            )
            .unwrap();
            t
        };
        let seq = run_traced(1);
        assert!(seq.truncated());
        for threads in [2, 4] {
            let par = run_traced(threads);
            assert_eq!(seq.events(), par.events());
            assert_eq!(seq.truncated(), par.truncated());
            assert_eq!(seq.render(), par.render());
        }
    }
}
