//! The typed execution tier: pre-decoded basic-block runs, statically
//! typed bit-row registers, and warp shapes.
//!
//! `gpsim` has two engines for one IR semantics. The reference interpreter
//! ([`crate::exec`]) is the plainly written oracle: it dispatches one
//! [`Inst`] per warp-step, re-scanning the warp for the minimum PC,
//! re-collecting the active mask, cloning the instruction and resolving
//! branch labels every step. This tier removes all of that from the hot
//! path while staying **bit-identical in every observable output**:
//! memory contents, [`crate::stats::LaunchStats`], modelled cycles,
//! traces, hazard reports, profiles, and error values. The differential
//! suite (`tests/differential.rs`) compares the two.
//!
//! # Tier selection
//!
//! `TypedKernel::select` is the one place an engine is chosen. Under
//! [`ExecTier::Auto`] a launch runs here iff [`CompiledKernel::compile`]
//! **and** the per-launch `CompiledKernel::specialize` both succeed;
//! otherwise — and always under [`ExecTier::Interpret`] — the interpreter
//! runs it. The tier declines, naming one [`Decline`]:
//!
//! * an empty kernel (`Empty`), a kernel whose last instruction falls
//!   through (`FallsThrough`) and one with a branch past the end of the
//!   instruction stream (`BranchPastEnd`): `compile` returns `None`; the
//!   interpreter's handling of a lane reaching `pc == len` is kept by not
//!   modelling it;
//! * a kernel that writes one register at two types (`TwoTypes`) and one
//!   with a `Select` whose arms carry two types (`MixedSelect`):
//!   `specialize` refuses it; the interpreter's registers are dynamically
//!   typed, the rows here are not.
//!
//! No kernel `uhacc_core` codegen emits is declined. A decline costs the
//! interpreter's 5–30× slowdown (`BENCH_sim_throughput.json`), so
//! [`crate::Device::tier_declines`] counts them, and
//! [`crate::Device::tier_decline_reasons`] says why.
//!
//! # Pre-decoded runs
//!
//! [`CompiledKernel::compile`] splits the instruction stream into *runs*
//! by the one rule [`Kernel::runs`] states: a run starts at instruction 0,
//! at every branch target, and after every instruction whose
//! [`crate::ir::Flow`] ends a run: a `Bra`, a `Ret`, or a `Bar` (a warp's
//! lanes *rest* at the instruction after a `Bar` while waiting for the
//! release). [`crate::verify`]'s CFG is built over the same runs.
//!
//! The scheduling invariant that makes run-at-a-time execution exact:
//! runnable lanes only ever rest at leaders (initially at 0; a branch
//! leaves them at its target or fallthrough, both leaders; a barrier
//! release leaves them one past the `Bar`; a fallthrough leaves them at
//! the next leader). While a group of lanes executes a run, every other
//! runnable lane of the warp rests at a leader `>=` the run's end — there
//! is no leader strictly inside a run — so the interpreter's per-step
//! min-PC scan would pick this group's PC at every step of the run. The
//! active mask is therefore constant across the run, and per-instruction
//! PC updates can be deferred to the run boundary (PCs are only *read* at
//! run boundaries: the min-PC scan, barrier bookkeeping, and hazard
//! details all happen when every warp is blocked or between runs).
//!
//! # Warp shapes
//!
//! The paper's loop mapping is window sliding: every index a generated
//! kernel computes is `base + tid + k * stride`, and every loop bound and
//! trip decision is the same for all lanes of a warp. So almost nothing
//! this tier would compute per lane is actually per-lane, and it does not:
//! every `(register row, warp)` carries a `Shape` —
//!
//! * `Rows`: the per-lane bits are in the row;
//! * `Uniform(bits)`: every lane holds `bits`;
//! * `Affine { base, stride }`: the warp's `i`-th lane holds
//!   `base + i * stride`, wrapping in the row's width (integer rows only).
//!
//! **Authority and `sync`.** A non-`Rows` shape *is* the register: a
//! `Uniform` or `Affine` result is one store into the shape table and the
//! row's 32 lanes are not written. The row is materialised only when a
//! per-lane consumer asks, through `TypedState::sync(row)` — the one place
//! a closed form is expanded. A step whose sources are all closed forms
//! and whose operator keeps the form runs once per warp; any other step
//! `sync`s its sources and runs the lane loop. A transfer rule that
//! declines is therefore only slow, never wrong, and there is no static
//! analysis to keep in agreement with the dynamic facts: the shapes are
//! the facts.
//!
//! **Transfer table.**
//!
//! | step | result |
//! |---|---|
//! | `mov imm`, `ld.param`, `ctaid`/`ntid`/`nctaid`, `tid.z` | `Uniform` |
//! | `%linear` | `Affine{lo, 1}` |
//! | `tid.x`, `tid.y` | `Affine{lo % ntid.x, 1}` and `Uniform`, when the warp lies inside one row of the block; else `Rows` |
//! | `mov`, conversions `Id` and `Low32` | keep the shape (truncation is a ring homomorphism) |
//! | conversion `SextI32` | keeps `Affine` iff `base + (len-1)*stride` stays inside `i32` |
//! | any other conversion | `Uniform` stays `Uniform`; `Affine` declines |
//! | any operator, any type, all operands `Uniform` | evaluated once through the same `(op, ty)` scalar evaluator the lane loop calls — a division by zero is raised at the same point with the same value |
//! | integer `add`/`sub` of closed forms, `mul` of a closed form by a `Uniform` | `Affine` (stride 0 collapses to `Uniform`) |
//! | integer `setp` with an `Affine` side | the verdict at the two end lanes as true integers; declines if a sequence wraps in its domain; ordered comparisons are monotone, `eq`/`ne` also need the difference not to cross zero; `Uniform` when the ends agree |
//! | `select` on a `Uniform` condition | the chosen arm's shape |
//! | load/store whose address rows are `Uniform` (and, for a store, its value) | one bounds-checked access; a load yields `Uniform` |
//! | load/store/atomic of the full warp whose base and index are closed forms exact in 64 bits (a 32-bit `Affine` only if `base + (len-1)*stride <= u32::MAX`) | lane `i` accesses `a0 + i*S`, `S = bs + is*scale` wrapping: charged by the O(1) counters of [`crate::coalesce`] where they have a formula, moved by one span read/write when dense (`S` = size) and lane by lane otherwise; a span the memory refuses (bounds, alignment, the overlay's atomics) replays per lane. The address rows are not synced, and the lanes' accesses are listed only for an observer or a count without a formula |
//! | `bra` on a `Uniform` predicate | moves the whole group without scanning the lanes |
//! | value-returning atomic, load from per-lane addresses | `Rows` |
//!
//! **What demotes a shape.** A closed form describes all of the warp's
//! lanes, so only a write by a group that is all of them replaces it. A
//! write under any smaller mask (divergence, siblings resting at a
//! barrier, lanes that have exited) first `sync`s the destination, writes
//! the group's lanes and leaves the row `Rows`; it becomes a closed form
//! again at its next full write. Registers are lane-private — the IR has
//! no shuffle or vote — so "all" could soundly mean "all lanes that have
//! not exited"; measured, that bought nothing on either simulator
//! workload (EXPERIMENTS.md) and is not done.
//!
//! **Why statistics cannot move.** Costs, [`crate::stats::LaunchStats`],
//! traces, hazards and profiles are computed from the mask length and the
//! addresses exactly as in the interpreter; a shape only decides how the
//! *values* are produced. M identical accesses occupy exactly the
//! segments/banks of one, and the sanitizer is still fed per lane. A
//! closed-form access is counted in O(1) only where the count is a theorem
//! about the lanes' list — positive `S`, no address past `u64::MAX`, a
//! gap between neighbours shorter than a segment (word), or a stride of
//! whole segments (words) with no access spilling — held against the
//! reference counters by a property test; anything else lists the lanes
//! and counts them with the same twins as before. Lane `i` is the `i`-th
//! lane of the full warp, so a span replayed lane by lane faults at the
//! interpreter's lane with the interpreter's partial writes, and an
//! observer reads the same list. What the shapes did is reported
//! separately ([`ShapeCensus`], beside [`crate::Device::tier_declines`]).
//!
//! Debug builds keep a shadow: every closed form is also expanded into its
//! row when it is recorded or the block starts (still marked stale, so
//! `sync` runs as in release), and a closed form is asserted equal to its
//! row every time a step reads it, and once more — the whole table — when
//! the block ends.
//! The differential suite run in debug thus checks every shape any of its
//! kernels ever produces. (Not the whole table after *every* step: that
//! makes the tier-1 debug run 11× slower for no extra coverage — a row can
//! only go wrong by being written, and every later read of it is checked.)
//!
//! # Launch-scoped state
//!
//! A block's working state — the bit rows, the shape table, the mask and
//! the coalescing scratch, `TypedState` — belongs to the *launch*: each
//! executor thread (the sequential executor, or one worker of the parallel
//! one) builds one when the launch starts, runs all of its blocks on it
//! and drops it when the launch returns. At the paper's dimensions the
//! rows are ~0.5 MB a block and warp shapes leave almost all of them
//! untouched, so zeroing them for every block cost more than any step.
//!
//! A block therefore starts on the previous block's lanes. What makes
//! them unreachable is the shape table, the only thing a block start
//! writes: every register slot is `Uniform(0)` (the interpreter's zero)
//! and every constant slot `Uniform(c)`, marked `RowState::Initial` — a
//! closed form that is *not* in the row. Every per-lane reader goes
//! through `sync`, which expands such a slot first; a partial-mask write
//! `sync`s its destination before writing (`rows_dst`), so the lanes
//! outside the group get their zero; a full write overwrites every lane
//! of the warp. Expanding an `Initial` slot is not counted as a `sync` in
//! the census: the tier decided nothing that is being undone.
//!
//! The state is not kept past the launch (no thread-local, no pool):
//! measured, that raised peak RSS by 1–5 MB per workload for nothing —
//! one allocation per launch is already free. The launch's
//! [`ShapeCensus`] is accumulated in the state and added to the kernel's
//! when the state is dropped, one lock per executor thread instead of one
//! per block. Debug builds materialise the initial rows at every block
//! start, so the shadow assertions hold from the first read.
//!
//! # Static run costs
//!
//! `specialize` knows the launch's [`CostModel`], so it tabulates what is
//! constant about every instruction: its issue cycle plus its ALU cycles
//! ([`CostModel::alu_cycles`] of its [`Inst::cost`]), as a prefix sum
//! `static_cycles`. Only memory steps (transactions, bank-conflict ways),
//! atomics (active lanes) and barriers add cycles on top, when they
//! execute, through the charge the interpreter uses too.
//!
//! The step is instantiated twice. *Observed* (a tracer or a profiler is
//! attached) it counts `warp_insts`/`lane_insts`, charges its cycles,
//! fills the profiler's counter delta and checks the watchdog, per step,
//! exactly as the interpreter does. *Unobserved*, none of that is in the
//! step: a run charges `warp_insts += len`, `lane_insts += len * |mask|`
//! and `static_cycles[end] - static_cycles[start]` once, at its entry.
//! That is exact because a `Bra`, `Bar` or `Ret` is by construction the
//! *last* instruction of its run and the mask is constant across it, so a
//! run that does not fault executes every one of its steps — and a block
//! that faults has its `LaunchStats` dropped by both executors.
//!
//! The watchdog trips *after* the first warp-instruction past its limit,
//! with that instruction's effects committed, so where it trips is
//! observable (the `Err` value, global memory). A run entered with
//! `warp_insts + len <= limit` cannot trip and is not watched. Any other
//! run — and the rest of its group's chase — executes in the observed
//! instantiation with no observer attached, which counts and checks per
//! step: the trip point is the interpreter's, and there is no third path.
//!
//! # Typed bit rows
//!
//! `CompiledKernel::specialize` assigns every virtual register a single
//! static [`Ty`] (a flow-insensitive merge over all of its definitions,
//! each typed by [`Inst::def_ty`]; `Mov`/`Select` propagate to a
//! fixpoint). The block's registers are raw
//! `u64` *bit rows* indexed `row * n_threads + lane` — `I32`/`F32`/`Pred`
//! zero-extended, `I64`/`U64`/`F64` as their 64-bit representation — and
//! every [`Inst`] is lowered to a `TOp`: branch labels resolved,
//! operand conversions (`Conv`) resolved to mirror [`Value::convert`] /
//! `as_u64` / `as_i64` / `as_bool` *exactly*, immediates pre-converted
//! into broadcast constant rows, and access sizes classified.
//! Registers the kernel never writes hold the interpreter's
//! `Value::I32(0)`; a `Uniform(0)` slot reproduces that under any static
//! type because zero is a fixed point of every conversion in the table.
//!
//! # Lane kernels
//!
//! The semantics are stated once per family, as scalar evaluators over
//! encoded bits: `bin_scalar`, `cmp_scalar`, `un_scalar`, `Conv::apply`
//! and `cond_true`. A once-per-warp step calls them directly. A step that
//! runs per lane (`Bin`, `Cmp`, `Un`, `Cvt`, `Select`) runs a *lane
//! kernel*: a loop over slices with the evaluator inlined at one constant
//! `(op, ty)`, `Conv` or `CondKind`, so nothing in it dispatches.
//! `specialize` picks the kernel from one macro-built table
//! (`per_variant!`) and stores it in the `TOp` as a `fn` pointer; a step
//! pays one indirect call, not one per lane.
//!
//! **Faults are found before the loop.** A kernel cannot fault, because it
//! is only given lanes that do not. Which lanes fault is a `Guard`, also
//! decided at `specialize` by asking the evaluator itself: an ill-typed
//! `(op, ty)` (`and.f64`, `add.pred`, `sqrt.s32`) faults at lane 0 and
//! writes nothing; integer `div`/`rem` fault at the first lane whose
//! converted divisor is zero — the step scans for it, runs the kernel over
//! the lanes before it, and raises the evaluator's own `Err` for that
//! lane. That is the interpreter's order exactly: lanes run in ascending
//! order, the ones before a fault are written, none after it.
//!
//! **Operands and results.** A contiguous group's operand used through
//! `Conv::Id` is read straight from its row; any other is gathered and
//! converted (by its `Conv`'s in-place kernel) into launch-scoped scratch
//! in `TypedState`, never zeroed per step. Results go to scratch as well
//! and reach the destination row after every operand was read, because a
//! row can be both.

use crate::coalesce::{conflict_ways, span_conflict_ways, span_transactions, transactions};
use crate::cost::{CostModel, DeviceConfig, ExecTier};
use crate::error::SimError;
use crate::exec::{mref_addr, BlockExec, MemView};
use crate::ir::{
    AtomOp, BinOp, CmpOp, CostClass, Flow, Inst, Kernel, MemRef, Operand, Reg, Space, SpecialReg,
    UnOp,
};
use crate::memory::AccessAbort;
use crate::profile::PcCounters;
use crate::trace::TraceEvent;
use crate::types::{Ty, Value};
use crate::warp::{self, WARP_SIZE};
use std::sync::Mutex;

/// How a run ends (rendered by [`CompiledKernel::describe`]).
#[derive(Debug, Clone, Copy)]
enum Term {
    Bra { target: usize, cond: bool },
    Ret,
    Bar,
    Fallthrough,
}

/// One of [`Kernel::runs`], `[start, end)`, with how it ends.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    end: usize,
    term: Term,
}

/// Why the typed tier declined a launch, which then ran on the
/// interpreter (see "Tier selection" in the module docs).
/// [`crate::Device::tier_decline_reasons`] counts them by reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decline {
    /// The kernel has no instructions.
    Empty,
    /// Its last instruction falls through: a lane could reach the end of
    /// the instruction stream.
    FallsThrough,
    /// A branch targets the end of the instruction stream.
    BranchPastEnd,
    /// A register is written at two types.
    TwoTypes,
    /// A `Select`'s arms carry two types.
    MixedSelect,
}

impl Decline {
    /// Every reason, in declaration order (so `reason as usize` is its
    /// index here), the order [`crate::Device`] reports them in.
    pub const ALL: [Decline; 5] = [
        Decline::Empty,
        Decline::FallsThrough,
        Decline::BranchPastEnd,
        Decline::TwoTypes,
        Decline::MixedSelect,
    ];
}

impl std::fmt::Display for Decline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Decline::Empty => "an empty kernel",
            Decline::FallsThrough => "the last instruction falls through",
            Decline::BranchPastEnd => "a branch past the end",
            Decline::TwoTypes => "a register written at two types",
            Decline::MixedSelect => "a select with mixed arms",
        })
    }
}

/// The launch-independent part of the typed tier's pre-decoding: the run
/// structure. `specialize` lowers the instructions themselves once the
/// parameter types are known.
#[derive(Debug)]
pub struct CompiledKernel {
    num_regs: usize,
    runs: Vec<Run>,
    /// `run_of[pc]` = index of the run containing `pc`.
    run_of: Vec<usize>,
}

impl CompiledKernel {
    /// Pre-decode `kernel`. Returns `None` for shapes the tier does not
    /// model (empty kernels, kernels whose control flow can leave the
    /// instruction stream) — the launch runs on the interpreter,
    /// preserving its behavior exactly.
    pub fn compile(kernel: &Kernel) -> Option<CompiledKernel> {
        CompiledKernel::decode(kernel).ok()
    }

    /// [`CompiledKernel::compile`], naming why it declines.
    fn decode(kernel: &Kernel) -> Result<CompiledKernel, Decline> {
        let n = kernel.insts.len();
        // The last instruction must not fall through, otherwise a lane can
        // advance to pc == n (the interpreter treats that as a malformed
        // kernel; keep its behavior by declining). A branch target of n
        // (one past the end — the builder permits labels placed after the
        // final `ret`) is likewise left to the interpreter.
        let last = kernel.insts.last().ok_or(Decline::Empty)?;
        if last.flow().falls_through() {
            return Err(Decline::FallsThrough);
        }
        for inst in &kernel.insts {
            if let Flow::Branch { target, .. } = inst.flow() {
                if !matches!(kernel.label_targets.get(target.0 as usize), Some(&t) if t < n) {
                    return Err(Decline::BranchPastEnd);
                }
            }
        }
        let (spans, run_of) = kernel.runs();
        let runs = spans
            .into_iter()
            .map(|span| {
                let term = match kernel.insts[span.end - 1].flow() {
                    Flow::Branch { target, cond } => Term::Bra {
                        target: kernel.target(target),
                        cond: cond.is_some(),
                    },
                    Flow::Exit => Term::Ret,
                    Flow::Sync => Term::Bar,
                    Flow::Next => Term::Fallthrough,
                };
                Run {
                    start: span.start,
                    end: span.end,
                    term,
                }
            })
            .collect();
        Ok(CompiledKernel {
            num_regs: kernel.num_regs as usize,
            runs,
            run_of,
        })
    }

    /// Textual dump of the pre-decoded form (run boundaries and
    /// terminators) for golden tests and debugging.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            ".compiled (regs={}, runs={})",
            self.num_regs,
            self.runs.len()
        );
        for (i, r) in self.runs.iter().enumerate() {
            let term = match r.term {
                Term::Bra { target, cond: true } => format!("bra.cond -> {target} | {}", r.end),
                Term::Bra {
                    target,
                    cond: false,
                } => format!("bra -> {target}"),
                Term::Ret => "ret".to_string(),
                Term::Bar => format!("bar -> {}", r.end),
                Term::Fallthrough => format!("fallthrough -> {}", r.end),
            };
            let _ = writeln!(out, "  run {i}: pc {}..{} [{term}]", r.start, r.end);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Lowering: static register types over raw bit rows
// ---------------------------------------------------------------------------

/// Bit encoding of a [`Value`] in a typed register row: `I32`/`F32`/
/// `Pred` zero-extended, 64-bit types as their representation. Every
/// writer of a typed row maintains this encoding.
#[inline(always)]
fn value_bits(v: Value) -> u64 {
    match v {
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::U64(x) => x,
        Value::F32(x) => x.to_bits() as u64,
        Value::F64(x) => x.to_bits(),
        Value::Pred(x) => x as u64,
    }
}

/// Inverse of [`value_bits`] at a static type (used where a [`Value`]
/// crosses back into shared code: memory writes and atomics).
#[inline(always)]
fn bits_value(ty: Ty, b: u64) -> Value {
    match ty {
        Ty::I32 => Value::I32(b as u32 as i32),
        Ty::I64 => Value::I64(b as i64),
        Ty::U64 => Value::U64(b),
        Ty::F32 => Value::F32(f32::from_bits(b as u32)),
        Ty::F64 => Value::F64(f64::from_bits(b)),
        Ty::Pred => Value::Pred(b != 0),
    }
}

/// A compile-time-resolved operand conversion over encoded bits. Each
/// variant is the bit-level image of one `(source variant, target type)`
/// arm of [`Value::convert`] (or `as_u64`/`as_i64` for addresses); the
/// typed tier is bit-identical to the interpreter because this table is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conv {
    Id,
    /// `I64`/`U64` -> `I32`: truncate (`as_i64() as i32`).
    Low32,
    /// `I32` -> `I64`/`U64`: sign-extend.
    SextI32,
    /// `F32` -> `I32`: saturating `v as i32`.
    F32ToI32,
    /// `F64` -> `I32`: saturating `v as i32`.
    F64ToI32,
    /// `F32` -> `I64`/`U64`: saturating `v as i64` (then reinterpreted).
    F32ToI64,
    /// `F64` -> `I64`/`U64`.
    F64ToI64,
    I32ToF32,
    I64ToF32,
    U64ToF32,
    /// `F32` -> `F32` is *not* the identity: it quiets a signalling NaN
    /// (see [`crate::types::quiet_f32`], which `convert` calls too).
    F32Round,
    F64ToF32,
    PredToF32,
    I32ToF64,
    I64ToF64,
    U64ToF64,
    F32ToF64,
    PredToF64,
    /// Integer-encoded -> `Pred`: bits non-zero.
    IntPred,
    /// `F32` -> `Pred`: value non-zero (`-0.0` is false, NaN is true).
    F32Pred,
    F64Pred,
}

impl Conv {
    #[inline(always)]
    fn apply(self, b: u64) -> u64 {
        match self {
            Conv::Id => b,
            Conv::Low32 => b as u32 as u64,
            Conv::SextI32 => (b as u32 as i32) as i64 as u64,
            Conv::F32ToI32 => (f32::from_bits(b as u32) as i32) as u32 as u64,
            Conv::F64ToI32 => (f64::from_bits(b) as i32) as u32 as u64,
            Conv::F32ToI64 => (f32::from_bits(b as u32) as i64) as u64,
            Conv::F64ToI64 => (f64::from_bits(b) as i64) as u64,
            Conv::I32ToF32 => (((b as u32 as i32) as f64) as f32).to_bits() as u64,
            Conv::I64ToF32 => (((b as i64) as f64) as f32).to_bits() as u64,
            Conv::U64ToF32 => ((b as f64) as f32).to_bits() as u64,
            Conv::F32Round => crate::types::quiet_f32(f32::from_bits(b as u32)).to_bits() as u64,
            Conv::F64ToF32 => (f64::from_bits(b) as f32).to_bits() as u64,
            Conv::PredToF32 => ((b as f64) as f32).to_bits() as u64,
            Conv::I32ToF64 => ((b as u32 as i32) as f64).to_bits(),
            Conv::I64ToF64 => ((b as i64) as f64).to_bits(),
            Conv::U64ToF64 => (b as f64).to_bits(),
            Conv::F32ToF64 => (f32::from_bits(b as u32) as f64).to_bits(),
            Conv::PredToF64 => (b as f64).to_bits(),
            Conv::IntPred => (b != 0) as u64,
            Conv::F32Pred => (f32::from_bits(b as u32) != 0.0) as u64,
            Conv::F64Pred => (f64::from_bits(b) != 0.0) as u64,
        }
    }
}

/// The conversion a register of static type `from` needs when used at
/// type `to`. Exact image of [`Value::convert`]; `(I64, U64)` and
/// `(U64, I64)` are bit-identities, `(Pred, int)` stays 0/1.
fn conv_for(from: Ty, to: Ty) -> Conv {
    use Ty::*;
    match (from, to) {
        (I32, I32) | (I64, I64) | (U64, U64) | (F64, F64) | (Pred, Pred) => Conv::Id,
        (I64, U64) | (U64, I64) => Conv::Id,
        (Pred, I32) | (Pred, I64) | (Pred, U64) => Conv::Id,
        (I64, I32) | (U64, I32) => Conv::Low32,
        (I32, I64) | (I32, U64) => Conv::SextI32,
        (F32, I32) => Conv::F32ToI32,
        (F64, I32) => Conv::F64ToI32,
        (F32, I64) | (F32, U64) => Conv::F32ToI64,
        (F64, I64) | (F64, U64) => Conv::F64ToI64,
        (I32, F32) => Conv::I32ToF32,
        (I64, F32) => Conv::I64ToF32,
        (U64, F32) => Conv::U64ToF32,
        (F32, F32) => Conv::F32Round,
        (F64, F32) => Conv::F64ToF32,
        (Pred, F32) => Conv::PredToF32,
        (I32, F64) => Conv::I32ToF64,
        (I64, F64) => Conv::I64ToF64,
        (U64, F64) => Conv::U64ToF64,
        (F32, F64) => Conv::F32ToF64,
        (Pred, F64) => Conv::PredToF64,
        (I32, Pred) | (I64, Pred) | (U64, Pred) => Conv::IntPred,
        (F32, Pred) => Conv::F32Pred,
        (F64, Pred) => Conv::F64Pred,
    }
}

/// How a condition row is tested for truth (`as_bool` over encoded
/// bits). Integer encodings test bits-non-zero; floats must decode
/// (`-0.0` has non-zero bits but is false).
#[derive(Debug, Clone, Copy)]
enum CondKind {
    Int,
    F32,
    F64,
}

#[inline(always)]
fn cond_true(k: CondKind, b: u64) -> bool {
    match k {
        CondKind::Int => b != 0,
        CondKind::F32 => f32::from_bits(b as u32) != 0.0,
        CondKind::F64 => f64::from_bits(b) != 0.0,
    }
}

fn cond_kind(ty: Ty) -> CondKind {
    match ty {
        Ty::F32 => CondKind::F32,
        Ty::F64 => CondKind::F64,
        _ => CondKind::Int,
    }
}

/// A typed memory reference: rows plus pre-resolved conversions for the
/// base (`as_u64`) and index (`as_i64`) as the interpreter applies them.
#[derive(Debug, Clone, Copy)]
struct TMem {
    base: usize,
    bc: Conv,
    index: Option<(usize, Conv)>,
    scale: i64,
    disp: i64,
    size: usize,
}

/// One instruction of the typed lowering. Operands are row indices
/// (register rows first, then broadcast constant rows holding
/// pre-converted immediates) with their conversions resolved.
#[derive(Debug, Clone)]
enum TOp {
    /// Write the same bits to every active lane (`MovImm`, `ReadParam`
    /// with the parameter present, `Cvt` of an immediate).
    Broadcast {
        dst: usize,
        bits: u64,
    },
    /// `ReadParam` past the end of the parameter list: the
    /// interpreter's `BadParams` error, at the same point.
    BadParams,
    ReadSpecial {
        dst: usize,
        sr: SpecialReg,
    },
    Bin {
        k: BinK,
        dst: usize,
        a: Arg,
        b: Arg,
    },
    Cmp {
        k: CmpK,
        dst: usize,
        a: Arg,
        b: Arg,
    },
    Un {
        k: UnK,
        dst: usize,
        a: Arg,
    },
    Select {
        k: SelK,
        dst: usize,
        cond: Arg,
        a: Arg,
        b: Arg,
    },
    /// Row-to-row conversion; `Conv::Id` is a plain `Mov`.
    Cvt {
        dst: usize,
        src: Arg,
    },
    /// `LdGlobal`/`LdShared`.
    Ld {
        space: Space,
        ty: Ty,
        dst: usize,
        mem: TMem,
    },
    /// `StGlobal`/`StShared`.
    St {
        space: Space,
        ty: Ty,
        src: usize,
        sc: Conv,
        mem: TMem,
    },
    AtomGlobal {
        op: AtomOp,
        ty: Ty,
        mem: TMem,
        src: usize,
        sc: Conv,
        dst: Option<usize>,
    },
    Bar,
    Bra {
        target: usize,
        cond: Option<(usize, CondKind, bool)>,
    },
    Ret,
}

fn ri(r: Reg) -> usize {
    r.0 as usize
}

/// Flow-insensitive register type inference: every definition of a
/// register must produce one type (its [`Inst::def_ty`]; `Mov`/`Select`
/// propagate their source types to a fixpoint and `ReadParam` takes its
/// parameter's; never-written registers keep the interpreter's `I32`
/// zero). Declines when a register is written at two types or a `Select`
/// mixes its arms' types — the launch runs on the interpreter.
fn infer_reg_types(kernel: &Kernel, params: &[Value]) -> Result<Vec<Ty>, Decline> {
    let opnd_ty = |tys: &[Option<Ty>], o: &Operand| match o {
        Operand::Reg(r) => tys[ri(*r)],
        Operand::Imm(v) => Some(v.ty()),
    };
    let mut tys = vec![Some(Ty::I32); kernel.num_regs as usize];
    for inst in &kernel.insts {
        if let Some(d) = inst.def() {
            tys[ri(d)] = None;
        }
    }
    // Fixpoint: each pass resolves defs whose inputs are known; a
    // two-type register fails. The validation pass re-checks every def
    // against the defaulted assignment so unresolved cycles (only ever
    // holding initial zeros) stay consistent.
    for validate in [false, true] {
        if validate {
            for t in tys.iter_mut() {
                t.get_or_insert(Ty::I32);
            }
        }
        loop {
            let mut changed = false;
            for inst in &kernel.insts {
                let Some(d) = inst.def() else { continue };
                let t = match inst {
                    Inst::Mov { src, .. } => tys[ri(*src)],
                    Inst::ReadParam { idx, .. } => {
                        Some(params.get(*idx as usize).map_or(Ty::I32, |v| v.ty()))
                    }
                    Inst::Select { a, b, .. } => match (opnd_ty(&tys, a), opnd_ty(&tys, b)) {
                        (Some(x), Some(y)) if x == y => Some(x),
                        // A select whose arms carry two types passes
                        // values through unconverted: not typeable.
                        (Some(_), Some(_)) => return Err(Decline::MixedSelect),
                        _ => None,
                    },
                    // Every other def's type is the table's.
                    _ => inst.def_ty(),
                };
                match (tys[ri(d)], t) {
                    (_, None) => {}
                    (None, Some(_)) => {
                        tys[ri(d)] = t;
                        changed = true;
                    }
                    (Some(u), Some(t)) if u == t => {}
                    (Some(_), Some(_)) => return Err(Decline::TwoTypes),
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok(tys.into_iter().map(|t| t.unwrap_or(Ty::I32)).collect())
}

/// Lowering state: the inferred register types plus the constant-row
/// pool (deduplicated pre-converted immediates).
struct Lower {
    rt: Vec<Ty>,
    num_regs: usize,
    consts: Vec<u64>,
}

impl Lower {
    fn row_for(&mut self, bits: u64) -> usize {
        match self.consts.iter().position(|&c| c == bits) {
            Some(i) => self.num_regs + i,
            None => {
                self.consts.push(bits);
                self.num_regs + self.consts.len() - 1
            }
        }
    }

    /// An operand used at type `to`: register rows get the static
    /// conversion, immediates are converted now and become constant
    /// rows (so the lane loops never branch on operand shape).
    fn row(&mut self, o: &Operand, to: Option<Ty>) -> (usize, Conv) {
        match o {
            Operand::Reg(r) => (
                ri(*r),
                to.map_or(Conv::Id, |t| conv_for(self.rt[ri(*r)], t)),
            ),
            Operand::Imm(v) => {
                let v = to.map_or(*v, |t| v.convert(t));
                (self.row_for(value_bits(v)), Conv::Id)
            }
        }
    }

    /// [`Lower::row`] as a lane-kernel operand.
    fn arg(&mut self, o: &Operand, to: Option<Ty>) -> Arg {
        let (row, cv) = self.row(o, to);
        Arg::new(row, cv)
    }

    /// Address rows: base as `as_u64`, index as `as_i64` — exactly the
    /// conversions the interpreter's `resolve_mref` applies.
    fn tmem(&mut self, m: &MemRef, ty: Ty) -> TMem {
        let (base, bc) = self.row(&m.base, Some(Ty::U64));
        TMem {
            base,
            bc,
            index: m.index.map(|r| (ri(r), conv_for(self.rt[ri(r)], Ty::I64))),
            scale: m.scale as i64,
            disp: m.disp,
            size: ty.size(),
        }
    }
}

/// A [`CompiledKernel`] lowered for one launch's parameter list: what the
/// typed tier executes, shared across all blocks and host worker threads.
#[derive(Debug)]
pub(crate) struct TypedKernel {
    ck: CompiledKernel,
    tops: Vec<TOp>,
    /// What every warp's slots hold when a block starts: the interpreter's
    /// zero for the `ck.num_regs` register rows, then one broadcast row
    /// per pre-converted immediate.
    init: Vec<Slot>,
    /// `static_cycles[pc]` = the issue and ALU cycles of instructions
    /// `0..pc` (see "Static run costs" in the module docs).
    static_cycles: Vec<u64>,
    /// What the blocks of this launch decided (each [`TypedState`] adds
    /// its own when the launch drops it).
    census: Mutex<ShapeCensus>,
}

impl TypedKernel {
    /// The engine for one launch: `Ok(Some)` runs on the typed tier,
    /// `Ok(None)` on the interpreter as asked, `Err` on the interpreter
    /// because the tier declined, and why. The only place `(tier, kernel,
    /// params)` maps to an engine.
    pub(crate) fn select(
        tier: ExecTier,
        kernel: &Kernel,
        params: &[Value],
        cost: &CostModel,
    ) -> Result<Option<Self>, Decline> {
        match tier {
            ExecTier::Interpret => Ok(None),
            ExecTier::Auto => CompiledKernel::decode(kernel)?
                .specialize(kernel, params, cost)
                .map(Some),
        }
    }

    /// The launch's shape census so far.
    pub(crate) fn census(&self) -> ShapeCensus {
        *self.census.lock().expect("census updates cannot panic")
    }
}

impl CompiledKernel {
    /// Lower `kernel` (the one `self` was compiled from) to [`TOp`]s for a
    /// concrete parameter list and cost model — parameter types feed the
    /// register type inference, so this happens once per launch. Declines
    /// when the kernel is not statically typeable.
    pub(crate) fn specialize(
        self,
        kernel: &Kernel,
        params: &[Value],
        cost: &CostModel,
    ) -> Result<TypedKernel, Decline> {
        let mut lo = Lower {
            rt: infer_reg_types(kernel, params)?,
            num_regs: self.num_regs,
            consts: Vec::new(),
        };
        let space = |inst: &Inst| inst.access().expect("loads and stores access memory").space;
        let mut tops = Vec::with_capacity(kernel.insts.len());
        let (mut static_cycles, mut sum) = (Vec::with_capacity(kernel.insts.len() + 1), 0);
        static_cycles.push(0);
        for inst in &kernel.insts {
            let top = match inst {
                Inst::MovImm { dst, value } => TOp::Broadcast {
                    dst: ri(*dst),
                    bits: value_bits(*value),
                },
                Inst::Mov { dst, src } => TOp::Cvt {
                    dst: ri(*dst),
                    src: Arg::new(ri(*src), Conv::Id),
                },
                Inst::ReadSpecial { dst, sr } => TOp::ReadSpecial {
                    dst: ri(*dst),
                    sr: *sr,
                },
                Inst::ReadParam { dst, idx } => match params.get(*idx as usize) {
                    Some(v) => TOp::Broadcast {
                        dst: ri(*dst),
                        bits: value_bits(*v),
                    },
                    None => TOp::BadParams,
                },
                Inst::Bin { op, ty, dst, a, b } => TOp::Bin {
                    k: BinK::of(*op, *ty),
                    dst: ri(*dst),
                    a: lo.arg(a, Some(*ty)),
                    b: lo.arg(b, Some(*ty)),
                },
                Inst::Cmp { op, ty, dst, a, b } => TOp::Cmp {
                    k: CmpK::of(*op, *ty),
                    dst: ri(*dst),
                    a: lo.arg(a, Some(*ty)),
                    b: lo.arg(b, Some(*ty)),
                },
                Inst::Un { op, ty, dst, a } => TOp::Un {
                    k: UnK::of(*op, *ty),
                    dst: ri(*dst),
                    a: lo.arg(a, Some(*ty)),
                },
                // Select passes values through unconverted; the inference
                // guaranteed both arms are the dst type.
                Inst::Select { dst, cond, a, b } => TOp::Select {
                    k: SelK::of(cond_kind(lo.rt[ri(*cond)])),
                    dst: ri(*dst),
                    cond: Arg::new(ri(*cond), Conv::Id),
                    a: lo.arg(a, None),
                    b: lo.arg(b, None),
                },
                Inst::Cvt { dst, ty, src } => match src {
                    Operand::Reg(r) => TOp::Cvt {
                        dst: ri(*dst),
                        src: Arg::new(ri(*r), conv_for(lo.rt[ri(*r)], *ty)),
                    },
                    Operand::Imm(v) => TOp::Broadcast {
                        dst: ri(*dst),
                        bits: value_bits(v.convert(*ty)),
                    },
                },
                Inst::LdGlobal { ty, dst, mref } | Inst::LdShared { ty, dst, mref } => TOp::Ld {
                    space: space(inst),
                    ty: *ty,
                    dst: ri(*dst),
                    mem: lo.tmem(mref, *ty),
                },
                Inst::StGlobal { ty, src, mref } | Inst::StShared { ty, src, mref } => {
                    let (src, sc) = lo.row(src, Some(*ty));
                    TOp::St {
                        space: space(inst),
                        ty: *ty,
                        src,
                        sc,
                        mem: lo.tmem(mref, *ty),
                    }
                }
                Inst::AtomGlobal {
                    op,
                    ty,
                    mref,
                    src,
                    dst,
                } => {
                    let (src, sc) = lo.row(src, Some(*ty));
                    TOp::AtomGlobal {
                        op: *op,
                        ty: *ty,
                        mem: lo.tmem(mref, *ty),
                        src,
                        sc,
                        dst: dst.map(ri),
                    }
                }
                Inst::Bar => TOp::Bar,
                // `compile` checked every target is inside the stream.
                Inst::Bra { target, cond } => TOp::Bra {
                    target: kernel.target(*target),
                    cond: cond.map(|(r, e)| (ri(r), cond_kind(lo.rt[ri(r)]), e)),
                },
                Inst::Ret => TOp::Ret,
            };
            // A `ReadParam` past the end faults: its issue cycle only.
            let alu = match top {
                TOp::BadParams => 0,
                _ => cost.alu_cycles(inst.cost()),
            };
            sum += cost.issue + alu;
            static_cycles.push(sum);
            tops.push(top);
        }
        let init = std::iter::repeat_n(0, self.num_regs)
            .chain(lo.consts)
            .map(|bits| Slot {
                shape: Shape::Uniform(bits),
                row: RowState::Initial,
            })
            .collect();
        Ok(TypedKernel {
            ck: self,
            tops,
            init,
            static_cycles,
            census: Mutex::default(),
        })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Charge the warp's load/store through `acc`, whose accesses are `size`
/// bytes each. A closed form is counted by the O(1) twins; one that has
/// none, and every listed access, by the allocation-free twins over
/// `exec.scratch_addr` — one entry per active lane, or a single entry when
/// every lane makes the same access (M identical accesses occupy exactly
/// the segments/banks of one). Charged by the interpreter's
/// [`BlockExec::charge`]; `d` is only filled for an observer.
#[inline(always)]
fn charge_mem<const OBSERVED: bool>(
    space: Space,
    exec: &mut BlockExec,
    st: &mut TypedState,
    acc: Addrs,
    size: usize,
    d: &mut PcCounters,
) {
    let span = match acc {
        Addrs::Span { a0, stride } => Some((a0, stride)),
        _ => None,
    };
    // The class is a constant per call, so the inlined `charge` folds its
    // match. One charge after a match on the space measured 14% slower
    // on the Table-2 simulation workload.
    match space {
        Space::Global => {
            let seg = exec.dev.segment_bytes;
            let tx = match span.and_then(|(a0, s)| span_transactions(a0, s, size, st.len, seg)) {
                Some(tx) => tx,
                None => {
                    acc.list(&mut exec.scratch_addr, size, st.len);
                    transactions(&exec.scratch_addr, seg, &mut st.seg_buf)
                }
            };
            exec.charge::<OBSERVED>(CostClass::Memory(Space::Global), tx, d);
        }
        Space::Shared => {
            let banks = exec.dev.shared_banks;
            let ways = match span.and_then(|(a0, s)| span_conflict_ways(a0, s, size, st.len, banks))
            {
                Some(ways) => ways,
                None => {
                    acc.list(&mut exec.scratch_addr, size, st.len);
                    let (buf, counts) = (&mut st.seg_buf, &mut st.bank_counts);
                    conflict_ways(&exec.scratch_addr, banks, buf, counts)
                }
            };
            exec.charge::<OBSERVED>(CostClass::Memory(Space::Shared), ways, d);
        }
    }
}

/// The typed tier's bit-row accessors over either address space.
impl BlockExec<'_, '_> {
    #[inline(always)]
    fn read_bits(&mut self, space: Space, ty: Ty, addr: u64) -> Result<u64, AccessAbort> {
        match space {
            Space::Global => self.view.read_bits(ty, addr),
            Space::Shared => Ok(self.shared.read_bits(ty, addr)?),
        }
    }

    #[inline(always)]
    fn write_bits(
        &mut self,
        space: Space,
        ty: Ty,
        addr: u64,
        bits: u64,
    ) -> Result<(), AccessAbort> {
        match space {
            Space::Global => self.view.write_bits(ty, addr, bits),
            Space::Shared => Ok(self.shared.write_bits(ty, addr, bits)?),
        }
    }

    /// Coalesced span read; `false` means the caller must replay per lane.
    #[inline(always)]
    fn read_span_bits(&mut self, space: Space, ty: Ty, addr: u64, out: &mut [u64]) -> bool {
        match space {
            Space::Global => self.view.read_span_bits(ty, addr, out),
            Space::Shared => self.shared.read_span_bits(ty, addr, out),
        }
    }

    #[inline(always)]
    fn write_span_bits(&mut self, space: Space, ty: Ty, addr: u64, src: &[u64]) -> bool {
        match space {
            Space::Global => self.view.write_span_bits(ty, addr, src),
            Space::Shared => self.shared.write_span_bits(ty, addr, src),
        }
    }
}

// --- The (op, ty) tables: one scalar evaluator each -------------------------

/// The `(BinOp, Ty)` table over encoded bits, operands already converted
/// to `ty`: the bit-level image of [`crate::exec::eval_bin`]. This is the
/// primitive — a once-per-warp step calls it once, and the lane kernel
/// `BinK::of` chooses calls it per lane with `op` and `ty` bound to
/// constants, so it folds to the one operator.
#[inline(always)]
fn bin_scalar(op: BinOp, ty: Ty, x: u64, y: u64) -> Result<u64, SimError> {
    macro_rules! int {
        ($t:ty, $enc:expr) => {{
            let (x, y) = (x as $t, y as $t);
            let r: $t = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div | BinOp::Rem if y == 0 => return Err(SimError::DivisionByZero),
                BinOp::Div => x.wrapping_div(y),
                BinOp::Rem => x.wrapping_rem(y),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32),
                BinOp::Shr => x.wrapping_shr(y as u32),
            };
            $enc(r)
        }};
    }
    // Float results are NaN-canonicalized, the bit-level image of
    // `eval_bin`'s canonicalization (see [`crate::types::canon_f32`]).
    macro_rules! float {
        ($dec:expr, $enc:expr) => {{
            let (x, y) = ($dec(x), $dec(y));
            $enc(match op {
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
            })
        }};
    }
    Ok(match ty {
        Ty::I32 => int!(i32, |r: i32| r as u32 as u64),
        Ty::I64 => int!(i64, |r: i64| r as u64),
        Ty::U64 => int!(u64, |r: u64| r),
        Ty::F32 => float!(
            |b: u64| f32::from_bits(b as u32),
            |r: f32| crate::types::canon_f32(r).to_bits() as u64
        ),
        Ty::F64 => float!(f64::from_bits, |r: f64| crate::types::canon_f64(r)
            .to_bits()),
        Ty::Pred => {
            let (x, y) = (x != 0, y != 0);
            (match op {
                BinOp::And => x && y,
                BinOp::Or => x || y,
                BinOp::Xor => x ^ y,
                _ => {
                    return Err(SimError::TypeError {
                        context: format!("arithmetic {op} on predicate"),
                    })
                }
            }) as u64
        }
    })
}

/// The `(CmpOp, Ty)` table: the bit-level image of
/// [`crate::exec::eval_cmp`] over pre-converted operands (native float
/// comparisons reproduce the `partial_cmp` table, including `Ne` on NaN).
#[inline(always)]
fn cmp_scalar(op: CmpOp, ty: Ty, x: u64, y: u64) -> bool {
    macro_rules! ord {
        ($dec:expr) => {{
            let (x, y) = ($dec(x), $dec(y));
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }};
    }
    match ty {
        Ty::I32 => ord!(|b: u64| b as u32 as i32),
        Ty::I64 => ord!(|b: u64| b as i64),
        // `Pred` compares as 0/1 integers (`as_i64`), same order as bits.
        Ty::U64 | Ty::Pred => ord!(|b: u64| b),
        Ty::F32 => ord!(|b: u64| f32::from_bits(b as u32)),
        Ty::F64 => ord!(f64::from_bits),
    }
}

/// The `(UnOp, Ty)` table: the bit-level image of
/// [`crate::exec::eval_un`]. The `F32` arms round-trip the converted
/// operand through `f64` once more, because `eval_un` extracts via
/// `as_f64() as f32` after converting; float results are
/// NaN-canonicalized.
#[inline(always)]
fn un_scalar(op: UnOp, ty: Ty, x: u64) -> Result<u64, SimError> {
    let (i, l) = (x as u32 as i32, x as i64);
    let (f, g) = ((f32::from_bits(x as u32) as f64) as f32, f64::from_bits(x));
    let e32 = |r: i32| r as u32 as u64;
    let ef = |r: f32| crate::types::canon_f32(r).to_bits() as u64;
    let eg = |r: f64| crate::types::canon_f64(r).to_bits();
    Ok(match (op, ty) {
        (UnOp::Neg, Ty::I32) => e32(i.wrapping_neg()),
        (UnOp::Neg, Ty::I64) => l.wrapping_neg() as u64,
        (UnOp::Neg, Ty::F32) => ef(-f),
        (UnOp::Neg, Ty::F64) => eg(-g),
        (UnOp::Abs, Ty::I32) => e32(i.wrapping_abs()),
        (UnOp::Abs, Ty::I64) => l.wrapping_abs() as u64,
        (UnOp::Abs, Ty::F32) => ef(f.abs()),
        (UnOp::Abs, Ty::F64) => eg(g.abs()),
        (UnOp::Sqrt, Ty::F32) => ef(f.sqrt()),
        (UnOp::Sqrt, Ty::F64) => eg(g.sqrt()),
        (UnOp::Not, Ty::Pred) => (x == 0) as u64,
        (UnOp::Not, Ty::I32) => e32(!i),
        (UnOp::Not, Ty::I64) => !l as u64,
        (op, ty) => {
            return Err(SimError::TypeError {
                context: format!("unary {op} at type {ty}"),
            })
        }
    })
}

// --- Lane kernels: the tables above, one monomorphic loop per entry ---------

/// One warp is at most this many lanes: the width of a lane kernel's
/// operand and result scratch.
const LANES: usize = WARP_SIZE as usize;

/// `out[i] = f(x[i])` over the group's lanes.
type Lanes1 = fn(&mut [u64], &[u64]);
/// `out[i] = f(x[i], y[i])`.
type Lanes2 = fn(&mut [u64], &[u64], &[u64]);
/// `out[i] = f(c[i], x[i], y[i])`.
type Lanes3 = fn(&mut [u64], &[u64], &[u64], &[u64]);
/// `x[i] = f(x[i])`, in place.
type Lanes0 = fn(&mut [u64]);

/// `match $e { T::V => { const $c: T = T::V; $body } … }` over the listed
/// variants: `$body` sees the variant as the constant `$c`, so a closure in
/// it that calls an inlined scalar evaluator captures nothing, coerces to a
/// `fn` pointer and is compiled once per variant with the evaluator's
/// dispatch folded away. Wildcard-free — a new variant stops compiling
/// until it is listed.
macro_rules! per_variant {
    ($e:expr, $t:ident: [$($v:ident)+], |$c:ident| $body:expr) => {
        match $e { $($t::$v => { const $c: $t = $t::$v; $body })+ }
    };
}

/// [`per_variant`] over [`Ty`].
macro_rules! per_ty {
    ($e:expr, |$c:ident| $body:expr) => {
        per_variant!($e, Ty: [I32 I64 U64 F32 F64 Pred], |$c| $body)
    };
}

/// Which of a step's lanes fault, decided at `specialize` by asking the
/// scalar evaluator itself. A lane kernel is only ever given the lanes
/// before the first fault, so it has none to raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Guard {
    /// No lane can fault.
    Never,
    /// A lane faults iff its converted divisor is zero (integer
    /// `div`/`rem`).
    ZeroDivisor,
    /// The `(op, ty)` is ill-typed: lane 0 faults, nothing is written.
    Always,
}

impl Guard {
    /// How many leading lanes run before the first fault, given the
    /// converted divisor lanes `y` (read only by `ZeroDivisor`). A zero
    /// test on the encoded bits is the evaluator's test: an `I32` row is
    /// zero-extended.
    #[inline(always)]
    fn live(self, y: &[u64]) -> usize {
        match self {
            Guard::Never => y.len(),
            Guard::ZeroDivisor => y.iter().position(|&d| d == 0).unwrap_or(y.len()),
            Guard::Always => 0,
        }
    }
}

/// A `Bin` chosen at `specialize`: the lanes of `bin_scalar(op, ty, ..)`
/// and which of them fault.
#[derive(Debug, Clone, Copy)]
struct BinK {
    op: BinOp,
    ty: Ty,
    lanes: Lanes2,
    guard: Guard,
}

impl BinK {
    fn of(op: BinOp, ty: Ty) -> BinK {
        // `unwrap_or` is only the type of a fault the guard keeps out of
        // the kernel; it folds away wherever the evaluator cannot fail.
        let lanes = per_variant!(op, BinOp: [Add Sub Mul Div Rem Min Max And Or Xor Shl Shr], |OP| {
            per_ty!(ty, |TY| (|out: &mut [u64], x: &[u64], y: &[u64]| {
                for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                    *o = bin_scalar(OP, TY, x, y).unwrap_or(0);
                }
            }) as Lanes2)
        });
        let guard = if bin_scalar(op, ty, 1, 1).is_err() {
            Guard::Always
        } else if bin_scalar(op, ty, 1, 0).is_err() {
            Guard::ZeroDivisor
        } else {
            Guard::Never
        };
        BinK {
            op,
            ty,
            lanes,
            guard,
        }
    }
}

/// A `Cmp` chosen at `specialize`: the lanes of `cmp_scalar(op, ty, ..)`,
/// which cannot fault.
#[derive(Debug, Clone, Copy)]
struct CmpK {
    op: CmpOp,
    ty: Ty,
    lanes: Lanes2,
}

impl CmpK {
    fn of(op: CmpOp, ty: Ty) -> CmpK {
        let lanes = per_variant!(op, CmpOp: [Eq Ne Lt Le Gt Ge], |OP| {
            per_ty!(ty, |TY| (|out: &mut [u64], x: &[u64], y: &[u64]| {
                for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                    *o = cmp_scalar(OP, TY, x, y) as u64;
                }
            }) as Lanes2)
        });
        CmpK { op, ty, lanes }
    }
}

/// A `Un` chosen at `specialize`: the lanes of `un_scalar(op, ty, ..)`,
/// which fault only when ill-typed (`Guard::Always`).
#[derive(Debug, Clone, Copy)]
struct UnK {
    op: UnOp,
    ty: Ty,
    lanes: Lanes1,
    guard: Guard,
}

impl UnK {
    fn of(op: UnOp, ty: Ty) -> UnK {
        let lanes = per_variant!(op, UnOp: [Neg Abs Sqrt Not], |OP| {
            per_ty!(ty, |TY| (|out: &mut [u64], x: &[u64]| {
                for (o, &x) in out.iter_mut().zip(x) {
                    *o = un_scalar(OP, TY, x).unwrap_or(0);
                }
            }) as Lanes1)
        });
        let guard = match un_scalar(op, ty, 0) {
            Ok(_) => Guard::Never,
            Err(_) => Guard::Always,
        };
        UnK {
            op,
            ty,
            lanes,
            guard,
        }
    }
}

/// A `Select` chosen at `specialize`: its condition's truth test, once
/// per warp (`kind`) and per lane (`lanes`, through `cond_true`).
#[derive(Debug, Clone, Copy)]
struct SelK {
    kind: CondKind,
    lanes: Lanes3,
}

impl SelK {
    fn of(kind: CondKind) -> SelK {
        let lanes = per_variant!(kind, CondKind: [Int F32 F64], |K| {
            (|out: &mut [u64], c: &[u64], x: &[u64], y: &[u64]| {
                for (((o, &c), &x), &y) in out.iter_mut().zip(c).zip(x).zip(y) {
                    *o = if cond_true(K, c) { x } else { y };
                }
            }) as Lanes3
        });
        SelK { kind, lanes }
    }
}

/// A lane-kernel operand: its row, the conversion it is used through, and
/// that conversion's in-place kernel (`Conv::apply` per lane).
#[derive(Debug, Clone, Copy)]
struct Arg {
    row: usize,
    cv: Conv,
    conv: Lanes0,
}

impl Arg {
    fn new(row: usize, cv: Conv) -> Arg {
        let conv = per_variant!(cv, Conv: [Id Low32 SextI32 F32ToI32 F64ToI32 F32ToI64 F64ToI64
            I32ToF32 I64ToF32 U64ToF32 F32Round F64ToF32 PredToF32 I32ToF64 I64ToF64 U64ToF64
            F32ToF64 PredToF64 IntPred F32Pred F64Pred], |CV| {
            (|x: &mut [u64]| {
                for b in x {
                    *b = CV.apply(*b);
                }
            }) as Lanes0
        });
        Arg { row, cv, conv }
    }
}

/// Write the group's lanes of `a`, converted, into `buf` (one entry per
/// active lane).
#[inline(always)]
fn gather(bits: &[u64], n: usize, mask: &[usize], contig: bool, a: Arg, buf: &mut [u64]) {
    let row = &bits[a.row * n..(a.row + 1) * n];
    if contig {
        buf.copy_from_slice(&row[mask[0]..mask[0] + buf.len()]);
    } else {
        for (b, &l) in buf.iter_mut().zip(mask) {
            *b = row[l];
        }
    }
    if a.cv != Conv::Id {
        (a.conv)(buf);
    }
}

/// The group's lanes of `a`, converted: the row's own lanes when the group
/// is contiguous and the conversion is the identity, else [`gather`]ed
/// into `buf`.
#[inline(always)]
fn operand<'a>(
    bits: &'a [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    a: Arg,
    buf: &'a mut [u64; LANES],
) -> &'a [u64] {
    if contig && a.cv == Conv::Id {
        let at = a.row * n + mask[0];
        return &bits[at..at + mask.len()];
    }
    let buf = &mut buf[..mask.len()];
    gather(bits, n, mask, contig, a, buf);
    buf
}

// --- Warp shapes ---------------------------------------------------------------

/// What the tier knows about one register row within one warp (see the
/// module docs). A non-`Rows` shape is *authoritative*: the row's lanes
/// may be stale until [`TypedState::sync`] materialises them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Per-lane bits live in the row.
    Rows,
    /// Every lane holds `bits`.
    Uniform(u64),
    /// Lane `warp_lo + i` holds `base + i * stride`, wrapping in 64 bits
    /// (`wide`) or in 32 and zero-extended. Only integer rows; `stride`
    /// is never 0.
    Affine { base: u64, stride: u64, wide: bool },
}

impl Shape {
    /// The affine shape normalised to its width; stride 0 is `Uniform`.
    fn affine(base: u64, stride: u64, wide: bool) -> Shape {
        let fit = |v: u64| if wide { v } else { v as u32 as u64 };
        match fit(stride) {
            0 => Shape::Uniform(fit(base)),
            stride => Shape::Affine {
                base: fit(base),
                stride,
                wide,
            },
        }
    }

    /// `(base, stride)` of a closed form (`Uniform` has stride 0).
    fn linear(self) -> Option<(u64, u64)> {
        match self {
            Shape::Rows => None,
            Shape::Uniform(b) => Some((b, 0)),
            Shape::Affine { base, stride, .. } => Some((base, stride)),
        }
    }

    /// `(base, stride)` of a closed form over `len` lanes whose `i`-th lane
    /// is `base + i * stride` in wrapping 64-bit arithmetic, as addresses
    /// compute: every 64-bit closed form, and a 32-bit `Affine` whose lanes
    /// do not wrap in 32 bits. `None` for `Rows` and a wrapping 32-bit one.
    fn exact(self, len: usize) -> Option<(u64, u64)> {
        match self {
            Shape::Affine {
                base,
                stride,
                wide: false,
            } => (base + (len as u64 - 1) * stride <= u32::MAX as u64).then_some((base, stride)),
            s => s.linear(),
        }
    }

    /// Bits of the warp's `i`-th lane under a closed form.
    #[inline(always)]
    fn lane(self, i: usize) -> u64 {
        match self {
            Shape::Rows => unreachable!("a Rows shape has no closed form"),
            Shape::Uniform(b) => b,
            Shape::Affine { base, stride, wide } => {
                let v = base.wrapping_add((i as u64).wrapping_mul(stride));
                if wide {
                    v
                } else {
                    v as u32 as u64
                }
            }
        }
    }

    /// True-integer values of an integer shape at the first and last of
    /// `len` lanes in `ty`'s domain; `None` when the sequence leaves the
    /// domain (it wraps), for `Rows`, and for non-integer `ty`.
    fn ends(self, ty: Ty, len: usize) -> Option<(i128, i128)> {
        let (base, stride) = self.linear()?;
        let (first, step, min, max) = match ty {
            Ty::I32 => (
                base as u32 as i32 as i128,
                stride as u32 as i32 as i128,
                i32::MIN as i128,
                i32::MAX as i128,
            ),
            Ty::I64 => (
                base as i64 as i128,
                stride as i64 as i128,
                i64::MIN as i128,
                i64::MAX as i128,
            ),
            Ty::U64 => (base as i128, stride as i64 as i128, 0, u64::MAX as i128),
            Ty::F32 | Ty::F64 | Ty::Pred => return None,
        };
        let last = first + (len as i128 - 1) * step;
        (min..=max).contains(&last).then_some((first, last))
    }

    /// This shape seen through an operand conversion; `Rows` when the
    /// conversion does not keep it closed-form over `len` lanes.
    fn conv(self, cv: Conv, len: usize) -> Shape {
        match (self, cv) {
            (Shape::Rows, _) => Shape::Rows,
            (Shape::Uniform(b), _) => Shape::Uniform(cv.apply(b)),
            (s, Conv::Id) => s,
            // Truncation is a ring homomorphism: always affine.
            (Shape::Affine { base, stride, .. }, Conv::Low32) => Shape::affine(base, stride, false),
            // Sign extension commutes with the sequence only while it
            // stays inside `i32`.
            (s @ Shape::Affine { stride, .. }, Conv::SextI32) => match s.ends(Ty::I32, len) {
                Some((first, _)) => Shape::affine(first as u64, stride as u32 as i32 as u64, true),
                None => Shape::Rows,
            },
            _ => Shape::Rows,
        }
    }
}

/// Integer `add`/`sub` of two closed forms and `mul` of a closed form by
/// a uniform stay affine in the ring `ty` wraps in.
fn affine_bin(op: BinOp, ty: Ty, a: Shape, b: Shape) -> Option<Shape> {
    if !matches!(ty, Ty::I32 | Ty::I64 | Ty::U64) {
        return None;
    }
    let ((ab, ast), (bb, bst)) = (a.linear()?, b.linear()?);
    let (base, stride) = match op {
        BinOp::Add => (ab.wrapping_add(bb), ast.wrapping_add(bst)),
        BinOp::Sub => (ab.wrapping_sub(bb), ast.wrapping_sub(bst)),
        BinOp::Mul if bst == 0 => (ab.wrapping_mul(bb), ast.wrapping_mul(bb)),
        BinOp::Mul if ast == 0 => (ab.wrapping_mul(bb), bst.wrapping_mul(ab)),
        _ => return None,
    };
    Some(Shape::affine(base, stride, ty != Ty::I32))
}

/// An integer comparison with an affine side, decided at the two end
/// lanes as true integers: the difference of two non-wrapping affine
/// sequences is affine, hence monotone, so an ordered verdict that agrees
/// at both ends holds in between; `eq`/`ne` additionally need the
/// difference not to cross zero.
fn affine_cmp(op: CmpOp, ty: Ty, a: Shape, b: Shape, len: usize) -> Option<bool> {
    let ((a0, a1), (b0, b1)) = (a.ends(ty, len)?, b.ends(ty, len)?);
    let (d0, d1) = (a0 - b0, a1 - b1);
    let verdict = |d: i128| match op {
        CmpOp::Eq => d == 0,
        CmpOp::Ne => d != 0,
        CmpOp::Lt => d < 0,
        CmpOp::Le => d <= 0,
        CmpOp::Gt => d > 0,
        CmpOp::Ge => d >= 0,
    };
    let ordered = !matches!(op, CmpOp::Eq | CmpOp::Ne);
    (verdict(d0) == verdict(d1) && (ordered || d0.signum() == d1.signum())).then(|| verdict(d0))
}

/// What the typed tier decided, accumulated over a device's launches (see
/// [`crate::Device::shape_census`]). Kept beside, not inside,
/// [`crate::stats::LaunchStats`]: those are bit-identical across engines,
/// this describes one engine's own work. `once_per_warp + per_lane` is
/// the number of warp-instructions the tier executed (a parallel attempt
/// that fell back to the sequential executor is counted twice — the tier
/// did run it twice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeCensus {
    /// Steps decided once for the whole warp from its operands' shapes.
    pub once_per_warp: u64,
    /// Steps that ran a lane loop.
    pub per_lane: u64,
    /// Rows materialised for a per-lane consumer, out of a closed form a
    /// step had recorded (not a register's or constant's initial value).
    pub syncs: u64,
    /// Once-per-warp results written lane by lane because the mask was
    /// not all of the warp's lanes.
    pub demoted: u64,
    /// Memory steps of a full warp whose per-lane addresses were decided
    /// from the closed forms of their address rows: the rows were not
    /// synced, and the lanes' accesses are listed only for an observer or
    /// a count with no closed form.
    pub spans: u64,
}

impl ShapeCensus {
    /// Share of executed warp-instructions that ran a lane loop (0 when
    /// nothing ran on the typed tier).
    pub fn per_lane_share(&self) -> f64 {
        match self.once_per_warp + self.per_lane {
            0 => 0.0,
            total => self.per_lane as f64 / total as f64,
        }
    }
}

impl std::ops::AddAssign for ShapeCensus {
    fn add_assign(&mut self, o: Self) {
        self.once_per_warp += o.once_per_warp;
        self.per_lane += o.per_lane;
        self.syncs += o.syncs;
        self.demoted += o.demoted;
        self.spans += o.spans;
    }
}

/// Whether the lanes of a slot's row hold what its shape says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    /// They do (always, for `Rows`).
    Held,
    /// A step recorded a closed form; the lanes are stale.
    Stale,
    /// The block's initial value, which no step has written: the lanes
    /// are whatever the previous block left there. Expanding it is not a
    /// [`ShapeCensus::syncs`] — no decision of the tier is being undone.
    Initial,
}

/// One `(row, warp)` entry of the shape table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shape: Shape,
    row: RowState,
}

/// The typed tier's working state, scoped to one launch: one per executor
/// thread, reused by every block that thread runs and dropped when the
/// launch returns (see "Launch-scoped state" in the module docs). One flat
/// bit row per register and constant (`bits[row * n + lane]`), the shape
/// table over them (warp-major, `slots[warp * rows + row]`: the slots a
/// step touches are neighbours), the current group, and scratch.
pub(crate) struct TypedState<'k> {
    tk: &'k TypedKernel,
    bits: Vec<u64>,
    n: usize,
    slots: Vec<Slot>,
    /// The current group: its warp, that warp's first slot and lane range
    /// `[lo, lo + len)`, its active lanes, and whether those are all of
    /// the warp's lanes (so a write may replace the row's shape).
    w: usize,
    at: usize,
    lo: usize,
    len: usize,
    mask: Vec<usize>,
    full: bool,
    /// `mask` is a contiguous lane range (the overwhelmingly common
    /// case): lane loops become plain ranges.
    contig: bool,
    /// What this thread's blocks decided.
    census: ShapeCensus,
    seg_buf: Vec<u64>,
    bank_counts: Vec<u32>,
    /// Conversion scratch for coalesced span stores.
    tmp: Vec<u64>,
    /// Lane kernels' gathered operands and results (see [`operand`] and
    /// `TypedState::put`).
    xs: [[u64; LANES]; 3],
    out: [u64; LANES],
}

impl TypedKernel {
    /// The state one executor thread needs to run this launch's blocks of
    /// `n` threads. Allocates; [`run_block`] does not.
    pub(crate) fn state(&self, n: usize, dev: &DeviceConfig) -> TypedState<'_> {
        let warp = WARP_SIZE as usize;
        TypedState {
            tk: self,
            bits: vec![0; self.init.len() * n],
            n,
            slots: self.init.repeat(n.div_ceil(warp)),
            w: 0,
            at: 0,
            lo: 0,
            len: 0,
            mask: Vec::with_capacity(warp),
            full: true,
            contig: true,
            census: ShapeCensus::default(),
            seg_buf: Vec::with_capacity(2 * warp),
            bank_counts: vec![0; dev.shared_banks as usize],
            tmp: Vec::with_capacity(warp),
            xs: [[0; LANES]; 3],
            out: [0; LANES],
        }
    }
}

impl Drop for TypedState<'_> {
    fn drop(&mut self) {
        // The lock is only ever held across this addition, which leaves
        // the census valid at every step: a poisoned guard is usable.
        *self.tk.census.lock().unwrap_or_else(|e| e.into_inner()) += self.census;
    }
}

impl TypedState<'_> {
    /// Start a block: every register is the interpreter's zero and every
    /// constant row its constant, as closed forms *not* in the row. Only
    /// the shape table is written; the bit rows keep the previous block's
    /// lanes, which no reader can reach without `sync` expanding the slot
    /// first.
    fn begin_block(&mut self) {
        let init = &self.tk.init[..];
        // (`max`: a kernel without registers has no slots to chunk.)
        for slots in self.slots.chunks_exact_mut(init.len().max(1)) {
            slots.copy_from_slice(init);
        }
        // The debug shadow wants every closed form in its row as well.
        #[cfg(debug_assertions)]
        for (row, slot) in init.iter().enumerate() {
            self.bits[row * self.n..(row + 1) * self.n].fill(slot.shape.lane(0));
        }
    }

    /// Select warp `w` as the current one.
    #[inline(always)]
    fn enter_warp(&mut self, w: usize) {
        self.w = w;
        self.at = w * self.tk.init.len();
        let lanes = warp::lanes(w, self.n);
        (self.lo, self.len) = (lanes.start, lanes.len());
    }

    #[inline(always)]
    fn slot(&mut self, row: usize) -> &mut Slot {
        &mut self.slots[self.at + row]
    }

    /// `row`'s shape in the current warp as an operand converted by `cv`.
    #[inline(always)]
    fn seen(&self, row: usize, cv: Conv) -> Shape {
        let shape = self.slots[self.at + row].shape;
        #[cfg(debug_assertions)]
        self.check_shadow(row, self.lo, self.len, shape);
        match cv {
            Conv::Id => shape,
            cv => shape.conv(cv, self.len),
        }
    }

    /// The warp's lanes of `row`.
    fn warp_row(&mut self, row: usize) -> &mut [u64] {
        let at = row * self.n + self.lo;
        &mut self.bits[at..at + self.len]
    }

    /// Make the row hold what its shape says. Every per-lane reader of a
    /// row calls this first; it is the only place a closed form is
    /// expanded.
    #[inline(always)]
    fn sync(&mut self, row: usize) {
        let s = self.slot(row);
        if s.row != RowState::Held {
            let Slot { shape, row: was } = *s;
            s.row = RowState::Held;
            self.census.syncs += (was == RowState::Stale) as u64;
            self.expand(row, shape);
        }
    }

    fn expand(&mut self, row: usize, shape: Shape) {
        match shape {
            Shape::Uniform(b) => self.warp_row(row).fill(b),
            _ => {
                for (i, b) in self.warp_row(row).iter_mut().enumerate() {
                    *b = shape.lane(i);
                }
            }
        }
    }

    /// Record a once-per-warp result. When the group is all of the warp's
    /// lanes that is one store into the shape table; otherwise the other
    /// lanes keep their values, so the row is materialised, the group's
    /// lanes are written and the row stays `Rows`.
    #[inline(always)]
    fn set(&mut self, dst: usize, shape: Shape) {
        if self.full {
            *self.slot(dst) = Slot {
                shape,
                row: RowState::Stale,
            };
            // The debug shadow: rows are kept materialised too (still
            // marked stale, so `sync` runs exactly as in release) and
            // `check_shadow` holds each shape against its row.
            #[cfg(debug_assertions)]
            self.expand(dst, shape);
        } else {
            self.rows_dst(dst);
            self.census.demoted += 1;
            let (dr, lo) = (dst * self.n, self.lo);
            for &l in &self.mask {
                self.bits[dr + l] = shape.lane(l - lo);
            }
        }
    }

    /// `dst` is about to be written lane by lane for the group.
    #[inline(always)]
    fn rows_dst(&mut self, dst: usize) {
        if !self.full {
            self.sync(dst);
        }
        *self.slot(dst) = Slot {
            shape: Shape::Rows,
            row: RowState::Held,
        };
    }

    /// Write the lane kernel's first `len` results (`out`) to the group's
    /// first `len` lanes of row `dst`. Results reach a row only through
    /// here, after every operand was read: a row can be both a source and
    /// the destination.
    #[inline(always)]
    fn put(&mut self, dst: usize, len: usize) {
        let row = &mut self.bits[dst * self.n..(dst + 1) * self.n];
        let vals = &self.out[..len];
        if self.contig {
            let lo = self.mask[0];
            row[lo..lo + len].copy_from_slice(vals);
        } else {
            for (&l, &v) in self.mask.iter().zip(vals) {
                row[l] = v;
            }
        }
    }

    /// Debug shadow check: a closed form equals the row the per-lane path
    /// would hold. Run on every read of a shape and, for the shapes nobody
    /// read, over the whole table when the block ends.
    #[cfg(debug_assertions)]
    fn check_shadow(&self, row: usize, lo: usize, len: usize, shape: Shape) {
        if shape != Shape::Rows {
            for i in 0..len {
                assert_eq!(
                    self.bits[row * self.n + lo + i],
                    shape.lane(i),
                    "row {row} lane {} disagrees with its shape {shape:?}",
                    lo + i
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    fn check_all_shadows(&self) {
        let rows = self.tk.init.len();
        for (i, slot) in self.slots.iter().enumerate() {
            let (row, lanes) = (i % rows, warp::lanes(i / rows, self.n));
            self.check_shadow(row, lanes.start, lanes.len(), slot.shape);
        }
    }

    /// `Bin`. Returns whether the step was decided once for the warp. Per
    /// lane, the guard finds the first faulting lane before the kernel
    /// runs; the lanes before it are written and the step raises
    /// `bin_scalar`'s own `Err` for it — the interpreter's partial writes,
    /// in ascending lane order.
    fn bin(&mut self, k: &BinK, dst: usize, a: Arg, b: Arg) -> Result<bool, SimError> {
        let out = match (self.seen(a.row, a.cv), self.seen(b.row, b.cv)) {
            (Shape::Uniform(x), Shape::Uniform(y)) => {
                Some(Shape::Uniform(bin_scalar(k.op, k.ty, x, y)?))
            }
            (sa, sb) => affine_bin(k.op, k.ty, sa, sb),
        };
        if let Some(shape) = out {
            self.set(dst, shape);
            return Ok(true);
        }
        self.sync(a.row);
        self.sync(b.row);
        self.rows_dst(dst);
        let (n, mask, contig) = (self.n, &self.mask[..], self.contig);
        let [xa, xb, _] = &mut self.xs;
        let x = operand(&self.bits, n, mask, contig, a, xa);
        let y = operand(&self.bits, n, mask, contig, b, xb);
        let live = k.guard.live(y);
        (k.lanes)(&mut self.out[..live], &x[..live], &y[..live]);
        let fault = (live < x.len()).then(|| {
            bin_scalar(k.op, k.ty, x[live], y[live]).expect_err("the guard finds a faulting lane")
        });
        self.put(dst, live);
        fault.map_or(Ok(false), Err)
    }

    /// `Cmp`; comparisons cannot fault.
    fn cmp(&mut self, k: &CmpK, dst: usize, a: Arg, b: Arg) -> bool {
        let verdict = match (self.seen(a.row, a.cv), self.seen(b.row, b.cv)) {
            (Shape::Uniform(x), Shape::Uniform(y)) => Some(cmp_scalar(k.op, k.ty, x, y)),
            (sa, sb) => affine_cmp(k.op, k.ty, sa, sb, self.len),
        };
        if let Some(v) = verdict {
            self.set(dst, Shape::Uniform(v as u64));
            return true;
        }
        self.sync(a.row);
        self.sync(b.row);
        self.rows_dst(dst);
        let (n, mask, contig) = (self.n, &self.mask[..], self.contig);
        let [xa, xb, _] = &mut self.xs;
        let x = operand(&self.bits, n, mask, contig, a, xa);
        let y = operand(&self.bits, n, mask, contig, b, xb);
        (k.lanes)(&mut self.out[..mask.len()], x, y);
        self.put(dst, self.mask.len());
        false
    }

    /// `Un`; an ill-typed `(op, ty)` faults at lane 0 and writes nothing.
    fn un(&mut self, k: &UnK, dst: usize, a: Arg) -> Result<bool, SimError> {
        if let Shape::Uniform(x) = self.seen(a.row, a.cv) {
            self.set(dst, Shape::Uniform(un_scalar(k.op, k.ty, x)?));
            return Ok(true);
        }
        self.sync(a.row);
        self.rows_dst(dst);
        let (n, mask, contig) = (self.n, &self.mask[..], self.contig);
        let x = operand(&self.bits, n, mask, contig, a, &mut self.xs[0]);
        if k.guard.live(x) == 0 {
            return Err(un_scalar(k.op, k.ty, x[0]).expect_err("an ill-typed unary faults"));
        }
        (k.lanes)(&mut self.out[..mask.len()], x);
        self.put(dst, self.mask.len());
        Ok(false)
    }

    /// `Cvt`/`Mov`: the conversion table applied to the shape.
    fn cvt(&mut self, dst: usize, src: Arg) -> bool {
        let shape = self.seen(src.row, src.cv);
        if shape != Shape::Rows {
            self.set(dst, shape);
            return true;
        }
        self.sync(src.row);
        self.rows_dst(dst);
        let (n, mask, contig) = (self.n, &self.mask[..], self.contig);
        if contig && src.cv == Conv::Id {
            let (from, to) = (src.row * n + mask[0], dst * n + mask[0]);
            self.bits.copy_within(from..from + mask.len(), to);
        } else {
            gather(
                &self.bits,
                n,
                mask,
                contig,
                src,
                &mut self.out[..mask.len()],
            );
            self.put(dst, mask.len());
        }
        false
    }

    /// `Select`: a uniform condition passes the chosen arm's shape through.
    fn select(&mut self, k: &SelK, dst: usize, cond: Arg, a: Arg, b: Arg) -> bool {
        if let Shape::Uniform(c) = self.seen(cond.row, Conv::Id) {
            let arm = if cond_true(k.kind, c) { a } else { b };
            let shape = self.seen(arm.row, Conv::Id);
            if shape != Shape::Rows {
                self.set(dst, shape);
                return true;
            }
        }
        self.sync(cond.row);
        self.sync(a.row);
        self.sync(b.row);
        self.rows_dst(dst);
        let (n, mask, contig) = (self.n, &self.mask[..], self.contig);
        let [xc, xa, xb] = &mut self.xs;
        let c = operand(&self.bits, n, mask, contig, cond, xc);
        let x = operand(&self.bits, n, mask, contig, a, xa);
        let y = operand(&self.bits, n, mask, contig, b, xb);
        (k.lanes)(&mut self.out[..mask.len()], c, x, y);
        self.put(dst, self.mask.len());
        false
    }

    /// Decide where the group's lanes access memory through `mem`, from
    /// the shapes of its address rows: one address when the base and the
    /// index are both `Uniform`; a closed form when the group is the whole
    /// warp and both are closed forms exact in 64 bits (nothing is synced
    /// and no address is listed); otherwise one access per active lane in
    /// `out`, read from the materialised address rows.
    #[inline(always)]
    fn addrs(&mut self, mem: &TMem, out: &mut Vec<(u64, usize)>) -> Addrs {
        let index = mem
            .index
            .map_or(Shape::Uniform(0), |(r, c)| self.seen(r, c));
        let base = self.seen(mem.base, mem.bc);
        if let (Shape::Uniform(base), Shape::Uniform(idx)) = (base, index) {
            let addr = mref_addr(base, idx as i64, mem.scale, mem.disp);
            out.clear();
            out.push((addr, mem.size));
            return Addrs::Uniform(addr);
        }
        if self.full {
            if let (Some((bb, bs)), Some((ib, is))) = (base.exact(self.len), index.exact(self.len))
            {
                // `mref_addr` is linear in wrapping arithmetic: lane `i`
                // accesses `a0 + i * (bs + is * scale)`.
                self.census.spans += 1;
                return Addrs::Span {
                    a0: mref_addr(bb, ib as i64, mem.scale, mem.disp),
                    stride: bs.wrapping_add(is.wrapping_mul(mem.scale as u64)),
                };
            }
        }
        out.clear();
        self.sync(mem.base);
        if let Some((r, _)) = mem.index {
            self.sync(r);
        }
        for &l in &self.mask {
            let base = mem.bc.apply(self.bits[mem.base * self.n + l]);
            let idx = mem
                .index
                .map_or(0, |(r, c)| c.apply(self.bits[r * self.n + l]) as i64);
            out.push((mref_addr(base, idx, mem.scale, mem.disp), mem.size));
        }
        Addrs::Lanes
    }
}

/// Where a memory step's lanes access memory, as [`TypedState::addrs`]
/// decided it. The list it refers to is `BlockExec::scratch_addr`.
#[derive(Debug, Clone, Copy)]
enum Addrs {
    /// Every lane accesses this one address, the list's only entry.
    Uniform(u64),
    /// Lane `i` of the whole warp accesses `a0 + i * stride` (wrapping);
    /// the list is stale until [`Addrs::list`] writes them out.
    Span { a0: u64, stride: u64 },
    /// The list holds one access per active lane.
    Lanes,
}

impl Addrs {
    /// Make the list hold every lane's access: a span's lanes are written
    /// out only for a reader of the list — an observer, or a count with no
    /// closed form.
    fn list(self, out: &mut Vec<(u64, usize)>, size: usize, lanes: usize) {
        if let Addrs::Span { a0, stride } = self {
            out.clear();
            out.extend((0..lanes as u64).map(|i| (a0.wrapping_add(i.wrapping_mul(stride)), size)));
        }
    }

    /// The `i`-th active lane's address.
    #[inline(always)]
    fn lane(self, list: &[(u64, usize)], i: usize) -> u64 {
        match self {
            Addrs::Uniform(a) => a,
            Addrs::Span { a0, stride } => a0.wrapping_add((i as u64).wrapping_mul(stride)),
            Addrs::Lanes => list[i].0,
        }
    }

    /// The first address of a span read or write that can serve the
    /// group: a dense closed form, or a contiguous group whose listed
    /// accesses form one dense ascending run.
    #[inline(always)]
    fn dense(self, list: &[(u64, usize)], size: usize, contig: bool) -> Option<u64> {
        match self {
            Addrs::Uniform(_) => None,
            Addrs::Span { a0, stride } => (stride == size as u64).then_some(a0),
            Addrs::Lanes => (contig && coalesced(list, size)).then(|| list[0].0),
        }
    }
}

/// [`BlockExec::observe_mem`] for a typed step whose lanes access memory
/// through `acc`, `size` bytes each. An observer reads the lanes'
/// accesses, so a span writes them out first.
#[inline(always)]
fn observe(
    exec: &mut BlockExec,
    st: &TypedState,
    acc: Addrs,
    size: usize,
    pc: usize,
    recorded: bool,
) {
    if recorded || exec.san.is_some() {
        acc.list(&mut exec.scratch_addr, size, st.len);
    }
    exec.observe_mem(&st.mask, st.w as u32, pc, recorded);
}

/// True when the warp's per-lane accesses form one dense ascending span
/// (`addrs[i] == addrs[0] + i * size`): the perfectly coalesced pattern
/// that can be served by a single span read/write. A sequence that wraps
/// past `u64::MAX` is not a span (and must not overflow here: wild
/// addresses are values until the access bounds-checks them).
#[inline]
fn coalesced(addrs: &[(u64, usize)], size: usize) -> bool {
    addrs.len() > 1
        && addrs
            .iter()
            .enumerate()
            .all(|(i, &(a, _))| addrs[0].0.checked_add((i * size) as u64) == Some(a))
}

/// Run one block on the typed tier. Drives the same [`BlockExec`] the
/// interpreter uses — barrier bookkeeping, watchdog, the raw cycle
/// charge, traces, sanitizer shadows, and profiles are shared code, not
/// re-implementations.
pub(crate) fn run_block(exec: &mut BlockExec, st: &mut TypedState) -> Result<(), AccessAbort> {
    debug_assert_eq!(exec.threads.len(), st.n, "state sized for this launch");
    st.begin_block();
    // The step is instantiated twice: with nothing observing it, its
    // static costs are charged per run and no counter delta exists.
    let result = if exec.trace.is_some() || exec.prof.is_some() {
        run_warps::<true>(exec, st)
    } else {
        run_warps::<false>(exec, st)
    };
    #[cfg(debug_assertions)]
    st.check_all_shadows();
    result
}

/// The block's scheduler loop: per warp, run the groups
/// [`crate::warp::next_group`] picks; when every warp is blocked, run the
/// barrier round.
fn run_warps<const OBSERVED: bool>(
    exec: &mut BlockExec,
    st: &mut TypedState,
) -> Result<(), AccessAbort> {
    loop {
        for w in 0..exec.cfg.warps_per_block() as usize {
            st.enter_warp(w);
            let lanes = st.lo..st.lo + st.len;
            while let Some((pc, whole)) =
                warp::next_group(&exec.threads, lanes.clone(), &mut st.mask)
            {
                st.contig = st.mask[st.mask.len() - 1] - st.mask[0] + 1 == st.mask.len();
                st.full = st.mask.len() == st.len;
                run_group_typed::<OBSERVED>(exec, st, pc, whole)?;
            }
        }
        if !exec.barrier_round()? {
            break;
        }
    }
    Ok(())
}

/// Control transfer out of one typed instruction: fall through, stop the
/// group (barrier, exit, or a divergent branch — the scheduler must
/// rescan), or jump the *whole intact group* to a new leader (uniform
/// branch or run fallthrough), which skips the min-pc rescan entirely.
enum TFlow {
    Next,
    Stop,
    Goto(usize),
}

/// Execute the current group's run (constant mask; see module docs for
/// why this is exact), then chase the group across runs: as long as every
/// active lane leaves a run together (fallthrough or a branch every lane
/// takes the same way), keep executing with the same mask instead of
/// handing back to the per-warp min-pc scan. Thread `pc`s are only
/// materialized at the points the scheduler can observe them (barrier,
/// exit, divergence).
///
/// Unobserved, a run's instruction counts and static cycles are charged
/// once, here, and its steps are not watched — unless the run could reach
/// the watchdog's limit, in which case the group carries on in the
/// observed instantiation, which counts and checks per step (see "Static
/// run costs" in the module docs).
fn run_group_typed<const OBSERVED: bool>(
    exec: &mut BlockExec,
    st: &mut TypedState,
    leader: usize,
    whole: bool,
) -> Result<(), AccessAbort> {
    let tk = st.tk;
    let mut leader = leader;
    loop {
        let run = tk.ck.runs[tk.ck.run_of[leader]];
        debug_assert_eq!(run.start, leader, "groups rest only at leaders");
        if !OBSERVED {
            let steps = (run.end - run.start) as u64;
            let limit = exec.cost.watchdog_warp_insts;
            if limit > 0 && exec.stats.warp_insts + steps > limit {
                return run_group_typed::<true>(exec, st, leader, whole);
            }
            exec.stats.warp_insts += steps;
            exec.stats.lane_insts += steps * st.mask.len() as u64;
            exec.cycles_raw += tk.static_cycles[run.end] - tk.static_cycles[run.start];
        }
        let mut next = run.end;
        for pc in run.start..run.end {
            let flow = exec_top::<OBSERVED>(exec, st, pc)?;
            if OBSERVED {
                exec.watchdog()?;
            }
            match flow {
                TFlow::Next => {}
                TFlow::Stop => return Ok(()),
                TFlow::Goto(to) => {
                    next = to;
                    break;
                }
            }
        }
        // Chasing past the run is only scheduler-faithful when this group
        // IS the warp's whole runnable set: with a divergent sibling group
        // pending, the interpreter would re-pick the min-pc group here.
        if !whole {
            for &l in &st.mask {
                exec.threads[l].pc = next;
            }
            return Ok(());
        }
        leader = next;
    }
}

/// Execute one typed instruction for the current group. The
/// instrumentation sequence — same bookkeeping in the same order, same
/// error points — is byte-for-byte the interpreter's `step`, and every
/// count is taken from the mask length and the addresses, never from a
/// shape; only the register representation differs. `OBSERVED` is false
/// when neither a tracer nor a profiler is attached: the step's
/// instruction counts and static cycles were charged with its run, and
/// the delta `d` is never filled.
///
/// Forced inline into `run_group_typed`: left to the compiler, the memory
/// arms' closed-form paths made it an out-of-line call per step, and both
/// simulator workloads measured slower (EXPERIMENTS.md, "Closed-form
/// memory spans").
#[inline(always)]
fn exec_top<const OBSERVED: bool>(
    exec: &mut BlockExec,
    st: &mut TypedState,
    pc: usize,
) -> Result<TFlow, AccessAbort> {
    let tk = st.tk;
    let mlen = st.mask.len();
    debug_assert!(mlen > 0);
    let warp_id = st.w as u32;
    let recorded = OBSERVED
        && match exec.trace.as_mut() {
            Some(t) => t.record(TraceEvent {
                block: exec.block_idx,
                warp: warp_id,
                pc,
                active: mlen as u32,
                text: crate::ir::format_inst(&exec.kernel.insts[pc]),
                mem: None,
            }),
            None => false,
        };
    let mut d = PcCounters::default();
    if OBSERVED {
        exec.stats.warp_insts += 1;
        exec.stats.lane_insts += mlen as u64;
        let cycles = tk.static_cycles[pc + 1] - tk.static_cycles[pc];
        exec.cycles_raw += cycles;
        d.warp_insts = 1;
        d.lane_insts = mlen as u64;
        d.issue_cycles = exec.cost.issue;
        d.alu_cycles = cycles - exec.cost.issue;
    }
    let n = st.n;
    let l0 = st.mask[0];
    let mut flow = TFlow::Next;
    // Was the step decided once for the warp (census only)?
    let once = match &tk.tops[pc] {
        TOp::Broadcast { dst, bits } => {
            st.set(*dst, Shape::Uniform(*bits));
            true
        }
        TOp::BadParams => {
            return Err(SimError::BadParams {
                expected: exec.kernel.num_params,
                got: exec.params.len() as u32,
            }
            .into());
        }
        TOp::ReadSpecial { dst, sr } => {
            // Closed forms: block geometry is uniform; `tid.x` counts up
            // and `tid.y` is constant across a warp that lies inside one
            // row of the block.
            let bx = exec.cfg.block.0 as usize;
            let (x0, y) = (st.lo % bx, st.lo / bx);
            let one_row = x0 + st.len <= bx;
            let shape = match sr {
                SpecialReg::LaneLinear => Shape::affine(st.lo as u64, 1, false),
                SpecialReg::TidX if one_row => Shape::affine(x0 as u64, 1, false),
                SpecialReg::TidY if one_row => Shape::Uniform(y as u64),
                SpecialReg::TidX | SpecialReg::TidY => Shape::Rows,
                _ => Shape::Uniform(value_bits(sr.value(exec.cfg, exec.block_idx, l0))),
            };
            if shape != Shape::Rows {
                st.set(*dst, shape);
                true
            } else {
                st.rows_dst(*dst);
                for &l in &st.mask {
                    st.bits[dst * n + l] = value_bits(sr.value(exec.cfg, exec.block_idx, l));
                }
                false
            }
        }
        TOp::Bin { k, dst, a, b } => st.bin(k, *dst, *a, *b)?,
        TOp::Cmp { k, dst, a, b } => st.cmp(k, *dst, *a, *b),
        TOp::Un { k, dst, a } => st.un(k, *dst, *a)?,
        TOp::Select { k, dst, cond, a, b } => st.select(k, *dst, *cond, *a, *b),
        TOp::Cvt { dst, src } => st.cvt(*dst, *src),
        TOp::Ld {
            space,
            ty,
            dst,
            mem,
        } => {
            let acc = st.addrs(mem, &mut exec.scratch_addr);
            charge_mem::<OBSERVED>(*space, exec, st, acc, mem.size, &mut d);
            // The interpreter observes a shared load before the access
            // (which may fault) and a global one after it.
            if *space == Space::Shared {
                observe(exec, st, acc, mem.size, pc, recorded);
            }
            if let Addrs::Uniform(a) = acc {
                let v = exec.read_bits(*space, *ty, a)?;
                st.set(*dst, Shape::Uniform(v));
            } else {
                st.rows_dst(*dst);
                let dr = dst * n;
                let done = acc
                    .dense(&exec.scratch_addr, mem.size, st.contig)
                    .is_some_and(|a0| {
                        let row = &mut st.bits[dr + l0..dr + l0 + mlen];
                        exec.read_span_bits(*space, *ty, a0, row)
                    });
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        let a = acc.lane(&exec.scratch_addr, i);
                        st.bits[dr + l] = exec.read_bits(*space, *ty, a)?;
                    }
                }
            }
            if *space == Space::Global {
                observe(exec, st, acc, mem.size, pc, recorded);
            }
            matches!(acc, Addrs::Uniform(_))
        }
        TOp::St {
            space,
            ty,
            src,
            sc,
            mem,
        } => {
            let acc = st.addrs(mem, &mut exec.scratch_addr);
            // One store serves the warp only if the value is uniform too
            // (otherwise the lanes write in order and the last one wins).
            let once = match (acc, st.seen(*src, *sc)) {
                (Addrs::Uniform(a), Shape::Uniform(v)) => Some((a, v)),
                _ => None,
            };
            charge_mem::<OBSERVED>(*space, exec, st, acc, mem.size, &mut d);
            if let Some((a, v)) = once {
                exec.write_bits(*space, *ty, a, v)?;
            } else {
                st.sync(*src);
                let sr = src * n;
                let done = acc
                    .dense(&exec.scratch_addr, mem.size, st.contig)
                    .is_some_and(|a0| {
                        let row = &st.bits[sr + l0..sr + l0 + mlen];
                        if *sc == Conv::Id {
                            exec.write_span_bits(*space, *ty, a0, row)
                        } else {
                            st.tmp.clear();
                            st.tmp.extend(row.iter().map(|&b| sc.apply(b)));
                            exec.write_span_bits(*space, *ty, a0, &st.tmp)
                        }
                    });
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        let (a, bits) =
                            (acc.lane(&exec.scratch_addr, i), sc.apply(st.bits[sr + l]));
                        exec.write_bits(*space, *ty, a, bits)?;
                    }
                }
            }
            observe(exec, st, acc, mem.size, pc, recorded);
            once.is_some()
        }
        TOp::AtomGlobal {
            op,
            ty,
            mem,
            src,
            sc,
            dst,
        } => {
            // M serialized applications are not one application: atomics
            // always run per lane, whatever their operands' shapes.
            let sr = src * n;
            exec.charge::<OBSERVED>(CostClass::Atomic, mlen as u64, &mut d);
            let acc = st.addrs(mem, &mut exec.scratch_addr);
            st.sync(*src);
            observe(exec, st, acc, mem.size, pc, recorded);
            if dst.is_some() && matches!(exec.view, MemView::Overlay(_)) {
                return Err(AccessAbort::NeedsSequential("atomic with a result operand"));
            }
            if let Some(dr) = dst {
                st.rows_dst(*dr);
            }
            for (i, &l) in st.mask.iter().enumerate() {
                let addr = acc.lane(&exec.scratch_addr, i);
                let v = bits_value(*ty, sc.apply(st.bits[sr + l]));
                if let Some(old) = exec.view.atom(*op, *ty, addr, v)? {
                    if let Some(dr) = dst {
                        st.bits[dr * n + l] = value_bits(old);
                    }
                }
            }
            false
        }
        TOp::Bar => {
            exec.charge::<OBSERVED>(CostClass::Barrier, 0, &mut d);
            for &l in &st.mask {
                exec.threads[l].at_barrier = true;
                exec.threads[l].pc = pc + 1;
            }
            flow = TFlow::Stop;
            false
        }
        TOp::Bra { target, cond } => {
            match *cond {
                None => {
                    flow = TFlow::Goto(*target);
                    true
                }
                Some((r, kind, expect)) => {
                    let to = |take: bool| if take { *target } else { pc + 1 };
                    let taken = |b: u64| cond_true(kind, b) == expect;
                    if let Shape::Uniform(b) = st.seen(r, Conv::Id) {
                        // A uniform predicate moves the whole group, unscanned.
                        flow = TFlow::Goto(to(taken(b)));
                        true
                    } else {
                        st.sync(r);
                        let cr = r * n;
                        let take0 = taken(st.bits[cr + l0]);
                        if st.mask.iter().all(|&l| taken(st.bits[cr + l]) == take0) {
                            flow = TFlow::Goto(to(take0));
                        } else {
                            for &l in &st.mask {
                                exec.threads[l].pc = to(taken(st.bits[cr + l]));
                            }
                            flow = TFlow::Stop;
                        }
                        false
                    }
                }
            }
        }
        TOp::Ret => {
            for &l in &st.mask {
                exec.threads[l].exited = true;
            }
            flow = TFlow::Stop;
            false
        }
    };
    if once {
        st.census.once_per_warp += 1;
    } else {
        st.census.per_lane += 1;
    }
    if OBSERVED {
        if let Some(p) = exec.prof.as_mut() {
            p.record(pc, warp_id, &d);
        }
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::exec::{eval_bin, eval_cmp, eval_un};

    /// A kernel with uniform and per-lane values, a loop, and a barrier:
    /// tree-reduction-shaped control flow.
    fn shaped_kernel() -> Kernel {
        let mut b = KernelBuilder::new("shaped");
        let p = b.param(0); // uniform
        let tid = b.special(SpecialReg::TidX); // divergent
        let t64 = b.cvt(Ty::I64, tid);
        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4), tid);
        b.bar();
        // Uniform loop: for (s = 1; s < 4; s *= 2) { ... bar; }
        let s = b.mov_imm(Value::I32(1));
        let top = b.new_label();
        b.place(top);
        let done = b.cmp(CmpOp::Ge, Ty::I32, s, Value::I32(4));
        let exit = b.new_label();
        b.bra_if(done, exit);
        b.bin_to(s, BinOp::Mul, Ty::I32, s, Value::I32(2));
        b.bar();
        b.bra(top);
        b.place(exit);
        // Divergent tail: out[tid] = tid + s
        let v = b.bin(BinOp::Add, Ty::I32, tid, s);
        b.st_global(Ty::I32, MemRef::indexed(p, t64, 4), v);
        b.ret();
        b.finish()
    }

    #[test]
    fn compile_splits_runs_at_branches_and_barriers() {
        let k = shaped_kernel();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        // Every pc belongs to exactly one run; runs tile the stream.
        assert_eq!(ck.run_of.len(), k.insts.len());
        let mut covered = 0;
        for (ri, r) in ck.runs.iter().enumerate() {
            assert!(r.start < r.end);
            covered += r.end - r.start;
            for pc in r.start..r.end {
                assert_eq!(ck.run_of[pc], ri);
            }
            // No Bar/Bra/Ret in the middle of a run.
            for pc in r.start..r.end - 1 {
                assert!(
                    !k.insts[pc].flow().ends_run(),
                    "terminator mid-run at pc {pc}"
                );
            }
        }
        assert_eq!(covered, k.insts.len());
    }

    /// Golden test of the pre-decoded block form for a fixed kernel.
    #[test]
    fn describe_golden() {
        let mut b = KernelBuilder::new("g");
        let p = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let c = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(16));
        let out = b.new_label();
        b.bra_unless(c, out);
        let t64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(p, t64, 4), tid);
        b.place(out);
        b.ret();
        let k = b.finish();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        let expect = "\
.compiled (regs=4, runs=3)
  run 0: pc 0..4 [bra.cond -> 6 | 4]
  run 1: pc 4..6 [fallthrough -> 6]
  run 2: pc 6..7 [ret]
";
        assert_eq!(ck.describe(), expect);
    }

    #[test]
    fn degenerate_kernels_fall_back() {
        // Empty stream.
        let k = Kernel {
            name: "empty".into(),
            insts: vec![],
            label_targets: vec![],
            num_regs: 0,
            shared_bytes: 0,
            num_params: 0,
            lines: vec![],
        };
        assert_eq!(CompiledKernel::decode(&k).err(), Some(Decline::Empty));
        // Falls off the end (no hard terminator).
        let k = Kernel {
            name: "fall".into(),
            insts: vec![Inst::MovImm {
                dst: crate::ir::Reg(0),
                value: Value::I32(1),
            }],
            label_targets: vec![],
            num_regs: 1,
            shared_bytes: 0,
            num_params: 0,
            lines: vec![],
        };
        assert_eq!(
            CompiledKernel::decode(&k).err(),
            Some(Decline::FallsThrough)
        );
        // Branch to one past the end.
        let k = Kernel {
            name: "off".into(),
            insts: vec![
                Inst::Bra {
                    target: crate::ir::Label(0),
                    cond: None,
                },
                Inst::Ret,
            ],
            label_targets: vec![2],
            num_regs: 0,
            shared_bytes: 0,
            num_params: 0,
            lines: vec![],
        };
        assert_eq!(
            CompiledKernel::decode(&k).err(),
            Some(Decline::BranchPastEnd)
        );
        assert!(CompiledKernel::compile(&k).is_none());
    }

    #[test]
    fn typed_plan_builds_for_single_typed_kernels() {
        let k = shaped_kernel();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        assert!(
            ck.specialize(&k, &[Value::U64(0x1000)], &CostModel::default())
                .is_ok(),
            "single-typed kernel should get a typed plan"
        );
    }

    /// A closed form addresses lane `i` at `base + i * stride` in 64-bit
    /// wrapping arithmetic; a 32-bit `Affine` only does while its lanes do
    /// not wrap in 32 bits (a negative 32-bit stride always wraps).
    #[test]
    fn narrow_affines_are_exact_only_without_a_wrap() {
        let top = u32::MAX as u64 - 31;
        assert_eq!(Shape::affine(top, 1, false).exact(32), Some((top, 1)));
        assert_eq!(Shape::affine(top, 1, false).exact(33), None);
        let down = Shape::affine(40, -1i64 as u64, false);
        assert_eq!(down.exact(1), Some((40, u32::MAX as u64)));
        assert_eq!(down.exact(2), None);
        assert_eq!(
            Shape::affine(u64::MAX, 1, true).exact(32),
            Some((u64::MAX, 1))
        );
        assert_eq!(Shape::Uniform(7).exact(32), Some((7, 0)));
        assert_eq!(Shape::Rows.exact(32), None);
    }

    #[test]
    fn typed_plan_rejects_mixed_type_register_reuse() {
        let mut b = KernelBuilder::new("mixed");
        let r = b.mov_imm(Value::I32(1));
        b.bin_to(r, BinOp::Add, Ty::F32, r, Value::F32(1.0));
        let k = b.finish();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        assert_eq!(
            ck.specialize(&k, &[], &CostModel::default()).err(),
            Some(Decline::TwoTypes),
            "a register written at two types must decline to the interpreter"
        );
        // A select whose arms carry two types.
        let mut b = KernelBuilder::new("mixed_select");
        let c = b.mov_imm(Value::Pred(true));
        b.select(c, Value::I32(1), Value::F64(2.0));
        b.ret();
        let k = b.finish();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        assert_eq!(
            ck.specialize(&k, &[], &CostModel::default()).err(),
            Some(Decline::MixedSelect)
        );
    }

    const TYS: [Ty; 6] = [Ty::I32, Ty::I64, Ty::U64, Ty::F32, Ty::F64, Ty::Pred];
    const BIN_OPS: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];
    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const UN_OPS: [UnOp; 4] = [UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Not];

    /// Adding a type or operator must extend the tables above: these
    /// wildcard-free matches stop compiling until it is listed here.
    #[allow(dead_code)]
    fn tables_are_exhaustive(ty: Ty, b: BinOp, c: CmpOp, u: UnOp) {
        match ty {
            Ty::I32 | Ty::I64 | Ty::U64 | Ty::F32 | Ty::F64 | Ty::Pred => {}
        }
        match b {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min => {}
            BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {}
        }
        match c {
            CmpOp::Eq | CmpOp::Ne | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {}
        }
        match u {
            UnOp::Neg | UnOp::Abs | UnOp::Sqrt | UnOp::Not => {}
        }
    }

    /// Edge values of every register type: zeros, units, extremes, shift
    /// counts at and past the operand width, both zeros and infinities,
    /// quiet and signalling NaNs, subnormals, and floats beyond the `i32`,
    /// `i64` and `f32` ranges (saturating casts, overflow to infinity).
    #[rustfmt::skip]
    fn edge_values() -> Vec<Value> {
        let (above32, below32) = (i32::MAX as i64 + 1, i32::MIN as i64 - 1);
        let i32s = [0, 1, -1, i32::MIN, i32::MAX, 31, 32, 63, 64];
        let i64s = [0, 1, -1, i64::MIN, i64::MAX, 31, 32, 63, 64, above32, below32];
        let u64s = [0, 1, u64::MAX, 31, 32, 63, 64, 1 << 63, 1 << 32];
        let (inf, snan, sub) = (f32::INFINITY, f32::from_bits(0x7f80_0001), f32::from_bits(1));
        let f32s = [0.0, -0.0, 1.0, -1.0, 0.5, -1.5, 64.0, inf, -inf, f32::NAN, snan, sub, -sub,
                    3e9, -3e9, 1e19, -1e19];
        let (inf, snan, sub) =
            (f64::INFINITY, f64::from_bits(0x7ff0_0000_0000_0001), f64::from_bits(1));
        let f64s = [0.0, -0.0, 1.0, -1.0, 0.5, -1.5, 32.0, inf, -inf, f64::NAN, snan, sub, -sub,
                    3e9, -3e9, 1e19, -1e19, 1e300];
        let mut v: Vec<Value> = i32s.map(Value::I32).to_vec();
        v.extend(i64s.map(Value::I64));
        v.extend(u64s.map(Value::U64));
        v.extend(f32s.map(Value::F32));
        v.extend(f64s.map(Value::F64));
        v.extend([false, true].map(Value::Pred));
        v
    }

    /// What a stale row holds in the shaped tests: garbage in release, so
    /// a per-lane reader that skips `sync` computes garbage; in debug the
    /// tier keeps its shadow (rows also materialised, checked on every
    /// read of a shape), so the tests install rows the same way.
    const POISON: u64 = 0xdead_beef_dead_beef;
    const SHADOWED: bool = cfg!(debug_assertions);

    /// The typed `(op, ty)` tables — the scalar evaluators both the
    /// once-per-warp path and the lane loops call — are written separately
    /// from the interpreter's (`eval_bin`/`eval_cmp`/`eval_un`) and must
    /// equal them bit-for-bit on every `(op, ty)` and every operand type:
    /// results, result types, and the `Err` values (`DivisionByZero`,
    /// `TypeError` and its message).
    #[test]
    fn alu_tables_match_the_interpreter_exhaustively() {
        let edges = edge_values();
        for ty in TYS {
            for &a in &edges {
                let x = conv_for(a.ty(), ty).apply(value_bits(a));
                for op in UN_OPS {
                    let want = eval_un(op, ty, a).map(|v| {
                        assert_eq!(v.ty(), ty, "{op} {ty} {a:?}");
                        value_bits(v)
                    });
                    assert_eq!(un_scalar(op, ty, x), want, "{op} {ty} {a:?}");
                }
                for &b in &edges {
                    let y = conv_for(b.ty(), ty).apply(value_bits(b));
                    for op in BIN_OPS {
                        let want = eval_bin(op, ty, a, b).map(|v| {
                            assert_eq!(v.ty(), ty, "{op} {ty} {a:?} {b:?}");
                            value_bits(v)
                        });
                        assert_eq!(bin_scalar(op, ty, x, y), want, "{op} {ty} {a:?} {b:?}");
                    }
                    for op in CMP_OPS {
                        let want = eval_cmp(op, ty, a.convert(ty), b.convert(ty));
                        assert_eq!(cmp_scalar(op, ty, x, y), want, "{op} {ty} {a:?} {b:?}");
                    }
                }
            }
        }
    }

    /// Each lane kernel `specialize` can choose is its scalar evaluator's
    /// `(op, ty)`, `Conv` or `CondKind` entry, lane for lane, and each
    /// guard names exactly the operands that evaluator faults on.
    #[test]
    fn lane_kernels_and_guards_are_their_scalar_evaluators() {
        let edges = edge_values();
        let mut out = [0u64; 1];
        for ty in TYS {
            for &a in &edges {
                let x = conv_for(a.ty(), ty).apply(value_bits(a));
                for op in UN_OPS {
                    let k = UnK::of(op, ty);
                    let want = un_scalar(op, ty, x);
                    assert_eq!(want.is_err(), k.guard.live(&[x]) == 0, "{op} {ty} {a:?}");
                    if let Ok(want) = want {
                        (k.lanes)(&mut out, &[x]);
                        assert_eq!(out[0], want, "{op} {ty} {a:?}");
                    }
                }
                for &b in &edges {
                    let y = conv_for(b.ty(), ty).apply(value_bits(b));
                    for op in BIN_OPS {
                        let k = BinK::of(op, ty);
                        let want = bin_scalar(op, ty, x, y);
                        let at = || format!("{op} {ty} {a:?} {b:?} ({:?})", k.guard);
                        assert_eq!(want.is_err(), k.guard.live(&[y]) == 0, "{}", at());
                        if let Ok(want) = want {
                            (k.lanes)(&mut out, &[x], &[y]);
                            assert_eq!(out[0], want, "{}", at());
                        }
                    }
                    for op in CMP_OPS {
                        (CmpK::of(op, ty).lanes)(&mut out, &[x], &[y]);
                        assert_eq!(out[0], cmp_scalar(op, ty, x, y) as u64, "{op} {ty}");
                    }
                }
            }
        }
        for v in edge_values() {
            let bits = value_bits(v);
            for to in TYS {
                let cv = conv_for(v.ty(), to);
                let mut lane = [bits];
                (Arg::new(0, cv).conv)(&mut lane);
                assert_eq!(lane[0], cv.apply(bits), "{v:?} -> {to}");
            }
            let kind = cond_kind(v.ty());
            (SelK::of(kind).lanes)(&mut out, &[bits], &[1], &[2]);
            assert_eq!(out[0], if cond_true(kind, bits) { 1 } else { 2 }, "{v:?}");
        }
    }

    // --- The shape algebra against the interpreter, lane by lane ------------

    /// The shaped tests run one step on a two-warp block: warp 0 is full
    /// width, warp 1 is a short last warp.
    const N: usize = 37;
    const WARP: usize = WARP_SIZE as usize;

    /// An operand as a shaped test presents it: the static type of its
    /// row, the shape installed for the warp under test (`Rows`: the lanes
    /// are written into the row; otherwise the row is stale), and what each
    /// lane of the block holds — computed here, not by the code under test.
    #[derive(Debug, Clone)]
    struct Pres {
        ty: Ty,
        shape: Shape,
        lanes: Vec<Value>,
    }

    fn uniform(v: Value) -> Pres {
        Pres {
            ty: v.ty(),
            shape: Shape::Uniform(value_bits(v)),
            lanes: vec![v; N],
        }
    }

    fn rows(vals: &[Value], rot: usize) -> Pres {
        Pres {
            ty: vals[0].ty(),
            shape: Shape::Rows,
            lanes: (0..N).map(|l| vals[(l + rot) % vals.len()]).collect(),
        }
    }

    /// Lane `i` of either warp holds `base + i * stride` reduced into
    /// `ty` by two's-complement truncation of the true integer.
    fn affine(ty: Ty, base: i128, stride: i64) -> Pres {
        let lanes = (0..N)
            .map(|l| {
                let x = base + (l % WARP) as i128 * stride as i128;
                match ty {
                    Ty::I32 => Value::I32(x as i32),
                    Ty::I64 => Value::I64(x as i64),
                    Ty::U64 => Value::U64(x as u64),
                    _ => unreachable!("affine rows are integer rows"),
                }
            })
            .collect();
        Pres {
            ty,
            shape: Shape::affine(base as u64, stride as u64, ty != Ty::I32),
            lanes,
        }
    }

    /// Affine presentations of every integer type: strides 0, ±1, ±128 and
    /// `i32::MAX`, from bases that put the 32-lane sequence across the
    /// `i32`, `i64` and `u64` edges (and across zero, descending).
    fn affines(strides: &[i64]) -> Vec<Pres> {
        let (i32max, i64max, u64max) = (i32::MAX as i128, i64::MAX as i128, u64::MAX as i128);
        let bases: [(Ty, Vec<i128>); 3] = [
            (Ty::I32, vec![0, i32max - 5, i32::MIN as i128 + 5, -3]),
            (
                Ty::I64,
                vec![
                    0,
                    i32max - 5,
                    u32::MAX as i128 - 5,
                    i64max - 5,
                    i64::MIN as i128 + 5,
                    -3,
                ],
            ),
            (Ty::U64, vec![0, 5, i32max - 5, i64max - 5, u64max - 5]),
        ];
        let mut out = Vec::new();
        for (ty, bs) in &bases {
            for &b in bs {
                out.extend(strides.iter().map(|&s| affine(*ty, b, s)));
            }
        }
        out
    }

    const STRIDES: [i64; 6] = [0, 1, -1, 128, -128, i32::MAX as i64];

    /// A group as the scheduler would hand it over: the warp and its
    /// active lanes.
    struct Group {
        name: &'static str,
        w: usize,
        mask: Vec<usize>,
    }

    fn groups() -> Vec<Group> {
        let g = |name, w, mask: Vec<usize>| Group { name, w, mask };
        vec![
            g("full", 0, (0..32).collect()),
            g("short last warp", 1, (32..37).collect()),
            g("contiguous partial", 0, (4..20).collect()),
            g("scattered", 0, (0..32).filter(|l| l % 3 != 1).collect()),
            g("short partial", 1, (33..35).collect()),
        ]
    }

    /// What `dst` holds before the step: a stale closed form (row
    /// poisoned) that a full write replaces and a partial write must
    /// first materialise for the lanes outside the group.
    const DST_OLD: Shape = Shape::Affine {
        base: 0x1111,
        stride: 7,
        wide: true,
    };

    /// A lowering with `rows` registers and no instructions, for driving
    /// single steps.
    fn bare_kernel(rows: usize) -> TypedKernel {
        let zero = Slot {
            shape: Shape::Uniform(0),
            row: RowState::Initial,
        };
        TypedKernel {
            ck: CompiledKernel {
                num_regs: rows,
                runs: vec![],
                run_of: vec![],
            },
            tops: vec![],
            init: vec![zero; rows],
            static_cycles: vec![0],
            census: Mutex::default(),
        }
    }

    /// State for one step, as a block that inherits another's buffers
    /// finds it (every lane poisoned before the block starts): `operands`
    /// in rows `0..`, `dst` in the row after them. A `Uniform` zero operand
    /// is presented as a register no step has written — its slot and row
    /// are left exactly as the block start left them.
    fn shaped_state<'k>(tks: &'k [TypedKernel], g: &Group, operands: &[&Pres]) -> TypedState<'k> {
        let mut st = tks[operands.len() + 1].state(N, &DeviceConfig::default());
        st.bits.fill(POISON);
        st.begin_block();
        st.enter_warp(g.w);
        st.mask = g.mask.clone();
        st.contig = g.mask[g.mask.len() - 1] - g.mask[0] + 1 == g.mask.len();
        st.full = g.mask.len() == st.len;
        let stale = Slot {
            shape: DST_OLD,
            row: RowState::Stale,
        };
        for (row, p) in operands.iter().enumerate() {
            if p.shape == Shape::Uniform(0) {
                continue;
            }
            for l in 0..N {
                st.bits[row * N + l] = match p.shape {
                    Shape::Rows => value_bits(p.lanes[l]),
                    _ if SHADOWED => value_bits(p.lanes[l]),
                    _ => POISON,
                };
            }
            *st.slot(row) = match p.shape {
                Shape::Rows => Slot {
                    shape: Shape::Rows,
                    row: RowState::Held,
                },
                shape => Slot { shape, ..stale },
            };
        }
        let dst = operands.len();
        for l in 0..N {
            st.bits[dst * N + l] = if SHADOWED {
                DST_OLD.lane(l % WARP)
            } else {
                POISON
            };
        }
        *st.slot(dst) = stale;
        st
    }

    /// Hold the step's outcome against the interpreter's lane loop:
    /// `want(l)` is what lane `l` computes; the first `Err` in ascending
    /// lane order is the step's error; lanes outside the group keep
    /// `DST_OLD`. Returns the shape the step left in `dst`.
    fn check_shaped(
        mut st: TypedState,
        g: &Group,
        got: Result<bool, SimError>,
        want: impl Fn(usize) -> Result<u64, SimError>,
        at: impl Fn() -> String,
    ) -> Shape {
        let dst = st.tk.init.len() - 1;
        let mut expect = Vec::new();
        for &l in &g.mask {
            match want(l) {
                Ok(b) => expect.push(b),
                Err(e) => {
                    assert_eq!(got, Err(e), "{} [{}]", at(), g.name);
                    return Shape::Rows;
                }
            }
        }
        assert!(got.is_ok(), "{} [{}]: {got:?}", at(), g.name);
        let left = st.slot(dst).shape;
        st.sync(dst);
        for l in st.lo..st.lo + st.len {
            let want = match g.mask.iter().position(|&m| m == l) {
                Some(k) => expect[k],
                None => DST_OLD.lane(l - st.lo),
            };
            assert_eq!(
                st.bits[dst * N + l],
                want,
                "{} [{}] lane {l}, dst left as {left:?}",
                at(),
                g.name
            );
        }
        left
    }

    /// Every `(BinOp|CmpOp|UnOp|Conv, Ty)` and `Select`, with each operand
    /// presented as `Uniform`, as `Affine` and as `Rows`, under full,
    /// contiguous-partial and scattered masks and on a short last warp:
    /// results and `Err` values equal the interpreter's, lane by lane, and
    /// lanes outside the group keep their values.
    #[test]
    fn shaped_steps_match_the_interpreter_lane_by_lane() {
        let edges = edge_values();
        let groups = groups();
        let tks: Vec<TypedKernel> = (0..=4).map(bare_kernel).collect();
        let by_ty =
            |ty: Ty| -> Vec<Value> { edges.iter().copied().filter(|v| v.ty() == ty).collect() };
        let all_affine = affines(&STRIDES);
        let few_affine = affines(&[1, -128]);
        let all_rows: Vec<Pres> = TYS
            .iter()
            .flat_map(|&t| [rows(&by_ty(t), 0), rows(&by_ty(t), 5)])
            .collect();
        // A spread of uniforms for the binary cross product (every pair of
        // all 66 is covered, as scalars, by the test above).
        let few_uniform: Vec<Pres> = edges.iter().step_by(3).map(|&v| uniform(v)).collect();
        let all_uniform: Vec<Pres> = edges.iter().map(|&v| uniform(v)).collect();
        let mut kept_affine = 0u64;

        // Unary operators and every conversion, over every presentation.
        for p in all_uniform.iter().chain(&all_affine).chain(&all_rows) {
            for g in &groups {
                for ty in TYS {
                    let ca = conv_for(p.ty, ty);
                    for op in UN_OPS {
                        let mut st = shaped_state(&tks, g, &[p]);
                        let got = st.un(&UnK::of(op, ty), 1, Arg::new(0, ca));
                        check_shaped(
                            st,
                            g,
                            got,
                            |l| eval_un(op, ty, p.lanes[l]).map(value_bits),
                            || format!("{op} {ty} {p:?}"),
                        );
                    }
                    let mut st = shaped_state(&tks, g, &[p]);
                    let got = Ok(st.cvt(1, Arg::new(0, ca)));
                    let left = check_shaped(
                        st,
                        g,
                        got,
                        |l| Ok(value_bits(p.lanes[l].convert(ty))),
                        || format!("cvt {ty} {p:?}"),
                    );
                    kept_affine += matches!(left, Shape::Affine { .. }) as u64;
                }
            }
        }

        // Binary operators and comparisons: every affine presentation
        // against a spread of uniforms, affines and rows (both operand
        // orders), plus the spreads against each other. Each pair runs on
        // the full warp, on the short warp, and on one of the partial
        // groups in rotation.
        let others: Vec<&Pres> = few_uniform
            .iter()
            .chain(&few_affine)
            .chain(&all_rows)
            .collect();
        let mut pairs: Vec<(&Pres, &Pres)> = Vec::new();
        for a in &all_affine {
            for &o in &others {
                pairs.push((a, o));
                pairs.push((o, a));
            }
        }
        for &a in &others {
            pairs.extend(others.iter().map(|&b| (a, b)));
        }
        for (i, &(a, b)) in pairs.iter().enumerate() {
            for g in [&groups[0], &groups[1], &groups[2 + i % 3]] {
                for ty in TYS {
                    let (ca, cb) = (conv_for(a.ty, ty), conv_for(b.ty, ty));
                    let at = |op: &dyn std::fmt::Display| format!("{op} {ty} {a:?} {b:?}");
                    for op in BIN_OPS {
                        let mut st = shaped_state(&tks, g, &[a, b]);
                        let got = st.bin(&BinK::of(op, ty), 2, Arg::new(0, ca), Arg::new(1, cb));
                        let both_uniform =
                            matches!((a.shape, b.shape), (Shape::Uniform(_), Shape::Uniform(_)));
                        if let Ok(once) = got {
                            assert!(once || !both_uniform, "{} ran per lane", at(&op));
                        }
                        let left = check_shaped(
                            st,
                            g,
                            got,
                            |l| eval_bin(op, ty, a.lanes[l], b.lanes[l]).map(value_bits),
                            || at(&op),
                        );
                        kept_affine += matches!(left, Shape::Affine { .. }) as u64;
                    }
                    for op in CMP_OPS {
                        let mut st = shaped_state(&tks, g, &[a, b]);
                        let got =
                            Ok(st.cmp(&CmpK::of(op, ty), 2, Arg::new(0, ca), Arg::new(1, cb)));
                        check_shaped(
                            st,
                            g,
                            got,
                            |l| {
                                let (x, y) = (a.lanes[l].convert(ty), b.lanes[l].convert(ty));
                                Ok(eval_cmp(op, ty, x, y) as u64)
                            },
                            || at(&op),
                        );
                    }
                }
            }
        }

        // Select: conditions of every truth encoding (`-0.0` is false, NaN
        // is true) uniform and per lane, arms of one type in every shape.
        let conds: Vec<Pres> = [
            Value::Pred(true),
            Value::Pred(false),
            Value::I32(0),
            Value::I64(-1),
            Value::F32(-0.0),
            Value::F64(f64::NAN),
        ]
        .into_iter()
        .map(uniform)
        .chain(all_rows.iter().cloned())
        .collect();
        let id = |row| Arg::new(row, Conv::Id);
        for c in &conds {
            for ty in [Ty::I32, Ty::I64, Ty::U64, Ty::F64] {
                let arms: Vec<&Pres> = all_uniform
                    .iter()
                    .chain(&few_affine)
                    .chain(&all_rows)
                    .filter(|p| p.ty == ty)
                    .collect();
                for &a in &arms {
                    for &b in &arms {
                        for g in &groups {
                            let mut st = shaped_state(&tks, g, &[c, a, b]);
                            let got =
                                Ok(st.select(&SelK::of(cond_kind(c.ty)), 3, id(0), id(1), id(2)));
                            check_shaped(
                                st,
                                g,
                                got,
                                |l| {
                                    let arm = if c.lanes[l].as_bool() { a } else { b };
                                    Ok(value_bits(arm.lanes[l]))
                                },
                                || format!("select {c:?} {a:?} {b:?}"),
                            );
                        }
                    }
                }
            }
        }
        // A silently disabled algebra would pass everything above through
        // the lane loops.
        assert!(
            kept_affine > 10_000,
            "only {kept_affine} steps stayed affine"
        );
    }

    /// Integer `div`/`rem` whose divisor is zero at one active lane — the
    /// first, a middle or the last, under every group shape, and at `I32`
    /// also a 64-bit divisor that is zero only after `Low32` — raises
    /// `DivisionByZero`, writes exactly the group's lanes before that one
    /// and leaves every other lane of the row with its old bits. An
    /// ill-typed step (`and.f64`, `add.pred`, `sqrt.s32`) raises the
    /// evaluator's `TypeError` and writes no lane at all.
    #[test]
    fn a_faulting_lane_stops_the_kernel_before_it() {
        let tks: Vec<TypedKernel> = (0..=3).map(bare_kernel).collect();
        let old = |l: usize| 0xa000 + l as u64;
        let of = |ty: Ty, f: &dyn Fn(usize) -> i64| Pres {
            ty,
            shape: Shape::Rows,
            lanes: (0..N)
                .map(|l| match ty {
                    Ty::I32 => Value::I32(f(l) as i32),
                    Ty::I64 => Value::I64(f(l)),
                    Ty::U64 => Value::U64(f(l) as u64),
                    Ty::F64 => Value::F64(f(l) as f64),
                    Ty::Pred => Value::Pred(f(l) % 2 == 0),
                    Ty::F32 => Value::F32(f(l) as f32),
                })
                .collect(),
        };
        // The step, on a `dst` (row 2) that holds `old` in every lane.
        let step = |g: &Group,
                    x: &Pres,
                    y: &Pres,
                    run: &dyn Fn(&mut TypedState) -> Result<bool, SimError>| {
            let mut st = shaped_state(&tks, g, &[x, y]);
            for l in 0..N {
                st.bits[2 * N + l] = old(l);
            }
            *st.slot(2) = Slot {
                shape: Shape::Rows,
                row: RowState::Held,
            };
            let got = run(&mut st);
            (got, st.bits[2 * N..3 * N].to_vec())
        };
        let dividend = |l: usize| 1000 - 37 * l as i64;
        for g in &groups() {
            for fault in [0, g.mask.len() / 2, g.mask.len() - 1] {
                let at = g.mask[fault];
                for (row_ty, ty, zero) in [
                    (Ty::I32, Ty::I32, 0),
                    (Ty::I64, Ty::I64, 0),
                    (Ty::U64, Ty::U64, 0),
                    (Ty::I64, Ty::I32, 1 << 32),
                ] {
                    let x = of(row_ty, &dividend);
                    let y = of(row_ty, &|l| if l == at { zero } else { (l % 5) as i64 + 1 });
                    let cv = conv_for(row_ty, ty);
                    for op in [BinOp::Div, BinOp::Rem] {
                        let (got, row) = step(g, &x, &y, &|st| {
                            st.bin(&BinK::of(op, ty), 2, Arg::new(0, cv), Arg::new(1, cv))
                        });
                        let what =
                            format!("{op} {ty} from {row_ty} [{}] zero at lane {at}", g.name);
                        assert_eq!(got, Err(SimError::DivisionByZero), "{what}");
                        for (l, &bits) in row.iter().enumerate() {
                            let want = if g.mask[..fault].contains(&l) {
                                value_bits(eval_bin(op, ty, x.lanes[l], y.lanes[l]).unwrap())
                            } else {
                                old(l)
                            };
                            assert_eq!(bits, want, "{what}: lane {l}");
                        }
                    }
                }
            }
            let ill = |ty: Ty| (of(ty, &dividend), of(ty, &|l| l as i64 + 1));
            for (op, ty) in [(BinOp::And, Ty::F64), (BinOp::Add, Ty::Pred)] {
                let (x, y) = ill(ty);
                let (got, row) = step(g, &x, &y, &|st| {
                    st.bin(
                        &BinK::of(op, ty),
                        2,
                        Arg::new(0, Conv::Id),
                        Arg::new(1, Conv::Id),
                    )
                });
                let l0 = g.mask[0];
                let want = eval_bin(op, ty, x.lanes[l0], y.lanes[l0]).map(value_bits);
                assert!(matches!(want, Err(SimError::TypeError { .. })), "{op} {ty}");
                assert_eq!(got.map(|_| 0), want, "{op} {ty} [{}]", g.name);
                assert!(
                    row.iter().enumerate().all(|(l, &b)| b == old(l)),
                    "{op} {ty} [{}]",
                    g.name
                );
            }
            let (x, y) = ill(Ty::I32);
            let (got, row) = step(g, &x, &y, &|st| {
                st.un(&UnK::of(UnOp::Sqrt, Ty::I32), 2, Arg::new(0, Conv::Id))
            });
            let want = eval_un(UnOp::Sqrt, Ty::I32, x.lanes[g.mask[0]]).map(value_bits);
            assert!(matches!(want, Err(SimError::TypeError { .. })));
            assert_eq!(got.map(|_| 0), want, "sqrt.s32 [{}]", g.name);
            assert!(
                row.iter().enumerate().all(|(l, &b)| b == old(l)),
                "sqrt.s32 [{}]",
                g.name
            );
        }
    }

    /// Every `conv_for(from, to)` entry is the bit-level image of
    /// [`Value::convert`] (which is also `as_u64`/`as_i64` for address
    /// operands), `bits_value` inverts `value_bits`, and `cond_true` is
    /// `as_bool`.
    #[test]
    fn conv_table_matches_value_convert_exhaustively() {
        for v in edge_values() {
            let bits = value_bits(v);
            // NaN payloads survive the round trip, so compare encodings.
            assert_eq!(value_bits(bits_value(v.ty(), bits)), bits, "{v:?}");
            assert_eq!(cond_true(cond_kind(v.ty()), bits), v.as_bool(), "{v:?}");
            for to in TYS {
                assert_eq!(
                    conv_for(v.ty(), to).apply(bits),
                    value_bits(v.convert(to)),
                    "{v:?} -> {to}"
                );
            }
        }
        // Agreement is not enough where both sides could be folded the same
        // way: `F32` -> `F32` of a signalling NaN is pinned to the quieted
        // pattern itself, in both engines, in debug and in release.
        for (snan, quiet) in [(0x7f80_0001u32, 0x7fc0_0001u32), (0xffb0_0000, 0xfff0_0000)] {
            let v = Value::F32(f32::from_bits(snan));
            assert_eq!(value_bits(v.convert(Ty::F32)), quiet as u64, "oracle");
            assert_eq!(
                Conv::F32Round.apply(snan as u64),
                quiet as u64,
                "typed tier"
            );
        }
    }
}
