//! The typed execution tier: pre-decoded basic-block runs, statically
//! typed bit-row registers, and warp-uniform fast paths.
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
//! runs it. The tier declines:
//!
//! * empty kernels, kernels whose last instruction is not a hard
//!   terminator, and kernels with a branch target past the end of the
//!   instruction stream (`compile` returns `None`; the interpreter's
//!   handling of a lane reaching `pc == len` is kept by not modelling it);
//! * kernels that write one register at two types, and kernels with a
//!   `Select` whose arms carry two types (`specialize` returns `None`;
//!   the interpreter's registers are dynamically typed, the rows here are
//!   not).
//!
//! No kernel `uhacc_core` codegen emits is declined. A decline costs the
//! interpreter's 7–14× slowdown, so [`crate::Device::tier_declines`]
//! counts them.
//!
//! # Pre-decoded runs
//!
//! [`CompiledKernel::compile`] splits the instruction stream into *runs* —
//! maximal straight-line spans `[leader, next_leader)` where leaders are
//! instruction 0, every branch target, and every instruction following a
//! `Bra`, `Ret`, or `Bar`. Runs are the basic blocks of
//! [`crate::verify`]'s CFG additionally split after barriers, because a
//! warp's lanes *rest* at the instruction after a `Bar` while waiting for
//! the release.
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
//! # Warp-uniform fast paths
//!
//! A divergence analysis in the style of kverify's `DivPart` domain runs
//! at compile time: a register is *uniform* (provably equal across the
//! lanes executing together) unless it is derived from a per-lane special
//! register (`tid.x`, `tid.y`, `%linear`), from a value-returning atomic,
//! from another divergent register, or defined under control dependence
//! of a branch with a divergent condition (control dependences come from
//! the shared [`crate::verify`] postdominator machinery; the analysis
//! iterates to a fixpoint). A run whose instructions read only uniform
//! registers (and contain no per-lane special reads and no atomics — M
//! serialized atomic applications are not one application) executes
//! **once** on the group's first lane and broadcasts register writes:
//! loads issue one bounds-checked access instead of 32, and stores write
//! one identical value instead of 32. The cost model sees identical
//! counts by construction — M identical accesses occupy exactly the
//! segments/banks of one — and the sanitizer is still fed per-lane.
//!
//! # Typed bit rows
//!
//! [`CompiledKernel::specialize`] assigns every virtual register a single
//! static [`Ty`] (a flow-insensitive merge over all of its definitions;
//! `Mov`/`Select` propagate to a fixpoint). The block's registers are raw
//! `u64` *bit rows* indexed `row * n_threads + lane` — `I32`/`F32`/`Pred`
//! zero-extended, `I64`/`U64`/`F64` as their 64-bit representation — and
//! every [`Inst`] is lowered to a [`TOp`]: branch labels resolved,
//! operand conversions ([`Conv`]) resolved to mirror [`Value::convert`] /
//! `as_u64` / `as_i64` / `as_bool` *exactly*, immediates pre-converted
//! into broadcast constant rows, SFU surcharges and access sizes
//! classified, and the `(op, ty)` dispatch hoisted out of the lane loops.
//! Registers the kernel never writes hold the interpreter's
//! `Value::I32(0)`; a zero bit row reproduces that under any static type
//! because zero is a fixed point of every conversion in the table.

use crate::cost::ExecTier;
use crate::error::SimError;
use crate::exec::{alu_cost, mref_addr, BlockExec, MemView};
use crate::ir::{AtomOp, BinOp, CmpOp, Inst, Kernel, MemRef, Operand, Reg, SpecialReg, UnOp};
use crate::memory::AccessAbort;
use crate::profile::PcCounters;
use crate::sanitizer::AccessKind;
use crate::trace::{MemTouch, TraceEvent, TraceSpace};
use crate::types::{Ty, Value};
use crate::verify;

/// How a run ends (rendered by [`CompiledKernel::describe`]).
#[derive(Debug, Clone, Copy)]
enum Term {
    Bra { target: usize, cond: bool },
    Ret,
    Bar,
    Fallthrough,
}

/// A maximal straight-line span `[start, end)`; `end - 1` is a
/// terminator (`Bra`/`Ret`/`Bar`) or falls through to the leader at
/// `end`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    end: usize,
    term: Term,
}

/// The launch-independent part of the typed tier's pre-decoding: run
/// structure and uniformity verdicts. `specialize` lowers the
/// instructions themselves once the parameter types are known.
#[derive(Debug)]
pub struct CompiledKernel {
    num_regs: usize,
    runs: Vec<Run>,
    /// `run_of[pc]` = index of the run containing `pc`.
    run_of: Vec<usize>,
    /// Per-run warp-uniform flag (see module docs).
    run_uniform: Vec<bool>,
    /// Per-register uniformity verdict (exposed via [`Self::describe`]).
    uniform_regs: Vec<bool>,
}

impl CompiledKernel {
    /// Pre-decode `kernel`. Returns `None` for shapes the tier does not
    /// model (empty kernels, kernels whose control flow can leave the
    /// instruction stream) — the launch runs on the interpreter,
    /// preserving its behavior exactly.
    pub fn compile(kernel: &Kernel) -> Option<CompiledKernel> {
        let n = kernel.insts.len();
        // The last instruction must be a hard terminator, otherwise a lane
        // can advance to pc == n (the interpreter treats that as a
        // malformed kernel; keep its behavior by declining).
        match kernel.insts.last()? {
            Inst::Ret | Inst::Bra { cond: None, .. } => {}
            _ => return None,
        }

        // Leaders: 0, branch targets, and the instruction after every
        // Bra/Ret/Bar (lanes rest one past a barrier while waiting). A
        // target of n (one past the end — the builder permits labels
        // placed after the final `ret`) is likewise left to the
        // interpreter.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, inst) in kernel.insts.iter().enumerate() {
            match inst {
                Inst::Bra { target, .. } => {
                    let t = *kernel.label_targets.get(target.0 as usize)?;
                    *leader.get_mut(t)? = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Inst::Ret | Inst::Bar if pc + 1 < n => leader[pc + 1] = true,
                _ => {}
            }
        }
        let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        let runs: Vec<Run> = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = starts.get(i + 1).copied().unwrap_or(n);
                let term = match &kernel.insts[end - 1] {
                    Inst::Bra { target, cond } => Term::Bra {
                        target: kernel.target(*target),
                        cond: cond.is_some(),
                    },
                    Inst::Ret => Term::Ret,
                    Inst::Bar => Term::Bar,
                    _ => Term::Fallthrough,
                };
                Run { start, end, term }
            })
            .collect();
        let mut run_of = vec![0usize; n];
        for (ri, r) in runs.iter().enumerate() {
            for slot in &mut run_of[r.start..r.end] {
                *slot = ri;
            }
        }

        let uniform_regs = uniform_registers(kernel);
        let run_uniform: Vec<bool> = runs
            .iter()
            .map(|r| {
                kernel.insts[r.start..r.end]
                    .iter()
                    .all(|inst| inst_uniform(inst, &uniform_regs))
            })
            .collect();

        Some(CompiledKernel {
            num_regs: kernel.num_regs as usize,
            runs,
            run_of,
            run_uniform,
            uniform_regs,
        })
    }

    /// Textual dump of the pre-decoded form (run boundaries, terminators,
    /// uniformity verdicts) for golden tests and debugging.
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
            let _ = writeln!(
                out,
                "  run {i}: pc {}..{} {} [{term}]",
                r.start,
                r.end,
                if self.run_uniform[i] {
                    "uniform"
                } else {
                    "per-lane"
                },
            );
        }
        let uni: Vec<String> = self
            .uniform_regs
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| format!("%r{i}"))
            .collect();
        let _ = writeln!(out, "  uniform regs: {}", uni.join(" "));
        out
    }
}

/// Per-lane special registers: different lanes of one warp read different
/// values. (`tid.z` is always 0; block/grid geometry is warp-invariant.)
fn divergent_special(sr: SpecialReg) -> bool {
    matches!(
        sr,
        SpecialReg::TidX | SpecialReg::TidY | SpecialReg::LaneLinear
    )
}

/// Fixpoint divergence analysis over registers (see module docs).
fn uniform_registers(kernel: &Kernel) -> Vec<bool> {
    let cfg = verify::Cfg::build(kernel);
    let pdom = verify::postdominators(&cfg);
    let cdeps = verify::control_deps(&cfg, &pdom);
    let mut uniform = vec![true; kernel.num_regs as usize];
    loop {
        let mut changed = false;
        for (pc, inst) in kernel.insts.iter().enumerate() {
            let Some(dst) = inst.def() else { continue };
            let di = dst.0 as usize;
            if !uniform[di] {
                continue;
            }
            // Divergent sources: per-lane specials, value-returning
            // atomics (the returned "old" depends on lane serialization
            // order), any divergent input register.
            let mut div = match inst {
                Inst::ReadSpecial { sr, .. } => divergent_special(*sr),
                Inst::AtomGlobal { .. } => true,
                _ => false,
            };
            if !div {
                inst.for_each_use(|r| div |= !uniform[r.0 as usize]);
            }
            // Control divergence: a def executed by only some lanes
            // leaves the others holding stale values.
            if !div {
                let b = cfg.block_of[pc];
                div = cdeps[b].iter().any(|&(bb, _)| {
                    cfg.branch_cond(kernel, bb)
                        .is_some_and(|(r, _)| !uniform[r.0 as usize])
                });
            }
            if div {
                uniform[di] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    uniform
}

/// May `inst` take the one-lane-and-broadcast fast path when every lane
/// of the group executes it together?
fn inst_uniform(inst: &Inst, uniform: &[bool]) -> bool {
    match inst {
        // M serialized atomic applications are not one application.
        Inst::AtomGlobal { .. } => return false,
        Inst::ReadSpecial { sr, .. } if divergent_special(*sr) => return false,
        _ => {}
    }
    let mut ok = true;
    inst.for_each_use(|r| ok &= uniform[r.0 as usize]);
    ok
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
    /// `F32` -> `F32` is *not* the identity: `convert` round-trips
    /// through `f64` (`as_f64() as f32`), which quiets signaling NaNs.
    /// Spelled out as "set the quiet bit of a NaN" because the compiler
    /// folds a literal `x as f64 as f32` to `x`, signaling NaNs included.
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
            Conv::F32Round if f32::from_bits(b as u32).is_nan() => b | 0x0040_0000,
            Conv::F32Round => b,
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
        op: BinOp,
        ty: Ty,
        dst: usize,
        a: usize,
        b: usize,
        ca: Conv,
        cb: Conv,
        sfu: bool,
    },
    Cmp {
        op: CmpOp,
        ty: Ty,
        dst: usize,
        a: usize,
        b: usize,
        ca: Conv,
        cb: Conv,
    },
    Un {
        op: UnOp,
        ty: Ty,
        dst: usize,
        a: usize,
        ca: Conv,
        sfu: bool,
    },
    Select {
        dst: usize,
        cond: usize,
        kind: CondKind,
        a: usize,
        b: usize,
    },
    /// Row-to-row conversion; `Conv::Id` is a plain `Mov`.
    Cvt {
        dst: usize,
        src: usize,
        cv: Conv,
    },
    LdGlobal {
        ty: Ty,
        dst: usize,
        mem: TMem,
    },
    StGlobal {
        ty: Ty,
        src: usize,
        sc: Conv,
        mem: TMem,
    },
    LdShared {
        ty: Ty,
        dst: usize,
        mem: TMem,
    },
    StShared {
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
/// register must produce one type (`Mov`/`Select` propagate their
/// source types to a fixpoint; never-written registers keep the
/// interpreter's `I32` zero). Returns `None` when a register is written
/// at two types — the launch runs on the interpreter.
fn infer_reg_types(kernel: &Kernel, params: &[Value]) -> Option<Vec<Ty>> {
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
                    Inst::MovImm { value, .. } => Some(value.ty()),
                    Inst::Mov { src, .. } => tys[ri(*src)],
                    Inst::ReadSpecial { .. } => Some(Ty::I32),
                    Inst::ReadParam { idx, .. } => {
                        Some(params.get(*idx as usize).map_or(Ty::I32, |v| v.ty()))
                    }
                    Inst::Cmp { .. } => Some(Ty::Pred),
                    Inst::Select { a, b, .. } => match (opnd_ty(&tys, a), opnd_ty(&tys, b)) {
                        (Some(x), Some(y)) if x == y => Some(x),
                        // A select whose arms carry two types passes
                        // values through unconverted: not typeable.
                        (Some(_), Some(_)) => return None,
                        _ => None,
                    },
                    Inst::Bin { ty, .. }
                    | Inst::Un { ty, .. }
                    | Inst::Cvt { ty, .. }
                    | Inst::LdGlobal { ty, .. }
                    | Inst::LdShared { ty, .. }
                    | Inst::AtomGlobal { ty, .. } => Some(*ty),
                    Inst::StGlobal { .. }
                    | Inst::StShared { .. }
                    | Inst::Bar
                    | Inst::Bra { .. }
                    | Inst::Ret => continue,
                };
                match (tys[ri(d)], t) {
                    (_, None) => {}
                    (None, Some(_)) => {
                        tys[ri(d)] = t;
                        changed = true;
                    }
                    (Some(u), Some(t)) if u == t => {}
                    (Some(_), Some(_)) => return None,
                }
            }
            if !changed {
                break;
            }
        }
    }
    Some(tys.into_iter().map(|t| t.unwrap_or(Ty::I32)).collect())
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
    /// Bits of each broadcast constant row (pre-converted immediates);
    /// they follow the `ck.num_regs` register rows.
    consts: Vec<u64>,
}

impl TypedKernel {
    /// The engine for one launch: `Some` runs on the typed tier, `None`
    /// on the interpreter (see the module docs for the decline reasons).
    /// The only place `(tier, kernel, params)` maps to an engine.
    pub(crate) fn select(tier: ExecTier, kernel: &Kernel, params: &[Value]) -> Option<Self> {
        match tier {
            ExecTier::Interpret => None,
            ExecTier::Auto => CompiledKernel::compile(kernel)?.specialize(kernel, params),
        }
    }
}

impl CompiledKernel {
    /// Lower `kernel` (the one `self` was compiled from) to [`TOp`]s for a
    /// concrete parameter list — parameter types feed the register type
    /// inference, so this happens once per launch. `None` when the kernel
    /// is not statically typeable.
    pub(crate) fn specialize(self, kernel: &Kernel, params: &[Value]) -> Option<TypedKernel> {
        let mut lo = Lower {
            rt: infer_reg_types(kernel, params)?,
            num_regs: self.num_regs,
            consts: Vec::new(),
        };
        let mut tops = Vec::with_capacity(kernel.insts.len());
        for inst in &kernel.insts {
            tops.push(match inst {
                Inst::MovImm { dst, value } => TOp::Broadcast {
                    dst: ri(*dst),
                    bits: value_bits(*value),
                },
                Inst::Mov { dst, src } => TOp::Cvt {
                    dst: ri(*dst),
                    src: ri(*src),
                    cv: Conv::Id,
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
                Inst::Bin { op, ty, dst, a, b } => {
                    let (a, ca) = lo.row(a, Some(*ty));
                    let (b, cb) = lo.row(b, Some(*ty));
                    TOp::Bin {
                        op: *op,
                        ty: *ty,
                        dst: ri(*dst),
                        a,
                        b,
                        ca,
                        cb,
                        sfu: matches!(op, BinOp::Div | BinOp::Rem),
                    }
                }
                Inst::Cmp { op, ty, dst, a, b } => {
                    let (a, ca) = lo.row(a, Some(*ty));
                    let (b, cb) = lo.row(b, Some(*ty));
                    TOp::Cmp {
                        op: *op,
                        ty: *ty,
                        dst: ri(*dst),
                        a,
                        b,
                        ca,
                        cb,
                    }
                }
                Inst::Un { op, ty, dst, a } => {
                    let (a, ca) = lo.row(a, Some(*ty));
                    TOp::Un {
                        op: *op,
                        ty: *ty,
                        dst: ri(*dst),
                        a,
                        ca,
                        sfu: matches!(op, UnOp::Sqrt),
                    }
                }
                Inst::Select { dst, cond, a, b } => {
                    // Select passes values through unconverted; the
                    // inference guaranteed both arms are the dst type.
                    let (a, _) = lo.row(a, None);
                    let (b, _) = lo.row(b, None);
                    TOp::Select {
                        dst: ri(*dst),
                        cond: ri(*cond),
                        kind: cond_kind(lo.rt[ri(*cond)]),
                        a,
                        b,
                    }
                }
                Inst::Cvt { dst, ty, src } => match src {
                    Operand::Reg(r) => TOp::Cvt {
                        dst: ri(*dst),
                        src: ri(*r),
                        cv: conv_for(lo.rt[ri(*r)], *ty),
                    },
                    Operand::Imm(v) => TOp::Broadcast {
                        dst: ri(*dst),
                        bits: value_bits(v.convert(*ty)),
                    },
                },
                Inst::LdGlobal { ty, dst, mref } => TOp::LdGlobal {
                    ty: *ty,
                    dst: ri(*dst),
                    mem: lo.tmem(mref, *ty),
                },
                Inst::StGlobal { ty, src, mref } => {
                    let (src, sc) = lo.row(src, Some(*ty));
                    TOp::StGlobal {
                        ty: *ty,
                        src,
                        sc,
                        mem: lo.tmem(mref, *ty),
                    }
                }
                Inst::LdShared { ty, dst, mref } => TOp::LdShared {
                    ty: *ty,
                    dst: ri(*dst),
                    mem: lo.tmem(mref, *ty),
                },
                Inst::StShared { ty, src, mref } => {
                    let (src, sc) = lo.row(src, Some(*ty));
                    TOp::StShared {
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
            });
        }
        Some(TypedKernel {
            ck: self,
            tops,
            consts: lo.consts,
        })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Allocation-free twin of [`crate::coalesce::global_transactions`].
/// Monotonically non-decreasing segment sequences (every coalesced or
/// strided access pattern the reduction kernels emit) are counted in one
/// pass; anything else falls back to sort+dedup on a reusable buffer.
fn transactions(accesses: &[(u64, usize)], segment_bytes: u64, buf: &mut Vec<u64>) -> u64 {
    let mut distinct = 0u64;
    let mut have = false;
    let mut prev = 0u64;
    for &(addr, len) in accesses {
        if len == 0 {
            continue;
        }
        let first = addr / segment_bytes;
        let last = addr.saturating_add(len as u64 - 1) / segment_bytes;
        if !have {
            distinct += last - first + 1;
            prev = last;
            have = true;
        } else if first > prev {
            // Disjoint from everything seen (seen max is `prev`).
            distinct += last - first + 1;
            prev = last;
        } else if first == prev {
            // Extends the last segment range; only `prev+1..=last` is new.
            distinct += last - prev;
            prev = last;
        } else {
            return transactions_slow(accesses, segment_bytes, buf);
        }
    }
    distinct
}

/// General-case twin: distinct aligned segments via sort+dedup.
fn transactions_slow(accesses: &[(u64, usize)], segment_bytes: u64, buf: &mut Vec<u64>) -> u64 {
    buf.clear();
    for &(addr, len) in accesses {
        if len == 0 {
            continue;
        }
        let first = addr / segment_bytes;
        let last = addr.saturating_add(len as u64 - 1) / segment_bytes;
        for s in first..=last {
            buf.push(s);
        }
    }
    buf.sort_unstable();
    buf.dedup();
    buf.len() as u64
}

/// Allocation-free twin of [`crate::coalesce::bank_conflict_degree`]:
/// max over banks of *distinct* words. Monotonic word sequences skip the
/// sort+dedup and count bank occupancy directly.
fn conflict_ways(
    accesses: &[(u64, usize)],
    num_banks: u32,
    buf: &mut Vec<u64>,
    counts: &mut [u32],
) -> u64 {
    if accesses.is_empty() {
        return 0;
    }
    counts.fill(0);
    let mut max = 0u32;
    let mut have = false;
    let mut prev = 0u64;
    for &(off, len) in accesses {
        if len == 0 {
            continue;
        }
        let first = off / 4;
        let last = off.saturating_add(len as u64 - 1) / 4;
        // New words in this access: those above `prev` (every seen word
        // is <= prev in the monotonic case; a range starting below it
        // could contain unseen words we cannot cheaply distinguish).
        let start = if !have {
            have = true;
            first
        } else if first > prev {
            first
        } else if first == prev {
            if last == prev {
                continue;
            }
            prev + 1
        } else {
            return conflict_ways_slow(accesses, num_banks, buf, counts);
        };
        for w in start..=last {
            let c = &mut counts[(w % num_banks as u64) as usize];
            *c += 1;
            max = max.max(*c);
        }
        prev = last;
    }
    (max as u64).max(1)
}

/// General-case twin: global sort+dedup, then per-bank occupancy.
fn conflict_ways_slow(
    accesses: &[(u64, usize)],
    num_banks: u32,
    buf: &mut Vec<u64>,
    counts: &mut [u32],
) -> u64 {
    buf.clear();
    for &(off, len) in accesses {
        if len == 0 {
            continue;
        }
        let first = off / 4;
        let last = off.saturating_add(len as u64 - 1) / 4;
        for w in first..=last {
            buf.push(w);
        }
    }
    buf.sort_unstable();
    buf.dedup();
    counts.fill(0);
    let mut max = 0u32;
    for &w in buf.iter() {
        let c = &mut counts[(w % num_banks as u64) as usize];
        *c += 1;
        max = max.max(*c);
    }
    (max as u64).max(1)
}

/// Trace/sanitizer bookkeeping for a warp-uniform memory access: one
/// address for every lane. Mirrors [`BlockExec::observe_mem`] exactly —
/// the annotation span of M identical accesses is the span of one, and
/// the sanitizer still sees every lane.
#[allow(clippy::too_many_arguments)]
fn observe_mem_uniform(
    exec: &mut BlockExec,
    space: TraceSpace,
    mask: &[usize],
    warp_id: u32,
    pc: usize,
    kind: AccessKind,
    recorded: bool,
    addr: u64,
    size: usize,
) {
    if recorded {
        if let Some(t) = exec.trace.as_mut() {
            t.annotate_mem(MemTouch {
                space,
                lo: addr,
                hi: addr.saturating_add(size as u64),
            });
        }
    }
    if let Some(s) = exec.san.as_mut() {
        for &l in mask {
            match space {
                TraceSpace::Shared => {
                    s.shared_access(l as u32, warp_id, pc, addr, size, kind.writes())
                }
                TraceSpace::Global => s.global_access(l as u32, warp_id, pc, addr, size, kind),
            }
        }
    }
}

/// Global-memory charge shared by the load/store arms (identical to the
/// interpreter's bookkeeping).
#[inline]
fn charge_global(exec: &mut BlockExec, d: &mut PcCounters, tx: u64) {
    exec.stats.global_accesses += 1;
    exec.stats.global_transactions += tx;
    d.global_accesses = 1;
    d.global_transactions = tx;
    // First transaction is unavoidable; the rest are the serialization
    // penalty of an uncoalesced access.
    d.mem_cycles = exec.cost.global_segment;
    d.mem_serial_cycles = (tx - 1) * exec.cost.global_segment;
}

/// Shared-memory charge shared by the load/store arms.
#[inline]
fn charge_shared(exec: &mut BlockExec, d: &mut PcCounters, ways: u64) {
    exec.stats.shared_accesses += 1;
    exec.stats.shared_ways += ways;
    d.shared_accesses = 1;
    d.shared_ways = ways;
    // First way is conflict-free; extra ways are the bank-conflict
    // serialization penalty.
    d.shared_cycles = exec.cost.shared_way;
    d.conflict_cycles = (ways - 1) * exec.cost.shared_way;
}

/// Per-block state of the typed tier: one flat bit row per register and
/// constant (`bits[row * n + lane]`), plus the scratch buffers.
struct TypedState {
    bits: Vec<u64>,
    n: usize,
    mask: Vec<usize>,
    /// `mask` is a contiguous lane range (the overwhelmingly common
    /// case): lane loops become plain ranges.
    contig: bool,
    seg_buf: Vec<u64>,
    bank_counts: Vec<u32>,
    /// Conversion scratch for coalesced span stores.
    tmp: Vec<u64>,
}

/// Broadcast `v` to the active lanes of row `dst`.
#[inline(always)]
fn fill(bits: &mut [u64], n: usize, mask: &[usize], contig: bool, dst: usize, v: u64) {
    let dr = dst * n;
    if contig {
        let lo = mask[0];
        bits[dr + lo..dr + lo + mask.len()].fill(v);
    } else {
        for &l in mask {
            bits[dr + l] = v;
        }
    }
}

/// Apply `f` lane-wise over two converted source rows into `dst`. The
/// `(op, ty)` dispatch happens once at the call site; this is the tight
/// loop. Errors abort mid-loop with earlier lanes already written, in
/// ascending lane order — exactly the interpreter's partial-write
/// semantics for faults like division by zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn map2<T: Copy, U>(
    bits: &mut [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    dst: usize,
    a: usize,
    b: usize,
    ca: Conv,
    cb: Conv,
    dec: impl Fn(u64) -> T,
    enc: impl Fn(U) -> u64,
    f: impl Fn(T, T) -> Result<U, SimError>,
) -> Result<(), SimError> {
    let (dr, ar, br) = (dst * n, a * n, b * n);
    if contig {
        let lo = mask[0];
        let hi = lo + mask.len();
        if ca == Conv::Id && cb == Conv::Id {
            for l in lo..hi {
                let r = f(dec(bits[ar + l]), dec(bits[br + l]))?;
                bits[dr + l] = enc(r);
            }
        } else {
            for l in lo..hi {
                let r = f(dec(ca.apply(bits[ar + l])), dec(cb.apply(bits[br + l])))?;
                bits[dr + l] = enc(r);
            }
        }
    } else {
        for &l in mask {
            let r = f(dec(ca.apply(bits[ar + l])), dec(cb.apply(bits[br + l])))?;
            bits[dr + l] = enc(r);
        }
    }
    Ok(())
}

/// Unary twin of [`map2`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn map1<T: Copy, U>(
    bits: &mut [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    dst: usize,
    a: usize,
    ca: Conv,
    dec: impl Fn(u64) -> T,
    enc: impl Fn(U) -> u64,
    f: impl Fn(T) -> Result<U, SimError>,
) -> Result<(), SimError> {
    let (dr, ar) = (dst * n, a * n);
    if contig {
        let lo = mask[0];
        let hi = lo + mask.len();
        for l in lo..hi {
            let r = f(dec(ca.apply(bits[ar + l])))?;
            bits[dr + l] = enc(r);
        }
    } else {
        for &l in mask {
            let r = f(dec(ca.apply(bits[ar + l])))?;
            bits[dr + l] = enc(r);
        }
    }
    Ok(())
}

/// Typed `Bin`: the bit-level image of [`eval_bin`] with the type
/// dispatch and operand conversions hoisted out of the lane loop.
#[allow(clippy::too_many_arguments)]
fn bin_bits(
    op: BinOp,
    ty: Ty,
    bits: &mut [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    uniform: bool,
    dst: usize,
    a: usize,
    b: usize,
    ca: Conv,
    cb: Conv,
) -> Result<(), SimError> {
    macro_rules! go {
        ($dec:expr, $enc:expr, $f:expr) => {{
            if uniform {
                let l0 = mask[0];
                let r = $f(
                    $dec(ca.apply(bits[a * n + l0])),
                    $dec(cb.apply(bits[b * n + l0])),
                )?;
                fill(bits, n, mask, contig, dst, $enc(r));
                Ok(())
            } else {
                map2(bits, n, mask, contig, dst, a, b, ca, cb, $dec, $enc, $f)
            }
        }};
    }
    macro_rules! int_ops {
        ($dec:expr, $enc:expr, $t:ty) => {
            match op {
                BinOp::Add => go!($dec, $enc, |x: $t, y: $t| Ok(x.wrapping_add(y))),
                BinOp::Sub => go!($dec, $enc, |x: $t, y: $t| Ok(x.wrapping_sub(y))),
                BinOp::Mul => go!($dec, $enc, |x: $t, y: $t| Ok(x.wrapping_mul(y))),
                BinOp::Div => go!($dec, $enc, |x: $t, y: $t| if y == 0 {
                    Err(SimError::DivisionByZero)
                } else {
                    Ok(x.wrapping_div(y))
                }),
                BinOp::Rem => go!($dec, $enc, |x: $t, y: $t| if y == 0 {
                    Err(SimError::DivisionByZero)
                } else {
                    Ok(x.wrapping_rem(y))
                }),
                BinOp::Min => go!($dec, $enc, |x: $t, y: $t| Ok(x.min(y))),
                BinOp::Max => go!($dec, $enc, |x: $t, y: $t| Ok(x.max(y))),
                BinOp::And => go!($dec, $enc, |x: $t, y: $t| Ok(x & y)),
                BinOp::Or => go!($dec, $enc, |x: $t, y: $t| Ok(x | y)),
                BinOp::Xor => go!($dec, $enc, |x: $t, y: $t| Ok(x ^ y)),
                BinOp::Shl => go!($dec, $enc, |x: $t, y: $t| Ok(x.wrapping_shl(y as u32))),
                BinOp::Shr => go!($dec, $enc, |x: $t, y: $t| Ok(x.wrapping_shr(y as u32))),
            }
        };
    }
    macro_rules! float_ops {
        ($dec:expr, $enc:expr, $t:ty) => {
            match op {
                BinOp::Add => go!($dec, $enc, |x: $t, y: $t| Ok(x + y)),
                BinOp::Sub => go!($dec, $enc, |x: $t, y: $t| Ok(x - y)),
                BinOp::Mul => go!($dec, $enc, |x: $t, y: $t| Ok(x * y)),
                BinOp::Div => go!($dec, $enc, |x: $t, y: $t| Ok(x / y)),
                BinOp::Rem => go!($dec, $enc, |x: $t, y: $t| Ok(x % y)),
                BinOp::Min => go!($dec, $enc, |x: $t, y: $t| Ok(x.min(y))),
                BinOp::Max => go!($dec, $enc, |x: $t, y: $t| Ok(x.max(y))),
                _ => Err(SimError::TypeError {
                    context: format!("bitwise {op} on float type {ty}"),
                }),
            }
        };
    }
    match ty {
        Ty::I32 => int_ops!(|b| b as u32 as i32, |r: i32| r as u32 as u64, i32),
        Ty::I64 => int_ops!(|b| b as i64, |r: i64| r as u64, i64),
        Ty::U64 => int_ops!(|b| b, |r: u64| r, u64),
        // Float encoders canonicalize NaN results, the bit-level image of
        // [`eval_bin`]'s canonicalization (see [`crate::types::canon_f32`]).
        Ty::F32 => {
            float_ops!(
                |b| f32::from_bits(b as u32),
                |r: f32| crate::types::canon_f32(r).to_bits() as u64,
                f32
            )
        }
        Ty::F64 => float_ops!(
            f64::from_bits,
            |r: f64| crate::types::canon_f64(r).to_bits(),
            f64
        ),
        Ty::Pred => match op {
            BinOp::And => go!(|b| b != 0, |r: bool| r as u64, |x, y| Ok(x && y)),
            BinOp::Or => go!(|b| b != 0, |r: bool| r as u64, |x, y| Ok(x || y)),
            BinOp::Xor => go!(|b| b != 0, |r: bool| r as u64, |x: bool, y: bool| Ok(x ^ y)),
            _ => Err(SimError::TypeError {
                context: format!("arithmetic {op} on predicate"),
            }),
        },
    }
}

/// Typed `Cmp`: the bit-level image of [`eval_cmp`] over pre-converted
/// operands (native float comparisons reproduce the `partial_cmp` table,
/// including `Ne` on NaN).
#[allow(clippy::too_many_arguments)]
fn cmp_bits(
    op: CmpOp,
    ty: Ty,
    bits: &mut [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    uniform: bool,
    dst: usize,
    a: usize,
    b: usize,
    ca: Conv,
    cb: Conv,
) {
    macro_rules! go {
        ($dec:expr, $f:expr) => {{
            let enc = |r: bool| r as u64;
            let r: Result<(), SimError> = if uniform {
                let l0 = mask[0];
                let v = $f(
                    $dec(ca.apply(bits[a * n + l0])),
                    $dec(cb.apply(bits[b * n + l0])),
                );
                fill(bits, n, mask, contig, dst, enc(v));
                Ok(())
            } else {
                map2(
                    bits,
                    n,
                    mask,
                    contig,
                    dst,
                    a,
                    b,
                    ca,
                    cb,
                    $dec,
                    enc,
                    |x, y| Ok($f(x, y)),
                )
            };
            let _ = r; // comparisons cannot fault
        }};
    }
    macro_rules! cmp_ops {
        ($dec:expr, $t:ty) => {
            match op {
                CmpOp::Eq => go!($dec, |x: $t, y: $t| x == y),
                CmpOp::Ne => go!($dec, |x: $t, y: $t| x != y),
                CmpOp::Lt => go!($dec, |x: $t, y: $t| x < y),
                CmpOp::Le => go!($dec, |x: $t, y: $t| x <= y),
                CmpOp::Gt => go!($dec, |x: $t, y: $t| x > y),
                CmpOp::Ge => go!($dec, |x: $t, y: $t| x >= y),
            }
        };
    }
    match ty {
        Ty::I32 => cmp_ops!(|b| b as u32 as i32, i32),
        Ty::I64 => cmp_ops!(|b| b as i64, i64),
        // `Pred` compares as 0/1 integers (`as_i64`), same order as bits.
        Ty::U64 | Ty::Pred => cmp_ops!(|b| b, u64),
        Ty::F32 => cmp_ops!(|b| f32::from_bits(b as u32), f32),
        Ty::F64 => cmp_ops!(f64::from_bits, f64),
    }
}

/// Typed `Un`: the bit-level image of [`eval_un`]. The `F32` arms
/// round-trip the converted operand through `f64` once more, because
/// `eval_un` extracts via `as_f64() as f32` after converting.
#[allow(clippy::too_many_arguments)]
fn un_bits(
    op: UnOp,
    ty: Ty,
    bits: &mut [u64],
    n: usize,
    mask: &[usize],
    contig: bool,
    uniform: bool,
    dst: usize,
    a: usize,
    ca: Conv,
) -> Result<(), SimError> {
    macro_rules! go {
        ($dec:expr, $enc:expr, $f:expr) => {{
            if uniform {
                let l0 = mask[0];
                let r = $f($dec(ca.apply(bits[a * n + l0])))?;
                fill(bits, n, mask, contig, dst, $enc(r));
                Ok(())
            } else {
                map1(bits, n, mask, contig, dst, a, ca, $dec, $enc, $f)
            }
        }};
    }
    let dec_i32 = |b: u64| b as u32 as i32;
    let enc_i32 = |r: i32| r as u32 as u64;
    let dec_i64 = |b: u64| b as i64;
    let enc_i64 = |r: i64| r as u64;
    let dec_f32 = |b: u64| (f32::from_bits(b as u32) as f64) as f32;
    // NaN-canonicalizing encoders, matching [`eval_un`]'s float results.
    let enc_f32 = |r: f32| crate::types::canon_f32(r).to_bits() as u64;
    let dec_f64 = f64::from_bits;
    let enc_f64 = |r: f64| crate::types::canon_f64(r).to_bits();
    match (op, ty) {
        (UnOp::Neg, Ty::I32) => go!(dec_i32, enc_i32, |x: i32| Ok(x.wrapping_neg())),
        (UnOp::Neg, Ty::I64) => go!(dec_i64, enc_i64, |x: i64| Ok(x.wrapping_neg())),
        (UnOp::Neg, Ty::F32) => go!(dec_f32, enc_f32, |x: f32| Ok(-x)),
        (UnOp::Neg, Ty::F64) => go!(dec_f64, enc_f64, |x: f64| Ok(-x)),
        (UnOp::Abs, Ty::I32) => go!(dec_i32, enc_i32, |x: i32| Ok(x.wrapping_abs())),
        (UnOp::Abs, Ty::I64) => go!(dec_i64, enc_i64, |x: i64| Ok(x.wrapping_abs())),
        (UnOp::Abs, Ty::F32) => go!(dec_f32, enc_f32, |x: f32| Ok(x.abs())),
        (UnOp::Abs, Ty::F64) => go!(dec_f64, enc_f64, |x: f64| Ok(x.abs())),
        (UnOp::Sqrt, Ty::F32) => go!(dec_f32, enc_f32, |x: f32| Ok(x.sqrt())),
        (UnOp::Sqrt, Ty::F64) => go!(dec_f64, enc_f64, |x: f64| Ok(x.sqrt())),
        (UnOp::Not, Ty::Pred) => go!(|b: u64| b != 0, |r: bool| r as u64, |x: bool| Ok(!x)),
        (UnOp::Not, Ty::I32) => go!(dec_i32, enc_i32, |x: i32| Ok(!x)),
        (UnOp::Not, Ty::I64) => go!(dec_i64, enc_i64, |x: i64| Ok(!x)),
        (op, ty) => Err(SimError::TypeError {
            context: format!("unary {op} at type {ty}"),
        }),
    }
}

#[inline(always)]
fn tmem_addr(bits: &[u64], n: usize, mem: &TMem, lane: usize) -> u64 {
    let base = mem.bc.apply(bits[mem.base * n + lane]);
    let idx = mem
        .index
        .map_or(0, |(r, c)| c.apply(bits[r * n + lane]) as i64);
    mref_addr(base, idx, mem.scale, mem.disp)
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
/// interpreter uses — barrier bookkeeping, watchdog, overlap folding,
/// traces, sanitizer shadows, and profiles are shared code, not
/// re-implementations.
pub(crate) fn run_block(tk: &TypedKernel, exec: &mut BlockExec) -> Result<(), AccessAbort> {
    let warp = exec.dev.warp_size as usize;
    let n = exec.threads.len();
    let num_warps = n.div_ceil(warp);
    let mut st = TypedState {
        bits: vec![0u64; (tk.ck.num_regs + tk.consts.len()) * n],
        n,
        mask: Vec::with_capacity(warp),
        contig: true,
        seg_buf: Vec::with_capacity(2 * warp),
        bank_counts: vec![0; exec.dev.shared_banks as usize],
        tmp: Vec::with_capacity(warp),
    };
    for (i, &c) in tk.consts.iter().enumerate() {
        let r = (tk.ck.num_regs + i) * n;
        st.bits[r..r + n].fill(c);
    }
    loop {
        for w in 0..num_warps {
            let lo = w * warp;
            let hi = ((w + 1) * warp).min(n);
            let warp_id = w as u32;
            loop {
                // Min leader among runnable lanes; the group is every
                // runnable lane resting there.
                let mut min_pc = usize::MAX;
                let mut runnable = 0usize;
                for l in lo..hi {
                    let t = &exec.threads[l];
                    if t.runnable() {
                        runnable += 1;
                        if t.pc < min_pc {
                            min_pc = t.pc;
                        }
                    }
                }
                if min_pc == usize::MAX {
                    break; // warp fully blocked or exited
                }
                st.mask.clear();
                for l in lo..hi {
                    let t = &exec.threads[l];
                    if t.runnable() && t.pc == min_pc {
                        st.mask.push(l);
                    }
                }
                st.contig = st.mask[st.mask.len() - 1] - st.mask[0] + 1 == st.mask.len();
                let whole = st.mask.len() == runnable;
                run_group_typed(tk, exec, &mut st, warp_id, min_pc, whole)?;
            }
        }
        if !exec.barrier_round()? {
            break;
        }
    }
    exec.finish_block(num_warps);
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
fn run_group_typed(
    tk: &TypedKernel,
    exec: &mut BlockExec,
    st: &mut TypedState,
    warp_id: u32,
    leader: usize,
    whole: bool,
) -> Result<(), AccessAbort> {
    let mut leader = leader;
    loop {
        let ri = tk.ck.run_of[leader];
        let run = tk.ck.runs[ri];
        debug_assert_eq!(run.start, leader, "groups rest only at leaders");
        let uniform = tk.ck.run_uniform[ri];
        let mut next = run.end;
        for pc in run.start..run.end {
            let flow = exec_top(tk, exec, st, warp_id, pc, uniform)?;
            exec.watchdog()?;
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
/// error points — is byte-for-byte the interpreter's `step`; only the
/// register representation differs.
fn exec_top(
    tk: &TypedKernel,
    exec: &mut BlockExec,
    st: &mut TypedState,
    warp_id: u32,
    pc: usize,
    uniform: bool,
) -> Result<TFlow, AccessAbort> {
    let mlen = st.mask.len();
    debug_assert!(mlen > 0);
    let recorded = match exec.trace.as_mut() {
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
    exec.stats.warp_insts += 1;
    exec.stats.lane_insts += mlen as u64;
    let mut d = PcCounters {
        warp_insts: 1,
        lane_insts: mlen as u64,
        issue_cycles: exec.cost.issue,
        ..PcCounters::default()
    };
    let n = st.n;
    let l0 = st.mask[0];
    let mut flow = TFlow::Next;
    match &tk.tops[pc] {
        TOp::Broadcast { dst, bits } => {
            fill(&mut st.bits, n, &st.mask, st.contig, *dst, *bits);
            d.alu_cycles = exec.cost.alu;
        }
        TOp::BadParams => {
            return Err(SimError::BadParams {
                expected: exec.kernel.num_params,
                got: exec.params.len() as u32,
            }
            .into());
        }
        TOp::ReadSpecial { dst, sr } => {
            if uniform {
                let v = value_bits(exec.special(l0, *sr));
                fill(&mut st.bits, n, &st.mask, st.contig, *dst, v);
            } else {
                let dr = dst * n;
                for &l in &st.mask {
                    let v = value_bits(exec.special(l, *sr));
                    st.bits[dr + l] = v;
                }
            }
            d.alu_cycles = exec.cost.alu;
        }
        TOp::Bin {
            op,
            ty,
            dst,
            a,
            b,
            ca,
            cb,
            sfu,
        } => {
            bin_bits(
                *op,
                *ty,
                &mut st.bits,
                n,
                &st.mask,
                st.contig,
                uniform,
                *dst,
                *a,
                *b,
                *ca,
                *cb,
            )?;
            d.alu_cycles = alu_cost(exec.cost, *ty, *sfu);
        }
        TOp::Cmp {
            op,
            ty,
            dst,
            a,
            b,
            ca,
            cb,
        } => {
            cmp_bits(
                *op,
                *ty,
                &mut st.bits,
                n,
                &st.mask,
                st.contig,
                uniform,
                *dst,
                *a,
                *b,
                *ca,
                *cb,
            );
            d.alu_cycles = alu_cost(exec.cost, *ty, false);
        }
        TOp::Un {
            op,
            ty,
            dst,
            a,
            ca,
            sfu,
        } => {
            un_bits(
                *op,
                *ty,
                &mut st.bits,
                n,
                &st.mask,
                st.contig,
                uniform,
                *dst,
                *a,
                *ca,
            )?;
            d.alu_cycles = alu_cost(exec.cost, *ty, *sfu);
        }
        TOp::Select {
            dst,
            cond,
            kind,
            a,
            b,
        } => {
            let (dr, cr, ar, br) = (dst * n, cond * n, a * n, b * n);
            if uniform {
                let src = if cond_true(*kind, st.bits[cr + l0]) {
                    ar
                } else {
                    br
                };
                let v = st.bits[src + l0];
                fill(&mut st.bits, n, &st.mask, st.contig, *dst, v);
            } else if st.contig {
                let lo = l0;
                let hi = lo + mlen;
                for l in lo..hi {
                    let src = if cond_true(*kind, st.bits[cr + l]) {
                        ar
                    } else {
                        br
                    };
                    st.bits[dr + l] = st.bits[src + l];
                }
            } else {
                for &l in &st.mask {
                    let src = if cond_true(*kind, st.bits[cr + l]) {
                        ar
                    } else {
                        br
                    };
                    st.bits[dr + l] = st.bits[src + l];
                }
            }
            d.alu_cycles = exec.cost.alu;
        }
        TOp::Cvt { dst, src, cv } => {
            let (dr, sr) = (dst * n, src * n);
            if uniform {
                let v = cv.apply(st.bits[sr + l0]);
                fill(&mut st.bits, n, &st.mask, st.contig, *dst, v);
            } else if st.contig {
                if *cv == Conv::Id {
                    st.bits.copy_within(sr + l0..sr + l0 + mlen, dr + l0);
                } else {
                    for l in l0..l0 + mlen {
                        st.bits[dr + l] = cv.apply(st.bits[sr + l]);
                    }
                }
            } else {
                for &l in &st.mask {
                    st.bits[dr + l] = cv.apply(st.bits[sr + l]);
                }
            }
            d.alu_cycles = exec.cost.alu;
        }
        TOp::LdGlobal { ty, dst, mem } => {
            let dr = dst * n;
            if uniform {
                let a = tmem_addr(&st.bits, n, mem, l0);
                let tx = transactions(&[(a, mem.size)], exec.dev.segment_bytes, &mut st.seg_buf);
                charge_global(exec, &mut d, tx);
                let v = exec.view.read_bits(*ty, a)?;
                fill(&mut st.bits, n, &st.mask, st.contig, *dst, v);
                observe_mem_uniform(
                    exec,
                    TraceSpace::Global,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Read,
                    recorded,
                    a,
                    mem.size,
                );
            } else {
                exec.scratch_addr.clear();
                for &l in &st.mask {
                    exec.scratch_addr
                        .push((tmem_addr(&st.bits, n, mem, l), mem.size));
                }
                let tx = transactions(&exec.scratch_addr, exec.dev.segment_bytes, &mut st.seg_buf);
                charge_global(exec, &mut d, tx);
                let done = st.contig && coalesced(&exec.scratch_addr, mem.size) && {
                    let a0 = exec.scratch_addr[0].0;
                    exec.view
                        .read_span_bits(*ty, a0, &mut st.bits[dr + l0..dr + l0 + mlen])
                };
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        st.bits[dr + l] = exec.view.read_bits(*ty, exec.scratch_addr[i].0)?;
                    }
                }
                exec.observe_mem(
                    TraceSpace::Global,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Read,
                    recorded,
                );
            }
        }
        TOp::StGlobal { ty, src, sc, mem } => {
            let sr = src * n;
            if uniform {
                let a = tmem_addr(&st.bits, n, mem, l0);
                let tx = transactions(&[(a, mem.size)], exec.dev.segment_bytes, &mut st.seg_buf);
                charge_global(exec, &mut d, tx);
                exec.view.write_bits(*ty, a, sc.apply(st.bits[sr + l0]))?;
                observe_mem_uniform(
                    exec,
                    TraceSpace::Global,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Write,
                    recorded,
                    a,
                    mem.size,
                );
            } else {
                exec.scratch_addr.clear();
                for &l in &st.mask {
                    exec.scratch_addr
                        .push((tmem_addr(&st.bits, n, mem, l), mem.size));
                }
                let tx = transactions(&exec.scratch_addr, exec.dev.segment_bytes, &mut st.seg_buf);
                charge_global(exec, &mut d, tx);
                let done = st.contig && coalesced(&exec.scratch_addr, mem.size) && {
                    let a0 = exec.scratch_addr[0].0;
                    let row = &st.bits[sr + l0..sr + l0 + mlen];
                    if *sc == Conv::Id {
                        exec.view.write_span_bits(*ty, a0, row)
                    } else {
                        st.tmp.clear();
                        st.tmp.extend(row.iter().map(|&b| sc.apply(b)));
                        exec.view.write_span_bits(*ty, a0, &st.tmp)
                    }
                };
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        exec.view.write_bits(
                            *ty,
                            exec.scratch_addr[i].0,
                            sc.apply(st.bits[sr + l]),
                        )?;
                    }
                }
                exec.observe_mem(
                    TraceSpace::Global,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Write,
                    recorded,
                );
            }
        }
        TOp::LdShared { ty, dst, mem } => {
            let dr = dst * n;
            if uniform {
                let a = tmem_addr(&st.bits, n, mem, l0);
                let ways = conflict_ways(
                    &[(a, mem.size)],
                    exec.dev.shared_banks,
                    &mut st.seg_buf,
                    &mut st.bank_counts,
                );
                charge_shared(exec, &mut d, ways);
                observe_mem_uniform(
                    exec,
                    TraceSpace::Shared,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Read,
                    recorded,
                    a,
                    mem.size,
                );
                let v = exec.shared.read_bits(*ty, a)?;
                fill(&mut st.bits, n, &st.mask, st.contig, *dst, v);
            } else {
                exec.scratch_addr.clear();
                for &l in &st.mask {
                    exec.scratch_addr
                        .push((tmem_addr(&st.bits, n, mem, l), mem.size));
                }
                let ways = conflict_ways(
                    &exec.scratch_addr,
                    exec.dev.shared_banks,
                    &mut st.seg_buf,
                    &mut st.bank_counts,
                );
                charge_shared(exec, &mut d, ways);
                exec.observe_mem(
                    TraceSpace::Shared,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Read,
                    recorded,
                );
                let done = st.contig && coalesced(&exec.scratch_addr, mem.size) && {
                    let a0 = exec.scratch_addr[0].0;
                    exec.shared
                        .read_span_bits(*ty, a0, &mut st.bits[dr + l0..dr + l0 + mlen])
                };
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        st.bits[dr + l] = exec.shared.read_bits(*ty, exec.scratch_addr[i].0)?;
                    }
                }
            }
        }
        TOp::StShared { ty, src, sc, mem } => {
            let sr = src * n;
            if uniform {
                let a = tmem_addr(&st.bits, n, mem, l0);
                let ways = conflict_ways(
                    &[(a, mem.size)],
                    exec.dev.shared_banks,
                    &mut st.seg_buf,
                    &mut st.bank_counts,
                );
                charge_shared(exec, &mut d, ways);
                exec.shared.write_bits(*ty, a, sc.apply(st.bits[sr + l0]))?;
                observe_mem_uniform(
                    exec,
                    TraceSpace::Shared,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Write,
                    recorded,
                    a,
                    mem.size,
                );
            } else {
                exec.scratch_addr.clear();
                for &l in &st.mask {
                    exec.scratch_addr
                        .push((tmem_addr(&st.bits, n, mem, l), mem.size));
                }
                let ways = conflict_ways(
                    &exec.scratch_addr,
                    exec.dev.shared_banks,
                    &mut st.seg_buf,
                    &mut st.bank_counts,
                );
                charge_shared(exec, &mut d, ways);
                let done = st.contig && coalesced(&exec.scratch_addr, mem.size) && {
                    let a0 = exec.scratch_addr[0].0;
                    let row = &st.bits[sr + l0..sr + l0 + mlen];
                    if *sc == Conv::Id {
                        exec.shared.write_span_bits(*ty, a0, row)
                    } else {
                        st.tmp.clear();
                        st.tmp.extend(row.iter().map(|&b| sc.apply(b)));
                        exec.shared.write_span_bits(*ty, a0, &st.tmp)
                    }
                };
                if !done {
                    for (i, &l) in st.mask.iter().enumerate() {
                        exec.shared.write_bits(
                            *ty,
                            exec.scratch_addr[i].0,
                            sc.apply(st.bits[sr + l]),
                        )?;
                    }
                }
                exec.observe_mem(
                    TraceSpace::Shared,
                    &st.mask,
                    warp_id,
                    pc,
                    AccessKind::Write,
                    recorded,
                );
            }
        }
        TOp::AtomGlobal {
            op,
            ty,
            mem,
            src,
            sc,
            dst,
        } => {
            let sr = src * n;
            exec.stats.atomics += 1;
            exec.stats.global_accesses += 1;
            d.atomics = 1;
            d.global_accesses = 1;
            d.global_transactions = mlen as u64;
            d.atomic_cycles = mlen as u64 * exec.cost.atomic_lane;
            exec.scratch_addr.clear();
            for &l in &st.mask {
                exec.scratch_addr
                    .push((tmem_addr(&st.bits, n, mem, l), mem.size));
            }
            exec.observe_mem(
                TraceSpace::Global,
                &st.mask,
                warp_id,
                pc,
                AccessKind::Atomic,
                recorded,
            );
            if dst.is_some() && matches!(exec.view, MemView::Overlay(_)) {
                return Err(AccessAbort::NeedsSequential("atomic with a result operand"));
            }
            for (i, &l) in st.mask.iter().enumerate() {
                let addr = exec.scratch_addr[i].0;
                let v = bits_value(*ty, sc.apply(st.bits[sr + l]));
                if let Some(old) = exec.view.atom(*op, *ty, addr, v)? {
                    if let Some(dr) = dst {
                        st.bits[dr * n + l] = value_bits(old);
                    }
                }
            }
            exec.stats.global_transactions += mlen as u64;
        }
        TOp::Bar => {
            exec.stats.barriers += 1;
            d.barriers = 1;
            d.barrier_cycles = exec.cost.barrier;
            for &l in &st.mask {
                exec.threads[l].at_barrier = true;
                exec.threads[l].pc = pc + 1;
            }
            flow = TFlow::Stop;
        }
        TOp::Bra { target, cond } => {
            flow = match cond {
                None => TFlow::Goto(*target),
                Some((r, kind, expect)) => {
                    let cr = r * n;
                    let take0 = cond_true(*kind, st.bits[cr + l0]) == *expect;
                    let together = uniform
                        || st
                            .mask
                            .iter()
                            .all(|&l| (cond_true(*kind, st.bits[cr + l]) == *expect) == take0);
                    if together {
                        TFlow::Goto(if take0 { *target } else { pc + 1 })
                    } else {
                        for &l in &st.mask {
                            let take = cond_true(*kind, st.bits[cr + l]) == *expect;
                            exec.threads[l].pc = if take { *target } else { pc + 1 };
                        }
                        TFlow::Stop
                    }
                }
            };
            d.alu_cycles = exec.cost.alu;
        }
        TOp::Ret => {
            for &l in &st.mask {
                exec.threads[l].exited = true;
            }
            flow = TFlow::Stop;
        }
    }
    exec.cycles_raw += d.cycles();
    if let Some(p) = exec.prof.as_mut() {
        p.record(pc, warp_id, &d);
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::coalesce;
    use crate::exec::{eval_bin, eval_cmp, eval_un};

    /// A kernel with uniform and divergent runs, a loop, and a barrier:
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
                    !matches!(k.insts[pc], Inst::Bar | Inst::Bra { .. } | Inst::Ret),
                    "terminator mid-run at pc {pc}"
                );
            }
        }
        assert_eq!(covered, k.insts.len());
    }

    #[test]
    fn uniformity_analysis_classifies_registers() {
        let k = shaped_kernel();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        // %r0 = param (uniform), %r1 = tid.x (divergent), %r2 = cvt(tid)
        // (divergent), %r3 = loop counter from constants under uniform
        // control (uniform), %r4 = loop-exit predicate (uniform),
        // %r5 = tid + s (divergent).
        assert!(ck.uniform_regs[0], "param must be uniform");
        assert!(!ck.uniform_regs[1], "tid.x must be divergent");
        assert!(!ck.uniform_regs[2], "cvt(tid) must be divergent");
        assert!(ck.uniform_regs[3], "uniform-loop counter must be uniform");
        assert!(ck.uniform_regs[4], "loop predicate must be uniform");
        assert!(!ck.uniform_regs[5], "tid + s must be divergent");
        // The loop header/body runs are uniform; the tid-indexed store
        // runs are not.
        let pretty = ck.describe();
        assert!(pretty.contains("uniform"), "{pretty}");
        assert!(pretty.contains("per-lane"), "{pretty}");
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
  run 0: pc 0..4 per-lane [bra.cond -> 6 | 4]
  run 1: pc 4..6 per-lane [fallthrough -> 6]
  run 2: pc 6..7 uniform [ret]
  uniform regs: %r0
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
        assert!(CompiledKernel::compile(&k).is_none());
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
        assert!(CompiledKernel::compile(&k).is_none());
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
        assert!(CompiledKernel::compile(&k).is_none());
    }

    /// The allocation-free coalescing twins agree with the reference
    /// implementations on representative and adversarial patterns.
    #[test]
    fn coalescing_twins_match_reference() {
        let patterns: Vec<Vec<(u64, usize)>> = vec![
            (0..32).map(|i| (i * 4, 4)).collect(),
            (0..32).map(|i| (i * 128, 4)).collect(),
            (0..32).map(|i| (64 + i * 4, 4)).collect(),
            (0..32).map(|i| (i * 8, 8)).collect(),
            std::iter::repeat_n((16, 4), 32).collect(),
            (0..32).map(|i| (i * 32 * 4, 4)).collect(),
            (0..32).map(|i| (i * 2 * 4, 4)).collect(),
            vec![(126, 4)],
            vec![(100, 0), (0, 4)],
            vec![(u64::MAX - 1, 4), (u64::MAX, 8)],
            vec![],
            // Descending and shuffled sequences: the monotonic fast path
            // must bail to the sort-and-dedup slow path, not miscount.
            (0..32).rev().map(|i| (i * 4, 4)).collect(),
            (0..32).rev().map(|i| (i * 128, 4)).collect(),
            (0..32).map(|i| ((i * 7 % 32) * 4, 4)).collect(),
            // Re-descending after an ascending prefix, with duplicates.
            vec![(0, 4), (4, 4), (4, 4), (0, 4), (512, 4), (8, 4)],
            // Ranges that restart below the running maximum but above an
            // earlier start (partial overlap with seen words/segments).
            vec![(0, 4), (640, 4), (256, 4), (384, 4)],
        ];
        let mut buf = Vec::new();
        let mut counts = vec![0u32; 32];
        for p in &patterns {
            assert_eq!(
                transactions(p, 128, &mut buf),
                coalesce::global_transactions(p, 128),
                "tx mismatch for {p:?}"
            );
            assert_eq!(
                conflict_ways(p, 32, &mut buf, &mut counts),
                coalesce::bank_conflict_degree(p, 32),
                "ways mismatch for {p:?}"
            );
        }
    }

    #[test]
    fn typed_plan_builds_for_single_typed_kernels() {
        let k = shaped_kernel();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        assert!(
            ck.specialize(&k, &[Value::U64(0x1000)]).is_some(),
            "single-typed kernel should get a typed plan"
        );
    }

    #[test]
    fn typed_plan_rejects_mixed_type_register_reuse() {
        let mut b = KernelBuilder::new("mixed");
        let r = b.mov_imm(Value::I32(1));
        b.bin_to(r, BinOp::Add, Ty::F32, r, Value::F32(1.0));
        let k = b.finish();
        let ck = CompiledKernel::compile(&k).expect("compiles");
        assert!(
            ck.specialize(&k, &[]).is_none(),
            "a register written at two types must decline to the interpreter"
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

    /// The three ways an ALU op walks its lanes: one-lane-and-broadcast,
    /// contiguous range, scattered mask. `(contig, uniform)`.
    const MODES: [(bool, bool); 3] = [(true, true), (true, false), (false, false)];
    const POISON: u64 = 0xdead_beef_dead_beef;

    /// The typed ALU tables are written separately from the interpreter's
    /// (`eval_bin`/`eval_cmp`/`eval_un`) and must equal them bit-for-bit on
    /// every `(op, ty)` and every operand type — results, result types, and
    /// the `Err` values (`DivisionByZero`, `TypeError` and its message).
    #[test]
    fn alu_tables_match_the_interpreter_exhaustively() {
        let edges = edge_values();
        for ty in TYS {
            for &a in &edges {
                let ca = conv_for(a.ty(), ty);
                for op in UN_OPS {
                    let want = eval_un(op, ty, a).map(|v| {
                        assert_eq!(v.ty(), ty, "{op} {ty} {a:?}");
                        value_bits(v)
                    });
                    for (contig, uniform) in MODES {
                        let mut bits = [value_bits(a), POISON];
                        let got = un_bits(op, ty, &mut bits, 1, &[0], contig, uniform, 1, 0, ca)
                            .map(|()| bits[1]);
                        assert_eq!(
                            got, want,
                            "{op} {ty} {a:?} contig={contig} uniform={uniform}"
                        );
                    }
                }
                for &b in &edges {
                    let cb = conv_for(b.ty(), ty);
                    let at = |what: &dyn std::fmt::Display, contig: bool, uniform: bool| {
                        format!("{what} {ty} {a:?} {b:?} contig={contig} uniform={uniform}")
                    };
                    for op in BIN_OPS {
                        let want = eval_bin(op, ty, a, b).map(|v| {
                            assert_eq!(v.ty(), ty, "{op} {ty} {a:?} {b:?}");
                            value_bits(v)
                        });
                        for (contig, uniform) in MODES {
                            let mut bits = [value_bits(a), value_bits(b), POISON];
                            let got = bin_bits(
                                op,
                                ty,
                                &mut bits,
                                1,
                                &[0],
                                contig,
                                uniform,
                                2,
                                0,
                                1,
                                ca,
                                cb,
                            )
                            .map(|()| bits[2]);
                            assert_eq!(got, want, "{}", at(&op, contig, uniform));
                        }
                    }
                    for op in CMP_OPS {
                        let want = eval_cmp(op, ty, a.convert(ty), b.convert(ty)) as u64;
                        for (contig, uniform) in MODES {
                            let mut bits = [value_bits(a), value_bits(b), POISON];
                            cmp_bits(op, ty, &mut bits, 1, &[0], contig, uniform, 2, 0, 1, ca, cb);
                            assert_eq!(bits[2], want, "{}", at(&op, contig, uniform));
                        }
                    }
                }
            }
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
    }
}
