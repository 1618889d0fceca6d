//! The kernel intermediate representation executed by the simulator.
//!
//! The IR is a flat, PTX-like instruction list with labels resolved to
//! instruction indices. Each thread owns a register file of [`Value`]s;
//! instructions are typed. Control flow uses conditional/unconditional
//! branches; the interpreter provides SIMT divergence semantics on top
//! (see [`crate::exec`]).
//!
//! # Instruction facts
//!
//! This module is the one place that says what an instruction *is*, as
//! wildcard-free accessors on [`Inst`]: the register it defines
//! ([`Inst::def`]) and at which type ([`Inst::def_ty`]), the registers it
//! reads ([`Inst::for_each_use`]), the memory it touches
//! ([`Inst::access`]), where control goes next ([`Inst::flow`]) and what
//! the cycle model charges it ([`Inst::cost`]). Every pass that needs one
//! of these facts — kverify, the typed tier's type inference and run
//! splitting, the profiler's buckets, the parallel executor's prescan —
//! reads it here; only the three engines (the interpreter's `step`, the
//! typed tier's lowering, redcert's symbolic executor) give an
//! instruction its meaning, each in its own wildcard-free match.
//! [`Kernel::runs`] is the one run-splitting rule the typed tier and
//! kverify share.

use crate::types::{Ty, Value};
use std::fmt;
use std::ops::Range;

/// A virtual register index into a thread's register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// An instruction operand: either a register or an immediate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    Reg(Reg),
    Imm(Value),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Special (read-only) hardware registers, as in CUDA/PTX.
///
/// These are the CUDA builtins of the paper's Table 1: `threadIdx`,
/// `blockDim`, `blockIdx`, `gridDim` (plus Y/Z where defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `threadIdx.x`
    TidX,
    /// `threadIdx.y`
    TidY,
    /// `threadIdx.z`
    TidZ,
    /// `blockDim.x`
    NTidX,
    /// `blockDim.y`
    NTidY,
    /// `blockDim.z`
    NTidZ,
    /// `blockIdx.x`
    CtaIdX,
    /// `blockIdx.y`
    CtaIdY,
    /// `gridDim.x`
    NCtaIdX,
    /// `gridDim.y`
    NCtaIdY,
    /// Linear thread id within the block: `threadIdx.y * blockDim.x + threadIdx.x`.
    LaneLinear,
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::TidZ => "%tid.z",
            SpecialReg::NTidX => "%ntid.x",
            SpecialReg::NTidY => "%ntid.y",
            SpecialReg::NTidZ => "%ntid.z",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::CtaIdY => "%ctaid.y",
            SpecialReg::NCtaIdX => "%nctaid.x",
            SpecialReg::NCtaIdY => "%nctaid.y",
            SpecialReg::LaneLinear => "%linear",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic/logical operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Comparison operations producing predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Unary math operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value (`fabs`/`abs`).
    Abs,
    /// Square root (float types only).
    Sqrt,
    /// Logical not (predicates) / bitwise not (integers).
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
            UnOp::Not => "not",
        };
        f.write_str(s)
    }
}

/// A memory reference: `base + index * scale + disp`, all in bytes.
///
/// For global accesses `base` evaluates to a device byte address (usually a
/// kernel parameter); for shared accesses it is a byte offset into the
/// block's shared memory window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRef {
    pub base: Operand,
    /// Optional integer index register (interpreted as i64).
    pub index: Option<Reg>,
    /// Byte scale applied to `index` (element size, typically).
    pub scale: u64,
    /// Constant byte displacement.
    pub disp: i64,
}

impl MemRef {
    /// A reference at exactly the address/offset in `base`.
    pub fn direct(base: impl Into<Operand>) -> Self {
        MemRef {
            base: base.into(),
            index: None,
            scale: 1,
            disp: 0,
        }
    }

    /// `base + index * scale` (the common array-element form).
    pub fn indexed(base: impl Into<Operand>, index: Reg, scale: u64) -> Self {
        MemRef {
            base: base.into(),
            index: Some(index),
            scale,
            disp: 0,
        }
    }

    /// Add a constant byte displacement.
    pub fn with_disp(mut self, disp: i64) -> Self {
        self.disp = disp;
        self
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.base)?;
        if let Some(idx) = self.index {
            write!(f, " + {idx}*{}", self.scale)?;
        }
        if self.disp != 0 {
            write!(f, " + {}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// Atomic read-modify-write operations on global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    Add,
    Min,
    Max,
    And,
    Or,
    Xor,
    Exch,
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::And => "and",
            AtomOp::Or => "or",
            AtomOp::Xor => "xor",
            AtomOp::Exch => "exch",
        };
        f.write_str(s)
    }
}

/// A branch target label, resolved to an instruction index at finalize time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Which memory an access addresses. Traces, hazard reports and the
/// cycle model all speak of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    Shared,
    Global,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Space::Shared => "shared",
            Space::Global => "global",
        })
    }
}

/// What an access does to the bytes it addresses. Renders as the
/// sanitizer's verb (`read`, `write`, `atomic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Atomic,
}

impl AccessKind {
    /// Does this access modify memory?
    pub fn writes(&self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// The memory access of one instruction ([`Inst::access`]): every active
/// lane touches `ty.size()` bytes at `mref` in `space`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    pub space: Space,
    pub kind: AccessKind,
    pub ty: Ty,
    pub mref: MemRef,
}

/// Where a lane goes after an instruction ([`Inst::flow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// On to the next instruction.
    Next,
    /// The block-wide barrier: the lane waits there, then resumes at the
    /// next instruction.
    Sync,
    /// To `target` — unconditionally, or when the predicate register
    /// equals the expected value; otherwise on to the next instruction.
    Branch {
        target: Label,
        cond: Option<(Reg, bool)>,
    },
    /// The lane exits.
    Exit,
}

impl Flow {
    /// Does a run ([`Kernel::runs`]) end at this instruction? Everything
    /// but [`Flow::Next`] moves the lane somewhere other than the next
    /// instruction, or parks it there.
    pub fn ends_run(&self) -> bool {
        !matches!(self, Flow::Next)
    }

    /// Can a lane go on to the next instruction from here?
    pub fn falls_through(&self) -> bool {
        match self {
            Flow::Next | Flow::Sync => true,
            Flow::Branch { cond, .. } => cond.is_some(),
            Flow::Exit => false,
        }
    }
}

/// What the cycle model charges one warp-instruction on top of its issue
/// cycle ([`Inst::cost`]; the cycles are [`crate::CostModel::alu_cycles`]
/// and the executors' shared charge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// The flat ALU cycles, plus the FP64 surcharge when `ty` is `F64` and
    /// the special-function surcharge when `sfu`. Moves, reads, selects,
    /// conversions and branches carry no `ty`: no type surcharges them.
    Alu { ty: Option<Ty>, sfu: bool },
    /// A load or store: per transaction (global) or per bank way (shared).
    Memory(Space),
    /// A global atomic: per active lane.
    Atomic,
    /// The block-wide barrier.
    Barrier,
    /// Nothing but the issue cycle.
    Free,
}

/// A single IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm`
    MovImm { dst: Reg, value: Value },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = special_register` (as `I32`, except addresses).
    ReadSpecial { dst: Reg, sr: SpecialReg },
    /// `dst = param[idx]` — read a kernel launch parameter.
    ReadParam { dst: Reg, idx: u32 },
    /// `dst = a <op> b` at type `ty` (operands converted to `ty` first).
    Bin {
        op: BinOp,
        ty: Ty,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = a <cmp> b` at type `ty`, producing a predicate.
    Cmp {
        op: CmpOp,
        ty: Ty,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = <op> a` at type `ty`.
    Un {
        op: UnOp,
        ty: Ty,
        dst: Reg,
        a: Operand,
    },
    /// `dst = cond ? a : b`
    Select {
        dst: Reg,
        cond: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = convert(src, ty)`
    Cvt { dst: Reg, ty: Ty, src: Operand },
    /// Load `ty` from global memory.
    LdGlobal { ty: Ty, dst: Reg, mref: MemRef },
    /// Store `ty` to global memory.
    StGlobal { ty: Ty, src: Operand, mref: MemRef },
    /// Load `ty` from the block's shared memory.
    LdShared { ty: Ty, dst: Reg, mref: MemRef },
    /// Store `ty` to the block's shared memory.
    StShared { ty: Ty, src: Operand, mref: MemRef },
    /// Atomic read-modify-write on global memory; optionally returns the old value.
    AtomGlobal {
        op: AtomOp,
        ty: Ty,
        mref: MemRef,
        src: Operand,
        dst: Option<Reg>,
    },
    /// Block-wide barrier (`__syncthreads()`).
    Bar,
    /// Branch to `target`; conditional if `cond` is set (branch taken when
    /// predicate equals `expect`).
    Bra {
        target: Label,
        cond: Option<(Reg, bool)>,
    },
    /// Thread exit.
    Ret,
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::MovImm { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::ReadSpecial { dst, .. }
            | Inst::ReadParam { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Cvt { dst, .. }
            | Inst::LdGlobal { dst, .. }
            | Inst::LdShared { dst, .. } => Some(*dst),
            Inst::AtomGlobal { dst, .. } => *dst,
            Inst::StGlobal { .. } | Inst::StShared { .. } | Inst::Bar | Inst::Bra { .. } => None,
            Inst::Ret => None,
        }
    }

    /// The type of the value [`Inst::def`] receives, when the instruction
    /// alone fixes it. `None` without a def, and for `Mov`, `Select` and
    /// `ReadParam`, whose value has the type of a register or of a launch
    /// parameter.
    pub fn def_ty(&self) -> Option<Ty> {
        match self {
            Inst::MovImm { value, .. } => Some(value.ty()),
            Inst::ReadSpecial { .. } => Some(Ty::I32),
            Inst::Cmp { .. } => Some(Ty::Pred),
            Inst::Bin { ty, .. }
            | Inst::Un { ty, .. }
            | Inst::Cvt { ty, .. }
            | Inst::LdGlobal { ty, .. }
            | Inst::LdShared { ty, .. } => Some(*ty),
            Inst::AtomGlobal { ty, dst, .. } => dst.map(|_| *ty),
            Inst::Mov { .. } | Inst::Select { .. } | Inst::ReadParam { .. } => None,
            Inst::StGlobal { .. } | Inst::StShared { .. } | Inst::Bar | Inst::Bra { .. } => None,
            Inst::Ret => None,
        }
    }

    /// The memory this instruction touches, if any.
    pub fn access(&self) -> Option<Access> {
        let (space, kind, ty, mref) = match self {
            Inst::LdGlobal { ty, mref, .. } => (Space::Global, AccessKind::Read, ty, mref),
            Inst::StGlobal { ty, mref, .. } => (Space::Global, AccessKind::Write, ty, mref),
            Inst::LdShared { ty, mref, .. } => (Space::Shared, AccessKind::Read, ty, mref),
            Inst::StShared { ty, mref, .. } => (Space::Shared, AccessKind::Write, ty, mref),
            Inst::AtomGlobal { ty, mref, .. } => (Space::Global, AccessKind::Atomic, ty, mref),
            Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::ReadSpecial { .. }
            | Inst::ReadParam { .. }
            | Inst::Bin { .. }
            | Inst::Cmp { .. }
            | Inst::Un { .. }
            | Inst::Select { .. }
            | Inst::Cvt { .. }
            | Inst::Bar
            | Inst::Bra { .. }
            | Inst::Ret => return None,
        };
        Some(Access {
            space,
            kind,
            ty: *ty,
            mref: *mref,
        })
    }

    /// Where a lane goes after this instruction.
    pub fn flow(&self) -> Flow {
        match self {
            Inst::Bar => Flow::Sync,
            Inst::Bra { target, cond } => Flow::Branch {
                target: *target,
                cond: *cond,
            },
            Inst::Ret => Flow::Exit,
            Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::ReadSpecial { .. }
            | Inst::ReadParam { .. }
            | Inst::Bin { .. }
            | Inst::Cmp { .. }
            | Inst::Un { .. }
            | Inst::Select { .. }
            | Inst::Cvt { .. }
            | Inst::LdGlobal { .. }
            | Inst::StGlobal { .. }
            | Inst::LdShared { .. }
            | Inst::StShared { .. }
            | Inst::AtomGlobal { .. } => Flow::Next,
        }
    }

    /// What the cycle model charges this instruction beyond its issue
    /// cycle. The one place division, remainder and square root are
    /// special-function ops.
    pub fn cost(&self) -> CostClass {
        let alu = |ty: Option<Ty>, sfu: bool| CostClass::Alu { ty, sfu };
        match self {
            Inst::Bin { op, ty, .. } => alu(Some(*ty), matches!(op, BinOp::Div | BinOp::Rem)),
            Inst::Un { op, ty, .. } => alu(Some(*ty), matches!(op, UnOp::Sqrt)),
            Inst::Cmp { ty, .. } => alu(Some(*ty), false),
            Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::ReadSpecial { .. }
            | Inst::ReadParam { .. }
            | Inst::Select { .. }
            | Inst::Cvt { .. }
            | Inst::Bra { .. } => alu(None, false),
            Inst::LdGlobal { .. } | Inst::StGlobal { .. } => CostClass::Memory(Space::Global),
            Inst::LdShared { .. } | Inst::StShared { .. } => CostClass::Memory(Space::Shared),
            Inst::AtomGlobal { .. } => CostClass::Atomic,
            Inst::Bar => CostClass::Barrier,
            Inst::Ret => CostClass::Free,
        }
    }

    /// Call `f` on every register this instruction *reads* (sources,
    /// predicates, and memory-reference base/index registers).
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        fn op(o: &Operand, f: &mut dyn FnMut(Reg)) {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        }
        fn mem(m: &MemRef, f: &mut dyn FnMut(Reg)) {
            if let Operand::Reg(r) = m.base {
                f(r);
            }
            if let Some(r) = m.index {
                f(r);
            }
        }
        match self {
            Inst::MovImm { .. } | Inst::ReadSpecial { .. } | Inst::ReadParam { .. } => {}
            Inst::Mov { src, .. } => f(*src),
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                op(a, &mut f);
                op(b, &mut f);
            }
            Inst::Un { a, .. } => op(a, &mut f),
            Inst::Select { cond, a, b, .. } => {
                f(*cond);
                op(a, &mut f);
                op(b, &mut f);
            }
            Inst::Cvt { src, .. } => op(src, &mut f),
            Inst::LdGlobal { mref, .. } | Inst::LdShared { mref, .. } => mem(mref, &mut f),
            Inst::StGlobal { src, mref, .. } | Inst::StShared { src, mref, .. } => {
                op(src, &mut f);
                mem(mref, &mut f);
            }
            Inst::AtomGlobal { mref, src, .. } => {
                op(src, &mut f);
                mem(mref, &mut f);
            }
            Inst::Bar | Inst::Ret => {}
            Inst::Bra { cond, .. } => {
                if let Some((r, _)) = cond {
                    f(*r);
                }
            }
        }
    }
}

/// A compiled kernel: a finalized instruction list plus launch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Human-readable kernel name (shows up in stats and errors).
    pub name: String,
    /// The instruction stream. Branch targets are instruction indices.
    pub insts: Vec<Inst>,
    /// Resolved label table: `label_targets[label.0]` = instruction index.
    pub label_targets: Vec<usize>,
    /// Number of virtual registers per thread.
    pub num_regs: u32,
    /// Bytes of shared memory required per block.
    pub shared_bytes: usize,
    /// Number of launch parameters expected.
    pub num_params: u32,
    /// Source line table: `lines[i]` is the 1-based source line that
    /// instruction `i` was generated from, `0` = unknown. Either empty
    /// (no line info at all) or exactly `insts.len()` long. The profiler
    /// uses it to roll per-PC costs up to OpenACC directive lines.
    pub lines: Vec<u32>,
}

impl Kernel {
    /// Resolve a label to its instruction index.
    ///
    /// # Panics
    /// Panics if the label was never placed (builder bug).
    pub fn target(&self, l: Label) -> usize {
        self.label_targets[l.0 as usize]
    }

    /// The kernel's runs — the basic blocks of the typed tier and of
    /// kverify — as `[start, end)` spans in pc order, plus the index of
    /// the run holding every pc. A run starts at 0, at every branch target
    /// inside the stream, and after every instruction whose [`Flow`] ends
    /// a run. So a barrier, a branch or an exit is always the last
    /// instruction of its run, and a lane only ever rests at a run's start.
    pub fn runs(&self) -> (Vec<Range<usize>>, Vec<usize>) {
        let n = self.insts.len();
        let mut starts_run = vec![false; n];
        for (pc, inst) in self.insts.iter().enumerate() {
            let flow = inst.flow();
            if let Flow::Branch { target, .. } = flow {
                let start = self.label_targets.get(target.0 as usize);
                if let Some(s) = start.and_then(|&t| starts_run.get_mut(t)) {
                    *s = true;
                }
            }
            if flow.ends_run() && pc + 1 < n {
                starts_run[pc + 1] = true;
            }
        }
        if let Some(first) = starts_run.first_mut() {
            *first = true;
        }
        let starts: Vec<usize> = (0..n).filter(|&pc| starts_run[pc]).collect();
        let spans: Vec<Range<usize>> = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| start..starts.get(i + 1).copied().unwrap_or(n))
            .collect();
        let mut run_of = vec![0; n];
        for (i, span) in spans.iter().enumerate() {
            run_of[span.clone()].fill(i);
        }
        (spans, run_of)
    }

    /// The 1-based source line instruction `pc` was generated from, or
    /// `None` when unknown (no line table, or line recorded as 0).
    pub fn line_of(&self, pc: usize) -> Option<u32> {
        match self.lines.get(pc) {
            Some(0) | None => None,
            Some(&l) => Some(l),
        }
    }

    /// Disassemble the kernel to a readable listing (for golden tests and
    /// debugging).
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            ".kernel {} (regs={}, shared={}B, params={})",
            self.name, self.num_regs, self.shared_bytes, self.num_params
        );
        // Invert label table for printing.
        let mut labels_at: Vec<Vec<usize>> = vec![Vec::new(); self.insts.len() + 1];
        for (li, &ti) in self.label_targets.iter().enumerate() {
            if ti <= self.insts.len() {
                labels_at[ti].push(li);
            }
        }
        // Current source line; `.loc N` directives are emitted on change
        // only, so a kernel without line info lists exactly as before.
        let mut cur_line = 0u32;
        for (i, inst) in self.insts.iter().enumerate() {
            for &l in &labels_at[i] {
                let _ = writeln!(out, "L{l}:");
            }
            let line = self.lines.get(i).copied().unwrap_or(0);
            if line != cur_line {
                let _ = writeln!(out, "  .loc {line}");
                cur_line = line;
            }
            let _ = writeln!(out, "  {:4}  {}", i, format_inst(inst));
        }
        for &l in &labels_at[self.insts.len()] {
            let _ = writeln!(out, "L{l}:");
        }
        out
    }
}

/// Render an immediate with its type made explicit in the spelling, so
/// the listing names one [`Value`]: `I32` is a bare
/// decimal, `I64` carries an `L` suffix, `U64` is hex, `F32` carries an
/// `f` suffix, `F64` always shows a `.`/exponent, predicates are
/// `true`/`false`.
pub fn format_imm(v: Value) -> String {
    match v {
        Value::I32(x) => format!("{x}"),
        Value::I64(x) => format!("{x}L"),
        Value::U64(x) => format!("{x:#x}"),
        Value::F32(x) => format!("{x:?}f"),
        Value::F64(x) => format!("{x:?}"),
        Value::Pred(x) => format!("{x}"),
    }
}

fn format_operand(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::Imm(v) => format_imm(*v),
    }
}

fn format_mref(m: &MemRef) -> String {
    let mut s = format!("[{}", format_operand(&m.base));
    if let Some(idx) = m.index {
        s.push_str(&format!(" + {idx}*{}", m.scale));
    }
    if m.disp != 0 {
        s.push_str(&format!(" + {}", m.disp));
    }
    s.push(']');
    s
}

/// Render one instruction as text (used by `disasm` and the tracer).
pub fn format_inst(inst: &Inst) -> String {
    let op_s = format_operand;
    let mref_s = format_mref;
    match inst {
        Inst::MovImm { dst, value } => format!("mov {dst}, {}", format_imm(*value)),
        Inst::Mov { dst, src } => format!("mov {dst}, {src}"),
        Inst::ReadSpecial { dst, sr } => format!("mov {dst}, {sr}"),
        Inst::ReadParam { dst, idx } => format!("ld.param {dst}, [{idx}]"),
        Inst::Bin { op, ty, dst, a, b } => {
            format!("{op}.{ty} {dst}, {}, {}", op_s(a), op_s(b))
        }
        Inst::Cmp { op, ty, dst, a, b } => {
            format!("setp.{op}.{ty} {dst}, {}, {}", op_s(a), op_s(b))
        }
        Inst::Un { op, ty, dst, a } => format!("{op}.{ty} {dst}, {}", op_s(a)),
        Inst::Select { dst, cond, a, b } => {
            format!("selp {dst}, {cond}, {}, {}", op_s(a), op_s(b))
        }
        Inst::Cvt { dst, ty, src } => format!("cvt.{ty} {dst}, {}", op_s(src)),
        Inst::LdGlobal { ty, dst, mref } => format!("ld.global.{ty} {dst}, {}", mref_s(mref)),
        Inst::StGlobal { ty, src, mref } => {
            format!("st.global.{ty} {}, {}", mref_s(mref), op_s(src))
        }
        Inst::LdShared { ty, dst, mref } => format!("ld.shared.{ty} {dst}, {}", mref_s(mref)),
        Inst::StShared { ty, src, mref } => {
            format!("st.shared.{ty} {}, {}", mref_s(mref), op_s(src))
        }
        Inst::AtomGlobal {
            op,
            ty,
            mref,
            src,
            dst,
        } => match dst {
            Some(d) => format!("atom.global.{op}.{ty} {d}, {}, {}", mref_s(mref), op_s(src)),
            None => format!("red.global.{op}.{ty} {}, {}", mref_s(mref), op_s(src)),
        },
        Inst::Bar => "bar.sync 0".to_string(),
        Inst::Bra { target, cond } => match cond {
            Some((r, true)) => format!("@{r} bra {target}"),
            Some((r, false)) => format!("@!{r} bra {target}"),
            None => format!("bra {target}"),
        },
        Inst::Ret => "ret".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_constructors() {
        let r = Reg(3);
        let m = MemRef::indexed(Reg(1), r, 4).with_disp(8);
        assert_eq!(m.index, Some(r));
        assert_eq!(m.scale, 4);
        assert_eq!(m.disp, 8);
        let d = MemRef::direct(Value::U64(16));
        assert_eq!(d.index, None);
        assert_eq!(d.scale, 1);
    }

    /// One instance of every `Inst` variant — an atomic with and without a
    /// result, a conditional and an unconditional branch — for the table
    /// tests. Global accesses address `%r9` (a buffer) plus `%r10 * 4`,
    /// shared ones `%r10 * 4`; no instruction defines `%r9` or `%r10`, and
    /// label 0 is the caller's to place.
    fn every_variant() -> Vec<Inst> {
        let g = MemRef::indexed(Reg(9), Reg(10), 4);
        let s = MemRef::indexed(Value::U64(0), Reg(10), 4);
        let all = vec![
            Inst::MovImm {
                dst: Reg(0),
                value: Value::I32(1),
            },
            Inst::Mov {
                dst: Reg(1),
                src: Reg(2),
            },
            Inst::ReadSpecial {
                dst: Reg(2),
                sr: SpecialReg::TidX,
            },
            Inst::ReadParam {
                dst: Reg(3),
                idx: 0,
            },
            Inst::Bin {
                op: BinOp::Div,
                ty: Ty::F64,
                dst: Reg(4),
                a: Reg(1).into(),
                b: Reg(2).into(),
            },
            Inst::Cmp {
                op: CmpOp::Lt,
                ty: Ty::F64,
                dst: Reg(5),
                a: Reg(1).into(),
                b: Reg(2).into(),
            },
            Inst::Un {
                op: UnOp::Sqrt,
                ty: Ty::F32,
                dst: Reg(6),
                a: Reg(1).into(),
            },
            Inst::Select {
                dst: Reg(7),
                cond: Reg(5),
                a: Reg(1).into(),
                b: Reg(2).into(),
            },
            Inst::Cvt {
                dst: Reg(8),
                ty: Ty::I64,
                src: Reg(1).into(),
            },
            Inst::LdGlobal {
                ty: Ty::I32,
                dst: Reg(11),
                mref: g,
            },
            Inst::StGlobal {
                ty: Ty::I32,
                src: Reg(11).into(),
                mref: g,
            },
            Inst::LdShared {
                ty: Ty::I32,
                dst: Reg(12),
                mref: s,
            },
            Inst::StShared {
                ty: Ty::I32,
                src: Reg(12).into(),
                mref: s,
            },
            Inst::AtomGlobal {
                op: AtomOp::Add,
                ty: Ty::I32,
                mref: g,
                src: Reg(1).into(),
                dst: Some(Reg(13)),
            },
            Inst::AtomGlobal {
                op: AtomOp::Add,
                ty: Ty::I32,
                mref: g,
                src: Reg(1).into(),
                dst: None,
            },
            Inst::Bar,
            Inst::Bra {
                target: Label(0),
                cond: Some((Reg(5), true)),
            },
            Inst::Bra {
                target: Label(0),
                cond: None,
            },
            Inst::Ret,
        ];
        // Wildcard-free: a new variant does not compile until it is
        // numbered here, and the fixture must then hold one.
        let variant = |i: &Inst| match i {
            Inst::MovImm { .. } => 0,
            Inst::Mov { .. } => 1,
            Inst::ReadSpecial { .. } => 2,
            Inst::ReadParam { .. } => 3,
            Inst::Bin { .. } => 4,
            Inst::Cmp { .. } => 5,
            Inst::Un { .. } => 6,
            Inst::Select { .. } => 7,
            Inst::Cvt { .. } => 8,
            Inst::LdGlobal { .. } => 9,
            Inst::StGlobal { .. } => 10,
            Inst::LdShared { .. } => 11,
            Inst::StShared { .. } => 12,
            Inst::AtomGlobal { .. } => 13,
            Inst::Bar => 14,
            Inst::Bra { .. } => 15,
            Inst::Ret => 16,
        };
        let mut seen = [false; 17];
        for i in &all {
            seen[variant(i)] = true;
        }
        assert!(seen.iter().all(|&s| s), "the fixture lacks a variant");
        all
    }

    /// The table's facts agree with each other on every variant.
    #[test]
    fn instruction_facts_agree() {
        for inst in every_variant() {
            let def = inst.def();
            // A def's type is fixed by the instruction, except where it is
            // a source's.
            let typed_by_source = matches!(
                inst,
                Inst::Mov { .. } | Inst::Select { .. } | Inst::ReadParam { .. }
            );
            assert_eq!(
                inst.def_ty().is_some(),
                def.is_some() && !typed_by_source,
                "def_ty of {inst:?}"
            );
            match (inst.access(), inst.cost()) {
                (Some(a), CostClass::Memory(space)) => {
                    assert_eq!(a.space, space, "{inst:?}");
                    assert_ne!(a.kind, AccessKind::Atomic, "{inst:?}");
                }
                (Some(a), CostClass::Atomic) => assert_eq!(a.kind, AccessKind::Atomic),
                (None, CostClass::Alu { .. } | CostClass::Barrier | CostClass::Free) => {}
                (access, cost) => panic!("{inst:?}: access {access:?} under cost {cost:?}"),
            }
            assert_eq!(
                inst.flow().ends_run(),
                matches!(inst, Inst::Bar | Inst::Bra { .. } | Inst::Ret),
                "{inst:?}"
            );
            if let Some(d) = def {
                inst.for_each_use(|u| assert_ne!(u, d, "def reported as use for {inst:?}"));
            }
        }
        // Stores read their source and both memref regs, in that order.
        let st = Inst::StGlobal {
            ty: Ty::I32,
            src: Reg(12).into(),
            mref: MemRef::indexed(Reg(9), Reg(10), 4),
        };
        let mut uses = Vec::new();
        st.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(12), Reg(9), Reg(10)]);
    }

    /// Each variant, run between the parameter read its addresses need and
    /// a `ret` by one warp, puts into the profiler's buckets exactly what
    /// its cost class predicts — on both engines.
    #[test]
    fn cost_classes_predict_the_profiler_buckets() {
        use crate::cost::{CostModel, DeviceConfig, ExecTier};
        use crate::profile::{PcCounters, ProfileConfig};
        use crate::{Device, LaunchConfig};
        let c = CostModel::default();
        for inst in every_variant() {
            let class = inst.cost();
            let mut want = PcCounters {
                warp_insts: 1,
                lane_insts: 32,
                issue_cycles: c.issue,
                alu_cycles: c.alu_cycles(class),
                ..PcCounters::default()
            };
            // Every lane addresses the same word: one transaction, one way.
            match class {
                CostClass::Memory(Space::Global) => {
                    want.global_accesses = 1;
                    want.global_transactions = 1;
                    want.mem_cycles = c.global_segment;
                }
                CostClass::Memory(Space::Shared) => {
                    want.shared_accesses = 1;
                    want.shared_ways = 1;
                    want.shared_cycles = c.shared_way;
                }
                CostClass::Atomic => {
                    want.atomics = 1;
                    want.global_accesses = 1;
                    want.global_transactions = 32;
                    want.atomic_cycles = 32 * c.atomic_lane;
                }
                CostClass::Barrier => {
                    want.barriers = 1;
                    want.barrier_cycles = c.barrier;
                }
                CostClass::Alu { .. } | CostClass::Free => {}
            }
            let kernel = Kernel {
                name: "one".into(),
                insts: vec![
                    Inst::ReadParam {
                        dst: Reg(9),
                        idx: 0,
                    },
                    inst.clone(),
                    Inst::Ret,
                ],
                label_targets: vec![2],
                num_regs: 14,
                shared_bytes: 4,
                num_params: 1,
                lines: Vec::new(),
            };
            for tier in [ExecTier::Auto, ExecTier::Interpret] {
                let cfg = DeviceConfig {
                    host_threads: 1,
                    profile: Some(ProfileConfig::default()),
                    exec_tier: tier,
                    ..DeviceConfig::test_small()
                };
                let mut dev = Device::new(cfg, c.clone());
                let buf = dev.alloc_elems(Ty::I32, 1).unwrap();
                dev.launch(&kernel, LaunchConfig::d1(1, 32), &[Value::U64(buf.addr)])
                    .unwrap_or_else(|e| panic!("{inst:?} on {tier}: {e}"));
                assert_eq!(dev.tier_declines(), 0, "{inst:?}");
                let got = dev.take_profile().launches[0].pcs[1];
                assert_eq!(got, want, "{inst:?} on {tier}");
            }
        }
    }

    #[test]
    fn immediates_render_with_type_suffixes() {
        assert_eq!(format_imm(Value::I32(-5)), "-5");
        assert_eq!(format_imm(Value::I64(7)), "7L");
        assert_eq!(format_imm(Value::U64(64)), "0x40");
        assert_eq!(format_imm(Value::F32(1.0)), "1.0f");
        assert_eq!(format_imm(Value::F64(2.5)), "2.5");
        assert_eq!(format_imm(Value::Pred(true)), "true");
    }

    #[test]
    fn disasm_contains_name_and_instructions() {
        let k = Kernel {
            name: "demo".into(),
            insts: vec![
                Inst::MovImm {
                    dst: Reg(0),
                    value: Value::I32(1),
                },
                Inst::Ret,
            ],
            label_targets: vec![1],
            num_regs: 1,
            shared_bytes: 0,
            num_params: 0,
            lines: Vec::new(),
        };
        let d = k.disasm();
        assert!(d.contains(".kernel demo"));
        assert!(d.contains("mov %r0, 1"));
        assert!(d.contains("L0:"));
        assert!(d.contains("ret"));
        // No line table: no `.loc` directives in the listing.
        assert!(!d.contains(".loc"));
    }

    #[test]
    fn disasm_emits_loc_on_line_change() {
        let k = Kernel {
            name: "demo".into(),
            insts: vec![
                Inst::MovImm {
                    dst: Reg(0),
                    value: Value::I32(1),
                },
                Inst::Mov {
                    dst: Reg(0),
                    src: Reg(0),
                },
                Inst::Ret,
            ],
            label_targets: vec![],
            num_regs: 1,
            shared_bytes: 0,
            num_params: 0,
            lines: vec![3, 3, 7],
        };
        assert_eq!(k.line_of(0), Some(3));
        assert_eq!(k.line_of(2), Some(7));
        assert_eq!(k.line_of(9), None);
        let d = k.disasm();
        // One `.loc` per change, not per instruction.
        assert_eq!(d.matches(".loc").count(), 2);
        assert!(d.contains(".loc 3"));
        assert!(d.contains(".loc 7"));
    }
}
