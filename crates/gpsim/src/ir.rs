//! The kernel intermediate representation executed by the simulator.
//!
//! The IR is a flat, PTX-like instruction list with labels resolved to
//! instruction indices. Each thread owns a register file of [`Value`]s;
//! instructions are typed. Control flow uses conditional/unconditional
//! branches; the interpreter provides SIMT divergence semantics on top
//! (see [`crate::exec`]).

use crate::types::{Ty, Value};
use std::fmt;

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
    /// True if this instruction writes register `r`.
    pub fn writes(&self, r: Reg) -> bool {
        self.def() == Some(r)
    }

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
            _ => None,
        }
    }

    /// True for instructions that access global memory.
    pub fn is_global_access(&self) -> bool {
        matches!(
            self,
            Inst::LdGlobal { .. } | Inst::StGlobal { .. } | Inst::AtomGlobal { .. }
        )
    }

    /// True for instructions that access shared memory.
    pub fn is_shared_access(&self) -> bool {
        matches!(self, Inst::LdShared { .. } | Inst::StShared { .. })
    }

    /// Call `f` on every register this instruction *reads* (sources,
    /// predicates, and memory-reference base/index registers).
    ///
    /// The match is deliberately exhaustive — adding an `Inst` variant
    /// without deciding its uses must not compile.
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

    #[test]
    fn inst_def_and_classes() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I32,
            dst: Reg(5),
            a: Reg(1).into(),
            b: Operand::Imm(Value::I32(2)),
        };
        assert_eq!(i.def(), Some(Reg(5)));
        assert!(i.writes(Reg(5)));
        assert!(!i.writes(Reg(1)));
        assert!(!i.is_global_access());

        let ld = Inst::LdGlobal {
            ty: Ty::F32,
            dst: Reg(0),
            mref: MemRef::direct(Reg(1)),
        };
        assert!(ld.is_global_access());
        let ls = Inst::LdShared {
            ty: Ty::F32,
            dst: Reg(0),
            mref: MemRef::direct(Reg(1)),
        };
        assert!(ls.is_shared_access());
        assert_eq!(Inst::Bar.def(), None);
    }

    /// Exhaustive `def()`/`writes()` coverage: one instance of *every*
    /// `Inst` variant, checked against its expected def with a full match
    /// (no wildcard) so that adding a variant without deciding what it
    /// defines fails to compile here first, not silently in a dataflow.
    #[test]
    fn def_covers_every_variant() {
        let m = MemRef::indexed(Reg(9), Reg(10), 4);
        let all: Vec<(Inst, Option<Reg>)> = vec![
            (
                Inst::MovImm {
                    dst: Reg(0),
                    value: Value::I32(1),
                },
                Some(Reg(0)),
            ),
            (
                Inst::Mov {
                    dst: Reg(1),
                    src: Reg(2),
                },
                Some(Reg(1)),
            ),
            (
                Inst::ReadSpecial {
                    dst: Reg(2),
                    sr: SpecialReg::TidX,
                },
                Some(Reg(2)),
            ),
            (
                Inst::ReadParam {
                    dst: Reg(3),
                    idx: 0,
                },
                Some(Reg(3)),
            ),
            (
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::I32,
                    dst: Reg(4),
                    a: Reg(1).into(),
                    b: Reg(2).into(),
                },
                Some(Reg(4)),
            ),
            (
                Inst::Cmp {
                    op: CmpOp::Lt,
                    ty: Ty::I32,
                    dst: Reg(5),
                    a: Reg(1).into(),
                    b: Reg(2).into(),
                },
                Some(Reg(5)),
            ),
            (
                Inst::Un {
                    op: UnOp::Neg,
                    ty: Ty::I32,
                    dst: Reg(6),
                    a: Reg(1).into(),
                },
                Some(Reg(6)),
            ),
            (
                Inst::Select {
                    dst: Reg(7),
                    cond: Reg(5),
                    a: Reg(1).into(),
                    b: Reg(2).into(),
                },
                Some(Reg(7)),
            ),
            (
                Inst::Cvt {
                    dst: Reg(8),
                    ty: Ty::I64,
                    src: Reg(1).into(),
                },
                Some(Reg(8)),
            ),
            (
                Inst::LdGlobal {
                    ty: Ty::I32,
                    dst: Reg(11),
                    mref: m,
                },
                Some(Reg(11)),
            ),
            (
                Inst::StGlobal {
                    ty: Ty::I32,
                    src: Reg(11).into(),
                    mref: m,
                },
                None,
            ),
            (
                Inst::LdShared {
                    ty: Ty::I32,
                    dst: Reg(12),
                    mref: m,
                },
                Some(Reg(12)),
            ),
            (
                Inst::StShared {
                    ty: Ty::I32,
                    src: Reg(12).into(),
                    mref: m,
                },
                None,
            ),
            (
                Inst::AtomGlobal {
                    op: AtomOp::Add,
                    ty: Ty::I32,
                    mref: m,
                    src: Reg(1).into(),
                    dst: Some(Reg(13)),
                },
                Some(Reg(13)),
            ),
            (
                Inst::AtomGlobal {
                    op: AtomOp::Add,
                    ty: Ty::I32,
                    mref: m,
                    src: Reg(1).into(),
                    dst: None,
                },
                None,
            ),
            (Inst::Bar, None),
            (
                Inst::Bra {
                    target: Label(0),
                    cond: Some((Reg(5), true)),
                },
                None,
            ),
            (Inst::Ret, None),
        ];
        // Every variant must appear in the list above. This match has no
        // wildcard arm: extend both it and the list when adding a variant.
        for (inst, _) in &all {
            match inst {
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
                | Inst::AtomGlobal { .. }
                | Inst::Bar
                | Inst::Bra { .. }
                | Inst::Ret => {}
            }
        }
        for (inst, want) in &all {
            assert_eq!(inst.def(), *want, "def() mismatch for {inst:?}");
            if let Some(r) = want {
                assert!(inst.writes(*r), "writes() false for def of {inst:?}");
                let mut used = false;
                inst.for_each_use(|u| used |= u == *r);
                assert!(!used, "def reported as use for {inst:?}");
            }
        }
        // Spot-check use sets: stores read their source and both memref regs.
        let st = Inst::StShared {
            ty: Ty::I32,
            src: Reg(12).into(),
            mref: m,
        };
        let mut uses = Vec::new();
        st.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(12), Reg(9), Reg(10)]);
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
