//! Ergonomic construction of [`Kernel`]s.
//!
//! [`KernelBuilder`] manages register allocation, label creation/placement
//! and shared-memory layout, and verifies structural invariants when
//! finishing (`all labels placed`, `branch targets in range`, ...). The
//! compiler crates build every kernel through this interface.

use crate::ir::{
    AtomOp, BinOp, CmpOp, Flow, Inst, Kernel, Label, MemRef, Operand, Reg, SpecialReg, UnOp,
};
use crate::types::{Ty, Value};

/// Incremental builder for a [`Kernel`].
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    insts: Vec<Inst>,
    lines: Vec<u32>,
    cur_line: u32,
    labels: Vec<Option<usize>>,
    next_reg: u32,
    shared_bytes: usize,
    num_params: u32,
}

impl KernelBuilder {
    /// Start building a kernel called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            insts: Vec::new(),
            lines: Vec::new(),
            cur_line: 0,
            labels: Vec::new(),
            next_reg: 0,
            shared_bytes: 0,
            num_params: 0,
        }
    }

    /// Set the current 1-based source line; every instruction emitted from
    /// now on is attributed to it (0 = unknown). The setting persists until
    /// the next call, so statements without their own span inherit the
    /// enclosing construct's line.
    pub fn set_line(&mut self, line: u32) {
        self.cur_line = line;
    }

    /// The source line instructions are currently attributed to.
    pub fn current_line(&self) -> u32 {
        self.cur_line
    }

    /// Allocate a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Declare that the kernel takes (at least) `n` parameters.
    pub fn set_num_params(&mut self, n: u32) {
        self.num_params = self.num_params.max(n);
    }

    /// Reserve `bytes` of shared memory aligned to `align`; returns the byte
    /// offset of the reserved region.
    pub fn alloc_shared(&mut self, bytes: usize, align: usize) -> usize {
        debug_assert!(align.is_power_of_two());
        let off = (self.shared_bytes + align - 1) & !(align - 1);
        self.shared_bytes = off + bytes;
        off
    }

    /// Total shared memory reserved so far.
    pub fn shared_bytes(&self) -> usize {
        self.shared_bytes
    }

    /// Create a new, not-yet-placed label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Place `label` at the current instruction position.
    ///
    /// # Panics
    /// Panics if the label was already placed.
    pub fn place(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label {label} placed twice");
        *slot = Some(self.insts.len());
    }

    /// Append a raw instruction, attributed to the current source line.
    pub fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
        self.lines.push(self.cur_line);
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    // ---- convenience emitters -------------------------------------------

    /// `dst = value`
    pub fn mov_imm(&mut self, value: Value) -> Reg {
        let dst = self.reg();
        self.emit(Inst::MovImm { dst, value });
        dst
    }

    /// `dst = src` into a fresh register.
    pub fn mov(&mut self, src: Reg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Mov { dst, src });
        dst
    }

    /// Copy `src` into an existing register `dst`.
    pub fn mov_to(&mut self, dst: Reg, src: Reg) {
        self.emit(Inst::Mov { dst, src });
    }

    /// Set an existing register to an immediate.
    pub fn mov_imm_to(&mut self, dst: Reg, value: Value) {
        self.emit(Inst::MovImm { dst, value });
    }

    /// Read a special register into a fresh register.
    pub fn special(&mut self, sr: SpecialReg) -> Reg {
        let dst = self.reg();
        self.emit(Inst::ReadSpecial { dst, sr });
        dst
    }

    /// Read launch parameter `idx` into a fresh register.
    pub fn param(&mut self, idx: u32) -> Reg {
        self.set_num_params(idx + 1);
        let dst = self.reg();
        self.emit(Inst::ReadParam { dst, idx });
        dst
    }

    /// `dst = a <op> b` at `ty` into a fresh register.
    pub fn bin(&mut self, op: BinOp, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Bin {
            op,
            ty,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// `dst = a <op> b` at `ty` into an existing register.
    pub fn bin_to(
        &mut self,
        dst: Reg,
        op: BinOp,
        ty: Ty,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.emit(Inst::Bin {
            op,
            ty,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `dst = a <cmp> b` at `ty` producing a fresh predicate register.
    pub fn cmp(&mut self, op: CmpOp, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Cmp {
            op,
            ty,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Unary operation into a fresh register.
    pub fn un(&mut self, op: UnOp, ty: Ty, a: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Un {
            op,
            ty,
            dst,
            a: a.into(),
        });
        dst
    }

    /// `dst = cond ? a : b` into a fresh register.
    pub fn select(&mut self, cond: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Select {
            dst,
            cond,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Convert `src` to `ty` into a fresh register.
    pub fn cvt(&mut self, ty: Ty, src: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.emit(Inst::Cvt {
            dst,
            ty,
            src: src.into(),
        });
        dst
    }

    /// Convert into an existing register.
    pub fn cvt_to(&mut self, dst: Reg, ty: Ty, src: impl Into<Operand>) {
        self.emit(Inst::Cvt {
            dst,
            ty,
            src: src.into(),
        });
    }

    /// Load from global memory into a fresh register.
    pub fn ld_global(&mut self, ty: Ty, mref: MemRef) -> Reg {
        let dst = self.reg();
        self.emit(Inst::LdGlobal { ty, dst, mref });
        dst
    }

    /// Load from global memory into an existing register.
    pub fn ld_global_to(&mut self, dst: Reg, ty: Ty, mref: MemRef) {
        self.emit(Inst::LdGlobal { ty, dst, mref });
    }

    /// Store to global memory.
    pub fn st_global(&mut self, ty: Ty, mref: MemRef, src: impl Into<Operand>) {
        self.emit(Inst::StGlobal {
            ty,
            src: src.into(),
            mref,
        });
    }

    /// Load from shared memory into a fresh register.
    pub fn ld_shared(&mut self, ty: Ty, mref: MemRef) -> Reg {
        let dst = self.reg();
        self.emit(Inst::LdShared { ty, dst, mref });
        dst
    }

    /// Load from shared memory into an existing register.
    pub fn ld_shared_to(&mut self, dst: Reg, ty: Ty, mref: MemRef) {
        self.emit(Inst::LdShared { ty, dst, mref });
    }

    /// Store to shared memory.
    pub fn st_shared(&mut self, ty: Ty, mref: MemRef, src: impl Into<Operand>) {
        self.emit(Inst::StShared {
            ty,
            src: src.into(),
            mref,
        });
    }

    /// Atomic RMW on global memory.
    pub fn atom_global(
        &mut self,
        op: AtomOp,
        ty: Ty,
        mref: MemRef,
        src: impl Into<Operand>,
        want_old: bool,
    ) -> Option<Reg> {
        let dst = if want_old { Some(self.reg()) } else { None };
        self.emit(Inst::AtomGlobal {
            op,
            ty,
            mref,
            src: src.into(),
            dst,
        });
        dst
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) {
        self.emit(Inst::Bar);
    }

    /// Unconditional branch.
    pub fn bra(&mut self, target: Label) {
        self.emit(Inst::Bra { target, cond: None });
    }

    /// Branch to `target` if predicate `cond` is true.
    pub fn bra_if(&mut self, cond: Reg, target: Label) {
        self.emit(Inst::Bra {
            target,
            cond: Some((cond, true)),
        });
    }

    /// Branch to `target` if predicate `cond` is false.
    pub fn bra_unless(&mut self, cond: Reg, target: Label) {
        self.emit(Inst::Bra {
            target,
            cond: Some((cond, false)),
        });
    }

    /// Thread exit.
    pub fn ret(&mut self) {
        self.emit(Inst::Ret);
    }

    /// Finish the kernel, verifying structural invariants. A violated
    /// invariant (a label created but never placed, a branch targeting an
    /// unknown label) is a compiler bug, surfaced as
    /// [`crate::SimError::KernelBuild`] so a driver can report it as a per-case
    /// diagnostic instead of aborting the whole process.
    pub fn try_finish(mut self) -> Result<Kernel, crate::error::SimError> {
        let build_err = |name: &str, reason: String| crate::error::SimError::KernelBuild {
            kernel: name.to_string(),
            reason,
        };
        // Implicit ret at the end keeps codegen simpler.
        if self.insts.last().map(Inst::flow) != Some(Flow::Exit) {
            self.insts.push(Inst::Ret);
            self.lines.push(self.cur_line);
        }
        // Normalize: an all-unknown line table carries no information and
        // is stored empty, so kernels built without `set_line` compare
        // equal to hand-constructed ones.
        if self.lines.iter().all(|&l| l == 0) {
            self.lines.clear();
        }
        let mut label_targets: Vec<usize> = Vec::with_capacity(self.labels.len());
        for (i, t) in self.labels.iter().enumerate() {
            match t {
                Some(t) => label_targets.push(*t),
                None => {
                    return Err(build_err(
                        &self.name,
                        format!("label L{i} never placed in {}", self.name),
                    ))
                }
            }
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let Flow::Branch { target, .. } = inst.flow() {
                let t = label_targets
                    .get(target.0 as usize)
                    .copied()
                    .unwrap_or(usize::MAX);
                if t > self.insts.len() {
                    return Err(build_err(
                        &self.name,
                        format!("branch at {i} targets out-of-range label {target}"),
                    ));
                }
            }
        }
        Ok(Kernel {
            name: self.name,
            insts: self.insts,
            label_targets,
            num_regs: self.next_reg,
            shared_bytes: self.shared_bytes,
            num_params: self.num_params,
            lines: self.lines,
        })
    }

    /// [`KernelBuilder::try_finish`], panicking on structural bugs — the
    /// convenient form for tests and hand-built kernels.
    ///
    /// # Panics
    /// Panics if a label was created but never placed, or a branch targets an
    /// unknown label.
    pub fn finish(self) -> Kernel {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_kernel() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov_imm(Value::I32(41));
        let y = b.bin(BinOp::Add, Ty::I32, x, Value::I32(1));
        let p = b.param(0);
        b.st_global(Ty::I32, MemRef::direct(p), y);
        let k = b.finish();
        assert_eq!(k.num_params, 1);
        assert_eq!(k.num_regs, 3);
        // Implicit ret appended.
        assert!(matches!(k.insts.last(), Some(Inst::Ret)));
    }

    #[test]
    fn line_table_tracks_set_line() {
        let mut b = KernelBuilder::new("k");
        assert_eq!(b.current_line(), 0);
        let x = b.mov_imm(Value::I32(1)); // line 0 (unknown)
        b.set_line(5);
        let y = b.bin(BinOp::Add, Ty::I32, x, Value::I32(1)); // line 5
        b.set_line(9);
        let p = b.param(0); // line 9
        b.st_global(Ty::I32, MemRef::direct(p), y); // line 9
        let k = b.finish();
        // Implicit ret inherits the last line.
        assert_eq!(k.lines, vec![0, 5, 9, 9, 9]);
        assert_eq!(k.line_of(0), None);
        assert_eq!(k.line_of(1), Some(5));
    }

    #[test]
    fn all_unknown_line_table_is_normalized_empty() {
        let mut b = KernelBuilder::new("k");
        b.mov_imm(Value::I32(1));
        let k = b.finish();
        assert!(k.lines.is_empty());
    }

    #[test]
    fn shared_alloc_alignment() {
        let mut b = KernelBuilder::new("k");
        let a = b.alloc_shared(3, 1);
        let c = b.alloc_shared(8, 8);
        assert_eq!(a, 0);
        assert_eq!(c, 8);
        assert_eq!(b.shared_bytes(), 16);
    }

    #[test]
    fn labels_resolve() {
        let mut b = KernelBuilder::new("k");
        let top = b.new_label();
        let done = b.new_label();
        b.place(top);
        let c = b.mov_imm(Value::Pred(true));
        b.bra_if(c, done);
        b.bra(top);
        b.place(done);
        let k = b.finish();
        assert_eq!(k.target(Label(0)), 0);
        assert_eq!(k.target(Label(1)), 3);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unplaced_label_panics() {
        let mut b = KernelBuilder::new("k");
        let l = b.new_label();
        b.bra(l);
        let _ = b.finish();
    }

    /// Regression: `try_finish` turns the structural panic into a
    /// [`SimError::KernelBuild`] a driver can report per-case.
    #[test]
    fn unplaced_label_is_a_build_error() {
        let mut b = KernelBuilder::new("broken");
        let l = b.new_label();
        b.bra(l);
        let err = b.try_finish().unwrap_err();
        match &err {
            crate::error::SimError::KernelBuild { kernel, reason } => {
                assert_eq!(kernel, "broken");
                assert!(reason.contains("never placed"), "{reason}");
            }
            other => panic!("expected KernelBuild, got {other:?}"),
        }
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn try_finish_ok_matches_finish() {
        let mut b = KernelBuilder::new("k");
        let top = b.new_label();
        b.place(top);
        b.ret();
        let k = b.try_finish().unwrap();
        assert_eq!(k.target(Label(0)), 0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_place_panics() {
        let mut b = KernelBuilder::new("k");
        let l = b.new_label();
        b.place(l);
        b.place(l);
    }
}
