//! kverify — static verification of kernels before a single cycle runs.
//!
//! Where [`crate::sanitizer`] observes one execution of one geometry, this
//! module *proves* properties of the instruction stream for the whole
//! block, GPUVerify-style, using three cooperating analyses:
//!
//! 1. **Uniformity dataflow** over a CFG whose blocks are the typed
//!    tier's runs ([`Kernel::runs`]: a block starts at 0, at every branch
//!    target and after every branch, exit or barrier, so a barrier always
//!    ends its block):
//!    values seeded from `threadIdx`-derived [`SpecialReg`]s are
//!    *divergent*; block/grid ids and parameters are *uniform*. A
//!    [`Inst::Bar`] control-dependent on a divergent branch is a static
//!    synccheck finding — the barrier-divergence hang simsan can only see
//!    when the scheduler reaches it.
//! 2. **Affine per-thread evaluation** of shared-memory address
//!    expressions (`k + cx·tidx + cy·tidy`): for each access whose
//!    address and divergent guards are provably affine, the analysis
//!    enumerates the exact byte footprint of every thread in the block.
//!    Two accesses that may fall in the same barrier-delimited interval
//!    (a reaching-barriers dataflow over the CFG, so loop back edges are
//!    handled) and touch a common byte from *different warps* with at
//!    least one write are a static racecheck finding; same-warp conflicts
//!    are exempt, matching both simsan and the paper's §3.3 warp-
//!    synchronous tail argument.
//! 3. **Bounds/init checking** of the same footprints against the
//!    kernel's declared `shared_bytes` and the set of statically written
//!    bytes.
//!
//! Shared accesses the affine lattice cannot prove (e.g. the loop-carried
//! stride register of the PGI-style `Looped` tree) are counted as
//! *unproven* and reported as warnings, never as errors: the verifier's
//! contract is zero false positives on hazard-free kernels, with simsan
//! as the dynamic backstop for whatever stays unproven.

use crate::coalesce::bank_conflict_degree;
use crate::exec::LaunchConfig;
use crate::ir::{Access, CmpOp, Flow, Inst, Kernel, MemRef, Operand, Reg, Space, SpecialReg};
use crate::types::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Classes of static findings, mirroring the dynamic
/// [`crate::sanitizer::HazardClass`] plus the purely static bounds and
/// bank-conflict diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyClass {
    /// Barrier control-dependent on a divergent branch.
    SyncCheck,
    /// Cross-warp shared-memory conflict within one barrier interval.
    RaceCheck,
    /// Shared access provably outside the declared shared window.
    BoundsCheck,
    /// Shared read of bytes no instruction ever writes.
    InitCheck,
    /// Intra-warp shared bank conflict (warn-only performance finding).
    BankConflict,
}

impl fmt::Display for VerifyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerifyClass::SyncCheck => "synccheck",
            VerifyClass::RaceCheck => "racecheck",
            VerifyClass::BoundsCheck => "boundscheck",
            VerifyClass::InitCheck => "initcheck",
            VerifyClass::BankConflict => "bankconflict",
        };
        f.write_str(s)
    }
}

/// One static finding, citing stable disasm instruction indices.
#[derive(Debug, Clone)]
pub struct VerifyFinding {
    pub class: VerifyClass,
    /// Instruction index the finding is anchored to.
    pub pc: usize,
    /// Second instruction involved (the other access of a race, the
    /// divergent branch of a synccheck).
    pub other_pc: Option<usize>,
    /// Warnings (bank conflicts, unproven accesses) never fail a kernel.
    pub warning: bool,
    pub detail: String,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = if self.warning { "warn" } else { "error" };
        write!(f, "{sev} [{}] at #{}", self.class, self.pc)?;
        if let Some(o) = self.other_pc {
            write!(f, " (with #{o})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The verifier's answer for one kernel at one launch geometry.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub kernel: String,
    pub block: (u32, u32),
    pub findings: Vec<VerifyFinding>,
    /// Shared accesses whose address or guard the affine analysis could
    /// not prove (skipped, also surfaced as warnings).
    pub unproven: usize,
}

impl VerifyReport {
    /// Number of findings of one class (warnings included).
    pub fn count(&self, c: VerifyClass) -> u64 {
        self.findings.iter().filter(|f| f.class == c).count() as u64
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> u64 {
        self.findings.iter().filter(|f| !f.warning).count() as u64
    }

    /// True when the kernel verified with no error-severity finding.
    pub fn clean(&self) -> bool {
        self.errors() == 0
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify {} (block {}x{}): {} error(s), {} warning(s), {} unproven",
            self.kernel,
            self.block.0,
            self.block.1,
            self.errors(),
            self.findings.len() as u64 - self.errors(),
            self.unproven
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Knobs for the static verifier.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Threads per warp (same-warp conflicts are exempt, as in simsan).
    pub warp_size: u32,
    /// Shared-memory banks for the bank-conflict diagnostic.
    pub shared_banks: u32,
    /// Emit warn-only bank-conflict findings.
    pub bank_conflicts: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            warp_size: 32,
            shared_banks: 32,
            bank_conflicts: true,
        }
    }
}

/// Statically verify `kernel` for a launch at `cfg`'s block shape.
///
/// Grid shape is irrelevant: the properties proved are intra-block. The
/// result is deterministic and purely structural — nothing is executed.
pub fn verify_kernel(kernel: &Kernel, cfg: LaunchConfig, vc: &VerifyConfig) -> VerifyReport {
    Verifier::new(kernel, cfg.block, vc).run()
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

pub(crate) struct Block {
    pub(crate) start: usize,
    /// Exclusive end.
    pub(crate) end: usize,
    /// Successor block indices; `nb` (one past the last block) is the
    /// virtual exit. For a conditional branch, `succs[0]` is the taken
    /// edge and `succs[1]` the fallthrough.
    pub(crate) succs: Vec<usize>,
}

pub(crate) struct Cfg {
    pub(crate) blocks: Vec<Block>,
    pub(crate) block_of: Vec<usize>,
}

impl Cfg {
    pub(crate) fn build(k: &Kernel) -> Cfg {
        let n = k.insts.len();
        let (spans, block_of) = k.runs();
        let nb = spans.len();
        let block_at = |pc: usize| if pc < n { block_of[pc] } else { nb };
        let blocks = spans
            .into_iter()
            .map(|span| {
                let flow = k.insts[span.end - 1].flow();
                let mut succs = Vec::new();
                if let Flow::Branch { target, .. } = flow {
                    succs.push(block_at(k.target(target)));
                }
                if flow.falls_through() {
                    succs.push(block_at(span.end));
                }
                if flow == Flow::Exit {
                    succs.push(nb);
                }
                Block {
                    start: span.start,
                    end: span.end,
                    succs,
                }
            })
            .collect();
        Cfg { blocks, block_of }
    }

    /// The conditional-branch predicate register of `b`'s terminator.
    pub(crate) fn branch_cond(&self, k: &Kernel, b: usize) -> Option<(Reg, bool)> {
        match k.insts[self.blocks[b].end - 1].flow() {
            Flow::Branch { cond, .. } => cond,
            Flow::Next | Flow::Sync | Flow::Exit => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Bitsets for postdominators
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq)]
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    pub(crate) fn empty(n: usize) -> Self {
        BitSet(vec![0; n.div_ceil(64)])
    }
    pub(crate) fn full(n: usize) -> Self {
        let mut s = BitSet(vec![!0u64; n.div_ceil(64)]);
        if !n.is_multiple_of(64) {
            *s.0.last_mut().unwrap() = (1u64 << (n % 64)) - 1;
        }
        s
    }
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    pub(crate) fn has(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    pub(crate) fn intersect(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
}

/// Iterative postdominator sets over the CFG plus a virtual exit node.
pub(crate) fn postdominators(cfg: &Cfg) -> Vec<BitSet> {
    let nb = cfg.blocks.len();
    let n = nb + 1;
    let mut pdom: Vec<BitSet> = (0..n).map(|_| BitSet::full(n)).collect();
    pdom[nb] = BitSet::empty(n);
    pdom[nb].set(nb);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut new = BitSet::full(n);
            for &s in &cfg.blocks[b].succs {
                new.intersect(&pdom[s]);
            }
            new.set(b);
            if new != pdom[b] {
                pdom[b] = new;
                changed = true;
            }
        }
    }
    pdom
}

/// `deps[x]` = conditional branches `x` is control-dependent on, as
/// `(branch_block, edge_index)` with edge 0 = taken, 1 = fallthrough.
pub(crate) fn control_deps(cfg: &Cfg, pdom: &[BitSet]) -> Vec<Vec<(usize, usize)>> {
    let nb = cfg.blocks.len();
    let mut deps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb];
    for b in 0..nb {
        if cfg.blocks[b].succs.len() < 2 {
            continue;
        }
        for (e, &s) in cfg.blocks[b].succs.iter().enumerate() {
            for (x, dep) in deps.iter_mut().enumerate() {
                let strictly_postdominates = x != b && pdom[b].has(x);
                if pdom[s].has(x) && !strictly_postdominates {
                    dep.push((b, e));
                }
            }
        }
    }
    deps
}

// ---------------------------------------------------------------------------
// Affine values
// ---------------------------------------------------------------------------

/// The affine lattice: `Bot` (never defined) ⊑ `k + cx·tidx + cy·tidy` ⊑
/// `Top` (not provably affine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aff {
    Bot,
    Lin { k: i64, cx: i64, cy: i64 },
    Top,
}

impl Aff {
    fn konst(k: i64) -> Aff {
        Aff::Lin { k, cx: 0, cy: 0 }
    }

    fn as_const(self) -> Option<i64> {
        match self {
            Aff::Lin { k, cx: 0, cy: 0 } => Some(k),
            _ => None,
        }
    }

    fn join(self, other: Aff) -> Aff {
        match (self, other) {
            (Aff::Bot, x) | (x, Aff::Bot) => x,
            (a, b) if a == b => a,
            _ => Aff::Top,
        }
    }

    fn add(self, other: Aff) -> Aff {
        self.zip(other, i64::checked_add)
    }

    fn sub(self, other: Aff) -> Aff {
        self.zip(other, i64::checked_sub)
    }

    fn zip(self, other: Aff, f: impl Fn(i64, i64) -> Option<i64>) -> Aff {
        match (self, other) {
            (Aff::Bot, _) | (_, Aff::Bot) => Aff::Bot,
            (
                Aff::Lin { k, cx, cy },
                Aff::Lin {
                    k: k2,
                    cx: cx2,
                    cy: cy2,
                },
            ) => match (f(k, k2), f(cx, cx2), f(cy, cy2)) {
                (Some(k), Some(cx), Some(cy)) => Aff::Lin { k, cx, cy },
                _ => Aff::Top,
            },
            _ => Aff::Top,
        }
    }

    fn scale(self, m: i64) -> Aff {
        match self {
            Aff::Bot => Aff::Bot,
            Aff::Lin { k, cx, cy } => {
                match (k.checked_mul(m), cx.checked_mul(m), cy.checked_mul(m)) {
                    (Some(k), Some(cx), Some(cy)) => Aff::Lin { k, cx, cy },
                    _ => Aff::Top,
                }
            }
            Aff::Top => Aff::Top,
        }
    }

    fn mul(self, other: Aff) -> Aff {
        if let Some(c) = self.as_const() {
            other.scale(c)
        } else if let Some(c) = other.as_const() {
            self.scale(c)
        } else if self == Aff::Bot || other == Aff::Bot {
            Aff::Bot
        } else {
            Aff::Top
        }
    }

    /// Evaluate at a concrete thread `(x, y)`.
    fn eval(self, x: i64, y: i64) -> Option<i64> {
        match self {
            Aff::Lin { k, cx, cy } => Some(k + cx * x + cy * y),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Divergent parts
// ---------------------------------------------------------------------------

/// The thread-varying component of a register, with its uniform component
/// abstracted away: `v = uniform + divpart(tid)`. Two values whose
/// divergent parts are *structurally equal* differ by a uniform amount,
/// so any comparison between them is warp-uniform — this is what proves
/// the trip count of a `for (i = tid*chunk; i < tid*chunk + chunk; i++)`
/// worker-chunk loop uniform even though both bounds are thread-dependent.
///
/// `Mul` multipliers are restricted to immediates and *stable* registers
/// (single static def whose transitive operand chain is also single-def
/// and memory-free), so a symbol denotes the same runtime value at every
/// occurrence. Indices are assumed not to wrap, like the affine analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DivPart {
    /// Never defined on any path considered so far.
    Bot,
    /// No thread-varying component: the value is warp-uniform.
    Zero,
    TidX,
    TidY,
    Lane,
    /// `part * symbol` for a uniform, execution-stable symbol.
    Mul(Box<DivPart>, Sym),
    /// Thread-varying with unknown structure.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Imm(i64),
    Reg(u32),
}

impl DivPart {
    fn join(self, other: DivPart) -> DivPart {
        match (self, other) {
            (DivPart::Bot, x) | (x, DivPart::Bot) => x,
            (a, b) if a == b => a,
            _ => DivPart::Unknown,
        }
    }

    fn is_bot(&self) -> bool {
        matches!(self, DivPart::Bot)
    }

    fn is_zero(&self) -> bool {
        matches!(self, DivPart::Zero)
    }

    /// Uniform = provably no thread-varying component. `Bot` (dead code)
    /// counts as uniform.
    fn uniform(&self) -> bool {
        matches!(self, DivPart::Bot | DivPart::Zero)
    }

    /// Known structure, usable for cancellation.
    fn concrete(&self) -> bool {
        !matches!(self, DivPart::Bot | DivPart::Unknown)
    }

    fn depth(&self) -> u32 {
        match self {
            DivPart::Mul(inner, _) => 1 + inner.depth(),
            _ => 0,
        }
    }

    /// `self * o`, where `o` must be uniform: a constant multiplier or a
    /// stable uniform register.
    fn mul(self, o: &Operand, stable: &[bool]) -> DivPart {
        if self.is_zero() {
            return DivPart::Zero;
        }
        let sym = match o {
            Operand::Imm(v) => match const_value(*v).as_const() {
                Some(0) => return DivPart::Zero,
                Some(1) => return self,
                Some(c) => Sym::Imm(c),
                None => return DivPart::Unknown,
            },
            Operand::Reg(r) => {
                if stable[r.0 as usize] {
                    Sym::Reg(r.0)
                } else {
                    return DivPart::Unknown;
                }
            }
        };
        if self.depth() >= 3 {
            DivPart::Unknown
        } else {
            DivPart::Mul(Box::new(self), sym)
        }
    }
}

fn const_value(v: Value) -> Aff {
    match v {
        Value::I32(x) => Aff::konst(x as i64),
        Value::I64(x) => Aff::konst(x),
        Value::U64(x) => i64::try_from(x).map_or(Aff::Top, Aff::konst),
        Value::F32(_) | Value::F64(_) | Value::Pred(_) => Aff::Top,
    }
}

fn eval_cmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

// ---------------------------------------------------------------------------
// Per-byte warp footprints
// ---------------------------------------------------------------------------

/// Which warps touch a byte. `Many` already implies a cross-warp pair, so
/// exact membership beyond the second warp is irrelevant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WarpSet {
    One(u32),
    Many,
}

impl WarpSet {
    fn add(self, w: u32) -> WarpSet {
        match self {
            WarpSet::One(a) if a == w => self,
            WarpSet::One(_) => WarpSet::Many,
            WarpSet::Many => WarpSet::Many,
        }
    }

    fn cross_warp(self, other: WarpSet) -> bool {
        match (self, other) {
            (WarpSet::One(a), WarpSet::One(b)) => a != b,
            _ => true,
        }
    }
}

/// One shared access with everything later phases need.
struct SharedAccess {
    pc: usize,
    store: bool,
    /// Barrier-interval reach set (bit 0 = kernel entry).
    reach: u128,
    /// Provable byte footprint: first byte -> warps touching it. `None`
    /// when the address or a divergent guard was not provable.
    touch: Option<BTreeMap<i64, WarpSet>>,
    /// Per-warp `(addr, size)` lists for the bank-conflict diagnostic.
    per_warp: HashMap<u32, Vec<(u64, usize)>>,
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

struct Verifier<'a> {
    k: &'a Kernel,
    block: (u32, u32),
    vc: &'a VerifyConfig,
    cfg: Cfg,
    deps: Vec<Vec<(usize, usize)>>,
    div_reg: Vec<bool>,
    vals: Vec<Aff>,
    /// Static defs per register.
    def_count: Vec<u32>,
    /// `r -> (op, a, b)` for predicate registers with exactly one def.
    preds: HashMap<Reg, (CmpOp, Operand, Operand)>,
    findings: Vec<VerifyFinding>,
    unproven: usize,
}

impl<'a> Verifier<'a> {
    fn new(k: &'a Kernel, block: (u32, u32), vc: &'a VerifyConfig) -> Self {
        let cfg = Cfg::build(k);
        let pdom = postdominators(&cfg);
        let deps = control_deps(&cfg, &pdom);
        let mut def_count = vec![0; k.num_regs as usize];
        for d in k.insts.iter().filter_map(Inst::def) {
            def_count[d.0 as usize] += 1;
        }
        Verifier {
            k,
            block,
            vc,
            cfg,
            deps,
            div_reg: vec![false; k.num_regs as usize],
            vals: vec![Aff::Bot; k.num_regs as usize],
            def_count,
            preds: HashMap::new(),
            findings: Vec::new(),
            unproven: 0,
        }
    }

    fn run(mut self) -> VerifyReport {
        if self.k.insts.is_empty() {
            return self.report();
        }
        self.divergence_fixpoint();
        self.affine_fixpoint();
        self.collect_preds();
        self.synccheck();
        let reach = self.barrier_reach();
        let accesses = self.shared_accesses(&reach);
        self.racecheck(&accesses);
        self.initcheck(&accesses);
        if self.vc.bank_conflicts {
            self.bank_conflicts(&accesses);
        }
        self.report()
    }

    fn report(self) -> VerifyReport {
        VerifyReport {
            kernel: self.k.name.clone(),
            block: self.block,
            findings: self.findings,
            unproven: self.unproven,
        }
    }

    /// Is the value defined by reading `sr` thread-dependent at this
    /// block shape?
    fn special_divergent(&self, sr: SpecialReg) -> bool {
        let (bx, by) = self.block;
        match sr {
            SpecialReg::TidX => bx > 1,
            SpecialReg::TidY => by > 1,
            SpecialReg::LaneLinear => bx * by > 1,
            _ => false,
        }
    }

    /// *Stable* registers: exactly one static def, computing from
    /// immediates, params, specials, and other stable registers only (no
    /// memory). Such a register holds the same value at every dynamic
    /// execution of its def, so it can serve as a symbolic multiplier in
    /// [`DivPart`] comparisons. Computed pessimistically, so a
    /// self-recurrent single def (`r = r + 1`) never qualifies.
    fn stable_regs(&self) -> Vec<bool> {
        let mut stable = vec![false; self.k.num_regs as usize];
        loop {
            let mut changed = false;
            for inst in &self.k.insts {
                let Some(d) = inst.def() else { continue };
                if stable[d.0 as usize] || self.def_count[d.0 as usize] != 1 {
                    continue;
                }
                let mut ok = inst.access().is_none();
                inst.for_each_use(|u| ok &= stable[u.0 as usize]);
                if ok {
                    stable[d.0 as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                return stable;
            }
        }
    }

    /// Flow-insensitive divergence fixpoint over the [`DivPart`] domain:
    /// a register is divergent if any def reads a divergent source, is
    /// inherently thread-dependent, or sits in divergent control flow —
    /// *except* that a comparison of two values with equal divergent
    /// parts is uniform (the thread-varying components cancel).
    fn divergence_fixpoint(&mut self) {
        let nb = self.cfg.blocks.len();
        let nr = self.k.num_regs as usize;
        let stable = self.stable_regs();
        let mut dp: Vec<DivPart> = vec![DivPart::Bot; nr];
        let mut div_block = vec![false; nb];
        loop {
            let mut changed = false;
            for (b, div) in div_block.iter_mut().enumerate() {
                if *div {
                    continue;
                }
                let divergent_parent = self.deps[b].iter().any(|&(br, _)| {
                    self.cfg
                        .branch_cond(self.k, br)
                        .is_some_and(|(r, _)| !dp[r.0 as usize].uniform())
                });
                if divergent_parent {
                    *div = true;
                    changed = true;
                }
            }
            for (b, blk) in self.cfg.blocks.iter().enumerate() {
                for pc in blk.start..blk.end {
                    let inst = &self.k.insts[pc];
                    let Some(d) = inst.def() else { continue };
                    let nv = if div_block[b] {
                        DivPart::Unknown
                    } else {
                        self.dp_transfer(inst, &dp, &stable)
                    };
                    let joined = dp[d.0 as usize].clone().join(nv);
                    if joined != dp[d.0 as usize] {
                        dp[d.0 as usize] = joined;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (r, part) in dp.into_iter().enumerate() {
            self.div_reg[r] = !part.uniform();
        }
    }

    /// [`DivPart`] transfer function for one instruction. Any `Bot` input
    /// yields `Bot` (no commitment until real values arrive), which keeps
    /// the equality-based cancellation rules monotone.
    fn dp_transfer(&self, inst: &Inst, dp: &[DivPart], stable: &[bool]) -> DivPart {
        use crate::ir::BinOp;
        let reg = |r: &Reg| dp[r.0 as usize].clone();
        let op = |o: &Operand| match o {
            Operand::Reg(r) => dp[r.0 as usize].clone(),
            Operand::Imm(_) => DivPart::Zero,
        };
        match inst {
            Inst::MovImm { .. } | Inst::ReadParam { .. } => DivPart::Zero,
            Inst::ReadSpecial { sr, .. } => {
                if self.special_divergent(*sr) {
                    match sr {
                        SpecialReg::TidX => DivPart::TidX,
                        SpecialReg::TidY => DivPart::TidY,
                        SpecialReg::LaneLinear => DivPart::Lane,
                        _ => DivPart::Unknown,
                    }
                } else {
                    DivPart::Zero
                }
            }
            Inst::Mov { src, .. } => reg(src),
            // Integer conversions preserve the divergent part for the
            // in-range values the codegen produces; float/pred lose the
            // additive structure but stay uniform if the source is.
            Inst::Cvt { ty, src, .. } => {
                let d = op(src);
                if ty.is_float() || *ty == crate::types::Ty::Pred {
                    match d {
                        DivPart::Bot => DivPart::Bot,
                        DivPart::Zero => DivPart::Zero,
                        _ => DivPart::Unknown,
                    }
                } else {
                    d
                }
            }
            Inst::Bin { op: bop, a, b, .. } => {
                let (da, db) = (op(a), op(b));
                if da.is_bot() || db.is_bot() {
                    return DivPart::Bot;
                }
                match bop {
                    BinOp::Add => match (da.is_zero(), db.is_zero()) {
                        (true, _) => db,
                        (_, true) => da,
                        _ => DivPart::Unknown,
                    },
                    BinOp::Sub => {
                        if db.is_zero() {
                            da
                        } else if da == db && da.concrete() {
                            DivPart::Zero
                        } else {
                            DivPart::Unknown
                        }
                    }
                    BinOp::Mul => {
                        if da.is_zero() && db.is_zero() {
                            DivPart::Zero
                        } else if db.is_zero() {
                            da.mul(b, stable)
                        } else if da.is_zero() {
                            db.mul(a, stable)
                        } else {
                            DivPart::Unknown
                        }
                    }
                    BinOp::Shl => {
                        if da.is_zero() && db.is_zero() {
                            DivPart::Zero
                        } else if let (false, Operand::Imm(v)) = (da.is_zero(), b) {
                            match const_value(*v).as_const() {
                                Some(c) if (0..63).contains(&c) => {
                                    da.mul(&Operand::Imm(Value::I64(1i64 << c)), stable)
                                }
                                _ => DivPart::Unknown,
                            }
                        } else {
                            DivPart::Unknown
                        }
                    }
                    BinOp::Div
                    | BinOp::Rem
                    | BinOp::Min
                    | BinOp::Max
                    | BinOp::And
                    | BinOp::Or
                    | BinOp::Xor
                    | BinOp::Shr => {
                        if da.is_zero() && db.is_zero() {
                            DivPart::Zero
                        } else {
                            DivPart::Unknown
                        }
                    }
                }
            }
            Inst::Cmp { a, b, .. } => {
                let (da, db) = (op(a), op(b));
                if da.is_bot() || db.is_bot() {
                    DivPart::Bot
                } else if da == db && da.concrete() {
                    // Equal divergent parts cancel: `(u1 + f(tid)) <cmp>
                    // (u2 + f(tid))` is decided by `u1 <cmp> u2` alone.
                    DivPart::Zero
                } else {
                    DivPart::Unknown
                }
            }
            Inst::Un { a, .. } => {
                let d = op(a);
                if d.is_bot() {
                    DivPart::Bot
                } else if d.is_zero() {
                    DivPart::Zero
                } else {
                    DivPart::Unknown
                }
            }
            Inst::Select { cond, a, b, .. } => {
                let (dc, da, db) = (reg(cond), op(a), op(b));
                if dc.is_bot() || da.is_bot() || db.is_bot() {
                    DivPart::Bot
                } else if dc.is_zero() && da == db && da.concrete() {
                    da
                } else {
                    DivPart::Unknown
                }
            }
            // Loads, atomics and any def without a rule above: thread-varying, unknown structure.
            _ => DivPart::Unknown,
        }
    }

    /// Flow-insensitive affine fixpoint over all defs; a register defined
    /// twice with different affine forms joins to `Top`.
    fn affine_fixpoint(&mut self) {
        let (bx, by) = (self.block.0 as i64, self.block.1 as i64);
        loop {
            let mut changed = false;
            for inst in &self.k.insts {
                let Some(d) = inst.def() else { continue };
                let operand = |o: &Operand| match o {
                    Operand::Reg(r) => self.vals[r.0 as usize],
                    Operand::Imm(v) => const_value(*v),
                };
                let nv = match inst {
                    Inst::MovImm { value, .. } => const_value(*value),
                    Inst::Mov { src, .. } => self.vals[src.0 as usize],
                    Inst::ReadSpecial { sr, .. } => match sr {
                        SpecialReg::TidX => Aff::Lin { k: 0, cx: 1, cy: 0 },
                        SpecialReg::TidY => Aff::Lin { k: 0, cx: 0, cy: 1 },
                        SpecialReg::TidZ => Aff::konst(0),
                        SpecialReg::LaneLinear => Aff::Lin {
                            k: 0,
                            cx: 1,
                            cy: bx,
                        },
                        SpecialReg::NTidX => Aff::konst(bx),
                        SpecialReg::NTidY => Aff::konst(by),
                        SpecialReg::NTidZ => Aff::konst(1),
                        SpecialReg::CtaIdX
                        | SpecialReg::CtaIdY
                        | SpecialReg::NCtaIdX
                        | SpecialReg::NCtaIdY => Aff::Top,
                    },
                    Inst::Bin { op, a, b, .. } => {
                        use crate::ir::BinOp::*;
                        let (a, b) = (operand(a), operand(b));
                        match op {
                            Add => a.add(b),
                            Sub => a.sub(b),
                            Mul => a.mul(b),
                            Shl => match b.as_const() {
                                Some(c) if (0..63).contains(&c) => a.scale(1i64 << c),
                                _ => Aff::Top,
                            },
                            Div | Rem | Min | Max | And | Or | Xor | Shr => {
                                match (a.as_const(), b.as_const()) {
                                    (Some(x), Some(y)) => {
                                        const_binop(*op, x, y).map_or(Aff::Top, Aff::konst)
                                    }
                                    _ => Aff::Top,
                                }
                            }
                        }
                    }
                    Inst::Un { op, a, .. } => match (op, operand(a)) {
                        (crate::ir::UnOp::Neg, v) => Aff::konst(0).sub(v),
                        (crate::ir::UnOp::Abs, v) => match v.as_const() {
                            Some(c) => Aff::konst(c.abs()),
                            None => Aff::Top,
                        },
                        _ => Aff::Top,
                    },
                    Inst::Select { a, b, .. } => {
                        let (a, b) = (operand(a), operand(b));
                        if a == b {
                            a
                        } else {
                            Aff::Top
                        }
                    }
                    // Int conversions preserve the value for the in-range
                    // indices the codegen produces; float/pred do not.
                    Inst::Cvt { ty, src, .. } => {
                        if ty.is_float() || *ty == crate::types::Ty::Pred {
                            Aff::Top
                        } else {
                            operand(src)
                        }
                    }
                    // Parameters, predicates, loads, atomics, any def without a rule: not affine.
                    _ => Aff::Top,
                };
                let joined = self.vals[d.0 as usize].join(nv);
                if joined != self.vals[d.0 as usize] {
                    self.vals[d.0 as usize] = joined;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Record the comparison behind every single-def predicate register,
    /// so divergent guards can be evaluated per thread.
    fn collect_preds(&mut self) {
        for inst in &self.k.insts {
            if let Inst::Cmp { op, dst, a, b, .. } = inst {
                if self.def_count[dst.0 as usize] == 1 {
                    self.preds.insert(*dst, (*op, *a, *b));
                }
            }
        }
    }

    fn operand_aff(&self, o: &Operand) -> Aff {
        match o {
            Operand::Reg(r) => self.vals[r.0 as usize],
            Operand::Imm(v) => const_value(*v),
        }
    }

    /// Static synccheck: a barrier control-dependent on a divergent
    /// branch can be reached by part of a warp set — the canonical
    /// barrier-divergence hang.
    fn synccheck(&mut self) {
        for (pc, inst) in self.k.insts.iter().enumerate() {
            if inst.flow() != Flow::Sync {
                continue;
            }
            let b = self.cfg.block_of[pc];
            for &(br, _) in &self.deps[b] {
                let Some((r, _)) = self.cfg.branch_cond(self.k, br) else {
                    continue;
                };
                if self.div_reg[r.0 as usize] {
                    let branch_pc = self.cfg.blocks[br].end - 1;
                    self.findings.push(VerifyFinding {
                        class: VerifyClass::SyncCheck,
                        pc,
                        other_pc: Some(branch_pc),
                        warning: false,
                        detail: format!(
                            "barrier is control-dependent on divergent branch `{}`",
                            crate::ir::format_inst(&self.k.insts[branch_pc])
                        ),
                    });
                }
            }
        }
    }

    /// Reaching-barriers dataflow: for every block, the set of barriers
    /// (plus kernel entry, bit 0) that may immediately precede it on some
    /// path. A barrier ends its block, so every instruction of a block
    /// shares the block's set; two shared accesses may be concurrent iff
    /// their sets intersect.
    fn barrier_reach(&self) -> Vec<u128> {
        let nb = self.cfg.blocks.len();
        // Barriers are numbered from 1 in pc order. Saturate past 127:
        // extra barriers share a bit, which is conservative (more
        // may-concurrency, and every kernel here has far fewer).
        let mut bars = 0u32;
        let bar_bit: Vec<Option<u128>> = self
            .cfg
            .blocks
            .iter()
            .map(|b| {
                (self.k.insts[b.end - 1].flow() == Flow::Sync).then(|| {
                    bars += 1;
                    1u128 << bars.min(127)
                })
            })
            .collect();
        let mut inn = vec![0u128; nb];
        inn[0] = 1;
        loop {
            let mut changed = false;
            for b in 0..nb {
                let out = bar_bit[b].unwrap_or(inn[b]);
                for &s in &self.cfg.blocks[b].succs {
                    if s < nb && inn[s] | out != inn[s] {
                        inn[s] |= out;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        inn
    }

    /// Divergent, evaluable guards for the block of `pc`:
    /// `Some(guards)` where each guard decides per-thread membership, or
    /// `None` when some divergent guard is not provable. Uniform guards
    /// are ignored: they gate whether the access happens at all, not
    /// *which* threads of the block perform it together.
    #[allow(clippy::type_complexity)]
    fn guards_of(&self, pc: usize) -> Option<Vec<(CmpOp, Aff, Aff, bool)>> {
        let b = self.cfg.block_of[pc];
        let mut out = Vec::new();
        for &(br, edge) in &self.deps[b] {
            let Some((r, expect)) = self.cfg.branch_cond(self.k, br) else {
                continue;
            };
            if !self.div_reg[r.0 as usize] {
                continue;
            }
            let &(op, a, bb) = self.preds.get(&r)?;
            let (aa, ba) = (self.operand_aff(&a), self.operand_aff(&bb));
            if !matches!(aa, Aff::Lin { .. }) || !matches!(ba, Aff::Lin { .. }) {
                return None;
            }
            // Membership: predicate == expect takes edge 0 (the branch),
            // != expect falls through to edge 1.
            let want_true = expect == (edge == 0);
            out.push((op, aa, ba, want_true));
        }
        Some(out)
    }

    /// Enumerate every shared access with its interval reach set and, when
    /// provable, its exact per-byte warp footprint over the block.
    fn shared_accesses(&mut self, inn: &[u128]) -> Vec<SharedAccess> {
        let (bx, by) = self.block;
        let shared = self.k.shared_bytes as i64;
        let mut out = Vec::new();
        for (pc, inst) in self.k.insts.iter().enumerate() {
            let Some(Access {
                space: Space::Shared,
                kind,
                ty,
                mref,
            }) = inst.access()
            else {
                continue;
            };
            let (store, size) = (kind.writes(), ty.size());
            let reach = inn[self.cfg.block_of[pc]];
            let addr = self.mref_aff(&mref);
            let guards = self.guards_of(pc);
            let (touch, per_warp, oob) = match (addr, guards) {
                (Aff::Lin { .. }, Some(guards)) => {
                    let mut touch = BTreeMap::new();
                    let mut per_warp: HashMap<u32, Vec<(u64, usize)>> = HashMap::new();
                    let mut oob: Option<(i64, u32, u32)> = None;
                    for y in 0..by {
                        for x in 0..bx {
                            let member = guards.iter().all(|&(op, a, b, want)| {
                                let (av, bv) =
                                    (a.eval(x as i64, y as i64), b.eval(x as i64, y as i64));
                                match (av, bv) {
                                    (Some(av), Some(bv)) => eval_cmp(op, av, bv) == want,
                                    _ => false,
                                }
                            });
                            if !member {
                                continue;
                            }
                            let byte = addr.eval(x as i64, y as i64).unwrap();
                            if byte < 0 || byte + size as i64 > shared {
                                oob.get_or_insert((byte, x, y));
                            }
                            let lin = y * bx + x;
                            let warp = lin / self.vc.warp_size.max(1);
                            for b in byte..byte + size as i64 {
                                touch
                                    .entry(b)
                                    .and_modify(|w: &mut WarpSet| *w = w.add(warp))
                                    .or_insert(WarpSet::One(warp));
                            }
                            if byte >= 0 {
                                per_warp.entry(warp).or_default().push((byte as u64, size));
                            }
                        }
                    }
                    (Some(touch), per_warp, oob)
                }
                _ => {
                    self.unproven += 1;
                    self.findings.push(VerifyFinding {
                        class: VerifyClass::RaceCheck,
                        pc,
                        other_pc: None,
                        warning: true,
                        detail: format!(
                            "shared {} `{}` not provable by the affine analysis; \
                             relying on the dynamic sanitizer",
                            if store { "store" } else { "load" },
                            crate::ir::format_inst(inst)
                        ),
                    });
                    (None, HashMap::new(), None)
                }
            };
            if let Some((byte, x, y)) = oob {
                self.findings.push(VerifyFinding {
                    class: VerifyClass::BoundsCheck,
                    pc,
                    other_pc: None,
                    warning: false,
                    detail: format!(
                        "thread ({x},{y}) touches shared byte {byte} outside the declared \
                         {shared}-byte window"
                    ),
                });
            }
            out.push(SharedAccess {
                pc,
                store,
                reach,
                touch,
                per_warp,
            });
        }
        out
    }

    fn mref_aff(&self, m: &MemRef) -> Aff {
        let base = match &m.base {
            Operand::Reg(r) => self.vals[r.0 as usize],
            Operand::Imm(v) => const_value(*v),
        };
        let idx = match m.index {
            Some(r) => self.vals[r.0 as usize],
            None => Aff::konst(0),
        };
        let scaled = match i64::try_from(m.scale) {
            Ok(s) => idx.scale(s),
            Err(_) => Aff::Top,
        };
        base.add(scaled).add(Aff::konst(m.disp))
    }

    /// Static racecheck: two shared accesses, at least one a store, that
    /// may share a barrier interval and touch a common byte from two
    /// different warps.
    fn racecheck(&mut self, accesses: &[SharedAccess]) {
        for i in 0..accesses.len() {
            for j in i..accesses.len() {
                let (a, b) = (&accesses[i], &accesses[j]);
                if !a.store && !b.store {
                    continue;
                }
                if a.reach & b.reach == 0 {
                    continue;
                }
                let (Some(ta), Some(tb)) = (&a.touch, &b.touch) else {
                    continue;
                };
                let (small, big) = if ta.len() <= tb.len() {
                    (ta, tb)
                } else {
                    (tb, ta)
                };
                let conflict = small.iter().find_map(|(byte, wa)| {
                    big.get(byte)
                        .filter(|wb| wa.cross_warp(**wb))
                        .map(|_| *byte)
                });
                if let Some(byte) = conflict {
                    let kind = match (a.store, b.store) {
                        (true, true) => "write-write",
                        _ => "read-write",
                    };
                    self.findings.push(VerifyFinding {
                        class: VerifyClass::RaceCheck,
                        pc: a.pc,
                        other_pc: Some(b.pc).filter(|&p| p != a.pc),
                        warning: false,
                        detail: format!(
                            "{kind} conflict on shared byte {byte} between warps in the same \
                             barrier interval (`{}` / `{}`)",
                            crate::ir::format_inst(&self.k.insts[a.pc]),
                            crate::ir::format_inst(&self.k.insts[b.pc]),
                        ),
                    });
                }
            }
        }
    }

    /// Static initcheck: a provable shared load reading bytes no shared
    /// store in the kernel can ever write. Skipped entirely when any
    /// store is unproven (its footprint is unknown).
    fn initcheck(&mut self, accesses: &[SharedAccess]) {
        if accesses.iter().any(|a| a.store && a.touch.is_none()) {
            return;
        }
        let mut written: std::collections::HashSet<i64> = std::collections::HashSet::new();
        for a in accesses.iter().filter(|a| a.store) {
            if let Some(t) = &a.touch {
                written.extend(t.keys());
            }
        }
        for a in accesses.iter().filter(|a| !a.store) {
            let Some(t) = &a.touch else { continue };
            if let Some(byte) = t.keys().find(|b| !written.contains(b)) {
                self.findings.push(VerifyFinding {
                    class: VerifyClass::InitCheck,
                    pc: a.pc,
                    other_pc: None,
                    warning: false,
                    detail: format!(
                        "shared load reads byte {byte}, which no store in this kernel writes"
                    ),
                });
            }
        }
    }

    /// Warn-only bank-conflict diagnostic: worst replay degree of each
    /// provable shared access across the block's warps, via the same
    /// [`bank_conflict_degree`] model the timing simulator charges.
    fn bank_conflicts(&mut self, accesses: &[SharedAccess]) {
        for a in accesses {
            if a.touch.is_none() {
                continue;
            }
            let worst = a
                .per_warp
                .values()
                .map(|accs| bank_conflict_degree(accs, self.vc.shared_banks))
                .max()
                .unwrap_or(0);
            if worst > 1 {
                self.findings.push(VerifyFinding {
                    class: VerifyClass::BankConflict,
                    pc: a.pc,
                    other_pc: None,
                    warning: true,
                    detail: format!(
                        "{}-way shared bank conflict (`{}`)",
                        worst,
                        crate::ir::format_inst(&self.k.insts[a.pc])
                    ),
                });
            }
        }
    }
}

fn const_binop(op: crate::ir::BinOp, a: i64, b: i64) -> Option<i64> {
    use crate::ir::BinOp::*;
    match op {
        Add => a.checked_add(b),
        Sub => a.checked_sub(b),
        Mul => a.checked_mul(b),
        Div => a.checked_div(b),
        Rem => a.checked_rem(b),
        Min => Some(a.min(b)),
        Max => Some(a.max(b)),
        And => Some(a & b),
        Or => Some(a | b),
        Xor => Some(a ^ b),
        Shl => u32::try_from(b).ok().and_then(|s| a.checked_shl(s)),
        Shr => u32::try_from(b).ok().and_then(|s| a.checked_shr(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::BinOp;
    use crate::types::Ty;

    fn vc() -> VerifyConfig {
        VerifyConfig::default()
    }

    fn verify(k: &Kernel, block_x: u32) -> VerifyReport {
        verify_kernel(k, LaunchConfig::d1(1, block_x), &vc())
    }

    /// `tid < 32 ? bar : bar` — both warps reach *different* barriers:
    /// the canonical static synccheck case.
    #[test]
    fn divergent_barrier_is_flagged() {
        let mut b = KernelBuilder::new("divbar");
        let tid = b.special(SpecialReg::TidX);
        let c = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
        let els = b.new_label();
        let end = b.new_label();
        b.bra_unless(c, els);
        b.bar();
        b.bra(end);
        b.place(els);
        b.bar();
        b.place(end);
        let k = b.finish();
        let rep = verify(&k, 64);
        assert_eq!(rep.count(VerifyClass::SyncCheck), 2, "{rep}");
        assert!(!rep.clean());
    }

    /// A barrier inside a loop whose bound is a (uniform) parameter must
    /// not be flagged: params are uniform even though their value is
    /// unknown.
    #[test]
    fn uniform_param_loop_barrier_is_clean() {
        let mut b = KernelBuilder::new("uloop");
        let n = b.param(0);
        let i = b.mov_imm(Value::I32(0));
        let top = b.new_label();
        let done = b.new_label();
        b.place(top);
        let c = b.cmp(CmpOp::Ge, Ty::I32, i, n);
        b.bra_if(c, done);
        b.bar();
        let i2 = b.bin(BinOp::Add, Ty::I32, i, Value::I32(1));
        b.mov_to(i, i2);
        b.bra(top);
        b.place(done);
        let k = b.finish();
        let rep = verify(&k, 64);
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.count(VerifyClass::SyncCheck), 0);
    }

    fn slab_kernel(f: impl FnOnce(&mut KernelBuilder, usize, Reg)) -> Kernel {
        let mut b = KernelBuilder::new("slab");
        let slab = b.alloc_shared(256, 8);
        let tid = b.special(SpecialReg::TidX);
        f(&mut b, slab, tid);
        b.finish()
    }

    /// Cross-warp read-after-write without a barrier races; the same
    /// pattern with a barrier in between verifies clean.
    #[test]
    fn cross_warp_race_and_barrier_fix() {
        let direct = |with_bar: bool| {
            slab_kernel(|b, slab, tid| {
                let t64 = b.cvt(Ty::I64, tid);
                b.st_shared(
                    Ty::I32,
                    MemRef::indexed(Value::U64(slab as u64), t64, 4),
                    tid,
                );
                if with_bar {
                    b.bar();
                }
                // tid 0..32 reads slot tid+32 (warp 1's slots).
                let g = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
                let skip = b.new_label();
                b.bra_unless(g, skip);
                let o = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(32));
                let o64 = b.cvt(Ty::I64, o);
                let _ = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), o64, 4));
                b.place(skip);
            })
        };
        let racy = verify(&direct(false), 64);
        assert!(racy.count(VerifyClass::RaceCheck) > 0, "{racy}");
        let fixed = verify(&direct(true), 64);
        assert!(fixed.clean(), "{fixed}");
    }

    /// Same conflict pattern entirely within one warp: exempt, as in
    /// simsan (lockstep warp execution orders the accesses).
    #[test]
    fn same_warp_conflict_is_exempt() {
        let k = slab_kernel(|b, slab, tid| {
            let t64 = b.cvt(Ty::I64, tid);
            b.st_shared(
                Ty::I32,
                MemRef::indexed(Value::U64(slab as u64), t64, 4),
                tid,
            );
            // tid reads slot 31-tid: different thread, same warp.
            let m = b.bin(BinOp::Sub, Ty::I32, Value::I32(31), tid);
            let m64 = b.cvt(Ty::I64, m);
            let _ = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), m64, 4));
        });
        let rep = verify(&k, 32);
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.count(VerifyClass::RaceCheck), 0);
    }

    /// Reading shared memory nothing wrote is a static initcheck finding.
    #[test]
    fn uninitialized_read_is_flagged() {
        let k = slab_kernel(|b, slab, tid| {
            let t64 = b.cvt(Ty::I64, tid);
            let _ = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), t64, 4));
        });
        let rep = verify(&k, 32);
        assert_eq!(rep.count(VerifyClass::InitCheck), 1, "{rep}");
    }

    /// An access past `shared_bytes` is a static boundscheck finding.
    #[test]
    fn out_of_bounds_access_is_flagged() {
        let k = slab_kernel(|b, slab, tid| {
            let t64 = b.cvt(Ty::I64, tid);
            b.st_shared(
                Ty::I32,
                MemRef::indexed(Value::U64(slab as u64), t64, 4).with_disp(256 - 4),
                tid,
            );
        });
        let rep = verify(&k, 32);
        assert_eq!(rep.count(VerifyClass::BoundsCheck), 1, "{rep}");
    }

    /// Stride-32 word accesses within a warp all land in one bank: the
    /// warn-only bank-conflict diagnostic fires, but the kernel is clean.
    #[test]
    fn bank_conflict_is_warn_only() {
        let mut b = KernelBuilder::new("banks");
        let slab = b.alloc_shared(32 * 32 * 4, 8);
        let tid = b.special(SpecialReg::TidX);
        let idx = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(32));
        let i64v = b.cvt(Ty::I64, idx);
        b.st_shared(
            Ty::I32,
            MemRef::indexed(Value::U64(slab as u64), i64v, 4),
            tid,
        );
        let k = b.finish();
        let rep = verify(&k, 32);
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.count(VerifyClass::BankConflict), 1, "{rep}");
        // Degree is in the message.
        assert!(rep.findings[0].detail.contains("32-way"), "{rep}");
    }

    /// An address the affine lattice cannot express (shared load through
    /// a value loaded from memory) is unproven, not a false positive.
    #[test]
    fn unprovable_address_is_a_warning_not_an_error() {
        let k = slab_kernel(|b, slab, tid| {
            let t64 = b.cvt(Ty::I64, tid);
            b.st_shared(
                Ty::I32,
                MemRef::indexed(Value::U64(slab as u64), t64, 4),
                tid,
            );
            b.bar();
            let v = b.ld_shared(Ty::I32, MemRef::direct(Value::U64(slab as u64)));
            let v64 = b.cvt(Ty::I64, v);
            let _ = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), v64, 4));
        });
        let rep = verify(&k, 64);
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.unproven, 1);
    }
}
