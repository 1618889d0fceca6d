//! The warp: its width, and the SIMT scheduling rule every engine runs a
//! block's lanes through.
//!
//! - A block's threads are grouped into warps of [`WARP_SIZE`] consecutive
//!   linear ids (`tid.y * ntid.x + tid.x`), executed in lockstep.
//! - Divergence uses *min-PC reconvergence*: a warp repeatedly executes the
//!   instruction at the smallest program counter among its runnable lanes,
//!   with the active mask being exactly the lanes at that PC
//!   (`next_group`). For the structured control flow our compilers emit
//!   this reconverges at the immediate post-dominator, like hardware.
//! - Warps are scheduled run-to-block: each warp executes until all its
//!   lanes have exited or arrived at a barrier, then the next warp runs.
//!   This is deterministic; racy programs (e.g. a missing
//!   `__syncthreads()`) produce deterministic *wrong* answers, which is how
//!   the baseline compilers' miscompilations manifest, rather than flaky
//!   tests.
//! - When every warp is blocked, a barrier round (`barrier_round`) ends
//!   the block (every thread exited), releases the barrier (every live
//!   thread waits at one site) or reports the divergent sites. Scheduling
//!   run-to-block means every live thread has arrived by then, so a
//!   barrier cannot deadlock.
//!
//! The interpreter ([`crate::exec`]), the typed tier ([`crate::compiled`])
//! and redcert's executor ([`crate::cert::run_symbolic`]) all run lanes
//! through these functions; each keeps its own per-instruction semantics.
//! A lane's special registers are `SpecialReg::value` in [`crate::ir`].

use std::ops::Range;

/// Threads per warp. Codegen's warp-synchronous tree (§3.3 of the paper:
/// no `__syncthreads()` once the active lanes fit in one warp) and
/// kverify's same-warp exemption read it too.
pub const WARP_SIZE: u32 = 32;

/// One thread's scheduling state and registers (`R` is the engine's
/// register value).
pub(crate) struct Thread<R> {
    pub(crate) pc: usize,
    pub(crate) exited: bool,
    pub(crate) at_barrier: bool,
    pub(crate) regs: Vec<R>,
}

impl<R: Clone> Thread<R> {
    /// A thread at pc 0 with `n` registers holding `zero`.
    pub(crate) fn new(zero: R, n: usize) -> Self {
        Thread {
            pc: 0,
            exited: false,
            at_barrier: false,
            regs: vec![zero; n],
        }
    }
}

impl<R> Thread<R> {
    pub(crate) fn runnable(&self) -> bool {
        !self.exited && !self.at_barrier
    }
}

/// The lanes of warp `w` in a block of `n` threads.
pub(crate) fn lanes(w: usize, n: usize) -> Range<usize> {
    let lo = w * WARP_SIZE as usize;
    lo..(lo + WARP_SIZE as usize).min(n)
}

/// Pick the next group of the warp whose lanes are `lanes`: write the
/// runnable lanes resting at the smallest pc into `mask` and return that
/// pc, and whether the group is all of the warp's runnable lanes. `None`
/// when no lane is runnable (each has exited or waits at a barrier).
#[inline]
pub(crate) fn next_group<R>(
    threads: &[Thread<R>],
    lanes: Range<usize>,
    mask: &mut Vec<usize>,
) -> Option<(usize, bool)> {
    let mut min_pc = usize::MAX;
    let mut runnable = 0usize;
    for t in &threads[lanes.clone()] {
        if t.runnable() {
            runnable += 1;
            min_pc = min_pc.min(t.pc);
        }
    }
    if runnable == 0 {
        return None;
    }
    mask.clear();
    mask.extend(lanes.filter(|&l| threads[l].runnable() && threads[l].pc == min_pc));
    Some((min_pc, mask.len() == runnable))
}

/// The outcome of a barrier round.
pub(crate) enum BarrierRound {
    /// Every thread has exited: the block is done.
    Done,
    /// Every live thread waited at one barrier, and all now run on.
    Released,
    /// Live threads wait at different barriers (`__syncthreads()` under
    /// divergent control flow): each site's `Bar` pc with its thread
    /// count, in the order of the first lane at each.
    Divergent { sites: Vec<(usize, usize)> },
}

/// Decide the barrier round run when every warp of the block is blocked.
pub(crate) fn barrier_round<R>(threads: &mut [Thread<R>]) -> BarrierRound {
    debug_assert!(
        threads.iter().all(|t| !t.runnable()),
        "a lane is still runnable"
    );
    let mut waiting = threads.iter().filter(|t| t.at_barrier);
    let Some(first) = waiting.next() else {
        return BarrierRound::Done;
    };
    let site = first.pc;
    if waiting.all(|t| t.pc == site) {
        for t in threads.iter_mut() {
            t.at_barrier = false;
        }
        return BarrierRound::Released;
    }
    // A waiting thread rests just past its `Bar`.
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for t in threads.iter().filter(|t| t.at_barrier) {
        match sites.iter_mut().find(|(pc, _)| *pc == t.pc - 1) {
            Some((_, n)) => *n += 1,
            None => sites.push((t.pc - 1, 1)),
        }
    }
    BarrierRound::Divergent { sites }
}
