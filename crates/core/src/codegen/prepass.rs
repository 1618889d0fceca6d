//! Planning pass run before code emission.
//!
//! Walks the region once to:
//! - resolve each reduction's *effective* span (auto-detected §3.2.1 span,
//!   or the clause's own levels for baseline personalities),
//! - reject unsupported reductions (the baseline "CE" entries) and invalid
//!   shapes (mixed-depth updates, gang reductions on locals),
//! - size the shared-memory combine slab (§3.3: one slab sized for the
//!   widest type, shared by every combine),
//! - allocate global partials buffers for gang-spanning reductions and the
//!   global-combine staging buffer when `CombineSpace::Global`,
//! - decide which loops need the uniform-trip-count (padded) form because
//!   a barrier-bearing combine executes inside them,
//! - plan the host-scalar mailbox.

use crate::options::{CombineSpace, CompilerOptions};
use crate::plan::{BufferPurpose, BufferSpec, HostWriteback, LaunchDims, ResultRead};
use crate::types::machine_ty;
use accparse::ast::{CType, Level};
use accparse::diag::Diag;
use accparse::hir::{AnalyzedRegion, HStmt, Reduction, Sym};
use gpsim::WARP_SIZE;

/// Planned facts about one reduction instance, in pre-order walk order.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRed {
    /// Effective span after applying `auto_span` / `clause_levels_only`.
    pub span: Vec<Level>,
    /// Gang partials buffer index, when the span includes gang.
    pub buffer: Option<usize>,
}

/// The full plan for a region.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// Per reduction instance (walk order).
    pub reds: Vec<PlannedRed>,
    /// Per loop (pre-order walk order): emit the padded uniform-trip form.
    pub padded: Vec<bool>,
    /// Shared slab size in bytes (0 if no shared combines).
    pub slab_bytes: usize,
    pub buffers: Vec<BufferSpec>,
    pub results: Vec<ResultRead>,
    pub writebacks: Vec<HostWriteback>,
    pub mailbox: Option<usize>,
    /// Global staging buffer for `CombineSpace::Global` combines.
    pub global_combine_buf: Option<usize>,
}

/// The effective span of a reduction under the given options.
pub(crate) fn effective_span(r: &Reduction, opts: &CompilerOptions) -> Vec<Level> {
    if opts.auto_span && !opts.bugs.clause_levels_only {
        r.span_levels.clone()
    } else {
        r.clause_levels.clone()
    }
}

/// Barrier regime for a vector-span combine: the per-row tree can run
/// warp-synchronously only when each worker row is contained in (an
/// aligned part of) one warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VectorBarMode {
    /// Rows never cross a warp boundary: no barriers at all.
    NoBars,
    /// Rows are warp-aligned multiples of the warp: barrier after staging
    /// and after steps with `s > 32` (the §3.3 warp-synchronous tail).
    WarpSyncTail,
    /// Rows straddle warp boundaries (non-multiple-of-32 vector length):
    /// a barrier after every step.
    EveryStep,
}

/// Decide the barrier regime for a vector-span combine under `dims`.
pub(crate) fn vector_bar_mode(dims: LaunchDims) -> VectorBarMode {
    let tpb = dims.threads_per_block();
    let v = dims.vector;
    if tpb <= WARP_SIZE || (v <= WARP_SIZE && WARP_SIZE.is_multiple_of(v)) {
        VectorBarMode::NoBars
    } else if v.is_multiple_of(WARP_SIZE) {
        VectorBarMode::WarpSyncTail
    } else {
        VectorBarMode::EveryStep
    }
}

/// Does the in-kernel combine for `span` emit block barriers? Must stay an
/// upper bound on what the emitters in `reduce.rs` produce — the padded
/// loop decision depends on it.
pub(crate) fn combine_has_bars(span: &[Level], dims: LaunchDims, opts: &CompilerOptions) -> bool {
    if span.is_empty() || span.contains(&Level::Gang) {
        return false;
    }
    if opts.tree == crate::options::TreeStyle::Looped {
        return dims.threads_per_block() > WARP_SIZE;
    }
    if span == [Level::Vector] {
        return vector_bar_mode(dims) != VectorBarMode::NoBars;
    }
    // [Worker] and [Worker, Vector] stage across the whole block.
    dims.threads_per_block() > WARP_SIZE
}

/// Shared-slab bytes needed by the combine for one reduction (0 when the
/// combine doesn't use shared memory).
fn slab_need(span: &[Level], ty: CType, dims: LaunchDims, opts: &CompilerOptions) -> usize {
    if span.is_empty() || span.contains(&Level::Gang) {
        return 0;
    }
    if opts.combine_space == CombineSpace::Global {
        return 0;
    }
    let esize = machine_ty(ty).size();
    if span == [Level::Worker] && opts.worker_strategy == crate::options::WorkerStrategy::FirstRow {
        dims.workers as usize * esize
    } else {
        // Vector (both layouts), worker duplicate-rows, worker+vector: one
        // element per thread.
        dims.threads_per_block() as usize * esize
    }
}

/// Gang partials buffer length (participants) for a gang-spanning `span`.
pub(crate) fn gang_buffer_elems(span: &[Level], dims: LaunchDims) -> u64 {
    debug_assert!(span.contains(&Level::Gang));
    let mut n = dims.gangs as u64;
    if span.contains(&Level::Worker) {
        n *= dims.workers as u64;
    }
    if span.contains(&Level::Vector) {
        n *= dims.vector as u64;
    }
    n
}

pub(crate) fn prepass(
    region: &AnalyzedRegion,
    dims: LaunchDims,
    opts: &CompilerOptions,
) -> Result<Plan, Diag> {
    let mut plan = Plan {
        reds: Vec::new(),
        padded: Vec::new(),
        slab_bytes: 0,
        buffers: Vec::new(),
        results: Vec::new(),
        writebacks: Vec::new(),
        mailbox: None,
        global_combine_buf: None,
    };
    let mut gang_red_hosts: Vec<usize> = Vec::new();
    let mut needs_global_combine = false;

    walk_stmts(&region.body, &mut plan, dims, opts, &mut |red, plan| {
        let span = effective_span(red, opts);
        if let Some(rule) = opts.rejected(&span, red.op) {
            return Err(Diag::new(
                format!(
                    "this compiler cannot handle a {} reduction spanning {:?}: {}",
                    red.op.clause_token(),
                    span,
                    rule.reason
                ),
                red.span,
            ));
        }
        if red.mixed_updates {
            return Err(Diag::new(
                "reduction variable is updated at multiple parallelism depths; \
                 hoist the shallow update out of the parallel loop",
                red.span,
            ));
        }
        let mut buffer = None;
        if span.contains(&Level::Gang) {
            let host = match red.sym {
                Sym::Host(h) => h,
                Sym::Local(_) => {
                    return Err(Diag::new(
                        "a reduction spanning gang parallelism must target a host \
                         scalar (its value is only available after the region)",
                        red.span,
                    ));
                }
            };
            let idx = plan.buffers.len();
            let atomic = opts.gang_strategy == crate::options::GangStrategy::Atomic
                && crate::types::atomic_op(red.op).is_some();
            if atomic {
                plan.buffers.push(BufferSpec {
                    elems: 1,
                    ty: red.ty,
                    purpose: BufferPurpose::GangAtomic,
                    init: Some(crate::types::identity(red.op, red.ty)),
                });
            } else {
                plan.buffers.push(BufferSpec {
                    elems: gang_buffer_elems(&span, dims),
                    ty: red.ty,
                    purpose: BufferPurpose::GangPartials,
                    init: None,
                });
            }
            plan.results.push(ResultRead {
                host,
                buffer: idx,
                op: red.op,
                fold: !opts.bugs.skip_init_fold,
            });
            gang_red_hosts.push(host);
            buffer = Some(idx);
        } else if !span.is_empty() {
            let need = slab_need(&span, red.ty, dims, opts);
            plan.slab_bytes = plan.slab_bytes.max(need);
            if opts.combine_space == CombineSpace::Global {
                needs_global_combine = true;
            }
        }
        plan.reds.push(PlannedRed { span, buffer });
        Ok(())
    })?;

    if needs_global_combine {
        let idx = plan.buffers.len();
        plan.buffers.push(BufferSpec {
            elems: dims.total_threads() as u64,
            ty: CType::Long, // 8-byte slots, shared across types
            purpose: BufferPurpose::GlobalCombine,
            init: None,
        });
        plan.global_combine_buf = Some(idx);
    }

    // Mailbox: host scalars written in-kernel, excluding gang-reduction
    // targets (those come back through ResultRead).
    let mut slot = 0u64;
    for &h in &region.hosts_written {
        if !gang_red_hosts.contains(&h) {
            plan.writebacks.push(HostWriteback { host: h, slot });
            slot += 1;
        }
    }
    if !plan.writebacks.is_empty() {
        let idx = plan.buffers.len();
        plan.buffers.push(BufferSpec {
            elems: slot,
            ty: CType::Long, // 8-byte slots
            purpose: BufferPurpose::Mailbox,
            init: None,
        });
        plan.mailbox = Some(idx);
    }

    Ok(plan)
}

/// Walk statements, assigning loop ids (pre-order) and reduction ids (walk
/// order) and computing padding. Loop ids follow the walk order of loops
/// the code generator uses: pre-order over statements.
fn walk_stmts(
    stmts: &[HStmt],
    plan: &mut Plan,
    dims: LaunchDims,
    opts: &CompilerOptions,
    on_red: &mut impl FnMut(&Reduction, &mut Plan) -> Result<(), Diag>,
) -> Result<bool, Diag> {
    let mut subtree_bars = false;
    for s in stmts {
        let HStmt::Loop(l) = s else {
            for body in s.bodies() {
                subtree_bars |= walk_stmts(body, plan, dims, opts, on_red)?;
            }
            continue;
        };
        let my_id = plan.padded.len();
        plan.padded.push(false); // placeholder, fixed below
        for r in &l.reductions {
            on_red(r, plan)?;
        }
        let inner_bars = walk_stmts(&l.body, plan, dims, opts, on_red)?;
        let pos_on_tid = l
            .sched
            .iter()
            .any(|lv| matches!(lv, Level::Worker | Level::Vector));
        plan.padded[my_id] = pos_on_tid && inner_bars;
        // Bars visible to *enclosing* loops: inner bars plus this
        // loop's own combines.
        let own_bars = l
            .reductions
            .iter()
            .any(|r| combine_has_bars(&effective_span(r, opts), dims, opts));
        subtree_bars |= inner_bars || own_bars;
    }
    Ok(subtree_bars)
}

/// The largest power of two that is at most `n` (`n >= 1`).
pub(crate) fn next_pow2_at_most(n: u32) -> u32 {
    debug_assert!(n >= 1);
    let mut p = 1u32;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_helper() {
        assert_eq!(next_pow2_at_most(1), 1);
        assert_eq!(next_pow2_at_most(2), 2);
        assert_eq!(next_pow2_at_most(3), 2);
        assert_eq!(next_pow2_at_most(96), 64);
        assert_eq!(next_pow2_at_most(128), 128);
        assert_eq!(next_pow2_at_most(1000), 512);
    }

    #[test]
    fn combine_bars_rules() {
        let o = CompilerOptions::openuh();
        let d = LaunchDims {
            gangs: 4,
            workers: 8,
            vector: 128,
        };
        assert!(combine_has_bars(&[Level::Vector], d, &o));
        assert!(combine_has_bars(&[Level::Worker], d, &o));
        assert!(combine_has_bars(&[Level::Worker, Level::Vector], d, &o));
        assert!(!combine_has_bars(&[Level::Gang], d, &o));
        assert!(!combine_has_bars(
            &[Level::Gang, Level::Worker, Level::Vector],
            d,
            &o
        ));
        assert!(!combine_has_bars(&[], d, &o));
        let small = LaunchDims {
            gangs: 4,
            workers: 1,
            vector: 32,
        };
        assert!(!combine_has_bars(&[Level::Vector], small, &o));
        assert!(!combine_has_bars(&[Level::Worker], small, &o));
        // Looped trees always bar when the block spans multiple warps.
        let looped = CompilerOptions {
            tree: crate::options::TreeStyle::Looped,
            ..CompilerOptions::openuh()
        };
        assert!(combine_has_bars(
            &[Level::Vector],
            LaunchDims {
                gangs: 4,
                workers: 2,
                vector: 32
            },
            &looped
        ));
        assert!(!combine_has_bars(
            &[Level::Vector],
            LaunchDims {
                gangs: 4,
                workers: 1,
                vector: 16
            },
            &looped
        ));
        // Unrolled trees: rows crossing warp boundaries need barriers even
        // with vector <= 32 (the warp-sync assumption breaks).
        assert!(combine_has_bars(
            &[Level::Vector],
            LaunchDims {
                gangs: 1,
                workers: 2,
                vector: 17
            },
            &o
        ));
        assert_eq!(
            vector_bar_mode(LaunchDims {
                gangs: 1,
                workers: 2,
                vector: 17
            }),
            VectorBarMode::EveryStep
        );
        assert_eq!(
            vector_bar_mode(LaunchDims {
                gangs: 1,
                workers: 8,
                vector: 128
            }),
            VectorBarMode::WarpSyncTail
        );
        assert_eq!(
            vector_bar_mode(LaunchDims {
                gangs: 1,
                workers: 4,
                vector: 16
            }),
            VectorBarMode::NoBars
        );
        assert_eq!(
            vector_bar_mode(LaunchDims {
                gangs: 1,
                workers: 8,
                vector: 48
            }),
            VectorBarMode::EveryStep
        );
    }

    #[test]
    fn gang_buffer_sizing() {
        let d = LaunchDims {
            gangs: 10,
            workers: 4,
            vector: 32,
        };
        assert_eq!(gang_buffer_elems(&[Level::Gang], d), 10);
        assert_eq!(gang_buffer_elems(&[Level::Gang, Level::Worker], d), 40);
        assert_eq!(gang_buffer_elems(&[Level::Gang, Level::Vector], d), 320);
        assert_eq!(
            gang_buffer_elems(&[Level::Gang, Level::Worker, Level::Vector], d),
            1280
        );
    }
}
