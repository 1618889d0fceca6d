//! simsan — a compute-sanitizer-style hazard detector for the simulator.
//!
//! Real reduction miscompilations (a dropped `__syncthreads()`, a
//! warp-synchronous tail used across warp boundaries, a reused staging
//! slab) are *races*: whether they corrupt the answer depends on warp
//! scheduling. This simulator schedules warps run-to-block and commits
//! blocks in linear block-id order (even when blocks execute on parallel
//! host threads), so a racy kernel produces one deterministic result — it
//! may even be the correct one. The sanitizer closes that gap: it tracks
//! shadow state per memory byte and reports the hazard itself, not its
//! (schedule-dependent) consequence.
//!
//! Three checkers, mirroring `compute-sanitizer`'s tools:
//!
//! - **racecheck** — shared-memory conflicts between threads of *different
//!   warps* with no intervening barrier, and global-memory conflicts
//!   between *different blocks* within one launch. Same-warp accesses are
//!   exempt: warps execute in lockstep, so ordering within a warp is
//!   architectural (this is exactly what makes the paper's §3.3
//!   warp-synchronous tail legal). Atomic-vs-atomic global accesses are
//!   exempt. Same-block global conflicts are not checked: our codegen
//!   orders those through the shared-memory combine, and the hardware tool
//!   this models restricts racecheck to shared memory too.
//! - **initcheck** — reads of shared-memory bytes never written since the
//!   block started. The simulator zero-fills shared memory, which would
//!   otherwise mask this whole bug class.
//! - **synccheck** — barrier misuse (divergent `__syncthreads()` sites,
//!   barriers that can never fill), folded into the same report stream
//!   with per-thread context; the launch still fails with the
//!   corresponding [`crate::SimError`].
//!
//! The shadow scheme is two-level so blocks can execute concurrently:
//!
//! - [`BlockSanitizer`] owns everything one block can judge on its own.
//!   Shared memory keeps one cell per byte with the last writer, last
//!   reader and a *barrier epoch* (incremented each time the block's
//!   barrier releases). Two accesses conflict iff they touch the same
//!   byte, at least one writes, they come from different warps, and they
//!   share an epoch. Those reports — plus initcheck and synccheck — go
//!   into an ordered per-block log. Global-memory accesses cannot be
//!   judged locally (the conflicting access lives in another block), so
//!   the log records them raw.
//! - [`LaunchSanitizer`] merges block logs **in linear block-id order**,
//!   replaying the raw global accesses through a launch-wide per-byte
//!   shadow with the last writer and the last two readers from distinct
//!   blocks. Because the merge order equals the sequential execution
//!   order, the reports (text, order, count) are bit-identical at any
//!   host thread count — and because both executors merge serially, the
//!   shadow is single-threaded.
//!
//! The global shadow is a [`Paged`] table: 4 Ki-cell pages allocated on
//! first touch, found through a last-page memo, so the per-byte step is an
//! index and not a hash. A cell is three `u32` ids (12 bytes) into one
//! launch-wide list that every merged access is appended to once; the
//! all-zero cell is the empty one, so a fresh page is a `calloc`. **The
//! memory bound:** 48 KiB per *touched page* (the hash map this replaced
//! cost ~110 bytes per *touched byte*), plus 32 bytes per merged access.
//! Dense access — every real reduction — is therefore ~9× smaller; the
//! worst case is one access per page, 12 × the span of device addresses
//! the kernel can reach, which the device's global-memory size bounds
//! (a wild pointer past it is observed for the one warp instruction the
//! bounds check then rejects, a block at a time).
//!
//! Reports are deduplicated by the PC pair so a race inside a loop is
//! reported once, and capped at [`SanitizerConfig::max_reports`] (the
//! count of distinct hazards keeps accumulating past the cap).

use std::collections::HashSet;
use std::fmt;

use crate::ir::{AccessKind, Space};
use crate::shadow::Paged;

/// How much checking to do during a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerLevel {
    /// No instrumentation (the default; zero overhead).
    #[default]
    Off,
    /// Race detection only (shared cross-warp + global cross-block).
    Race,
    /// Uninitialized-shared-read detection only.
    Init,
    /// Barrier-misuse reporting only.
    Sync,
    /// All checkers.
    Full,
}

impl SanitizerLevel {
    /// Is any checker active?
    pub fn enabled(&self) -> bool {
        !matches!(self, SanitizerLevel::Off)
    }

    /// Is racecheck active?
    pub fn race(&self) -> bool {
        matches!(self, SanitizerLevel::Race | SanitizerLevel::Full)
    }

    /// Is initcheck active?
    pub fn init(&self) -> bool {
        matches!(self, SanitizerLevel::Init | SanitizerLevel::Full)
    }

    /// Is synccheck active?
    pub fn sync(&self) -> bool {
        matches!(self, SanitizerLevel::Sync | SanitizerLevel::Full)
    }
}

/// Sanitizer configuration attached to a [`crate::Device`].
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerConfig {
    /// Which checkers run.
    pub level: SanitizerLevel,
    /// Keep at most this many structured reports per device (further
    /// distinct hazards are still *counted*, just not materialized).
    pub max_reports: usize,
    /// Half-open `[start, end)` global address ranges exempt from
    /// racecheck. The runtime uses this for intentionally multi-writer
    /// buffers (e.g. the scalar-writeback mailbox, where every block
    /// stores the same region-uniform value).
    pub global_ignore: Vec<(u64, u64)>,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            level: SanitizerLevel::Off,
            max_reports: 64,
            global_ignore: Vec::new(),
        }
    }
}

impl SanitizerConfig {
    /// All checkers on, default caps.
    pub fn full() -> Self {
        SanitizerConfig {
            level: SanitizerLevel::Full,
            ..Default::default()
        }
    }
}

/// The hazard taxonomy (compute-sanitizer tool names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardClass {
    RaceCheck,
    InitCheck,
    SyncCheck,
}

impl HazardClass {
    /// Tool-style lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            HazardClass::RaceCheck => "racecheck",
            HazardClass::InitCheck => "initcheck",
            HazardClass::SyncCheck => "synccheck",
        }
    }
}

impl fmt::Display for HazardClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One side of a hazard: who touched the byte, where, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Block index of the accessing thread.
    pub block: (u32, u32),
    /// Linear thread id within the block.
    pub thread: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Instruction index in the kernel.
    pub pc: usize,
    /// Barrier epoch within the block at access time.
    pub epoch: u32,
    pub kind: AccessKind,
}

impl fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by thread {} (block ({},{}), warp {}, pc {}, epoch {})",
            self.kind, self.thread, self.block.0, self.block.1, self.warp, self.pc, self.epoch
        )
    }
}

/// A structured hazard report.
#[derive(Debug, Clone, PartialEq)]
pub struct HazardReport {
    pub class: HazardClass,
    pub space: Space,
    /// Shared: byte offset into the block's slab. Global: device address.
    pub addr: u64,
    /// The earlier access (absent for initcheck — there is no writer — and
    /// for synccheck).
    pub first: Option<AccessInfo>,
    /// The access that exposed the hazard (absent for synccheck, whose
    /// context lives in `detail`).
    pub second: Option<AccessInfo>,
    /// Human-readable one-line description.
    pub detail: String,
}

impl fmt::Display for HazardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.detail)
    }
}

/// Dedup key: a hazard class plus the PC pair it fired on.
type HazardKey = (HazardClass, usize, usize);

#[derive(Clone, Default)]
struct SharedCell {
    written: bool,
    last_write: Option<AccessInfo>,
    last_read: Option<AccessInfo>,
    /// Most recent read from a warp *other* than `last_read`'s. One slot
    /// would let a warp's own read-before-write shadow an earlier reader
    /// (tree steps load both operands before storing); two slots from
    /// distinct warps are enough to catch any multi-warp read set, since
    /// flagging one conflicting reader is all a report needs.
    other_read: Option<AccessInfo>,
}

/// Launch-wide shadow of one global byte: `[last_write, last_read,
/// other_read]`, the last being the most recent read from a block other
/// than `last_read`'s (same two-slot rationale as
/// [`SharedCell::other_read`]). Each is an id into
/// [`LaunchSanitizer::accesses`] (index + 1; 0 = no such access), so a cell
/// is 12 bytes, the all-zero cell is the empty one, and — an array of
/// integers being what `vec!` zero-allocates — a fresh page is a `calloc`.
type GlobalCell = [u32; 3];

/// Cells per page of the global shadow (see the module docs for the bound).
const GLOBAL_PAGE_BITS: u32 = 12;

/// One entry of a block's ordered hazard log.
enum SanEvent {
    /// A report fully determined inside one block (shared races,
    /// initcheck, synccheck), already rendered, with its dedup key.
    Local {
        key: HazardKey,
        report: HazardReport,
    },
    /// A raw global-memory access, replayed against the launch-wide
    /// shadow at merge time — the conflicting access may live in another
    /// block, so it cannot be judged locally.
    Global {
        acc: AccessInfo,
        addr: u64,
        size: usize,
    },
}

/// Per-block sanitizer state: the shared-memory shadow, barrier epoch and
/// an ordered log of what the block observed.
///
/// One instance observes one block; it is safe to drive many of them from
/// concurrent host threads. [`LaunchSanitizer::merge_block`] folds them
/// back in linear block-id order, which reproduces the sequential report
/// stream exactly.
pub struct BlockSanitizer {
    cfg: SanitizerConfig,
    block: (u32, u32),
    epoch: u32,
    shared: Vec<SharedCell>,
    /// Block-local dedup of `Local` reports. This bounds log growth (a
    /// race inside a loop logs once per block); the merge dedups again
    /// launch-wide, and keeping each block's *first* occurrence is exactly
    /// what the sequential order would have kept.
    seen: HashSet<HazardKey>,
    log: Vec<SanEvent>,
}

impl BlockSanitizer {
    /// Fresh shadow state for one block with `shared_bytes` of shared
    /// memory.
    pub fn new(cfg: SanitizerConfig, block: (u32, u32), shared_bytes: usize) -> Self {
        let shared_bytes = if cfg.level.init() || cfg.level.race() {
            shared_bytes
        } else {
            0
        };
        BlockSanitizer {
            cfg,
            block,
            epoch: 0,
            shared: vec![SharedCell::default(); shared_bytes],
            seen: HashSet::new(),
            log: Vec::new(),
        }
    }

    /// The block's barrier released: accesses before and after are ordered.
    pub fn barrier_release(&mut self) {
        self.epoch += 1;
    }

    fn push(&mut self, report: HazardReport) {
        let key = (
            report.class,
            report.first.map_or(usize::MAX, |a| a.pc),
            report.second.map_or(usize::MAX, |a| a.pc),
        );
        self.push_keyed(key, report);
    }

    fn push_keyed(&mut self, key: HazardKey, report: HazardReport) {
        if self.seen.insert(key) {
            self.log.push(SanEvent::Local { key, report });
        }
    }

    /// Observe one lane's shared-memory access of `size` bytes at byte
    /// offset `off`.
    pub fn shared_access(
        &mut self,
        thread: u32,
        warp: u32,
        pc: usize,
        off: u64,
        size: usize,
        write: bool,
    ) {
        let acc = AccessInfo {
            block: self.block,
            thread,
            warp,
            pc,
            epoch: self.epoch,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        };
        // Saturating: a wild offset near `u64::MAX` is observed before the
        // access rejects it and must not overflow here.
        for b in off..off.saturating_add(size as u64) {
            let Some(cell) = self.shared.get(b as usize) else {
                continue; // out of bounds: the interpreter reports that itself
            };
            if !write && self.cfg.level.init() && !cell.written {
                self.push(HazardReport {
                    class: HazardClass::InitCheck,
                    space: Space::Shared,
                    addr: b,
                    first: None,
                    second: Some(acc),
                    detail: format!(
                        "{} of uninitialized shared byte +{b} (never written since block start)",
                        acc
                    ),
                });
            }
            if self.cfg.level.race() {
                let conflicts = |p: &AccessInfo| p.warp != warp && p.epoch == self.epoch;
                let cell = &self.shared[b as usize];
                let prior = if write {
                    cell.last_write
                        .filter(conflicts)
                        .or(cell.last_read.filter(conflicts))
                        .or(cell.other_read.filter(conflicts))
                } else {
                    cell.last_write.filter(conflicts)
                };
                if let Some(p) = prior {
                    self.push(HazardReport {
                        class: HazardClass::RaceCheck,
                        space: Space::Shared,
                        addr: b,
                        first: Some(p),
                        second: Some(acc),
                        detail: format!(
                            "shared byte +{b}: {acc} conflicts with {p} — \
                             different warps, no barrier between"
                        ),
                    });
                }
            }
            let cell = &mut self.shared[b as usize];
            if write {
                cell.written = true;
                cell.last_write = Some(acc);
            } else {
                if let Some(lr) = cell.last_read {
                    if lr.warp != acc.warp {
                        cell.other_read = Some(lr);
                    }
                }
                cell.last_read = Some(acc);
            }
        }
    }

    /// Observe one lane's global-memory access of `size` bytes at device
    /// address `addr`. Logged raw; judged at merge time.
    pub fn global_access(
        &mut self,
        thread: u32,
        warp: u32,
        pc: usize,
        addr: u64,
        size: usize,
        kind: AccessKind,
    ) {
        if !self.cfg.level.race() {
            return;
        }
        if self
            .cfg
            .global_ignore
            .iter()
            .any(|&(s, e)| addr >= s && addr < e)
        {
            return;
        }
        let acc = AccessInfo {
            block: self.block,
            thread,
            warp,
            pc,
            epoch: self.epoch,
            kind,
        };
        self.log.push(SanEvent::Global { acc, addr, size });
    }

    /// Fold a divergent-barrier error into the report stream.
    pub fn sync_divergence(&mut self, pc_a: usize, pc_b: usize, detail: String) {
        if !self.cfg.level.sync() {
            return;
        }
        let block = self.block;
        self.push_keyed(
            (HazardClass::SyncCheck, pc_a, pc_b),
            HazardReport {
                class: HazardClass::SyncCheck,
                space: Space::Shared,
                addr: 0,
                first: None,
                second: None,
                detail: format!(
                    "block ({},{}): __syncthreads() under divergent control flow \
                     (barrier sites pc {pc_a} vs pc {pc_b}); {detail}",
                    block.0, block.1
                ),
            },
        );
    }

    /// Fold a barrier-deadlock error into the report stream.
    pub fn sync_deadlock(&mut self, arrived: usize, expected: usize, detail: String) {
        if !self.cfg.level.sync() {
            return;
        }
        let block = self.block;
        self.push_keyed(
            (HazardClass::SyncCheck, usize::MAX, expected),
            HazardReport {
                class: HazardClass::SyncCheck,
                space: Space::Shared,
                addr: 0,
                first: None,
                second: None,
                detail: format!(
                    "block ({},{}): barrier can never fill ({arrived}/{expected} threads \
                     arrived); {detail}",
                    block.0, block.1
                ),
            },
        );
    }
}

/// Per-launch sanitizer state: the global shadow + collected reports.
///
/// One instance observes one launch; [`crate::Device::launch`] creates it
/// when the device's [`SanitizerConfig`] enables a checker and harvests
/// its reports afterwards (on the error path too, so synccheck reports
/// survive the launch failing). Blocks record into [`BlockSanitizer`]s —
/// possibly concurrently — and are folded back with
/// [`LaunchSanitizer::merge_block`] in linear block-id order.
pub struct LaunchSanitizer {
    cfg: SanitizerConfig,
    reports: Vec<HazardReport>,
    /// Distinct hazards observed (reports + those past `max_reports`).
    count: u64,
    seen: HashSet<HazardKey>,
    global: Paged<GlobalCell, GLOBAL_PAGE_BITS>,
    /// Every global access merged so far, in merge order; what the ids in
    /// a [`GlobalCell`] point into.
    accesses: Vec<AccessInfo>,
}

impl LaunchSanitizer {
    /// Fresh state for one launch.
    pub fn new(cfg: SanitizerConfig) -> Self {
        LaunchSanitizer {
            cfg,
            reports: Vec::new(),
            count: 0,
            seen: HashSet::new(),
            global: Paged::default(),
            accesses: Vec::new(),
        }
    }

    /// The launch's sanitizer configuration (cloned into each block's
    /// [`BlockSanitizer`]).
    pub fn config(&self) -> &SanitizerConfig {
        &self.cfg
    }

    /// Fold one finished block's log into the launch state. Call in
    /// linear block-id order: the merge order defines the report order,
    /// and block-id order reproduces the sequential executor exactly.
    pub fn merge_block(&mut self, block: BlockSanitizer) {
        for ev in block.log {
            match ev {
                SanEvent::Local { key, report } => self.push_keyed(key, report),
                SanEvent::Global { acc, addr, size } => self.replay_global(acc, addr, size),
            }
        }
    }

    fn push_keyed(&mut self, key: HazardKey, report: HazardReport) {
        if !self.seen.insert(key) {
            return;
        }
        self.count += 1;
        if self.reports.len() < self.cfg.max_reports {
            self.reports.push(report);
        }
    }

    /// Replay one logged global access against the launch-wide per-byte
    /// shadow (level/ignore-range filtering already happened at log time).
    fn replay_global(&mut self, acc: AccessInfo, addr: u64, size: usize) {
        let kind = acc.kind;
        self.accesses.push(acc);
        let id = u32::try_from(self.accesses.len()).expect("under 2^32 global accesses per launch");
        for b in addr..addr.saturating_add(size as u64) {
            let [last_write, last_read, other_read] = *self.global.slot(b);
            // The access behind an id, if it came from another block.
            let foreign = |id: u32| {
                let p = *self.accesses.get((id as usize).wrapping_sub(1))?;
                (p.block != acc.block).then_some(p)
            };
            let prior = match kind {
                AccessKind::Read => foreign(last_write),
                AccessKind::Write | AccessKind::Atomic => foreign(last_write)
                    .filter(|p| !(kind == AccessKind::Atomic && p.kind == AccessKind::Atomic))
                    .or_else(|| foreign(last_read))
                    .or_else(|| foreign(other_read)),
            };
            let next = if kind.writes() {
                [id, last_read, other_read]
            } else if foreign(last_read).is_some() {
                [last_write, id, last_read]
            } else {
                [last_write, id, other_read]
            };
            if let Some(p) = prior {
                self.push_keyed(
                    (HazardClass::RaceCheck, p.pc, acc.pc),
                    HazardReport {
                        class: HazardClass::RaceCheck,
                        space: Space::Global,
                        addr: b,
                        first: Some(p),
                        second: Some(acc),
                        detail: format!(
                            "global address {b:#x}: {acc} conflicts with {p} — \
                             different blocks, no synchronization within a launch"
                        ),
                    },
                );
            }
            *self.global.slot(b) = next;
        }
    }

    /// Reports collected so far (capped at `max_reports`).
    pub fn reports(&self) -> &[HazardReport] {
        &self.reports
    }

    /// Number of *distinct* hazards observed, including those past the
    /// report cap.
    pub fn hazard_count(&self) -> u64 {
        self.count
    }

    /// Drain the collected reports.
    pub fn take_reports(&mut self) -> Vec<HazardReport> {
        std::mem::take(&mut self.reports)
    }

    /// Pages of global shadow allocated so far: what the launch's shadow
    /// memory is proportional to (see the module docs for the bound).
    pub fn shadow_pages(&self) -> usize {
        self.global.pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_block(block: (u32, u32)) -> BlockSanitizer {
        BlockSanitizer::new(SanitizerConfig::full(), block, 64)
    }

    /// Run `f` against a single full-checking block and merge it.
    fn one_block(f: impl FnOnce(&mut BlockSanitizer)) -> LaunchSanitizer {
        let mut launch = LaunchSanitizer::new(SanitizerConfig::full());
        let mut b = full_block((0, 0));
        f(&mut b);
        launch.merge_block(b);
        launch
    }

    #[test]
    fn cross_warp_shared_write_read_races() {
        let s = one_block(|b| {
            b.shared_access(0, 0, 10, 0, 4, true);
            b.shared_access(32, 1, 20, 0, 4, false);
        });
        assert_eq!(s.reports().len(), 1);
        let r = &s.reports()[0];
        assert_eq!(r.class, HazardClass::RaceCheck);
        assert_eq!(r.space, Space::Shared);
        assert_eq!(r.first.unwrap().pc, 10);
        assert_eq!(r.second.unwrap().pc, 20);
    }

    #[test]
    fn same_warp_and_barrier_separated_accesses_are_clean() {
        let s = one_block(|b| {
            // Same warp: lockstep, exempt.
            b.shared_access(0, 0, 10, 0, 4, true);
            b.shared_access(1, 0, 20, 0, 4, false);
            // Different warp but a barrier in between: ordered.
            b.shared_access(0, 0, 30, 8, 4, true);
            b.barrier_release();
            b.shared_access(32, 1, 40, 8, 4, false);
        });
        assert!(s.reports().is_empty(), "{:?}", s.reports());
    }

    #[test]
    fn read_read_never_races() {
        let s = one_block(|b| {
            b.shared_access(0, 0, 10, 0, 4, true);
            b.barrier_release();
            b.shared_access(0, 0, 20, 0, 4, false);
            b.shared_access(32, 1, 21, 0, 4, false);
        });
        assert!(s.reports().is_empty());
    }

    #[test]
    fn write_after_read_races_across_warps() {
        let s = one_block(|b| {
            b.shared_access(0, 0, 5, 0, 4, true);
            b.barrier_release();
            b.shared_access(32, 1, 10, 0, 4, false);
            b.shared_access(0, 0, 20, 0, 4, true);
        });
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.reports()[0].first.unwrap().kind, AccessKind::Read);
    }

    #[test]
    fn uninitialized_shared_read_reported_once_per_pc() {
        let s = one_block(|b| {
            b.shared_access(0, 0, 7, 16, 4, false);
            b.shared_access(1, 0, 7, 20, 4, false); // same pc: deduplicated
                                                    // A written byte reads clean.
            b.shared_access(0, 0, 8, 0, 4, true);
            b.shared_access(0, 0, 9, 0, 4, false);
        });
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.reports()[0].class, HazardClass::InitCheck);
        assert_eq!(s.hazard_count(), 1);
    }

    #[test]
    fn global_conflicts_are_cross_block_only() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        let mut b0 = full_block((0, 0));
        b0.global_access(0, 0, 10, 0x100, 4, AccessKind::Write);
        b0.global_access(32, 1, 20, 0x100, 4, AccessKind::Write); // same block
        s.merge_block(b0);
        assert!(s.reports().is_empty());
        let mut b1 = full_block((1, 0));
        b1.global_access(0, 0, 30, 0x100, 4, AccessKind::Write);
        s.merge_block(b1);
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.reports()[0].space, Space::Global);
    }

    #[test]
    fn atomics_only_conflict_with_non_atomics() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        for bx in 0..2 {
            let mut b = full_block((bx, 0));
            b.global_access(0, 0, 10, 0x40, 8, AccessKind::Atomic);
            s.merge_block(b);
        }
        assert!(s.reports().is_empty());
        let mut b2 = full_block((2, 0));
        b2.global_access(0, 0, 11, 0x40, 8, AccessKind::Write);
        s.merge_block(b2);
        assert_eq!(s.reports().len(), 1);
    }

    #[test]
    fn ignore_ranges_suppress_global_reports() {
        let cfg = SanitizerConfig {
            level: SanitizerLevel::Full,
            global_ignore: vec![(0x100, 0x108)],
            ..Default::default()
        };
        let mut s = LaunchSanitizer::new(cfg.clone());
        let mut b0 = BlockSanitizer::new(cfg.clone(), (0, 0), 0);
        b0.global_access(0, 0, 10, 0x100, 8, AccessKind::Write);
        s.merge_block(b0);
        let mut b1 = BlockSanitizer::new(cfg.clone(), (1, 0), 0);
        b1.global_access(0, 0, 10, 0x100, 8, AccessKind::Write);
        // Outside the range still reports.
        b1.global_access(0, 0, 11, 0x108, 8, AccessKind::Write);
        s.merge_block(b1);
        assert!(s.reports().is_empty());
        let mut b2 = BlockSanitizer::new(cfg, (2, 0), 0);
        b2.global_access(0, 0, 12, 0x108, 8, AccessKind::Write);
        s.merge_block(b2);
        assert_eq!(s.reports().len(), 1);
    }

    #[test]
    fn report_cap_keeps_counting() {
        let cfg = SanitizerConfig {
            level: SanitizerLevel::Full,
            max_reports: 2,
            ..Default::default()
        };
        let mut s = LaunchSanitizer::new(cfg.clone());
        let mut b = BlockSanitizer::new(cfg, (0, 0), 1024);
        for pc in 0..5 {
            b.shared_access(0, 0, pc, pc as u64, 1, false); // 5 distinct initchecks
        }
        s.merge_block(b);
        assert_eq!(s.reports().len(), 2);
        assert_eq!(s.hazard_count(), 5);
    }

    #[test]
    fn sync_reports_and_level_gating() {
        let s = one_block(|b| {
            b.sync_divergence(5, 9, "4 threads at pc 5, 28 at pc 9".into());
            b.sync_deadlock(3, 64, "waiting at pc 7".into());
        });
        assert_eq!(s.reports().len(), 2);
        assert!(s.reports()[0].to_string().contains("synccheck"));
        assert!(s.reports()[0].detail.contains("pc 5 vs pc 9"));

        // Race-only level ignores sync and init events.
        let cfg = SanitizerConfig {
            level: SanitizerLevel::Race,
            ..Default::default()
        };
        let mut launch = LaunchSanitizer::new(cfg.clone());
        let mut b = BlockSanitizer::new(cfg, (0, 0), 64);
        b.sync_deadlock(1, 2, String::new());
        b.shared_access(0, 0, 1, 0, 4, false); // uninit read
        launch.merge_block(b);
        assert!(launch.reports().is_empty());
    }

    #[test]
    fn own_read_does_not_shadow_other_warps_reader() {
        // Tree-step pattern: warp 0 reads the byte, then warp 1 reads it
        // (loading its own fold operand) and writes it. The write must
        // still conflict with warp 0's read even though warp 1's read was
        // recorded in between.
        let s = one_block(|b| {
            b.shared_access(0, 0, 1, 0, 4, true); // initialize, then barrier
            b.barrier_release();
            b.shared_access(0, 0, 10, 0, 4, false);
            b.shared_access(32, 1, 11, 0, 4, false);
            b.shared_access(32, 1, 12, 0, 4, true);
        });
        assert_eq!(s.reports().len(), 1, "{:?}", s.reports());
        assert_eq!(s.reports()[0].class, HazardClass::RaceCheck);
        assert_eq!(s.reports()[0].first.unwrap().warp, 0);
    }

    #[test]
    fn epoch_and_shared_shadow_are_per_block() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        let mut b0 = full_block((0, 0));
        b0.shared_access(0, 0, 10, 0, 4, true);
        b0.barrier_release();
        s.merge_block(b0);
        // Fresh block: no carry-over of shared shadow or epoch.
        let mut b1 = full_block((1, 0));
        b1.shared_access(32, 1, 20, 0, 4, true);
        s.merge_block(b1);
        assert!(s
            .reports()
            .iter()
            .all(|r| r.class != HazardClass::RaceCheck));
    }

    /// The launch-wide dedup keeps the *first merged* block's instance of
    /// a repeated hazard — the same one sequential execution would keep —
    /// and block-local dedup does not hide the cross-block repeat from
    /// the count.
    #[test]
    fn merge_order_defines_which_duplicate_survives() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        let mut blocks: Vec<BlockSanitizer> = (0..3)
            .map(|bx| {
                let mut b = full_block((bx, 0));
                b.shared_access(0, 0, 10, 0, 4, true);
                b.shared_access(32, 1, 20, 0, 4, false);
                b
            })
            .collect();
        // Merge in block-id order regardless of completion order.
        for b in blocks.drain(..) {
            s.merge_block(b);
        }
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.hazard_count(), 1);
        assert_eq!(s.reports()[0].second.unwrap().block, (0, 0));
    }
}
