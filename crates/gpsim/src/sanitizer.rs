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
//! - **synccheck** — divergent `__syncthreads()` sites (run-to-block
//!   scheduling leaves no other barrier misuse), folded into the same report stream
//!   with per-thread context; the launch still fails with the
//!   corresponding [`crate::SimError`].
//!
//! The shadow scheme is two-level so blocks can execute concurrently:
//!
//! - [`BlockSanitizer`] owns everything one block can judge on its own.
//!   The executors hand it each memory warp-step once — warp, pc, space,
//!   kind, active lanes and their addresses — and it appends one header to
//!   the block's step list. Shared memory keeps one cell per byte with the
//!   last writer, last reader and one more reader, each an id into that
//!   list; barrier releases split the list into *epochs*. Two accesses
//!   conflict iff they touch the same byte, at least one writes, they come
//!   from different warps, and they share an epoch. Those reports — plus
//!   initcheck and synccheck — go into the block's log, in order.
//!   Global-memory accesses cannot be judged locally (the conflicting
//!   access lives in another block), so the log records their lanes raw.
//! - [`LaunchSanitizer`] merges block logs **in linear block-id order**,
//!   replaying the raw global lanes through a launch-wide per-byte shadow
//!   with the last writer and the last two readers from distinct blocks.
//!   Because the merge order equals the sequential execution order, the
//!   reports (text, order, count) are bit-identical at any host thread
//!   count — and because both executors merge serially, the shadow is
//!   single-threaded.
//!
//! An id names a lane of a step: `(step + 1) << 6 | lane << 1 | atomic`.
//! Ids grow with the step, so the epoch test is "id ≥ the first id since
//! the last barrier release" and the launch's cross-block test is "0 < id
//! < the first id of the block being merged"; the warp, pc and epoch come
//! from the step, and an [`AccessInfo`] is only built to render a report.
//! When every byte an access covers holds the same cell — the common case,
//! a lane's aligned word — the access is judged once and the run filled:
//! the bytes after the first would raise only reports with the same dedup
//! key. Otherwise (mixed cells, or a run across a shadow page) it is
//! judged byte by byte.
//!
//! The global shadow is a [`Paged`] table: 4 Ki-cell pages allocated on
//! first touch, found through a last-page memo, so the per-access step is
//! an index and not a hash. Every cell, shared or global, is three `u32`
//! ids (12 bytes) and the all-zero cell is the empty one, so a fresh page
//! is a `calloc`. **The memory bound:** per launch, 48 KiB per *touched
//! page* of global shadow plus 24 bytes per merged global warp-step; per
//! block until its merge, 12 bytes per shared byte, 20 bytes per memory
//! warp-step and 16 bytes per global lane-access. An executor thread keeps
//! one [`BlockSanitizer`] — shadow, dedup set and, on the sequential path,
//! the log's buffers — for all the blocks it runs. Dense access — every
//! real reduction — costs a few pages; the worst case is one access per
//! page, 12 × the span of device addresses the kernel can reach, which the
//! device's global-memory size bounds (a wild pointer past it is observed
//! for the one warp instruction the bounds check then rejects, a block at
//! a time). A block's step list holds under 2^26 memory warp-steps.
//!
//! Reports are deduplicated by the PC pair so a race inside a loop is
//! reported once, and capped at [`SanitizerConfig::max_reports`] (the
//! count of distinct hazards keeps accumulating past the cap).

use std::collections::HashSet;
use std::fmt;

use crate::ir::{AccessKind, Space};
use crate::shadow::Paged;
use crate::warp::WARP_SIZE;

/// How much checking to do during a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerLevel {
    /// No instrumentation (the default; zero overhead).
    #[default]
    Off,
    /// Every checker: racecheck, initcheck and synccheck.
    Full,
}

impl SanitizerLevel {
    /// Is any checker active?
    pub fn enabled(&self) -> bool {
        !matches!(self, SanitizerLevel::Off)
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

/// Shadow of one byte: `[last_write, last_read, other_read]` as access
/// ids (see [`access_id`]; 0 = no such access). `other_read` is the most
/// recent read from a warp (shared) or block (global) other than
/// `last_read`'s. One read slot would let a warp's own read-before-write
/// shadow an earlier reader (tree steps load both operands before
/// storing); two slots from distinct warps are enough to catch any
/// multi-warp read set, since flagging one conflicting reader is all a
/// report needs. The all-zero cell is the empty one, so a fresh shadow —
/// an array of integers being what `vec!` zero-allocates — is a `calloc`.
type Cell = [u32; 3];

/// Cells per page of the global shadow (see the module docs for the bound).
const GLOBAL_PAGE_BITS: u32 = 12;

/// Bits of an access id below its step: the lane, then the atomic bit.
const STEP_SHIFT: u32 = WARP_SIZE.trailing_zeros() + 1;

/// The id of lane `lane`'s access in step `step` of a step list:
/// `(step + 1) << STEP_SHIFT | lane << 1 | atomic`. Ids grow with the step,
/// so "recorded since step `s`" is `id >= access_id(s, 0, false)`, and the
/// atomic bit answers the atomic-vs-atomic exemption without a lookup.
fn access_id(step: usize, lane: u32, atomic: bool) -> u32 {
    u32::try_from(step + 1)
        .ok()
        .and_then(|s| s.checked_mul(1 << STEP_SHIFT))
        .expect("under 2^26 memory warp-steps per step list")
        | lane << 1
        | atomic as u32
}

/// The step an id was recorded in.
fn step_of(id: u32) -> usize {
    (id >> STEP_SHIFT) as usize - 1
}

/// What a step list keeps of one warp-step: everything an [`AccessInfo`]
/// of its lanes needs but the block and the lane.
#[derive(Debug, Clone, Copy)]
struct StepHead {
    pc: u32,
    warp: u32,
    epoch: u32,
    kind: AccessKind,
    space: Space,
}

impl StepHead {
    /// The access behind `id`, a lane of this step in `block`.
    fn info(&self, block: (u32, u32), id: u32) -> AccessInfo {
        AccessInfo {
            block,
            thread: self.warp * WARP_SIZE + (id >> 1) % WARP_SIZE,
            warp: self.warp,
            pc: self.pc as usize,
            epoch: self.epoch,
            kind: self.kind,
        }
    }
}

/// One observed memory warp-step of a block's log.
#[derive(Debug, Clone, Copy)]
struct Step {
    head: StepHead,
    /// End of the step's lane records in [`BlockLog::lanes`] (global
    /// steps; a shared step is judged on the spot and logs no lanes).
    end: u32,
}

/// One lane of a logged global step.
#[derive(Debug, Clone, Copy)]
struct Lane {
    addr: u64,
    size: u32,
    lane: u32,
}

/// A report fully determined inside one block (shared races, initcheck,
/// synccheck), already rendered, with its dedup key and its place in the
/// log: it precedes step `at`.
#[derive(Debug)]
struct Local {
    at: usize,
    key: HazardKey,
    report: HazardReport,
}

/// What one block observed, in order, for [`LaunchSanitizer::merge_block`]:
/// its memory warp-steps, the lanes of its global steps (raw — the
/// conflicting access may live in another block, so they are judged at
/// merge time) and its local reports.
///
/// A drained log keeps its buffers; [`BlockSanitizer::recycle`] hands them
/// to the next block.
#[derive(Debug, Default)]
pub struct BlockLog {
    block: (u32, u32),
    steps: Vec<Step>,
    lanes: Vec<Lane>,
    locals: Vec<Local>,
}

/// Per-block sanitizer state: the shared-memory shadow, barrier epoch and
/// the block's [`BlockLog`].
///
/// One instance serves the blocks one executor thread runs, one block at
/// a time ([`BlockSanitizer::begin_block`] … [`BlockSanitizer::end_block`]);
/// it is safe to drive many of them from concurrent host threads.
/// [`LaunchSanitizer::merge_block`] folds the logs back in linear block-id
/// order, which reproduces the sequential report stream exactly.
pub struct BlockSanitizer {
    cfg: SanitizerConfig,
    epoch: u32,
    /// The smallest id of the current barrier epoch.
    epoch_start: u32,
    /// One cell per shared byte, ids into `log.steps` (empty when neither
    /// initcheck nor racecheck runs).
    shared: Vec<Cell>,
    /// Block-local dedup of local reports. This bounds log growth (a race
    /// inside a loop logs once per block); the merge dedups again
    /// launch-wide, and keeping each block's *first* occurrence is exactly
    /// what the sequential order would have kept.
    seen: HashSet<HazardKey>,
    log: BlockLog,
}

impl BlockSanitizer {
    /// Shadow state for the blocks of a kernel with `shared_bytes` of
    /// shared memory; call [`BlockSanitizer::begin_block`] before each.
    pub fn new(cfg: SanitizerConfig, shared_bytes: usize) -> Self {
        BlockSanitizer {
            cfg,
            epoch: 0,
            epoch_start: 1,
            shared: vec![[0; 3]; shared_bytes],
            seen: HashSet::new(),
            log: BlockLog::default(),
        }
    }

    /// Start observing block `block`: a fresh shadow, epoch 0 (whose
    /// first id is 1: every id).
    pub fn begin_block(&mut self, block: (u32, u32)) {
        self.epoch = 0;
        self.epoch_start = 1;
        self.shared.fill([0; 3]);
        self.seen.clear();
        self.log.block = block;
    }

    /// The finished block's log, to merge.
    pub fn end_block(&mut self) -> BlockLog {
        std::mem::take(&mut self.log)
    }

    /// Reuse a merged (drained) log's buffers for the next block.
    pub fn recycle(&mut self, log: BlockLog) {
        debug_assert!(log.steps.is_empty() && log.lanes.is_empty() && log.locals.is_empty());
        self.log = log;
    }

    /// The block's barrier released: accesses before and after are ordered.
    pub fn barrier_release(&mut self) {
        self.epoch += 1;
        self.epoch_start = access_id(self.log.steps.len(), 0, false);
    }

    /// Observe one warp-step of the memory instruction at `pc`: lane
    /// `lanes[i]` (a thread of warp `warp`) accesses `addrs[i]` — or,
    /// when `addrs` holds one entry, every lane accesses that one — as
    /// `(offset or address, size in bytes)`. Shared accesses are judged
    /// here; global ones are logged for the merge.
    pub fn warp_step(
        &mut self,
        warp: u32,
        pc: usize,
        space: Space,
        kind: AccessKind,
        lanes: &[usize],
        addrs: &[(u64, usize)],
    ) {
        if (space == Space::Shared && self.shared.is_empty()) || lanes.is_empty() {
            return;
        }
        let kind = match (space, kind.writes()) {
            (Space::Shared, true) => AccessKind::Write,
            (Space::Shared, false) => AccessKind::Read,
            (Space::Global, _) => kind,
        };
        let head = StepHead {
            pc: u32::try_from(pc).expect("pc fits in u32"),
            warp,
            epoch: self.epoch,
            kind,
            space,
        };
        let step = self.log.steps.len();
        let last = addrs.len() - 1;
        let lane_of = |thread: usize| {
            debug_assert_eq!(thread as u32 / WARP_SIZE, warp, "lane of another warp");
            thread as u32 % WARP_SIZE
        };
        match space {
            Space::Shared => {
                let end = self.log.steps.last().map_or(0, |s| s.end);
                self.log.steps.push(Step { head, end });
                for (i, &t) in lanes.iter().enumerate() {
                    let (off, size) = addrs[i.min(last)];
                    self.shared_lane(access_id(step, lane_of(t), false), off, size);
                }
            }
            Space::Global => {
                let ignore = &self.cfg.global_ignore;
                for (i, &t) in lanes.iter().enumerate() {
                    let (addr, size) = addrs[i.min(last)];
                    if !ignore.iter().any(|&(s, e)| addr >= s && addr < e) {
                        self.log.lanes.push(Lane {
                            addr,
                            size: u32::try_from(size).expect("access size fits in u32"),
                            lane: lane_of(t),
                        });
                    }
                }
                let end = u32::try_from(self.log.lanes.len()).expect("under 2^32 lanes per block");
                if self.log.steps.last().map_or(0, |s| s.end) < end {
                    self.log.steps.push(Step { head, end });
                }
            }
        }
    }

    /// Judge one lane's shared access `id` of `size` bytes at offset `off`
    /// against the shadow and record it: once for the whole access when
    /// every byte it covers holds the same state, else byte by byte.
    fn shared_lane(&mut self, id: u32, off: u64, size: usize) {
        // Saturating: a wild offset near `u64::MAX` is observed before the
        // access rejects it and must not overflow here. Bytes past the
        // slab are the interpreter's to report.
        let len = self.shared.len() as u64;
        let (lo, hi) = (
            off.min(len) as usize,
            off.saturating_add(size as u64).min(len) as usize,
        );
        let BlockSanitizer {
            epoch_start,
            shared,
            seen,
            log,
            ..
        } = self;
        let (block, steps) = (log.block, &log.steps);
        let head = &steps[step_of(id)].head;
        let write = head.kind.writes();
        let warp_of = |id: u32| steps[step_of(id)].head.warp;
        let conflicts = |p: u32| p >= *epoch_start && warp_of(p) != head.warp;
        let mut report = |key: HazardKey, b: u64, first: Option<u32>| {
            if !seen.insert(key) {
                return;
            }
            let acc = head.info(block, id);
            let (class, first, detail) = match first {
                None => (
                    HazardClass::InitCheck,
                    None,
                    format!(
                        "{acc} of uninitialized shared byte +{b} (never written since block start)"
                    ),
                ),
                Some(p) => {
                    let p = steps[step_of(p)].head.info(block, p);
                    let detail = format!(
                        "shared byte +{b}: {acc} conflicts with {p} — \
                         different warps, no barrier between"
                    );
                    (HazardClass::RaceCheck, Some(p), detail)
                }
            };
            let report = HazardReport {
                class,
                space: Space::Shared,
                addr: b,
                first,
                second: Some(acc),
                detail,
            };
            log.locals.push(Local {
                at: steps.len(),
                key,
                report,
            });
        };
        let pc = head.pc as usize;
        let mut judge = |[last_write, last_read, other_read]: Cell, b: u64| -> Cell {
            if !write && last_write == 0 {
                report((HazardClass::InitCheck, usize::MAX, pc), b, None);
            }
            let prior = if write {
                [last_write, last_read, other_read]
                    .into_iter()
                    .find(|&p| conflicts(p))
            } else {
                Some(last_write).filter(|&p| conflicts(p))
            };
            if let Some(p) = prior {
                let first_pc = steps[step_of(p)].head.pc as usize;
                report((HazardClass::RaceCheck, first_pc, pc), b, Some(p));
            }
            if write {
                [id, last_read, other_read]
            } else if last_read != 0 && warp_of(last_read) != head.warp {
                [last_write, id, last_read]
            } else {
                [last_write, id, other_read]
            }
        };
        let run = &mut shared[lo..hi];
        match run.first().copied() {
            Some(cell) if run.iter().all(|&c| c == cell) => run.fill(judge(cell, off)),
            _ => {
                for (k, c) in run.iter_mut().enumerate() {
                    *c = judge(*c, off + k as u64);
                }
            }
        }
    }

    /// Fold a divergent-barrier error into the report stream.
    pub fn sync_divergence(&mut self, pc_a: usize, pc_b: usize, detail: String) {
        let key = (HazardClass::SyncCheck, pc_a, pc_b);
        if !self.seen.insert(key) {
            return;
        }
        let block = self.log.block;
        self.log.locals.push(Local {
            at: self.log.steps.len(),
            key,
            report: HazardReport {
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
        });
    }
}

/// The launch's collected reports and their dedup.
struct Reports {
    max: usize,
    list: Vec<HazardReport>,
    /// Distinct hazards observed (reports + those past `max`).
    count: u64,
    seen: HashSet<HazardKey>,
}

impl Reports {
    /// Whether `key` is new; counts it if so.
    fn fresh(&mut self, key: HazardKey) -> bool {
        let fresh = self.seen.insert(key);
        self.count += fresh as u64;
        fresh
    }

    /// Keep a fresh report, unless the cap is reached.
    fn keep(&mut self, report: HazardReport) {
        if self.list.len() < self.max {
            self.list.push(report);
        }
    }
}

/// Per-launch sanitizer state: the global shadow + collected reports.
///
/// One instance observes one launch; [`crate::Device::launch`] creates it
/// when the device's [`SanitizerConfig`] enables a checker and harvests
/// its reports afterwards (on the error path too, so synccheck reports
/// survive the launch failing). Blocks record into [`BlockSanitizer`]s —
/// possibly concurrently — and their logs are folded back with
/// [`LaunchSanitizer::merge_block`] in linear block-id order.
pub struct LaunchSanitizer {
    cfg: SanitizerConfig,
    reports: Reports,
    global: Paged<Cell, GLOBAL_PAGE_BITS>,
    /// Every merged global step, in merge order, with its block; what the
    /// ids in a global cell point into.
    steps: Vec<(StepHead, (u32, u32))>,
}

impl LaunchSanitizer {
    /// Fresh state for one launch.
    pub fn new(cfg: SanitizerConfig) -> Self {
        LaunchSanitizer {
            reports: Reports {
                max: cfg.max_reports,
                list: Vec::new(),
                count: 0,
                seen: HashSet::new(),
            },
            cfg,
            global: Paged::default(),
            steps: Vec::new(),
        }
    }

    /// The launch's sanitizer configuration (cloned into each executor
    /// thread's [`BlockSanitizer`]).
    pub fn config(&self) -> &SanitizerConfig {
        &self.cfg
    }

    /// Fold one finished block's log into the launch state, draining it.
    /// Call in linear block-id order: the merge order defines the report
    /// order, and block-id order reproduces the sequential executor
    /// exactly.
    pub fn merge_block(&mut self, log: &mut BlockLog) {
        // Ids below this one were merged from earlier blocks.
        let first = access_id(self.steps.len(), 0, false);
        let mut locals = log.locals.drain(..).peekable();
        let mut lanes = 0;
        for (i, step) in log.steps.iter().enumerate() {
            while let Some(l) = locals.next_if(|l| l.at <= i) {
                if self.reports.fresh(l.key) {
                    self.reports.keep(l.report);
                }
            }
            if step.head.space == Space::Global {
                let s = self.steps.len();
                self.steps.push((step.head, log.block));
                for lane in &log.lanes[lanes..step.end as usize] {
                    let atomic = step.head.kind == AccessKind::Atomic;
                    self.replay_global(first, access_id(s, lane.lane, atomic), *lane);
                }
                lanes = step.end as usize;
            }
        }
        for l in locals {
            if self.reports.fresh(l.key) {
                self.reports.keep(l.report);
            }
        }
        log.steps.clear();
        log.lanes.clear();
    }

    /// Replay one logged global lane-access `id` against the launch-wide
    /// shadow (ignore-range filtering already happened at log
    /// time): once for the whole access when every byte it covers holds
    /// the same state on one page, else byte by byte. `first` is the
    /// smallest id of the block being merged.
    fn replay_global(&mut self, first: u32, id: u32, lane: Lane) {
        let LaunchSanitizer {
            reports,
            global,
            steps,
            ..
        } = self;
        let (head, block) = &steps[step_of(id)];
        let kind = head.kind;
        let foreign = |p: u32| p != 0 && p < first;
        let mut judge = |[last_write, last_read, other_read]: Cell, b: u64| -> Cell {
            let prior = match kind {
                AccessKind::Read => Some(last_write).filter(|&p| foreign(p)),
                AccessKind::Write | AccessKind::Atomic => Some(last_write)
                    .filter(|&p| foreign(p) && !(kind == AccessKind::Atomic && p & 1 == 1))
                    .or(Some(last_read).filter(|&p| foreign(p)))
                    .or(Some(other_read).filter(|&p| foreign(p))),
            };
            if let Some(p) = prior {
                let (p_head, p_block) = &steps[step_of(p)];
                if reports.fresh((HazardClass::RaceCheck, p_head.pc as usize, head.pc as usize)) {
                    let (p, acc) = (p_head.info(*p_block, p), head.info(*block, id));
                    reports.keep(HazardReport {
                        class: HazardClass::RaceCheck,
                        space: Space::Global,
                        addr: b,
                        first: Some(p),
                        second: Some(acc),
                        detail: format!(
                            "global address {b:#x}: {acc} conflicts with {p} — \
                             different blocks, no synchronization within a launch"
                        ),
                    });
                }
            }
            if kind.writes() {
                [id, last_read, other_read]
            } else if foreign(last_read) {
                [last_write, id, last_read]
            } else {
                [last_write, id, other_read]
            }
        };
        // Saturating: a wild address near `u64::MAX` is observed before
        // the access rejects it and must not overflow here.
        let addr = lane.addr;
        let len = addr.saturating_add(u64::from(lane.size)) - addr;
        if len == 0 {
            return;
        }
        match global.run(addr, len) {
            Some(run) if run.iter().all(|&c| c == run[0]) => run.fill(judge(run[0], addr)),
            Some(run) => {
                for (k, c) in run.iter_mut().enumerate() {
                    *c = judge(*c, addr + k as u64);
                }
            }
            None => {
                for b in addr..addr + len {
                    let c = global.slot(b);
                    *c = judge(*c, b);
                }
            }
        }
    }

    /// Reports collected so far (capped at `max_reports`).
    pub fn reports(&self) -> &[HazardReport] {
        &self.reports.list
    }

    /// Number of *distinct* hazards observed, including those past the
    /// report cap.
    pub fn hazard_count(&self) -> u64 {
        self.reports.count
    }

    /// Drain the collected reports.
    pub fn take_reports(&mut self) -> Vec<HazardReport> {
        std::mem::take(&mut self.reports.list)
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

    /// One-lane warp-steps, the shape most tests need.
    trait OneLane {
        fn shared_access(
            &mut self,
            thread: u32,
            warp: u32,
            pc: usize,
            off: u64,
            size: usize,
            write: bool,
        );
        fn global_access(
            &mut self,
            thread: u32,
            warp: u32,
            pc: usize,
            addr: u64,
            size: usize,
            kind: AccessKind,
        );
    }

    impl OneLane for BlockSanitizer {
        fn shared_access(
            &mut self,
            thread: u32,
            warp: u32,
            pc: usize,
            off: u64,
            size: usize,
            write: bool,
        ) {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            self.warp_step(
                warp,
                pc,
                Space::Shared,
                kind,
                &[thread as usize],
                &[(off, size)],
            );
        }

        fn global_access(
            &mut self,
            thread: u32,
            warp: u32,
            pc: usize,
            addr: u64,
            size: usize,
            kind: AccessKind,
        ) {
            self.warp_step(
                warp,
                pc,
                Space::Global,
                kind,
                &[thread as usize],
                &[(addr, size)],
            );
        }
    }

    /// A sanitizer observing `block` of a kernel with `shared_bytes`.
    fn begin(cfg: SanitizerConfig, block: (u32, u32), shared_bytes: usize) -> BlockSanitizer {
        let mut b = BlockSanitizer::new(cfg, shared_bytes);
        b.begin_block(block);
        b
    }

    fn full_block(block: (u32, u32)) -> BlockSanitizer {
        begin(SanitizerConfig::full(), block, 64)
    }

    /// Run `f` against a single full-checking block and merge it.
    fn one_block(f: impl FnOnce(&mut BlockSanitizer)) -> LaunchSanitizer {
        let mut launch = LaunchSanitizer::new(SanitizerConfig::full());
        let mut b = full_block((0, 0));
        f(&mut b);
        launch.merge_block(&mut b.end_block());
        launch
    }

    /// The sanitizer's memory is these records times what a launch
    /// observes (see the module docs for the bound).
    #[test]
    fn records_and_cells_keep_their_size() {
        use std::mem::size_of;
        assert_eq!(size_of::<Cell>(), 12, "a shadow byte: three u32 ids");
        assert_eq!(size_of::<Lane>(), 16, "a logged global lane");
        assert_eq!(size_of::<Step>(), 20, "a logged warp-step");
        assert_eq!(
            size_of::<(StepHead, (u32, u32))>(),
            24,
            "a merged global step"
        );
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
        s.merge_block(&mut b0.end_block());
        assert!(s.reports().is_empty());
        let mut b1 = full_block((1, 0));
        b1.global_access(0, 0, 30, 0x100, 4, AccessKind::Write);
        s.merge_block(&mut b1.end_block());
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.reports()[0].space, Space::Global);
    }

    #[test]
    fn atomics_only_conflict_with_non_atomics() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        for bx in 0..2 {
            let mut b = full_block((bx, 0));
            b.global_access(0, 0, 10, 0x40, 8, AccessKind::Atomic);
            s.merge_block(&mut b.end_block());
        }
        assert!(s.reports().is_empty());
        let mut b2 = full_block((2, 0));
        b2.global_access(0, 0, 11, 0x40, 8, AccessKind::Write);
        s.merge_block(&mut b2.end_block());
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
        let mut b0 = begin(cfg.clone(), (0, 0), 0);
        b0.global_access(0, 0, 10, 0x100, 8, AccessKind::Write);
        s.merge_block(&mut b0.end_block());
        let mut b1 = begin(cfg.clone(), (1, 0), 0);
        b1.global_access(0, 0, 10, 0x100, 8, AccessKind::Write);
        // Outside the range still reports.
        b1.global_access(0, 0, 11, 0x108, 8, AccessKind::Write);
        s.merge_block(&mut b1.end_block());
        assert!(s.reports().is_empty());
        let mut b2 = begin(cfg, (2, 0), 0);
        b2.global_access(0, 0, 12, 0x108, 8, AccessKind::Write);
        s.merge_block(&mut b2.end_block());
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
        let mut b = begin(cfg, (0, 0), 1024);
        for pc in 0..5 {
            b.shared_access(0, 0, pc, pc as u64, 1, false); // 5 distinct initchecks
        }
        s.merge_block(&mut b.end_block());
        assert_eq!(s.reports().len(), 2);
        assert_eq!(s.hazard_count(), 5);
    }

    #[test]
    fn sync_reports() {
        let s = one_block(|b| {
            b.sync_divergence(5, 9, "4 threads at pc 5, 28 at pc 9".into());
        });
        assert_eq!(s.reports().len(), 1);
        assert!(s.reports()[0].to_string().contains("synccheck"));
        assert!(s.reports()[0].detail.contains("pc 5 vs pc 9"));
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
    fn a_warps_second_read_does_not_evict_another_warps_reader() {
        // Warp 1 reads the byte twice: its second read must not push warp
        // 0's read out of the second slot, or its write races nothing.
        let s = one_block(|b| {
            b.shared_access(0, 0, 1, 0, 4, true);
            b.barrier_release();
            b.shared_access(0, 0, 10, 0, 4, false);
            b.shared_access(32, 1, 11, 0, 4, false);
            b.shared_access(33, 1, 12, 0, 4, false);
            b.shared_access(32, 1, 13, 0, 4, true);
        });
        assert_eq!(s.reports().len(), 1, "{:?}", s.reports());
        assert_eq!(s.reports()[0].first.unwrap().pc, 10);
    }

    #[test]
    fn epoch_and_shared_shadow_are_per_block() {
        let mut s = LaunchSanitizer::new(SanitizerConfig::full());
        let mut b0 = full_block((0, 0));
        b0.shared_access(0, 0, 10, 0, 4, true);
        b0.barrier_release();
        s.merge_block(&mut b0.end_block());
        // Fresh block: no carry-over of shared shadow or epoch.
        let mut b1 = full_block((1, 0));
        b1.shared_access(32, 1, 20, 0, 4, true);
        s.merge_block(&mut b1.end_block());
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
        for mut b in blocks.drain(..) {
            s.merge_block(&mut b.end_block());
        }
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.hazard_count(), 1);
        assert_eq!(s.reports()[0].second.unwrap().block, (0, 0));
    }
}
