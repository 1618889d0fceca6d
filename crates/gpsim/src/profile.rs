//! Source-correlated profiling: per-PC / per-barrier-interval / per-SM
//! attribution of modelled cycles and stall reasons, with report, JSON and
//! Chrome-trace export.
//!
//! # Attribution model
//!
//! The interpreter charges every warp-instruction a cycle cost built from
//! the [`crate::cost::CostModel`] knobs. The profiler splits that cost
//! into *stall reasons* whose sum reproduces the charged cycles exactly:
//!
//! - `issue` — the per-instruction issue cost,
//! - `alu` — ALU work including the FP64 and SFU surcharges,
//! - `mem` — the first (unavoidable) global-memory transaction,
//! - `mem_serial` — the `tx - 1` *extra* transactions an uncoalesced
//!   access serializes into,
//! - `shared` — the first (conflict-free) shared-memory way,
//! - `conflict` — the `ways - 1` extra ways bank conflicts serialize into,
//! - `atomic` — per-lane atomic serialization,
//! - `barrier` — barrier arrival cost.
//!
//! Deltas are bucketed three ways simultaneously: by PC, by *barrier
//! interval* (the span between two barrier releases — interval `k` covers
//! everything a block executed after its `k`-th release), and by warp (for
//! the timeline). Per-PC buckets roll up to source lines through the
//! kernel's line table ([`crate::ir::Kernel::lines`]).
//!
//! All attributed cycles are **raw** warp cycles. Block spans, per-SM
//! totals and launch cycles on the timeline are modelled time, and the
//! profile does not compute them: the executor's in-order commit hands it
//! what the launch schedule in [`crate::cost`] (`Schedule`) decided for
//! each block and for the launch. Shares within a kernel are therefore
//! exact, while absolute per-PC numbers are upper bounds on the modelled
//! time.
//!
//! # Determinism
//!
//! Per-block profiles are merged in linear block-id order on both the
//! sequential and the parallel executor path, so every exported byte is
//! identical at any `host_threads` setting — the same guarantee traces and
//! hazard reports have. All exports use integer cycle counts and sorted
//! containers; nothing depends on wall-clock time or map iteration order.

use crate::cert::json_escape;
use crate::cost::{Placement, Schedule};
use crate::exec::LaunchConfig;
use crate::ir::Kernel;
use std::fmt::Write as _;
use std::ops::AddAssign;

/// Maximum per-block timeline spans kept per launch; blocks beyond this
/// are still fully counted in every bucket, only their timeline spans are
/// dropped (and reported in `spans_dropped`).
pub const TIMELINE_BLOCKS: usize = 256;

/// One attribution bucket: counters plus the stall-reason cycle split.
/// The same struct serves as the per-step delta the interpreter produces
/// and as the per-PC / per-interval accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PcCounters {
    /// Warp-instructions charged to this bucket.
    pub warp_insts: u64,
    /// Lane-instructions (warp-insts weighted by active lanes).
    pub lane_insts: u64,
    /// Issue cost cycles.
    pub issue_cycles: u64,
    /// ALU cycles (including FP64/SFU surcharges).
    pub alu_cycles: u64,
    /// First-transaction global memory cycles.
    pub mem_cycles: u64,
    /// Extra cycles from memory-transaction serialization (`tx - 1`
    /// segments of an uncoalesced access).
    pub mem_serial_cycles: u64,
    /// First-way shared memory cycles.
    pub shared_cycles: u64,
    /// Extra cycles from bank-conflict serialization (`ways - 1`).
    pub conflict_cycles: u64,
    /// Atomic per-lane serialization cycles.
    pub atomic_cycles: u64,
    /// Barrier arrival cycles.
    pub barrier_cycles: u64,
    /// Global memory instructions (warp-level).
    pub global_accesses: u64,
    /// Global memory transactions.
    pub global_transactions: u64,
    /// Shared memory instructions (warp-level).
    pub shared_accesses: u64,
    /// Bank-conflict serialization ways.
    pub shared_ways: u64,
    /// Atomic instructions (warp-level).
    pub atomics: u64,
    /// Barrier arrivals (warp-level).
    pub barriers: u64,
}

impl PcCounters {
    /// Total raw cycles in this bucket — by construction exactly the
    /// cycles the interpreter charged (the stall split is a partition).
    pub fn cycles(&self) -> u64 {
        self.issue_cycles
            + self.alu_cycles
            + self.mem_cycles
            + self.mem_serial_cycles
            + self.shared_cycles
            + self.conflict_cycles
            + self.atomic_cycles
            + self.barrier_cycles
    }
}

impl AddAssign for PcCounters {
    fn add_assign(&mut self, o: Self) {
        self.warp_insts += o.warp_insts;
        self.lane_insts += o.lane_insts;
        self.issue_cycles += o.issue_cycles;
        self.alu_cycles += o.alu_cycles;
        self.mem_cycles += o.mem_cycles;
        self.mem_serial_cycles += o.mem_serial_cycles;
        self.shared_cycles += o.shared_cycles;
        self.conflict_cycles += o.conflict_cycles;
        self.atomic_cycles += o.atomic_cycles;
        self.barrier_cycles += o.barrier_cycles;
        self.global_accesses += o.global_accesses;
        self.global_transactions += o.global_transactions;
        self.shared_accesses += o.shared_accesses;
        self.shared_ways += o.shared_ways;
        self.atomics += o.atomics;
        self.barriers += o.barriers;
    }
}

/// Per-block profile collected while a block executes; merged into a
/// [`LaunchProfile`] in linear block-id order.
#[derive(Debug, Clone)]
pub struct BlockProfile {
    /// Linear block id.
    pub block_id: u32,
    /// Per-PC buckets, indexed by instruction index.
    pub pcs: Vec<PcCounters>,
    /// Per-barrier-interval buckets (interval 0 = before the first
    /// release).
    pub intervals: Vec<PcCounters>,
    /// Raw cycles per warp (for the timeline's warp sub-spans).
    pub warp_cycles: Vec<u64>,
    interval: u32,
}

impl BlockProfile {
    /// Fresh profile for a block of `num_warps` warps running a kernel of
    /// `num_insts` instructions.
    pub fn new(block_id: u32, num_insts: usize, num_warps: usize) -> Self {
        BlockProfile {
            block_id,
            pcs: vec![PcCounters::default(); num_insts],
            intervals: vec![PcCounters::default()],
            warp_cycles: vec![0; num_warps],
            interval: 0,
        }
    }

    /// Record one warp-step delta at `pc` on warp `warp`.
    pub fn record(&mut self, pc: usize, warp: u32, d: &PcCounters) {
        self.pcs[pc] += *d;
        let iv = self.interval as usize;
        self.intervals[iv] += *d;
        self.warp_cycles[warp as usize] += d.cycles();
    }

    /// A barrier released: subsequent deltas belong to the next interval.
    pub fn barrier_release(&mut self) {
        self.interval += 1;
        self.intervals.push(PcCounters::default());
    }
}

/// One block's span on the modelled per-SM timeline.
#[derive(Debug, Clone)]
pub struct BlockSpan {
    /// Linear block id.
    pub block: u32,
    /// SM the launch schedule placed the block on.
    pub sm: u32,
    /// Start cycle relative to the launch start.
    pub start: u64,
    /// Modelled block cycles.
    pub cycles: u64,
    /// Raw per-warp cycles (scaled into sub-spans at export time).
    pub warp_cycles: Vec<u64>,
}

/// Aggregated profile of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchProfile {
    /// Kernel name.
    pub kernel: String,
    /// Grid dimensions.
    pub grid: (u32, u32),
    /// Block dimensions.
    pub block: (u32, u32),
    /// Disassembly text per PC.
    pub inst_text: Vec<String>,
    /// Source line per PC (0 = unknown); empty when the kernel carries no
    /// line table.
    pub lines: Vec<u32>,
    /// Per-PC buckets summed over all blocks.
    pub pcs: Vec<PcCounters>,
    /// Per-barrier-interval buckets summed over all blocks.
    pub intervals: Vec<PcCounters>,
    /// Blocks merged so far.
    pub blocks: u64,
    /// Modelled cycles per SM at the end of the launch.
    pub sm_cycles: Vec<u64>,
    /// Per-block timeline spans (bounded by [`TIMELINE_BLOCKS`]).
    pub block_spans: Vec<BlockSpan>,
    /// Blocks whose timeline spans were dropped by the bound.
    pub spans_dropped: u64,
    /// Fixed launch overhead included in `cycles`.
    pub launch_overhead: u64,
    /// Modelled launch cycles (max over SMs + launch overhead).
    pub cycles: u64,
    /// False when the launch errored out (partial attribution kept).
    pub completed: bool,
}

impl LaunchProfile {
    /// Fresh profile for launching `kernel` with geometry `cfg`.
    pub fn new(kernel: &Kernel, cfg: LaunchConfig) -> Self {
        LaunchProfile {
            kernel: kernel.name.clone(),
            grid: cfg.grid,
            block: cfg.block,
            inst_text: kernel.insts.iter().map(crate::ir::format_inst).collect(),
            lines: kernel.lines.clone(),
            pcs: vec![PcCounters::default(); kernel.insts.len()],
            intervals: Vec::new(),
            blocks: 0,
            sm_cycles: Vec::new(),
            block_spans: Vec::new(),
            spans_dropped: 0,
            launch_overhead: 0,
            cycles: 0,
            completed: false,
        }
    }

    /// Merge one block's profile, which the launch schedule placed `at`.
    /// Called by the executor's commit, in linear block-id order.
    pub(crate) fn merge_block(&mut self, bp: BlockProfile, at: Placement) {
        self.blocks += 1;
        for (dst, src) in self.pcs.iter_mut().zip(&bp.pcs) {
            *dst += *src;
        }
        for (i, iv) in bp.intervals.iter().enumerate() {
            if self.intervals.len() <= i {
                self.intervals.push(PcCounters::default());
            }
            self.intervals[i] += *iv;
        }
        if self.block_spans.len() < TIMELINE_BLOCKS {
            self.block_spans.push(BlockSpan {
                block: bp.block_id,
                sm: at.sm,
                start: at.start,
                cycles: at.cycles,
                warp_cycles: bp.warp_cycles,
            });
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Close the launch with the schedule's totals.
    pub(crate) fn finish(&mut self, schedule: &Schedule, completed: bool) {
        self.sm_cycles = schedule.sm_cycles().to_vec();
        self.launch_overhead = schedule.launch_overhead();
        self.cycles = schedule.cycles();
        self.completed = completed;
    }

    /// Sum of all per-PC buckets (raw cycles and counters).
    pub fn totals(&self) -> PcCounters {
        let mut t = PcCounters::default();
        for p in &self.pcs {
            t += *p;
        }
        t
    }

    /// Roll per-PC buckets up to source lines (ascending line order; line
    /// 0 collects PCs with no line info). Empty when the kernel carries no
    /// line table.
    pub fn line_rollup(&self) -> Vec<(u32, PcCounters)> {
        if self.lines.is_empty() {
            return Vec::new();
        }
        let mut map = std::collections::BTreeMap::<u32, PcCounters>::new();
        for (pc, c) in self.pcs.iter().enumerate() {
            let line = self.lines.get(pc).copied().unwrap_or(0);
            *map.entry(line).or_default() += *c;
        }
        map.into_iter().collect()
    }
}

/// Kind of a session timeline span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Host-to-device transfer.
    H2d,
    /// Device-to-host transfer.
    D2h,
    /// Kernel launch (index into [`SessionProfile::launches`]).
    Kernel,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::H2d => "h2d",
            SpanKind::D2h => "d2h",
            SpanKind::Kernel => "kernel",
        }
    }
}

/// One span on the session's modelled timeline.
#[derive(Debug, Clone)]
pub struct TimelineSpan {
    /// Span kind.
    pub kind: SpanKind,
    /// Display name (kernel name, or `h2d`/`d2h`).
    pub name: String,
    /// Start cycle on the session timeline.
    pub start: u64,
    /// Duration in modelled cycles.
    pub cycles: u64,
    /// Bytes moved (transfers only).
    pub bytes: u64,
}

/// Whole-session profile: every launch's [`LaunchProfile`] plus the
/// modelled timeline of transfers and kernels, in program order.
#[derive(Debug, Clone, Default)]
pub struct SessionProfile {
    /// Modelled-cycle cursor (next span starts here).
    pub cursor: u64,
    /// Timeline spans in program order.
    pub timeline: Vec<TimelineSpan>,
    /// Per-launch profiles in launch order.
    pub launches: Vec<LaunchProfile>,
}

impl SessionProfile {
    /// Record a host<->device transfer span and advance the cursor.
    pub fn add_transfer(&mut self, kind: SpanKind, bytes: u64, cycles: u64) {
        self.timeline.push(TimelineSpan {
            kind,
            name: kind.label().to_string(),
            start: self.cursor,
            cycles,
            bytes,
        });
        self.cursor += cycles;
    }

    /// Record a finished launch and its kernel span; advances the cursor
    /// by the launch's modelled cycles.
    pub fn add_launch(&mut self, lp: LaunchProfile) {
        self.timeline.push(TimelineSpan {
            kind: SpanKind::Kernel,
            name: lp.kernel.clone(),
            start: self.cursor,
            cycles: lp.cycles,
            bytes: 0,
        });
        self.cursor += lp.cycles;
        self.launches.push(lp);
    }

    /// Human-readable profile report. When `source` is given, per-line
    /// rows quote the source line text.
    pub fn report(&self, source: Option<&str>) -> String {
        let src_lines: Vec<&str> = source.map(|s| s.lines().collect()).unwrap_or_default();
        let mut out = String::new();
        let _ = writeln!(out, "== uhprof: {} launch(es) ==", self.launches.len());
        for lp in &self.launches {
            render_launch(&mut out, lp, &src_lines);
        }
        if !self.timeline.is_empty() {
            let _ = writeln!(out, "timeline (modelled cycles):");
            for s in &self.timeline {
                let extra = if s.bytes > 0 {
                    format!("  {} bytes", s.bytes)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {:>12} +{:<12} {:<8} {}{}",
                    s.start,
                    s.cycles,
                    s.kind.label(),
                    s.name,
                    extra
                );
            }
        }
        out
    }

    /// Stable machine-readable JSON. Integer cycle counts only; key order
    /// and formatting are fixed, so output is byte-identical across runs
    /// and `host_threads` settings.
    pub fn to_json(&self) -> String {
        let mut launches = Vec::new();
        for lp in &self.launches {
            let t = lp.totals();
            let mut fields = vec![
                format!("\"kernel\":\"{}\"", json_escape(&lp.kernel)),
                format!("\"grid\":[{},{}]", lp.grid.0, lp.grid.1),
                format!("\"block\":[{},{}]", lp.block.0, lp.block.1),
                format!("\"blocks\":{}", lp.blocks),
                format!("\"cycles\":{}", lp.cycles),
                format!("\"launch_overhead\":{}", lp.launch_overhead),
                format!("\"completed\":{}", lp.completed),
                format!("\"totals\":{}", counters_json(&t)),
                format!(
                    "\"sm_cycles\":[{}]",
                    lp.sm_cycles
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ];
            let line_rows: Vec<String> = lp
                .line_rollup()
                .iter()
                .filter(|(_, c)| c.warp_insts > 0)
                .map(|(line, c)| format!("{{\"line\":{line},\"counters\":{}}}", counters_json(c)))
                .collect();
            fields.push(format!("\"lines\":[{}]", line_rows.join(",")));
            let pc_rows: Vec<String> = lp
                .pcs
                .iter()
                .enumerate()
                .filter(|(_, c)| c.warp_insts > 0)
                .map(|(pc, c)| {
                    format!(
                        "{{\"pc\":{pc},\"line\":{},\"inst\":\"{}\",\"counters\":{}}}",
                        lp.lines.get(pc).copied().unwrap_or(0),
                        json_escape(&lp.inst_text[pc]),
                        counters_json(c)
                    )
                })
                .collect();
            fields.push(format!("\"pcs\":[{}]", pc_rows.join(",")));
            let iv_rows: Vec<String> = lp
                .intervals
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{{\"interval\":{i},\"counters\":{}}}", counters_json(c)))
                .collect();
            fields.push(format!("\"intervals\":[{}]", iv_rows.join(",")));
            fields.push(format!("\"spans_dropped\":{}", lp.spans_dropped));
            launches.push(format!("{{{}}}", fields.join(",")));
        }
        let timeline: Vec<String> = self
            .timeline
            .iter()
            .map(|s| {
                format!(
                    "{{\"kind\":\"{}\",\"name\":\"{}\",\"start\":{},\"cycles\":{},\"bytes\":{}}}",
                    s.kind.label(),
                    json_escape(&s.name),
                    s.start,
                    s.cycles,
                    s.bytes
                )
            })
            .collect();
        format!(
            "{{\"version\":1,\"total_cycles\":{},\"launches\":[{}],\"timeline\":[{}]}}",
            self.cursor,
            launches.join(","),
            timeline.join(",")
        )
    }

    /// Chrome-trace (`chrome://tracing` / Perfetto) JSON. Timestamps and
    /// durations are modelled cycles. Process 0 carries the runtime
    /// stream (transfers + kernel spans); process 1 carries per-SM tracks
    /// with block spans and (optionally) scaled warp sub-spans.
    pub fn to_chrome_trace(&self) -> String {
        format!(
            "{{\"traceEvents\":[{}]}}",
            self.chrome_trace_events(0, 0, "").join(",")
        )
    }

    /// The session timeline as individual Chrome-trace event objects,
    /// remapped for splicing: `ts_offset` is added to every timestamp,
    /// `pid_base` to both process ids, and `label` prefixes the process
    /// names. `(0, 0, "")` reproduces [`Self::to_chrome_trace`]'s event
    /// list byte-for-byte; the observability layer uses non-zero offsets
    /// to merge this device timeline into a unified request trace on a
    /// shared timebase (device durations stay modelled cycles, anchored
    /// at the request's execution instant).
    pub fn chrome_trace_events(&self, ts_offset: u64, pid_base: u32, label: &str) -> Vec<String> {
        let stream_pid = pid_base;
        let sm_pid = pid_base + 1;
        let mut ev: Vec<String> = vec![
            meta_event(
                "process_name",
                stream_pid,
                None,
                &format!("{label}accrt runtime"),
            ),
            meta_event("thread_name", stream_pid, Some(0), "stream"),
            meta_event("process_name", sm_pid, None, &format!("{label}gpsim SMs")),
        ];
        let mut sms_named = std::collections::BTreeSet::new();
        let mut kernel_idx = 0usize;
        for s in &self.timeline {
            let args = if s.bytes > 0 {
                format!(",\"args\":{{\"bytes\":{}}}", s.bytes)
            } else {
                String::new()
            };
            ev.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{stream_pid},\"tid\":0{}}}",
                json_escape(&s.name),
                ts_offset + s.start,
                s.cycles,
                args
            ));
            if s.kind != SpanKind::Kernel {
                continue;
            }
            let lp = &self.launches[kernel_idx];
            kernel_idx += 1;
            for bs in &lp.block_spans {
                if sms_named.insert(bs.sm) {
                    ev.push(meta_event(
                        "thread_name",
                        sm_pid,
                        Some(bs.sm),
                        &format!("SM {}", bs.sm),
                    ));
                }
                let ts = ts_offset + s.start + bs.start;
                ev.push(format!(
                    "{{\"name\":\"{} b{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":{sm_pid},\"tid\":{}}}",
                    json_escape(&lp.kernel),
                    bs.block,
                    bs.cycles,
                    bs.sm
                ));
                if bs.warp_cycles.len() > 1 {
                    for (w, dur) in scale_warp_spans(&bs.warp_cycles, bs.cycles) {
                        let mut off = 0u64;
                        // Recompute offset as prefix sum of earlier warps.
                        for (pw, pdur) in scale_warp_spans(&bs.warp_cycles, bs.cycles) {
                            if pw < w {
                                off += pdur;
                            }
                        }
                        if dur == 0 {
                            continue;
                        }
                        ev.push(format!(
                            "{{\"name\":\"w{w}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":{sm_pid},\"tid\":{}}}",
                            ts + off,
                            bs.sm
                        ));
                    }
                }
            }
        }
        ev
    }
}

/// Scale raw per-warp cycles into integer sub-span durations summing to
/// exactly `block_cycles` (largest-remainder apportionment; deterministic).
fn scale_warp_spans(warp_cycles: &[u64], block_cycles: u64) -> Vec<(usize, u64)> {
    let raw_total: u64 = warp_cycles.iter().sum();
    if raw_total == 0 || block_cycles == 0 {
        return warp_cycles
            .iter()
            .enumerate()
            .map(|(w, _)| (w, 0))
            .collect();
    }
    let mut out: Vec<(usize, u64)> = warp_cycles
        .iter()
        .enumerate()
        .map(|(w, &c)| (w, c * block_cycles / raw_total))
        .collect();
    let assigned: u64 = out.iter().map(|&(_, d)| d).sum();
    let mut rest = block_cycles - assigned;
    // Hand the integer remainder to the earliest warps (deterministic).
    for slot in out.iter_mut() {
        if rest == 0 {
            break;
        }
        slot.1 += 1;
        rest -= 1;
    }
    out
}

fn meta_event(name: &str, pid: u32, tid: Option<u32>, value: &str) -> String {
    let tid = tid.map_or(String::new(), |t| format!(",\"tid\":{t}"));
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}{tid},\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(value)
    )
}

fn counters_json(c: &PcCounters) -> String {
    format!(
        "{{\"cycles\":{},\"warp_insts\":{},\"lane_insts\":{},\
         \"stalls\":{{\"issue\":{},\"alu\":{},\"mem\":{},\"mem_serial\":{},\
         \"shared\":{},\"conflict\":{},\"atomic\":{},\"barrier\":{}}},\
         \"global_accesses\":{},\"global_transactions\":{},\
         \"shared_accesses\":{},\"shared_ways\":{},\"atomics\":{},\"barriers\":{}}}",
        c.cycles(),
        c.warp_insts,
        c.lane_insts,
        c.issue_cycles,
        c.alu_cycles,
        c.mem_cycles,
        c.mem_serial_cycles,
        c.shared_cycles,
        c.conflict_cycles,
        c.atomic_cycles,
        c.barrier_cycles,
        c.global_accesses,
        c.global_transactions,
        c.shared_accesses,
        c.shared_ways,
        c.atomics,
        c.barriers
    )
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

fn render_launch(out: &mut String, lp: &LaunchProfile, src_lines: &[&str]) {
    let t = lp.totals();
    let total = t.cycles();
    let _ = writeln!(
        out,
        "\nkernel `{}`  grid {}x{}  block {}x{}  blocks {}  {} cycles{}",
        lp.kernel,
        lp.grid.0,
        lp.grid.1,
        lp.block.0,
        lp.block.1,
        lp.blocks,
        lp.cycles,
        if lp.completed { "" } else { "  [FAILED]" }
    );
    let _ = writeln!(out, "  stall breakdown (raw warp cycles):");
    for (label, v) in [
        ("issue", t.issue_cycles),
        ("alu", t.alu_cycles),
        ("mem (first tx)", t.mem_cycles),
        ("mem serialization", t.mem_serial_cycles),
        ("shared (first way)", t.shared_cycles),
        ("bank conflict", t.conflict_cycles),
        ("atomic serialization", t.atomic_cycles),
        ("barrier", t.barrier_cycles),
    ] {
        if v > 0 {
            let _ = writeln!(out, "    {label:<22} {v:>12}  {:5.1}%", pct(v, total));
        }
    }
    let _ = writeln!(
        out,
        "    {:<22} {:>12}  (once per launch)",
        "launch overhead", lp.launch_overhead
    );
    let rollup = lp.line_rollup();
    if !rollup.is_empty() {
        let _ = writeln!(
            out,
            "  per-line attribution:\n    {:>5} {:>12} {:>6} {:>8} {:>8} {:>8}  source",
            "line", "cycles", "%", "gl.tx", "ways", "insts"
        );
        for (line, c) in rollup.iter().filter(|(_, c)| c.warp_insts > 0) {
            let text = if *line == 0 {
                "<runtime/unattributed>".to_string()
            } else {
                src_lines
                    .get(*line as usize - 1)
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default()
            };
            let _ = writeln!(
                out,
                "    {:>5} {:>12} {:>5.1}% {:>8} {:>8} {:>8}  {}",
                if *line == 0 {
                    "?".to_string()
                } else {
                    line.to_string()
                },
                c.cycles(),
                pct(c.cycles(), total),
                c.global_transactions,
                c.shared_ways,
                c.warp_insts,
                text
            );
        }
    }
    // Hottest PCs by raw cycles (stable order: cycles desc, then pc asc).
    let mut hot: Vec<(usize, &PcCounters)> = lp
        .pcs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.warp_insts > 0)
        .collect();
    hot.sort_by(|a, b| b.1.cycles().cmp(&a.1.cycles()).then(a.0.cmp(&b.0)));
    let _ = writeln!(
        out,
        "  hottest pcs:\n    {:>4} {:>5} {:>12} {:>6}  inst",
        "pc", "line", "cycles", "%"
    );
    for (pc, c) in hot.iter().take(10) {
        let _ = writeln!(
            out,
            "    {:>4} {:>5} {:>12} {:>5.1}%  {}",
            pc,
            lp.lines.get(*pc).copied().unwrap_or(0),
            c.cycles(),
            pct(c.cycles(), total),
            lp.inst_text[*pc]
        );
    }
    if lp.intervals.len() > 1 {
        let _ = writeln!(
            out,
            "  barrier intervals:\n    {:>8} {:>12} {:>6} {:>10} {:>10}",
            "interval", "cycles", "%", "mem", "conflict"
        );
        for (i, c) in lp.intervals.iter().enumerate() {
            if c.warp_insts == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:>8} {:>12} {:>5.1}% {:>10} {:>10}",
                i,
                c.cycles(),
                pct(c.cycles(), total),
                c.mem_cycles + c.mem_serial_cycles,
                c.conflict_cycles
            );
        }
    }
    if lp.spans_dropped > 0 {
        let _ = writeln!(
            out,
            "  (timeline: {} block span(s) dropped beyond the {}-block bound)",
            lp.spans_dropped, TIMELINE_BLOCKS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive-field aggregation coverage (same pattern as the
    /// `LaunchStats` test): the literal lists every field without
    /// `..Default::default()` so adding a counter forces an update here,
    /// and each assertion fails until `AddAssign` sums it.
    #[test]
    fn pc_counters_add_assign_covers_every_field() {
        let b = PcCounters {
            warp_insts: 1,
            lane_insts: 2,
            issue_cycles: 3,
            alu_cycles: 4,
            mem_cycles: 5,
            mem_serial_cycles: 6,
            shared_cycles: 7,
            conflict_cycles: 8,
            atomic_cycles: 9,
            barrier_cycles: 10,
            global_accesses: 11,
            global_transactions: 12,
            shared_accesses: 13,
            shared_ways: 14,
            atomics: 15,
            barriers: 16,
        };
        let mut a = b;
        a += b;
        let PcCounters {
            warp_insts,
            lane_insts,
            issue_cycles,
            alu_cycles,
            mem_cycles,
            mem_serial_cycles,
            shared_cycles,
            conflict_cycles,
            atomic_cycles,
            barrier_cycles,
            global_accesses,
            global_transactions,
            shared_accesses,
            shared_ways,
            atomics,
            barriers,
        } = a;
        assert_eq!(warp_insts, 2 * b.warp_insts);
        assert_eq!(lane_insts, 2 * b.lane_insts);
        assert_eq!(issue_cycles, 2 * b.issue_cycles);
        assert_eq!(alu_cycles, 2 * b.alu_cycles);
        assert_eq!(mem_cycles, 2 * b.mem_cycles);
        assert_eq!(mem_serial_cycles, 2 * b.mem_serial_cycles);
        assert_eq!(shared_cycles, 2 * b.shared_cycles);
        assert_eq!(conflict_cycles, 2 * b.conflict_cycles);
        assert_eq!(atomic_cycles, 2 * b.atomic_cycles);
        assert_eq!(barrier_cycles, 2 * b.barrier_cycles);
        assert_eq!(global_accesses, 2 * b.global_accesses);
        assert_eq!(global_transactions, 2 * b.global_transactions);
        assert_eq!(shared_accesses, 2 * b.shared_accesses);
        assert_eq!(shared_ways, 2 * b.shared_ways);
        assert_eq!(atomics, 2 * b.atomics);
        assert_eq!(barriers, 2 * b.barriers);
        // The stall split is a partition of the charged cycles.
        assert_eq!(b.cycles(), 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10);
    }

    #[test]
    fn warp_span_scaling_sums_to_block_cycles() {
        for (warps, cycles) in [
            (vec![100u64, 50, 50], 67u64),
            (vec![1, 1, 1], 100),
            (vec![0, 0], 10),
            (vec![7], 3),
        ] {
            let spans = scale_warp_spans(&warps, cycles);
            let sum: u64 = spans.iter().map(|&(_, d)| d).sum();
            let raw: u64 = warps.iter().sum();
            if raw > 0 {
                assert_eq!(sum, cycles, "warps {warps:?}");
            } else {
                assert_eq!(sum, 0);
            }
        }
    }

    #[test]
    fn block_profile_intervals_split_at_barrier_release() {
        let mut bp = BlockProfile::new(0, 4, 2);
        let d = PcCounters {
            warp_insts: 1,
            issue_cycles: 4,
            ..Default::default()
        };
        bp.record(0, 0, &d);
        bp.barrier_release();
        bp.record(1, 1, &d);
        bp.record(1, 1, &d);
        assert_eq!(bp.intervals.len(), 2);
        assert_eq!(bp.intervals[0].warp_insts, 1);
        assert_eq!(bp.intervals[1].warp_insts, 2);
        assert_eq!(bp.warp_cycles, vec![4, 8]);
        assert_eq!(bp.pcs[1].warp_insts, 2);
    }

    #[test]
    fn session_json_is_wellformed_and_stable() {
        let mut s = SessionProfile::default();
        s.add_transfer(SpanKind::H2d, 128, 7015);
        let j1 = s.to_json();
        let j2 = s.to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"version\":1,"));
        assert!(j1.contains("\"kind\":\"h2d\""));
        let ct = s.to_chrome_trace();
        assert!(ct.starts_with("{\"traceEvents\":["));
        assert!(ct.contains("\"ph\":\"X\""));
    }

    #[test]
    fn chrome_trace_events_remap_and_identity() {
        let mut s = SessionProfile::default();
        s.add_transfer(SpanKind::H2d, 128, 7015);
        // (0, 0, "") must reproduce the standalone trace byte-for-byte.
        let identity = format!(
            "{{\"traceEvents\":[{}]}}",
            s.chrome_trace_events(0, 0, "").join(",")
        );
        assert_eq!(identity, s.to_chrome_trace());
        // Offsets shift timestamps and pids, label prefixes process names.
        let ev = s.chrome_trace_events(500, 1000, "req 3 ");
        let joined = ev.join(",");
        assert!(joined.contains("\"pid\":1000"), "{joined}");
        assert!(joined.contains("req 3 accrt runtime"), "{joined}");
        assert!(joined.contains("req 3 gpsim SMs"), "{joined}");
        assert!(joined.contains("\"ts\":500"), "{joined}");
        assert!(!joined.contains("\"pid\":0,"), "{joined}");
    }
}
