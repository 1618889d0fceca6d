//! The run loop shared by all workloads: repeated set-up, whole passes
//! until the time budget is spent, medians and percentiles, the traced
//! ledger, result files and the one-line result the driver reads.

use crate::json::quote;
use crate::metrics::{Metrics, CATALOGUE};
use crate::span::{self, OpLedger, Span};
use crate::stats::{median, percentile, quantile};
use crate::workloads;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Exact per-pass counts, keyed by catalogue metric name — or by a
/// `raw.`-prefixed helper name the harness derives ratios from.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn bump(counts: &mut Counts, name: &'static str, by: u64) {
    *counts.entry(name).or_default() += by;
}

/// One executed op.
#[derive(Debug)]
pub struct OpSample {
    /// Position of the op in the workload's canonical op list.
    pub slot: usize,
    pub name: String,
    /// Wall time, checks excluded.
    pub ns: u64,
}

/// What one pass over the op list produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub ops: Vec<OpSample>,
    /// Time the pass took: the sum of its ops when they run one after
    /// another, the wall time of the concurrent section otherwise.
    pub wall_ns: u64,
    /// One line per failed op, starting with the op's name.
    pub failures: Vec<String>,
    pub counts: Counts,
}

impl PassOut {
    /// Record one sequentially executed op, the next of the list.
    pub fn push(&mut self, name: &str, ns: u64, check: Result<(), String>) {
        self.ops.push(OpSample {
            slot: self.ops.len(),
            name: name.to_string(),
            ns,
        });
        self.wall_ns += ns;
        if let Err(why) = check {
            self.failures.push(format!("{name}: {why}"));
        }
    }
}

pub trait Workload {
    fn ops_per_pass(&self) -> usize;
    /// Fingerprint of the seed-determined op list (names and inputs).
    fn op_list_hash(&self) -> u64;
    /// Execute the op list once, with the benchmark's spans on or off.
    fn run_pass(&mut self, pass: u64, traced: bool) -> PassOut;
    /// Hand over the spans recorded since the last call, per thread.
    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)>;
    /// `sim_minst_per_s` is defined for this workload.
    fn is_sim(&self) -> bool {
        false
    }
    /// End of the passes, both modes: state read back from the program.
    fn finish(&mut self, _m: &mut Metrics, _failures: &mut Vec<String>) {}
    /// Traced run only, last: measurements taken outside the passes.
    fn side_measurements(&mut self, _quick: bool, _m: &mut Metrics) {}
}

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// Set-ups per run; `setup_s` is their median. The first builds the
/// workload the passes run on; the others are built and dropped between
/// passes, spread evenly over the run — back to back they would all see
/// the same few hundred milliseconds of a machine whose speed drifts by
/// 10–20 % over tens of seconds, and their median would drift with it.
const SETUP_REPS: usize = 9;
/// Share of `--seconds` the traced run spends on passes; the rest is
/// left for the side measurements.
const TRACED_PASS_SHARE: f64 = 0.7;
/// Traced passes whose raw spans are kept for the trace file.
const TRACE_FILE_PASSES: usize = 3;
/// Bound on the op time no layer span accounts for.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Per-op self times folded over all traced passes.
#[derive(Default)]
struct Ledger {
    /// Per span name: self time (µs) of each op that has such a span.
    per_op_us: BTreeMap<&'static str, Vec<f64>>,
    total_self_ns: BTreeMap<&'static str, u64>,
    wall_ns: u64,
    ops: u64,
    ops_over_bound: u64,
    spans_per_pass: Vec<u64>,
    kept: Vec<(u32, Vec<Span>)>,
}

impl Ledger {
    fn absorb(&mut self, threads: Vec<(u32, Vec<Span>)>) {
        let mut spans = 0;
        for (tid, rec) in threads {
            spans += rec.len() as u64;
            for l in span::fold(&rec).values() {
                self.absorb_op(l);
            }
            if self.spans_per_pass.len() < TRACE_FILE_PASSES {
                self.kept.push((tid, rec));
            }
        }
        self.spans_per_pass.push(spans);
    }

    fn absorb_op(&mut self, l: &OpLedger) {
        self.ops += 1;
        self.wall_ns += l.wall_ns;
        self.ops_over_bound += (l.unattributed_share() > MAX_UNATTRIBUTED) as u64;
        for (&name, &ns) in &l.self_ns {
            self.per_op_us
                .entry(name)
                .or_default()
                .push(ns as f64 / 1e3);
            *self.total_self_ns.entry(name).or_default() += ns;
        }
    }

    fn share(&self, name: &str) -> f64 {
        match self.wall_ns {
            0 => 0.0,
            w => *self.total_self_ns.get(name).unwrap_or(&0) as f64 / w as f64,
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the passes of one run produced.
struct Passes {
    setup_s: Vec<f64>,
    passes: u64,
    /// Pass time (s), `[untraced, traced]`.
    walls: [Vec<f64>; 2],
    /// Op times (ms) per slot of the op list, `[untraced, traced]`.
    slots: [Vec<Vec<f64>>; 2],
    names: Vec<String>,
    counts: Counts,
    failed_ops: u64,
    failures: Vec<String>,
    ledger: Ledger,
    elapsed_s: f64,
}

impl Passes {
    /// Index of the passes end-to-end metrics come from: the untraced
    /// ones — except in a quick traced run, which has only its one traced
    /// pass and says `quick` in its result.
    fn plain(&self) -> usize {
        self.walls[0].is_empty() as usize
    }
}

/// One complete set-up, timed.
fn timed_setup(args: &RunArgs) -> Result<(f64, Box<dyn Workload>), String> {
    let t = Instant::now();
    let w = workloads::setup(&args.workload, args.seed)?;
    Ok((t.elapsed().as_secs_f64(), w))
}

/// Whole passes until the next would overrun the budget.
fn measure(w: &mut dyn Workload, args: &RunArgs, first_setup_s: f64) -> Passes {
    let budget = args.seconds * if args.trace { TRACED_PASS_SHARE } else { 1.0 };
    let min_passes = if args.trace && !args.quick { 2 } else { 1 };
    let t_run = Instant::now();
    let mut spent = Vec::new(); // wall time per pass, its preparation included
    let mut counts: Option<Counts> = None;
    let mut r = Passes {
        setup_s: vec![first_setup_s],
        passes: 0,
        walls: Default::default(),
        slots: [
            vec![Vec::new(); w.ops_per_pass()],
            vec![Vec::new(); w.ops_per_pass()],
        ],
        names: vec![String::new(); w.ops_per_pass()],
        counts: Counts::new(),
        failed_ops: 0,
        failures: Vec::new(),
        ledger: Ledger::default(),
        elapsed_s: 0.0,
    };
    loop {
        // Traced and untraced passes alternate so that both see the same
        // machine conditions; their ratio is the tracing overhead.
        let (pass, traced) = (
            r.passes,
            args.trace && (args.quick || r.passes.is_multiple_of(2)),
        );
        let t_pass = Instant::now();
        let out = w.run_pass(pass, traced);
        spent.push(t_pass.elapsed().as_secs_f64());
        r.walls[traced as usize].push(out.wall_ns as f64 / 1e9);
        for op in out.ops {
            r.slots[traced as usize][op.slot].push(op.ns as f64 / 1e6);
            r.names[op.slot] = op.name;
        }
        r.failed_ops += out.failures.len() as u64;
        r.failures.extend(
            out.failures
                .into_iter()
                .map(|f| format!("pass {pass}: {f}")),
        );
        match &counts {
            None => counts = Some(out.counts),
            Some(first) => {
                for name in first.keys().chain(out.counts.keys()) {
                    let (a, b) = (first.get(name), out.counts.get(name));
                    if a != b {
                        r.failures.push(format!(
                            "harness: count `{name}` is {a:?} on pass 0 but {b:?} on pass {pass}"
                        ));
                    }
                }
            }
        }
        if traced {
            r.ledger.absorb(w.take_spans());
        }
        r.passes += 1;
        let elapsed = t_run.elapsed().as_secs_f64();
        let due = budget * (r.setup_s.len() - 1) as f64 / (SETUP_REPS - 1) as f64;
        if !args.quick && r.setup_s.len() < SETUP_REPS && elapsed >= due {
            match timed_setup(args) {
                Ok((s, _dropped)) => r.setup_s.push(s),
                Err(e) => r.failures.push(format!("harness: repeated set-up: {e}")),
            }
        }
        let done = args.quick || t_run.elapsed().as_secs_f64() + median(&spent) > budget;
        if r.passes >= min_passes && done {
            break;
        }
    }
    r.counts = counts.expect("at least one pass");
    r.elapsed_s = t_run.elapsed().as_secs_f64();
    r
}

/// End-to-end metrics and exact counts, from the untraced passes.
fn end_to_end(r: &Passes, w: &dyn Workload, m: &mut Metrics) {
    let (pass_s, slots) = (&r.walls[r.plain()], &r.slots[r.plain()]);
    let typical: Vec<f64> = slots.iter().map(|ms| median(ms)).collect();
    let samples: Vec<f64> = slots.iter().flatten().copied().collect();
    let n_ops = samples.len() as u64;
    let attempted = r.passes * w.ops_per_pass() as u64;
    m.set("setup_s", median(&r.setup_s), r.setup_s.len() as u64);
    m.set(
        "ops_per_s",
        w.ops_per_pass() as f64 / median(pass_s),
        pass_s.len() as u64,
    );
    // How long the ops of the list typically take: percentiles over the
    // list of each op's median across passes. (A percentile over pooled
    // samples of a few dozen distinct ops sits on the edge between two of
    // them and flips from run to run.) The tail of the raw samples is
    // `op_ms_p99`, reported once ten samples lie beyond it.
    m.set("op_ms_p50", quantile(&typical, 0.50), n_ops);
    m.set("op_ms_p95", quantile(&typical, 0.95), n_ops);
    if let Some(p99) = percentile(&samples, 0.99) {
        m.set("op_ms_p99", p99, n_ops);
    }
    m.set(
        "fail_share",
        r.failed_ops as f64 / attempted as f64,
        attempted,
    );
    for (&name, &v) in &r.counts {
        if !name.starts_with("raw.") {
            m.set(name, v as f64, r.passes);
        }
    }
    let count = |name: &str| *r.counts.get(name).unwrap_or(&0) as f64;
    for (name, num, den) in [
        (
            "gpsim.avg_active_lanes",
            "gpsim.lane_insts",
            "gpsim.warp_insts",
        ),
        (
            "gpsim.tx_per_access",
            "gpsim.global_tx",
            "raw.global_accesses",
        ),
        (
            "gpsim.bank_ways_per_access",
            "raw.shared_ways",
            "raw.shared_accesses",
        ),
        // Region runs the session's own instance cache served.
        (
            "accrt.region_cache_hit_ratio",
            "raw.region_hits",
            "raw.region_runs",
        ),
    ] {
        if count(den) > 0.0 {
            m.set(name, count(num) / count(den), r.passes);
        }
    }
    if w.is_sim() {
        m.set(
            "sim_minst_per_s",
            count("gpsim.lane_insts") / 1e6 / median(pass_s),
            pass_s.len() as u64,
        );
    }
}

/// Per-layer metrics, from the traced passes.
fn per_layer(r: &mut Passes, m: &mut Metrics) {
    let ledger = &r.ledger;
    for d in CATALOGUE {
        let stem = match d.name {
            "accrt.run_self_us" => "accrt.run",
            n => match n.strip_suffix("_us") {
                Some(stem) => stem,
                None => continue,
            },
        };
        if let Some(v) = ledger.per_op_us.get(stem) {
            m.set(d.name, median(v), v.len() as u64);
        }
    }
    m.set(
        "gpsim.launch_share",
        ledger.share("gpsim.launch"),
        ledger.ops,
    );
    m.set("unattributed_share", ledger.share(span::ROOT), ledger.ops);
    let front_ns = ["accparse.parse", "accparse.sema"]
        .iter()
        .map(|name| ledger.total_self_ns.get(name).unwrap_or(&0))
        .sum::<u64>();
    if front_ns > 0 {
        let src_bytes = *r.counts.get("raw.src_bytes").unwrap_or(&0) as f64;
        let bytes = src_bytes * ledger.spans_per_pass.len() as f64;
        m.set(
            "accparse.src_mb_per_s",
            bytes / 1e6 / (front_ns as f64 / 1e9),
            ledger.ops,
        );
    }
    if !r.walls[0].is_empty() {
        m.set(
            "uhobs.trace_overhead_share",
            median(&r.walls[1]) / median(&r.walls[0]) - 1.0,
            r.walls[1].len() as u64,
        );
    }
    let spans = &ledger.spans_per_pass;
    m.set("uhobs.spans", spans[0] as f64, spans.len() as u64);
    if spans.iter().any(|&s| s != spans[0]) {
        r.failures
            .push(format!("harness: spans per traced pass differ: {spans:?}"));
    }
    if ledger.share(span::ROOT) > MAX_UNATTRIBUTED {
        r.failures.push(format!(
            "harness: unattributed_share {:.4} exceeds {MAX_UNATTRIBUTED} \
             ({} of {} traced ops over the bound)",
            ledger.share(span::ROOT),
            ledger.ops_over_bound,
            ledger.ops
        ));
    }
}

/// The result file: the run's identity, every metric, every untraced
/// pass's time in order, and one row per op of the list.
fn result_doc(args: &RunArgs, w: &dyn Workload, r: &Passes, m: &Metrics) -> String {
    let mut doc = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\
         \"passes\":{},\"ops_per_pass\":{},\"op_list_hash\":\"{:016x}\",\
         \"attempted\":{},\"failed\":{},\"correct\":{},\n\"failures\":[{}],\n\"metrics\":{{",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        r.passes,
        w.ops_per_pass(),
        w.op_list_hash(),
        r.passes * w.ops_per_pass() as u64,
        r.failed_ops,
        r.failures.is_empty(),
        r.failures
            .iter()
            .map(|f| quote(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, (d, v)) in m.iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
            if i > 0 { "," } else { "" },
            quote(d.name),
            v.value,
            quote(d.unit),
            v.samples
        );
    }
    let pass_s: Vec<String> = r.walls[r.plain()].iter().map(f64::to_string).collect();
    let _ = write!(doc, "\n}},\n\"pass_s\":[{}],\n\"ops\":[", pass_s.join(","));
    for (i, (name, ms)) in r.names.iter().zip(&r.slots[r.plain()]).enumerate() {
        let _ = write!(
            doc,
            "{}\n{{\"name\":{},\"median_ms\":{},\"samples\":{}}}",
            if i > 0 { "," } else { "" },
            quote(name),
            median(ms),
            ms.len()
        );
    }
    doc.push_str("\n]}\n");
    doc
}

/// Run one workload and print its result; `Ok(correct)`. `Err` means no
/// result could be produced at all (bad arguments, the repository is not
/// there).
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let (first_setup_s, mut w) = timed_setup(args)?;
    let mut r = measure(w.as_mut(), args, first_setup_s);
    let mut m = Metrics::default();
    end_to_end(&r, w.as_ref(), &mut m);
    if args.trace {
        per_layer(&mut r, &mut m);
    }
    // State is read back before the side measurements disturb it.
    w.finish(&mut m, &mut r.failures);
    if args.trace {
        w.side_measurements(args.quick, &mut m);
    }
    m.set("peak_rss_mb", peak_rss_mb(), 1);

    // For people: every metric with its unit and sample count.
    let correct = r.failures.is_empty();
    println!(
        "# uhbench {} ({}{}): seed {}, {} passes x {} ops in {:.1} s, op list {:016x}",
        args.workload,
        if args.trace { "traced" } else { "timed" },
        if args.quick { ", quick" } else { "" },
        args.seed,
        r.passes,
        w.ops_per_pass(),
        r.elapsed_s,
        w.op_list_hash()
    );
    for (d, v) in m.iter() {
        println!(
            "{:<34} {:>16.4} {:<8} n={}",
            d.name, v.value, d.unit, v.samples
        );
    }
    if args.trace {
        println!("# self time by layer, share of traced op time:");
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for name in r.ledger.total_self_ns.keys() {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += r.ledger.share(name);
        }
        for (layer, share) in by_layer {
            println!("#   {layer:<10} {share:.4}");
        }
    }
    for f in r.failures.iter().take(20) {
        println!("FAIL {f}");
    }
    if r.failures.len() > 20 {
        println!("FAIL ... and {} more", r.failures.len() - 20);
    }

    // For tools: the result file(s).
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let write = |ext: &str, text: &str| {
        let path = args.out.join(&args.workload).with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let doc = result_doc(args, w.as_ref(), &r, &m);
    if args.trace {
        write("layers.json", &doc)?;
        let threads: Vec<(u32, &[Span])> = r
            .ledger
            .kept
            .iter()
            .map(|(tid, s)| (*tid, s.as_slice()))
            .collect();
        let process = format!("uhbench {}", args.workload);
        write("trace.json", &span::chrome_trace(&process, &threads))?;
    } else {
        write("json", &doc)?;
    }

    // For the driver, last: exactly the metrics BENCHMARK.json lists for
    // the mode, every one of them.
    let line: Vec<String> = m
        .listed(!args.trace)
        .iter()
        .map(|(d, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(d.name),
                v.value,
                quote(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.passes * w.ops_per_pass() as u64,
        r.failed_ops,
        line.join(",")
    );
    Ok(correct)
}
