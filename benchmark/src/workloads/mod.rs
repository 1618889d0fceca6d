//! The five workloads, and the pieces the simulator-driving ones share.

use crate::harness::{bump, Counts, Workload};
use crate::json::{self, Json};
use crate::span::Recorder;
use std::sync::Arc;
use std::time::Instant;
use uhacc::obs::{Clock, Tracer};
use uhacc::rt::{AccRunner, RunnerObs};
use uhacc::sim::{CompiledKernel, Kernel, SessionStats};

pub mod apps_sim;
pub mod check_rails;
pub mod compile_cold;
pub mod daemon_mix;
pub mod table2_sim;

/// Workload names, in the order `all` runs them and `BENCHMARK.json`
/// lists them. Later issues cite these names.
pub const NAMES: [&str; 5] = [
    "table2_sim",
    "apps_sim",
    "compile_cold",
    "check_rails",
    "daemon_mix",
];

/// Simulator host threads in every timed run: one, so a pass measures
/// the simulator and not the box's spare core.
pub const HOST_THREADS: u32 = 1;

/// Build a workload from its seed: corpus, op list, reference answers,
/// daemon, and one untimed warm-up. This is what `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table2_sim" => Box::new(table2_sim::Table2Sim::setup(seed)?),
        "apps_sim" => Box::new(apps_sim::AppsSim::setup(seed)?),
        "compile_cold" => Box::new(compile_cold::CompileCold::setup(seed)?),
        "check_rails" => Box::new(check_rails::CheckRails::setup(seed)?),
        "daemon_mix" => Box::new(daemon_mix::DaemonMix::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Time one op: a root span around `f`, and a wall clock the harness
/// uses whether or not spans are on.
pub fn timed<T>(rec: &mut Recorder, op: u32, f: impl FnOnce(&mut Recorder) -> T) -> (u64, T) {
    let t = Instant::now();
    let root = rec.begin_op(op);
    let v = f(rec);
    rec.exit(root);
    (t.elapsed().as_nanos() as u64, v)
}

/// Reads the runtime's existing observability hook from outside: a
/// traced op attaches a [`RunnerObs`] to its session, and afterwards the
/// `codegen`/`h2d`/`launch`/`d2h` phases the runtime recorded inside
/// `run()` are imported as child spans of the benchmark's own.
pub struct Bridge {
    clock: Arc<Clock>,
    /// Phase spans the runtime's tracer dropped (its buffer is bounded).
    pub dropped: u64,
}

impl Bridge {
    /// The bridge and the origin for the benchmark's [`Recorder`]: the
    /// two clocks start within nanoseconds of each other, far below the
    /// runtime clock's one-microsecond resolution.
    pub fn new() -> (Bridge, Instant) {
        let clock = Arc::new(Clock::monotonic());
        let bridge = Bridge { clock, dropped: 0 };
        (bridge, Instant::now())
    }

    pub fn attach(&self, r: &mut AccRunner, rec: &Recorder) -> Option<Arc<Tracer>> {
        rec.is_on().then(|| {
            let tracer = Arc::new(Tracer::with_capacity(
                Arc::clone(&self.clock),
                "uhbench",
                1 << 16,
            ));
            r.set_obs(RunnerObs {
                tracer: Arc::clone(&tracer),
                trace_id: 1,
                compile_hist: None,
            });
            tracer
        })
    }

    /// Import what `tracer` saw into the current op of `rec`. Call after
    /// the op's root span has closed, so the import is not timed.
    pub fn import(&mut self, tracer: Option<Arc<Tracer>>, rec: &mut Recorder) {
        let Some(tracer) = tracer else { return };
        self.dropped += tracer.dropped();
        let doc = json::parse(&tracer.to_chrome_trace()).expect("uhobs emits valid JSON");
        for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
            if ev.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let field = |k| ev.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let name = match ev.get("name").and_then(Json::as_str).unwrap_or("") {
                n if n.starts_with("codegen.") => "accrt.codegen",
                n if n.starts_with("h2d.") => "accrt.h2d",
                n if n.starts_with("launch.") => "gpsim.launch",
                n if n.starts_with("d2h.") => "accrt.d2h",
                _ => continue,
            };
            let start = (field("ts") * 1e3) as u64;
            rec.import(name, start, start + (field("dur") * 1e3) as u64);
        }
    }
}

/// What a simulator op hands back for checking and counting, outside its
/// timed part.
pub struct Ran<A> {
    pub got: Result<A, String>,
    pub stats: SessionStats,
    /// Region compilations the session performed itself.
    pub compiles: u64,
}

impl<A> Ran<A> {
    pub fn of(got: Result<A, String>, r: &AccRunner) -> Self {
        Ran {
            got,
            stats: *r.device().stats(),
            compiles: r.compiles(),
        }
    }

    /// Add the session's statistics to a pass's counts; `region_runs` is
    /// how many region executions the op made.
    pub fn count(&self, counts: &mut Counts, region_runs: u64) {
        add_session_stats(counts, &self.stats);
        bump(counts, "raw.region_runs", region_runs);
        bump(counts, "raw.region_hits", region_runs - self.compiles);
    }
}

/// Add a finished session's device statistics to a pass's counts.
pub fn add_session_stats(counts: &mut Counts, s: &SessionStats) {
    bump(counts, "modelled_cycles", s.total_cycles());
    bump(counts, "accrt.launches", s.launches);
    bump(counts, "accrt.bytes_h2d", s.bytes_h2d);
    bump(counts, "accrt.bytes_d2h", s.bytes_d2h);
    bump(counts, "accrt.transfer_cycles", s.transfer_cycles);
    bump(counts, "gpsim.kernel_cycles", s.kernel_cycles);
    bump(counts, "gpsim.lane_insts", s.totals.lane_insts);
    bump(counts, "gpsim.warp_insts", s.totals.warp_insts);
    bump(counts, "gpsim.global_tx", s.totals.global_transactions);
    bump(counts, "gpsim.barriers", s.totals.barriers);
    bump(counts, "gpsim.atomics", s.totals.atomics);
    bump(counts, "gpsim.hazards", s.totals.hazards);
    bump(counts, "raw.global_accesses", s.totals.global_accesses);
    bump(counts, "raw.shared_accesses", s.totals.shared_accesses);
    bump(counts, "raw.shared_ways", s.totals.shared_ways);
}

/// Static size of one compiled region.
pub fn add_region_statics(counts: &mut Counts, c: &uhacc::core::CompiledRegion) {
    let kernels = std::iter::once(&c.main).chain(c.finalize.iter().map(|f| &f.kernel));
    for k in kernels {
        bump(counts, "core.kernel_insts", k.insts.len() as u64);
        bump(counts, "core.kernel_regs", k.num_regs as u64);
        bump(counts, "core.shared_bytes", k.shared_bytes as u64);
    }
    bump(counts, "core.finalize_passes", c.finalize.len() as u64);
}

/// Host time to pre-decode a region's kernels for the compiled tier,
/// which the simulator pays on every launch: per kernel the median of a
/// few calls to the public `CompiledKernel::compile`, replayed outside
/// any op.
pub fn region_decode_us(c: &uhacc::core::CompiledRegion) -> f64 {
    let decode = |kernel: &Kernel| {
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(CompiledKernel::compile(std::hint::black_box(kernel)));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        crate::stats::median(&reps)
    };
    decode(&c.main) + c.finalize.iter().map(|f| decode(&f.kernel)).sum::<f64>()
}
