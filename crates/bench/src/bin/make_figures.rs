//! Regenerate the paper's tables and figures as text, with the paper's
//! reported values alongside for comparison.
//!
//! Usage: `make-figures [table2|fig11|fig12a|fig12b|fig12c|ablations|profile|sim-throughput|all]`

use acc_baselines::Compiler;
use acc_testsuite::Position;
use acc_testsuite::{
    format_fig11, format_summary, format_table2, profile_case, run_suite, time_case, Case,
    SuiteConfig, TimedCase,
};
use accparse::ast::{CType, RedOp};
use uhacc_bench::*;
use uhacc_core::{
    CombineSpace, CompilerOptions, LaunchDims, Schedule, TreeStyle, VectorLayout, WorkerStrategy,
};

fn fmt_ms(ms: Option<f64>) -> String {
    match ms {
        Some(v) => format!("{v:.3}"),
        None => "F".to_string(),
    }
}

fn print_points(points: &[CompilerMs]) {
    for (c, ms) in points {
        print!("  {}={}", c.name(), fmt_ms(*ms));
    }
    println!();
}

fn table2(red_n: usize) {
    let cfg = SuiteConfig {
        red_n,
        ..Default::default()
    };
    let ops = [RedOp::Add, RedOp::Mul];
    let dtypes = [CType::Int, CType::Float, CType::Double];
    eprintln!("[table2] running the reduction testsuite (red_n = {red_n}) ...");
    let results = run_suite(&Compiler::all(), &ops, &dtypes, &cfg);
    println!("{}", format_table2(&results, &ops, &dtypes));
    println!("{}", format_summary(&results));
    println!(
        "paper (K20c, red loop = 1M): OpenUH passed all; PGI F on worker/vector/gang-worker\n\
         `+` and CE on gang-worker-vector; CAPS F on the `+` RMP rows. Reproduced above.\n"
    );
}

fn fig11(red_n: usize) {
    let cfg = SuiteConfig {
        red_n,
        ..Default::default()
    };
    let ops = [RedOp::Add, RedOp::Mul];
    let dtypes = [CType::Int, CType::Float, CType::Double];
    eprintln!("[fig11] running the reduction testsuite (red_n = {red_n}) ...");
    let results = run_suite(&Compiler::all(), &ops, &dtypes, &cfg);
    println!("{}", format_fig11(&results, &ops, &dtypes));
}

fn fig12a() {
    println!("Figure 12(a): 2D heat equation, max-reduction time (ms) per grid size");
    println!("paper: grid 128..512, OpenUH always faster than PGI; CAPS failed to converge");
    for n in [128usize, 256, 384, 512] {
        // Fixed iteration count so sizes are comparable (the paper runs to
        // convergence; modelled time per iteration is what accumulates).
        let iters = 20;
        print!("  grid {n:>4} ({iters} iters):");
        print_points(&fig12a_point(n, iters));
    }
    println!();
}

fn fig12b() {
    println!("Figure 12(b): matrix multiplication kernel time (ms) per size");
    println!("paper: OpenUH more than 2x faster than CAPS; PGI bar missing (failed vector +)");
    for n in [64usize, 128, 192, 256] {
        print!("  n {n:>4}:");
        print_points(&fig12b_point(n));
    }
    println!();
}

fn fig12c() {
    println!("Figure 12(c): Monte Carlo PI kernel time (ms) per sample count");
    println!("paper: 1/2/4 GB of points; OpenUH slightly faster than CAPS, much faster than PGI");
    for samples in [1usize << 18, 1 << 19, 1 << 20] {
        print!("  samples {samples:>8}:");
        print_points(&fig12c_point(samples));
    }
    println!();
}

fn ablations() {
    let dims = LaunchDims {
        gangs: 8,
        workers: 8,
        vector: 128,
    };
    let ni = 32 * 1024;
    println!("Ablations (vector `+` reduction over {ni} ints x 8 workers x 8 gangs):\n");
    let base = CompilerOptions::openuh();
    let cases: Vec<(&str, CompilerOptions)> = vec![
        (
            "OpenUH defaults (window, Fig. 6c, unrolled, shared)",
            base.clone(),
        ),
        (
            "Fig. 6b transposed layout",
            CompilerOptions {
                vector_layout: VectorLayout::Transposed,
                ..base.clone()
            },
        ),
        (
            "blocking schedule",
            CompilerOptions {
                schedule: Schedule::Blocking,
                ..base.clone()
            },
        ),
        (
            "looped tree (barrier/step)",
            CompilerOptions {
                tree: TreeStyle::Looped,
                ..base.clone()
            },
        ),
        (
            "global-memory staging",
            CompilerOptions {
                combine_space: CombineSpace::Global,
                ..base.clone()
            },
        ),
    ];
    for (label, opts) in cases {
        let (ms, st) = ablation_vector_case(opts, dims, ni);
        println!(
            "  {label:<50} {ms:>8.3} ms   tx/access {:>6.2}   bank-ways {:>5.2}",
            st.totals.transactions_per_access().unwrap_or(f64::NAN),
            st.totals.conflict_ways_per_access().unwrap_or(f64::NAN)
        );
    }
    println!("\nCombine-heavy layout ablation (Fig. 6b vs 6c, small rows x many combines):\n");
    for (label, layout) in [
        ("Fig. 6c row-wise (OpenUH)", VectorLayout::RowWise),
        ("Fig. 6b transposed", VectorLayout::Transposed),
    ] {
        let opts = CompilerOptions {
            vector_layout: layout,
            ..CompilerOptions::openuh()
        };
        let (ms, st) = ablation_vector_combine_heavy(opts, dims);
        println!(
            "  {label:<50} {ms:>8.3} ms   bank-ways {:>5.2}",
            st.totals.conflict_ways_per_access().unwrap_or(f64::NAN)
        );
    }
    println!("\nWorker-strategy ablation (Fig. 8b vs 8c), worker `+` reduction, 2048 combines:\n");
    for (label, ws) in [
        ("Fig. 8c first-row (OpenUH)", WorkerStrategy::FirstRow),
        ("Fig. 8b duplicate rows", WorkerStrategy::DuplicateRows),
    ] {
        let opts = CompilerOptions {
            worker_strategy: ws,
            ..CompilerOptions::openuh()
        };
        let ms = ablation_worker_case(opts, dims, 512);
        println!("  {label:<50} {ms:>8.3} ms");
    }
    println!("\nGang-strategy ablation (§3.1.3 second kernel vs one atomic accumulator):\n");
    for gangs in [16u32, 64, 192] {
        let d = LaunchDims {
            gangs,
            workers: 1,
            vector: 128,
        };
        let two = ablation_gang_strategy(uhacc_core::GangStrategy::TwoKernel, d, 256 * 1024);
        let at = ablation_gang_strategy(uhacc_core::GangStrategy::Atomic, d, 256 * 1024);
        println!("  gangs {gangs:>4}: two-kernel {two:>8.3} ms   atomic {at:>8.3} ms");
    }
    println!("\nNon-power-of-2 vector sizes (§3.3): correctness holds, performance degrades:\n");
    for vector in [128u32, 96, 64, 48, 33] {
        let d = LaunchDims {
            gangs: 8,
            workers: 8,
            vector,
        };
        let (ms, _) = ablation_vector_case(CompilerOptions::openuh(), d, ni);
        println!("  vector_length {vector:>4} {ms:>38.3} ms");
    }
    println!();
}

/// Profile the canonical gang-worker-vector int `+` case and write the
/// stable JSON export to `BENCH_profile.json`, so CI accumulates a
/// machine-readable perf/attribution trajectory next to the figures.
fn profile(red_n: usize) {
    let cfg = SuiteConfig {
        red_n,
        ..Default::default()
    };
    eprintln!("[profile] profiling the gang-worker-vector int `+` case (red_n = {red_n}) ...");
    let pc = Case::of(
        Compiler::OpenUH,
        Position::GangWorkerVector,
        RedOp::Add,
        CType::Int,
    )
    .and_then(|case| profile_case(&case, &cfg))
    .expect("canonical case profiles cleanly");
    std::fs::write("BENCH_profile.json", &pc.json).expect("write BENCH_profile.json");
    print!("{}", pc.report);
    println!("wrote BENCH_profile.json ({} bytes)", pc.json.len());
}

/// Race the simulator's two engines (reference interpreter vs the typed
/// tier `auto` selects) on Table 2 workloads and the three applications,
/// and write the measurements to `BENCH_sim_throughput.json`. The
/// committed copy is the regression baseline: CI re-measures and fails if
/// the typed tier's speedup ratio (which, unlike raw wall-clock, is
/// roughly machine-independent) regresses by more than 20%. Each row also
/// carries the typed tier's shape census, so "why is this kernel slow on
/// the simulator" is a lookup: a high per-lane share is the answer.
///
/// Every workload is raced on the sequential executor (`host_threads` 1:
/// the gated ratio and the census) and again on 4 host threads, the
/// parallel executor's committed number — what that buys depends on the
/// host's cores, which the file records. The `_n96` row is all block
/// set-up: its launches' blocks of 1,024 threads each do almost nothing.
///
/// The [`SANITIZED`] rows are timed a third time, fully shadowed:
/// `sanitize_ratio` is the sanitized wall time of the same launches over
/// the plain one (typed tier, sequential executor) — the checker rails'
/// committed number, gated at 2x like the speedups are at 0.8x.
fn sim_throughput(red_n: usize) {
    use acc_apps::{HeatConfig, MatmulConfig, PiConfig, SimWork};
    use gpsim::{Device, ExecTier, SanitizerConfig, SanitizerLevel};
    /// Rows that also carry `sanitize_ratio`: one int and one double
    /// Table-2 reduction.
    const SANITIZED: [&str; 2] = ["gang_worker_vector_int_add", "worker_double_add"];
    type Run = Box<dyn Fn(ExecTier, u32, SanitizerLevel) -> TimedCase>;
    let case = |pos: Position, op: RedOp, t: CType, red_n: usize| -> Run {
        let case = Case::of(Compiler::OpenUH, pos, op, t).expect("OpenUH rejects no case");
        Box::new(move |tier, host_threads, sanitize| {
            let cfg = SuiteConfig {
                red_n,
                exec_tier: tier,
                host_threads,
                ..Default::default()
            };
            time_case(&case, &cfg, sanitize).expect("throughput workloads run cleanly")
        })
    };
    // The applications time the whole `run_*` call: their set-up (source
    // analysis, input generation) is small beside the launches.
    fn app(run: impl Fn(Device) -> SimWork + 'static) -> Run {
        Box::new(move |tier, host_threads, level| {
            let mut device = Device::default();
            device.set_exec_tier(tier);
            device.set_host_threads(host_threads);
            device.set_sanitizer(SanitizerConfig {
                level,
                ..Default::default()
            });
            let start = std::time::Instant::now();
            let SimWork { lane_insts, census } = run(device);
            TimedCase {
                secs: start.elapsed().as_secs_f64(),
                lane_insts,
                census,
            }
        })
    }
    let opts = uhacc_core::CompilerOptions::openuh;
    let heat = HeatConfig {
        tol: 0.0,
        max_iters: 10,
        ..Default::default()
    };
    let workloads: [(&str, Run); 7] = [
        (
            "gang_worker_vector_int_add",
            case(Position::GangWorkerVector, RedOp::Add, CType::Int, red_n),
        ),
        (
            "gang_worker_vector_int_add_n96",
            case(Position::GangWorkerVector, RedOp::Add, CType::Int, 96),
        ),
        (
            "vector_int_add",
            case(Position::Vector, RedOp::Add, CType::Int, red_n),
        ),
        (
            "worker_double_add",
            case(Position::Worker, RedOp::Add, CType::Double, red_n),
        ),
        (
            "heat2d",
            app(move |d| {
                acc_apps::run_heat_on(&heat, opts(), d)
                    .expect("heat2d runs")
                    .sim
            }),
        ),
        (
            "matmul",
            app(move |d| {
                acc_apps::run_matmul_on(&MatmulConfig::default(), opts(), d)
                    .expect("matmul runs")
                    .sim
            }),
        ),
        (
            "pi",
            app(move |d| {
                acc_apps::run_pi_on(&PiConfig::default(), opts(), d)
                    .expect("pi runs")
                    .sim
            }),
        ),
    ];
    const REPS: usize = 3;
    eprintln!("[sim-throughput] racing interpreter vs typed tier (red_n = {red_n}) ...");
    println!("Simulator instruction throughput: reference interpreter vs typed tier");
    let mut rows = String::new();
    for (name, run) in &workloads {
        // Best-of-REPS per configuration; a fresh session every rep so
        // caches and allocations don't carry over.
        let measure_at = |tier: ExecTier, host_threads: u32, level| -> TimedCase {
            (0..REPS)
                .map(|_| run(tier, host_threads, level))
                .min_by(|a, b| a.secs.total_cmp(&b.secs))
                .expect("REPS > 0")
        };
        let measure = |tier, host_threads| measure_at(tier, host_threads, SanitizerLevel::Off);
        let interp = measure(ExecTier::Interpret, 1);
        let typed = measure(ExecTier::Auto, 1);
        let (int_secs, cmp_secs, insts) = (interp.secs, typed.secs, typed.lane_insts);
        let (int4_secs, cmp4_secs) = (
            measure(ExecTier::Interpret, 4).secs,
            measure(ExecTier::Auto, 4).secs,
        );
        assert_eq!(
            interp.lane_insts, insts,
            "{name}: tiers disagree on simulated instruction count"
        );
        let speedup = int_secs / cmp_secs;
        let sanitize_ratio = SANITIZED
            .contains(name)
            .then(|| measure_at(ExecTier::Auto, 1, SanitizerLevel::Full).secs / cmp_secs);
        let c = typed.census;
        println!(
            "  {name:<30} {insts:>12} lane-insts  interpret {:>8.1} Minst/s  \
             compiled {:>8.1} Minst/s  speedup {speedup:>5.2}x",
            insts as f64 / int_secs / 1e6,
            insts as f64 / cmp_secs / 1e6,
        );
        println!(
            "  {:<30} on 4 host threads: interpret {:>8.1} Minst/s  compiled {:>8.1} Minst/s  \
             ({:.2}x / {:.2}x their sequential runs)",
            "",
            insts as f64 / int4_secs / 1e6,
            insts as f64 / cmp4_secs / 1e6,
            int_secs / int4_secs,
            cmp_secs / cmp4_secs,
        );
        println!(
            "  {:<30} shapes: {} steps once per warp, {} per lane ({:.1}% per-lane), \
             {} syncs, {} demoted writes",
            "",
            c.once_per_warp,
            c.per_lane,
            100.0 * c.per_lane_share(),
            c.syncs,
            c.demoted,
        );
        if let Some(r) = sanitize_ratio {
            println!("  {:<30} fully sanitized: {r:.2}x its plain run", "");
        }
        let sanitized =
            sanitize_ratio.map_or(String::new(), |r| format!("\"sanitize_ratio\": {r:.3}, "));
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"name\": \"{name}\", \"lane_insts\": {insts}, \
             \"interpret_secs\": {int_secs:.6}, \"compiled_secs\": {cmp_secs:.6}, \
             \"interpret_minsts_per_sec\": {:.2}, \"compiled_minsts_per_sec\": {:.2}, \
             \"speedup\": {speedup:.3}, {sanitized}\
             \"host_threads_4\": {{\"interpret_secs\": {int4_secs:.6}, \
             \"compiled_secs\": {cmp4_secs:.6}, \"speedup\": {:.3}}}, \
             \"shapes\": {{\"once_per_warp\": {}, \"per_lane\": {}, \"syncs\": {}, \
             \"demoted\": {}, \"per_lane_share\": {:.4}}}}}",
            insts as f64 / int_secs / 1e6,
            insts as f64 / cmp_secs / 1e6,
            int4_secs / cmp4_secs,
            c.once_per_warp,
            c.per_lane,
            c.syncs,
            c.demoted,
            c.per_lane_share(),
        ));
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"red_n\": {red_n},\n  \"reps\": {REPS},\n  \"host_cpus\": {host_cpus},\n  \
         \"workloads\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_sim_throughput.json", &json).expect("write BENCH_sim_throughput.json");
    println!("wrote BENCH_sim_throughput.json ({} bytes)\n", json.len());
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let red_n = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8192);
    match what.as_str() {
        "table2" => table2(red_n),
        "fig11" => fig11(red_n),
        "fig12a" => fig12a(),
        "fig12b" => fig12b(),
        "fig12c" => fig12c(),
        "ablations" => ablations(),
        "profile" => profile(red_n),
        "sim-throughput" => sim_throughput(red_n),
        "all" => {
            table2(red_n);
            fig11(red_n);
            fig12a();
            fig12b();
            fig12c();
            ablations();
            profile(red_n);
            sim_throughput(red_n);
        }
        other => {
            eprintln!(
                "unknown figure `{other}`; expected \
                 table2|fig11|fig12a|fig12b|fig12c|ablations|profile|sim-throughput|all"
            );
            std::process::exit(2);
        }
    }
}
