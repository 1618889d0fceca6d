//! Print the paper's figures and ablations from the table of modelled
//! cells (`uhacc_bench::cells`), with the paper's reported shapes
//! alongside, and write or check the committed copy of that table.
//!
//! Usage: `make-figures [fig12a|fig12b|fig12c|ablations|modelled|sim-throughput|all] [red_n] [--check]`
//!
//! `modelled` writes `BENCH_modelled.json`; `modelled --check` regenerates
//! it and exits 1 on any byte of difference, naming each cell and field.
//! Table 2, Fig. 11 and the profile export are `acc-testsuite`'s
//! (`--fig11`, `--profile=json`).

use acc_baselines::Compiler;
use acc_testsuite::{time_case, Case, CaseStatus, Cell, Position, SuiteConfig, TimedCase};
use accparse::ast::{CType, RedOp};
use uhacc_bench::*;
use uhacc_core::flags::parse_count;

const USAGE: &str = "fig12a|fig12b|fig12c|ablations|modelled|sim-throughput|all";
const MODELLED: &str = "BENCH_modelled.json";
/// The size `BENCH_sim_throughput.json` is committed at: its shape census
/// is gated exactly, so its default does not follow Table 2's.
const THROUGHPUT_RED_N: usize = 8192;

/// A block's heading, with what the paper reports for it.
fn title(block: &str) -> &'static str {
    match block {
        "fig12a" => "Fig. 12(a): heat2d max-reduction, 20 iterations (paper: OpenUH < PGI; CAPS failed)",
        "fig12b" => "Fig. 12(b): matmul kernel (paper: OpenUH 2x faster than CAPS; PGI failed)",
        "fig12c" => "Fig. 12(c): Monte Carlo pi kernel (paper: OpenUH <= CAPS, both far below PGI)",
        "ablation" => "Ablations: \u{a7}6 grid rows on Table-2 cases pinned to NKxNJxNI on gangs x workers x vector",
        _ => "The \u{a7}6 strategy grid at every Table-2 position",
    }
}

/// Print the cells of `block`: modelled time (`F`/`CE` for a missing bar),
/// coalescing and bank conflicts.
fn view(cells: &[Cell], block: &str) {
    println!("{}\n", title(block));
    let cells = cells.iter().filter(|c| c.label.starts_with(block));
    for Cell { label, status } in cells {
        let label = &label[block.len() + 2..];
        match status {
            CaseStatus::Pass { ms, stats } => println!(
                "  {label:<72} {ms:>8.3} ms   tx/access {:>5.2}   bank-ways {:>5.2}",
                stats.totals.transactions_per_access().unwrap_or(f64::NAN),
                stats.totals.conflict_ways_per_access().unwrap_or(f64::NAN)
            ),
            missing => println!("  {label:<72} {}", missing.mark()),
        }
    }
    println!();
}

/// Write the table, or with `check` compare it with the committed copy:
/// exit 1 naming every cell and field that moved, and leave the
/// regenerated table beside it.
fn modelled(cfg: &SuiteConfig, cells: &[Cell], check: bool) {
    let text = render(cfg, cells);
    if !check {
        std::fs::write(MODELLED, &text).expect("write BENCH_modelled.json");
        println!("wrote {MODELLED} ({} cells)", cells.len());
        return;
    }
    let committed = std::fs::read_to_string(MODELLED).unwrap_or_else(|e| {
        eprintln!("error: {MODELLED}: {e}");
        std::process::exit(1);
    });
    let moved = differences(&committed, &text);
    if moved.is_empty() {
        println!("{MODELLED}: {} cells, byte-identical", cells.len());
        return;
    }
    for line in &moved {
        eprintln!("{MODELLED}: {line}");
    }
    let regenerated = "BENCH_modelled.regenerated.json";
    std::fs::write(regenerated, &text).expect("write the regenerated table");
    let n = moved.len();
    eprintln!("{n} cell(s) moved; {regenerated} is the new table: re-pin deliberately, review it cell by cell");
    std::process::exit(1);
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
/// The `SANITIZED` rows are timed a third time, in pairs: each fully
/// shadowed run right after a plain one of the same launches (typed tier,
/// sequential executor). `sanitize_ratio` is the median of the pairs'
/// sanitized-over-plain wall times — the checker rails' committed number,
/// gated at 2x like the speedups are at 0.8x.
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
            let SimWork {
                lane_insts, census, ..
            } = run(device);
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
        let measure = |tier: ExecTier, host_threads: u32| -> TimedCase {
            (0..REPS)
                .map(|_| run(tier, host_threads, SanitizerLevel::Off))
                .min_by(|a, b| a.secs.total_cmp(&b.secs))
                .expect("REPS > 0")
        };
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
        // Each sanitized rep runs right after a plain rep of the same row,
        // so the two see one machine state; the median pair is kept.
        let sanitize_ratio = SANITIZED.contains(name).then(|| {
            let mut ratios: Vec<f64> = (0..REPS)
                .map(|_| {
                    let plain = run(ExecTier::Auto, 1, SanitizerLevel::Off).secs;
                    run(ExecTier::Auto, 1, SanitizerLevel::Full).secs / plain
                })
                .collect();
            ratios.sort_by(f64::total_cmp);
            ratios[REPS / 2]
        });
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
             {} syncs, {} demoted writes, {} closed-form spans",
            "",
            c.once_per_warp,
            c.per_lane,
            100.0 * c.per_lane_share(),
            c.syncs,
            c.demoted,
            c.spans,
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
             \"demoted\": {}, \"spans\": {}, \"per_lane_share\": {:.4}}}}}",
            insts as f64 / int_secs / 1e6,
            insts as f64 / cmp_secs / 1e6,
            int4_secs / cmp4_secs,
            c.once_per_warp,
            c.per_lane,
            c.syncs,
            c.demoted,
            c.spans,
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

/// Reject the command line: rendered diagnostic, usage, exit code 2.
fn usage_err(msg: String) -> ! {
    eprintln!("error: {msg}\nusage: make-figures [{USAGE}] [red_n] [--check]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let what = args.next().unwrap_or_else(|| "all".to_string());
    let (mut red_n, mut check) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--check" if what == "modelled" && !check => check = true,
            n if red_n.is_none() => {
                red_n = Some(parse_count("red_n", n).unwrap_or_else(|e| usage_err(e)) as usize)
            }
            extra => usage_err(format!("unexpected argument `{extra}`")),
        }
    }
    let cfg = &SuiteConfig {
        red_n: red_n.unwrap_or(SuiteConfig::default().red_n),
        ..Default::default()
    };
    match what.as_str() {
        "fig12a" | "fig12b" | "fig12c" => view(&run_block(&what, cfg), &what),
        "ablations" => view(&run_block("ablation", cfg), "ablation"),
        "modelled" => {
            let cells = cells(cfg);
            view(&cells, "strategy");
            modelled(cfg, &cells, check);
        }
        "sim-throughput" => sim_throughput(red_n.unwrap_or(THROUGHPUT_RED_N)),
        "all" => {
            let cells = cells(cfg);
            for block in ["fig12a", "fig12b", "fig12c", "ablation", "strategy"] {
                view(&cells, block);
            }
            modelled(cfg, &cells, false);
            sim_throughput(red_n.unwrap_or(THROUGHPUT_RED_N));
        }
        other => usage_err(format!("unknown figure `{other}`")),
    }
}
