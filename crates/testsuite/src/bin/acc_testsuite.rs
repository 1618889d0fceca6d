//! Command-line driver for the reduction testsuite (regenerates the
//! paper's Table 2 and Figure 11 with modelled device times).
//!
//! Usage: `acc-testsuite [--red-n N] [--quick] [--all-ops] [--fig11] [--sanitize] [--verify]
//! [--lint] [--profile[=json|trace]]`

use acc_baselines::Compiler;
use acc_testsuite::{
    certsweep, format_fig11, format_summary, format_table2, lintsweep, profile_case, redflowsweep,
    run_suite, sanitize, Case, Position, SuiteConfig,
};
use accparse::ast::{CType, RedOp};
use uhacc_core::flags::{host_threads_from_env, parse_count, parse_count_u32};

/// A sweep module's entry point: the report and whether every row passed.
type Sweep = fn(&SuiteConfig) -> (String, bool);

/// The sweeps that replace the Table 2 run: `(flag, banner, sweep)`. The
/// first one requested, in this order, runs; it prints its report and
/// the process exits 1 unless every row passed. A new sweep is one row.
const SWEEPS: [(&str, &str, Sweep); 5] = [
    (
        "--lint",
        "running stripped-clause lint sweep over the \u{00a7}6 grid (no simulation)",
        lintsweep::sweep,
    ),
    (
        "--certify",
        "running translation-validation sweep over the \u{00a7}6 grid",
        certsweep::sweep,
    ),
    (
        "--redflow",
        "running redflow legality sweep (no simulation)",
        redflowsweep::sweep,
    ),
    (
        "--verify",
        "statically verifying the \u{00a7}6 kernel grid (no simulation)",
        sanitize::verify_sweep,
    ),
    (
        "--sanitize",
        "running sanitizer detection matrix (red_n = {red_n})",
        sanitize::sweep,
    ),
];

/// Reject a malformed option value: rendered diagnostic, exit code 2.
fn flag_err(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    if let Err(e) = host_threads_from_env() {
        flag_err(e);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SuiteConfig::default();
    let mut fig11 = false;
    let mut all_ops = false;
    let mut sweeps: Vec<&str> = Vec::new();
    let mut profile: Option<&str> = None;
    let mut i = 0;
    let need_val = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i)
            .cloned()
            .unwrap_or_else(|| flag_err(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--red-n" => {
                i += 1;
                let v = need_val(&args, i, "--red-n");
                cfg.red_n = parse_count("--red-n", &v).unwrap_or_else(|e| flag_err(e)) as usize;
            }
            "--host-threads" => {
                i += 1;
                let v = need_val(&args, i, "--host-threads");
                cfg.host_threads =
                    parse_count_u32("--host-threads", &v).unwrap_or_else(|e| flag_err(e));
            }
            "--exec-tier" => {
                i += 1;
                let v = need_val(&args, i, "--exec-tier");
                cfg.exec_tier = v.parse().unwrap_or_else(|e| flag_err(e));
            }
            "--quick" => {
                cfg = SuiteConfig {
                    host_threads: cfg.host_threads,
                    exec_tier: cfg.exec_tier,
                    ..SuiteConfig::quick()
                }
            }
            "--fig11" => fig11 = true,
            "--all-ops" => all_ops = true,
            flag if SWEEPS.iter().any(|s| s.0 == flag) => sweeps.push(flag),
            "--profile" => profile = Some("text"),
            "--profile=json" => profile = Some("json"),
            "--profile=trace" => profile = Some("trace"),
            "--help" | "-h" => {
                println!(
                    "acc-testsuite: regenerate Table 2 / Fig. 11 of the paper\n\
                     --red-n N    reduction loop size (default 16384; paper used up to 1M)\n\
                     --quick      small sizes for smoke testing\n\
                     --host-threads N  simulator host worker threads (0 = auto, 1 = sequential;\n\
                                       results are bit-identical at any setting)\n\
                     --exec-tier T  simulator execution tier: auto (default; the typed tier,\n\
                                    or the interpreter when it declines a kernel) or\n\
                                    interpret; results are bit-identical at either setting\n\
                     --all-ops    run all nine OpenACC reduction operators (not just + and *)\n\
                     --fig11      also print the Figure 11 per-position series\n\
                     --sanitize   run the hazard-sanitizer detection matrix instead\n\
                     --verify     statically verify every generated kernel of the §6\n\
                                  grid (no simulation) and exit non-zero on errors\n\
                     --lint       run the stripped-clause lint sweep over the §6 grid:\n\
                                  intact sources must lint clean and every stripped\n\
                                  reduction clause must be re-suggested exactly\n\
                     --redflow    run the redflow legality sweep: legal array/scalar\n\
                                  reduction idioms must be relaxed (L210 only), every\n\
                                  mutation must re-arm L200/L211 with zero false\n\
                                  relaxations, and fusion verdicts must hold\n\
                     --certify    run the translation-validation (redcert) sweep:\n\
                                  every legal §6 strategy must certify (exactly for\n\
                                  int, modulo FP reassociation for double) and every\n\
                                  injected miscompilation must be refuted or unknown\n\
                                  — a false Certified fails the sweep\n\
                     --profile[=json|trace]  profile the canonical gang-worker-vector\n\
                                  int `+` case under OpenUH and print per-line /\n\
                                  per-pc cycle attribution (text by default, stable\n\
                                  JSON, or a Chrome/Perfetto trace)"
                );
                return;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(fmt) = profile {
        eprintln!(
            "profiling the gang-worker-vector int `+` case under openuh (red_n = {}) ...",
            cfg.red_n
        );
        let case = Case::of(
            Compiler::OpenUH,
            Position::GangWorkerVector,
            RedOp::Add,
            CType::Int,
        );
        let pc = match case.and_then(|case| profile_case(&case, &cfg)) {
            Ok(pc) => pc,
            Err(e) => {
                eprintln!("profile failed: {e}");
                std::process::exit(1);
            }
        };
        match fmt {
            "json" => println!("{}", pc.json),
            "trace" => println!("{}", pc.trace),
            _ => print!("{}", pc.report),
        }
        return;
    }
    if let Some((_, banner, sweep)) = SWEEPS.iter().find(|s| sweeps.contains(&s.0)) {
        eprintln!("{} ...", banner.replace("{red_n}", &cfg.red_n.to_string()));
        let (report, ok) = sweep(&cfg);
        print!("{report}");
        std::process::exit(if ok { 0 } else { 1 });
    }

    let ops: Vec<RedOp> = if all_ops {
        RedOp::ALL.to_vec()
    } else {
        vec![RedOp::Add, RedOp::Mul]
    };
    let dtypes = [CType::Int, CType::Float, CType::Double];
    eprintln!(
        "running {} positions x {} ops x {} types x 3 compilers (red_n = {}) ...",
        7,
        ops.len(),
        dtypes.len(),
        cfg.red_n
    );
    let results = run_suite(&Compiler::all(), &ops, &dtypes, &cfg);
    println!("{}", format_table2(&results, &ops, &dtypes));
    println!("{}", format_summary(&results));
    if fig11 {
        println!("{}", format_fig11(&results, &ops, &dtypes));
    }
}
