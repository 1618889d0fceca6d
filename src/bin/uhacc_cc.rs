//! `uhacc-cc` — compiler-explorer-style driver: compile an OpenACC source
//! file and print the generated kernels, launch plan and diagnostics.
//!
//! ```console
//! $ uhacc-cc examples/sum.c --dims 192,8,128 --emit kernel
//! $ echo '...' | uhacc-cc - --compiler pgi
//! ```

use std::io::Read;
use uhacc::baselines::Compiler;
use uhacc::core::flags::{
    host_threads_from_env, parse_count, parse_count_u32, parse_report_format, ReportFormat,
};
use uhacc::core::{CompilerOptions, LaunchDims};
use uhacc::driver::{self, EmitFlags, RunRequest};
use uhacc::parse as accparse;

/// Output format for `--profile`.
#[derive(Clone, Copy, PartialEq)]
enum ProfileMode {
    Text,
    Json,
    Trace,
}

/// Output format for `--fusion-plan`.
#[derive(Clone, Copy, PartialEq)]
enum FusionMode {
    Text,
    Json,
}

struct Args {
    input: String,
    dims: LaunchDims,
    compiler: Compiler,
    emit: EmitFlags,
    sanitize: bool,
    lint: bool,
    werror: bool,
    json: bool,
    profile: Option<ProfileMode>,
    fusion_plan: Option<FusionMode>,
    certify: Option<ReportFormat>,
    run: bool,
    n: u64,
    host_threads: u32,
    exec_tier: gpsim::ExecTier,
    /// With `--run`/`--profile`: write the unified Chrome/Perfetto trace
    /// (request spans + device tracks on one timebase) to this file.
    trace_out: Option<String>,
    /// `--emit` was given explicitly (analysis modes otherwise suppress
    /// the kernel/plan dump).
    explicit_emit: bool,
    /// `--dims` was given explicitly (`--certify` otherwise uses the
    /// small certification geometry instead of the paper's).
    explicit_dims: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: uhacc-cc <file.c | -> [options]\n\
         \n\
         options:\n\
           --dims G,W,V        launch geometry (default 192,8,128 — the paper's)\n\
           --compiler NAME     openuh | pgi | caps (default openuh)\n\
           --emit WHAT         hir | kernel | plan | all (default kernel,plan)\n\
           --sanitize          run the hazard-sanitizer detection matrix\n\
                               (no input file needed) and exit\n\
           --verify            statically verify every generated kernel\n\
                               (synccheck / racecheck / boundscheck);\n\
                               exit 1 if any error-level finding\n\
           --lint              run the source-level dataflow lints (missing\n\
                               reductions, clause placement, loop-carried\n\
                               dependences, data-clause checks) instead of\n\
                               compiling; exit 1 if any error-level finding\n\
           --werror            with --lint: treat warnings as errors\n\
           --json              with --lint: print diagnostics as JSON\n\
           --fusion-plan[=FMT] run the redflow fusion-legality analysis over\n\
                               the program's parallel regions and print the\n\
                               plan (regions, producer→consumer verdicts,\n\
                               fusable chains) instead of compiling; FMT is\n\
                               text (default) or json (stable,\n\
                               machine-readable)\n\
           --certify[=FMT]     translation validation (redcert): symbolically\n\
                               execute every generated kernel plan and prove\n\
                               it computes the source region's reductions and\n\
                               stores over the exact iteration space (modulo\n\
                               reassociation for floating-point folds); FMT\n\
                               is text (default) or json (stable, the same\n\
                               body the uhaccd /certify endpoint returns);\n\
                               exit 1 if any region is refuted\n\
           --run               compile, auto-bind deterministic inputs, run\n\
                               on the simulator, and print scalar results +\n\
                               device statistics as stable JSON (the same\n\
                               body the uhaccd /run endpoint returns)\n\
           --profile[=FMT]     compile, auto-bind deterministic inputs, run\n\
                               on the simulator, and print a profile with\n\
                               per-source-line and per-pc cycle/stall\n\
                               attribution; FMT is text (default), json\n\
                               (stable machine-readable), or trace (a\n\
                               Chrome/Perfetto timeline)\n\
           --n N               with --run/--profile: problem size bound to\n\
                               every integer host scalar (default 65536)\n\
           --trace-out FILE    with --run/--profile: write the unified\n\
                               Chrome/Perfetto trace (execution spans plus,\n\
                               under --profile, the device stream/SM tracks\n\
                               on the same timebase) to FILE; stdout output\n\
                               is unchanged. UHOBS_VIRTUAL_CLOCK=1 makes the\n\
                               trace byte-stable\n\
           --host-threads N    simulator host worker threads for --sanitize,\n\
                               --run and --profile (0 = auto, 1 = sequential;\n\
                               results are bit-identical at any setting)\n\
           --exec-tier T       simulator execution tier for --sanitize, --run\n\
                               and --profile: auto (default; the typed tier,\n\
                               or the interpreter when it declines a kernel)\n\
                               or interpret; results are bit-identical at\n\
                               either setting\n\
           -h, --help          this message\n\
         \n\
         --verify, --lint, --fusion-plan and --certify compose: one invocation\n\
         renders every requested report and exits with the worst code."
    );
    std::process::exit(2);
}

/// Reject a malformed option value: rendered diagnostic, exit code 2
/// (distinct from exit 1 = the input program failed).
fn flag_err(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    // A garbage UHACC_HOST_THREADS would otherwise be silently treated
    // as "auto" deep in the simulator; surface it here instead.
    if let Err(e) = host_threads_from_env() {
        flag_err(e);
    }
    let mut args = Args {
        input: String::new(),
        dims: LaunchDims::paper(),
        compiler: Compiler::OpenUH,
        emit: EmitFlags::default(),
        sanitize: false,
        lint: false,
        werror: false,
        json: false,
        profile: None,
        fusion_plan: None,
        certify: None,
        run: false,
        n: 65536,
        host_threads: 0,
        exec_tier: gpsim::ExecTier::Auto,
        trace_out: None,
        explicit_emit: false,
        explicit_dims: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut have_input = false;
    let need_val = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i)
            .cloned()
            .unwrap_or_else(|| flag_err(format!("{flag} requires a value")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => usage(),
            "--dims" => {
                i += 1;
                let v = need_val(&argv, i, "--dims");
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    flag_err(format!(
                        "invalid value for --dims: expected G,W,V (three comma-separated \
                         non-negative integers), got `{v}`"
                    ));
                }
                let mut nums = [0u32; 3];
                for (k, p) in parts.iter().enumerate() {
                    nums[k] = parse_count_u32("--dims", p).unwrap_or_else(|e| flag_err(e));
                }
                args.dims = LaunchDims {
                    gangs: nums[0],
                    workers: nums[1],
                    vector: nums[2],
                };
                args.explicit_dims = true;
            }
            "--compiler" => {
                i += 1;
                args.compiler = match argv.get(i).map(|s| s.as_str()) {
                    Some("openuh") => Compiler::OpenUH,
                    Some("pgi") => Compiler::PgiLike,
                    Some("caps") => Compiler::CapsLike,
                    _ => usage(),
                };
            }
            "--emit" => {
                i += 1;
                args.explicit_emit = true;
                args.emit = EmitFlags {
                    hir: false,
                    kernel: false,
                    plan: false,
                    verify: args.emit.verify,
                };
                for w in argv.get(i).unwrap_or_else(|| usage()).split(',') {
                    match w {
                        "hir" => args.emit.hir = true,
                        "kernel" => args.emit.kernel = true,
                        "plan" => args.emit.plan = true,
                        "all" => {
                            args.emit.hir = true;
                            args.emit.kernel = true;
                            args.emit.plan = true;
                        }
                        _ => usage(),
                    }
                }
            }
            "--sanitize" => args.sanitize = true,
            "--verify" => args.emit.verify = true,
            "--run" => args.run = true,
            "--profile" => args.profile = Some(ProfileMode::Text),
            s if s.starts_with("--profile=") => {
                args.profile = Some(match &s["--profile=".len()..] {
                    "text" => ProfileMode::Text,
                    "json" => ProfileMode::Json,
                    "trace" => ProfileMode::Trace,
                    _ => usage(),
                });
            }
            "--certify" => args.certify = Some(ReportFormat::Text),
            s if s.starts_with("--certify=") => {
                args.certify = Some(
                    parse_report_format("--certify", &s["--certify=".len()..])
                        .unwrap_or_else(|e| flag_err(e)),
                );
            }
            "--fusion-plan" => args.fusion_plan = Some(FusionMode::Text),
            s if s.starts_with("--fusion-plan=") => {
                args.fusion_plan = Some(match &s["--fusion-plan=".len()..] {
                    "text" => FusionMode::Text,
                    "json" => FusionMode::Json,
                    _ => usage(),
                });
            }
            "--n" => {
                i += 1;
                let v = need_val(&argv, i, "--n");
                args.n = parse_count("--n", &v).unwrap_or_else(|e| flag_err(e));
            }
            "--trace-out" => {
                i += 1;
                args.trace_out = Some(need_val(&argv, i, "--trace-out"));
            }
            s if s.starts_with("--trace-out=") => {
                args.trace_out = Some(s["--trace-out=".len()..].to_string());
            }
            "--lint" => args.lint = true,
            "--werror" => args.werror = true,
            "--json" => args.json = true,
            "--host-threads" => {
                i += 1;
                let v = need_val(&argv, i, "--host-threads");
                args.host_threads =
                    parse_count_u32("--host-threads", &v).unwrap_or_else(|e| flag_err(e));
            }
            "--exec-tier" => {
                i += 1;
                let v = need_val(&argv, i, "--exec-tier");
                args.exec_tier = v.parse().unwrap_or_else(|e| flag_err(e));
            }
            f if !f.starts_with('-') || f == "-" => {
                if have_input {
                    usage();
                }
                args.input = f.to_string();
                have_input = true;
            }
            _ => usage(),
        }
        i += 1;
    }
    if !have_input && !args.sanitize {
        usage();
    }
    if (args.werror || args.json) && !args.lint {
        usage();
    }
    if args.trace_out.is_some() && !(args.run || args.profile.is_some()) {
        flag_err("--trace-out only makes sense with --run or --profile".into());
    }
    args
}

/// Run the source-level lints. Returns the exit code this report earns:
/// 0 = clean (or warnings without `--werror`), 1 = error-level findings
/// (or a parse/sema failure).
fn lint_code(src: &str, werror: bool, json: bool) -> i32 {
    use accparse::diag::{lint_report_json, render_all, Severity};
    let mut diags: Vec<accparse::Diag> = match accparse::lint_source(src) {
        Ok((_, findings)) => findings.into_iter().map(|f| f.diag).collect(),
        Err(d) => {
            if json {
                println!("{}", lint_report_json(&[d], src));
            } else {
                eprintln!("{}", d.render(src));
            }
            return 1;
        }
    };
    if werror {
        for d in &mut diags {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }
    if json {
        println!("{}", lint_report_json(&diags, src));
    } else if diags.is_empty() {
        println!("uhacc-cc: lint clean");
    } else {
        eprint!("{}", render_all(&diags, src));
    }
    let failed = diags.iter().any(|d| d.severity == Severity::Error);
    if failed {
        1
    } else {
        0
    }
}

fn run_request(args: &Args) -> RunRequest {
    RunRequest {
        opts: args.compiler.base_options(),
        dims: args.dims,
        n: args.n,
        host_threads: args.host_threads,
        exec_tier: args.exec_tier,
    }
}

/// Build the CLI's tracer on the environment-selected clock
/// (`UHOBS_VIRTUAL_CLOCK=1` gives a deterministic virtual timebase).
fn cli_tracer() -> std::sync::Arc<uhacc::obs::Tracer> {
    let clock = std::sync::Arc::new(uhacc::obs::Clock::from_env());
    std::sync::Arc::new(uhacc::obs::Tracer::new(clock, "uhacc-cc"))
}

/// Write the tracer's unified Chrome trace to `path`.
fn write_trace(path: &str, tracer: &uhacc::obs::Tracer) {
    if let Err(e) = std::fs::write(path, format!("{}\n", tracer.to_chrome_trace())) {
        eprintln!("error: cannot write `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("uhacc-cc: wrote {path}");
}

/// Execute a fresh session for `src`, optionally tracing it. The traced
/// and untraced paths produce byte-identical stdout; tracing only adds
/// the `--trace-out` file.
fn execute_cli(src: &str, args: &Args, profile: bool) -> uhacc::rt::AccRunner {
    use uhacc::rt::AccRunner;
    use uhacc::sim::Device;

    let req = run_request(args);
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let mut r = match AccRunner::with_options(src, req.opts.clone(), req.dims, Device::default()) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    r.set_source(src);
    let result = match &args.trace_out {
        Some(path) => {
            let tracer = cli_tracer();
            let trace_id = tracer.mint_trace_id();
            tracer.set_track_name(
                trace_id,
                &format!(
                    "uhacc-cc {}{}",
                    args.input,
                    if profile { " --profile" } else { " --run" }
                ),
            );
            let result = driver::execute_traced(&mut r, &req, profile, &tracer, trace_id, None);
            write_trace(path, &tracer);
            result
        }
        None => driver::execute(&mut r, &req, profile),
    };
    if let Err(e) = result {
        fail(&e);
    }
    r
}

/// Compile, auto-bind deterministic inputs, run every region on the
/// simulator, and print the requested profile export (see
/// [`uhacc::driver`] — the daemon's `/profile` endpoint shares this
/// path, so outputs agree byte for byte).
fn run_profile(src: &str, args: &Args, mode: ProfileMode) -> ! {
    let r = execute_cli(src, args, true);
    match mode {
        ProfileMode::Text => print!("{}", r.profile_report()),
        ProfileMode::Json => println!("{}", r.profile_json()),
        ProfileMode::Trace => println!("{}", r.profile_chrome_trace()),
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.sanitize {
        let mut cfg = uhacc::testsuite::SuiteConfig::quick();
        cfg.host_threads = args.host_threads;
        cfg.exec_tier = args.exec_tier;
        let rows = uhacc::testsuite::run_sanitize_matrix(&cfg);
        print!("{}", uhacc::testsuite::format_matrix(&rows));
        std::process::exit(if rows.iter().all(|r| r.ok()) { 0 } else { 1 });
    }
    let src = if args.input == "-" {
        let mut s = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut s) {
            eprintln!("error: cannot read stdin: {e}");
            std::process::exit(1);
        }
        s
    } else {
        match std::fs::read_to_string(&args.input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{}`: {e}", args.input);
                std::process::exit(1);
            }
        }
    };

    if args.run {
        let r = execute_cli(&src, &args, false);
        println!("{}", driver::results_json(&r));
        std::process::exit(0);
    }

    if let Some(mode) = args.profile {
        run_profile(&src, &args, mode);
    }

    let hir = match accparse::compile(&src) {
        Ok(h) => h,
        Err(d) => {
            // A broken source fails every requested mode the same way;
            // render the diagnostic once (as JSON when `--lint --json`
            // asked for machine-readable findings).
            if args.lint && args.json {
                println!("{}", accparse::diag::lint_report_json(&[d], &src));
            } else {
                eprintln!("{}", d.render(&src));
            }
            std::process::exit(1);
        }
    };

    // Analysis modes compose: every requested report renders, the worst
    // exit code wins.
    let mut worst = 0i32;

    if args.lint {
        worst = worst.max(lint_code(&src, args.werror, args.json));
    }

    if let Some(mode) = args.fusion_plan {
        match mode {
            FusionMode::Text => print!("{}", driver::analyze_text(&hir)),
            FusionMode::Json => println!("{}", driver::analyze_json(&hir)),
        }
    }

    if let Some(fmt) = args.certify {
        let req = RunRequest {
            opts: args.compiler.base_options(),
            dims: if args.explicit_dims {
                args.dims
            } else {
                driver::certify_dims()
            },
            n: args.n,
            host_threads: args.host_threads,
            exec_tier: args.exec_tier,
        };
        match driver::certify_reports(&src, &req, |r| {
            r.set_source(&src);
        }) {
            Ok(reports) => {
                match fmt {
                    ReportFormat::Text => print!("{}", driver::cert_reports_text(&reports)),
                    ReportFormat::Json => println!("{}", driver::cert_reports_json(&reports)),
                }
                if reports
                    .iter()
                    .any(|r| matches!(r.verdict, gpsim::CertVerdict::Refuted { .. }))
                {
                    worst = worst.max(1);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                worst = worst.max(1);
            }
        }
    }

    let analysis = args.lint || args.fusion_plan.is_some() || args.certify.is_some();
    if !analysis || args.explicit_emit || args.emit.verify {
        // Under analysis modes, only an explicit `--emit` re-enables the
        // kernel/plan dump; `--verify` alone adds just its section.
        let emit = if analysis && !args.explicit_emit {
            EmitFlags {
                hir: false,
                kernel: false,
                plan: false,
                verify: args.emit.verify,
            }
        } else {
            args.emit
        };
        let opts: CompilerOptions = args.compiler.base_options();
        let compile = driver::direct_compiler(&hir, &opts);
        match driver::compile_text(&hir, args.dims, args.compiler.name(), emit, &compile) {
            Ok(out) => {
                print!("{}", out.text);
                if out.verify_errors > 0 {
                    eprintln!(
                        "uhacc-cc: {} static verification error(s)",
                        out.verify_errors
                    );
                    worst = worst.max(1);
                }
            }
            Err((region, d)) => {
                eprintln!("region {region}: {}", d.render(&src));
                worst = worst.max(1);
            }
        }
    }

    std::process::exit(worst);
}
