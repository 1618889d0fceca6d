//! `uhacc-cc` — compiler-explorer-style driver: compile an OpenACC source
//! file and print the generated kernels, launch plan and diagnostics.
//!
//! ```console
//! $ uhacc-cc examples/sum.c --dims 192,8,128 --emit kernel
//! $ echo '...' | uhacc-cc - --compiler pgi
//! ```
//!
//! An adapter over [`uhacc::driver`]: this file turns argv into
//! `(key, literal)` pairs for the one option decoder, prints what the
//! passes render, and exits with the worst pass's code. The option
//! vocabulary, its defaults and what makes a pass fail are the driver's.

use std::io::Read;
use std::sync::Arc;
use uhacc::core::flags::{host_threads_from_env, ReportFormat};
use uhacc::driver::{self, Artifacts, Options, Pass};
use uhacc::parse as accparse;
use uhacc::rt::{AccRunner, RunnerObs};

/// Output format of the CLI-only `--profile[=FMT]` / `--fusion-plan[=FMT]`.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Trace,
}

struct Args {
    input: String,
    opts: Options,
    sanitize: bool,
    lint: bool,
    json: bool,
    profile: Option<Format>,
    fusion_plan: Option<Format>,
    certify: bool,
    run: bool,
    /// With `--run`/`--profile`: write the unified Chrome/Perfetto trace
    /// (request spans + device tracks on one timebase) to this file.
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: uhacc-cc <file.c | -> [options]\n\
         \n\
         options:\n\
           --dims G,W,V        launch geometry (default 192,8,128 — the paper's;\n\
                               2,2,64 under --certify)\n\
           --compiler NAME     openuh | pgi | caps (default openuh)\n\
           --emit WHAT[,WHAT]  hir | kernel | plan | all (default kernel,plan)\n\
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
         renders every requested report and exits with the worst code.\n\
         \n\
         exit 1 = the program failed a pass; exit 2 = the command line is\n\
         malformed: an unknown flag prints this message, a bad value for any\n\
         option prints `error: invalid value for <flag>: expected ..., got ...`."
    );
    std::process::exit(2);
}

/// Reject a malformed option value: rendered diagnostic, exit code 2
/// (distinct from exit 1 = the input program failed).
fn flag_err(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The `FMT` of a `--flag[=FMT]` mode switch (`text` when omitted);
/// `trace` only where the mode has a timeline to export.
fn mode_format(flag: &str, fmt: Option<&str>, trace: bool) -> Format {
    match fmt {
        None | Some("text") => Format::Text,
        Some("json") => Format::Json,
        Some("trace") if trace => Format::Trace,
        Some(other) => flag_err(format!(
            "invalid value for {flag}: expected text | json{}, got `{other}`",
            if trace { " | trace" } else { "" }
        )),
    }
}

fn parse_args() -> Args {
    // A garbage UHACC_HOST_THREADS would otherwise be silently treated
    // as "auto" deep in the simulator; surface it here instead.
    if let Err(e) = host_threads_from_env() {
        flag_err(e);
    }
    let mut args = Args {
        input: String::new(),
        opts: Options::default(),
        sanitize: false,
        lint: false,
        json: false,
        profile: None,
        fusion_plan: None,
        certify: false,
        run: false,
        trace_out: None,
    };
    let mut have_input = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        // `--flag=VALUE` is accepted where the value is optional.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v)),
            _ => (arg.as_str(), None),
        };
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| flag_err(format!("{flag} requires a value")))
        };
        match (flag, inline) {
            ("-h" | "--help", None) => usage(),
            ("--sanitize", None) => args.sanitize = true,
            ("--run", None) => args.run = true,
            ("--lint", None) => args.lint = true,
            ("--json", None) => args.json = true,
            ("--profile", fmt) => args.profile = Some(mode_format(flag, fmt, true)),
            ("--fusion-plan", fmt) => args.fusion_plan = Some(mode_format(flag, fmt, false)),
            ("--certify", fmt) => {
                args.certify = true;
                if let Some(fmt) = fmt {
                    (args.opts.set(flag, "format", fmt)).unwrap_or_else(|e| flag_err(e));
                }
            }
            ("--trace-out", Some(path)) => args.trace_out = Some(path.to_string()),
            ("--trace-out", None) => args.trace_out = Some(value(flag)),
            (f, None) if !f.starts_with('-') || f == "-" => {
                if have_input {
                    usage();
                }
                args.input = f.to_string();
                have_input = true;
            }
            // Everything else is an option: `--key VALUE`, or a bare switch.
            (_, None) => match Options::KEYS.iter().find(|k| k.1 == flag) {
                Some(&(key, _, switch)) => {
                    let lit = if switch { "true".into() } else { value(flag) };
                    (args.opts.set(flag, key, &lit)).unwrap_or_else(|e| flag_err(e));
                }
                None => usage(),
            },
            _ => usage(),
        }
    }
    if !have_input && !args.sanitize {
        usage();
    }
    if (args.opts.werror || args.json) && !args.lint {
        usage();
    }
    if args.trace_out.is_some() && !(args.run || args.profile.is_some()) {
        flag_err("--trace-out only makes sense with --run or --profile".into());
    }
    args
}

/// Print the lint report; the pass/fail decision is [`driver::lint`]'s.
fn print_lint(src: &str, werror: bool, json: bool) -> bool {
    use accparse::diag::{lint_report_json, render_all};
    let lint = driver::lint(src, werror);
    if json {
        println!("{}", lint_report_json(&lint.diags, src));
    } else if lint.diags.is_empty() {
        println!("uhacc-cc: lint clean");
    } else {
        eprint!("{}", render_all(&lint.diags, src));
    }
    lint.failed
}

/// The run and profile passes: one [`driver::session`] over a fresh
/// parse, traced when `--trace-out` asks for it. The traced and untraced
/// paths produce byte-identical stdout; tracing only adds the file.
fn session(src: &str, args: &Args, pass: Pass) -> AccRunner {
    let traced = args.trace_out.as_ref().map(|path| {
        // `UHOBS_VIRTUAL_CLOCK=1` gives a deterministic virtual timebase.
        let clock = Arc::new(uhacc::obs::Clock::from_env());
        (path, Arc::new(uhacc::obs::Tracer::new(clock, "uhacc-cc")))
    });
    let profile = pass == Pass::Profile;
    let obs = traced.as_ref().map(|(_, tracer)| {
        let trace_id = tracer.mint_trace_id();
        let mode = if profile { "--profile" } else { "--run" };
        tracer.set_track_name(trace_id, &format!("uhacc-cc {} {mode}", args.input));
        RunnerObs {
            tracer: Arc::clone(tracer),
            trace_id,
            compile_hist: None,
        }
    });
    let req = args.opts.request(pass);
    let result = driver::session(src, &req, profile, Artifacts::Direct, obs);
    if let Some((path, tracer)) = traced {
        if let Err(e) = std::fs::write(path, format!("{}\n", tracer.to_chrome_trace())) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("uhacc-cc: wrote {path}");
    }
    result.unwrap_or_else(|e| {
        eprintln!("{}", driver::failure_text(&e, src));
        std::process::exit(1);
    })
}

fn main() {
    let args = parse_args();
    let o = &args.opts;
    if args.sanitize {
        let mut cfg = uhacc::testsuite::SuiteConfig::quick();
        cfg.host_threads = o.host_threads;
        cfg.exec_tier = o.exec_tier;
        let (report, ok) = uhacc::testsuite::sanitize::sweep(&cfg);
        print!("{report}");
        std::process::exit(if ok { 0 } else { 1 });
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
        let r = session(&src, &args, Pass::Run);
        println!("{}", driver::results_json(&r));
        std::process::exit(0);
    }
    if let Some(format) = args.profile {
        let r = session(&src, &args, Pass::Profile);
        match format {
            Format::Text => print!("{}", r.profile_report()),
            Format::Json => println!("{}", r.profile_json()),
            Format::Trace => println!("{}", r.profile_chrome_trace()),
        }
        std::process::exit(0);
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
    let mut failed = false;

    if args.lint {
        failed |= print_lint(&src, o.werror, args.json);
    }

    match args.fusion_plan {
        Some(Format::Json) => println!("{}", driver::analyze_json(&hir)),
        Some(_) => print!("{}", driver::analyze_text(&hir)),
        None => {}
    }

    if args.certify {
        let req = o.request(Pass::Certify);
        match driver::certify_reports(&src, &req, |_| {}) {
            Ok(reports) => {
                match o.format.unwrap_or(ReportFormat::Text) {
                    ReportFormat::Text => print!("{}", driver::cert_reports_text(&reports)),
                    ReportFormat::Json => println!("{}", driver::cert_reports_json(&reports)),
                }
                failed |= driver::refuted(&reports);
            }
            Err(e) => {
                eprintln!("{}", driver::failure_text(&e, &src));
                failed = true;
            }
        }
    }

    // Under analysis modes, only an explicit `--emit` re-enables the
    // kernel/plan dump; `--verify` alone is the verify pass — the header
    // plus its sections.
    let analysis = args.lint || args.fusion_plan.is_some() || args.certify;
    let pass = match (analysis && o.emit.is_none(), o.verify) {
        (false, _) => Some(Pass::Compile),
        (true, true) => Some(Pass::Verify),
        (true, false) => None,
    };
    if let Some(pass) = pass {
        let copts = o.compiler.base_options();
        let compile = driver::direct_compiler(&hir, &copts);
        match driver::compile_pass(pass, o, &src, &hir, &compile) {
            Ok(out) => {
                print!("{}", out.text);
                if !out.ok() {
                    eprintln!(
                        "uhacc-cc: {} static verification error(s)",
                        out.verify_errors
                    );
                    failed = true;
                }
            }
            Err(msg) => {
                eprintln!("{msg}");
                failed = true;
            }
        }
    }

    std::process::exit(failed as i32);
}
