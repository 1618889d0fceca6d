//! uhbench — the benchmark of record for the uhacc repository.
//!
//! ```text
//! uhbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! uhbench all [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
//! uhbench compare <dir-a> <dir-b>
//! ```
//!
//! One process measures one workload; `all` re-executes this binary once
//! per workload and mode, so set-up time and peak memory are per
//! workload. See `benchmark/README.md`.

mod compare;
mod harness;
mod json;
mod metrics;
mod rng;
#[macro_use]
mod span;
mod stats;
mod workloads;

use harness::RunArgs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time per run when none is given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;

fn usage() -> String {
    format!(
        "usage: uhbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]\n\
         \x20      uhbench all [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]\n\
         \x20      uhbench compare <dir-a> <dir-b>",
        workloads::NAMES.join("|")
    )
}

struct Cli {
    all: bool,
    args: RunArgs,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        all: false,
        args: RunArgs {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{a}` needs a value\n{}", usage()))
        };
        match a.as_str() {
            "all" => cli.all = true,
            "--quick" => cli.args.quick = true,
            "--workload" => cli.args.workload = value()?.clone(),
            "--out" => cli.args.out = PathBuf::from(value()?),
            "--seed" => {
                cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.args.seconds = s;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !cli.all && cli.args.workload.is_empty() {
        return Err(usage());
    }
    Ok(cli)
}

/// Run every workload, timed then traced, each in a process of its own.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out);
            if args.quick {
                cmd.arg("--quick");
            }
            // `status` waits for the child; its output is ours. A run
            // that printed a result exits 0 whatever the result says, so
            // correctness is read from the file it wrote.
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            let ext = if trace == "1" { "layers.json" } else { "json" };
            let file = args.out.join(name).with_extension(ext);
            let correct = std::fs::read_to_string(&file)
                .ok()
                .and_then(|t| json::parse(&t).ok())
                .and_then(|j| j.get("correct").cloned());
            all_correct &= status.success() && correct == Some(json::Json::Bool(true));
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(usage()),
        }
    } else {
        parse_cli(&argv).and_then(|cli| {
            if cli.all {
                run_all(&cli.args)
            } else {
                // A single run exits 0 once it has printed its result
                // line; whether the outputs were correct is in the line.
                harness::run(&cli.args).map(|_correct| true)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("uhbench: {e}");
            ExitCode::from(2)
        }
    }
}
