//! Golden-diff test for the sanitizer's hazard reports over the paper's
//! reduction kernels. The reports are what `acc-testsuite --sanitize`,
//! `uhacc-cc --sanitize` and the `check_rails` benchmark judge, so any
//! change to a report — its text, address, either access, the order, or
//! the count of distinct hazards past the report cap — must show up as
//! an explicit diff against the committed
//! `tests/sanitize_reports.golden.txt`.
//!
//! The golden holds every report in full for the OpenUH default and the
//! four injected barrier defects, at every Table-2 position, for `int`
//! and `double` `+`, at three launch geometries (the sanitizer matrix's
//! 8×4×64, the odd-width 4×2×80 the tail defect needs and the
//! certification dims 2×2×64). Each combination runs sequentially and on
//! four host threads, on the typed tier and on the interpreter; the four
//! runs must agree byte for byte, and the golden holds their one answer.
//!
//! To regenerate after an *intended* sanitizer change:
//!
//! ```console
//! $ cargo test --release --test sanitize_golden -- --ignored
//! ```
//!
//! and review the diff of the golden file.

use std::fmt::Write;
use std::path::PathBuf;
use uhacc::core::{CompilerOptions, LaunchDims};
use uhacc::parse::{CType, RedOp};
use uhacc::sim::{ExecTier, SanitizerLevel};
use uhacc::testsuite::cases::ctype_name;
use uhacc::testsuite::{barrier_defects, Case, Position, SuiteConfig};

/// Loop iterations of every run: enough for every block of the largest
/// geometry to take part in the combine.
const RED_N: usize = 256;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("sanitize_reports.golden.txt")
}

fn geometries() -> [LaunchDims; 3] {
    let d = |gangs, workers, vector| LaunchDims {
        gangs,
        workers,
        vector,
    };
    [d(8, 4, 64), d(4, 2, 80), d(2, 2, 64)]
}

/// The executor settings every combination runs under.
fn settings() -> [(u32, ExecTier); 4] {
    [
        (1, ExecTier::Auto),
        (4, ExecTier::Auto),
        (1, ExecTier::Interpret),
        (4, ExecTier::Interpret),
    ]
}

/// The OpenUH default and the four barrier defects.
fn option_sets() -> Vec<(String, CompilerOptions)> {
    std::iter::once(("openuh".to_string(), CompilerOptions::openuh()))
        .chain(
            barrier_defects()
                .into_iter()
                .map(|(c, _)| (c.label, c.opts)),
        )
        .collect()
}

/// One sanitized run, rendered: the run's error if any, the distinct
/// hazard count, then every report with its address and both accesses.
fn run(opts: &CompilerOptions, pos: Position, ty: CType, cfg: &SuiteConfig) -> String {
    let case = Case::new("golden", opts.clone(), pos, RedOp::Add, ty);
    let mut r = match case.session(cfg) {
        Ok(r) => r,
        Err(e) => return format!("compile error: {e}\n"),
    };
    r.sanitize(SanitizerLevel::Full);
    let mut out = String::new();
    if let Err(e) = r.run() {
        writeln!(out, "run error: {e}").unwrap();
    }
    let count = r.device().stats().totals.hazards;
    writeln!(out, "hazards {count}").unwrap();
    let side = |a: Option<uhacc::sim::AccessInfo>| a.map_or("-".to_string(), |a| a.to_string());
    for h in r.hazards() {
        writeln!(out, "{h}").unwrap();
        writeln!(
            out,
            "  {:?} {:#x} | first {} | second {}",
            h.space,
            h.addr,
            side(h.first),
            side(h.second)
        )
        .unwrap();
    }
    out
}

/// One option set's section of the golden. Panics when the executor
/// settings disagree on a combination.
fn section(name: &str, opts: &CompilerOptions) -> String {
    let mut out = String::new();
    for pos in Position::all() {
        for ty in [CType::Int, CType::Double] {
            for dims in geometries() {
                let geo = format!("{}x{}x{}", dims.gangs, dims.workers, dims.vector);
                let head = format!("== {name} | {} {} | {geo}", pos.label(), ctype_name(ty));
                let mut first: Option<String> = None;
                for (host_threads, exec_tier) in settings() {
                    let cfg = SuiteConfig {
                        red_n: RED_N,
                        dims,
                        host_threads,
                        exec_tier,
                    };
                    let text = run(opts, pos, ty, &cfg);
                    match &first {
                        None => first = Some(text),
                        Some(want) => assert_eq!(
                            &text, want,
                            "{head}: host threads {host_threads}, {exec_tier:?} \
                             disagree with sequential auto"
                        ),
                    }
                }
                writeln!(out, "{head}").unwrap();
                out.push_str(&first.unwrap_or_default());
            }
        }
    }
    out
}

/// The golden document, rendered from the current build: the option
/// sets' sections, each computed on its own thread.
fn render() -> String {
    let sets = option_sets();
    std::thread::scope(|s| {
        let parts: Vec<_> = sets
            .iter()
            .map(|(name, opts)| s.spawn(move || section(name, opts)))
            .collect();
        parts
            .into_iter()
            .map(|p| p.join().expect("section rendered"))
            .collect()
    })
}

#[test]
fn sanitizer_reports_match_committed_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden exists");
    let got = render();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        panic!(
            "sanitizer reports drifted from tests/sanitize_reports.golden.txt at line {}:\n  \
             got:  {:?}\n  want: {:?}\nif the sanitizer change is intended, regenerate the \
             golden (see this test's module docs)",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}

#[test]
fn golden_keeps_every_hazard_class_and_clean_runs() {
    // The pinned runs must keep exercising the sanitizer's paths: shared
    // races, initcheck and clean runs, or the diff stops guarding them.
    // (No Table-2 kernel races across blocks; `gpsim`'s `shadow` test
    // holds the global replay against its oracle.)
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden exists");
    for needle in ["racecheck: shared byte", "initcheck: ", "hazards 0\n"] {
        assert!(golden.contains(needle), "golden lost every `{needle}`");
    }
}

/// Rewrites the golden from the current build (see the module docs).
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("write golden");
}
