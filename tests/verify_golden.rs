//! Golden-diff test for kverify's reports over the paper's reduction
//! kernels. The verifier's findings are what the `--verify` rail, the
//! daemon's `/verify` route and redcert's kverify gate all print or
//! judge, so any change to a finding, its order, its detail text or the
//! report rendering must show up as an explicit diff against the
//! committed `tests/verify_reports.golden.txt`.
//!
//! The golden holds the full report text of every kernel for the OpenUH
//! default and the four injected barrier defects, at every Table-2
//! position, for `int` and `double` `+`, at three launch geometries (the
//! paper's, the certification dims and the odd-width 4×2×80 the tail
//! defect needs). The other seventeen rows of the §6 strategy grid are
//! pinned by an FNV-1a hash of the same text, which keeps the file small.
//!
//! To regenerate after an *intended* verifier change:
//!
//! ```console
//! $ cargo test --release --test verify_golden -- --ignored
//! ```
//!
//! and review the diff of the golden file.

use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;
use uhacc::core::{compile_region, CompilerOptions, LaunchDims};
use uhacc::parse::{CType, RedOp};
use uhacc::sim::{verify_kernel, VerifyConfig};
use uhacc::testsuite::cases::ctype_name;
use uhacc::testsuite::{barrier_defects, case_source, strategy_grid, Position};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("verify_reports.golden.txt")
}

fn geometries() -> [LaunchDims; 3] {
    let d = |gangs, workers, vector| LaunchDims {
        gangs,
        workers,
        vector,
    };
    [LaunchDims::paper(), d(2, 2, 64), d(4, 2, 80)]
}

/// Every kernel's report for one option set at one position, type and
/// geometry, in plan order; a combination that does not compile gives
/// its diagnostic instead.
fn reports(opts: &CompilerOptions, pos: Position, ty: CType, dims: LaunchDims) -> Vec<String> {
    let vc = VerifyConfig::default();
    let hir = uhacc::parse::compile(&case_source(pos, RedOp::Add, ty)).expect("case parses");
    match compile_region(&hir, 0, dims, opts) {
        Ok(plan) => plan
            .launches()
            .map(|l| verify_kernel(l.kernel, l.config, &vc).to_string())
            .collect(),
        Err(d) => vec![format!("compile error: {}\n", d.message)],
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden document, rendered from the current build. A report with
/// findings identical to one already written (the finalize kernel's does
/// not depend on the position or the geometry) is written as its first
/// line and a reference to the line where it was written in full.
fn render() -> String {
    let grid = strategy_grid();
    let (default_name, default_opts) = grid[0].clone();
    assert_eq!(
        default_opts,
        CompilerOptions::openuh(),
        "the grid's first row is the OpenUH default"
    );
    let full: Vec<(String, CompilerOptions)> = std::iter::once((default_name, default_opts))
        .chain(
            barrier_defects()
                .into_iter()
                .map(|(c, _)| (c.label, c.opts)),
        )
        .collect();
    let mut out = String::new();
    let mut line = 1;
    let mut written: HashMap<String, usize> = HashMap::new();
    let geos = geometries().map(|d| format!("{}x{}x{}", d.gangs, d.workers, d.vector));
    writeln!(
        out,
        "# full reports, then FNV-1a hashes at {}",
        geos.join(", ")
    )
    .unwrap();
    line += 1;
    for (name, opts) in &full {
        for pos in Position::all() {
            for ty in [CType::Int, CType::Double] {
                for (dims, geo) in geometries().into_iter().zip(&geos) {
                    writeln!(
                        out,
                        "== {name} | {} {} | {geo}",
                        pos.label(),
                        ctype_name(ty)
                    )
                    .unwrap();
                    line += 1;
                    for text in reports(opts, pos, ty, dims) {
                        if let Some(at) =
                            written.get(&text).filter(|_| text.lines().nth(1).is_some())
                        {
                            let head = text.lines().next().unwrap_or_default();
                            writeln!(out, "{head} [as at line {at}]").unwrap();
                            line += 1;
                        } else {
                            out.push_str(&text);
                            written.insert(text.clone(), line);
                            line += text.lines().count();
                        }
                    }
                }
            }
        }
    }
    for (name, opts) in &grid[1..] {
        for pos in Position::all() {
            for ty in [CType::Int, CType::Double] {
                write!(out, "{name} | {} {} |", pos.label(), ctype_name(ty)).unwrap();
                for dims in geometries() {
                    let text: String = reports(opts, pos, ty, dims).concat();
                    write!(out, " {:016x}", fnv1a(&text)).unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn verify_reports_match_committed_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden exists");
    let got = render();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        panic!(
            "kverify reports drifted from tests/verify_reports.golden.txt at line {}:\n  \
             got:  {:?}\n  want: {:?}\nif the verifier change is intended, regenerate the \
             golden (see this test's module docs)",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}

#[test]
fn golden_keeps_a_race_a_bank_conflict_and_a_clean_kernel() {
    // The full-text kernels must keep exercising the verifier's paths: a
    // race, a bank conflict and a clean kernel, or the diff stops
    // guarding them. (The looped tree's unproven accesses are in the
    // hashed rows.)
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden exists");
    for needle in [
        "error [racecheck]",
        "warn [bankconflict]",
        ": 0 error(s), 0 warning(s), 0 unproven",
    ] {
        assert!(golden.contains(needle), "golden lost every `{needle}`");
    }
}

/// Rewrites the golden from the current build (see the module docs).
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("write golden");
}
