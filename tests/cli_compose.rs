//! Integration tests for `uhacc-cc` analysis-mode composability: the
//! four static passes (`--verify`, `--lint`, `--fusion-plan`,
//! `--certify`) compose in a single invocation — every report renders,
//! the kernel/plan dump is suppressed unless explicitly requested, and
//! the process exits with the *worst* of the individual pass codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn uhacc_cc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uhacc-cc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn uhacc-cc")
}

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn all_four_analysis_passes_compose_in_one_invocation() {
    let out = uhacc_cc(&[
        &example("grid.c"),
        "--verify",
        "--lint",
        "--fusion-plan",
        "--certify",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit: {:?}\n{stdout}", out.status);
    // Every pass rendered its section…
    assert!(stdout.contains("lint clean"), "{stdout}");
    assert!(stdout.contains("fusion plan:"), "{stdout}");
    assert!(stdout.contains("redcert: region 0"), "{stdout}");
    assert!(stdout.contains("CERTIFIED"), "{stdout}");
    assert!(stdout.contains("static verification"), "{stdout}");
    // …and the kernel dump stayed suppressed (analysis mode, no --emit).
    assert!(!stdout.contains(".kernel"), "{stdout}");
}

#[test]
fn certify_json_is_the_daemon_body() {
    let out = uhacc_cc(&[&example("grid.c"), "--certify=json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("{\"schema_version\":1,\"reports\":["),
        "{stdout}"
    );
    assert!(stdout.contains("\"verdict\":\"certified\""), "{stdout}");
}

#[test]
fn refuted_region_exits_one_even_composed_with_clean_passes() {
    // The redflow true-positive twin drops its reduction clause: the
    // kernel provably does not implement the sequential region, so
    // --certify must refute it and drive the composed exit code to 1.
    let out = uhacc_cc(&[
        &example("redflow/tp_mean_variance.c"),
        "--fusion-plan",
        "--certify",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("REFUTED"), "{stdout}");
    assert!(stdout.contains("fusion plan:"), "{stdout}");
}

#[test]
fn unknown_verdict_is_honest_but_not_fatal() {
    // pi.c branches on a symbolic array value: the validator must say
    // Unknown (never Certified), and Unknown exits 0 — it is a coverage
    // gap, not a proven miscompilation.
    let out = uhacc_cc(&[&example("pi.c"), "--certify"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("symbolic branch condition"), "{stdout}");
}

#[test]
fn garbage_certify_format_is_a_flag_error() {
    let out = uhacc_cc(&[&example("grid.c"), "--certify=garbage"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value for --certify: expected `text` or `json`"),
        "{stderr}"
    );
}

/// `compiled` was a second spelling of `auto`; it is now rejected like any
/// other unknown tier, with the diagnostic the daemon also renders.
#[test]
fn removed_exec_tier_spelling_is_a_flag_error() {
    let out = uhacc_cc(&[&example("grid.c"), "--run", "--exec-tier", "compiled"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid execution tier `compiled` (expected auto|interpret)"),
        "{stderr}"
    );
}

/// A source the front end rejects reads the same under `--run` and
/// `--profile` as under every other mode (and as the daemon's 422 body):
/// message, ` --> line L, column C`, source line, caret; exit 1 — not
/// `AccError`'s one-line `compile error: … (at byte N)`.
#[test]
fn rejected_source_renders_the_caret_diagnostic_under_run_and_profile() {
    let path = std::env::temp_dir().join(format!("uhacc-compose-{}.c", std::process::id()));
    let bad = "int N;\n#pragma acc parallel loop\nfor (int i = 0; i < N; i++) { x += 1; }\n";
    std::fs::write(&path, bad).expect("write the rejected source");
    let file = path.to_string_lossy().into_owned();
    let want = "error: unknown identifier `x`\n --> line 3, column 31\n  | for (int i = 0; i < N; \
                i++) { x += 1; }\n  |                               ^\n";
    for mode in [&[][..], &["--run"], &["--profile"]] {
        let out = uhacc_cc(&[&[file.as_str()], mode].concat());
        assert_eq!(out.status.code(), Some(1), "{mode:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{mode:?}");
        assert!(out.stdout.is_empty(), "{mode:?}");
    }
    std::fs::remove_file(&path).ok();
}
