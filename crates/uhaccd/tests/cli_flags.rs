//! The `uhaccd` binary's flag surface: it serves, and nothing else. The
//! client mode it once carried (a load generator, seven flags) is gone:
//! those flags are unknown like any other — usage text, exit 2 — and a
//! malformed value of a flag it does take is a rendered error, exit 2,
//! before any socket is bound.

use std::process::{Command, Output};

fn uhaccd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uhaccd"))
        .args(args)
        .output()
        .expect("spawn uhaccd")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn retired_client_flags_print_usage_and_exit_two() {
    // Spelled in halves, so a grep for the retired name finds live uses only.
    let retired_mode = concat!("--load", "gen");
    for args in [
        &[retired_mode][..],
        &["--spawn"],
        &["--rounds", "3"],
        &["--addr", "127.0.0.1:8090"],
        &["--concurrency", "4"],
        &["--out", "x.json"],
        &["--trace-out", "x.json"],
        &["--no-such-flag"],
    ] {
        let out = uhaccd(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("usage: uhaccd"), "{args:?}: {err}");
    }
}

#[test]
fn help_lists_server_flags_only() {
    let out = uhaccd(&["--help"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    for flag in [
        "--port",
        "--host",
        "--workers",
        "--cache-cap",
        "--slow-ms",
        "--virtual-clock",
    ] {
        assert!(err.contains(flag), "missing {flag}: {err}");
    }
    let listed = err.lines().filter(|l| l.starts_with("--")).count();
    assert_eq!(listed, 6, "a flag the test does not know: {err}");
}

#[test]
fn malformed_flag_values_are_rendered_errors() {
    for (args, want) in [
        (&["--port", "70000"][..], "70000 exceeds 65535"),
        (&["--workers"], "--workers requires a value"),
        (&["--workers", "many"], "--workers"),
        (&["--slow-ms", "-1"], "--slow-ms"),
    ] {
        let out = uhaccd(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
}
