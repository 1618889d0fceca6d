//! `make-figures` at its command line: what it rejects, and the exact
//! gate on the committed table.

use acc_testsuite::SuiteConfig;
use std::process::{Command, Output};

fn make_figures(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_make-figures"));
    cmd.args(args);
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// An unknown subcommand, a retired one and a malformed size are all
/// rejected before anything runs: diagnostic, the usage line, exit 2.
#[test]
fn bad_command_lines_exit_two_with_usage() {
    for (args, diagnostic) in [
        (&["frobnicate"][..], "unknown figure `frobnicate`"),
        (&["table2"], "unknown figure `table2`"),
        (&["fig11"], "unknown figure `fig11`"),
        (&["profile"], "unknown figure `profile`"),
        (
            &["ablations", "abc"],
            "invalid value for red_n: expected a non-negative integer, got `abc`",
        ),
        (&["modelled", "64", "128"], "unexpected argument `128`"),
        (&["fig12a", "--check"], "invalid value for red_n"),
    ] {
        let out = make_figures(args).output().expect("make-figures runs");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(diagnostic), "{args:?}: {err}");
        assert!(
            err.contains("fig12a|fig12b|fig12c|ablations|modelled|sim-throughput|all"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    }
}

/// `modelled --check` against a copy of the table with one count altered
/// exits 1 and names that cell and field — and nothing else, though the
/// copy was produced on 4 host threads and the check runs on 1: every
/// other cell, the applications' included, is byte-identical.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regenerates the table twice; minutes without optimisation"
)]
fn check_names_the_one_altered_cell_and_field() {
    let cfg = SuiteConfig {
        red_n: 256,
        host_threads: 4,
        ..SuiteConfig::default()
    };
    let table = uhacc_bench::render(&cfg, &uhacc_bench::cells(&cfg));
    let (cell, field) = (
        "\"table2: OpenUH vector float +\"",
        "\"global_transactions\": ",
    );
    let at = table.find(cell).expect("the cell is in the table");
    let at = at + table[at..].find(field).expect("the cell passed") + field.len();
    let len = table[at..].find(',').expect("more fields follow");
    let count: u64 = table[at..at + len].parse().expect("a count");
    let altered = format!("{}{}{}", &table[..at], count + 1, &table[at + len..]);

    let dir = std::env::temp_dir().join(format!("make-figures-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    std::fs::write(dir.join("BENCH_modelled.json"), altered).expect("write the altered table");
    let out = make_figures(&["modelled", "256", "--check"])
        .current_dir(&dir)
        .env("UHACC_HOST_THREADS", "1")
        .output()
        .expect("make-figures runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let named: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("BENCH_modelled.json: "))
        .collect();
    let line = 1 + table[..at].matches('\n').count();
    let want = format!(
        "BENCH_modelled.json: line {line}: {cell}: \"global_transactions\": {} -> {count}",
        count + 1
    );
    assert_eq!(named, [want.as_str()], "{err}");
    let regenerated = std::fs::read_to_string(dir.join("BENCH_modelled.regenerated.json"));
    assert_eq!(
        regenerated.expect("the regenerated table is left behind"),
        table
    );
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
