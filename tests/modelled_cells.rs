//! The repo's bit-identity invariant, checked on the paper's own metric:
//! the Table-2 and strategy-grid cells of `BENCH_modelled.json`, as the
//! bytes that file holds, do not depend on the execution tier or on the
//! number of host threads — so the committed table can be gated exactly.

use uhacc::baselines::Compiler;
use uhacc::parse::ast::{CType, RedOp};
use uhacc::sim::ExecTier;
use uhacc::testsuite::{
    format_cell, run_cells, run_suite, strategy_cases, CaseStatus, Cell, SuiteConfig,
};

fn cells(exec_tier: ExecTier, host_threads: u32) -> Vec<Cell> {
    let cfg = SuiteConfig {
        exec_tier,
        host_threads,
        ..SuiteConfig::quick()
    };
    let table2 = run_suite(
        &Compiler::all(),
        &[RedOp::Add, RedOp::Mul],
        &[CType::Int, CType::Float, CType::Double],
        &cfg,
    );
    let mut cells: Vec<Cell> = table2.iter().map(|r| r.cell()).collect();
    cells.extend(run_cells(&strategy_cases(), &cfg));
    cells
}

fn rendered(cells: &[Cell]) -> Vec<String> {
    cells.iter().map(format_cell).collect()
}

#[test]
fn cells_are_identical_across_exec_tier_and_host_threads() {
    // Both knobs move at once — the typed tier on the sequential executor
    // against the interpreter on four host threads — because a third run
    // of the table costs tier-1 a minute; a mismatch names its cell.
    let (base, other) = std::thread::scope(|s| {
        let other = s.spawn(|| cells(ExecTier::Interpret, 4));
        (cells(ExecTier::Auto, 1), other.join().expect("no panic"))
    });
    assert_eq!(rendered(&base), rendered(&other));

    // Table 2's robustness matrix, the one `pipeline_integration` counts
    // for int: under `+`, PGI-like is wrong at worker, vector and gang
    // worker and rejects gang-worker-vector, CAPS-like is wrong wherever
    // the reduction spans levels of different loops; under `*` only
    // PGI-like's rejection remains. OpenUH passes everything.
    let mut want = vec![
        "PGI-like gang worker vector float *: CE".to_string(),
        "PGI-like gang worker vector double *: CE".to_string(),
    ];
    for ty in ["int", "float", "double"] {
        for (cell, mark) in [
            ("PGI-like worker", "F"),
            ("PGI-like vector", "F"),
            ("PGI-like gang worker", "F"),
            ("CAPS-like gang worker", "F"),
            ("CAPS-like worker vector", "F"),
            ("PGI-like gang worker vector", "CE"),
            ("CAPS-like gang worker vector", "F"),
        ] {
            want.push(format!("{cell} {ty} +: {mark}"));
        }
    }
    let mut got: Vec<String> = base
        .iter()
        .filter_map(|c| match c.status {
            CaseStatus::Pass { .. } => None,
            CaseStatus::Fail { .. } => Some(format!("{}: F", c.label)),
            CaseStatus::CompileError { .. } => Some(format!("{}: CE", c.label)),
        })
        .collect();
    want.sort();
    got.sort();
    assert_eq!(got, want);
}
