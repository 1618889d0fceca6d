//! Shape-invariant regression tests: the qualitative results the paper
//! reports must hold in the modelled table, so a cost-model or codegen
//! change that silently breaks the reproduction fails CI. Every assertion
//! reads cells of the blocks [`uhacc_bench::cells`] is made of.

use acc_testsuite::{CaseStatus, Cell, Position, SuiteConfig};
use gpsim::SessionStats;
use std::sync::OnceLock;
use uhacc_core::LaunchDims;

/// The blocks the assertions read (all but `strategy`), at a size the
/// suite can afford, computed once.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cfg = SuiteConfig {
            red_n: 4096,
            dims: LaunchDims {
                gangs: 16,
                workers: 8,
                vector: 128,
            },
            ..SuiteConfig::default()
        };
        let blocks = ["table2", "ablation", "fig12a", "fig12b", "fig12c"];
        let run = |name: &&str| uhacc_bench::run_block(name, &cfg);
        blocks.iter().flat_map(run).collect()
    })
}

/// Modelled ms and counts of the passing cell labelled `label`.
fn cell(label: &str) -> (f64, SessionStats) {
    let found = cells().iter().find(|c| c.label == label);
    match found.map(|c| &c.status) {
        Some(CaseStatus::Pass { ms, stats }) => (*ms, *stats),
        other => panic!("`{label}`: expected a passing cell, got {other:?}"),
    }
}

fn ms(label: &str) -> f64 {
    cell(label).0
}

fn table2(compiler: &str, pos: Position) -> f64 {
    ms(&format!("table2: {compiler} {} int +", pos.label()))
}

const DEFAULT: &str = "grid rowwise/firstrow/unrolled/shared";

/// Table 2 / Fig. 11: PGI-like is slower than OpenUH on every passing `+`
/// cell (the paper's headline performance claim).
#[test]
fn pgi_like_slower_than_openuh_everywhere() {
    for pos in [
        Position::Gang,
        Position::WorkerVector,
        Position::SameLineGwv,
    ] {
        let (open, pgi) = (table2("OpenUH", pos), table2("PGI-like", pos));
        assert!(
            pgi > open,
            "{}: PGI-like {pgi} must exceed OpenUH {open}",
            pos.label()
        );
    }
}

/// Table 2: worker is the slowest single-level reduction position (it has
/// the least parallelism available to the reduction loop).
#[test]
fn worker_is_slowest_single_level() {
    let gang = table2("OpenUH", Position::Gang);
    let worker = table2("OpenUH", Position::Worker);
    let vector = table2("OpenUH", Position::Vector);
    assert!(worker > gang, "{worker} vs {gang}");
    assert!(worker > vector, "{worker} vs {vector}");
}

/// Table 2: the same-line gang-worker-vector case is the fastest of all
/// positions (full-device parallelism on one flat loop).
#[test]
fn same_line_gwv_is_fastest() {
    let fastest = table2("OpenUH", Position::SameLineGwv);
    for pos in [
        Position::Gang,
        Position::Worker,
        Position::Vector,
        Position::GangWorker,
        Position::WorkerVector,
        Position::GangWorkerVector,
    ] {
        let t = table2("OpenUH", pos);
        assert!(
            fastest < t,
            "{} ({t}) vs same-line ({fastest})",
            pos.label()
        );
    }
}

/// §2.2/§3.1.3: window sliding must beat blocking by a wide margin on a
/// memory-bound vector loop (coalescing), and the transaction counter must
/// show why.
#[test]
fn window_sliding_beats_blocking() {
    let shape = "ablation: vector 4x8x32768";
    let (win_ms, win_st) = cell(&format!("{shape}: {DEFAULT} on 8x8x128"));
    let (blk_ms, blk_st) = cell(&format!("{shape}: blocking schedule on 8x8x128"));
    assert!(
        blk_ms > win_ms * 2.0,
        "blocking {blk_ms} vs window {win_ms}"
    );
    assert!(win_st.totals.transactions_per_access().unwrap() < 1.5);
    assert!(blk_st.totals.transactions_per_access().unwrap() > 8.0);
}

/// Fig. 6: the transposed layout must show bank conflicts and cost more on
/// a combine-heavy workload; Fig. 8: first-row must not lose to duplicate
/// rows.
#[test]
fn layout_and_worker_strategy_shapes() {
    let shape = "ablation: vector 512x16x256";
    let (row_ms, row_st) = cell(&format!("{shape}: {DEFAULT} on 8x8x128"));
    let (tr_ms, tr_st) = cell(&format!(
        "{shape}: grid transposed/firstrow/unrolled/shared on 8x8x128"
    ));
    assert!(
        tr_st.totals.conflict_ways_per_access().unwrap() > 2.0,
        "transposed must conflict"
    );
    assert!(
        row_st.totals.conflict_ways_per_access().unwrap() < 1.5,
        "row-wise must not"
    );
    assert!(tr_ms > row_ms, "transposed {tr_ms} vs row {row_ms}");

    let shape = "ablation: worker 2048x64x32";
    let fr = ms(&format!("{shape}: {DEFAULT} on 8x8x128"));
    let dr = ms(&format!(
        "{shape}: grid rowwise/duprows/unrolled/shared on 8x8x128"
    ));
    assert!(fr <= dr * 1.01, "first-row {fr} vs duplicate-rows {dr}");
}

/// The atomic gang strategy must save the second kernel launch.
#[test]
fn atomic_gang_strategy_saves_a_launch() {
    let shape = "ablation: same line gang worker vector 262144x1x1";
    for dims in ["16x1x128", "64x1x128"] {
        let (two, two_st) = cell(&format!("{shape}: {DEFAULT} on {dims}"));
        let (atomic, atomic_st) = cell(&format!("{shape}: atomic gang fallback on {dims}"));
        assert!(atomic < two, "{dims}: atomic {atomic} vs two-kernel {two}");
        assert_eq!((atomic_st.launches, two_st.launches), (1, 2));
    }
}

/// Fig. 12: the heat equation's reduction cost must grow with grid size
/// and stay below PGI-like's; the bars the paper could not draw are
/// missing here too.
#[test]
fn fig12_shapes() {
    let heat = |n: usize, compiler: &str| ms(&format!("fig12a: {n} {compiler}"));
    assert!(heat(256, "OpenUH") > heat(128, "OpenUH"));
    assert!(heat(128, "PGI-like") > heat(128, "OpenUH"));
    assert!(heat(256, "PGI-like") > heat(256, "OpenUH"));

    let missing: Vec<&str> = (cells().iter())
        .filter(|c| c.label.starts_with("fig12") && c.status.ms().is_none())
        .map(|c| c.label.as_str())
        .collect();
    let want: Vec<String> = (uhacc_bench::HEAT_GRIDS.iter())
        .map(|n| format!("fig12a: {n} CAPS-like"))
        .chain((uhacc_bench::MATMUL_SIZES.iter()).map(|n| format!("fig12b: {n} PGI-like")))
        .collect();
    assert_eq!(missing, want);
}
