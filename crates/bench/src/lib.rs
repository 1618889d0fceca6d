//! # uhacc-bench — the paper's evaluation as one table of modelled cells
//!
//! [`cells`] is the one producer of the paper's numbers: every cell is a
//! verified run of a [`Case`] or of a Fig. 12 application — its modelled
//! milliseconds and the simulator's counts behind them, bit-identical
//! across execution tier and host threads. The table is committed as
//! `BENCH_modelled.json` ([`render`]) and gated byte for byte
//! ([`differences`]); `make-figures` prints its [`BLOCKS`], and
//! `acc-testsuite` prints the rows of the `table2` block as Table 2 and
//! Fig. 11. Host wall time of the same workloads is the benchmark of
//! record's job (`benchmark/`: `uhbench`'s `table2_sim` and `apps_sim`).

use acc_apps::{
    run_heat_on, run_matmul_on, run_pi_on, HeatConfig, MatmulConfig, PiConfig, SimWork,
};
use acc_baselines::{Compiler, ReductionCase};
use acc_testsuite::{
    format_cell, run_cells, run_suite, strategy_cases, strategy_grid, Case, CaseStatus, Cell,
    Position, SuiteConfig,
};
use accparse::ast::{CType, Level, RedOp};
use accrt::AccError;
use gpsim::Device;
use uhacc_core::LaunchDims;

type Producer = fn(&SuiteConfig) -> Vec<Cell>;

/// The table's blocks, in file order: the name every label of the block
/// starts with, and its producer. `ablation` and `fig12*` have their own
/// sizes and take only the configuration's execution knobs.
pub const BLOCKS: [(&str, Producer); 6] = [
    ("table2", table2),
    ("strategy", |cfg| run_cells(&strategy_cases(), cfg)),
    ("ablation", |cfg| run_cells(&ablation_cases(), cfg)),
    ("fig12a", fig12a),
    ("fig12b", fig12b),
    ("fig12c", fig12c),
];

/// Run the block called `name`: its cells, labelled `name: ...`, and its
/// host wall time on stderr.
pub fn run_block(name: &str, cfg: &SuiteConfig) -> Vec<Cell> {
    let (_, produce) = BLOCKS.iter().find(|b| b.0 == name).expect("a block name");
    let start = std::time::Instant::now();
    let mut cells = produce(cfg);
    let secs = start.elapsed().as_secs_f64();
    eprintln!("[modelled] {name}: {} cells in {secs:.1} s", cells.len());
    for cell in &mut cells {
        cell.label = format!("{name}: {}", cell.label);
    }
    cells
}

/// The whole table at `cfg`.
pub fn cells(cfg: &SuiteConfig) -> Vec<Cell> {
    let blocks = BLOCKS.iter();
    blocks.flat_map(|(name, _)| run_block(name, cfg)).collect()
}

/// Table 2 and Fig. 11: every position × `+ *` × int/float/double under
/// the three personalities, F and CE cells included.
fn table2(cfg: &SuiteConfig) -> Vec<Cell> {
    let ops = [RedOp::Add, RedOp::Mul];
    let types = [CType::Int, CType::Float, CType::Double];
    let results = run_suite(&Compiler::all(), &ops, &types, cfg);
    results.iter().map(|r| r.cell()).collect()
}

/// The ablations of Fig. 6, Fig. 8 and §3.3: rows of the strategy grid on
/// Table-2 cases, int `+`, each pinned to the loop extents and launch
/// geometry where the choice it isolates dominates the measurement.
pub fn ablation_cases() -> Vec<Case> {
    use Position::{SameLineGwv, Vector, Worker};
    const OPENUH: &str = "grid rowwise/firstrow/unrolled/shared";
    const TRANSPOSED: &str = "grid transposed/firstrow/unrolled/shared";
    let grid = strategy_grid();
    let long = (Vector, (4, 8, 32768));
    let flat = (SameLineGwv, (1 << 18, 1, 1));
    let pinned = [
        // A long vector loop: the schedule decides coalescing, everything
        // else hides behind the loads.
        (long, [8, 8, 128], OPENUH),
        (long, [8, 8, 128], TRANSPOSED),
        (long, [8, 8, 128], "blocking schedule"),
        (long, [8, 8, 128], "grid rowwise/firstrow/looped/shared"),
        (long, [8, 8, 128], "grid rowwise/firstrow/unrolled/global"),
        // §3.3: a vector length that is not a power of two stays correct
        // and gets slower.
        (long, [8, 8, 96], OPENUH),
        (long, [8, 8, 64], OPENUH),
        (long, [8, 8, 48], OPENUH),
        (long, [8, 8, 33], OPENUH),
        // Fig. 6: short rows combined many times, so the slab layout's
        // bank conflicts in the shared tree dominate.
        ((Vector, (512, 16, 256)), [8, 8, 128], OPENUH),
        ((Vector, (512, 16, 256)), [8, 8, 128], TRANSPOSED),
        // Fig. 8: many gang iterations, so the worker combine dominates.
        ((Worker, (2048, 64, 32)), [8, 8, 128], OPENUH),
        (
            (Worker, (2048, 64, 32)),
            [8, 8, 128],
            "grid rowwise/duprows/unrolled/shared",
        ),
        // §3.1.3: the second kernel against one atomic accumulator, by
        // gang count.
        (flat, [16, 1, 128], OPENUH),
        (flat, [16, 1, 128], "atomic gang fallback"),
        (flat, [64, 1, 128], OPENUH),
        (flat, [64, 1, 128], "atomic gang fallback"),
        (flat, [192, 1, 128], OPENUH),
        (flat, [192, 1, 128], "atomic gang fallback"),
    ];
    pinned
        .map(|((pos, extents), [gangs, workers, vector], row)| {
            let opts = grid
                .iter()
                .find(|(name, _)| name == row)
                .expect("a grid row");
            let (nk, nj, ni) = extents;
            let label = format!(
                "{} {nk}x{nj}x{ni}: {row} on {gangs}x{workers}x{vector}",
                pos.label()
            );
            let dims = LaunchDims {
                gangs,
                workers,
                vector,
            };
            Case {
                dims: Some(dims),
                extents: Some(extents),
                ..Case::new(label, opts.1.clone(), pos, RedOp::Add, CType::Int)
            }
        })
        .into()
}

/// Fig. 12's sizes: grid edges (every grid runs [`HEAT_ITERS`] iterations
/// so sizes are comparable: the paper runs to convergence, and modelled
/// time per iteration is what accumulates), matrix edges, sample counts.
pub const HEAT_GRIDS: [usize; 4] = [128, 256, 384, 512];
pub const HEAT_ITERS: usize = 20;
pub const MATMUL_SIZES: [usize; 4] = [64, 128, 192, 256];
pub const PI_SAMPLES: [usize; 3] = [1 << 18, 1 << 19, 1 << 20];

/// One application at each of `sizes` under each personality, on a fresh
/// device set to `cfg`'s execution knobs; `run` returns the figure's
/// metric in modelled ms, or `None` where the paper's bar is missing too.
fn app_cells(
    cfg: &SuiteConfig,
    sizes: &[usize],
    run: impl Fn(usize, Compiler, Device) -> Option<Result<(f64, SimWork), AccError>>,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in sizes {
        for c in Compiler::all() {
            let mut device = Device::default();
            device.set_exec_tier(cfg.exec_tier);
            device.set_host_threads(cfg.host_threads);
            let missing = Err("no bar in the paper's figure either".to_string());
            let ran = run(n, c, device).map_or(missing, |r| r.map_err(|e| e.to_string()));
            let status = match ran {
                Ok((ms, SimWork { stats, .. })) => CaseStatus::Pass { ms, stats },
                Err(detail) => CaseStatus::Fail { detail },
            };
            let label = format!("{n} {}", c.name());
            cells.push(Cell { label, status });
        }
    }
    cells
}

/// Fig. 12a: heat-equation max-reduction time per grid size. The
/// CAPS-like bar is missing, as in the paper ("the temperature difference
/// generated by this compiler increases gradually rather than a decrease,
/// so the application can never converge").
fn fig12a(cfg: &SuiteConfig) -> Vec<Cell> {
    app_cells(cfg, &HEAT_GRIDS, |n, c, device| {
        let heat = HeatConfig {
            n,
            tol: 0.0,
            max_iters: HEAT_ITERS,
            ..Default::default()
        };
        let run = || run_heat_on(&heat, c.base_options(), device);
        (c != Compiler::CapsLike).then(|| run().map(|r| (r.reduction_ms, r.sim)))
    })
}

/// Fig. 12b: matmul kernel time per matrix size. The PGI-like personality
/// fails the vector `+` reduction (Table 2), so its bar is missing —
/// exactly the paper's figure.
fn fig12b(cfg: &SuiteConfig) -> Vec<Cell> {
    let case = ReductionCase::new(vec![Level::Vector], false, RedOp::Add, CType::Double);
    app_cells(cfg, &MATMUL_SIZES, |n, c, device| {
        let opts = c.options_for_case(&case).ok()?;
        let matmul = MatmulConfig {
            n,
            ..Default::default()
        };
        let miscompiles = opts.bugs != Default::default();
        let run = || run_matmul_on(&matmul, opts, device);
        (!miscompiles).then(|| run().map(|r| (r.kernel_ms, r.sim)))
    })
}

/// Fig. 12c: Monte Carlo PI kernel time per sample count.
fn fig12c(cfg: &SuiteConfig) -> Vec<Cell> {
    app_cells(cfg, &PI_SAMPLES, |samples, c, device| {
        let pi = PiConfig {
            samples,
            ..Default::default()
        };
        Some(run_pi_on(&pi, c.base_options(), device).map(|r| (r.kernel_ms, r.sim)))
    })
}

/// The table as the text of `BENCH_modelled.json`: the size it was run at
/// on the first line, then one cell per line ([`format_cell`]).
pub fn render(cfg: &SuiteConfig, cells: &[Cell]) -> String {
    let (n, d) = (cfg.red_n, cfg.dims);
    let lines: Vec<String> = cells.iter().map(format_cell).collect();
    format!(
        "{{\"red_n\": {n}, \"dims\": [{}, {}, {}], \"cells\": [\n{}\n]}}\n",
        d.gangs,
        d.workers,
        d.vector,
        lines.join(",\n")
    )
}

/// Where a regenerated table departs from the committed one: a line per
/// differing cell, naming it and each field that moved. Empty when the
/// two are byte-identical.
pub fn differences(committed: &str, regenerated: &str) -> Vec<String> {
    let (want, got): (Vec<&str>, Vec<&str>) =
        (committed.lines().collect(), regenerated.lines().collect());
    let mut out = Vec::new();
    if want.len() != got.len() {
        let (w, g) = (want.len(), got.len());
        out.push(format!("{w} line(s) committed, {g} regenerated"));
    }
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        if want == got {
            continue;
        }
        let (w, g) = (fields_of(want), fields_of(got));
        let moved: Vec<String> = if w.len() == g.len() && w[0] == g[0] {
            let moved = w.iter().zip(&g).filter(|(w, g)| w != g);
            moved
                .map(|(w, g)| format!("{w} -> {}", g.rsplit(": ").next().unwrap_or(g)))
                .collect()
        } else {
            vec![format!("committed {want}, regenerated {got}")]
        };
        let cell = g[0].trim_start_matches("{\"cell\": ");
        out.push(format!("line {}: {cell}: {}", i + 1, moved.join(", ")));
    }
    out
}

fn fields_of(line: &str) -> Vec<&str> {
    line.trim_end_matches([',', '}']).split(", ").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cycles: u64, status: CaseStatus) -> String {
        let stats = gpsim::SessionStats {
            kernel_cycles: cycles,
            launches: 2,
            ..Default::default()
        };
        let cells = [
            Cell {
                label: "table2: OpenUH gang int +".into(),
                status: CaseStatus::Pass { ms: 1.5, stats },
            },
            Cell {
                label: "table2: PGI-like worker int +".into(),
                status,
            },
        ];
        render(&SuiteConfig::quick(), &cells)
    }

    #[test]
    fn differences_name_the_cell_and_each_field_that_moved() {
        let fail = || CaseStatus::Fail { detail: "x".into() };
        let committed = table(700, fail());
        assert!(committed.starts_with("{\"red_n\": 1024, \"dims\": [8, 4, 64], \"cells\": [\n"));
        assert_eq!(differences(&committed, &committed), Vec::<String>::new());
        assert_eq!(
            differences(&committed, &table(701, fail())),
            ["line 2: \"table2: OpenUH gang int +\": \"kernel_cycles\": 700 -> 701"]
        );
        let ce = CaseStatus::CompileError { msg: "y".into() };
        assert_eq!(
            differences(&committed, &table(700, ce)),
            ["line 3: \"table2: PGI-like worker int +\": \"status\": \"F\" -> \"CE\""]
        );
        // A cell that started to pass has no fields to pair up: both lines.
        let pass = CaseStatus::Pass {
            ms: 0.0,
            stats: Default::default(),
        };
        let moved = differences(&committed, &table(700, pass));
        assert_eq!(moved.len(), 1);
        assert!(moved[0].starts_with(
            "line 3: \"table2: PGI-like worker int +\": committed \
             {\"cell\": \"table2: PGI-like worker int +\", \"status\": \"F\"}, regenerated \
             {\"cell\": \"table2: PGI-like worker int +\", \"status\": \"pass\", "
        ));
        let shorter = committed.replacen("\n]}", "", 1);
        assert_eq!(
            differences(&committed, &shorter),
            ["4 line(s) committed, 3 regenerated"]
        );
    }
}
