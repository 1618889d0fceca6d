//! Case execution and verification.
//!
//! Each case runs on the simulated device under one compiler personality
//! and is verified against the sequential CPU reference — exactly the
//! paper's methodology ("the testsuite will check if a given reduction
//! implementation passed or failed by verifying the OpenACC result with
//! the CPU result").

use crate::cases::{case_source, extents, gen_value, Position};
use acc_baselines::{Compiler, CpuExec, ReductionCase};
use accparse::ast::{CType, RedOp};
use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::{Device, SanitizerLevel, SessionStats, Value};
use uhacc_core::{
    CombineSpace, CompilerOptions, GangStrategy, LaunchDims, Schedule, TreeStyle, VectorLayout,
    WorkerStrategy,
};

/// Suite configuration: reduction loop size and launch geometry.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Iterations of the reduction loop (the paper used up to 1M on a
    /// K20c; the simulator default is scaled down).
    pub red_n: usize,
    /// Launch geometry (the paper: 192 gangs, 8 workers, vector 128).
    pub dims: LaunchDims,
    /// Host worker threads for block execution (0 = auto, 1 = sequential;
    /// see [`gpsim::DeviceConfig::host_threads`]). Results are bit-identical
    /// at any setting.
    pub host_threads: u32,
    /// Simulator execution tier (see [`gpsim::ExecTier`]). Results are
    /// bit-identical at either setting.
    pub exec_tier: gpsim::ExecTier,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            red_n: 16 * 1024,
            dims: LaunchDims::paper(),
            host_threads: 0,
            exec_tier: gpsim::ExecTier::Auto,
        }
    }
}

impl SuiteConfig {
    /// A fast configuration for unit tests.
    pub fn quick() -> Self {
        SuiteConfig {
            red_n: 1024,
            dims: LaunchDims {
                gangs: 8,
                workers: 4,
                vector: 64,
            },
            host_threads: 0,
            exec_tier: gpsim::ExecTier::Auto,
        }
    }
}

/// Outcome of one case under one compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseStatus {
    /// Verified correct: the modelled milliseconds the paper's tables
    /// report, and the session's modelled counts behind them.
    Pass { ms: f64, stats: SessionStats },
    /// Ran but produced a wrong result (a Table 2 "F").
    Fail { detail: String },
    /// Rejected at compile time (a Table 2 "CE").
    CompileError { msg: String },
}

impl CaseStatus {
    /// Table 2's mark for the outcome: `pass`, `F` or `CE`.
    pub fn mark(&self) -> &'static str {
        match self {
            CaseStatus::Pass { .. } => "pass",
            CaseStatus::Fail { .. } => "F",
            CaseStatus::CompileError { .. } => "CE",
        }
    }

    /// The milliseconds if the case passed.
    pub fn ms(&self) -> Option<f64> {
        match self {
            CaseStatus::Pass { ms, .. } => Some(*ms),
            _ => None,
        }
    }
}

/// A fully identified result row.
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub compiler: Compiler,
    pub position: Position,
    pub op: RedOp,
    pub dtype: CType,
    pub status: CaseStatus,
}

impl CaseResult {
    /// The row as a cell of the modelled table, labelled as its [`Case`].
    pub fn cell(&self) -> Cell {
        Cell {
            label: personality_label(self.compiler, self.position, self.op, self.dtype),
            status: self.status.clone(),
        }
    }
}

fn personality_label(compiler: Compiler, pos: Position, op: RedOp, ty: CType) -> String {
    format!("{} {} {ty} {op}", compiler.name(), pos.label())
}

/// One cell of the modelled table (`BENCH_modelled.json`): what a labelled
/// workload came back as. Table 2, the strategy grid, the ablations and
/// the Fig. 12 applications are all rows of these.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub label: String,
    pub status: CaseStatus,
}

/// Reference outputs for a case, computed once by the CPU executor and
/// shared by all compilers.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Expected value of `sum`, for scalar-verified positions.
    pub scalar: Option<Value>,
    /// Expected contents of `out`, for array-verified positions.
    pub out: Option<Vec<Value>>,
}

/// Arrays bound for a case: `(input, optional temp, optional out-shape)`.
struct CaseData {
    input: HostBuffer,
    temp_len: Option<usize>,
    out_len: Option<usize>,
}

/// Loop extents `(NK, NJ, NI)`.
type Extents = (usize, usize, usize);

fn case_data(pos: Position, op: RedOp, t: CType, (nk, nj, ni): Extents) -> CaseData {
    let n = nk * nj * ni;
    let mut input = HostBuffer::new(t, n);
    for i in 0..n {
        input.set(i, gen_value(op, t, i));
    }
    let (temp_len, out_len) = match pos {
        Position::Gang | Position::GangWorker => (Some(n), None),
        Position::Worker => (Some(n), Some(nk)),
        Position::Vector => (None, Some(nk * nj)),
        Position::WorkerVector => (None, Some(nk)),
        Position::GangWorkerVector | Position::SameLineGwv => (None, None),
    };
    CaseData {
        input,
        temp_len,
        out_len,
    }
}

fn bind_dims(
    pos: Position,
    (nk, nj, ni): Extents,
    mut bind: impl FnMut(&str, i64) -> Result<(), AccError>,
) -> Result<(), AccError> {
    if pos == Position::SameLineGwv {
        bind("N", nk as i64)
    } else {
        bind("NK", nk as i64)?;
        bind("NJ", nj as i64)?;
        bind("NI", ni as i64)
    }
}

/// Compute the CPU reference for a case at the position's extents.
pub fn reference(pos: Position, op: RedOp, t: CType, cfg: &SuiteConfig) -> Expected {
    reference_at(pos, op, t, extents(pos, cfg.red_n))
}

fn reference_at(pos: Position, op: RedOp, t: CType, ext: Extents) -> Expected {
    let src = case_source(pos, op, t);
    let data = case_data(pos, op, t, ext);
    let mut cpu = CpuExec::new(&src).expect("testsuite sources always compile");
    bind_dims(pos, ext, |n, v| cpu.bind_int(n, v)).unwrap();
    cpu.bind_array("input", data.input.clone()).unwrap();
    if let Some(n) = data.temp_len {
        cpu.bind_array("temp", HostBuffer::new(t, n)).unwrap();
    }
    if let Some(n) = data.out_len {
        cpu.bind_array("out", HostBuffer::new(t, n)).unwrap();
    }
    cpu.run().expect("CPU reference execution");
    let scalar = cpu.scalar("sum").ok();
    let out = data
        .out_len
        .map(|n| (0..n).map(|i| cpu.array("out").unwrap().get(i)).collect());
    Expected { scalar, out }
}

/// Tolerant value comparison: exact for integers, relative tolerance for
/// floats (parallel trees reassociate rounding).
pub fn values_match(got: Value, want: Value, t: CType) -> bool {
    match t {
        CType::Int | CType::Long => got.as_i64() == want.as_i64(),
        CType::Float => {
            let (g, w) = (got.as_f64(), want.as_f64());
            (g - w).abs() <= 1e-2 * w.abs().max(1.0)
        }
        CType::Double => {
            let (g, w) = (got.as_f64(), want.as_f64());
            (g - w).abs() <= 1e-8 * w.abs().max(1.0)
        }
    }
}

/// One testsuite case as a value: a reduction position, operator and
/// element type under one option set. Table 2, the profiler, the
/// wall-clock race, the detection matrix, the certification sweep and the
/// cross-rail oracle all run these, so every harness judges the same
/// sessions.
#[derive(Debug, Clone)]
pub struct Case {
    pub label: String,
    pub pos: Position,
    pub op: RedOp,
    pub ty: CType,
    pub opts: CompilerOptions,
    /// The geometry the case is pinned to, when the sweep's own hides
    /// what it is there to show.
    pub dims: Option<LaunchDims>,
    /// The loop extents `(NK, NJ, NI)` the case is pinned to, when no
    /// `red_n` gives the position that shape.
    pub extents: Option<(usize, usize, usize)>,
}

impl Case {
    /// `pos`/`op`/`ty` compiled under `opts`, at the sweep's geometry.
    pub fn new(
        label: impl Into<String>,
        opts: CompilerOptions,
        pos: Position,
        op: RedOp,
        ty: CType,
    ) -> Case {
        Case {
            label: label.into(),
            pos,
            op,
            ty,
            opts,
            dims: None,
            extents: None,
        }
    }

    /// The case under a compiler personality; a personality's reject rule
    /// is Table 2's "CE".
    pub fn of(compiler: Compiler, pos: Position, op: RedOp, ty: CType) -> Result<Case, String> {
        let opts = compiler.options_for_case(&ReductionCase::new(
            pos.levels(),
            pos.same_loop(),
            op,
            ty,
        ))?;
        let label = personality_label(compiler, pos, op, ty);
        Ok(Case::new(label, opts, pos, op, ty))
    }

    /// `cfg` at this case's geometry.
    pub fn config(&self, cfg: &SuiteConfig) -> SuiteConfig {
        SuiteConfig {
            dims: self.dims.unwrap_or(cfg.dims),
            ..*cfg
        }
    }

    fn extents(&self, cfg: &SuiteConfig) -> Extents {
        self.extents.unwrap_or_else(|| extents(self.pos, cfg.red_n))
    }

    /// Build the case's session: compiled under its options at its
    /// geometry, on a device set to `cfg`'s execution knobs, with the
    /// loop extents and the deterministic input bound — everything but
    /// `run()`. Checker rails and the profiler apply to subsequent
    /// launches, so callers switch theirs on the runner they get back.
    pub fn session(&self, cfg: &SuiteConfig) -> Result<AccRunner, AccError> {
        let cfg = &self.config(cfg);
        let ext = self.extents(cfg);
        let src = case_source(self.pos, self.op, self.ty);
        let data = case_data(self.pos, self.op, self.ty, ext);
        let mut r = AccRunner::with_options(&src, self.opts.clone(), cfg.dims, Device::default())?;
        r.set_host_threads(cfg.host_threads);
        r.set_exec_tier(cfg.exec_tier);
        bind_dims(self.pos, ext, |n, v| r.bind_int(n, v))?;
        r.bind_array("input", data.input)?;
        if let Some(n) = data.out_len {
            r.bind_array("out", HostBuffer::new(self.ty, n))?;
        }
        Ok(r)
    }
}

/// A launch that asked for `auto` but ran on the interpreter means codegen
/// emitted a kernel the typed tier declines — correct, but 3–24× slower to
/// simulate. Every harness over [`Case`]s reports that as a failure, so the
/// sweeps over the Table 2 and strategy grids guard codegen against it.
pub fn no_declines(dev: &Device) -> Result<(), String> {
    match dev.tier_declines() {
        0 => Ok(()),
        n => {
            let why: Vec<String> = dev
                .tier_decline_reasons()
                .into_iter()
                .map(|(reason, k)| format!("{k} × {reason}"))
                .collect();
            Err(format!(
                "typed tier declined {n} launch(es) ({}); they ran on the interpreter",
                why.join(", ")
            ))
        }
    }
}

/// Hold a finished session's results against the CPU reference: the first
/// mismatch, if any.
fn verify(r: &AccRunner, ty: CType, expected: &Expected) -> Result<(), String> {
    if let Some(want) = expected.scalar {
        if let Ok(got) = r.scalar("sum") {
            if !values_match(got, want, ty) {
                return Err(format!("sum: got {got}, want {want}"));
            }
        }
    }
    if let Some(want_out) = &expected.out {
        let out = r.array("out").expect("out bound by the session");
        for (i, want) in want_out.iter().enumerate() {
            let got = out.get(i);
            if !values_match(got, *want, ty) {
                return Err(format!("out[{i}]: got {got}, want {want}"));
            }
        }
    }
    Ok(())
}

impl Case {
    /// Run the case and verify it against `expected`: its cell.
    pub fn status(&self, cfg: &SuiteConfig, expected: &Expected) -> CaseStatus {
        let fail = |detail| CaseStatus::Fail { detail };
        let r = match self.session(cfg).and_then(|mut r| r.run().map(|_| r)) {
            Ok(r) => r,
            Err(AccError::Compile(d)) => return CaseStatus::CompileError { msg: d.to_string() },
            Err(e) => return fail(e.to_string()),
        };
        let dev = r.device();
        if let Err(detail) = no_declines(dev).and_then(|()| verify(&r, self.ty, expected)) {
            return fail(detail);
        }
        let stats = *dev.stats();
        let ms = dev.config().cycles_to_ms(stats.kernel_cycles);
        CaseStatus::Pass { ms, stats }
    }
}

/// Run `cases` in order, each verified against the CPU reference;
/// neighbours of one shape share theirs.
pub fn run_cells(cases: &[Case], cfg: &SuiteConfig) -> Vec<Cell> {
    let mut shared: Option<((Position, RedOp, CType, Extents), Expected)> = None;
    cases
        .iter()
        .map(|case| {
            let shape = (case.pos, case.op, case.ty, case.extents(cfg));
            let (_, expected) = match shared.take() {
                Some(s) if s.0 == shape => shared.insert(s),
                _ => shared.insert((shape, reference_at(case.pos, case.op, case.ty, shape.3))),
            };
            Cell {
                label: case.label.clone(),
                status: case.status(cfg, expected),
            }
        })
        .collect()
}

/// The paper's §6 strategy grid — every legal slab layout × worker
/// combining × tree × staging choice, the OpenUH default first — then the
/// blocking schedule and the atomic gang fold. The only spelling of it:
/// the certification sweep and the modelled table both iterate this.
pub fn strategy_grid() -> Vec<(String, CompilerOptions)> {
    use {CombineSpace::*, TreeStyle::*, VectorLayout::*, WorkerStrategy::*};
    let openuh = CompilerOptions::openuh;
    let mut grid = Vec::new();
    for (vector_layout, l) in [(RowWise, "rowwise"), (Transposed, "transposed")] {
        for (worker_strategy, w) in [(FirstRow, "firstrow"), (DuplicateRows, "duprows")] {
            for (tree, t) in [(Unrolled, "unrolled"), (Looped, "looped")] {
                for (combine_space, c) in [(Shared, "shared"), (Global, "global")] {
                    let opts = CompilerOptions {
                        vector_layout,
                        worker_strategy,
                        tree,
                        combine_space,
                        ..openuh()
                    };
                    grid.push((format!("grid {l}/{w}/{t}/{c}"), opts));
                }
            }
        }
    }
    let (mut blocking, mut atomic) = (openuh(), openuh());
    blocking.schedule = Schedule::Blocking;
    atomic.gang_strategy = GangStrategy::Atomic;
    grid.push(("blocking schedule".into(), blocking));
    grid.push(("atomic gang fallback".into(), atomic));
    grid
}

/// The grid at every Table-2 position, int `+`; position-major, so a
/// position's rows share one CPU reference under [`run_cells`].
pub fn strategy_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for pos in Position::all() {
        for (name, opts) in strategy_grid() {
            let label = format!("{}: {name}", pos.label());
            cases.push(Case::new(label, opts, pos, RedOp::Add, CType::Int));
        }
    }
    cases
}

/// Run one case under one compiler personality and verify it.
pub fn run_case(
    compiler: Compiler,
    pos: Position,
    op: RedOp,
    t: CType,
    cfg: &SuiteConfig,
    expected: &Expected,
) -> CaseResult {
    let status = match Case::of(compiler, pos, op, t) {
        Err(msg) => CaseStatus::CompileError { msg },
        Ok(case) => case.status(cfg, expected),
    };
    CaseResult {
        compiler,
        position: pos,
        op,
        dtype: t,
        status,
    }
}

/// Run the full suite: every position for the given operators and types
/// under every compiler. References are computed once per case.
pub fn run_suite(
    compilers: &[Compiler],
    ops: &[RedOp],
    dtypes: &[CType],
    cfg: &SuiteConfig,
) -> Vec<CaseResult> {
    let mut results = Vec::new();
    for pos in Position::all() {
        for &op in ops {
            for &t in dtypes {
                if !op.admits(t) {
                    continue;
                }
                let expected = reference(pos, op, t, cfg);
                for &c in compilers {
                    results.push(run_case(c, pos, op, t, cfg, &expected));
                }
            }
        }
    }
    results
}

/// Rendered profile exports for one testsuite case.
#[derive(Debug, Clone)]
pub struct ProfiledCase {
    /// Human-readable report (per-line / per-pc stall attribution).
    pub report: String,
    /// Stable machine-readable JSON.
    pub json: String,
    /// Chrome/Perfetto trace of the modelled timeline.
    pub trace: String,
}

/// Run one case with the profiler on and return the rendered session
/// profile. The result is not verified — use [`Case::status`] for that;
/// this exists so `acc-testsuite --profile` can show where the modelled
/// cycles of a Table 2 case go.
pub fn profile_case(case: &Case, cfg: &SuiteConfig) -> Result<ProfiledCase, String> {
    let mut r = case.session(cfg).map_err(|e| e.to_string())?;
    r.profile(true);
    r.run().map_err(|e| e.to_string())?;
    no_declines(r.device())?;
    Ok(ProfiledCase {
        report: r.profile_report(),
        json: r.profile_json(),
        trace: r.profile_chrome_trace(),
    })
}

/// Wall-clock timing of one case (see [`time_case`]).
#[derive(Debug, Clone, Copy)]
pub struct TimedCase {
    /// Wall-clock seconds spent inside `run()` (setup and input binding
    /// excluded).
    pub secs: f64,
    /// Simulated lane-instructions executed, for instruction-throughput
    /// rates.
    pub lane_insts: u64,
    /// What the typed tier decided while running it (all zero under the
    /// interpreter): `census.per_lane_share()` is the first thing to look
    /// up when a kernel is slow on the simulator.
    pub census: gpsim::ShapeCensus,
}

/// Wall-clock one case: build its session (untimed), then time `run()`
/// alone. `cfg.exec_tier` and `cfg.host_threads` select the simulator
/// configuration being measured, so `make-figures sim-throughput` can
/// race the execution tiers on identical workloads; `sanitize` runs the
/// same launches shadowed, for the sanitizer's cost relative to a plain
/// run.
pub fn time_case(
    case: &Case,
    cfg: &SuiteConfig,
    sanitize: SanitizerLevel,
) -> Result<TimedCase, String> {
    let mut r = case.session(cfg).map_err(|e| e.to_string())?;
    r.sanitize(sanitize);
    let start = std::time::Instant::now();
    r.run().map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    no_declines(r.device())?;
    Ok(TimedCase {
        secs,
        lane_insts: r.device().stats().totals.lane_insts,
        census: r.device().shape_census(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openuh_passes_every_position_quick() {
        let cfg = SuiteConfig::quick();
        for pos in Position::all() {
            let exp = reference(pos, RedOp::Add, CType::Int, &cfg);
            let r = run_case(Compiler::OpenUH, pos, RedOp::Add, CType::Int, &cfg, &exp);
            assert!(
                matches!(r.status, CaseStatus::Pass { .. }),
                "{}: {:?}",
                pos.label(),
                r.status
            );
        }
    }

    #[test]
    fn pgi_fails_worker_add_but_passes_worker_mul() {
        let cfg = SuiteConfig::quick();
        let exp = reference(Position::Worker, RedOp::Add, CType::Int, &cfg);
        let r = run_case(
            Compiler::PgiLike,
            Position::Worker,
            RedOp::Add,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::Fail { .. }),
            "{:?}",
            r.status
        );
        let exp = reference(Position::Worker, RedOp::Mul, CType::Int, &cfg);
        let r = run_case(
            Compiler::PgiLike,
            Position::Worker,
            RedOp::Mul,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::Pass { .. }),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn pgi_compile_errors_on_gwv_different_loops() {
        let cfg = SuiteConfig::quick();
        let exp = reference(Position::GangWorkerVector, RedOp::Add, CType::Int, &cfg);
        let r = run_case(
            Compiler::PgiLike,
            Position::GangWorkerVector,
            RedOp::Add,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::CompileError { .. }),
            "{:?}",
            r.status
        );
        // ... but not on the same-line variant.
        let exp = reference(Position::SameLineGwv, RedOp::Add, CType::Int, &cfg);
        let r = run_case(
            Compiler::PgiLike,
            Position::SameLineGwv,
            RedOp::Add,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::Pass { .. }),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn caps_fails_wv_add_but_passes_wv_mul() {
        let cfg = SuiteConfig::quick();
        let exp = reference(Position::WorkerVector, RedOp::Add, CType::Int, &cfg);
        let r = run_case(
            Compiler::CapsLike,
            Position::WorkerVector,
            RedOp::Add,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::Fail { .. }),
            "{:?}",
            r.status
        );
        let exp = reference(Position::WorkerVector, RedOp::Mul, CType::Int, &cfg);
        let r = run_case(
            Compiler::CapsLike,
            Position::WorkerVector,
            RedOp::Mul,
            CType::Int,
            &cfg,
            &exp,
        );
        assert!(
            matches!(r.status, CaseStatus::Pass { .. }),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn strategy_grid_is_the_sixteen_combinations_and_two_more() {
        let grid = strategy_grid();
        assert_eq!(grid.len(), 16 + 2);
        assert_eq!(grid[0].1, CompilerOptions::openuh());
        let distinct: std::collections::HashSet<_> = grid.iter().map(|(_, o)| o).collect();
        assert_eq!(distinct.len(), grid.len());
        assert_eq!(strategy_cases().len(), 7 * grid.len());
    }

    /// A case pinned to its own extents and geometry is bound, run and
    /// verified at them, whatever the sweep's are; cells of one shape
    /// share a reference and still get their own status.
    #[test]
    fn pinned_cases_run_at_their_own_shape() {
        let pinned = |label: &str, opts| Case {
            dims: Some(LaunchDims {
                gangs: 2,
                workers: 2,
                vector: 32,
            }),
            extents: Some((3, 5, 70)),
            ..Case::new(label, opts, Position::Vector, RedOp::Add, CType::Int)
        };
        let mut wrong = CompilerOptions::openuh();
        wrong.bugs.skip_init_fold = true;
        let cases = [
            pinned("right", CompilerOptions::openuh()),
            pinned("wrong", wrong),
        ];
        let cells = run_cells(&cases, &SuiteConfig::quick());
        assert_eq!(cells[0].label, "right");
        match &cells[0].status {
            CaseStatus::Pass { ms, stats } => {
                assert!(*ms > 0.0 && stats.launches == 1);
                // 3 x 5 x 70 ints in, 3 x 5 out.
                assert_eq!(stats.bytes_h2d, 4 * 3 * 5 * 70);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(cells[1].status, CaseStatus::Fail { .. }));
    }

    #[test]
    fn values_match_tolerances() {
        assert!(values_match(Value::I32(5), Value::I32(5), CType::Int));
        assert!(!values_match(Value::I32(5), Value::I32(6), CType::Int));
        assert!(values_match(
            Value::F32(100.001),
            Value::F32(100.0),
            CType::Float
        ));
        assert!(!values_match(
            Value::F64(100.1),
            Value::F64(100.0),
            CType::Double
        ));
    }
}

#[cfg(test)]
mod all_ops_tests {
    use super::*;

    /// The paper's §1 claim: "our algorithms cover all possible cases of
    /// reduction operations in three levels of parallelism, all reduction
    /// operator types and operand data types." Every legal (position, op,
    /// dtype) combination must pass under OpenUH.
    #[test]
    fn openuh_covers_every_operator_and_type() {
        let cfg = SuiteConfig::quick();
        let dtypes = [CType::Int, CType::Long, CType::Float, CType::Double];
        let mut ran = 0;
        for pos in Position::all() {
            for op in RedOp::ALL {
                for t in dtypes {
                    if !op.admits(t) {
                        continue;
                    }
                    let exp = reference(pos, op, t, &cfg);
                    let r = run_case(Compiler::OpenUH, pos, op, t, &cfg, &exp);
                    assert!(
                        matches!(r.status, CaseStatus::Pass { .. }),
                        "{} {} {:?}: {:?}",
                        pos.label(),
                        op,
                        t,
                        r.status
                    );
                    ran += 1;
                }
            }
        }
        // 7 positions x (4 ops x 4 types + 5 int-only ops x 2 types).
        assert_eq!(ran, 7 * (4 * 4 + 5 * 2));
    }
}
