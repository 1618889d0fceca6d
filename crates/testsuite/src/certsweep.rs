//! The certification sweep: translation validation (`redcert`) over the
//! paper's §6 strategy grid, next to the injected-miscompilation knobs of
//! the sanitize matrix.
//!
//! Two invariants, checked from opposite directions:
//!
//! * **Completeness over legal strategies** — every lowering the compiler
//!   may legitimately pick (row-wise vs transposed slabs × first-row vs
//!   duplicate-rows worker combining × unrolled vs looped trees × shared
//!   vs global staging, across all seven reduction positions) must come
//!   back `certified` for integer reductions and
//!   `certified-modulo-reassoc` for floating-point ones.
//! * **Soundness against miscompilations** — every injected codegen
//!   defect, pinned to a geometry where it is live, must come back
//!   `refuted` or `unknown`. A defect row that certifies is a *false
//!   Certified*: the one outcome a translation validator must never
//!   produce, and the sweep's hard failure.

use crate::cases::{case_source, Position};
use crate::run::{bind_dims, case_data, SuiteConfig};
use crate::sanitize::MatrixCase;
use accparse::ast::{CType, RedOp};
use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::{CertReport, CertVerdict, Device};
use uhacc_core::{
    CombineSpace, CompilerOptions, GangStrategy, LaunchDims, Schedule, TreeStyle, VectorLayout,
    WorkerStrategy,
};

/// What a sweep row must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertExpect {
    /// Integer folds: bit-exact, must be `certified`.
    Exact,
    /// Floating-point folds: `certified-modulo-reassoc` (value-equal up
    /// to reassociation of the parallel tree).
    Reassoc,
    /// Injected miscompilation: must NOT certify — `refuted` or
    /// `unknown` both count, `certified*` is the sweep failure.
    NotCertified,
}

impl CertExpect {
    pub fn label(&self) -> &'static str {
        match self {
            CertExpect::Exact => "certified",
            CertExpect::Reassoc => "modulo-reassoc",
            CertExpect::NotCertified => "not-certified",
        }
    }
}

/// One row of the sweep: a (strategy-or-defect, position, type)
/// combination with the worst verdict across its region reports.
#[derive(Debug, Clone)]
pub struct CertSweepRow {
    pub label: String,
    pub expect: CertExpect,
    /// Worst verdict label (`certified` / `certified-modulo-reassoc` /
    /// `unknown` / `refuted`), or `error` when the run produced no
    /// report at all.
    pub verdict: String,
    /// Did the case certify (exactly or modulo reassociation)?
    pub certified: bool,
    /// Unknown reason / refutation witness / run error, for context.
    pub sample: Option<String>,
}

impl CertSweepRow {
    pub fn ok(&self) -> bool {
        match self.expect {
            CertExpect::Exact => self.verdict == "certified",
            CertExpect::Reassoc => self.verdict == "certified-modulo-reassoc",
            CertExpect::NotCertified => !self.certified,
        }
    }

    /// The hard failure: an injected defect the validator certified.
    pub fn false_certified(&self) -> bool {
        self.expect == CertExpect::NotCertified && self.certified
    }
}

/// The sweep's launch geometry: 2 gangs × 2 workers × 64 lanes keeps the
/// gang/worker/vector combining paths all live while symbolic execution
/// of every thread stays instant; `red_n` is sized so every thread of
/// the window-sliding schedule gets at least one iteration.
pub fn cert_config() -> SuiteConfig {
    SuiteConfig {
        red_n: 24,
        dims: LaunchDims {
            gangs: 2,
            workers: 2,
            vector: 64,
        },
        host_threads: 0,
        exec_tier: gpsim::ExecTier::Auto,
    }
}

/// Run one testsuite case under the translation validator, returning its
/// region reports and the run error (if any; certification happens
/// pre-launch, so reports survive an aborted launch).
fn cert_case(
    opts: CompilerOptions,
    pos: Position,
    op: RedOp,
    t: CType,
    cfg: &SuiteConfig,
) -> (Vec<CertReport>, Option<String>) {
    let src = case_source(pos, op, t);
    let data = case_data(pos, op, t, cfg);
    let mut r = match AccRunner::with_options(&src, opts, cfg.dims, Device::default()) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e.to_string())),
    };
    r.set_host_threads(cfg.host_threads);
    r.set_exec_tier(cfg.exec_tier);
    r.certify(true);
    let bound = (|| -> Result<(), AccError> {
        bind_dims(pos, cfg, |n, v| r.bind_int(n, v))?;
        r.bind_array("input", data.input.clone())?;
        if let Some(n) = data.out_len {
            r.bind_array("out", HostBuffer::new(t, n))?;
        }
        r.run()
    })();
    (r.take_cert_reports(), bound.err().map(|e| e.to_string()))
}

fn tally(
    label: String,
    expect: CertExpect,
    outcome: (Vec<CertReport>, Option<String>),
) -> CertSweepRow {
    let (reports, err) = outcome;
    let mut worst = CertVerdict::Certified;
    for rep in &reports {
        worst = worst.merge(rep.verdict.clone());
    }
    let sample = reports
        .iter()
        .find_map(|r| match &r.verdict {
            CertVerdict::Unknown { reason } => Some(reason.clone()),
            CertVerdict::Refuted { witness } => Some(witness.clone()),
            _ => None,
        })
        .or(err.clone());
    let (verdict, certified) = if reports.is_empty() {
        ("error".to_string(), false)
    } else {
        (worst.label().to_string(), worst.is_certified())
    };
    CertSweepRow {
        label,
        expect,
        verdict,
        certified,
        sample,
    }
}

/// Run one row of the sanitize matrix under the translation validator,
/// at the geometry the matrix pins it to.
pub fn certify_case(case: &MatrixCase, expect: CertExpect, cfg: &SuiteConfig) -> CertSweepRow {
    let outcome = cert_case(
        case.opts.clone(),
        case.pos,
        RedOp::Add,
        case.ty,
        &case.config(cfg),
    );
    tally(case.label.clone(), expect, outcome)
}

fn with(f: impl FnOnce(&mut CompilerOptions)) -> CompilerOptions {
    let mut o = CompilerOptions::openuh();
    f(&mut o);
    o
}

/// Run the full certification sweep.
///
/// Block 1: the OpenUH strategy at every reduction position of Table 2,
/// integer and double. Block 2: the full legal strategy grid (layout ×
/// worker × tree × staging, plus the blocking schedule and the atomic
/// gang fallback). Block 3: the sanitize matrix's injected defects, each
/// pinned to the geometry where it is live — none may certify.
pub fn run_cert_sweep(cfg: &SuiteConfig) -> Vec<CertSweepRow> {
    let mut rows = Vec::new();

    for pos in Position::all() {
        rows.push(tally(
            format!("openuh {} int +", pos.label()),
            CertExpect::Exact,
            cert_case(CompilerOptions::openuh(), pos, RedOp::Add, CType::Int, cfg),
        ));
        rows.push(tally(
            format!("openuh {} double +", pos.label()),
            CertExpect::Reassoc,
            cert_case(
                CompilerOptions::openuh(),
                pos,
                RedOp::Add,
                CType::Double,
                cfg,
            ),
        ));
    }

    // The legal §6 grid, at the position that exercises every combining
    // path (gang, worker and vector reductions in one nest).
    for layout in [VectorLayout::RowWise, VectorLayout::Transposed] {
        for worker in [WorkerStrategy::FirstRow, WorkerStrategy::DuplicateRows] {
            for tree in [TreeStyle::Unrolled, TreeStyle::Looped] {
                for combine in [CombineSpace::Shared, CombineSpace::Global] {
                    let label = format!(
                        "grid {}/{}/{}/{} gwv int +",
                        match layout {
                            VectorLayout::RowWise => "rowwise",
                            VectorLayout::Transposed => "transposed",
                        },
                        match worker {
                            WorkerStrategy::FirstRow => "firstrow",
                            WorkerStrategy::DuplicateRows => "duprows",
                        },
                        match tree {
                            TreeStyle::Unrolled => "unrolled",
                            TreeStyle::Looped => "looped",
                        },
                        match combine {
                            CombineSpace::Shared => "shared",
                            CombineSpace::Global => "global",
                        }
                    );
                    rows.push(tally(
                        label,
                        CertExpect::Exact,
                        cert_case(
                            with(|o| {
                                o.vector_layout = layout;
                                o.worker_strategy = worker;
                                o.tree = tree;
                                o.combine_space = combine;
                            }),
                            Position::GangWorkerVector,
                            RedOp::Add,
                            CType::Int,
                            cfg,
                        ),
                    ));
                }
            }
        }
    }
    rows.push(tally(
        "blocking schedule gwv int +".into(),
        CertExpect::Exact,
        cert_case(
            with(|o| o.schedule = Schedule::Blocking),
            Position::GangWorkerVector,
            RedOp::Add,
            CType::Int,
            cfg,
        ),
    ));
    rows.push(tally(
        "atomic gang fallback int +".into(),
        CertExpect::Exact,
        cert_case(
            with(|o| o.gang_strategy = GangStrategy::Atomic),
            Position::Gang,
            RedOp::Add,
            CType::Int,
            cfg,
        ),
    ));

    // Injected defects — the sanitize matrix's knobs, pinned to the
    // geometries where each defect is live. None may certify.
    for case in MatrixCase::barrier_defects() {
        rows.push(certify_case(&case, CertExpect::NotCertified, cfg));
    }
    // The span bug is live only where the reduction *spans* levels
    // beyond the clause's own (the Fig. 9 shape): at worker-vector the
    // clause sits on the worker loop and auto-span must pull in the
    // vector level; honouring clause levels only loses the vector
    // contributions. (At plain worker position the defect is benign —
    // nothing spans — and the validator rightly still certifies.)
    rows.push(tally(
        "bug: clause levels only (vector span dropped)".into(),
        CertExpect::NotCertified,
        cert_case(
            with(|o| o.bugs.clause_levels_only = true),
            Position::WorkerVector,
            RedOp::Add,
            CType::Int,
            cfg,
        ),
    ));
    rows.push(tally(
        "bug(benign): clause levels only, nothing spans".into(),
        CertExpect::Exact,
        cert_case(
            with(|o| o.bugs.clause_levels_only = true),
            Position::Worker,
            RedOp::Add,
            CType::Int,
            cfg,
        ),
    ));
    rows.push(tally(
        "bug: initial value not folded (+, init 3)".into(),
        CertExpect::NotCertified,
        cert_case(
            with(|o| o.bugs.skip_init_fold = true),
            Position::SameLineGwv,
            RedOp::Add,
            CType::Int,
            cfg,
        ),
    ));
    // The same knob is benign for `*`: the testsuite's initial value for
    // products is 1 — the operator's identity — so skipping the fold
    // changes nothing and the validator rightly still certifies.
    rows.push(tally(
        "bug(benign): initial value not folded (*, init 1)".into(),
        CertExpect::Exact,
        cert_case(
            with(|o| o.bugs.skip_init_fold = true),
            Position::SameLineGwv,
            RedOp::Mul,
            CType::Int,
            cfg,
        ),
    ));

    rows
}

/// The whole sweep as `acc-testsuite --certify` runs it — at the small
/// certification geometry, under `cfg`'s execution knobs: the report and
/// whether every row passed.
pub fn sweep(cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_cert_sweep(&SuiteConfig {
        host_threads: cfg.host_threads,
        exec_tier: cfg.exec_tier,
        ..cert_config()
    });
    (format_cert_sweep(&rows), rows.iter().all(|r| r.ok()))
}

/// Format the sweep as an aligned text table.
pub fn format_cert_sweep(rows: &[CertSweepRow]) -> String {
    use std::fmt::Write;
    let wide = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<wide$}  {:>14}  {:>24}  verdict",
        "case", "expect", "got"
    );
    let _ = writeln!(out, "{}", "-".repeat(wide + 2 + 16 + 26 + 9));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<wide$}  {:>14}  {:>24}  {}",
            r.label,
            r.expect.label(),
            r.verdict,
            if r.ok() {
                "ok"
            } else if r.false_certified() {
                "FALSE CERTIFIED"
            } else {
                "FAIL"
            }
        );
        if let (false, Some(s)) = (r.ok(), &r.sample) {
            let _ = writeln!(out, "{:<wide$}    {}", "", s);
        }
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    let false_cert = rows.iter().filter(|r| r.false_certified()).count();
    let _ = writeln!(
        out,
        "{} case(s), {} unexpected outcome(s), {} false certification(s)",
        rows.len(),
        bad,
        false_cert
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openuh_gwv_certifies_and_stage_bug_does_not() {
        let cfg = cert_config();
        let pos_row = tally(
            "gwv".into(),
            CertExpect::Exact,
            cert_case(
                CompilerOptions::openuh(),
                Position::GangWorkerVector,
                RedOp::Add,
                CType::Int,
                &cfg,
            ),
        );
        assert!(pos_row.ok(), "{} — {:?}", pos_row.verdict, pos_row.sample);
        let bug_row = tally(
            "stage".into(),
            CertExpect::NotCertified,
            cert_case(
                with(|o| o.bugs.skip_stage_barrier = true),
                Position::Worker,
                RedOp::Add,
                CType::Int,
                &cfg,
            ),
        );
        assert!(bug_row.ok(), "{} — {:?}", bug_row.verdict, bug_row.sample);
        assert!(!bug_row.false_certified());
    }
}
