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

use crate::cases::Position;
use crate::report::{format_sweep, SweepRow};
use crate::run::{no_declines, strategy_grid, Case, SuiteConfig};
use crate::sanitize::barrier_defects;
use accparse::ast::{CType, RedOp};
use gpsim::{CertReport, CertVerdict, Device};
use uhacc_core::{CompilerOptions, GangStrategy, LaunchDims};

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
    /// Set when the typed tier declined a launch of the row (see
    /// [`no_declines`]): the row fails whatever the validator said.
    pub declined: Option<String>,
    /// The decline, else the unknown reason / refutation witness / run
    /// error, for context.
    pub sample: Option<String>,
}

impl CertSweepRow {
    pub fn ok(&self) -> bool {
        self.declined.is_none()
            && match self.expect {
                CertExpect::Exact => self.verdict == "certified",
                CertExpect::Reassoc => self.verdict == "certified-modulo-reassoc",
                CertExpect::NotCertified => !self.certified,
            }
    }

    /// The hard failure: an injected defect the validator certified.
    pub fn false_certified(&self) -> bool {
        self.expect == CertExpect::NotCertified && self.certified
    }

    /// Tally the region reports a session's validator produced
    /// ([`accrt::AccRunner::take_cert_reports`]) on the device `dev` it ran;
    /// `err` is the run error, if any (certification happens pre-launch,
    /// so reports survive an aborted launch).
    pub fn harvest(
        label: &str,
        expect: CertExpect,
        reports: Vec<CertReport>,
        dev: &Device,
        err: Option<String>,
    ) -> CertSweepRow {
        let mut worst = CertVerdict::Certified;
        for rep in &reports {
            worst = worst.merge(rep.verdict.clone());
        }
        let (verdict, certified) = if reports.is_empty() {
            ("error".to_string(), false)
        } else {
            (worst.label().to_string(), worst.is_certified())
        };
        let declined = no_declines(dev).err();
        CertSweepRow {
            label: label.into(),
            expect,
            verdict,
            certified,
            sample: declined
                .clone()
                .or(reports.iter().find_map(|r| match &r.verdict {
                    CertVerdict::Unknown { reason } => Some(reason.clone()),
                    CertVerdict::Refuted { witness } => Some(witness.clone()),
                    _ => None,
                }))
                .or(err),
            declined,
        }
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

/// Run one case under the translation validator, at the geometry the
/// case pins (if any).
pub fn certify_case(case: &Case, expect: CertExpect, cfg: &SuiteConfig) -> CertSweepRow {
    let mut r = match case.session(cfg) {
        Ok(r) => r,
        Err(e) => {
            // Nothing ran: no reports, and an idle device.
            let idle = &Device::test_small();
            return CertSweepRow::harvest(
                &case.label,
                expect,
                Vec::new(),
                idle,
                Some(e.to_string()),
            );
        }
    };
    r.certify(true);
    let err = r.run().err().map(|e| e.to_string());
    CertSweepRow::harvest(&case.label, expect, r.take_cert_reports(), r.device(), err)
}

fn with(f: impl FnOnce(&mut CompilerOptions)) -> CompilerOptions {
    let mut o = CompilerOptions::openuh();
    f(&mut o);
    o
}

/// The sweep's cases, each with the verdict it must come back as.
///
/// Block 1: the OpenUH strategy at every reduction position of Table 2,
/// integer and double. Block 2: the full legal strategy grid (layout ×
/// worker × tree × staging, plus the blocking schedule and the atomic
/// gang fallback). Block 3: the sanitize matrix's injected defects, each
/// pinned to the geometry where it is live — none may certify.
pub fn cert_cases() -> Vec<(Case, CertExpect)> {
    use CertExpect::*;
    let int = |label: &str, opts, pos, op| Case::new(label, opts, pos, op, CType::Int);
    let mut cases = Vec::new();

    for pos in Position::all() {
        for (ty, name, expect) in [
            (CType::Int, "int", Exact),
            (CType::Double, "double", Reassoc),
        ] {
            let label = format!("openuh {} {name} +", pos.label());
            let opts = CompilerOptions::openuh();
            cases.push((Case::new(label, opts, pos, RedOp::Add, ty), expect));
        }
    }

    // The legal §6 grid, at the position that exercises every combining
    // path (gang, worker and vector reductions in one nest); the atomic
    // fold replaces only the gang combine, so it runs where that is all
    // there is.
    for (name, opts) in strategy_grid() {
        let (pos, at) = match opts.gang_strategy {
            GangStrategy::TwoKernel => (Position::GangWorkerVector, " gwv"),
            GangStrategy::Atomic => (Position::Gang, ""),
        };
        let label = format!("{name}{at} int +");
        cases.push((int(&label, opts, pos, RedOp::Add), Exact));
    }
    // Injected defects — the sanitize matrix's knobs, pinned to the
    // geometries where each defect is live. None may certify.
    cases.extend(
        barrier_defects()
            .into_iter()
            .map(|(c, _)| (c, NotCertified)),
    );
    // The span bug is live only where the reduction *spans* levels
    // beyond the clause's own (the Fig. 9 shape): at worker-vector the
    // clause sits on the worker loop and auto-span must pull in the
    // vector level; honouring clause levels only loses the vector
    // contributions. (At plain worker position the defect is benign —
    // nothing spans — and the validator rightly still certifies.)
    let span = with(|o| o.bugs.clause_levels_only = true);
    cases.extend([
        (
            int(
                "bug: clause levels only (vector span dropped)",
                span.clone(),
                Position::WorkerVector,
                RedOp::Add,
            ),
            NotCertified,
        ),
        (
            int(
                "bug(benign): clause levels only, nothing spans",
                span,
                Position::Worker,
                RedOp::Add,
            ),
            Exact,
        ),
    ]);
    // The initial-value knob is benign for `*`: the testsuite's initial
    // value for products is 1 — the operator's identity — so skipping
    // the fold changes nothing and the validator rightly still certifies.
    let init = with(|o| o.bugs.skip_init_fold = true);
    let same_line = Position::SameLineGwv;
    cases.extend([
        (
            int(
                "bug: initial value not folded (+, init 3)",
                init.clone(),
                same_line,
                RedOp::Add,
            ),
            NotCertified,
        ),
        (
            int(
                "bug(benign): initial value not folded (*, init 1)",
                init,
                same_line,
                RedOp::Mul,
            ),
            Exact,
        ),
    ]);
    cases
}

/// Run the full certification sweep.
pub fn run_cert_sweep(cfg: &SuiteConfig) -> Vec<CertSweepRow> {
    cert_cases()
        .iter()
        .map(|(case, expect)| certify_case(case, *expect, cfg))
        .collect()
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

/// The sweep as a table; a false Certified is named, not just failed.
pub fn format_cert_sweep(rows: &[CertSweepRow]) -> String {
    let false_cert = rows.iter().filter(|r| r.false_certified()).count();
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            label: r.label.clone(),
            cells: vec![
                r.expect.label().into(),
                r.verdict.clone(),
                if r.ok() {
                    "ok"
                } else if r.false_certified() {
                    "FALSE CERTIFIED"
                } else {
                    "FAIL"
                }
                .into(),
            ],
            failed: !r.ok(),
            detail: r.sample.clone(),
        })
        .collect();
    format_sweep(
        &["case", "expect", "got", "verdict"],
        &rows,
        &format!("unexpected outcome(s), {false_cert} false certification(s)"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openuh_gwv_certifies_and_stage_bug_does_not() {
        let cfg = cert_config();
        let cases = cert_cases();
        let row = |label: &str| {
            let (case, expect) = cases.iter().find(|(c, _)| c.label == label).unwrap();
            certify_case(case, *expect, &cfg)
        };
        let pos_row = row("openuh gang worker vector int +");
        assert!(pos_row.ok(), "{} — {:?}", pos_row.verdict, pos_row.sample);
        let bug_row = row("bug: missing stage barrier (worker)");
        assert_eq!(bug_row.expect, CertExpect::NotCertified);
        assert!(bug_row.ok(), "{} — {:?}", bug_row.verdict, bug_row.sample);
        assert!(!bug_row.false_certified());
    }
}
