//! The sanitizer detection matrix: every OpenUH reduction strategy of the
//! paper's §6 grid run hazard-free under `gpsim`'s sanitizer, next to
//! known-miscompiled variants that the sanitizer must flag with the right
//! hazard class — the simulator's answer to running the testsuite under
//! `compute-sanitizer`.
//!
//! A correctness suite ([`crate::run`]) can only say a result is *wrong*;
//! the sanitizer says *why*: a missing barrier is a racecheck hazard even
//! on runs where the deterministic scheduler happens to produce the right
//! answer. The matrix therefore pairs each injected codegen defect with
//! the hazard class that reveals it, and asserts the real strategies stay
//! silent.

use crate::cases::{case_source, Position};
use crate::run::{bind_dims, case_data, SuiteConfig};
use acc_baselines::Compiler;
use accparse::ast::{CType, RedOp};
use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::{
    verify_kernel, CmpOp, Device, HazardClass, HazardReport, KernelBuilder, LaunchConfig, MemRef,
    SanitizerConfig, SanitizerLevel, SpecialReg, Ty, Value, VerifyClass, VerifyConfig,
    VerifyReport,
};
use uhacc_core::{compile_region, CompilerOptions, LaunchDims, VectorLayout};

/// One row of the detection matrix: a (strategy, defect) combination with
/// per-class hazard counts from the *dynamic* sanitizer, the error counts
/// from the *static* verifier run as a pre-launch pass over the same
/// kernels, and the classes the row is expected to raise (empty = must be
/// clean under both).
#[derive(Debug, Clone)]
pub struct SanitizeRow {
    pub label: String,
    /// Hazard classes this row is *expected* to raise; empty means the
    /// row must be hazard-free.
    pub expect: Vec<HazardClass>,
    pub racecheck: u64,
    pub synccheck: u64,
    pub initcheck: u64,
    /// Static racecheck errors from [`gpsim::verify`].
    pub static_race: u64,
    /// Static synccheck errors.
    pub static_sync: u64,
    /// Static initcheck errors.
    pub static_init: u64,
    /// Static out-of-bounds shared accesses (no dynamic counterpart in
    /// the matrix; must stay zero everywhere).
    pub static_bounds: u64,
    /// Shared accesses the static analysis could not prove (warn-only).
    pub static_unproven: u64,
    /// First report (or run error) for context.
    pub sample: Option<String>,
}

impl SanitizeRow {
    /// Dynamic hazard count for one class.
    pub fn count(&self, c: HazardClass) -> u64 {
        match c {
            HazardClass::RaceCheck => self.racecheck,
            HazardClass::SyncCheck => self.synccheck,
            HazardClass::InitCheck => self.initcheck,
        }
    }

    /// Did the dynamic sanitizer report anything at all?
    pub fn any(&self) -> bool {
        self.racecheck + self.synccheck + self.initcheck > 0
    }

    /// Did the static verifier report any error-severity finding?
    pub fn static_any(&self) -> bool {
        self.static_race + self.static_sync + self.static_init + self.static_bounds > 0
    }

    /// Dynamic verdict: `clean` / `detected` when the outcome matches the
    /// expectation, `FALSE POSITIVE` / `MISSED` when it does not.
    pub fn verdict(&self) -> &'static str {
        if self.expect.is_empty() {
            if self.any() {
                "FALSE POSITIVE"
            } else {
                "clean"
            }
        } else if self.expect.iter().all(|&c| self.count(c) > 0) {
            "detected"
        } else {
            "MISSED"
        }
    }

    /// Static verdict, cross-validated against the same expectation: a
    /// clean row must produce zero static errors (no false positives); a
    /// defect row must be flagged. Class-exact agreement is not required
    /// — e.g. a missing stage barrier shows up dynamically as race+init
    /// but statically as a race alone — the static column must *subsume*
    /// the dynamic one at row granularity.
    pub fn static_verdict(&self) -> &'static str {
        if self.expect.is_empty() {
            if self.static_any() {
                "FALSE POSITIVE"
            } else {
                "clean"
            }
        } else if self.static_any() {
            "detected"
        } else {
            "MISSED"
        }
    }

    /// True when the row behaved as expected under both the dynamic
    /// sanitizer and the static verifier.
    pub fn ok(&self) -> bool {
        matches!(self.verdict(), "clean" | "detected")
            && matches!(self.static_verdict(), "clean" | "detected")
    }
}

/// Everything one matrix case produced: dynamic hazard reports, static
/// verification reports (one per launched kernel), and the run error (if
/// any) — reports are harvested before an abort propagates.
struct CaseOutcome {
    reports: Vec<HazardReport>,
    verify: Vec<VerifyReport>,
    err: Option<String>,
}

fn tally(label: String, expect: Vec<HazardClass>, outcome: CaseOutcome) -> SanitizeRow {
    let count = |c| {
        outcome
            .reports
            .iter()
            .filter(|r: &&HazardReport| r.class == c)
            .count() as u64
    };
    let vcount = |c: VerifyClass| {
        outcome
            .verify
            .iter()
            .flat_map(|r| &r.findings)
            .filter(|f| f.class == c && !f.warning)
            .count() as u64
    };
    let static_sample = outcome
        .verify
        .iter()
        .flat_map(|r| r.findings.iter().filter(|f| !f.warning))
        .next()
        .map(|f| f.to_string());
    SanitizeRow {
        label,
        expect,
        racecheck: count(HazardClass::RaceCheck),
        synccheck: count(HazardClass::SyncCheck),
        initcheck: count(HazardClass::InitCheck),
        static_race: vcount(VerifyClass::RaceCheck),
        static_sync: vcount(VerifyClass::SyncCheck),
        static_init: vcount(VerifyClass::InitCheck),
        static_bounds: vcount(VerifyClass::BoundsCheck),
        static_unproven: outcome.verify.iter().map(|r| r.unproven as u64).sum(),
        sample: outcome
            .reports
            .first()
            .map(|r| r.to_string())
            .or(static_sample)
            .or(outcome.err),
    }
}

/// A matrix row compiled from a testsuite `+` reduction: which position
/// and element type, under which options, at which geometry. The detection
/// matrix, the certification sweep ([`crate::certsweep`]) and the
/// cross-rail oracle (`tests/cross_rail.rs`) run these same rows, so the
/// three rails judge the same kernels.
#[derive(Debug, Clone)]
pub struct MatrixCase {
    pub label: String,
    /// Hazard classes the dynamic sanitizer must raise; empty = clean.
    pub expect: Vec<HazardClass>,
    pub opts: CompilerOptions,
    pub pos: Position,
    pub ty: CType,
    /// The geometry the defect is live at, when the sweep's own hides it.
    pub dims: Option<LaunchDims>,
}

impl MatrixCase {
    /// One position of the paper's §6 grid under the OpenUH option set.
    pub fn openuh(pos: Position, ty: CType) -> MatrixCase {
        MatrixCase {
            label: format!("openuh {}", pos.label()),
            expect: Vec::new(),
            opts: CompilerOptions::openuh(),
            pos,
            ty,
            dims: None,
        }
    }

    /// The four injected barrier defects. Each is a real miscompilation
    /// (wrong results under some geometry), pinned to a geometry where the
    /// defect is live.
    pub fn barrier_defects() -> Vec<MatrixCase> {
        use HazardClass::*;
        let defect = |label: &str, expect, pos, inject: fn(&mut CompilerOptions)| {
            let mut opts = CompilerOptions::openuh();
            inject(&mut opts);
            MatrixCase {
                label: label.into(),
                expect,
                opts,
                pos,
                ty: CType::Int,
                dims: None,
            }
        };
        vec![
            defect(
                "bug: missing stage barrier (worker)",
                vec![RaceCheck, InitCheck],
                Position::Worker,
                |o| o.bugs.skip_stage_barrier = true,
            ),
            defect(
                "bug: missing post-broadcast barrier (vector)",
                vec![RaceCheck],
                Position::Vector,
                |o| o.bugs.skip_bcast_barrier = true,
            ),
            MatrixCase {
                dims: Some(LaunchDims {
                    gangs: 4,
                    workers: 2,
                    vector: 80,
                }),
                ..defect(
                    "bug: warp-sync tail with vector % 32 != 0",
                    vec![RaceCheck],
                    Position::Vector,
                    |o| o.bugs.warp_tail_everywhere = true,
                )
            },
            defect(
                "bug: transposed slab reuse (no post-read barrier)",
                vec![RaceCheck],
                Position::Vector,
                |o| {
                    o.vector_layout = VectorLayout::Transposed;
                    o.bugs.skip_postread_barrier = true;
                },
            ),
        ]
    }

    /// `cfg` at this row's geometry.
    pub fn config(&self, cfg: &SuiteConfig) -> SuiteConfig {
        SuiteConfig {
            dims: self.dims.unwrap_or(cfg.dims),
            ..*cfg
        }
    }
}

/// Run one matrix case with the sanitizer at `Full` *and* the static
/// verifier enabled, and tally everything both reported.
pub fn sanitize_case(case: &MatrixCase, cfg: &SuiteConfig) -> SanitizeRow {
    let cfg = &case.config(cfg);
    let (pos, op, t) = (case.pos, RedOp::Add, case.ty);
    let src = case_source(pos, op, t);
    let data = case_data(pos, op, t, cfg);
    let row = |outcome| tally(case.label.clone(), case.expect.clone(), outcome);
    let mut r = match AccRunner::with_options(&src, case.opts.clone(), cfg.dims, Device::default())
    {
        Ok(r) => r,
        Err(e) => {
            return row(CaseOutcome {
                reports: Vec::new(),
                verify: Vec::new(),
                err: Some(e.to_string()),
            })
        }
    };
    r.set_host_threads(cfg.host_threads);
    r.sanitize(SanitizerLevel::Full);
    r.verify(true);
    let bound = (|| -> Result<(), AccError> {
        bind_dims(pos, cfg, |n, v| r.bind_int(n, v))?;
        r.bind_array("input", data.input.clone())?;
        if let Some(n) = data.out_len {
            r.bind_array("out", HostBuffer::new(t, n))?;
        }
        r.run()
    })();
    row(CaseOutcome {
        reports: r.take_hazards(),
        verify: r.take_verify_reports(),
        err: bound.err().map(|e| e.to_string()),
    })
}

/// A handcrafted kernel whose two warps reach *different* barrier sites:
/// the canonical synccheck hazard (it is not expressible through the
/// directive front end, which only emits structured barriers).
fn divergent_barrier_reports() -> CaseOutcome {
    let mut b = KernelBuilder::new("divergent_bar");
    let tid = b.special(SpecialReg::TidX);
    let c = b.cmp(CmpOp::Lt, Ty::I32, tid, Value::I32(32));
    let els = b.new_label();
    let end = b.new_label();
    b.bra_unless(c, els);
    b.bar();
    b.bra(end);
    b.place(els);
    b.bar();
    b.place(end);
    let k = b.finish();
    let mut dev = Device::test_small();
    dev.set_sanitizer(SanitizerConfig::full());
    dev.set_verifier(Some(VerifyConfig::default()));
    let run = dev.launch(&k, LaunchConfig::d1(1, 64), &[]);
    CaseOutcome {
        reports: dev.take_hazards(),
        verify: dev.take_verify_reports(),
        err: run.err().map(|e| e.to_string()),
    }
}

/// A handcrafted kernel that reads shared memory nothing ever wrote: the
/// canonical initcheck hazard.
fn uninit_shared_reports() -> CaseOutcome {
    let mut b = KernelBuilder::new("uninit_read");
    let slab = b.alloc_shared(256, 8);
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    let v = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), t64, 4));
    b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), v);
    let k = b.finish();
    let mut dev = Device::test_small();
    dev.set_sanitizer(SanitizerConfig::full());
    dev.set_verifier(Some(VerifyConfig::default()));
    let buf = dev.alloc_elems(Ty::I32, 32).expect("alloc");
    let run = dev.launch(&k, LaunchConfig::d1(1, 32), &[Value::U64(buf.addr)]);
    CaseOutcome {
        reports: dev.take_hazards(),
        verify: dev.take_verify_reports(),
        err: run.err().map(|e| e.to_string()),
    }
}

/// Run the full detection matrix.
///
/// The first block of rows is the paper's §6 strategy grid (every
/// reduction position under the OpenUH option set) — all must come back
/// hazard-free. The second block injects one codegen defect per row and
/// expects the named hazard class.
pub fn run_sanitize_matrix(cfg: &SuiteConfig) -> Vec<SanitizeRow> {
    use HazardClass::*;
    let mut rows = Vec::new();

    for pos in Position::all() {
        rows.push(sanitize_case(&MatrixCase::openuh(pos, CType::Int), cfg));
    }
    for case in MatrixCase::barrier_defects() {
        rows.push(sanitize_case(&case, cfg));
    }
    rows.push(tally(
        "bug: barrier under divergent control flow".into(),
        vec![SyncCheck],
        divergent_barrier_reports(),
    ));
    rows.push(tally(
        "bug: read of uninitialized shared memory".into(),
        vec![InitCheck],
        uninit_shared_reports(),
    ));
    rows
}

/// The detection matrix as `acc-testsuite --sanitize` and
/// `uhacc-cc --sanitize` run it: the report and whether every row got
/// its expected verdict.
pub fn sweep(cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_sanitize_matrix(cfg);
    (format_matrix(&rows), rows.iter().all(|r| r.ok()))
}

/// Format the matrix as an aligned text table: the dynamic sanitizer's
/// per-class counts and verdict next to the static verifier's.
pub fn format_matrix(rows: &[SanitizeRow]) -> String {
    use std::fmt::Write;
    let wide = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<wide$}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}  {:>14}  verdict",
        "case",
        "racecheck",
        "synccheck",
        "initcheck",
        "dynamic",
        "s.race",
        "s.sync",
        "s.init",
        "static",
        "(unproven)"
    );
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(wide + 2 + 3 * 11 + 10 + 3 * 8 + 10 + 16 + 9)
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<wide$}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}  {:>6}  {:>6}  {:>8}  {:>14}  {}",
            r.label,
            r.racecheck,
            r.synccheck,
            r.initcheck,
            r.verdict(),
            r.static_race,
            r.static_sync,
            r.static_init,
            r.static_verdict(),
            r.static_unproven,
            if r.ok() { "ok" } else { "FAIL" }
        );
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    let _ = writeln!(out, "{} case(s), {} unexpected outcome(s)", rows.len(), bad);
    out
}

/// One row of the *static-only* verification sweep: a (compiler,
/// position, type) combination compiled — never simulated — with the
/// verifier's totals over the main and finalize kernels.
#[derive(Debug, Clone)]
pub struct VerifySweepRow {
    pub label: String,
    pub kernels: u64,
    pub errors: u64,
    pub warnings: u64,
    pub unproven: u64,
    /// First error-level finding, for context.
    pub sample: Option<String>,
}

impl VerifySweepRow {
    /// A sweep row passes when no error-level finding was produced.
    /// Warnings (unproven accesses, bank conflicts) are informational:
    /// the PGI-like looped tree carries its stride in a register the
    /// affine analysis cannot bound, so its accesses stay unproven and
    /// the dynamic sanitizer remains the backstop there.
    pub fn ok(&self) -> bool {
        self.errors == 0
    }
}

/// Statically verify every generated kernel of the §6 grid — all seven
/// reduction positions under each compiler personality, at two element
/// widths — without running any of them. This is the `--verify` mode of
/// `acc-testsuite`: a fast pre-launch pass suitable for CI.
pub fn run_verify_sweep(cfg: &SuiteConfig) -> Vec<VerifySweepRow> {
    let vc = VerifyConfig::default();
    let mut rows = Vec::new();
    for comp in Compiler::all() {
        for pos in Position::all() {
            for t in [CType::Int, CType::Double] {
                let label = format!(
                    "{} {} {}",
                    comp.name(),
                    pos.label(),
                    crate::cases::ctype_name(t)
                );
                let src = case_source(pos, RedOp::Add, t);
                let hir = match accparse::compile(&src) {
                    Ok(h) => h,
                    Err(d) => {
                        rows.push(VerifySweepRow {
                            label,
                            kernels: 0,
                            errors: 1,
                            warnings: 0,
                            unproven: 0,
                            sample: Some(format!("parse error: {}", d.message)),
                        });
                        continue;
                    }
                };
                let c = match compile_region(&hir, 0, cfg.dims, &comp.base_options()) {
                    Ok(c) => c,
                    Err(d) => {
                        rows.push(VerifySweepRow {
                            label,
                            kernels: 0,
                            errors: 1,
                            warnings: 0,
                            unproven: 0,
                            sample: Some(format!("compile error: {}", d.message)),
                        });
                        continue;
                    }
                };
                let launch = LaunchConfig::gwv(cfg.dims.gangs, cfg.dims.workers, cfg.dims.vector);
                let mut reports = vec![verify_kernel(&c.main, launch, &vc)];
                for f in &c.finalize {
                    reports.push(verify_kernel(
                        &f.kernel,
                        LaunchConfig::d1(1, f.threads),
                        &vc,
                    ));
                }
                let errors: u64 = reports.iter().map(|r| r.errors()).sum();
                let warnings: u64 = reports
                    .iter()
                    .map(|r| r.findings.len() as u64 - r.errors())
                    .sum();
                rows.push(VerifySweepRow {
                    label,
                    kernels: reports.len() as u64,
                    errors,
                    warnings,
                    unproven: reports.iter().map(|r| r.unproven as u64).sum(),
                    sample: reports
                        .iter()
                        .flat_map(|r| r.findings.iter().filter(|f| !f.warning))
                        .next()
                        .map(|f| f.to_string()),
                });
            }
        }
    }
    rows
}

/// The static sweep as `acc-testsuite --verify` runs it: the report and
/// whether every row passed.
pub fn verify_sweep(cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_verify_sweep(cfg);
    (format_verify_sweep(&rows), rows.iter().all(|r| r.ok()))
}

/// Format the sweep as an aligned text table.
pub fn format_verify_sweep(rows: &[VerifySweepRow]) -> String {
    use std::fmt::Write;
    let wide = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<wide$}  {:>7}  {:>6}  {:>8}  {:>8}  verdict",
        "case", "kernels", "errors", "warnings", "unproven"
    );
    let _ = writeln!(out, "{}", "-".repeat(wide + 2 + 9 + 8 + 2 * 10 + 9));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<wide$}  {:>7}  {:>6}  {:>8}  {:>8}  {}",
            r.label,
            r.kernels,
            r.errors,
            r.warnings,
            r.unproven,
            if r.ok() { "ok" } else { "FAIL" }
        );
        if let (false, Some(s)) = (r.ok(), &r.sample) {
            let _ = writeln!(out, "{:<wide$}    {}", "", s);
        }
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    let _ = writeln!(out, "{} case(s), {} with static errors", rows.len(), bad);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handcrafted_sync_and_init_hazards_fire() {
        let sync = tally(
            "s".into(),
            vec![HazardClass::SyncCheck],
            divergent_barrier_reports(),
        );
        assert_eq!(sync.verdict(), "detected", "{:?}", sync.sample);
        // The static verifier sees the same divergent barrier without
        // running a cycle.
        assert!(sync.static_sync > 0, "{:?}", sync.sample);
        assert_eq!(sync.static_verdict(), "detected");
        let init = tally(
            "i".into(),
            vec![HazardClass::InitCheck],
            uninit_shared_reports(),
        );
        assert_eq!(init.verdict(), "detected", "{:?}", init.sample);
        assert_eq!(init.synccheck, 0);
        assert!(init.static_init > 0, "{:?}", init.sample);
        assert!(init.ok());
    }

    #[test]
    fn openuh_vector_case_is_clean_under_full_sanitizer() {
        let cfg = SuiteConfig::quick();
        let row = sanitize_case(&MatrixCase::openuh(Position::Vector, CType::Int), &cfg);
        assert_eq!(row.verdict(), "clean", "{:?}", row.sample);
        // Static column: no false positives, and the OpenUH unrolled tree
        // is fully provable by the affine analysis.
        assert_eq!(row.static_verdict(), "clean", "{:?}", row.sample);
        assert_eq!(row.static_unproven, 0, "{:?}", row.sample);
    }

    /// The barrier knobs named by the paper's Fig. 7/8 discussion must
    /// each be caught *statically* as a race, on every geometry the
    /// matrix pins them to.
    #[test]
    fn named_barrier_knobs_are_statically_caught() {
        let cfg = SuiteConfig::quick();
        for case in MatrixCase::barrier_defects() {
            let row = sanitize_case(&case, &cfg);
            assert!(row.static_race > 0, "{}: {:?}", row.label, row.sample);
        }
    }
}
