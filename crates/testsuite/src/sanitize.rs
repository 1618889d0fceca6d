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

use crate::cases::{case_source, ctype_name, Position};
use crate::report::{format_sweep, verdict, SweepRow};
use crate::run::{no_declines, Case, SuiteConfig};
use acc_baselines::Compiler;
use accparse::ast::{CType, RedOp};
use gpsim::{
    verify_kernel, CmpOp, Device, HazardClass, KernelBuilder, LaunchConfig, MemRef,
    SanitizerConfig, SanitizerLevel, SpecialReg, Ty, Value, VerifyClass, VerifyConfig,
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
    /// Set when the typed tier declined a launch of the row (see
    /// [`no_declines`]): the row fails whatever the rails said.
    pub declined: Option<String>,
    /// The decline, else the first report (or run error), for context.
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
    /// sanitizer and the static verifier, on the engine it asked for.
    pub fn ok(&self) -> bool {
        self.declined.is_none()
            && matches!(self.verdict(), "clean" | "detected")
            && matches!(self.static_verdict(), "clean" | "detected")
    }

    /// Tally what the sanitizer and the static verifier left on `dev`
    /// after the row's launches; `err` is the run error, if any (reports
    /// are harvested before an abort propagates).
    pub fn harvest(
        label: &str,
        expect: Vec<HazardClass>,
        dev: &mut Device,
        err: Option<String>,
    ) -> SanitizeRow {
        let (reports, verify) = (dev.take_hazards(), dev.take_verify_reports());
        let count = |c| reports.iter().filter(|r| r.class == c).count() as u64;
        let errors = || {
            verify
                .iter()
                .flat_map(|r| &r.findings)
                .filter(|f| !f.warning)
        };
        let vcount = |c| errors().filter(|f| f.class == c).count() as u64;
        let declined = no_declines(dev).err();
        SanitizeRow {
            label: label.into(),
            expect,
            racecheck: count(HazardClass::RaceCheck),
            synccheck: count(HazardClass::SyncCheck),
            initcheck: count(HazardClass::InitCheck),
            static_race: vcount(VerifyClass::RaceCheck),
            static_sync: vcount(VerifyClass::SyncCheck),
            static_init: vcount(VerifyClass::InitCheck),
            static_bounds: vcount(VerifyClass::BoundsCheck),
            static_unproven: verify.iter().map(|r| r.unproven as u64).sum(),
            sample: declined
                .clone()
                .or(reports.first().map(|r| r.to_string()))
                .or(errors().next().map(|f| f.to_string()))
                .or(err),
            declined,
        }
    }
}

/// One position of the paper's §6 grid under the OpenUH option set.
fn openuh(pos: Position) -> Case {
    Case::new(
        format!("openuh {}", pos.label()),
        CompilerOptions::openuh(),
        pos,
        RedOp::Add,
        CType::Int,
    )
}

/// The four injected barrier defects with the hazard classes the dynamic
/// sanitizer must raise. Each is a real miscompilation (wrong results
/// under some geometry), pinned to a geometry where the defect is live.
/// The detection matrix, the certification sweep ([`crate::certsweep`])
/// and the cross-rail oracle (`tests/cross_rail.rs`) run these same
/// cases, so the three rails judge the same kernels.
pub fn barrier_defects() -> Vec<(Case, Vec<HazardClass>)> {
    use HazardClass::*;
    let defect = |label: &str, expect, pos, inject: fn(&mut CompilerOptions)| {
        let mut opts = CompilerOptions::openuh();
        inject(&mut opts);
        (Case::new(label, opts, pos, RedOp::Add, CType::Int), expect)
    };
    let (tail, tail_expect) = defect(
        "bug: warp-sync tail with vector % 32 != 0",
        vec![RaceCheck],
        Position::Vector,
        |o| o.bugs.warp_tail_everywhere = true,
    );
    let tail = Case {
        dims: Some(LaunchDims {
            gangs: 4,
            workers: 2,
            vector: 80,
        }),
        ..tail
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
        (tail, tail_expect),
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

/// Run one case with the sanitizer at `Full` *and* the static verifier
/// enabled, and tally everything both reported.
pub fn sanitize_case(case: &Case, expect: Vec<HazardClass>, cfg: &SuiteConfig) -> SanitizeRow {
    let mut r = match case.session(cfg) {
        Ok(r) => r,
        Err(e) => {
            // Nothing launched: an idle device holds no reports.
            let idle = &mut Device::test_small();
            return SanitizeRow::harvest(&case.label, expect, idle, Some(e.to_string()));
        }
    };
    r.sanitize(SanitizerLevel::Full);
    r.verify(true);
    let err = r.run().err().map(|e| e.to_string());
    SanitizeRow::harvest(&case.label, expect, r.device_mut(), err)
}

/// A fully shadowed, statically verified device for a handcrafted kernel.
fn checked_device() -> Device {
    let mut dev = Device::test_small();
    dev.set_sanitizer(SanitizerConfig::full());
    dev.set_verifier(true);
    dev
}

/// A handcrafted kernel whose two warps reach *different* barrier sites:
/// the canonical synccheck hazard (it is not expressible through the
/// directive front end, which only emits structured barriers).
fn divergent_barrier_row() -> SanitizeRow {
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
    let mut dev = checked_device();
    let run = dev.launch(&k, LaunchConfig::d1(1, 64), &[]);
    SanitizeRow::harvest(
        "bug: barrier under divergent control flow",
        vec![HazardClass::SyncCheck],
        &mut dev,
        run.err().map(|e| e.to_string()),
    )
}

/// A handcrafted kernel that reads shared memory nothing ever wrote: the
/// canonical initcheck hazard.
fn uninit_shared_row() -> SanitizeRow {
    let mut b = KernelBuilder::new("uninit_read");
    let slab = b.alloc_shared(256, 8);
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    let v = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(slab as u64), t64, 4));
    b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), v);
    let k = b.finish();
    let mut dev = checked_device();
    let buf = dev.alloc_elems(Ty::I32, 32).expect("alloc");
    let run = dev.launch(&k, LaunchConfig::d1(1, 32), &[Value::U64(buf.addr)]);
    SanitizeRow::harvest(
        "bug: read of uninitialized shared memory",
        vec![HazardClass::InitCheck],
        &mut dev,
        run.err().map(|e| e.to_string()),
    )
}

/// Run the full detection matrix.
///
/// The first block of rows is the paper's §6 strategy grid (every
/// reduction position under the OpenUH option set) — all must come back
/// hazard-free. The second block injects one codegen defect per row and
/// expects the named hazard class.
pub fn run_sanitize_matrix(cfg: &SuiteConfig) -> Vec<SanitizeRow> {
    let clean = Position::all().map(|pos| (openuh(pos), Vec::new()));
    let mut rows: Vec<SanitizeRow> = clean
        .into_iter()
        .chain(barrier_defects())
        .map(|(case, expect)| sanitize_case(&case, expect, cfg))
        .collect();
    rows.push(divergent_barrier_row());
    rows.push(uninit_shared_row());
    rows
}

/// The detection matrix as `acc-testsuite --sanitize` and
/// `uhacc-cc --sanitize` run it: the report and whether every row got
/// its expected verdict.
pub fn sweep(cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_sanitize_matrix(cfg);
    (format_matrix(&rows), rows.iter().all(|r| r.ok()))
}

/// The matrix as a table: the dynamic sanitizer's per-class counts and
/// verdict next to the static verifier's.
pub fn format_matrix(rows: &[SanitizeRow]) -> String {
    let head = [
        "case",
        "racecheck",
        "synccheck",
        "initcheck",
        "dynamic",
        "s.race",
        "s.sync",
        "s.init",
        "static",
        "(unproven)",
        "verdict",
    ];
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            label: r.label.clone(),
            cells: vec![
                r.racecheck.to_string(),
                r.synccheck.to_string(),
                r.initcheck.to_string(),
                r.verdict().into(),
                r.static_race.to_string(),
                r.static_sync.to_string(),
                r.static_init.to_string(),
                r.static_verdict().into(),
                r.static_unproven.to_string(),
                verdict(r.ok()),
            ],
            failed: !r.ok(),
            detail: r.sample.clone(),
        })
        .collect();
    format_sweep(&head, &rows, "unexpected outcome(s)")
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
                let label = format!("{} {} {}", comp.name(), pos.label(), ctype_name(t));
                let src = case_source(pos, RedOp::Add, t);
                let compiled = accparse::compile(&src)
                    .map_err(|d| format!("parse error: {}", d.message))
                    .and_then(|hir| {
                        compile_region(&hir, 0, cfg.dims, &comp.base_options())
                            .map_err(|d| format!("compile error: {}", d.message))
                    });
                let c = match compiled {
                    Ok(c) => c,
                    Err(e) => {
                        rows.push(VerifySweepRow {
                            label,
                            kernels: 0,
                            errors: 1,
                            warnings: 0,
                            unproven: 0,
                            sample: Some(e),
                        });
                        continue;
                    }
                };
                let reports: Vec<_> = c
                    .launches()
                    .map(|l| verify_kernel(l.kernel, l.config, &vc))
                    .collect();
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

/// The static sweep as a table.
pub fn format_verify_sweep(rows: &[VerifySweepRow]) -> String {
    let head = [
        "case", "kernels", "errors", "warnings", "unproven", "verdict",
    ];
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            label: r.label.clone(),
            cells: vec![
                r.kernels.to_string(),
                r.errors.to_string(),
                r.warnings.to_string(),
                r.unproven.to_string(),
                verdict(r.ok()),
            ],
            failed: !r.ok(),
            detail: r.sample.clone(),
        })
        .collect();
    format_sweep(&head, &rows, "with static errors")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handcrafted_sync_and_init_hazards_fire() {
        let sync = divergent_barrier_row();
        assert_eq!(sync.verdict(), "detected", "{:?}", sync.sample);
        // The static verifier sees the same divergent barrier without
        // running a cycle.
        assert!(sync.static_sync > 0, "{:?}", sync.sample);
        assert_eq!(sync.static_verdict(), "detected");
        let init = uninit_shared_row();
        assert_eq!(init.verdict(), "detected", "{:?}", init.sample);
        assert_eq!(init.synccheck, 0);
        assert!(init.static_init > 0, "{:?}", init.sample);
        assert!(init.ok());
    }

    #[test]
    fn openuh_vector_case_is_clean_under_full_sanitizer() {
        let cfg = SuiteConfig::quick();
        let row = sanitize_case(&openuh(Position::Vector), Vec::new(), &cfg);
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
        for (case, expect) in barrier_defects() {
            let row = sanitize_case(&case, expect, &cfg);
            assert!(row.static_race > 0, "{}: {:?}", row.label, row.sample);
        }
    }
}
