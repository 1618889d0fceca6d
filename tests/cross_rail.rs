//! The cross-rail oracle (ROADMAP checker rails (d), (d′)).
//!
//! Three checkers judge every generated kernel: redcert proves it computes
//! its source region, kverify proves its barriers and shared accesses
//! before launch, the sanitizer watches the run that actually happened.
//! Their verdicts are ordered — a certified kernel has no data race that
//! reaches an observable, and an error-level static finding is a real
//! hazard — so on the *same launch*
//!
//! ```text
//! redcert Certified*  ⇒  kverify clean  ⇒  sanitizer clean
//! ```
//!
//! must hold, and each injected defect must be caught by at least the
//! rails DESIGN.md documents for it (§11/§12: the barrier defects raise
//! their dynamic hazard classes and a static finding; §18: none of them
//! certifies). An inversion is a checker bug, reported with the kernel's
//! disassembly. The cases are the certification sweep's own
//! (`cert_cases()`: the Table-2 rows, the §6 strategy grid, every injected
//! defect and its benign twin), each run once with all three rails on one
//! session, so the chain is judged on literally the same launch.

use uhacc::core::compile_region;
use uhacc::sim::SanitizerLevel;
use uhacc::testsuite::{
    barrier_defects, case_source, cert_cases, cert_config, Case, CertExpect, CertSweepRow,
    SanitizeRow,
};

/// The kernels `case` compiles to at the geometry the rails ran it at.
fn disasm(case: &Case) -> String {
    let src = case_source(case.pos, case.op, case.ty);
    let dims = case.config(&cert_config()).dims;
    let compiled = uhacc::parse::compile(&src)
        .map_err(|d| d.render(&src))
        .and_then(|hir| compile_region(&hir, 0, dims, &case.opts).map_err(|d| d.render(&src)));
    match compiled {
        Ok(c) => c
            .launches()
            .map(|l| l.kernel.disasm())
            .collect::<Vec<_>>()
            .join("\n"),
        Err(e) => format!("(does not compile: {e})"),
    }
}

/// Run `case` once under all three rails and check the implication chain.
/// The sanitizer row's expectation is "clean"; callers that expect a
/// defect read the counts.
fn rails(case: &Case, expect: CertExpect) -> (CertSweepRow, SanitizeRow) {
    let mut r = case
        .session(&cert_config())
        .unwrap_or_else(|e| panic!("{}: {e}", case.label));
    r.sanitize(SanitizerLevel::Full);
    r.verify(true);
    r.certify(true);
    let err = r.run().err().map(|e| e.to_string());
    let cert = CertSweepRow::harvest(
        &case.label,
        expect,
        r.take_cert_reports(),
        r.device(),
        err.clone(),
    );
    let san = SanitizeRow::harvest(&case.label, Vec::new(), r.device_mut(), err);
    let inversion = if cert.certified && san.static_any() {
        Some("redcert certified a kernel kverify refutes")
    } else if cert.certified && san.any() {
        Some("redcert certified a kernel the sanitizer caught racing")
    } else if !san.static_any() && san.static_unproven == 0 && san.any() {
        Some("kverify proved a kernel clean that the sanitizer caught racing")
    } else {
        None
    };
    if let Some(what) = inversion {
        panic!(
            "cross-rail inversion on `{}`: {what}\n  redcert: {} ({:?})\n  {san:?}\n{}",
            case.label,
            cert.verdict,
            cert.sample,
            disasm(case)
        );
    }
    (cert, san)
}

/// Every case the certification sweep generates — the 14 clean Table-2
/// rows, the 16-combo §6 grid, the blocking schedule, the atomic gang
/// fallback, the four barrier defects, the span and initial-value defects
/// and their benign twins. Each gets its expected redcert verdict, the
/// chain holds on each, and every certified case is — asserted directly,
/// so a rail that stops running cannot pass vacuously — clean under both
/// hazard rails.
#[test]
fn every_sweep_case_holds_the_implication_chain() {
    let cases = cert_cases();
    // A shrinking list must not pass vacuously.
    assert_eq!(cases.len(), 40);
    let mut certified = 0;
    for (case, expect) in &cases {
        let (cert, san) = rails(case, *expect);
        assert!(
            cert.ok(),
            "{}: {} ({:?})",
            case.label,
            cert.verdict,
            cert.sample
        );
        if cert.certified {
            certified += 1;
            assert!(san.ok(), "{}: {san:?}", case.label);
            assert_eq!(
                (san.verdict(), san.static_verdict()),
                ("clean", "clean"),
                "{}",
                case.label
            );
        }
    }
    assert_eq!(certified, 34, "14 Table-2 rows, 18 strategies, 2 benign");
}

/// The matrix's barrier defects, each live at its pinned geometry: the
/// sanitizer raises the documented classes, kverify reports an error-level
/// finding, and redcert does not certify.
#[test]
fn barrier_defects_are_caught_by_every_documented_rail() {
    for (case, classes) in barrier_defects() {
        let (cert, san) = rails(&case, CertExpect::NotCertified);
        for class in classes {
            assert!(san.count(class) > 0, "{}: {san:?}", case.label);
        }
        assert!(san.static_any(), "{}: {san:?}", case.label);
        assert!(
            !cert.certified,
            "{}: FALSE CERTIFIED\n{}",
            case.label,
            disasm(&case)
        );
    }
}
