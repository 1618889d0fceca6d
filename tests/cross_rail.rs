//! The cross-rail oracle, first cut (ROADMAP item 4(d)).
//!
//! Three checkers judge every generated kernel: redcert proves it computes
//! its source region, kverify proves its barriers and shared accesses
//! before launch, the sanitizer watches the run that actually happened.
//! Their verdicts are ordered — a certified kernel has no data race that
//! reaches an observable, and an error-level static finding is a real
//! hazard — so on the *same kernel at the same geometry*
//!
//! ```text
//! redcert Certified*  ⇒  kverify clean  ⇒  sanitizer clean
//! ```
//!
//! must hold, and each injected defect must be caught by at least the
//! rails DESIGN.md documents for it (§11/§12: the barrier defects raise
//! their dynamic hazard classes and a static finding; §18: none of them
//! certifies). An inversion is a checker bug, reported with the kernel's
//! disassembly. The rows are the sanitize matrix's own
//! (`MatrixCase`), run at the certification geometry so all three rails
//! see the same launch.

use uhacc::core::compile_region;
use uhacc::parse::ast::{CType, RedOp};
use uhacc::testsuite::{
    case_source, cert_config, certify_case, sanitize_case, CertExpect, CertSweepRow, MatrixCase,
    Position, SanitizeRow,
};

/// The kernels `case` compiles to at the geometry the rails ran it at.
fn disasm(case: &MatrixCase) -> String {
    let src = case_source(case.pos, RedOp::Add, case.ty);
    let dims = case.config(&cert_config()).dims;
    let compiled = uhacc::parse::compile(&src)
        .map_err(|d| d.render(&src))
        .and_then(|hir| compile_region(&hir, 0, dims, &case.opts).map_err(|d| d.render(&src)));
    match compiled {
        Ok(c) => std::iter::once(c.main.disasm())
            .chain(c.finalize.iter().map(|f| f.kernel.disasm()))
            .collect::<Vec<_>>()
            .join("\n"),
        Err(e) => format!("(does not compile: {e})"),
    }
}

/// Run all three rails over `case` and check the implication chain.
fn rails(case: &MatrixCase, expect: CertExpect) -> (CertSweepRow, SanitizeRow) {
    let cfg = cert_config();
    let cert = certify_case(case, expect, &cfg);
    let san = sanitize_case(case, &cfg);
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

/// The 14 clean Table-2 rows: every position, `int` (bit-exact) and
/// `double` (modulo reassociation). Certified, so — by the chain — clean
/// under both hazard rails; asserted directly too, so a rail that stops
/// running cannot pass vacuously.
#[test]
fn clean_table2_rows_pass_all_three_rails() {
    for pos in Position::all() {
        for (ty, expect) in [
            (CType::Int, CertExpect::Exact),
            (CType::Double, CertExpect::Reassoc),
        ] {
            let case = MatrixCase::openuh(pos, ty);
            let (cert, san) = rails(&case, expect);
            let what = format!("{} {ty:?}", case.label);
            assert!(cert.ok(), "{what}: {} ({:?})", cert.verdict, cert.sample);
            assert!(san.ok(), "{what}: {san:?}");
            assert_eq!(
                (san.verdict(), san.static_verdict()),
                ("clean", "clean"),
                "{what}"
            );
        }
    }
}

/// The matrix's barrier defects, each live at its pinned geometry: the
/// sanitizer raises the documented classes, kverify reports an error-level
/// finding, and redcert does not certify.
#[test]
fn barrier_defects_are_caught_by_every_documented_rail() {
    for case in MatrixCase::barrier_defects() {
        let (cert, san) = rails(&case, CertExpect::NotCertified);
        assert_eq!(san.verdict(), "detected", "{}: {san:?}", case.label);
        assert_eq!(san.static_verdict(), "detected", "{}: {san:?}", case.label);
        assert!(
            !cert.certified,
            "{}: FALSE CERTIFIED\n{}",
            case.label,
            disasm(&case)
        );
    }
}
