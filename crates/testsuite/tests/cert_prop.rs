//! Property tests for the translation validator (`redcert`): the
//! verdict is a *static* fact about (source region, compiled kernel,
//! launch geometry, problem size) — it must not depend on how the
//! simulator happens to execute the launch. Host thread count, execution
//! tier, and whether the profiler or the hazard sanitizer ride along are
//! all execution-side knobs; toggling them must reproduce byte-identical
//! certification reports.

use acc_testsuite::{cert_config, Case, Position, SuiteConfig};
use accparse::ast::{CType, RedOp};
use gpsim::SanitizerLevel;
use proptest::prelude::*;
use uhacc_core::CompilerOptions;

/// Execution-side knobs that must not influence the verdict.
#[derive(Debug, Clone, Copy)]
struct ExecKnobs {
    host_threads: u32,
    exec_tier: gpsim::ExecTier,
    profiler: bool,
    sanitizer: bool,
}

/// Run one testsuite case under the validator with the given execution
/// knobs and return the canonical JSON of its reports.
fn cert_json(pos: Position, op: RedOp, t: CType, knobs: ExecKnobs) -> String {
    let cfg = SuiteConfig {
        host_threads: knobs.host_threads,
        exec_tier: knobs.exec_tier,
        ..cert_config()
    };
    let mut r = Case::new("prop", CompilerOptions::openuh(), pos, op, t)
        .session(&cfg)
        .expect("testsuite case compiles");
    if knobs.profiler {
        r.profile(true);
    }
    if knobs.sanitizer {
        r.sanitize(SanitizerLevel::Full);
    }
    r.certify(true);
    r.run().expect("testsuite case runs");
    r.take_cert_reports()
        .iter()
        .map(|rep| rep.to_json())
        .collect::<Vec<_>>()
        .join(",")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Same case, any execution-side configuration → byte-identical
    /// certification reports.
    #[test]
    fn verdict_is_execution_invariant(
        pos in prop::sample::select(vec![
            Position::Vector,
            Position::WorkerVector,
            Position::GangWorkerVector,
            Position::SameLineGwv,
        ]),
        op in prop::sample::select(vec![RedOp::Add, RedOp::Mul, RedOp::Max]),
        t in prop::sample::select(vec![CType::Int, CType::Double]),
        host_threads in 0u32..4,
        tier in prop::sample::select(vec![
            gpsim::ExecTier::Auto,
            gpsim::ExecTier::Interpret,
        ]),
        profiler in any::<bool>(),
        sanitizer in any::<bool>(),
    ) {
        let baseline = cert_json(pos, op, t, ExecKnobs {
            host_threads: 0,
            exec_tier: gpsim::ExecTier::Auto,
            profiler: false,
            sanitizer: false,
        });
        let varied = cert_json(pos, op, t, ExecKnobs {
            host_threads,
            exec_tier: tier,
            profiler,
            sanitizer,
        });
        prop_assert_eq!(&varied, &baseline, "reports drifted under execution knobs");
        prop_assert!(!baseline.is_empty(), "case produced no report");
    }
}
