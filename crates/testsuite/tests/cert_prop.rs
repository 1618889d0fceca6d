//! Property tests for the translation validator (`redcert`): the
//! verdict is a *static* fact about (source region, compiled kernel,
//! launch geometry, problem size) — it must not depend on how the
//! simulator happens to execute the launch. Host thread count, execution
//! tier, and whether the profiler or the hazard sanitizer ride along are
//! all execution-side knobs; toggling them must reproduce byte-identical
//! certification reports.

use acc_testsuite::{case_source, cert_config, Position};
use accparse::ast::{CType, RedOp};
use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::{Device, SanitizerLevel};
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
    let cfg = cert_config();
    let src = case_source(pos, op, t);
    let data = acc_testsuite::run::case_data(pos, op, t, &cfg);
    let mut r =
        AccRunner::with_options(&src, CompilerOptions::openuh(), cfg.dims, Device::default())
            .expect("testsuite case compiles");
    r.set_host_threads(knobs.host_threads);
    r.set_exec_tier(knobs.exec_tier);
    if knobs.profiler {
        r.profile(true);
    }
    if knobs.sanitizer {
        r.sanitize(SanitizerLevel::Full);
    }
    r.certify(true);
    (|| -> Result<(), AccError> {
        acc_testsuite::run::bind_dims(pos, &cfg, |n, v| r.bind_int(n, v))?;
        r.bind_array("input", data.input.clone())?;
        if let Some(n) = data.out_len {
            r.bind_array("out", HostBuffer::new(t, n))?;
        }
        r.run()
    })()
    .expect("testsuite case runs");
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
