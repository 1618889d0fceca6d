//! Property tests for observability determinism, mirroring the
//! testsuite's `cert_prop.rs`: on the virtual clock, every exported
//! observability byte — the unified Chrome trace and the rendered
//! metric exposition — is a pure function of the work performed, not of
//! how the simulator executed it. Host thread count, execution tier,
//! and the hazard sanitizer are execution-side knobs; toggling them
//! must reproduce byte-identical exports.
//!
//! This holds because (a) the virtual clock counts *reads*, and every
//! instrumentation point performs a fixed number of reads per code
//! path, and (b) the profiler's device timeline is already pinned
//! execution-invariant by `gpsim`'s differential tests.

use accrt::AccRunner;
use gpsim::{Device, SanitizerLevel};
use proptest::prelude::*;
use std::sync::Arc;
use uhacc::driver::{self, RunRequest};
use uhacc_core::{CompilerOptions, LaunchDims};
use uhobs::metrics::LATENCY_BUCKETS_US;

/// Two regions, so the trace carries two codegen/h2d/launch/d2h phase
/// groups and the compile histogram sees two observations.
const SRC: &str = "int N; int s; int lo;\nint a[N];\ns = 0;\nlo = 2147483647;\n\
                   #pragma acc parallel loop gang vector reduction(+:s) copyin(a)\n\
                   for (int i = 0; i < N; i++) { s += a[i]; }\n\
                   #pragma acc parallel loop gang vector reduction(min:lo) copyin(a)\n\
                   for (int i = 0; i < N; i++) { lo = min(lo, a[i]); }\n";

/// Execution-side knobs that must not influence the exported bytes.
#[derive(Debug, Clone, Copy)]
struct ExecKnobs {
    host_threads: u32,
    exec_tier: gpsim::ExecTier,
    sanitizer: bool,
}

/// Run the fixed sequence (one profiled execution of `SRC`) under fresh
/// virtual-clock observability state and return the two exports.
fn observe(knobs: ExecKnobs) -> (String, String) {
    let clock = Arc::new(uhobs::Clock::virtual_clock(uhobs::clock::VIRTUAL_STEP_US));
    let tracer = Arc::new(uhobs::Tracer::new(Arc::clone(&clock), "obs-prop"));
    let registry = uhobs::Registry::new();
    let compile_hist = registry.histogram(
        "compile_duration_us",
        "region codegen time (us)",
        &[],
        LATENCY_BUCKETS_US,
    );
    let req = RunRequest {
        opts: CompilerOptions::openuh(),
        dims: LaunchDims {
            gangs: 4,
            workers: 4,
            vector: 32,
        },
        n: 2048,
        host_threads: knobs.host_threads,
        exec_tier: knobs.exec_tier,
    };
    let mut r = AccRunner::with_options(SRC, req.opts.clone(), req.dims, Device::default())
        .expect("fixed program compiles");
    if knobs.sanitizer {
        r.sanitize(SanitizerLevel::Full);
    }
    let trace_id = tracer.mint_trace_id();
    tracer.set_track_name(trace_id, "fixed profiled run");
    driver::execute_traced(
        &mut r,
        &req,
        true,
        &tracer,
        trace_id,
        Some(compile_hist.clone()),
    )
    .expect("fixed program runs");
    assert_eq!(
        compile_hist.count(),
        2,
        "one codegen observation per region"
    );
    (tracer.to_chrome_trace(), registry.render())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Same work, any execution-side configuration → byte-identical
    /// trace and metrics exports.
    #[test]
    fn exports_are_execution_invariant(
        host_threads in prop::sample::select(vec![1u32, 4]),
        tier in prop::sample::select(vec![
            gpsim::ExecTier::Auto,
            gpsim::ExecTier::Interpret,
        ]),
        sanitizer in any::<bool>(),
    ) {
        let (base_trace, base_metrics) = observe(ExecKnobs {
            host_threads: 1,
            exec_tier: gpsim::ExecTier::Auto,
            sanitizer: false,
        });
        let (trace, metrics) = observe(ExecKnobs { host_threads, exec_tier: tier, sanitizer });
        prop_assert_eq!(&trace, &base_trace, "trace drifted under execution knobs");
        prop_assert_eq!(&metrics, &base_metrics, "metrics drifted under execution knobs");
        prop_assert!(base_trace.contains("\"name\":\"codegen.region1\""), "second region traced");
        prop_assert!(base_metrics.contains("compile_duration_us_count 2"), "histogram rendered");
    }
}
