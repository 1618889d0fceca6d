//! The runtime runs the plan codegen states. A compiled region's launch
//! sequence is written once, in `CompiledRegion::steps`; the runtime,
//! redcert and kverify all walk it. This test holds the runtime to it:
//! for every Table-2 position under every compiler personality and both
//! gang strategies, the launches the profiler saw are the plan's
//! launches, in order, and a verified session checked each plan launch
//! exactly once.

use uhacc::baselines::Compiler;
use uhacc::core::{compile_region, GangStrategy};
use uhacc::driver::certify_dims;
use uhacc::parse::{CType, RedOp};
use uhacc::testsuite::{cert_config, Case, Position, SuiteConfig};

/// A launch as the profiler and kverify identify it: kernel name, grid
/// and block.
type LaunchId = (String, (u32, u32), (u32, u32));

#[test]
fn the_runtime_runs_exactly_the_plan_launches() {
    let cfg = SuiteConfig {
        dims: certify_dims(),
        ..cert_config()
    };
    let (mut checked, mut two_launch) = (0, 0);
    for comp in Compiler::all() {
        for pos in Position::all() {
            for gang in [GangStrategy::TwoKernel, GangStrategy::Atomic] {
                // A personality's reject rule is a combination that does
                // not compile.
                let Ok(mut case) = Case::of(comp, pos, RedOp::Add, CType::Int) else {
                    continue;
                };
                case.opts.gang_strategy = gang;
                let label = format!("{} / {gang:?}", case.label);
                let mut r = case
                    .session(&cfg)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let dims = r.resolve_dims(0).expect("case dims resolve");
                let Ok(plan) = compile_region(r.program(), 0, dims, &case.opts) else {
                    continue;
                };
                let want: Vec<LaunchId> = plan
                    .launches()
                    .map(|l| (l.kernel.name.clone(), l.config.grid, l.config.block))
                    .collect();

                r.profile(true);
                r.verify(true);
                r.run().unwrap_or_else(|e| panic!("{label}: {e}"));
                let ran: Vec<LaunchId> = r
                    .take_profile()
                    .launches
                    .into_iter()
                    .map(|l| (l.kernel, l.grid, l.block))
                    .collect();
                assert_eq!(ran, want, "{label}: profiled launches vs the plan");
                let verified: Vec<(String, (u32, u32))> = r
                    .take_verify_reports()
                    .into_iter()
                    .map(|v| (v.kernel, v.block))
                    .collect();
                let want_verified: Vec<_> = want.iter().map(|(k, _, b)| (k.clone(), *b)).collect();
                assert_eq!(
                    verified, want_verified,
                    "{label}: one kverify report per launch"
                );
                checked += 1;
                two_launch += (want.len() == 2) as u32;
            }
        }
    }
    // 3 personalities x 7 positions x 2 strategies, less PGI-like's
    // rejection of a gang-worker-vector `+` across loops under each
    // strategy.
    assert_eq!(checked, 40, "combinations that compile");
    assert!(
        two_launch > 0 && two_launch < checked,
        "both plan shapes (with and without a finalize pass) are covered"
    );
}
