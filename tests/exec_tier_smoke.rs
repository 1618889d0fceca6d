//! Tier-1 smoke test of gpsim's two execution engines. The differential
//! suite that pins typed tier ≡ interpreter lives in `crates/gpsim`, which
//! the root package's `cargo test` does not run; this test keeps a broken
//! engine — or codegen that starts emitting kernels the typed tier
//! declines — from passing tier-1 unnoticed. One small case per Table 2
//! position plus Monte Carlo PI, under `auto` and `interpret`: equal
//! results, equal session statistics (modelled cycles included), and no
//! launch declined.

use accparse::ast::{CType, RedOp};
use uhacc::prelude::*;
use uhacc::sim::{ExecTier, SessionStats};
use uhacc::testsuite::{bind_dims, case_data, case_source, Position, SuiteConfig};

/// Everything a finished session leaves behind that a tier could change.
#[derive(Debug, PartialEq)]
struct Outcome {
    scalar: Option<Value>,
    out: Option<HostBuffer>,
    stats: SessionStats,
}

fn finish(r: &AccRunner, scalar: &str) -> (Outcome, u64) {
    let outcome = Outcome {
        scalar: r.scalar(scalar).ok(),
        out: r.array("out").ok().cloned(),
        stats: *r.device().stats(),
    };
    (outcome, r.device().tier_declines())
}

fn run_position(pos: Position, t: CType, tier: ExecTier) -> (Outcome, u64) {
    let cfg = SuiteConfig::quick();
    let data = case_data(pos, RedOp::Add, t, &cfg);
    let mut r = AccRunner::with_options(
        &case_source(pos, RedOp::Add, t),
        CompilerOptions::openuh(),
        cfg.dims,
        Device::default(),
    )
    .unwrap();
    r.set_exec_tier(tier);
    bind_dims(pos, &cfg, |n, v| r.bind_int(n, v)).unwrap();
    r.bind_array("input", data.input).unwrap();
    if let Some(n) = data.out_len {
        r.bind_array("out", HostBuffer::new(t, n)).unwrap();
    }
    r.run().unwrap();
    finish(&r, "sum")
}

fn run_pi(tier: ExecTier) -> (Outcome, u64) {
    let cfg = uhacc::apps::PiConfig {
        samples: 1 << 12,
        ..Default::default()
    };
    let (xs, ys) = uhacc::apps::pi::generate_points(&cfg);
    let (_, src) = uhacc::apps::all_sources()
        .into_iter()
        .find(|(name, _)| *name == "pi")
        .unwrap();
    let dims = LaunchDims {
        gangs: 8,
        workers: 1,
        vector: 64,
    };
    let mut r =
        AccRunner::with_options(src, CompilerOptions::openuh(), dims, Device::default()).unwrap();
    r.set_exec_tier(tier);
    r.bind_int("n", cfg.samples as i64).unwrap();
    r.bind_array("x", HostBuffer::from_f64(&xs)).unwrap();
    r.bind_array("y", HostBuffer::from_f64(&ys)).unwrap();
    r.run().unwrap();
    let (outcome, declines) = finish(&r, "m");
    let hits = uhacc::apps::pi::cpu_hits(&xs, &ys);
    assert_eq!(outcome.scalar, Some(Value::I32(hits as i32)));
    (outcome, declines)
}

fn assert_engines_agree(what: &str, run: impl Fn(ExecTier) -> (Outcome, u64)) {
    let (auto, declines) = run(ExecTier::Auto);
    let (interp, _) = run(ExecTier::Interpret);
    assert_eq!(auto, interp, "{what}: typed tier and interpreter disagree");
    assert!(auto.stats.launches > 0, "{what}: nothing launched");
    assert_eq!(
        declines, 0,
        "{what}: the typed tier declined a codegen-emitted kernel"
    );
}

#[test]
fn table2_positions_agree_across_engines_without_declines() {
    for pos in Position::all() {
        for t in [CType::Int, CType::Double] {
            assert_engines_agree(&format!("{} {t:?}", pos.label()), |tier| {
                run_position(pos, t, tier)
            });
        }
    }
}

#[test]
fn pi_agrees_across_engines_without_declines() {
    assert_engines_agree("pi", run_pi);
}
