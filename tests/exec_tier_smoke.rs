//! Tier-1 smoke test of gpsim's two execution engines. The differential
//! suite that pins typed tier ≡ interpreter lives in `crates/gpsim`, which
//! the root package's `cargo test` does not run; this test keeps a broken
//! engine — or codegen that starts emitting kernels the typed tier
//! declines — from passing tier-1 unnoticed. One small case per Table 2
//! position plus Monte Carlo PI, under `auto` and `interpret`: equal
//! results, equal session statistics (modelled cycles included), and no
//! launch declined. It also pins that the engine a sweep asks for is the
//! engine it gets, that a sweep fails a row the typed tier declined, and
//! that the typed tier's closed-form memory spans fire at all.

use accparse::ast::{CType, RedOp};
use uhacc::prelude::*;
use uhacc::sim::{
    BinOp, ExecTier, KernelBuilder, LaunchConfig, SanitizerConfig, SanitizerLevel, SessionStats,
    ShapeCensus, SpecialReg, Ty,
};
use uhacc::testsuite::{
    cert_config, format_cert_sweep, format_matrix, Case, CertExpect, CertSweepRow, Position,
    SanitizeRow, SuiteConfig,
};

/// Everything a finished session leaves behind that a tier could change.
#[derive(Debug, PartialEq)]
struct Outcome {
    scalar: Option<Value>,
    out: Option<HostBuffer>,
    stats: SessionStats,
}

/// What a session left behind, the typed tier's declines and its census.
type Finished = (Outcome, u64, ShapeCensus);

fn finish(r: &AccRunner, scalar: &str) -> Finished {
    let outcome = Outcome {
        scalar: r.scalar(scalar).ok(),
        out: r.array("out").ok().cloned(),
        stats: *r.device().stats(),
    };
    let dev = r.device();
    (outcome, dev.tier_declines(), dev.shape_census())
}

fn run_position(pos: Position, t: CType, tier: ExecTier) -> Finished {
    let cfg = SuiteConfig {
        exec_tier: tier,
        ..SuiteConfig::quick()
    };
    let case = Case::new("smoke", CompilerOptions::openuh(), pos, RedOp::Add, t);
    let mut r = case.session(&cfg).unwrap();
    r.run().unwrap();
    finish(&r, "sum")
}

fn run_pi(tier: ExecTier) -> Finished {
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
    let finished = finish(&r, "m");
    let hits = uhacc::apps::pi::cpu_hits(&xs, &ys);
    assert_eq!(finished.0.scalar, Some(Value::I32(hits as i32)));
    finished
}

fn assert_engines_agree(what: &str, run: impl Fn(ExecTier) -> Finished) {
    let (auto, declines, _) = run(ExecTier::Auto);
    let (interp, ..) = run(ExecTier::Interpret);
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

/// The typed tier charges and moves a full warp's closed-form addresses
/// without listing its lanes (`ShapeCensus::spans`). Switched off, that
/// path would change no output and only cost time, so its firing is
/// pinned here: a Table-2 case and a small heat2d take spans under `auto`,
/// and their session statistics and results equal the interpreter's.
#[test]
fn closed_form_spans_fire_with_the_interpreters_statistics() {
    let (auto, _, census) = run_position(Position::GangWorkerVector, CType::Int, ExecTier::Auto);
    let (interp, ..) = run_position(Position::GangWorkerVector, CType::Int, ExecTier::Interpret);
    assert_eq!(auto, interp, "Table-2 case: the tiers disagree");
    assert!(census.spans > 0, "Table-2 case: no span taken: {census:?}");

    let heat = uhacc::apps::heat2d::HeatConfig {
        n: 32,
        tol: 0.0,
        max_iters: 3,
        ..Default::default()
    };
    let run = |tier| {
        let mut dev = Device::default();
        dev.set_exec_tier(tier);
        uhacc::apps::heat2d::run_heat_on(&heat, CompilerOptions::openuh(), dev).unwrap()
    };
    let (auto, interp) = (run(ExecTier::Auto), run(ExecTier::Interpret));
    assert_eq!(
        auto.sim.stats, interp.sim.stats,
        "heat2d: the tiers disagree"
    );
    assert_eq!(auto.grid, interp.grid, "heat2d: the tiers disagree");
    assert!(
        auto.sim.census.spans > 0,
        "heat2d: no span taken: {:?}",
        auto.sim.census
    );
}

/// `SuiteConfig::exec_tier` reaches the sessions the checker sweeps run:
/// under `interpret` the typed tier decides nothing (an all-zero census),
/// under `auto` it does — with the sanitizer on and with the validator
/// on. (The sanitizer matrix used to run on `auto` whatever was asked.)
#[test]
fn the_exec_tier_knob_reaches_sanitized_and_certified_sessions() {
    let case = Case::new(
        "knob",
        CompilerOptions::openuh(),
        Position::GangWorkerVector,
        RedOp::Add,
        CType::Int,
    );
    type Rail = fn(&mut AccRunner);
    let sanitize: Rail = |r| r.sanitize(SanitizerLevel::Full);
    let certify: Rail = |r| r.certify(true);
    for (rail, switch_on) in [("sanitize", sanitize), ("certify", certify)] {
        let census = |exec_tier| {
            let cfg = SuiteConfig {
                exec_tier,
                ..cert_config()
            };
            let mut r = case.session(&cfg).unwrap();
            switch_on(&mut r);
            r.run().unwrap();
            r.device().shape_census()
        };
        assert_eq!(
            census(ExecTier::Interpret),
            ShapeCensus::default(),
            "{rail}"
        );
        assert_ne!(census(ExecTier::Auto), ShapeCensus::default(), "{rail}");
    }
}

/// A launch the typed tier declines (here: a register written at two
/// types) still runs, on the interpreter, and every rail can be clean on
/// it — the sweeps fail its row all the same, and say why.
#[test]
fn a_declined_launch_fails_its_sweep_row() {
    let mut b = KernelBuilder::new("mixed_reuse");
    let tid = b.special(SpecialReg::TidX);
    let r = b.mov_imm(Value::I32(5));
    let f = b.cvt(Ty::F32, tid);
    b.bin_to(r, BinOp::Add, Ty::F32, f, Value::F32(0.5));
    let k = b.finish();
    let mut dev = Device::test_small();
    dev.set_sanitizer(SanitizerConfig::full());
    dev.launch(&k, LaunchConfig::d1(1, 32), &[]).unwrap();
    assert_eq!(dev.tier_declines(), 1);

    let san = SanitizeRow::harvest("declined", Vec::new(), &mut dev, None);
    assert_eq!((san.verdict(), san.static_verdict()), ("clean", "clean"));
    assert!(!san.ok());
    let text = format_matrix(&[san]);
    assert!(text.contains("FAIL"), "{text}");
    assert!(
        text.contains("typed tier declined 1 launch(es) (1 × a register written at two types)"),
        "{text}"
    );
    assert!(
        text.contains("1 case(s), 1 unexpected outcome(s)"),
        "{text}"
    );

    let cert = CertSweepRow::harvest("declined", CertExpect::NotCertified, Vec::new(), &dev, None);
    assert!(!cert.certified && !cert.ok() && !cert.false_certified());
    let text = format_cert_sweep(&[cert]);
    assert!(text.contains("  FAIL\n"), "{text}");
    assert!(
        text.contains("typed tier declined 1 launch(es) (1 × a register written at two types)"),
        "{text}"
    );
}
