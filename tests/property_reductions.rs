//! Property-based testing of the reduction compiler: for random reduction
//! positions, operators, data types, launch geometries (including
//! non-power-of-two and ragged shapes) and loop sizes, the simulated GPU
//! result must match the sequential CPU reference.

// proptest's config idiom spells out `..default()` for forward compat.
#![allow(clippy::needless_update)]

use accparse::ast::{CType, RedOp};
use proptest::prelude::*;
use uhacc::baselines::CpuExec;
use uhacc::prelude::*;
use uhacc::testsuite::cases::{case_source, extents, gen_value, Position};

fn positions() -> impl Strategy<Value = Position> {
    prop_oneof![
        Just(Position::Gang),
        Just(Position::Worker),
        Just(Position::Vector),
        Just(Position::GangWorker),
        Just(Position::WorkerVector),
        Just(Position::GangWorkerVector),
        Just(Position::SameLineGwv),
    ]
}

fn ops() -> impl Strategy<Value = RedOp> {
    prop_oneof![
        Just(RedOp::Add),
        Just(RedOp::Mul),
        Just(RedOp::Max),
        Just(RedOp::Min),
        Just(RedOp::BitAnd),
        Just(RedOp::BitOr),
        Just(RedOp::BitXor),
        Just(RedOp::LogAnd),
        Just(RedOp::LogOr),
    ]
}

fn dtypes() -> impl Strategy<Value = CType> {
    prop_oneof![
        Just(CType::Int),
        Just(CType::Long),
        Just(CType::Float),
        Just(CType::Double),
    ]
}

fn dims() -> impl Strategy<Value = LaunchDims> {
    // Gangs 1..6, workers 1..8, vector 1..160 — deliberately includes
    // non-power-of-two and non-multiple-of-warp shapes (§3.3).
    (1u32..6, 1u32..8, prop_oneof![Just(1u32), 2u32..160])
        .prop_map(|(g, w, v)| LaunchDims {
            gangs: g,
            workers: w,
            vector: v,
        })
        .prop_filter("block fits device", |d| d.threads_per_block() <= 1024)
}

fn values_close(got: gpsim::Value, want: gpsim::Value, t: CType) -> bool {
    match t {
        CType::Int | CType::Long => got.as_i64() == want.as_i64(),
        CType::Float => {
            let (g, w) = (got.as_f64(), want.as_f64());
            (g - w).abs() <= 1e-2 * w.abs().max(1.0)
        }
        CType::Double => {
            let (g, w) = (got.as_f64(), want.as_f64());
            (g - w).abs() <= 1e-7 * w.abs().max(1.0)
        }
    }
}

fn check_case(pos: Position, op: RedOp, t: CType, d: LaunchDims, red_n: usize) {
    let src = case_source(pos, op, t);
    let (nk, nj, ni) = extents(pos, red_n);
    let n = nk * nj * ni;
    let mut input = HostBuffer::new(t, n);
    for i in 0..n {
        input.set(i, gen_value(op, t, i));
    }
    // Which auxiliary arrays the source declares.
    let (temp_len, out_len) = match pos {
        Position::Gang | Position::GangWorker => (Some(n), None),
        Position::Worker => (Some(n), Some(nk)),
        Position::Vector => (None, Some(nk * nj)),
        Position::WorkerVector => (None, Some(nk)),
        _ => (None, None),
    };

    let mut gpu = AccRunner::with_options(&src, CompilerOptions::openuh(), d, Device::default())
        .expect("compile");
    let mut cpu = CpuExec::new(&src).unwrap();
    for (name, v) in [("NK", nk), ("NJ", nj), ("NI", ni)] {
        if pos != Position::SameLineGwv {
            gpu.bind_int(name, v as i64).unwrap();
            cpu.bind_int(name, v as i64).unwrap();
        }
    }
    if pos == Position::SameLineGwv {
        gpu.bind_int("N", nk as i64).unwrap();
        cpu.bind_int("N", nk as i64).unwrap();
    }
    gpu.bind_array("input", input.clone()).unwrap();
    cpu.bind_array("input", input).unwrap();
    if let Some(len) = temp_len {
        cpu.bind_array("temp", HostBuffer::new(t, len)).unwrap();
    }
    if let Some(len) = out_len {
        gpu.bind_array("out", HostBuffer::new(t, len)).unwrap();
        cpu.bind_array("out", HostBuffer::new(t, len)).unwrap();
    }
    gpu.run().expect("gpu run");
    cpu.run().expect("cpu run");

    if let Ok(want) = cpu.scalar("sum") {
        let got = gpu.scalar("sum").unwrap();
        assert!(
            values_close(got, want, t),
            "{} {} {:?} dims {:?}: sum {got} vs {want}",
            pos.label(),
            op,
            t,
            d
        );
    }
    if let Some(len) = out_len {
        let got = gpu.array("out").unwrap();
        let want = cpu.array("out").unwrap();
        for i in 0..len {
            assert!(
                values_close(got.get(i), want.get(i), t),
                "{} {} {:?} dims {:?}: out[{i}] {} vs {}",
                pos.label(),
                op,
                t,
                d,
                got.get(i),
                want.get(i)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 40, .. ProptestConfig::default() })]

    /// The flagship property: GPU == CPU for random shapes.
    #[test]
    fn gpu_matches_cpu_for_random_reductions(
        pos in positions(),
        op in ops(),
        t in dtypes(),
        d in dims(),
        red_n in 1usize..600,
    ) {
        prop_assume!(op.admits(t));
        check_case(pos, op, t, d, red_n);
    }

    /// Sanitizer soundness on correct codegen: every OpenUH reduction,
    /// run under the full hazard sanitizer at a random geometry (including
    /// non-power-of-two and non-multiple-of-warp vector lengths), must
    /// produce zero reports — the barrier placement proof of §3.3, checked
    /// dynamically instead of by result comparison.
    #[test]
    fn openuh_reductions_are_hazard_free(
        pos in positions(),
        op in ops(),
        t in dtypes(),
        d in dims(),
        red_n in 1usize..400,
    ) {
        prop_assume!(op.admits(t));
        let src = case_source(pos, op, t);
        let (nk, nj, ni) = extents(pos, red_n);
        let n = nk * nj * ni;
        let mut input = HostBuffer::new(t, n);
        for i in 0..n {
            input.set(i, gen_value(op, t, i));
        }
        let mut r = AccRunner::with_options(&src, CompilerOptions::openuh(), d, Device::default())
            .expect("compile");
        r.sanitize(uhacc::sim::SanitizerLevel::Full);
        if pos == Position::SameLineGwv {
            r.bind_int("N", nk as i64).unwrap();
        } else {
            r.bind_int("NK", nk as i64).unwrap();
            r.bind_int("NJ", nj as i64).unwrap();
            r.bind_int("NI", ni as i64).unwrap();
        }
        r.bind_array("input", input).unwrap();
        let out_len = match pos {
            Position::Worker | Position::WorkerVector => Some(nk),
            Position::Vector => Some(nk * nj),
            _ => None,
        };
        if let Some(len) = out_len {
            r.bind_array("out", HostBuffer::new(t, len)).unwrap();
        }
        r.run().expect("sanitized gpu run");
        let reports = r.take_hazards();
        prop_assert!(
            reports.is_empty(),
            "{} {} {:?} dims {:?}: {} hazard(s), first: {}",
            pos.label(), op, t, d, reports.len(), reports[0]
        );
    }

    /// Window-sliding and blocking schedules agree.
    #[test]
    fn schedules_agree(
        pos in positions(),
        d in dims(),
        red_n in 1usize..300,
    ) {
        let src = case_source(pos, RedOp::Add, CType::Long);
        let (nk, nj, ni) = extents(pos, red_n);
        let n = nk * nj * ni;
        let mut input = HostBuffer::new(CType::Long, n);
        for i in 0..n {
            input.set(i, gen_value(RedOp::Add, CType::Long, i));
        }
        let run = |sched| {
            let opts = CompilerOptions { schedule: sched, ..CompilerOptions::openuh() };
            let mut r = AccRunner::with_options(&src, opts, d, Device::default()).unwrap();
            if pos == Position::SameLineGwv {
                r.bind_int("N", nk as i64).unwrap();
            } else {
                r.bind_int("NK", nk as i64).unwrap();
                r.bind_int("NJ", nj as i64).unwrap();
                r.bind_int("NI", ni as i64).unwrap();
            }
            r.bind_array("input", input.clone()).unwrap();
            let out_len = match pos {
                Position::Worker | Position::WorkerVector => Some(nk),
                Position::Vector => Some(nk * nj),
                _ => None,
            };
            if let Some(len) = out_len {
                r.bind_array("out", HostBuffer::new(CType::Long, len)).unwrap();
            }
            r.run().unwrap();
            let scalar = r.scalar("sum").ok().map(|v| v.as_i64());
            let arr = out_len.map(|_| r.array("out").unwrap().to_i64_vec());
            (scalar, arr)
        };
        let a = run(uhacc::core::Schedule::WindowSliding);
        let b = run(uhacc::core::Schedule::Blocking);
        prop_assert_eq!(a, b);
    }
}
