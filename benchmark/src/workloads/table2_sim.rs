//! `table2_sim` — few long launches: the 7 Table-2 positions ×
//! {int `+`, double `+`, float `max`} under the OpenUH options at the
//! paper's launch dims. Almost all of an op is `gpsim` executing the
//! window-sliding loop and the reduction tree; front end and runtime are
//! noise. Inputs are re-drawn from `seed + pass`, so no two ops of a run
//! share (program, inputs) and a result memo cannot serve them.

use super::{add_region_statics, region_decode_us, timed, Bridge, Ran, HOST_THREADS};
use crate::harness::{bump, Counts, PassOut, Workload};
use crate::metrics::Metrics;
use crate::rng::{fnv1a, Rng};
use crate::span::{Recorder, Span};
use crate::stats::median;
use uhacc::baselines::CpuExec;
use uhacc::core::{compile_region, CompilerOptions, LaunchDims};
use uhacc::parse::{CType, RedOp};
use uhacc::rt::{AccRunner, HostBuffer};
use uhacc::sim::{Device, ExecTier};
use uhacc::testsuite::cases::{case_source, ctype_name, extents, initial_value, Position};

/// Iterations of the reduction loop. Half the testsuite's 8192: a pass
/// is then ~1 s, so a run holds well over ten passes.
pub const RED_N: usize = 4096;
/// Reduction size of the set-up's CPU cross-check and warm-up.
const SMALL_N: usize = 96;

const COMBOS: [(RedOp, CType); 3] = [
    (RedOp::Add, CType::Int),
    (RedOp::Add, CType::Double),
    (RedOp::Max, CType::Float),
];

/// The answer a case must produce: `sum`, or every cell of `out`.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Sum(f64),
    Out(Vec<f64>),
}

struct Case {
    name: String,
    pos: Position,
    op: RedOp,
    ty: CType,
    src: String,
    /// Static size of the compiled region, and host time to pre-decode
    /// its kernels once per launch.
    statics: Counts,
    decode_us: f64,
}

/// One case's inputs for one pass, with the answer computed from them.
struct Drawn {
    input: HostBuffer,
    want: Answer,
}

pub struct Table2Sim {
    seed: u64,
    cases: Vec<Case>,
    rec: Recorder,
    bridge: Bridge,
}

fn fold(op: RedOp, init: f64, it: impl Iterator<Item = f64>) -> f64 {
    match op {
        RedOp::Add => it.fold(init, |a, b| a + b),
        RedOp::Max => it.fold(init, f64::max),
        _ => unreachable!("the workload only uses + and max"),
    }
}

/// The benchmark's own statement of what each Table-2 source computes —
/// a plain fold over the slice of `input` the position reduces — so that
/// every pass is checked against an answer that never ran through the
/// front end, the compiler or the simulator. Set-up cross-checks it
/// against the repository's sequential `CpuExec` on every case.
fn oracle(case: &Case, red_n: usize, v: &[f64]) -> Answer {
    let (nk, nj, ni) = extents(case.pos, red_n);
    let init: f64 = initial_value(case.op, case.ty).parse().expect("numeric");
    let at = |k: usize, j: usize, i: usize| v[(k * nj + j) * ni + i];
    let f = |it: &mut dyn Iterator<Item = f64>| fold(case.op, init, it);
    match case.pos {
        Position::Gang => Answer::Sum(f(&mut (0..nk).map(|k| at(k, 0, 0)))),
        Position::GangWorker => Answer::Sum(f(&mut (0..nk * nj).map(|x| v[x * ni]))),
        Position::GangWorkerVector | Position::SameLineGwv => {
            Answer::Sum(f(&mut v.iter().copied()))
        }
        Position::Worker => Answer::Out(
            (0..nk)
                .map(|k| f(&mut (0..nj).map(|j| at(k, j, 0))))
                .collect(),
        ),
        Position::WorkerVector => Answer::Out(
            v.chunks(nj * ni)
                .map(|c| f(&mut c.iter().copied()))
                .collect(),
        ),
        Position::Vector => Answer::Out(v.chunks(ni).map(|c| f(&mut c.iter().copied())).collect()),
    }
}

/// Small integers in every type: `+` over them is exact in `double`
/// whatever the association, `max` is exact always — so a parallel tree
/// and a sequential fold must agree to the last bit.
fn draw(case: &Case, red_n: usize, rng: &mut Rng) -> Drawn {
    let (input, vals) = draw_input(case.pos, case.op, case.ty, red_n, rng);
    Drawn {
        want: oracle(case, red_n, &vals),
        input,
    }
}

/// The `input` array of a Table-2 case, typed for the source and as the
/// plain numbers it holds.
pub(super) fn draw_input(
    pos: Position,
    op: RedOp,
    ty: CType,
    red_n: usize,
    rng: &mut Rng,
) -> (HostBuffer, Vec<f64>) {
    let (nk, nj, ni) = extents(pos, red_n);
    let (lo, hi) = match op {
        RedOp::Add => (-4, 8),
        _ => (-50_000, 50_000),
    };
    let ints: Vec<i64> = (0..nk * nj * ni).map(|_| rng.int_in(lo, hi)).collect();
    let vals: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
    let input = match ty {
        CType::Int => HostBuffer::from_i32(&ints.iter().map(|&x| x as i32).collect::<Vec<_>>()),
        CType::Long => HostBuffer::from_i64(&ints),
        CType::Float => HostBuffer::from_f32(&ints.iter().map(|&x| x as f32).collect::<Vec<_>>()),
        CType::Double => HostBuffer::from_f64(&vals),
    };
    (input, vals)
}

pub(super) fn out_len(pos: Position, red_n: usize) -> Option<usize> {
    let (nk, nj, _) = extents(pos, red_n);
    match pos {
        Position::Worker | Position::WorkerVector => Some(nk),
        Position::Vector => Some(nk * nj),
        _ => None,
    }
}

pub(super) fn bind_extents(
    pos: Position,
    red_n: usize,
    mut bind: impl FnMut(&str, i64) -> Result<(), uhacc::rt::AccError>,
) {
    let (nk, nj, ni) = extents(pos, red_n);
    let r = if pos == Position::SameLineGwv {
        bind("N", nk as i64)
    } else {
        bind("NK", nk as i64)
            .and_then(|()| bind("NJ", nj as i64))
            .and_then(|()| bind("NI", ni as i64))
    };
    r.expect("testsuite sources declare their extents");
}

fn agree(got: &Answer, want: &Answer) -> Result<(), String> {
    let close = |g: f64, w: f64| (g - w).abs() <= 1e-9 * w.abs().max(1.0);
    match (got, want) {
        (Answer::Sum(g), Answer::Sum(w)) if close(*g, *w) => Ok(()),
        (Answer::Sum(g), Answer::Sum(w)) => Err(format!("sum is {g}, expected {w}")),
        (Answer::Out(g), Answer::Out(w)) if g.len() == w.len() => {
            match g.iter().zip(w).position(|(g, w)| !close(*g, *w)) {
                None => Ok(()),
                Some(i) => Err(format!("out[{i}] is {}, expected {}", g[i], w[i])),
            }
        }
        _ => Err("result has the wrong shape".into()),
    }
}

impl Table2Sim {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let (bridge, origin) = Bridge::new();
        let mut w = Table2Sim {
            seed,
            cases: Vec::new(),
            rec: Recorder::new(origin),
            bridge,
        };
        for (op, ty) in COMBOS {
            for pos in Position::all() {
                w.cases.push(Case {
                    name: format!("{} {} {}", pos.label(), ctype_name(ty), op.clause_token()),
                    pos,
                    op,
                    ty,
                    src: case_source(pos, op, ty),
                    statics: Counts::new(),
                    decode_us: 0.0,
                });
            }
        }
        // Reference answers and warm-up, at a small size: the oracle must
        // agree with the repository's CPU executor on every case, and the
        // simulator with both, before anything is timed.
        let mut rng = Rng::new(seed, u64::MAX);
        for i in 0..w.cases.len() {
            let d = draw(&w.cases[i], SMALL_N, &mut rng);
            let case = &w.cases[i];
            let mut cpu = CpuExec::new(&case.src).expect("testsuite sources compile");
            bind_extents(case.pos, SMALL_N, |n, v| cpu.bind_int(n, v));
            cpu.bind_array("input", d.input.clone()).expect("input");
            for (name, len) in [
                ("temp", Some(d.input.len())),
                ("out", out_len(case.pos, SMALL_N)),
            ] {
                if let Some(len) = len {
                    // Not every source declares both; binding an absent
                    // array is refused and that is fine.
                    let _ = cpu.bind_array(name, HostBuffer::new(case.ty, len));
                }
            }
            cpu.run().expect("CPU reference runs");
            let cpu_answer = match out_len(case.pos, SMALL_N) {
                Some(_) => Answer::Out(cpu.array("out").expect("out").to_f64_vec()),
                None => Answer::Sum(cpu.scalar("sum").expect("sum").as_f64()),
            };
            agree(&cpu_answer, &d.want)
                .map_err(|e| format!("oracle disagrees with CpuExec on {}: {e}", case.name))?;

            let (_, ran, r) = w.run_case(i, SMALL_N, d.input, ExecTier::Auto, HOST_THREADS, 0);
            ran.got
                .and_then(|g| agree(&g, &d.want))
                .map_err(|e| format!("warm-up of {} failed: {e}", w.cases[i].name))?;
            let dims = r.resolve_dims(0).map_err(|e| e.to_string())?;
            let c = compile_region(r.program(), 0, dims, &CompilerOptions::openuh())
                .map_err(|d| d.to_string())?;
            add_region_statics(&mut w.cases[i].statics, &c);
            w.cases[i].decode_us = region_decode_us(&c);
        }
        Ok(w)
    }

    /// One op: session → bind → `run()` → read results.
    fn run_case(
        &mut self,
        i: usize,
        red_n: usize,
        input: HostBuffer,
        tier: ExecTier,
        host_threads: u32,
        op_id: u32,
    ) -> (u64, Ran<Answer>, AccRunner) {
        let case = &self.cases[i];
        let out = out_len(case.pos, red_n).map(|n| HostBuffer::new(case.ty, n));
        let bridge = &self.bridge;
        let mut tracer = None;
        let (ns, (got, r)) = timed(&mut self.rec, op_id, |rec| {
            let mut r = span!(
                rec,
                "accrt.session",
                AccRunner::with_options(
                    &case.src,
                    CompilerOptions::openuh(),
                    LaunchDims::paper(),
                    Device::default(),
                )
                .expect("testsuite sources compile")
            );
            r.set_host_threads(host_threads);
            r.set_exec_tier(tier);
            tracer = bridge.attach(&mut r, rec);
            span!(rec, "accrt.bind", {
                bind_extents(case.pos, red_n, |n, v| r.bind_int(n, v));
                r.bind_array("input", input).expect("input binds");
                if let Some(out) = out {
                    r.bind_array("out", out).expect("out binds");
                }
            });
            let ran = span!(rec, "accrt.run", r.run());
            let got = span!(
                rec,
                "accrt.read",
                ran.map_err(|e| e.to_string())
                    .map(|()| match out_len(case.pos, red_n) {
                        Some(_) => Answer::Out(r.array("out").expect("out bound").to_f64_vec()),
                        None => Answer::Sum(r.scalar("sum").expect("sum declared").as_f64()),
                    })
            );
            (got, r)
        });
        self.bridge.import(tracer, &mut self.rec);
        (ns, Ran::of(got, &r), r)
    }

    fn pass_rng(&self, pass: u64) -> Rng {
        Rng::new(self.seed.wrapping_add(pass), 0)
    }
}

impl Workload for Table2Sim {
    fn ops_per_pass(&self) -> usize {
        self.cases.len()
    }

    fn op_list_hash(&self) -> u64 {
        let mut text = String::new();
        let mut rng = self.pass_rng(0);
        for c in &self.cases {
            text.push_str(&c.name);
            text.push_str(&c.src);
            text.push_str(&format!("{:?}", draw(c, SMALL_N, &mut rng).want));
        }
        fnv1a(text.as_bytes())
    }

    fn is_sim(&self) -> bool {
        true
    }

    fn run_pass(&mut self, pass: u64, traced: bool) -> PassOut {
        self.rec.set_on(traced);
        let mut rng = self.pass_rng(pass);
        let mut out = PassOut::default();
        for i in 0..self.cases.len() {
            let d = draw(&self.cases[i], RED_N, &mut rng);
            let op_id = (pass as usize * self.cases.len() + i) as u32;
            let (ns, ran, _) =
                self.run_case(i, RED_N, d.input, ExecTier::Auto, HOST_THREADS, op_id);
            ran.count(&mut out.counts, 1);
            for (&k, &v) in &self.cases[i].statics {
                bump(&mut out.counts, k, v);
            }
            let check = ran.got.and_then(|g| agree(&g, &d.want));
            out.push(&self.cases[i].name, ns, check);
        }
        out
    }

    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)> {
        vec![(0, self.rec.take())]
    }

    /// The interpreter tier and the two-thread executor, each on a few
    /// int `+` rows, each row timed back to back with the timed run's own
    /// settings so that both sides see the same machine conditions.
    fn side_measurements(&mut self, quick: bool, m: &mut Metrics) {
        self.rec.set_on(false);
        let mut rng = Rng::new(self.seed, u64::MAX - 1);
        // `(base ns, variant ns, variant lane insts)` summed over `rows`.
        let mut versus = |w: &mut Self, rows: &[Position], tier, threads| {
            let mut sums = (0.0, 0.0, 0.0);
            for i in 0..w.cases.len() {
                let c = &w.cases[i];
                if c.op != RedOp::Add || c.ty != CType::Int || !rows.contains(&c.pos) {
                    continue;
                }
                let (base, variant) = (draw(c, RED_N, &mut rng), draw(c, RED_N, &mut rng));
                let auto = w.run_case(i, RED_N, base.input, ExecTier::Auto, HOST_THREADS, 0);
                let (ns, ran, _) = w.run_case(i, RED_N, variant.input, tier, threads, 0);
                sums.0 += auto.0 as f64;
                sums.1 += ns as f64;
                sums.2 += ran.stats.totals.lane_insts as f64;
            }
            sums
        };
        // The interpreter is ~10x slower; three rows keep it within budget.
        let interp_rows: &[Position] = if quick {
            &[Position::Vector]
        } else {
            &[
                Position::Vector,
                Position::Worker,
                Position::GangWorkerVector,
            ]
        };
        let (base, interp, insts) = versus(self, interp_rows, ExecTier::Interpret, HOST_THREADS);
        let n = interp_rows.len() as u64;
        m.set("gpsim.interp_minst_per_s", insts / 1e6 / (interp / 1e9), n);
        m.set("gpsim.tier_ratio", interp / base, n);
        let gang_rows = [
            Position::Gang,
            Position::GangWorker,
            Position::GangWorkerVector,
            Position::SameLineGwv,
        ];
        let (base, par2, _) = versus(self, &gang_rows, ExecTier::Auto, 2);
        m.set("gpsim.par2_ratio", base / par2, gang_rows.len() as u64);
        let decode: Vec<f64> = self.cases.iter().map(|c| c.decode_us).collect();
        m.set("gpsim.decode_us", median(&decode), decode.len() as u64);
    }

    fn finish(&mut self, m: &mut Metrics, _failures: &mut Vec<String>) {
        m.set("uhobs.spans_dropped", self.bridge.dropped as f64, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(pos: Position, op: RedOp, ty: CType) -> Case {
        Case {
            name: String::new(),
            pos,
            op,
            ty,
            src: String::new(),
            statics: Counts::new(),
            decode_us: 0.0,
        }
    }

    #[test]
    fn oracle_folds_the_slice_each_position_reduces() {
        // extents(Worker, 3) = (2, 3, 32): out[k] = 3 + Σ_j input[k][j][0]
        let v: Vec<f64> = (0..2 * 3 * 32).map(|x| x as f64).collect();
        let want = vec![3.0 + 0.0 + 32.0 + 64.0, 3.0 + 96.0 + 128.0 + 160.0];
        assert_eq!(
            oracle(&case(Position::Worker, RedOp::Add, CType::Int), 3, &v),
            Answer::Out(want)
        );
        // same line: sum = 2.5 + Σ input
        let v = [1.0, 2.0, 3.0];
        assert_eq!(
            oracle(
                &case(Position::SameLineGwv, RedOp::Add, CType::Double),
                3,
                &v
            ),
            Answer::Sum(8.5)
        );
        // vector max: out[k][j] = max(-1e30, row)
        let v: Vec<f64> = (0..2 * 32 * 2).map(|x| -(x as f64)).collect();
        let Answer::Out(o) = oracle(&case(Position::Vector, RedOp::Max, CType::Float), 2, &v)
        else {
            panic!("vector position answers with out[]")
        };
        assert_eq!(o.len(), 64);
        assert_eq!((o[0], o[63]), (0.0, -126.0));
    }

    #[test]
    fn same_seed_same_op_list_and_another_seed_another() {
        let hash = |seed| {
            let w = Table2Sim {
                seed,
                cases: vec![Case {
                    name: "vector int +".into(),
                    src: case_source(Position::Vector, RedOp::Add, CType::Int),
                    ..case(Position::Vector, RedOp::Add, CType::Int)
                }],
                rec: Recorder::new(std::time::Instant::now()),
                bridge: Bridge::new().0,
            };
            w.op_list_hash()
        };
        assert_eq!(hash(1), hash(1));
        assert_ne!(hash(1), hash(2));
    }
}
