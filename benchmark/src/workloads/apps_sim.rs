//! `apps_sim` — the paper's three applications (Fig. 12) through the
//! same `accrt`/`gpsim` layers as `table2_sim`, used differently:
//! hundreds of short launches per pass (decode and specialise per
//! launch, a finalize kernel every iteration), device-resident data with
//! one scalar crossing PCIe per iteration, large uploads, n² tiny
//! barrier-heavy reductions, f64. A gain for long kernels that costs
//! launch set-up or transfers shows here.
//!
//! The applications' `run_*` helpers hide the session (and with it the
//! device statistics), so their short driving loops are re-stated here.

use super::{add_region_statics, region_decode_us, timed, Bridge, Ran, HOST_THREADS};
use crate::harness::{bump, Counts, PassOut, Workload};
use crate::metrics::Metrics;
use crate::rng::{fnv1a, Rng};
use crate::span::{Recorder, Span};
use crate::stats::median;
use uhacc::apps::{heat2d, matmul, pi};
use uhacc::core::{compile_region, CompilerOptions, LaunchDims};
use uhacc::parse::CType;
use uhacc::rt::{AccError, AccRunner, HostBuffer};
use uhacc::sim::Device;

#[derive(Debug, Clone, Copy, PartialEq)]
enum App {
    /// Grid edge, iterations.
    Heat(usize, usize),
    /// Matrix edge.
    Matmul(usize),
    /// Samples.
    Pi(usize),
}

const OPS: [App; 9] = [
    App::Heat(128, 20),
    App::Heat(192, 10),
    App::Heat(256, 10),
    App::Matmul(48),
    App::Matmul(64),
    App::Matmul(96),
    App::Pi(1 << 17),
    App::Pi(1 << 18),
    App::Pi(1 << 19),
];

impl App {
    fn name(self) -> String {
        match self {
            App::Heat(n, it) => format!("heat2d {n}x{n} x{it}"),
            App::Matmul(n) => format!("matmul {n}"),
            App::Pi(n) => format!("pi {n}"),
        }
    }

    /// The source's name in `acc_apps::all_sources()`.
    fn source_name(self) -> &'static str {
        match self {
            App::Heat(..) => "heat2d",
            App::Matmul(_) => "matmul",
            App::Pi(_) => "pi",
        }
    }

    /// The launch dims each application's own driver defaults to.
    fn dims(self) -> LaunchDims {
        match self {
            App::Heat(..) => heat2d::HeatConfig::default().dims,
            App::Matmul(_) => matmul::MatmulConfig::default().dims,
            App::Pi(_) => pi::PiConfig::default().dims,
        }
    }

    /// The same application at a size that runs in a millisecond.
    fn small(self) -> App {
        match self {
            App::Heat(..) => App::Heat(16, 2),
            App::Matmul(_) => App::Matmul(8),
            App::Pi(_) => App::Pi(1 << 10),
        }
    }

    /// How often each region runs in one op.
    fn region_runs(self) -> Vec<u64> {
        match self {
            App::Heat(_, it) => vec![it as u64; 2],
            _ => vec![1],
        }
    }
}

/// One op's inputs and the answer the repository's CPU code gives.
enum Input {
    Heat { grid: Vec<f64> },
    Matmul { a: Vec<f64>, b: Vec<f64> },
    Pi { x: Vec<f64>, y: Vec<f64> },
}

#[derive(Debug, PartialEq)]
enum Answer {
    Heat { grid: Vec<f64>, error: f64 },
    Matmul(Vec<f64>),
    Pi(u64),
}

fn close(g: f64, w: f64) -> bool {
    (g - w).abs() <= 1e-9 * w.abs().max(1.0)
}

fn all_close(what: &str, g: &[f64], w: &[f64]) -> Result<(), String> {
    if g.len() != w.len() {
        return Err(format!(
            "{what} has {} cells, expected {}",
            g.len(),
            w.len()
        ));
    }
    match g.iter().zip(w).position(|(g, w)| !close(*g, *w)) {
        None => Ok(()),
        Some(i) => Err(format!("{what}[{i}] is {}, expected {}", g[i], w[i])),
    }
}

fn agree(got: &Answer, want: &Answer) -> Result<(), String> {
    match (got, want) {
        (Answer::Heat { grid: g, error: e }, Answer::Heat { grid, error }) => {
            if !close(*e, *error) {
                return Err(format!("error is {e}, expected {error}"));
            }
            all_close("grid", g, grid)
        }
        (Answer::Matmul(g), Answer::Matmul(w)) => all_close("C", g, w),
        (Answer::Pi(g), Answer::Pi(w)) if g == w => Ok(()),
        (Answer::Pi(g), Answer::Pi(w)) => Err(format!("{g} hits, expected {w}")),
        _ => Err("answer has the wrong shape".into()),
    }
}

fn reference(app: App, input: &Input) -> Answer {
    match (app, input) {
        (App::Heat(n, iters), Input::Heat { grid }) => {
            let (mut t1, mut t2) = (grid.clone(), grid.clone());
            let mut error = 0.0;
            for _ in 0..iters {
                error = heat2d::cpu_step(&t1, &mut t2, n);
                std::mem::swap(&mut t1, &mut t2);
            }
            Answer::Heat { grid: t1, error }
        }
        (App::Matmul(n), Input::Matmul { a, b }) => Answer::Matmul(matmul::cpu_matmul(a, b, n)),
        (App::Pi(_), Input::Pi { x, y }) => Answer::Pi(pi::cpu_hits(x, y)),
        _ => unreachable!("inputs are drawn per app"),
    }
}

struct Static {
    src: &'static str,
    /// Static size of the regions one op compiles.
    statics: Counts,
    /// Host time to pre-decode the kernels of one run of each region.
    region_decode_us: Vec<f64>,
}

pub struct AppsSim {
    seed: u64,
    /// Per op of [`OPS`].
    apps: Vec<Static>,
    /// π base points per op: every pass applies a fresh per-point
    /// symmetry (sign flips, coordinate swap) to them, which changes the
    /// input bytes but not one branch outcome — so the divergent `if`
    /// costs the same modelled cycles on every pass.
    pi_base: Vec<(Vec<f64>, Vec<f64>)>,
    rec: Recorder,
    bridge: Bridge,
}

impl AppsSim {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let sources = uhacc::apps::all_sources();
        let (bridge, origin) = Bridge::new();
        let mut w = AppsSim {
            seed,
            apps: Vec::new(),
            pi_base: Vec::new(),
            rec: Recorder::new(origin),
            bridge,
        };
        let mut base_rng = Rng::new(seed, u64::MAX);
        for app in OPS {
            let src = sources
                .iter()
                .find(|(name, _)| *name == app.source_name())
                .map(|(_, src)| *src)
                .ok_or_else(|| format!("acc_apps has no source named {}", app.source_name()))?;
            w.apps.push(Static {
                src,
                statics: Counts::new(),
                region_decode_us: Vec::new(),
            });
            w.pi_base.push(match app {
                App::Pi(n) => {
                    let mut coords = || {
                        (0..n)
                            .map(|_| base_rng.unit() * 2.0 - 1.0)
                            .collect::<Vec<f64>>()
                    };
                    (coords(), coords())
                }
                _ => (Vec::new(), Vec::new()),
            });
        }
        // Warm-up at a small size, checked like a real op; the session it
        // leaves behind gives each region's launch dims for the statics.
        for (i, app) in OPS.iter().enumerate() {
            let small = app.small();
            let input = w.draw(i, small, &mut Rng::new(seed, u64::MAX - 1));
            let want = reference(small, &input);
            let (_, ran, r) = w.run_app(i, small, input, 0);
            ran.got
                .and_then(|g| agree(&g, &want))
                .map_err(|e| format!("warm-up of {} failed: {e}", small.name()))?;
            for region in 0..r.program().regions.len() {
                let dims = r.resolve_dims(region).map_err(|e| e.to_string())?;
                let c = compile_region(r.program(), region, dims, &CompilerOptions::openuh())
                    .map_err(|d| d.to_string())?;
                add_region_statics(&mut w.apps[i].statics, &c);
                w.apps[i].region_decode_us.push(region_decode_us(&c));
            }
        }
        Ok(w)
    }

    fn draw(&self, i: usize, app: App, rng: &mut Rng) -> Input {
        match app {
            // Cold plate, hot top edge at a temperature drawn per cell.
            App::Heat(n, _) => {
                let mut grid = vec![0.0; n * n];
                for cell in &mut grid[..n] {
                    *cell = 50.0 + 50.0 * rng.unit();
                }
                Input::Heat { grid }
            }
            // Small dyadic values: every product and partial sum is exact
            // in f64, whatever order the vector tree adds them in.
            App::Matmul(n) => Input::Matmul {
                a: (0..n * n).map(|_| rng.int_in(-3, 3) as f64 * 0.5).collect(),
                b: (0..n * n)
                    .map(|_| rng.int_in(-2, 2) as f64 * 0.25)
                    .collect(),
            },
            App::Pi(n) => {
                let (bx, by) = &self.pi_base[i];
                let (mut x, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
                for (&px, &py) in bx.iter().zip(by).take(n) {
                    let bits = rng.below(8);
                    let (px, py) = if bits & 4 != 0 { (py, px) } else { (px, py) };
                    x.push(if bits & 1 != 0 { -px } else { px });
                    y.push(if bits & 2 != 0 { -py } else { py });
                }
                Input::Pi { x, y }
            }
        }
    }

    fn run_app(
        &mut self,
        i: usize,
        app: App,
        input: Input,
        op_id: u32,
    ) -> (u64, Ran<Answer>, AccRunner) {
        let src = self.apps[i].src;
        let bridge = &self.bridge;
        let mut tracer = None;
        let (ns, (got, r)) = timed(&mut self.rec, op_id, |rec| {
            let mut r = span!(
                rec,
                "accrt.session",
                AccRunner::with_options(
                    src,
                    CompilerOptions::openuh(),
                    app.dims(),
                    Device::default()
                )
                .expect("application sources compile")
            );
            r.set_host_threads(HOST_THREADS);
            tracer = bridge.attach(&mut r, rec);
            let got = drive(&mut r, app, input, rec).map_err(|e| e.to_string());
            (got, r)
        });
        self.bridge.import(tracer, &mut self.rec);
        (ns, Ran::of(got, &r), r)
    }

    fn pass_rng(&self, pass: u64) -> Rng {
        Rng::new(self.seed.wrapping_add(pass), 0)
    }
}

/// The applications' driving loops, as `acc_apps::run_*` state them.
fn drive(
    r: &mut AccRunner,
    app: App,
    input: Input,
    rec: &mut Recorder,
) -> Result<Answer, AccError> {
    match (app, input) {
        (App::Heat(n, iters), Input::Heat { grid }) => {
            span!(rec, "accrt.bind", {
                r.bind_int("ni", n as i64)
                    .and_then(|()| r.bind_int("nj", n as i64))
                    .and_then(|()| r.bind_array("temp1", HostBuffer::from_f64(&grid)))
                    .and_then(|()| r.bind_array("temp2", HostBuffer::from_f64(&grid)))
            })?;
            // Both grids stay device-resident across the loop; only the
            // scalar `error` crosses PCIe per iteration.
            span!(
                rec,
                "accrt.h2d",
                r.enter_data("temp1").and_then(|()| r.enter_data("temp2"))
            )?;
            let error = span!(rec, "accrt.run", {
                (0..iters).try_fold(0.0, |_, _| {
                    r.run_region(0)?;
                    r.bind_float("error", 0.0)?;
                    r.run_region(1)?;
                    let error = r.scalar("error")?.as_f64();
                    r.swap_arrays("temp1", "temp2")?;
                    Ok::<f64, AccError>(error)
                })
            })?;
            span!(
                rec,
                "accrt.d2h",
                r.exit_data("temp1").and_then(|()| r.exit_data("temp2"))
            )?;
            let grid = span!(
                rec,
                "accrt.read",
                r.array("temp1").map(HostBuffer::to_f64_vec)
            )?;
            Ok(Answer::Heat { grid, error })
        }
        (App::Matmul(n), Input::Matmul { a, b }) => {
            span!(rec, "accrt.bind", {
                r.bind_int("n", n as i64)
                    .and_then(|()| r.bind_array("A", HostBuffer::from_f64(&a)))
                    .and_then(|()| r.bind_array("B", HostBuffer::from_f64(&b)))
                    .and_then(|()| r.bind_array("C", HostBuffer::new(CType::Double, n * n)))
            })?;
            span!(rec, "accrt.run", r.run())?;
            let c = span!(rec, "accrt.read", r.array("C").map(HostBuffer::to_f64_vec))?;
            Ok(Answer::Matmul(c))
        }
        (App::Pi(n), Input::Pi { x, y }) => {
            span!(rec, "accrt.bind", {
                r.bind_int("n", n as i64)
                    .and_then(|()| r.bind_array("x", HostBuffer::from_f64(&x)))
                    .and_then(|()| r.bind_array("y", HostBuffer::from_f64(&y)))
            })?;
            span!(rec, "accrt.run", r.run())?;
            let m = span!(rec, "accrt.read", r.scalar("m"))?;
            Ok(Answer::Pi(m.as_i64() as u64))
        }
        _ => unreachable!("inputs are drawn per app"),
    }
}

impl Workload for AppsSim {
    fn ops_per_pass(&self) -> usize {
        OPS.len()
    }

    fn op_list_hash(&self) -> u64 {
        let mut rng = self.pass_rng(0);
        let mut text = String::new();
        for (i, app) in OPS.iter().enumerate() {
            let small = app.small();
            text.push_str(&app.name());
            text.push_str(self.apps[i].src);
            text.push_str(&format!(
                "{:?}",
                reference(small, &self.draw(i, small, &mut rng))
            ));
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
        for (i, app) in OPS.into_iter().enumerate() {
            let input = self.draw(i, app, &mut rng);
            let want = reference(app, &input);
            let op_id = (pass as usize * OPS.len() + i) as u32;
            let (ns, ran, _) = self.run_app(i, app, input, op_id);
            ran.count(&mut out.counts, app.region_runs().iter().sum());
            for (&k, &v) in &self.apps[i].statics {
                bump(&mut out.counts, k, v);
            }
            out.push(&app.name(), ns, ran.got.and_then(|g| agree(&g, &want)));
        }
        out
    }

    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)> {
        vec![(0, self.rec.take())]
    }

    fn side_measurements(&mut self, _quick: bool, m: &mut Metrics) {
        let decode: Vec<f64> = OPS
            .iter()
            .zip(&self.apps)
            .map(|(app, s)| {
                app.region_runs()
                    .iter()
                    .zip(&s.region_decode_us)
                    .map(|(&runs, us)| runs as f64 * us)
                    .sum()
            })
            .collect();
        m.set("gpsim.decode_us", median(&decode), decode.len() as u64);
    }

    fn finish(&mut self, m: &mut Metrics, _failures: &mut Vec<String>) {
        m.set("uhobs.spans_dropped", self.bridge.dropped as f64, 1);
    }
}
