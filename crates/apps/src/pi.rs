//! Monte Carlo PI (paper §4, Fig. 12c / Fig. 13c).
//!
//! Random points in the square [-1,1]² are tested against the unit circle;
//! `pi ≈ 4 m / n`. The point coordinates are pre-generated on the host
//! (the paper: "since at the time of writing most compilers do not support
//! function call inside an OpenACC kernel region, we pre-generate the x
//! and y values on the host and then transfer them to the device") and the
//! hit count `m` is a `+` reduction distributed over gang and vector
//! threads of one loop.

use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uhacc_core::{CompilerOptions, LaunchDims};

/// Fig. 13c shape: one loop, gang+vector, `+` reduction on the hit count.
pub(crate) const PI_SRC: &str = r#"
int n;
int m;
double x[n]; double y[n];
m = 0;
#pragma acc parallel loop gang vector reduction(+:m) copyin(x, y)
for (int i = 0; i < n; i++) {
    if (x[i]*x[i] + y[i]*y[i] < 1.0) {
        m += 1;
    }
}
"#;

/// Result of one PI estimation.
#[derive(Debug, Clone, Copy)]
pub struct PiResult {
    /// Points inside the circle.
    pub hits: u64,
    /// Total points sampled.
    pub samples: u64,
    /// The estimate `4 m / n`.
    pub pi: f64,
    /// Modelled kernel milliseconds (reduction only, excluding PCIe).
    pub kernel_ms: f64,
    /// Modelled total milliseconds including the point upload.
    pub total_ms: f64,
    /// Simulator-side work of the run.
    pub sim: crate::SimWork,
}

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct PiConfig {
    /// Point count (the paper sampled 1/2/4 GB of points; scaled default).
    pub samples: usize,
    pub seed: u64,
    pub dims: LaunchDims,
}

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            samples: 1 << 18,
            seed: 42,
            dims: LaunchDims {
                gangs: 192,
                workers: 1,
                vector: 128,
            },
        }
    }
}

/// Host-side generation of the sample points (the paper's methodology).
pub fn generate_points(cfg: &PiConfig) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let xs: Vec<f64> = (0..cfg.samples).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ys: Vec<f64> = (0..cfg.samples).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (xs, ys)
}

/// CPU reference hit count.
pub fn cpu_hits(xs: &[f64], ys: &[f64]) -> u64 {
    xs.iter()
        .zip(ys)
        .filter(|(x, y)| **x * **x + **y * **y < 1.0)
        .count() as u64
}

/// Run the estimation on the simulated device.
pub fn run_pi(cfg: &PiConfig, opts: CompilerOptions) -> Result<PiResult, AccError> {
    run_pi_on(cfg, opts, Device::default())
}

/// [`run_pi`] on a device the caller configured (execution tier, host
/// threads).
pub fn run_pi_on(
    cfg: &PiConfig,
    opts: CompilerOptions,
    device: Device,
) -> Result<PiResult, AccError> {
    let (xs, ys) = generate_points(cfg);
    let mut r = AccRunner::with_options(PI_SRC, opts, cfg.dims, device)?;
    r.bind_int("n", cfg.samples as i64)?;
    r.bind_array("x", HostBuffer::from_f64(&xs))?;
    r.bind_array("y", HostBuffer::from_f64(&ys))?;
    r.run()?;
    let hits = r.scalar("m")?.as_i64() as u64;
    let st = r.device().stats();
    let kernel_ms = r.device().config().cycles_to_ms(st.kernel_cycles);
    Ok(PiResult {
        hits,
        samples: cfg.samples as u64,
        pi: 4.0 * hits as f64 / cfg.samples as f64,
        kernel_ms,
        total_ms: r.elapsed_ms(),
        sim: crate::SimWork::of(&r),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_matches_cpu_hit_count_exactly() {
        let cfg = PiConfig {
            samples: 50_000,
            ..Default::default()
        };
        let res = run_pi(&cfg, CompilerOptions::openuh()).unwrap();
        let (xs, ys) = generate_points(&cfg);
        assert_eq!(res.hits, cpu_hits(&xs, &ys));
    }

    #[test]
    fn pi_estimate_is_reasonable() {
        let cfg = PiConfig {
            samples: 200_000,
            ..Default::default()
        };
        let res = run_pi(&cfg, CompilerOptions::openuh()).unwrap();
        assert!(
            (res.pi - std::f64::consts::PI).abs() < 0.02,
            "pi = {}",
            res.pi
        );
        assert!(res.kernel_ms > 0.0);
        assert!(res.total_ms > res.kernel_ms, "transfers must be accounted");
    }

    #[test]
    fn accuracy_improves_with_samples() {
        let small = run_pi(
            &PiConfig {
                samples: 1 << 10,
                ..Default::default()
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        let big = run_pi(
            &PiConfig {
                samples: 1 << 18,
                ..Default::default()
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        let err_small = (small.pi - std::f64::consts::PI).abs();
        let err_big = (big.pi - std::f64::consts::PI).abs();
        assert!(err_big < err_small, "{err_big} vs {err_small}");
    }
}
