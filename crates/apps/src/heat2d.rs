//! 2D heat equation with max-reduction convergence test (paper §4,
//! Fig. 12a / Fig. 13a).
//!
//! A grid with fixed boundary temperatures is relaxed by Jacobi iteration;
//! each step also computes `error = max |temp1 - temp2|` with a
//! `reduction(max:...)` clause. Iteration stops when the error drops below
//! a threshold (the paper iterates until the difference "gradually
//! decreases from a large value until 0").

use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::Device;
use uhacc_core::{CompilerOptions, LaunchDims};

/// The update + convergence program: region 0 relaxes `temp2` from
/// `temp1`, region 1 computes the max difference.
pub(crate) const HEAT_SRC: &str = r#"
int ni; int nj;
double error;
double temp1[nj][ni];
double temp2[nj][ni];
#pragma acc parallel copy(temp1) copy(temp2)
{
    #pragma acc loop gang
    for (int j = 1; j < nj - 1; j++) {
        #pragma acc loop vector
        for (int i = 1; i < ni - 1; i++) {
            temp2[j][i] = 0.25 * (temp1[j][i+1] + temp1[j][i-1]
                                + temp1[j+1][i] + temp1[j-1][i]);
        }
    }
}
#pragma acc parallel copyin(temp1) copyin(temp2)
{
    #pragma acc loop gang reduction(max:error)
    for (int j = 1; j < nj - 1; j++) {
        #pragma acc loop vector
        for (int i = 1; i < ni - 1; i++) {
            error = fmax(error, fabs(temp1[j][i] - temp2[j][i]));
        }
    }
}
"#;

/// Result of a heat-equation run.
#[derive(Debug, Clone)]
pub struct HeatResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Final max |delta| between the last two iterates.
    pub final_error: f64,
    /// Modelled device milliseconds spent in the max-reduction kernel
    /// passes (the paper's Fig. 12a measures the reduction, not the
    /// stencil: "in this paper we only focus on the maximum reduction").
    pub reduction_ms: f64,
    /// Modelled device milliseconds total (stencil + reduction + copies).
    pub total_ms: f64,
    /// The final grid.
    pub grid: Vec<f64>,
    /// Simulator-side work of the run.
    pub sim: crate::SimWork,
}

/// Configuration for the heat solver.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    /// Grid edge length (paper sweeps 128..512).
    pub n: usize,
    /// Convergence threshold.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    pub dims: LaunchDims,
}

impl Default for HeatConfig {
    fn default() -> Self {
        HeatConfig {
            n: 128,
            tol: 1e-4,
            max_iters: 500,
            dims: LaunchDims {
                gangs: 64,
                workers: 1,
                vector: 128,
            },
        }
    }
}

/// CPU reference: one Jacobi step + max-diff, for verification.
pub fn cpu_step(t1: &[f64], t2: &mut [f64], n: usize) -> f64 {
    let mut err = 0.0f64;
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            let v = 0.25
                * (t1[j * n + i + 1]
                    + t1[j * n + i - 1]
                    + t1[(j + 1) * n + i]
                    + t1[(j - 1) * n + i]);
            err = err.max((t1[j * n + i] - v).abs());
            t2[j * n + i] = v;
        }
    }
    err
}

/// Build the initial grid: hot top edge, cold elsewhere.
pub fn initial_grid(n: usize) -> Vec<f64> {
    let mut g = vec![0.0f64; n * n];
    g[..n].fill(100.0);
    g
}

/// Run the heat equation on the simulated device with the given compiler
/// options, iterating until convergence (or the cap).
pub fn run_heat(cfg: &HeatConfig, opts: CompilerOptions) -> Result<HeatResult, AccError> {
    run_heat_on(cfg, opts, Device::default())
}

/// [`run_heat`] on a device the caller configured (execution tier, host
/// threads).
pub fn run_heat_on(
    cfg: &HeatConfig,
    opts: CompilerOptions,
    device: Device,
) -> Result<HeatResult, AccError> {
    let n = cfg.n;
    // Build the runner once; iterate by re-running the two regions with
    // the double-buffer arrays swapped between steps.
    let mut r = AccRunner::with_options(HEAT_SRC, opts, cfg.dims, device)?;
    r.bind_int("ni", n as i64)?;
    r.bind_int("nj", n as i64)?;
    let grid = initial_grid(n);
    r.bind_array("temp1", HostBuffer::from_f64(&grid))?;
    r.bind_array("temp2", HostBuffer::from_f64(&grid))?;
    // Keep both buffers device-resident across the iteration loop (the
    // OpenACC 2.0 data-lifetime control the paper's §2.1 anticipates);
    // only the scalar `error` crosses PCIe per iteration.
    r.enter_data("temp1")?;
    r.enter_data("temp2")?;

    let mut iterations = 0;
    let mut final_error = f64::INFINITY;
    let mut reduction_cycles: u64 = 0;
    for _ in 0..cfg.max_iters {
        // Stencil update.
        r.run_region(0)?;
        // Convergence check: reset `error`, then max-reduce |t1 - t2|.
        r.bind_float("error", 0.0)?;
        let before = r.device().stats().kernel_cycles;
        r.run_region(1)?;
        reduction_cycles += r.device().stats().kernel_cycles - before;
        final_error = r.scalar("error")?.as_f64();
        iterations += 1;
        // Swap for the next iteration.
        r.swap_arrays("temp1", "temp2")?;
        if final_error < cfg.tol {
            break;
        }
    }
    r.exit_data("temp1")?;
    r.exit_data("temp2")?;
    let reduction_ms = r.device().config().cycles_to_ms(reduction_cycles);
    let total_ms = r.elapsed_ms();
    let grid = r.array("temp1")?.to_f64_vec();
    Ok(HeatResult {
        iterations,
        final_error,
        reduction_ms,
        total_ms,
        grid,
        sim: crate::SimWork::of(&r),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_converges_and_matches_cpu() {
        let cfg = HeatConfig {
            n: 16,
            tol: 1e-3,
            max_iters: 1000,
            ..Default::default()
        };
        let res = run_heat(&cfg, CompilerOptions::openuh()).unwrap();
        assert!(res.iterations > 1);
        assert!(res.final_error < 1e-3, "error {}", res.final_error);
        // CPU reference for the same number of iterations.
        let n = cfg.n;
        let mut t1 = initial_grid(n);
        let mut t2 = t1.clone();
        for _ in 0..res.iterations {
            cpu_step(&t1, &mut t2, n);
            std::mem::swap(&mut t1, &mut t2);
        }
        for (g, c) in res.grid.iter().zip(&t1) {
            assert!((g - c).abs() < 1e-9, "grid mismatch: {g} vs {c}");
        }
        assert!(res.reduction_ms > 0.0);
        assert!(res.total_ms >= res.reduction_ms);
    }

    #[test]
    fn error_decreases_monotonically_early() {
        // The max-difference must shrink as the solution relaxes.
        let cfg = HeatConfig {
            n: 24,
            tol: 0.0,
            max_iters: 10,
            ..Default::default()
        };
        let r1 = run_heat(
            &HeatConfig {
                max_iters: 2,
                ..cfg
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        let r2 = run_heat(
            &HeatConfig {
                max_iters: 10,
                ..cfg
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        assert!(r2.final_error < r1.final_error);
    }
}
