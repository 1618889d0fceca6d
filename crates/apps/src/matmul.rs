//! Matrix multiplication with a parallelized inner-product loop (paper §4,
//! Fig. 12b / Fig. 13b).
//!
//! "Most developers usually only parallelize the outer two loops and let
//! the third loop execute sequentially ... However we can also parallelize
//! the third loop because essentially it just includes the sum reduction
//! operations." The k loop is distributed over vector threads with
//! `reduction(+:c)` — the paper's Fig. 13b shape: gang on i, worker on j,
//! vector on k.

use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::Device;
use uhacc_core::{CompilerOptions, LaunchDims};

/// Fig. 13b, verbatim shape.
pub(crate) const MATMUL_SRC: &str = r#"
int n;
double A[n][n];
double B[n][n];
double C[n][n];
#pragma acc parallel copyin(A) copyin(B) copyout(C)
{
    #pragma acc loop gang
    for (int i = 0; i < n; i++) {
        #pragma acc loop worker
        for (int j = 0; j < n; j++) {
            double c = 0.0;
            #pragma acc loop vector reduction(+:c)
            for (int k = 0; k < n; k++) {
                c += A[i][k] * B[k][j];
            }
            C[i][j] = c;
        }
    }
}
"#;

/// The naive variant the paper contrasts against: the k loop stays
/// sequential (`loop seq`), only i/j are parallel.
pub(crate) const MATMUL_SEQ_K_SRC: &str = r#"
int n;
double A[n][n];
double B[n][n];
double C[n][n];
#pragma acc parallel copyin(A) copyin(B) copyout(C)
{
    #pragma acc loop gang
    for (int i = 0; i < n; i++) {
        #pragma acc loop worker vector
        for (int j = 0; j < n; j++) {
            double c = 0.0;
            #pragma acc loop seq reduction(+:c)
            for (int k = 0; k < n; k++) {
                c += A[i][k] * B[k][j];
            }
            C[i][j] = c;
        }
    }
}
"#;

/// Result of one matmul run.
#[derive(Debug, Clone)]
pub struct MatmulResult {
    /// Modelled kernel milliseconds.
    pub kernel_ms: f64,
    /// The product matrix, row-major.
    pub c: Vec<f64>,
    /// Simulator-side work of the run.
    pub sim: crate::SimWork,
}

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Matrix edge (paper sweeps sizes; scaled default).
    pub n: usize,
    pub dims: LaunchDims,
    /// Use the vector-parallel reduction k loop (Fig. 13b) or the naive
    /// sequential-k variant.
    pub parallel_k: bool,
}

impl Default for MatmulConfig {
    fn default() -> Self {
        MatmulConfig {
            n: 64,
            dims: LaunchDims {
                gangs: 64,
                workers: 4,
                vector: 64,
            },
            parallel_k: true,
        }
    }
}

/// Deterministic test matrices.
pub fn test_matrices(n: usize) -> (Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..n * n).map(|x| ((x % 7) as f64 - 3.0) * 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|x| ((x % 5) as f64 - 2.0) * 0.25).collect();
    (a, b)
}

/// CPU reference product.
pub fn cpu_matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Run the matmul on the simulated device.
pub fn run_matmul(cfg: &MatmulConfig, opts: CompilerOptions) -> Result<MatmulResult, AccError> {
    run_matmul_on(cfg, opts, Device::default())
}

/// [`run_matmul`] on a device the caller configured (execution tier, host
/// threads).
pub fn run_matmul_on(
    cfg: &MatmulConfig,
    opts: CompilerOptions,
    device: Device,
) -> Result<MatmulResult, AccError> {
    let n = cfg.n;
    let src = if cfg.parallel_k {
        MATMUL_SRC
    } else {
        MATMUL_SEQ_K_SRC
    };
    let mut r = AccRunner::with_options(src, opts, cfg.dims, device)?;
    r.bind_int("n", n as i64)?;
    let (a, b) = test_matrices(n);
    r.bind_array("A", HostBuffer::from_f64(&a))?;
    r.bind_array("B", HostBuffer::from_f64(&b))?;
    r.bind_array("C", HostBuffer::new(accparse::CType::Double, n * n))?;
    r.run()?;
    let st = r.device().stats();
    let kernel_ms = r.device().config().cycles_to_ms(st.kernel_cycles);
    Ok(MatmulResult {
        kernel_ms,
        c: r.array("C")?.to_f64_vec(),
        sim: crate::SimWork::of(&r),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_cpu() {
        let cfg = MatmulConfig {
            n: 24,
            ..Default::default()
        };
        let res = run_matmul(&cfg, CompilerOptions::openuh()).unwrap();
        let (a, b) = test_matrices(cfg.n);
        let want = cpu_matmul(&a, &b, cfg.n);
        for (g, w) in res.c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn seq_k_variant_matches_cpu() {
        let cfg = MatmulConfig {
            n: 20,
            parallel_k: false,
            ..Default::default()
        };
        let res = run_matmul(&cfg, CompilerOptions::openuh()).unwrap();
        let (a, b) = test_matrices(cfg.n);
        let want = cpu_matmul(&a, &b, cfg.n);
        for (g, w) in res.c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn kernel_time_positive_and_size_monotone() {
        let small = run_matmul(
            &MatmulConfig {
                n: 16,
                ..Default::default()
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        let big = run_matmul(
            &MatmulConfig {
                n: 48,
                ..Default::default()
            },
            CompilerOptions::openuh(),
        )
        .unwrap();
        assert!(small.kernel_ms > 0.0);
        assert!(big.kernel_ms > small.kernel_ms);
    }
}
