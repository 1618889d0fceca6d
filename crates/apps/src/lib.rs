//! # acc-apps — the paper's three real-world applications
//!
//! §4 of the paper evaluates the reduction implementation on three
//! applications beyond the synthetic testsuite:
//!
//! - [`heat2d`] — 2D heat equation: Jacobi relaxation with a
//!   `reduction(max:error)` convergence test every iteration (Fig. 12a).
//! - [`matmul`] — matrix multiplication with the inner-product k loop
//!   parallelized as a vector `+` reduction (Fig. 12b).
//! - [`pi`] — Monte Carlo PI with a gang+vector `+` reduction over
//!   host-pregenerated sample points (Fig. 12c).
//!
//! Every app verifies its device result against a plain CPU computation.

pub mod heat2d;
pub mod matmul;
pub mod pi;

pub use heat2d::{run_heat, run_heat_on, HeatConfig, HeatResult};
pub use matmul::{run_matmul, run_matmul_on, MatmulConfig, MatmulResult};
pub use pi::{run_pi, run_pi_on, PiConfig, PiResult};

/// The simulator-side work of one application run: what `make-figures
/// sim-throughput` divides wall-clock by, and what the typed tier decided
/// while doing it.
#[derive(Debug, Clone, Copy)]
pub struct SimWork {
    /// Simulated lane-instructions executed.
    pub lane_insts: u64,
    /// The typed tier's shape census (all zero under the interpreter).
    pub census: gpsim::ShapeCensus,
    /// The session's modelled counts (`lane_insts` is one of them): the
    /// application's cell of `BENCH_modelled.json`.
    pub stats: gpsim::SessionStats,
}

impl SimWork {
    pub(crate) fn of(r: &accrt::AccRunner) -> Self {
        let stats = *r.device().stats();
        SimWork {
            lane_insts: stats.totals.lane_insts,
            census: r.device().shape_census(),
            stats,
        }
    }
}

/// Every application's directive source, for tooling that sweeps over
/// real codes (the lint testsuite asserts all of them are finding-free).
pub fn all_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("heat2d", heat2d::HEAT_SRC),
        ("matmul", matmul::MATMUL_SRC),
        ("matmul-seq-k", matmul::MATMUL_SEQ_K_SRC),
        ("pi", pi::PI_SRC),
    ]
}
