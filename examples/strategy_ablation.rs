//! Compare the paper's codegen strategy choices head to head on one
//! reduction: every `CompilerOptions` knob from §3.1–§3.3, plus the two
//! commercial-compiler personalities.
//!
//! Run with: `cargo run --release --example strategy_ablation`

use uhacc::baselines::Compiler;
use uhacc::core::{CombineSpace, Schedule, TreeStyle, VectorLayout, WorkerStrategy};
use uhacc::parse::ast::{CType, RedOp};
use uhacc::prelude::*;
use uhacc::testsuite::run::{reference, run_verified, Expected};
use uhacc::testsuite::{Case, Position, SuiteConfig};

/// The testsuite's vector-position `+` case over ints, under `opts`.
fn vector_case(label: &str, opts: CompilerOptions) -> Case {
    Case::new(label, opts, Position::Vector, RedOp::Add, CType::Int)
}

fn run_with(case: Case, cfg: &SuiteConfig, want: &Expected) {
    let r = run_verified(&case, cfg, want)
        .unwrap_or_else(|status| panic!("{} produced a wrong result: {status:?}", case.label));
    let st = r.device().stats();
    println!(
        "  {:<34} {:>9.3} ms   bank-ways/access {:>5.2}   tx/access {:>5.2}   OK",
        case.label,
        r.elapsed_ms(),
        st.totals.conflict_ways_per_access().unwrap_or(f64::NAN),
        st.totals.transactions_per_access().unwrap_or(f64::NAN),
    );
}

fn main() {
    let cfg = SuiteConfig {
        red_n: 16 * 1024,
        dims: LaunchDims {
            gangs: 4,
            workers: 8,
            vector: 128,
        },
        ..SuiteConfig::default()
    };
    // Host expectation, shared by every row.
    let want = reference(Position::Vector, RedOp::Add, CType::Int, &cfg);

    println!("vector `+` reduction, 2x32x16384 ints — strategy ablation (paper §3):\n");
    let base = CompilerOptions::openuh();
    for (label, opts) in [
        ("OpenUH defaults (Fig. 6c row-wise)", base.clone()),
        (
            "transposed layout (Fig. 6b)",
            CompilerOptions {
                vector_layout: VectorLayout::Transposed,
                ..base.clone()
            },
        ),
        (
            "blocking schedule (no coalescing)",
            CompilerOptions {
                schedule: Schedule::Blocking,
                ..base.clone()
            },
        ),
        (
            "looped tree (barrier per step)",
            CompilerOptions {
                tree: TreeStyle::Looped,
                ..base.clone()
            },
        ),
        (
            "global-memory staging (§3.3)",
            CompilerOptions {
                combine_space: CombineSpace::Global,
                ..base.clone()
            },
        ),
        (
            "duplicate-rows workers (Fig. 8b)",
            CompilerOptions {
                worker_strategy: WorkerStrategy::DuplicateRows,
                ..base.clone()
            },
        ),
    ] {
        run_with(vector_case(label, opts), &cfg, &want);
    }
    println!("\ncompiler personalities on the same case:\n");
    for c in Compiler::all() {
        run_with(vector_case(c.name(), c.base_options()), &cfg, &want);
    }
}
