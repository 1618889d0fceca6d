//! Property tests for the static verifier (`gpsim::verify`) against real
//! codegen output: knob-free kernels must verify with zero error-level
//! findings over random geometries — non-power-of-two vectors included —
//! while each statically-catchable barrier knob must be flagged as a
//! racecheck error on every geometry where the defect is live.
//!
//! Two of the injected bugs are *value* bugs, not hazard bugs:
//! `skip_init_fold` (drops the initial-value fold) and
//! `clause_levels_only` (reduces over the wrong span). Both produce
//! wrong numbers through perfectly synchronized, in-bounds memory
//! traffic, so no hazard analysis — static or dynamic — can see them;
//! the correctness suite ([`acc_testsuite::run_suite`]) is what catches
//! those. A deterministic test below pins that boundary down.

use acc_testsuite::{case_source, Position};
use accparse::ast::{CType, RedOp};
use gpsim::{verify_kernel, VerifyClass, VerifyConfig, VerifyReport};
use proptest::prelude::*;
use uhacc_core::{compile_region, CompilerOptions, LaunchDims, VectorLayout, WorkerStrategy};

/// Compile one testsuite case and statically verify the main kernel and
/// every finalize kernel at the launch geometry the runtime would use.
fn verify_case(
    pos: Position,
    op: RedOp,
    t: CType,
    dims: LaunchDims,
    opts: &CompilerOptions,
) -> Vec<VerifyReport> {
    let src = case_source(pos, op, t);
    let hir = accparse::compile(&src).expect("testsuite case parses");
    let c = compile_region(&hir, 0, dims, opts).expect("testsuite case compiles");
    let vc = VerifyConfig::default();
    c.launches()
        .map(|l| verify_kernel(l.kernel, l.config, &vc))
        .collect()
}

fn errors(reports: &[VerifyReport]) -> u64 {
    reports.iter().map(|r| r.errors()).sum()
}

fn race_errors(reports: &[VerifyReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|f| f.class == VerifyClass::RaceCheck && !f.warning)
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Knob-free kernels are statically hazard-free at any geometry, for
    /// every layout x worker-strategy combination of the paper's design
    /// space. Warnings (unproven accesses, bank conflicts) are allowed;
    /// error-level findings are not.
    #[test]
    fn knob_free_kernels_verify_clean(
        gangs in 1u32..6,
        workers in 1u32..5,
        vector in prop::sample::select(vec![1u32, 7, 16, 24, 33, 48, 64, 80, 100, 128]),
        transposed in any::<bool>(),
        duplicate_rows in any::<bool>(),
        pos in prop::sample::select(vec![Position::Vector, Position::Worker, Position::WorkerVector]),
    ) {
        let mut opts = CompilerOptions::openuh();
        if transposed {
            opts.vector_layout = VectorLayout::Transposed;
        }
        if duplicate_rows {
            opts.worker_strategy = WorkerStrategy::DuplicateRows;
        }
        let dims = LaunchDims { gangs, workers, vector };
        let reports = verify_case(pos, RedOp::Add, CType::Int, dims, &opts);
        prop_assert_eq!(errors(&reports), 0, "reports: {:?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    }

    /// A missing post-broadcast barrier is a static race wherever the
    /// broadcast crosses warps (more than one warp per block).
    #[test]
    fn skip_bcast_barrier_is_flagged(
        gangs in 1u32..6,
        workers in 1u32..5,
        vector in prop::sample::select(vec![64u32, 96, 128]),
    ) {
        let mut opts = CompilerOptions::openuh();
        opts.bugs.skip_bcast_barrier = true;
        let dims = LaunchDims { gangs, workers, vector };
        let reports = verify_case(Position::Vector, RedOp::Add, CType::Int, dims, &opts);
        prop_assert!(race_errors(&reports) > 0, "reports: {:?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    }

    /// A missing post-read barrier lets the next combine's staging stores
    /// overwrite the transposed slab while other warps still read it.
    #[test]
    fn skip_postread_barrier_is_flagged(
        gangs in 1u32..6,
        workers in 2u32..5,
        vector in prop::sample::select(vec![64u32, 96, 128]),
    ) {
        let mut opts = CompilerOptions::openuh();
        opts.vector_layout = VectorLayout::Transposed;
        opts.bugs.skip_postread_barrier = true;
        let dims = LaunchDims { gangs, workers, vector };
        let reports = verify_case(Position::Vector, RedOp::Add, CType::Int, dims, &opts);
        prop_assert!(race_errors(&reports) > 0, "reports: {:?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    }

    /// Dropping the `s > WARP_SIZE` barrier guard ("it worked on one
    /// warp") races when some row's post-barrier tree writes straddle a
    /// warp boundary. Row 0 is always lane-aligned, so at least two
    /// workers are needed, and the row stride (= vector) must both
    /// exceed a warp and misalign later rows *with a wide enough tree*:
    /// v = 80 or 112 (rounded-down-pow2 64, step-32 writes cross lane
    /// 32·k). v = 48 is a near-miss that stays safe — its 16-wide tree
    /// writes never cross a boundary — and the verifier proves that.
    #[test]
    fn warp_tail_everywhere_is_flagged(
        gangs in 1u32..6,
        workers in 2u32..5,
        vector in prop::sample::select(vec![80u32, 112]),
    ) {
        let mut opts = CompilerOptions::openuh();
        opts.bugs.warp_tail_everywhere = true;
        let dims = LaunchDims { gangs, workers, vector };
        let reports = verify_case(Position::Vector, RedOp::Add, CType::Int, dims, &opts);
        prop_assert!(race_errors(&reports) > 0, "reports: {:?}",
            reports.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    }
}

/// The two *value* bugs are invisible to hazard analysis by design:
/// memory traffic is fully synchronized and in bounds, only the numbers
/// are wrong. The static verifier must stay silent — flagging them would
/// be a false positive, and detecting them is the correctness suite's
/// job, not kverify's.
#[test]
fn value_bugs_are_invisible_to_hazard_analysis() {
    let dims = LaunchDims {
        gangs: 8,
        workers: 4,
        vector: 64,
    };
    for knob in [
        |o: &mut CompilerOptions| o.bugs.skip_init_fold = true,
        |o: &mut CompilerOptions| o.bugs.clause_levels_only = true,
    ] {
        let mut opts = CompilerOptions::openuh();
        knob(&mut opts);
        let reports = verify_case(Position::Vector, RedOp::Add, CType::Int, dims, &opts);
        assert_eq!(errors(&reports), 0);
    }
}

/// The bank-conflict diagnostic (satellite of §3.3's layout discussion):
/// the row-wise slab keeps a warp's staging stores on distinct banks,
/// while the transposed slab strides them by the worker count — at 4
/// workers every 32-thread store hits only 8 of the 32 banks.
#[test]
fn transposed_layout_bank_conflicts_are_warned_row_wise_not() {
    let dims = LaunchDims {
        gangs: 8,
        workers: 4,
        vector: 64,
    };
    let row_wise = verify_case(
        Position::Vector,
        RedOp::Add,
        CType::Int,
        dims,
        &CompilerOptions::openuh(),
    );
    let mut opts = CompilerOptions::openuh();
    opts.vector_layout = VectorLayout::Transposed;
    let transposed = verify_case(Position::Vector, RedOp::Add, CType::Int, dims, &opts);
    let conflicts = |rs: &[VerifyReport]| -> u64 {
        rs.iter().map(|r| r.count(VerifyClass::BankConflict)).sum()
    };
    assert_eq!(
        conflicts(&row_wise),
        0,
        "row-wise int slab is conflict-free"
    );
    assert!(
        conflicts(&transposed) > 0,
        "transposed slab must warn about bank conflicts"
    );
    // Both remain *errors-free*: the diagnostic is warn-only.
    assert_eq!(errors(&row_wise), 0);
    assert_eq!(errors(&transposed), 0);
}
