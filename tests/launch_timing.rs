//! Tier-1 check of the launch timing model, where the root package's
//! `cargo test` sees it. The schedule in `gpsim::cost` turns every
//! committed block's raw cycles into modelled time; the launch's stats, its
//! profile and the session timeline all read that one schedule. Here, on a
//! grid with more blocks than SMs and unequal work per block, at
//! `host_threads` {1, 4} × `ExecTier` {Auto, Interpret}:
//! - the launch cycles agree everywhere they are reported, and each SM's
//!   block spans tile its total;
//! - a launch whose block `k` fails leaves the same partial profile on
//!   every setting: `k + 1` blocks, an empty span for block `k`, not
//!   completed;
//! - a launch rejected before any block ran still records its profile:
//!   the launch overhead alone, on idle SMs.

use uhacc::sim::{
    BinOp, CmpOp, CostModel, Device, DeviceConfig, ExecTier, Kernel, KernelBuilder, LaunchConfig,
    LaunchProfile, LaunchStats, MemRef, SessionProfile, SimError, SpanKind, SpecialReg, Ty, Value,
};

const BLOCKS: u32 = 7;
const THREADS: u32 = 96;

fn settings() -> Vec<(u32, ExecTier)> {
    let mut out = Vec::new();
    for threads in [1, 4] {
        for tier in [ExecTier::Auto, ExecTier::Interpret] {
            out.push((threads, tier));
        }
    }
    out
}

fn device(host_threads: u32, exec_tier: ExecTier) -> Device {
    let cfg = DeviceConfig {
        host_threads,
        exec_tier,
        profile: true,
        ..DeviceConfig::test_small()
    };
    assert!(cfg.num_sms < BLOCKS, "the grid must wrap around the SMs");
    Device::new(cfg, CostModel::default())
}

/// Block `b` loops `20 * (b % 3 + 1)` times, then stores its sum to
/// `out[gid]`; with `fail_block`, that block then divides by zero.
fn kernel(fail_block: Option<i32>) -> Kernel {
    let mut b = KernelBuilder::new("uneven");
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let phase = b.bin(BinOp::Rem, Ty::I32, ctaid, Value::I32(3));
    let phase1 = b.bin(BinOp::Add, Ty::I32, phase, Value::I32(1));
    let trips = b.bin(BinOp::Mul, Ty::I32, phase1, Value::I32(20));
    let acc = b.mov_imm(Value::I32(0));
    let i = b.mov_imm(Value::I32(0));
    let top = b.new_label();
    let done = b.new_label();
    b.place(top);
    let c = b.cmp(CmpOp::Ge, Ty::I32, i, trips);
    b.bra_if(c, done);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, i);
    b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(1));
    b.bra(top);
    b.place(done);
    let base = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
    let gid = b.bin(BinOp::Add, Ty::I32, base, tid);
    let gid64 = b.cvt(Ty::I64, gid);
    b.st_global(Ty::I32, MemRef::indexed(out, gid64, 4), acc);
    if let Some(k) = fail_block {
        let is_k = b.cmp(CmpOp::Eq, Ty::I32, ctaid, Value::I32(k));
        let skip = b.new_label();
        b.bra_unless(is_k, skip);
        let zero = b.mov_imm(Value::I32(0));
        let _ = b.bin(BinOp::Div, Ty::I32, Value::I32(1), zero);
        b.place(skip);
    }
    b.finish()
}

/// Launch `k` on a fresh device: the launch result, the session's profile
/// and the typed tier's declines.
fn launch(
    k: &Kernel,
    threads: u32,
    tier: ExecTier,
) -> (Result<LaunchStats, SimError>, SessionProfile, u64) {
    let mut d = device(threads, tier);
    let out = d.alloc_elems(Ty::I32, (BLOCKS * THREADS) as u64).unwrap();
    let params = [Value::U64(out.addr)];
    let result = d.launch(k, LaunchConfig::d1(BLOCKS, THREADS), &params);
    let declines = d.tier_declines();
    (result, d.take_profile(), declines)
}

fn only_launch(prof: &SessionProfile) -> &LaunchProfile {
    assert_eq!(prof.launches.len(), 1);
    &prof.launches[0]
}

fn kernel_span_cycles(prof: &SessionProfile) -> u64 {
    let spans: Vec<_> = prof
        .timeline
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .collect();
    assert_eq!(spans.len(), 1);
    spans[0].cycles
}

/// Each SM's block spans start where the previous one on that SM ended
/// and add up to the SM's total.
fn assert_spans_tile_sms(lp: &LaunchProfile) {
    let mut end = vec![0u64; lp.sm_cycles.len()];
    for s in &lp.block_spans {
        let sm = s.sm as usize;
        assert_eq!(
            s.start, end[sm],
            "block {} starts off its SM's tail",
            s.block
        );
        end[sm] += s.cycles;
    }
    assert_eq!(end, lp.sm_cycles);
}

#[test]
fn launch_cycles_agree_everywhere_they_are_reported() {
    let k = kernel(None);
    let mut first: Option<(LaunchStats, String)> = None;
    for (threads, tier) in settings() {
        let (result, prof, declines) = launch(&k, threads, tier);
        assert_eq!(declines, 0, "the typed tier must accept this kernel");
        let stats = result.unwrap();
        let lp = only_launch(&prof);
        let overhead = CostModel::default().launch_overhead;
        assert_eq!(lp.launch_overhead, overhead);
        assert_eq!(
            lp.sm_cycles.len(),
            DeviceConfig::test_small().num_sms as usize
        );
        let busiest = *lp.sm_cycles.iter().max().unwrap();
        assert_eq!(stats.cycles, lp.cycles);
        assert_eq!(stats.cycles, busiest + overhead);
        assert_eq!(stats.cycles, kernel_span_cycles(&prof));
        assert_eq!(stats.blocks, BLOCKS as u64);
        assert!(lp.completed);
        assert_eq!(lp.block_spans.len(), BLOCKS as usize);
        assert_spans_tile_sms(lp);
        // Unequal work: the SMs are not all equally busy.
        assert!(
            lp.sm_cycles.iter().any(|&c| c != busiest),
            "{:?}",
            lp.sm_cycles
        );
        let seen = (stats, prof.to_json());
        match &first {
            None => first = Some(seen),
            Some(f) => assert_eq!(f, &seen, "threads {threads}, tier {tier}"),
        }
    }
}

#[test]
fn a_failed_block_leaves_the_same_partial_profile_on_every_setting() {
    const K: u32 = 3;
    let k = kernel(Some(K as i32));
    let mut first: Option<String> = None;
    for (threads, tier) in settings() {
        let (result, prof, _) = launch(&k, threads, tier);
        assert_eq!(result.unwrap_err(), SimError::DivisionByZero);
        let lp = only_launch(&prof);
        assert!(!lp.completed);
        assert_eq!(lp.blocks, K as u64 + 1);
        assert_eq!(lp.block_spans.len(), K as usize + 1);
        let failed = &lp.block_spans[K as usize];
        assert_eq!((failed.block, failed.cycles), (K, 0));
        assert!(lp.totals().cycles() > 0, "the partial attribution is kept");
        assert_spans_tile_sms(lp);
        let busiest = *lp.sm_cycles.iter().max().unwrap();
        assert_eq!(lp.cycles, busiest + lp.launch_overhead);
        assert_eq!(lp.cycles, kernel_span_cycles(&prof));
        let json = prof.to_json();
        match &first {
            None => first = Some(json),
            Some(f) => assert_eq!(f, &json, "threads {threads}, tier {tier}"),
        }
    }
}

#[test]
fn a_rejected_launch_records_the_overhead_on_idle_sms() {
    let mut b = KernelBuilder::new("too_much_shared");
    b.alloc_shared(64 * 1024, 4);
    let k = b.finish();
    for (threads, tier) in settings() {
        let (result, prof, _) = launch(&k, threads, tier);
        assert!(
            matches!(result, Err(SimError::SharedMemExceeded { .. })),
            "{result:?}"
        );
        let lp = only_launch(&prof);
        let overhead = CostModel::default().launch_overhead;
        assert!(!lp.completed);
        assert_eq!(lp.blocks, 0);
        assert!(lp.block_spans.is_empty());
        assert_eq!(
            lp.sm_cycles,
            vec![0; DeviceConfig::test_small().num_sms as usize]
        );
        assert_eq!((lp.cycles, lp.launch_overhead), (overhead, overhead));
        assert_eq!(kernel_span_cycles(&prof), overhead);
    }
}
