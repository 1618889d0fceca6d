//! The paged shadow table against what it replaced.
//!
//! - `Paged` is model-checked against the `HashMap<u64, T>` both checkers
//!   used to keep, over addresses that cluster at page boundaries, at 0 and
//!   at `u64::MAX`.
//! - The sanitizer's launch-wide global shadow is held against the *old*
//!   per-byte `HashMap` replay, kept here as an oracle: same random access
//!   streams in, same reports (every field and the rendered text) and the
//!   same hazard count out.
//! - Hostile addresses — a range that saturates at `u64::MAX`, a stride of
//!   exactly one shadow page, a wild pointer the bounds check rejects after
//!   the sanitizer observed it — stay cheap and total in both checkers.

use std::collections::{HashMap, HashSet};

use gpsim::shadow::Paged;
use gpsim::{
    run_symbolic, AccessInfo, AccessKind, BlockSanitizer, CertConfig, Device, HazardClass,
    HazardReport, KernelBuilder, LaunchConfig, LaunchSanitizer, MemRef, SVal, SanitizerConfig,
    SanitizerLevel, SimError, Space, SpecialReg, SymMemory, TermPool, Ty, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Paged<T> against HashMap<u64, T>
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TableOp {
    /// `*slot(addr) = v`
    Insert(u64, u32),
    /// `*slot(addr) += v` (the `entry().or_default()` use)
    Bump(u64, u32),
    Get(u64),
    Clear,
    Iter,
}

/// Addresses a few cells either side of a page boundary of either table
/// size under test, of 0 and of `u64::MAX`.
fn clustered_addr() -> impl Strategy<Value = u64> {
    let anchors = vec![
        0u64,
        1 << 4,
        3 << 4,
        1 << 12,
        5 << 12,
        1 << 32,
        u64::MAX - (1 << 12),
        u64::MAX,
    ];
    (prop::sample::select(anchors), -20i64..21).prop_map(|(a, d)| a.saturating_add_signed(d))
}

fn table_op() -> impl Strategy<Value = TableOp> {
    let addr = clustered_addr;
    prop_oneof![
        (addr(), 1u32..1000).prop_map(|(a, v)| TableOp::Insert(a, v)),
        (addr(), 1u32..1000).prop_map(|(a, v)| TableOp::Insert(a, v)),
        (addr(), 0u32..3).prop_map(|(a, v)| TableOp::Bump(a, v)),
        addr().prop_map(TableOp::Get),
        addr().prop_map(TableOp::Get),
        (0u32..12).prop_map(|k| if k == 0 {
            TableOp::Clear
        } else {
            TableOp::Iter
        }),
    ]
}

/// Run `ops` against a `Paged<u32, BITS>` and the map it stands in for.
fn check_against_model<const BITS: u32>(ops: &[TableOp]) -> Result<(), TestCaseError> {
    let mut table: Paged<u32, BITS> = Paged::default();
    let mut model: HashMap<u64, u32> = HashMap::new();
    // Pages the model touched for writing since the last clear.
    let mut touched: HashSet<u64> = HashSet::new();
    for op in ops {
        match *op {
            TableOp::Insert(a, v) => {
                *table.slot(a) = v;
                model.insert(a, v);
                touched.insert(a >> BITS);
            }
            TableOp::Bump(a, v) => {
                *table.slot(a) += v;
                *model.entry(a).or_default() += v;
                touched.insert(a >> BITS);
            }
            TableOp::Get(a) => {
                prop_assert_eq!(*table.get(a), model.get(&a).copied().unwrap_or_default());
            }
            TableOp::Clear => {
                table.clear();
                model.clear();
                touched.clear();
            }
            TableOp::Iter => {
                let cells: Vec<(u64, u32)> = table.iter().map(|(a, &v)| (a, v)).collect();
                prop_assert_eq!(cells.len(), touched.len() << BITS);
                prop_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
                let stored: Vec<_> = cells.into_iter().filter(|&(_, v)| v != 0).collect();
                let mut expect: Vec<_> = model
                    .iter()
                    .map(|(&a, &v)| (a, v))
                    .filter(|&(_, v)| v != 0)
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(stored, expect);
            }
        }
        // A read never allocates; a write allocates exactly its page.
        prop_assert_eq!(table.pages(), touched.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn paged_table_matches_the_hash_map_it_replaced(
        ops in prop::collection::vec(table_op(), 1..120),
    ) {
        check_against_model::<4>(&ops)?;
        check_against_model::<12>(&ops)?;
    }
}

// ---------------------------------------------------------------------------
// The global shadow against the old per-byte HashMap replay
// ---------------------------------------------------------------------------

/// The launch-wide replay as it was before the paged table: one
/// `HashMap` entry per shadowed byte holding three whole `AccessInfo`s.
/// Test-only; the reference the new shadow is compared against.
struct OldReplay {
    cfg: SanitizerConfig,
    reports: Vec<HazardReport>,
    count: u64,
    seen: HashSet<(HazardClass, usize, usize)>,
    /// `[last_write, last_read, other_read]` per byte.
    global: HashMap<u64, [Option<AccessInfo>; 3]>,
}

impl OldReplay {
    fn new(cfg: SanitizerConfig) -> Self {
        OldReplay {
            cfg,
            reports: Vec::new(),
            count: 0,
            seen: HashSet::new(),
            global: HashMap::new(),
        }
    }

    fn access(&mut self, acc: AccessInfo, addr: u64, size: usize) {
        let ignored = |&(s, e): &(u64, u64)| addr >= s && addr < e;
        if !self.cfg.level.race() || self.cfg.global_ignore.iter().any(ignored) {
            return;
        }
        let kind = acc.kind;
        let foreign = |p: &AccessInfo| p.block != acc.block;
        for b in addr..addr.saturating_add(size as u64) {
            let cell = self.global.entry(b).or_default();
            let prior = match kind {
                AccessKind::Read => cell[0].filter(foreign),
                _ => cell[0]
                    .filter(|p| {
                        foreign(p) && !(kind == AccessKind::Atomic && p.kind == AccessKind::Atomic)
                    })
                    .or(cell[1].filter(foreign))
                    .or(cell[2].filter(foreign)),
            };
            if kind.writes() {
                cell[0] = Some(acc);
            } else {
                if let Some(lr) = cell[1].filter(foreign) {
                    cell[2] = Some(lr);
                }
                cell[1] = Some(acc);
            }
            let Some(p) = prior else { continue };
            if !self.seen.insert((HazardClass::RaceCheck, p.pc, acc.pc)) {
                continue;
            }
            self.count += 1;
            if self.reports.len() < self.cfg.max_reports {
                self.reports.push(HazardReport {
                    class: HazardClass::RaceCheck,
                    space: Space::Global,
                    addr: b,
                    first: Some(p),
                    second: Some(acc),
                    detail: format!(
                        "global address {b:#x}: {acc} conflicts with {p} — \
                         different blocks, no synchronization within a launch"
                    ),
                });
            }
        }
    }
}

/// One step of a block's life as the executors drive a `BlockSanitizer`.
#[derive(Debug, Clone)]
enum BlockStep {
    Global {
        thread: u32,
        pc: usize,
        addr: u64,
        size: usize,
        kind: AccessKind,
    },
    Barrier,
}

fn block_step() -> impl Strategy<Value = BlockStep> {
    // A handful of bytes around a shadow-page boundary, an ignore range, 0
    // and the top of the address space, so blocks collide and accesses
    // straddle pages and ends.
    let anchors = vec![0u64, 0x1000 - 4, 0x1000, 0x2000 - 3, 0x3000, u64::MAX - 9];
    let addr = (prop::sample::select(anchors), 0u64..12).prop_map(|(a, d)| a.saturating_add(d));
    let size = prop::sample::select(vec![1usize, 2, 4, 8]);
    let kind = prop::sample::select(vec![
        AccessKind::Read,
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Atomic,
    ]);
    // One step in five is a barrier release.
    (0u32..5, 0u32..64, 0usize..7, addr, size, kind).prop_map(
        |(k, thread, pc, addr, size, kind)| match k {
            0 => BlockStep::Barrier,
            _ => BlockStep::Global {
                thread,
                pc,
                addr,
                size,
                kind,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn global_shadow_matches_the_old_per_byte_map(
        blocks in prop::collection::vec(prop::collection::vec(block_step(), 0..24), 2..7),
        ignore in any::<bool>(),
        race in 0u32..8,
    ) {
        let cfg = SanitizerConfig {
            // Mostly racecheck on; `Init` exercises the level gate.
            level: if race == 0 { SanitizerLevel::Init } else { SanitizerLevel::Full },
            max_reports: 2,
            global_ignore: if ignore { vec![(0x1002, 0x1006), (0x3000, 0x3004)] } else { vec![] },
        };
        let mut new = LaunchSanitizer::new(cfg.clone());
        let mut old = OldReplay::new(cfg.clone());
        for (id, steps) in blocks.iter().enumerate() {
            let block = (id as u32 % 3, id as u32 / 3);
            let mut b = BlockSanitizer::new(cfg.clone(), block, 0);
            let mut epoch = 0;
            for step in steps {
                match *step {
                    BlockStep::Barrier => {
                        b.barrier_release();
                        epoch += 1;
                    }
                    BlockStep::Global { thread, pc, addr, size, kind } => {
                        let warp = thread / 32;
                        b.global_access(thread, warp, pc, addr, size, kind);
                        let acc = AccessInfo { block, thread, warp, pc, epoch, kind };
                        old.access(acc, addr, size);
                    }
                }
            }
            new.merge_block(b);
        }
        prop_assert_eq!(new.hazard_count(), old.count);
        prop_assert_eq!(new.reports(), &old.reports[..]);
        let text = |rs: &[HazardReport]| rs.iter().map(|r| r.to_string()).collect::<Vec<_>>();
        prop_assert_eq!(text(new.reports()), text(&old.reports));
    }
}

// ---------------------------------------------------------------------------
// Hostile addresses: the sanitizer
// ---------------------------------------------------------------------------

/// Two blocks write 8 bytes at `u64::MAX - 3`: the byte range saturates
/// (three bytes, `..u64::MAX`), lands on the table's last page, and the
/// conflict is reported at its first byte.
#[test]
fn a_range_that_saturates_at_the_top_of_the_address_space() {
    let mut s = LaunchSanitizer::new(SanitizerConfig::full());
    for bx in 0..2 {
        let mut b = BlockSanitizer::new(SanitizerConfig::full(), (bx, 0), 0);
        b.global_access(0, 0, 7, u64::MAX - 3, 8, AccessKind::Write);
        s.merge_block(b);
    }
    assert_eq!(s.hazard_count(), 1);
    assert_eq!(s.reports()[0].addr, u64::MAX - 3);
    assert_eq!(s.shadow_pages(), 1);
}

/// One access per shadow page is the table's worst case: it must cost one
/// page per access and nothing more, and a straddling access two.
#[test]
fn one_access_per_page_allocates_one_page_each() {
    const PAGE: u64 = 1 << 12; // the global shadow's page: 4 Ki cells
    let mut s = LaunchSanitizer::new(SanitizerConfig::full());
    let mut b = BlockSanitizer::new(SanitizerConfig::full(), (0, 0), 0);
    // The last four bytes of 64 consecutive pages.
    let last_word = |page: u64| 0x10_0000 + (page + 1) * PAGE - 4;
    for i in 0..64 {
        b.global_access(i, 0, 3, last_word(u64::from(i)), 4, AccessKind::Write);
    }
    s.merge_block(b);
    assert_eq!(s.shadow_pages(), 64);
    let mut b = BlockSanitizer::new(SanitizerConfig::full(), (1, 0), 0);
    b.global_access(0, 0, 4, last_word(63) + 2, 4, AccessKind::Read);
    s.merge_block(b);
    assert_eq!(s.shadow_pages(), 65, "the straddle touched one new page");
    assert_eq!(
        s.hazard_count(),
        1,
        "and raced with the last store on the old one"
    );
}

/// Every thread of every block stores to `out + tid * stride_bytes`.
fn strided_store_kernel(stride_bytes: u64, wild: bool) -> gpsim::Kernel {
    let mut b = KernelBuilder::new("strided");
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    b.st_global(Ty::I32, MemRef::indexed(out, t64, stride_bytes), tid);
    if wild {
        // A second store far outside any allocation: observed by the
        // sanitizer, then rejected by the bounds check.
        b.st_global(
            Ty::I32,
            MemRef::indexed(Value::U64(u64::MAX - 3), t64, 4),
            tid,
        );
    }
    b.finish()
}

/// Launch `kernel` over two blocks with the sanitizer at `level` on
/// `host_threads` executor threads.
fn launch(
    kernel: &gpsim::Kernel,
    level: SanitizerLevel,
    host_threads: u32,
) -> (Result<u64, SimError>, Vec<HazardReport>) {
    let mut dev = Device::default();
    dev.set_host_threads(host_threads);
    dev.set_sanitizer(SanitizerConfig {
        level,
        ..Default::default()
    });
    let buf = dev.alloc(32 * 4096).unwrap();
    let r = dev.launch(kernel, LaunchConfig::d1(2, 32), &[Value::U64(buf.addr)]);
    (r.map(|stats| stats.hazards), dev.take_hazards())
}

/// Stores exactly one shadow page apart across a large buffer, from two
/// blocks: every store is its own page and its own cross-block conflict,
/// deduplicated to one report — identically at 1 and 4 host threads.
#[test]
fn stores_striding_one_page_apart_stay_cheap_and_deterministic() {
    let k = strided_store_kernel(4096, false);
    let (r1, h1) = launch(&k, SanitizerLevel::Full, 1);
    assert_eq!(r1, Ok(1));
    assert_eq!(h1.len(), 1);
    assert_eq!(h1[0].class, HazardClass::RaceCheck);
    let (r4, h4) = launch(&k, SanitizerLevel::Full, 4);
    assert_eq!((r1, h1), (r4, h4));
}

/// A wild pointer is observed by the sanitizer before the bounds check
/// rejects it: the launch fails with the very error an unsanitized launch
/// reports, at any thread count, and nothing panics or overflows on the
/// way (debug builds would).
#[test]
fn a_wild_pointer_fails_the_launch_with_the_same_error() {
    let k = strided_store_kernel(4, true);
    let (plain, none) = launch(&k, SanitizerLevel::Off, 1);
    assert!(
        matches!(plain, Err(SimError::GlobalOutOfBounds { addr, len: 4 }) if addr == u64::MAX - 3),
        "{plain:?}"
    );
    assert!(none.is_empty());
    for host_threads in [1, 4] {
        let (sanitized, _) = launch(&k, SanitizerLevel::Full, host_threads);
        assert_eq!(sanitized, plain, "host_threads {host_threads}");
    }
}

// ---------------------------------------------------------------------------
// Hostile addresses: redcert's symbolic memories
// ---------------------------------------------------------------------------

/// Symbolically run `kernel` over one 32-thread block against a single
/// `size`-byte output region.
fn certify_run(kernel: &gpsim::Kernel, size: u64) -> (Result<(), String>, SymMemory, u32) {
    let mut mem = SymMemory::new();
    let out = mem.alloc("out", size, None, false).unwrap();
    let mut pool = TermPool::new();
    let params = [SVal::C(Value::U64(mem.base(out)))];
    let r = run_symbolic(
        kernel,
        LaunchConfig::d1(1, 32),
        &params,
        &mut mem,
        &mut pool,
        &CertConfig::default(),
        &mut 0,
    );
    (r, mem, out)
}

/// A shared access at `u64::MAX - 3` passes the alignment test and its end
/// overflows: the executor answers with a reason (an `Unknown` verdict),
/// for loads and stores alike.
#[test]
fn cert_rejects_a_shared_offset_whose_end_overflows() {
    for store in [false, true] {
        let mut b = KernelBuilder::new("wild_shared");
        b.alloc_shared(128, 8);
        let at = MemRef::direct(Value::U64(u64::MAX - 3));
        if store {
            b.st_shared(Ty::I32, at, Value::I32(1));
        } else {
            b.ld_shared(Ty::I32, at);
        }
        let (r, ..) = certify_run(&b.finish(), 4);
        let reason = r.expect_err("a wild shared offset cannot be modelled");
        assert!(reason.contains("OOB shared"), "{reason}");
    }
}

/// A global store through a pointer outside every region — past the end of
/// one, and at the top of the address space — is a reason, not a panic.
#[test]
fn cert_rejects_wild_global_pointers() {
    for wild in [u64::MAX - 3, 4096] {
        let mut b = KernelBuilder::new("wild_global");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        b.st_global(Ty::I32, MemRef::direct(out).with_disp(wild as i64), tid);
        let (r, ..) = certify_run(&b.finish(), 64);
        let reason = r.expect_err("a wild global pointer cannot be modelled");
        assert!(reason.contains("unmapped address"), "{reason}");
    }
}

/// Stores one cell page (1 Ki offsets) apart across a large region: every
/// cell is found again, in order, and only its own offset is reported
/// written.
#[test]
fn cert_cells_striding_one_page_apart_are_all_kept() {
    let mut b = KernelBuilder::new("strided");
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    b.st_global(Ty::I32, MemRef::indexed(out, t64, 1024), tid);
    let (r, mem, out) = certify_run(&b.finish(), 32 * 1024);
    assert_eq!(r, Ok(()));
    let expect: Vec<u64> = (0..32).map(|t| t * 1024).collect();
    assert_eq!(mem.written_offsets(out), expect);
}
