//! The paged shadow table against what it replaced.
//!
//! - `Paged` is model-checked against the `HashMap<u64, T>` both checkers
//!   used to keep, over addresses that cluster at page boundaries, at 0 and
//!   at `u64::MAX`.
//! - The sanitizer's launch-wide global shadow is held against the *old*
//!   per-byte `HashMap` replay, kept here as an oracle: same random access
//!   streams in, same reports (every field and the rendered text) and the
//!   same hazard count out.
//! - Its shared-memory shadow — compact ids, judged once per access when
//!   the bytes agree — is held the same way against the old per-byte cells
//!   of whole `AccessInfo`s, on mixed streams of shared and global
//!   warp-steps, barriers and divergent barriers.
//! - Hostile addresses — a range that saturates at `u64::MAX`, a stride of
//!   exactly one shadow page, a wild pointer the bounds check rejects after
//!   the sanitizer observed it — stay cheap and total in both checkers.

use std::collections::{HashMap, HashSet};

use gpsim::shadow::Paged;
use gpsim::{
    run_symbolic, AccessInfo, AccessKind, BlockSanitizer, Device, HazardClass, HazardReport,
    KernelBuilder, LaunchConfig, LaunchSanitizer, MemRef, SVal, SanitizerConfig, SanitizerLevel,
    SimError, Space, SpecialReg, SymMemory, TermPool, Ty, Value,
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
        if self.cfg.global_ignore.iter().any(ignored) {
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
    ) {
        let cfg = SanitizerConfig {
            level: SanitizerLevel::Full,
            max_reports: 2,
            global_ignore: if ignore { vec![(0x1002, 0x1006), (0x3000, 0x3004)] } else { vec![] },
        };
        let mut new = LaunchSanitizer::new(cfg.clone());
        let mut old = OldReplay::new(cfg.clone());
        for (id, steps) in blocks.iter().enumerate() {
            let block = (id as u32 % 3, id as u32 / 3);
            let mut b = BlockSanitizer::new(cfg.clone(), 0);
            b.begin_block(block);
            let mut epoch = 0;
            for step in steps {
                match *step {
                    BlockStep::Barrier => {
                        b.barrier_release();
                        epoch += 1;
                    }
                    BlockStep::Global { thread, pc, addr, size, kind } => {
                        let warp = thread / 32;
                        let lane = [thread as usize];
                        b.warp_step(warp, pc, Space::Global, kind, &lane, &[(addr, size)]);
                        let acc = AccessInfo { block, thread, warp, pc, epoch, kind };
                        old.access(acc, addr, size);
                    }
                }
            }
            new.merge_block(&mut b.end_block());
        }
        prop_assert_eq!(new.hazard_count(), old.count);
        prop_assert_eq!(new.reports(), &old.reports[..]);
        let text = |rs: &[HazardReport]| rs.iter().map(|r| r.to_string()).collect::<Vec<_>>();
        prop_assert_eq!(text(new.reports()), text(&old.reports));
    }
}

// ---------------------------------------------------------------------------
// The shared shadow against the old per-byte cells
// ---------------------------------------------------------------------------

/// Old shadow of one shared byte: whole accesses, not ids.
#[derive(Clone, Default)]
struct OldSharedCell {
    written: bool,
    last_write: Option<AccessInfo>,
    last_read: Option<AccessInfo>,
    other_read: Option<AccessInfo>,
}

/// The block sanitizer as it was before compact ids: one lane at a time,
/// per byte, every judgement made again for every byte. Its log feeds
/// [`OldReplay`] in order. Test-only; the reference for the new one.
struct OldBlock {
    block: (u32, u32),
    epoch: u32,
    shared: Vec<OldSharedCell>,
    seen: HashSet<(HazardClass, usize, usize)>,
    log: Vec<OldEvent>,
}

enum OldEvent {
    Local((HazardClass, usize, usize), HazardReport),
    Global(AccessInfo, u64, usize),
}

impl OldBlock {
    fn new(block: (u32, u32), shared_bytes: usize) -> Self {
        OldBlock {
            block,
            epoch: 0,
            shared: vec![OldSharedCell::default(); shared_bytes],
            seen: HashSet::new(),
            log: Vec::new(),
        }
    }

    fn push(&mut self, report: HazardReport) {
        let key = (
            report.class,
            report.first.map_or(usize::MAX, |a| a.pc),
            report.second.map_or(usize::MAX, |a| a.pc),
        );
        if self.seen.insert(key) {
            self.log.push(OldEvent::Local(key, report));
        }
    }

    fn shared_access(
        &mut self,
        thread: u32,
        warp: u32,
        pc: usize,
        off: u64,
        size: usize,
        write: bool,
    ) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let acc = AccessInfo {
            block: self.block,
            thread,
            warp,
            pc,
            epoch: self.epoch,
            kind,
        };
        for b in off..off.saturating_add(size as u64) {
            let Some(cell) = self.shared.get(b as usize).cloned() else {
                continue;
            };
            if !write && !cell.written {
                self.push(HazardReport {
                    class: HazardClass::InitCheck,
                    space: Space::Shared,
                    addr: b,
                    first: None,
                    second: Some(acc),
                    detail: format!(
                        "{acc} of uninitialized shared byte +{b} (never written since block start)"
                    ),
                });
            }
            let conflicts = |p: &AccessInfo| p.warp != warp && p.epoch == self.epoch;
            let prior = if write {
                cell.last_write
                    .filter(conflicts)
                    .or(cell.last_read.filter(conflicts))
                    .or(cell.other_read.filter(conflicts))
            } else {
                cell.last_write.filter(conflicts)
            };
            if let Some(p) = prior {
                self.push(HazardReport {
                    class: HazardClass::RaceCheck,
                    space: Space::Shared,
                    addr: b,
                    first: Some(p),
                    second: Some(acc),
                    detail: format!(
                        "shared byte +{b}: {acc} conflicts with {p} — \
                         different warps, no barrier between"
                    ),
                });
            }
            let cell = &mut self.shared[b as usize];
            if write {
                cell.written = true;
                cell.last_write = Some(acc);
            } else {
                if let Some(lr) = cell.last_read {
                    if lr.warp != acc.warp {
                        cell.other_read = Some(lr);
                    }
                }
                cell.last_read = Some(acc);
            }
        }
    }

    fn global_access(
        &mut self,
        thread: u32,
        warp: u32,
        pc: usize,
        addr: u64,
        size: usize,
        kind: AccessKind,
    ) {
        let acc = AccessInfo {
            block: self.block,
            thread,
            warp,
            pc,
            epoch: self.epoch,
            kind,
        };
        self.log.push(OldEvent::Global(acc, addr, size));
    }

    fn sync_divergence(&mut self, pc_a: usize, pc_b: usize, detail: &str) {
        let key = (HazardClass::SyncCheck, pc_a, pc_b);
        if self.seen.insert(key) {
            let report = HazardReport {
                class: HazardClass::SyncCheck,
                space: Space::Shared,
                addr: 0,
                first: None,
                second: None,
                detail: format!(
                    "block ({},{}): __syncthreads() under divergent control flow \
                     (barrier sites pc {pc_a} vs pc {pc_b}); {detail}",
                    self.block.0, self.block.1
                ),
            };
            self.log.push(OldEvent::Local(key, report));
        }
    }
}

impl OldReplay {
    /// Fold an old block's log in, in order.
    fn merge(&mut self, block: OldBlock) {
        for ev in block.log {
            match ev {
                OldEvent::Local(key, report) => {
                    if self.seen.insert(key) {
                        self.count += 1;
                        if self.reports.len() < self.cfg.max_reports {
                            self.reports.push(report);
                        }
                    }
                }
                OldEvent::Global(acc, addr, size) => self.access(acc, addr, size),
            }
        }
    }
}

/// The shared slab of the mixed-stream blocks.
const SLAB: usize = 64;

/// One step of a block's life on the mixed stream.
#[derive(Debug, Clone)]
enum MixedStep {
    /// A warp-step: `(lane, offset or address, size)` per active lane, in
    /// ascending lane order.
    Access {
        warp: u32,
        pc: usize,
        space: Space,
        kind: AccessKind,
        lanes: Vec<(u32, u64, usize)>,
    },
    Barrier,
    Diverge(usize, usize),
}

fn mixed_step() -> impl Strategy<Value = MixedStep> {
    // Shared offsets inside the slab, straddling its end, past it and near
    // `u64::MAX`; global addresses around a shadow page boundary.
    let shared = vec![0u64, 1, 29, 60, 64, 90, u64::MAX - 9];
    let global = vec![0u64, 0x1000 - 5, 0x3000, u64::MAX - 9];
    let lanes = |anchors: Vec<u64>| {
        let addr = (prop::sample::select(anchors), 0u64..12).prop_map(|(a, d)| a.saturating_add(d));
        let lane = (0u32..32, addr, prop::sample::select(vec![1usize, 2, 4, 8]));
        prop::collection::vec(lane, 1..6).prop_map(|mut ls| {
            ls.sort_by_key(|l| l.0);
            ls.dedup_by_key(|l| l.0);
            ls
        })
    };
    let kinds = |atomic: bool| {
        let mut ks = vec![AccessKind::Read, AccessKind::Read, AccessKind::Write];
        if atomic {
            ks.push(AccessKind::Atomic);
        }
        prop::sample::select(ks)
    };
    let access = |space: Space, anchors: Vec<u64>| {
        (
            0u32..4,
            0usize..7,
            kinds(space == Space::Global),
            lanes(anchors),
        )
            .prop_map(move |(warp, pc, kind, lanes)| MixedStep::Access {
                warp,
                pc,
                space,
                kind,
                lanes,
            })
    };
    prop_oneof![
        access(Space::Shared, shared.clone()),
        access(Space::Shared, shared.clone()),
        access(Space::Shared, shared),
        access(Space::Global, global),
        (0u32..1).prop_map(|_| MixedStep::Barrier),
        (0usize..3, 3usize..5).prop_map(|(a, b)| MixedStep::Diverge(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn shared_shadow_matches_the_old_per_byte_cells(
        blocks in prop::collection::vec(prop::collection::vec(mixed_step(), 0..24), 1..5),
    ) {
        let cfg = SanitizerConfig { max_reports: 3, ..SanitizerConfig::full() };
        let mut new = LaunchSanitizer::new(cfg.clone());
        let mut old = OldReplay::new(cfg.clone());
        // One block sanitizer for the launch, as an executor thread keeps it.
        let mut b = BlockSanitizer::new(cfg.clone(), SLAB);
        for (id, steps) in blocks.iter().enumerate() {
            let block = (id as u32, 0);
            b.begin_block(block);
            let mut o = OldBlock::new(block, SLAB);
            for step in steps {
                match step {
                    MixedStep::Barrier => {
                        b.barrier_release();
                        o.epoch += 1;
                    }
                    MixedStep::Diverge(pc_a, pc_b) => {
                        b.sync_divergence(*pc_a, *pc_b, "2 thread(s)".into());
                        o.sync_divergence(*pc_a, *pc_b, "2 thread(s)");
                    }
                    MixedStep::Access { warp, pc, space, kind, lanes } => {
                        let threads: Vec<usize> =
                            lanes.iter().map(|l| (warp * 32 + l.0) as usize).collect();
                        let addrs: Vec<(u64, usize)> = lanes.iter().map(|l| (l.1, l.2)).collect();
                        b.warp_step(*warp, *pc, *space, *kind, &threads, &addrs);
                        for (&t, &(a, size)) in threads.iter().zip(&addrs) {
                            match space {
                                Space::Shared => {
                                    o.shared_access(t as u32, *warp, *pc, a, size, kind.writes())
                                }
                                Space::Global => {
                                    o.global_access(t as u32, *warp, *pc, a, size, *kind)
                                }
                            }
                        }
                    }
                }
            }
            let mut log = b.end_block();
            new.merge_block(&mut log);
            b.recycle(log);
            old.merge(o);
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

/// Thread `thread` of warp 0 stores `size` bytes at `addr`.
fn global_store(b: &mut BlockSanitizer, thread: usize, pc: usize, addr: u64, size: usize) {
    b.warp_step(
        0,
        pc,
        Space::Global,
        AccessKind::Write,
        &[thread],
        &[(addr, size)],
    );
}

/// Two blocks write 8 bytes at `u64::MAX - 3`: the byte range saturates
/// (three bytes, `..u64::MAX`), lands on the table's last page, and the
/// conflict is reported at its first byte.
#[test]
fn a_range_that_saturates_at_the_top_of_the_address_space() {
    let mut s = LaunchSanitizer::new(SanitizerConfig::full());
    let mut b = BlockSanitizer::new(SanitizerConfig::full(), 0);
    for bx in 0..2 {
        b.begin_block((bx, 0));
        global_store(&mut b, 0, 7, u64::MAX - 3, 8);
        s.merge_block(&mut b.end_block());
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
    let mut b = BlockSanitizer::new(SanitizerConfig::full(), 0);
    b.begin_block((0, 0));
    // The last four bytes of 64 consecutive pages, two warp-steps of 32.
    let last_word = |page: u64| 0x10_0000 + (page + 1) * PAGE - 4;
    for warp in 0..2u32 {
        let lanes: Vec<usize> = (warp as usize * 32..(warp as usize + 1) * 32).collect();
        let addrs: Vec<(u64, usize)> = lanes.iter().map(|&t| (last_word(t as u64), 4)).collect();
        b.warp_step(warp, 3, Space::Global, AccessKind::Write, &lanes, &addrs);
    }
    s.merge_block(&mut b.end_block());
    assert_eq!(s.shadow_pages(), 64);
    b.begin_block((1, 0));
    let read = [(last_word(63) + 2, 4)];
    b.warp_step(0, 4, Space::Global, AccessKind::Read, &[0], &read);
    s.merge_block(&mut b.end_block());
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
