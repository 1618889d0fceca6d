//! Differential tests: the typed execution tier must be **bit-identical**
//! to the reference interpreter in every observable output — memory
//! contents, [`LaunchStats`], modelled cycles, profile attribution, hazard
//! reports, traces, and error values — across randomly generated kernels
//! and the full harness matrix (host_threads × sanitize × profile × trace).
//! The curated families at the end aim at the typed tier's warp shapes:
//! each builds a situation where a plausible-but-wrong transfer rule
//! (`tid.x` affine in a warp that straddles block rows, a closed form
//! indexed by mask position, sign extension of a wrapping sequence, a
//! shape surviving a partial write) changes an observable.
//!
//! redcert's symbolic executor is the third engine: on concrete inputs it
//! must leave every cell it can decide holding the interpreter's bytes.
//!
//! Kernels come from a deterministic xorshift generator: structured random
//! programs with uniform and divergent arithmetic, global/shared
//! loads/stores, atomics, barriers, and forward branches (forward-only, so
//! every generated kernel terminates without leaning on the watchdog).

use gpsim::{
    run_symbolic, AtomOp, BinOp, CmpOp, Device, ExecTier, Kernel, KernelBuilder, LaunchConfig,
    MemRef, SVal, SanitizerConfig, SanitizerLevel, SpecialReg, SymMemory, TermPool, Ty, UnOp,
    Value,
};

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Number of i32 elements in the data buffer the kernels chew on.
const DATA_ELEMS: u64 = 256;

/// Generate a structured random kernel. Shape: an i64 index register
/// derived from lane/block identity, a pool of i32 value registers, a
/// sequence of segments (ALU / memory / atomic ops), optional barriers
/// and forward-branch skips, then a writeback of the pool so register
/// state is observable in memory.
fn gen_kernel(seed: u64) -> Kernel {
    let mut rng = Rng::new(seed);
    let mut b = KernelBuilder::new(format!("diff_{seed}"));
    let data = b.param(0); // base of DATA_ELEMS i32s
    let out = b.param(1); // base of the writeback area
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let lin = {
        let t = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        b.bin(BinOp::Add, Ty::I32, t, tid)
    };
    let shared_elems: usize = 64;
    b.alloc_shared(shared_elems * 4, 4);

    // Value pool: a mix of divergent (lane-derived) and uniform seeds.
    let mut pool: Vec<gpsim::Reg> = vec![
        lin,
        tid,
        b.mov_imm(Value::I32(seed as i32 & 0xffff)),
        b.bin(BinOp::Add, Ty::I32, ctaid, Value::I32(7)),
    ];

    // An in-bounds i64 element index: (lin * m + c) & (DATA_ELEMS-1).
    let data_index = |b: &mut KernelBuilder, rng: &mut Rng, v: gpsim::Reg| {
        let m = 1 + rng.below(7) as i32;
        let c = rng.below(DATA_ELEMS) as i32;
        let t = b.bin(BinOp::Mul, Ty::I32, v, Value::I32(m));
        let t = b.bin(BinOp::Add, Ty::I32, t, Value::I32(c));
        let t = b.bin(BinOp::And, Ty::I32, t, Value::I32(DATA_ELEMS as i32 - 1));
        b.cvt(Ty::I64, t)
    };

    let segments = 3 + rng.below(5);
    for _ in 0..segments {
        // Optionally skip the whole segment with a forward branch on a
        // divergent or uniform predicate.
        let skip = if rng.chance(40) {
            let v = pool[rng.below(pool.len() as u64) as usize];
            let c = b.cmp(
                CmpOp::Lt,
                Ty::I32,
                v,
                Value::I32(rng.below(200) as i32 - 60),
            );
            let l = b.new_label();
            if rng.chance(50) {
                b.bra_if(c, l);
            } else {
                b.bra_unless(c, l);
            }
            Some(l)
        } else {
            None
        };
        let ops = 1 + rng.below(4);
        for _ in 0..ops {
            let a = pool[rng.below(pool.len() as u64) as usize];
            let x = pool[rng.below(pool.len() as u64) as usize];
            match rng.below(10) {
                0..=3 => {
                    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor, BinOp::Or]
                        [rng.below(5) as usize];
                    pool.push(b.bin(op, Ty::I32, a, x));
                }
                4 => {
                    let c = b.cmp(CmpOp::Gt, Ty::I32, a, x);
                    pool.push(b.select(c, a, x));
                }
                5 => {
                    // Divide by a non-zero value (SFU path).
                    let d = b.bin(BinOp::Or, Ty::I32, x, Value::I32(1));
                    pool.push(b.bin(BinOp::Div, Ty::I32, a, d));
                }
                6 => {
                    let i = data_index(&mut b, &mut rng, a);
                    pool.push(b.ld_global(Ty::I32, MemRef::indexed(data, i, 4)));
                }
                7 => {
                    let i = data_index(&mut b, &mut rng, a);
                    b.st_global(Ty::I32, MemRef::indexed(data, i, 4), x);
                }
                8 => {
                    // Shared: index by lane identity masked into the window.
                    let t = b.bin(BinOp::And, Ty::I32, a, Value::I32(shared_elems as i32 - 1));
                    let i = b.cvt(Ty::I64, t);
                    if rng.chance(50) {
                        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), i, 4), x);
                    } else {
                        // Store-then-load so initcheck stays quiet on the
                        // sanitize legs of the matrix.
                        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), i, 4), a);
                        pool.push(b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), i, 4)));
                    }
                }
                _ => {
                    let i = data_index(&mut b, &mut rng, tid);
                    let want_old = rng.chance(50);
                    if let Some(old) = b.atom_global(
                        AtomOp::Add,
                        Ty::I32,
                        MemRef::indexed(data, i, 4),
                        x,
                        want_old,
                    ) {
                        pool.push(old);
                    }
                }
            }
        }
        if let Some(l) = skip {
            b.place(l);
        } else if rng.chance(50) {
            // Barriers only outside branched regions, so the generator
            // never manufactures divergent barrier sites.
            b.bar();
        }
    }

    // Observable writeback: fold the pool and store per-lane.
    let mut acc = pool[0];
    for &v in &pool[1..] {
        acc = b.bin(BinOp::Xor, Ty::I32, acc, v);
    }
    let neg = b.un(UnOp::Neg, Ty::I32, acc);
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), neg);
    b.finish()
}

/// Generate a structured random *float* kernel: F32 arithmetic (including
/// Div and Min/Max, which manufacture and propagate NaNs — the data
/// buffer's integer init already contains NaN/denormal/infinity bit
/// patterns when reinterpreted as f32), F64 round-trips, saturating
/// float↔int conversions, float compares and selects, shared-memory
/// traffic, and float atomics. Exercises every typed-tier float path.
fn gen_float_kernel(seed: u64) -> Kernel {
    let mut rng = Rng::new(seed ^ 0xf10a7);
    let mut b = KernelBuilder::new(format!("fdiff_{seed}"));
    let data = b.param(0); // base of DATA_ELEMS f32-reinterpreted elements
    let out = b.param(1);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let lin = {
        let t = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        b.bin(BinOp::Add, Ty::I32, t, tid)
    };
    let shared_elems: usize = 64;
    b.alloc_shared(shared_elems * 4, 4);

    let mut pool: Vec<gpsim::Reg> = vec![
        b.cvt(Ty::F32, lin),
        b.cvt(Ty::F32, tid),
        b.mov_imm(Value::F32(f32::NAN)),
        b.mov_imm(Value::F32(-0.0)),
        b.mov_imm(Value::F32(seed as f32 * 0.37 - 3.0)),
    ];

    let data_index = |b: &mut KernelBuilder, rng: &mut Rng| {
        let m = 1 + rng.below(7) as i32;
        let c = rng.below(DATA_ELEMS) as i32;
        let t = b.bin(BinOp::Mul, Ty::I32, lin, Value::I32(m));
        let t = b.bin(BinOp::Add, Ty::I32, t, Value::I32(c));
        let t = b.bin(BinOp::And, Ty::I32, t, Value::I32(DATA_ELEMS as i32 - 1));
        b.cvt(Ty::I64, t)
    };

    let segments = 3 + rng.below(4);
    for _ in 0..segments {
        let skip = if rng.chance(40) {
            let v = pool[rng.below(pool.len() as u64) as usize];
            let c = b.cmp(
                CmpOp::Lt,
                Ty::F32,
                v,
                Value::F32(rng.below(100) as f32 - 30.0),
            );
            let l = b.new_label();
            if rng.chance(50) {
                b.bra_if(c, l);
            } else {
                b.bra_unless(c, l);
            }
            Some(l)
        } else {
            None
        };
        let ops = 1 + rng.below(4);
        for _ in 0..ops {
            let a = pool[rng.below(pool.len() as u64) as usize];
            let x = pool[rng.below(pool.len() as u64) as usize];
            match rng.below(10) {
                0..=2 => {
                    let op = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Min,
                        BinOp::Max,
                    ][rng.below(6) as usize];
                    pool.push(b.bin(op, Ty::F32, a, x));
                }
                3 => {
                    // F64 round-trip: widen, combine, narrow (the narrow
                    // quiets signaling NaNs exactly like the interpreter).
                    let a64 = b.cvt(Ty::F64, a);
                    let x64 = b.cvt(Ty::F64, x);
                    let op = [BinOp::Add, BinOp::Mul, BinOp::Div][rng.below(3) as usize];
                    let r = b.bin(op, Ty::F64, a64, x64);
                    pool.push(b.cvt(Ty::F32, r));
                }
                4 => {
                    let c = b.cmp(
                        [CmpOp::Gt, CmpOp::Ne, CmpOp::Le][rng.below(3) as usize],
                        Ty::F32,
                        a,
                        x,
                    );
                    pool.push(b.select(c, a, x));
                }
                5 => {
                    let op = [UnOp::Neg, UnOp::Abs, UnOp::Sqrt][rng.below(3) as usize];
                    pool.push(b.un(op, Ty::F32, a));
                }
                6 => {
                    // Saturating F32→I32 (NaN→0) and back.
                    let i = b.cvt(Ty::I32, a);
                    pool.push(b.cvt(Ty::F32, i));
                }
                7 => {
                    let i = data_index(&mut b, &mut rng);
                    pool.push(b.ld_global(Ty::F32, MemRef::indexed(data, i, 4)));
                }
                8 => {
                    let i = data_index(&mut b, &mut rng);
                    if rng.chance(50) {
                        b.st_global(Ty::F32, MemRef::indexed(data, i, 4), x);
                    } else {
                        let t = b.bin(BinOp::And, Ty::I32, lin, Value::I32(63));
                        let si = b.cvt(Ty::I64, t);
                        b.st_shared(Ty::F32, MemRef::indexed(Value::U64(0), si, 4), a);
                        pool.push(b.ld_shared(Ty::F32, MemRef::indexed(Value::U64(0), si, 4)));
                    }
                }
                _ => {
                    // Float atomic add: ordered replay must preserve the
                    // exact (non-associative) accumulation order.
                    let i = data_index(&mut b, &mut rng);
                    b.atom_global(AtomOp::Add, Ty::F32, MemRef::indexed(data, i, 4), x, false);
                }
            }
        }
        if let Some(l) = skip {
            b.place(l);
        } else if rng.chance(40) {
            b.bar();
        }
    }

    // Fold with Add (NaN bit patterns propagate) and write back.
    let mut acc = pool[0];
    for &v in &pool[1..] {
        acc = b.bin(BinOp::Add, Ty::F32, acc, v);
    }
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::F32, MemRef::indexed(out, i, 4), acc);
    b.finish()
}

/// Everything observable about one launch, rendered to comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: String,
    data: Vec<u8>,
    out: Vec<u8>,
    hazards: String,
    profile: Option<String>,
    trace: String,
}

/// The harness's launch shape: 4 blocks of 96 threads (3 warps per
/// block). Every shape used here has 96 threads per block — the `out`
/// buffer is sized for it.
const D1: LaunchConfig = LaunchConfig {
    grid: (4, 1),
    block: (96, 1),
};

/// One cell of the harness matrix.
#[derive(Debug, Clone, Copy)]
struct Mode {
    host_threads: u32,
    sanitize: bool,
    profile: bool,
    /// Capture a trace. Without tracer and profiler the typed tier runs
    /// its unobserved step instantiation, so both settings are compared.
    trace: bool,
}

const PLAIN: Mode = Mode {
    host_threads: 1,
    sanitize: false,
    profile: false,
    trace: true,
};

/// The data buffer's initial contents.
fn data_init() -> Vec<Value> {
    (0..DATA_ELEMS)
        .map(|i| Value::I32((i as i32).wrapping_mul(2654435761u32 as i32)))
        .collect()
}

/// Number of i32 elements in the read-only `cols` buffer (parameter 2):
/// room for a warp's column read at a stride of six 128-byte segments.
const COLS_ELEMS: u64 = 32 * 192 + 256;

/// Run `kernel` once; returns the observables and the device, whose
/// counters say what the typed tier did.
fn run_once(kernel: &Kernel, cfg: LaunchConfig, tier: ExecTier, mode: Mode) -> (Outcome, Device) {
    run_launches(&[(kernel, cfg)], tier, mode)
}

/// [`run_once`] for several launches back to back on one device; results
/// and traces are concatenated.
fn run_launches(
    launches: &[(&Kernel, LaunchConfig)],
    tier: ExecTier,
    mode: Mode,
) -> (Outcome, Device) {
    let Mode {
        host_threads,
        sanitize,
        profile,
        trace,
    } = mode;
    let mut dev = Device::test_small();
    dev.set_exec_tier(tier);
    dev.set_host_threads(host_threads);
    if sanitize {
        dev.set_sanitizer(SanitizerConfig {
            level: SanitizerLevel::Full,
            ..SanitizerConfig::default()
        });
    }
    if profile {
        dev.set_profiler(true);
    }
    // `out` is the last allocation: past its end is past device memory.
    let cols = dev.alloc_elems(Ty::I32, COLS_ELEMS).unwrap();
    let data = dev.alloc_elems(Ty::I32, DATA_ELEMS).unwrap();
    let out = dev.alloc_elems(Ty::I32, 4 * 96).unwrap();
    let col_bytes: Vec<u8> = (0..COLS_ELEMS * 4).map(|b| (b * 37 % 251) as u8).collect();
    dev.memcpy_h2d(cols, &col_bytes).unwrap();
    dev.upload_values(data, &data_init()).unwrap();
    let params = [
        Value::U64(data.addr),
        Value::U64(out.addr),
        Value::U64(cols.addr),
    ];
    let (mut res_str, mut trace_str) = (String::new(), String::new());
    for &(kernel, cfg) in launches {
        assert_eq!(cfg.threads_per_block() * cfg.num_blocks(), 4 * 96);
        let result = if trace {
            dev.launch_traced(kernel, cfg, &params, 1 << 14)
                .map(|(stats, trace)| (stats, format!("{trace:?}")))
        } else {
            dev.launch(kernel, cfg, &params)
                .map(|stats| (stats, String::new()))
        };
        match result {
            Ok((stats, trace)) => {
                res_str += &format!("{stats:?}");
                trace_str += &trace;
            }
            Err(e) => res_str += &format!("err: {e:?}"),
        }
    }
    let mut data_bytes = vec![0u8; (DATA_ELEMS * 4) as usize];
    dev.memcpy_d2h(data, &mut data_bytes).unwrap();
    let mut out_bytes = vec![0u8; 4 * 96 * 4];
    dev.memcpy_d2h(out, &mut out_bytes).unwrap();
    let outcome = Outcome {
        result: res_str,
        data: data_bytes,
        out: out_bytes,
        hazards: format!("{:?}", dev.take_hazards()),
        profile: profile.then(|| format!("{:?}", dev.take_profile())),
        trace: trace_str,
    };
    (outcome, dev)
}

/// Assert interpreter ≡ `auto` for one kernel across the harness matrix,
/// and that `auto` really ran the typed tier (`declines` = 0) — or, for
/// the rows that pin a decline, really took the decline path (1).
fn assert_tiers_agree(kernel: &Kernel, seed: u64, declines: u64) {
    assert_tiers_agree_on(kernel, D1, seed, declines);
}

/// [`assert_tiers_agree`] at a given launch shape.
fn assert_tiers_agree_on(kernel: &Kernel, cfg: LaunchConfig, seed: u64, declines: u64) {
    assert_launches_agree(&[(kernel, cfg)], seed, declines);
}

/// [`assert_tiers_agree`] for several launches back to back on one device.
fn assert_launches_agree(launches: &[(&Kernel, LaunchConfig)], seed: u64, declines: u64) {
    for host_threads in [1u32, 4] {
        for sanitize in [false, true] {
            for profile in [false, true] {
                for trace in [true, false] {
                    let mode = Mode {
                        host_threads,
                        sanitize,
                        profile,
                        trace,
                    };
                    let (a, _) = run_launches(launches, ExecTier::Interpret, mode);
                    let (b, dev) = run_launches(launches, ExecTier::Auto, mode);
                    assert_eq!(
                        a,
                        b,
                        "tier divergence: seed={seed} {mode:?}\n{}",
                        launches
                            .iter()
                            .map(|(k, cfg)| format!("{cfg:?}\n{}", k.disasm()))
                            .collect::<String>()
                    );
                    assert_eq!(
                        dev.tier_declines(),
                        declines,
                        "typed-tier declines: seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_kernels_bit_identical_across_tiers() {
    for seed in 1..=24u64 {
        let kernel = gen_kernel(seed);
        assert_tiers_agree(&kernel, seed, 0);
    }
}

/// Run redcert's executor on `kernel` over the harness's concrete `data`
/// and `out` contents and compare each 4-byte cell it leaves concrete
/// with the interpreter's bytes; a cell poisoned by a race is skipped.
/// `None` when the executor declines the kernel, else the number of
/// cells that matched and the cells that differed.
fn cert_cells_vs_interpreter(kernel: &Kernel) -> Option<(usize, Vec<String>)> {
    let mut mem = SymMemory::new();
    let data = mem.alloc("data", DATA_ELEMS * 4, None, false).unwrap();
    let out = mem.alloc("out", 4 * 96 * 4, None, false).unwrap();
    for (i, &v) in data_init().iter().enumerate() {
        mem.poke(data, i as u64 * 4, v);
    }
    for i in 0..4 * 96 {
        mem.poke(out, i * 4, Value::I32(0));
    }
    let params = [
        SVal::C(Value::U64(mem.base(data))),
        SVal::C(Value::U64(mem.base(out))),
    ];
    let mut pool = TermPool::new();
    let mut steps = 0;
    run_symbolic(kernel, D1, &params, &mut mem, &mut pool, &mut steps).ok()?;
    let (interp, _) = run_once(kernel, D1, ExecTier::Interpret, PLAIN);
    assert!(!interp.result.starts_with("err"), "{}", interp.result);
    let (mut matched, mut differ) = (0, Vec::new());
    for (region, bytes) in [(data, &interp.data), (out, &interp.out)] {
        for (i, want) in bytes.chunks_exact(4).enumerate() {
            let off = i as u64 * 4;
            match mem.peek(&mut pool, region, off, Ty::I32).unwrap() {
                Some(SVal::C(v)) if v.to_bytes().0[..4] == *want => matched += 1,
                Some(SVal::C(v)) => differ.push(format!("region {region} +{off}: {v:?}")),
                Some(t) => assert!(pool.sval_poison(t).is_some(), "only a race is symbolic"),
                None => panic!("cell +{off} of region {region} lost its value"),
            }
        }
    }
    Some((matched, differ))
}

/// redcert's executor is the third engine: on the random kernels'
/// concrete inputs it agrees with the interpreter on every cell no race
/// poisoned. The executor declines value-returning atomics and data-
/// dependent addresses or branches once a race has poisoned them, so only
/// some seeds run to the end.
#[test]
fn random_kernels_agree_with_redcerts_executor() {
    let (mut ran, mut matched) = (0, 0);
    for seed in 0..40u64 {
        let kernel = gen_kernel(seed);
        if let Some((m, differ)) = cert_cells_vs_interpreter(&kernel) {
            assert!(
                differ.is_empty(),
                "seed={seed}: {differ:?}\n{}",
                kernel.disasm()
            );
            ran += 1;
            matched += m;
        }
    }
    assert!(
        ran >= 21,
        "only {ran} of 40 seeds ran on redcert's executor"
    );
    assert!(matched > 0);
}

#[test]
fn random_float_kernels_bit_identical_across_tiers() {
    for seed in 1..=12u64 {
        let kernel = gen_float_kernel(seed);
        assert_tiers_agree(&kernel, seed, 0);
    }
}

/// Curated NaN factory: 0/0, sqrt(-1), min/max against NaN, NaN compare
/// driving a select, signaling-NaN quieting through an F64 round-trip,
/// and the saturating NaN→0 integer conversion. Two NaNs are also stored
/// raw, on alternating lanes: `sqrt(-1)` (the host's NaN has the sign bit
/// set; the canonical one does not) and a signaling NaN moved to a
/// same-type `F32` store (the store converts, and the conversion
/// quiets). Every resulting bit pattern lands in memory and must match
/// across tiers.
#[test]
fn nan_edge_cases_bit_identical_across_tiers() {
    let mut b = KernelBuilder::new("nan_edges");
    let data = b.param(0);
    let out = b.param(1);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let lin = {
        let t = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        b.bin(BinOp::Add, Ty::I32, t, tid)
    };
    let flin = b.cvt(Ty::F32, lin);
    let z = b.mov_imm(Value::F32(0.0));
    let nz = b.mov_imm(Value::F32(-0.0));
    let zz = b.bin(BinOp::Div, Ty::F32, z, z); // 0/0 = NaN
    let m1 = b.mov_imm(Value::F32(-1.0));
    let s = b.un(UnOp::Sqrt, Ty::F32, m1); // sqrt(-1) = NaN
    let mn = b.bin(BinOp::Min, Ty::F32, zz, flin);
    let mx = b.bin(BinOp::Max, Ty::F32, flin, s);
    let c = b.cmp(CmpOp::Ne, Ty::F32, zz, zz); // NaN != NaN → true
    let sel = b.select(c, mn, mx);
    let snan = b.mov_imm(Value::F32(f32::from_bits(0x7f80_0001)));
    let wide = b.cvt(Ty::F64, snan);
    let quieted = b.cvt(Ty::F32, wide); // F64 round-trip quiets the sNaN
    let sat = b.cvt(Ty::I32, zz); // NaN → 0, saturating
    let fsat = b.cvt(Ty::F32, sat);
    let nzdiv = b.bin(BinOp::Div, Ty::F32, flin, nz); // ±inf with sign
    let mut acc = sel;
    for v in [quieted, fsat, nzdiv] {
        acc = b.bin(BinOp::Add, Ty::F32, acc, v);
    }
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::F32, MemRef::indexed(out, i, 4), acc);
    let odd = b.bin(BinOp::And, Ty::I32, lin, Value::I32(1));
    let odd = b.cmp(CmpOp::Ne, Ty::I32, odd, Value::I32(0));
    let raw = b.select(odd, snan, s);
    let di = b.bin(BinOp::And, Ty::I64, i, Value::I64(DATA_ELEMS as i64 - 1));
    b.st_global(Ty::F32, MemRef::indexed(data, di, 4), raw);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 0);
}

/// A register reused at two different types defeats the typed tier's
/// flow-insensitive inference: `auto` must decline to the interpreter
/// (counted, once per launch) instead of mis-executing.
#[test]
fn mixed_type_register_reuse_agrees_across_tiers() {
    let mut b = KernelBuilder::new("mixed_reuse");
    let _data = b.param(0);
    let out = b.param(1);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let lin = {
        let t = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        b.bin(BinOp::Add, Ty::I32, t, tid)
    };
    let r = b.mov_imm(Value::I32(5));
    let acc = b.bin(BinOp::Add, Ty::I32, r, lin);
    let f = b.cvt(Ty::F32, tid);
    // Same destination register, now written at F32.
    b.bin_to(r, BinOp::Add, Ty::F32, f, Value::F32(0.5));
    let fold = b.cvt(Ty::I32, r);
    let fold = b.bin(BinOp::Xor, Ty::I32, fold, acc);
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), fold);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 1);
}

/// Lane-dependent trip counts around a backward branch: the warp
/// diverges into multiple persistent groups whose interleaving the
/// interpreter's min-pc scheduler defines. The typed tier's group
/// chasing must not reorder their shared-memory and atomic traffic (the
/// trace comparison pins the exact instruction order).
#[test]
fn divergent_backward_loops_bit_identical_across_tiers() {
    let mut b = KernelBuilder::new("divloop");
    let data = b.param(0);
    let out = b.param(1);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let lin = {
        let t = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
        b.bin(BinOp::Add, Ty::I32, t, tid)
    };
    b.alloc_shared(64 * 4, 4);
    let trips = b.bin(BinOp::And, Ty::I32, tid, Value::I32(7));
    let i = b.mov_imm(Value::I32(0));
    let acc = b.mov_imm(Value::I32(0));
    let top = b.new_label();
    let exit = b.new_label();
    b.place(top);
    let done = b.cmp(CmpOp::Ge, Ty::I32, i, trips);
    b.bra_if(done, exit);
    // Shared read-modify-write at the lane's slot.
    let slot = b.bin(BinOp::And, Ty::I32, lin, Value::I32(63));
    let si = b.cvt(Ty::I64, slot);
    b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), si, 4), acc);
    let sv = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), si, 4));
    b.bin_to(acc, BinOp::Add, Ty::I32, sv, i);
    // A forward skip inside the body splits it into several runs.
    let odd = b.bin(BinOp::And, Ty::I32, i, Value::I32(1));
    let skip = b.cmp(CmpOp::Gt, Ty::I32, odd, Value::I32(0));
    let over = b.new_label();
    b.bra_if(skip, over);
    let di = b.bin(BinOp::Mul, Ty::I32, lin, Value::I32(3));
    let di = b.bin(BinOp::Add, Ty::I32, di, i);
    let di = b.bin(BinOp::And, Ty::I32, di, Value::I32(DATA_ELEMS as i32 - 1));
    let dii = b.cvt(Ty::I64, di);
    b.atom_global(
        AtomOp::Add,
        Ty::I32,
        MemRef::indexed(data, dii, 4),
        acc,
        false,
    );
    b.place(over);
    b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(1));
    b.bra(top);
    b.place(exit);
    let oi = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, oi, 4), acc);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 0);
}

/// Error values must match bit-for-bit too: a wild global address aborts
/// both tiers with the same `SimError`.
#[test]
fn error_paths_bit_identical_across_tiers() {
    let mut b = KernelBuilder::new("oob");
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let big = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(1 << 22));
    let i = b.cvt(Ty::I64, big);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), tid);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 0);

    // Wild base: a warp's addresses `u64::MAX - 3 + 4 * tid` wrap past the
    // end of the address space after lane 0. Addresses are values until
    // the access bounds-checks them, so both tiers must report lane 0's
    // out-of-bounds access — in debug builds too, where an unchecked
    // add in the coalescing test would panic instead.
    // The sanitizer observes shared loads and atomics *before* the access
    // rejects them, so its byte ranges must not overflow either.
    for access in 0..5 {
        let mut b = KernelBuilder::new("wild_base");
        let tid = b.special(SpecialReg::TidX);
        let i = b.cvt(Ty::I64, tid);
        let m = MemRef::indexed(Value::U64(u64::MAX - 3), i, 4);
        b.alloc_shared(64 * 4, 4);
        match access {
            0 => {
                b.ld_global(Ty::I32, m);
            }
            1 => b.st_global(Ty::I32, m, tid),
            2 => {
                b.ld_shared(Ty::I32, m);
            }
            3 => b.st_shared(Ty::I32, m, tid),
            _ => {
                b.atom_global(AtomOp::Add, Ty::I32, m, tid, false);
            }
        }
        let k = b.finish();
        assert_tiers_agree(&k, access, 0);
        let (o, _) = run_once(&k, D1, ExecTier::Auto, PLAIN);
        assert!(
            o.result.contains("OutOfBounds") && o.result.contains("18446744073709551612, len: 4"),
            "lane 0's access must be the reported one: {}",
            o.result
        );
    }

    // Missing parameter: the BadParams error (and its payload) must match.
    let mut b = KernelBuilder::new("badparams");
    let p = b.param(3);
    let tid = b.special(SpecialReg::TidX);
    let i = b.cvt(Ty::I64, tid);
    b.st_global(Ty::I32, MemRef::indexed(p, i, 4), tid);
    let k = b.finish();
    for &tier in &[ExecTier::Interpret, ExecTier::Auto] {
        let mut dev = Device::test_small();
        dev.set_exec_tier(tier);
        let r = dev.launch(&k, LaunchConfig::d1(1, 32), &[Value::U64(0)]);
        assert_eq!(
            format!("{r:?}"),
            r#"Err(BadParams { expected: 4, got: 1 })"#,
            "tier {tier}"
        );
    }
}

/// A `div.s32` whose divisor is zero at one lane in the middle of a warp
/// (global thread 141: block 1, warp 1, lane 13) faults with the same
/// `Err` and leaves the same global memory on both tiers — the typed tier
/// finds the lane before its kernel runs. Once with the whole warp
/// active and once under a scattered mask that keeps the lane.
#[test]
fn a_zero_divisor_mid_warp_faults_identically_across_tiers() {
    for scattered in [false, true] {
        let mut b = KernelBuilder::new(if scattered { "div0_scattered" } else { "div0" });
        let out = b.param(1);
        let lin = linear_index(&mut b);
        store_out(&mut b, out, lin, lin);
        let skip = b.new_label();
        if scattered {
            let r = b.bin(BinOp::Rem, Ty::I32, lin, Value::I32(3));
            let off = b.cmp(CmpOp::Eq, Ty::I32, r, Value::I32(1));
            b.bra_if(off, skip);
        }
        let d = b.bin(BinOp::Sub, Ty::I32, lin, Value::I32(141));
        let x = b.bin(BinOp::Mul, Ty::I32, lin, Value::I32(7));
        let q = b.bin(BinOp::Div, Ty::I32, x, d);
        store_out(&mut b, out, lin, q);
        b.place(skip);
        let k = b.finish();
        let (o, _) = run_once(&k, D1, ExecTier::Auto, PLAIN);
        assert_eq!(o.result, "err: DivisionByZero", "{}", k.name);
        assert_tiers_agree(&k, scattered as u64, 0);
    }
}

/// The watchdog counts warp-instructions per block and trips after the
/// first one past its limit, whose effects stay committed. The typed tier
/// charges a run's instructions at its entry and only watches a run that
/// could reach the limit, so every limit is swept: on the first, an
/// interior and the last step of a run, on a run boundary, before and
/// after each global store. The kernel has a multi-step run with a store
/// in it, a run ending at a barrier, and a loop whose body stores as its
/// first step and again just before its branch. The `Err` value and the
/// memory left behind must not depend on the tier, on whether a tracer
/// observes the steps, or on the executor.
#[test]
fn watchdog_trips_identically_at_every_offset() {
    let mut b = KernelBuilder::new("watched");
    let out = b.param(0);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let lin = b.bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(64));
    let lin = b.bin(BinOp::Add, Ty::I32, lin, tid);
    let i = b.cvt(Ty::I64, lin);
    let slot = |n: i64| MemRef {
        disp: n * 128 * 4,
        ..MemRef::indexed(out, i, 4)
    };
    b.st_global(Ty::I32, slot(0), tid);
    let seven = b.mov_imm(Value::I32(7));
    b.bar();
    let k = b.mov_imm(Value::I32(0));
    let top = b.new_label();
    b.place(top);
    b.st_global(Ty::I32, slot(1), k);
    b.bin_to(k, BinOp::Add, Ty::I32, k, Value::I32(1));
    let again = b.cmp(CmpOp::Lt, Ty::I32, k, Value::I32(3));
    let v = b.bin(BinOp::Add, Ty::I32, k, seven);
    b.st_global(Ty::I32, slot(2), v);
    b.bra_if(again, top);
    b.st_global(Ty::I32, slot(3), lin);
    let kernel = b.finish();
    let cfg = LaunchConfig::d1(2, 64);

    let run = |limit: u64, tier: ExecTier, trace: bool, host_threads: u32| {
        let mut dev = Device::test_small();
        dev.set_exec_tier(tier);
        dev.set_host_threads(host_threads);
        dev.cost_model_mut().watchdog_warp_insts = limit;
        let buf = dev.alloc_elems(Ty::I32, 4 * 128).unwrap();
        dev.upload_values(buf, &[Value::I32(-1); 4 * 128]).unwrap();
        let params = [Value::U64(buf.addr)];
        let result = if trace {
            dev.launch_traced(&kernel, cfg, &params, 1 << 14)
                .map(|(stats, _)| stats)
        } else {
            dev.launch(&kernel, cfg, &params)
        };
        let mut bytes = vec![0u8; 4 * 128 * 4];
        dev.memcpy_d2h(buf, &mut bytes).unwrap();
        assert_eq!(dev.tier_declines(), 0);
        (result, bytes)
    };

    // Disabled, the kernel runs to completion; that run sizes the sweep.
    let (unwatched, done) = run(0, ExecTier::Interpret, false, 1);
    let per_block = unwatched.expect("limit 0 disables the watchdog").warp_insts / 2;
    assert!(
        per_block > 3 * 9 + 2,
        "the sweep spans three of the longest run"
    );
    for limit in 0..=per_block + 1 {
        let (want, want_mem) = run(limit, ExecTier::Interpret, false, 1);
        match &want {
            Ok(_) => {
                assert!(
                    limit == 0 || limit >= per_block,
                    "limit {limit} did not trip"
                );
                assert_eq!(want_mem, done, "limit {limit}");
            }
            Err(e) => assert_eq!(
                format!("{e:?}"),
                format!("Watchdog {{ executed_insts: {} }}", limit + 1),
                "limit {limit}"
            ),
        }
        for tier in [ExecTier::Interpret, ExecTier::Auto] {
            for trace in [false, true] {
                // 0: as the environment says (CI sets `UHACC_HOST_THREADS`).
                for host_threads in [1, 2, 0] {
                    let (got, mem) = run(limit, tier, trace, host_threads);
                    let at = format!("limit {limit} {tier} trace={trace} threads={host_threads}");
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}");
                    assert_eq!(mem, want_mem, "{at}: memory left behind");
                }
            }
        }
    }
}

/// A kernel shape the typed tier does not model runs on the interpreter
/// under `auto` instead of failing, and the decline is counted.
#[test]
fn compiled_tier_falls_back_on_unmodelled_shapes() {
    let mut b = KernelBuilder::new("tailbar");
    let tid = b.special(SpecialReg::TidX);
    let p = b.param(0);
    let i = b.cvt(Ty::I64, tid);
    b.st_global(Ty::I32, MemRef::indexed(p, i, 4), tid);
    b.bar();
    let k = b.finish(); // builder appends ret; still compilable
    assert!(gpsim::CompiledKernel::compile(&k).is_some());

    // A branch target one past the end of the stream (legal per the
    // builder, reachable only if taken) is not modelled; compile()
    // refuses, and the launch interprets — here the branch is never
    // taken, so interpretation succeeds.
    let k2 = Kernel {
        name: "off_end_target".into(),
        insts: vec![
            gpsim::Inst::MovImm {
                dst: gpsim::Reg(0),
                value: Value::Pred(false),
            },
            gpsim::Inst::Bra {
                target: gpsim::Label(0),
                cond: Some((gpsim::Reg(0), true)),
            },
            gpsim::Inst::Ret,
        ],
        label_targets: vec![3],
        num_regs: 1,
        shared_bytes: 0,
        num_params: 0,
        lines: vec![],
    };
    assert!(gpsim::CompiledKernel::compile(&k2).is_none());
    let mut dev = Device::test_small();
    dev.launch(&k2, LaunchConfig::d1(1, 32), &[]).unwrap();
    assert_eq!(dev.tier_declines(), 1);
    assert_eq!(
        dev.tier_decline_reasons(),
        vec![(gpsim::Decline::BranchPastEnd, 1)]
    );
}

// --- Warp-shape families -------------------------------------------------------

/// `ctaid.x * ntid + %linear`: the global thread index at any block shape.
fn linear_index(b: &mut KernelBuilder) -> gpsim::Reg {
    let ctaid = b.special(SpecialReg::CtaIdX);
    let lane = b.special(SpecialReg::LaneLinear);
    let t = b.bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(96));
    b.bin(BinOp::Add, Ty::I32, t, lane)
}

/// The shape families are about values, not faults: their launches must
/// succeed (two tiers agreeing on an error would prove nothing here).
fn assert_shape_family_agrees(kernel: &Kernel, cfg: LaunchConfig, seed: u64) {
    let (o, _) = run_once(kernel, cfg, ExecTier::Auto, PLAIN);
    assert!(
        !o.result.starts_with("err"),
        "{}: {}",
        kernel.name,
        o.result
    );
    assert_tiers_agree_on(kernel, cfg, seed, 0);
}

/// `out[lin] = v` (an `I32` register).
fn store_out(b: &mut KernelBuilder, out: gpsim::Reg, lin: gpsim::Reg, v: gpsim::Reg) {
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), v);
}

/// A 2-D block whose `blockDim.x` is not a multiple of the warp size: a
/// warp straddles block rows, so `tid.x` is not affine and `tid.y` is not
/// uniform across it — while in the 32-wide shapes they are. The kernel
/// feeds both through arithmetic, a comparison, a branch, address
/// computation and a store source.
#[test]
fn blocks_whose_rows_straddle_warps_agree_across_tiers() {
    let mut b = KernelBuilder::new("straddle");
    let data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let nx = b.special(SpecialReg::NTidX);
    // Rebuild the in-block linear id from (tid.x, tid.y): equals %linear
    // only if both were read right.
    let rebuilt = b.bin(BinOp::Mul, Ty::I32, ty, nx);
    let rebuilt = b.bin(BinOp::Add, Ty::I32, rebuilt, tx);
    let acc = b.bin(BinOp::Mul, Ty::I32, rebuilt, Value::I32(1000));
    // `tid.y == 1` is uniform in a row-aligned warp, divergent otherwise.
    let on_row = b.cmp(CmpOp::Eq, Ty::I32, ty, Value::I32(1));
    let skip = b.new_label();
    b.bra_unless(on_row, skip);
    let x64 = b.cvt(Ty::I64, tx);
    let v = b.ld_global(Ty::I32, MemRef::indexed(data, x64, 4));
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    b.place(skip);
    // `tid.x < 12` splits every row; select on it with shaped arms.
    let low = b.cmp(CmpOp::Lt, Ty::I32, tx, Value::I32(12));
    let pick = b.select(low, tx, ty);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, pick);
    store_out(&mut b, out, lin, acc);
    // `tid.x` itself as a store source, into the data buffer.
    let di = b.bin(BinOp::And, Ty::I32, lin, Value::I32(DATA_ELEMS as i32 - 1));
    let di = b.cvt(Ty::I64, di);
    b.st_global(Ty::I32, MemRef::indexed(data, di, 4), tx);
    let k = b.finish();
    for (workers, vector) in [(4, 24), (3, 32), (2, 48), (1, 96), (96, 1), (32, 3)] {
        assert_shape_family_agrees(&k, LaunchConfig::gwv(4, workers, vector), vector as u64);
    }
}

/// Lanes that `ret` early: the warp never has a full mask again, and the
/// survivors — a contiguous prefix in one variant, a scattered set in the
/// other — go on computing uniform and affine values, diverge (a partial
/// mask *inside* the live set writes registers that held closed forms),
/// loop, and meet at a barrier.
#[test]
fn early_exits_leave_survivors_agreeing_across_tiers() {
    for scattered in [false, true] {
        let mut b = KernelBuilder::new(format!("early_ret_{scattered}"));
        let data = b.param(0);
        let out = b.param(1);
        let lin = linear_index(&mut b);
        let tid = b.special(SpecialReg::TidX);
        b.alloc_shared(96 * 4, 4);
        let gone = if scattered {
            let m = b.bin(BinOp::And, Ty::I32, tid, Value::I32(3));
            b.cmp(CmpOp::Eq, Ty::I32, m, Value::I32(1))
        } else {
            b.cmp(CmpOp::Ge, Ty::I32, tid, Value::I32(70))
        };
        let stay = b.new_label();
        b.bra_unless(gone, stay);
        b.ret();
        b.place(stay);
        // All live lanes: a uniform, an affine, and a per-lane value.
        let u = b.mov_imm(Value::I32(5));
        let a = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(3));
        let t64 = b.cvt(Ty::I64, tid);
        let v = b.ld_global(Ty::I32, MemRef::indexed(data, t64, 4));
        // Half of the survivors overwrite all three.
        let half = b.bin(BinOp::And, Ty::I32, tid, Value::I32(4));
        let half = b.cmp(CmpOp::Ne, Ty::I32, half, Value::I32(0));
        let join = b.new_label();
        b.bra_unless(half, join);
        b.mov_imm_to(u, Value::I32(9));
        b.bin_to(a, BinOp::Add, Ty::I32, tid, Value::I32(100));
        b.bin_to(v, BinOp::Sub, Ty::I32, a, u);
        b.place(join);
        // A uniform-trip loop over the survivors.
        let i = b.mov_imm(Value::I32(0));
        let top = b.new_label();
        let done = b.new_label();
        b.place(top);
        let stop = b.cmp(CmpOp::Ge, Ty::I32, i, Value::I32(3));
        b.bra_if(stop, done);
        b.bin_to(a, BinOp::Add, Ty::I32, a, u);
        b.bin_to(v, BinOp::Xor, Ty::I32, v, a);
        b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(1));
        b.bra(top);
        b.place(done);
        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4), v);
        b.bar();
        let back = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4));
        let r = b.bin(BinOp::Add, Ty::I32, back, a);
        let r = b.bin(BinOp::Add, Ty::I32, r, u);
        store_out(&mut b, out, lin, r);
        let k = b.finish();
        assert_shape_family_agrees(&k, D1, scattered as u64);
    }
}

/// A value-returning atomic into a register that held a uniform: the
/// register becomes per-lane (each lane sees a different "old"), under a
/// full and under a partial mask.
#[test]
fn returning_atomics_into_uniform_registers_agree_across_tiers() {
    let mut b = KernelBuilder::new("atom_into_uniform");
    let data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    let r = b.mov_imm(Value::I32(7));
    let q = b.mov_imm(Value::I32(11));
    let atom = |b: &mut KernelBuilder, dst, slot: i64| {
        let slot = b.mov_imm(Value::I64(slot));
        b.emit(gpsim::Inst::AtomGlobal {
            op: AtomOp::Add,
            ty: Ty::I32,
            mref: MemRef::indexed(data, slot, 4),
            src: Value::I32(1).into(),
            dst: Some(dst),
        })
    };
    atom(&mut b, r, 3);
    // Only some lanes replace `q`; the others must keep the uniform 11.
    let some = b.bin(BinOp::And, Ty::I32, tid, Value::I32(2));
    let some = b.cmp(CmpOp::Ne, Ty::I32, some, Value::I32(0));
    let join = b.new_label();
    b.bra_unless(some, join);
    atom(&mut b, q, 5);
    b.place(join);
    let s = b.bin(BinOp::Mul, Ty::I32, r, Value::I32(1000));
    let s = b.bin(BinOp::Add, Ty::I32, s, q);
    store_out(&mut b, out, lin, s);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
}

/// Affine registers used directly as store *sources* (global and shared),
/// never having been read per lane before — to per-lane addresses and to
/// one address shared by the whole warp.
#[test]
fn affine_store_sources_agree_across_tiers() {
    let mut b = KernelBuilder::new("affine_source");
    let data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    b.alloc_shared(96 * 8, 8);
    let a = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(-7));
    let a = b.bin(BinOp::Add, Ty::I32, a, Value::I32(40));
    let wide = b.cvt(Ty::I64, a);
    let t64 = b.cvt(Ty::I64, tid);
    // Reversed slot: lane `t` stores to slot `95 - t`.
    let rev = b.bin(BinOp::Sub, Ty::I64, Value::I64(95), t64);
    b.st_shared(Ty::I64, MemRef::indexed(Value::U64(0), rev, 8), wide);
    b.bar();
    let got = b.ld_shared(Ty::I64, MemRef::indexed(Value::U64(0), t64, 8));
    let got = b.cvt(Ty::I32, got);
    // The store converts its source: an `I64` affine stored as `I32`.
    let i = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), wide);
    let back = b.ld_global(Ty::I32, MemRef::indexed(out, i, 4));
    let r = b.bin(BinOp::Xor, Ty::I32, back, got);
    b.st_global(Ty::I32, MemRef::indexed(out, i, 4), r);
    // Every lane stores its own value to one address: the warp's last
    // lane wins, so one store of "the" value would be wrong.
    let slot = b.mov_imm(Value::I64(9));
    b.st_global(Ty::I32, MemRef::indexed(data, slot, 4), a);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
}

/// An affine loop counter that overflows `i32` part-way through a warp:
/// sign extension, ordered and equality comparisons of the wrapping
/// sequence must all fall back to the lanes.
#[test]
fn affine_counters_that_wrap_i32_agree_across_tiers() {
    let mut b = KernelBuilder::new("i32_wrap");
    let _data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    // Lanes 0..96 start at MAX-60..MAX+35: warp 1 straddles the edge at
    // once, warp 0 crosses it on the second trip, warp 2 starts past it.
    let i = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(i32::MAX - 60));
    let acc = b.mov_imm(Value::I64(0));
    let n = b.mov_imm(Value::I32(0));
    let top = b.new_label();
    let done = b.new_label();
    b.place(top);
    let stop = b.cmp(CmpOp::Ge, Ty::I32, n, Value::I32(3));
    b.bra_if(stop, done);
    let wide = b.cvt(Ty::I64, i);
    b.bin_to(acc, BinOp::Add, Ty::I64, acc, wide);
    let neg = b.cmp(CmpOp::Lt, Ty::I32, i, Value::I32(0));
    let neg = b.cvt(Ty::I64, neg);
    b.bin_to(acc, BinOp::Add, Ty::I64, acc, neg);
    let edge = b.cmp(CmpOp::Ne, Ty::I32, i, Value::I32(i32::MIN));
    let edge = b.select(edge, Value::I64(0), Value::I64(1 << 20));
    b.bin_to(acc, BinOp::Xor, Ty::I64, acc, edge);
    // Equalities whose difference crosses zero inside a warp *without*
    // wrapping: false at both end lanes, true in between.
    let hit = b.cmp(CmpOp::Eq, Ty::I32, tid, Value::I32(40));
    let hit = b.cvt(Ty::I64, hit);
    b.bin_to(acc, BinOp::Add, Ty::I64, acc, hit);
    let miss = b.cmp(CmpOp::Ne, Ty::I64, wide, Value::I64(i32::MAX as i64 - 50));
    let miss = b.select(miss, Value::I64(0), Value::I64(1 << 24));
    b.bin_to(acc, BinOp::Xor, Ty::I64, acc, miss);
    // An unsigned view of the same wrap.
    let u = b.cvt(Ty::U64, i);
    let big = b.cmp(CmpOp::Gt, Ty::U64, u, Value::U64(1 << 40));
    let big = b.cvt(Ty::I64, big);
    b.bin_to(acc, BinOp::Add, Ty::I64, acc, big);
    b.bin_to(i, BinOp::Add, Ty::I32, i, Value::I32(29));
    b.bin_to(n, BinOp::Add, Ty::I32, n, Value::I32(1));
    b.bra(top);
    b.place(done);
    let lo = b.cvt(Ty::I32, acc);
    let hi = b.bin(BinOp::Shr, Ty::I64, acc, Value::I64(32));
    let hi = b.cvt(Ty::I32, hi);
    let r = b.bin(BinOp::Xor, Ty::I32, lo, hi);
    store_out(&mut b, out, lin, r);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
}

/// Shapes established before a barrier and consumed after it. The odd
/// lanes detour through a block placed *after* the barrier's code, so the
/// even lanes reach the barrier first and rest there while the odd lanes —
/// then the warp's only runnable lanes, but not its only live ones —
/// overwrite a register the waiting lanes still hold as a uniform.
#[test]
fn shapes_carried_across_barriers_agree_across_tiers() {
    let mut b = KernelBuilder::new("across_bar");
    let _data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaIdX);
    b.alloc_shared(96 * 4, 4);
    let u = b.bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(3));
    let a = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(2));
    let a = b.bin(BinOp::Add, Ty::I32, a, Value::I32(1));
    let p = b.mov_imm(Value::I32(-1));
    let odd = b.bin(BinOp::And, Ty::I32, tid, Value::I32(1));
    let odd = b.cmp(CmpOp::Ne, Ty::I32, odd, Value::I32(0));
    let detour = b.new_label();
    let meet = b.new_label();
    b.bra_if(odd, detour);
    b.place(meet);
    let t64 = b.cvt(Ty::I64, tid);
    b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4), a);
    b.bar();
    // Neighbour's value (rotated by one), plus everything carried over.
    let nb = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(1));
    let nb = b.bin(BinOp::Rem, Ty::I32, nb, Value::I32(96));
    let nb = b.cvt(Ty::I64, nb);
    let got = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), nb, 4));
    let r = b.bin(BinOp::Add, Ty::I32, got, a);
    let r = b.bin(BinOp::Add, Ty::I32, r, u);
    let r = b.bin(BinOp::Xor, Ty::I32, r, p);
    b.bar();
    b.bin_to(a, BinOp::Sub, Ty::I32, a, u);
    let r = b.bin(BinOp::Add, Ty::I32, r, a);
    store_out(&mut b, out, lin, r);
    b.ret();
    b.place(detour);
    b.bin_to(p, BinOp::Add, Ty::I32, a, u);
    b.bra(meet);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
}

// --- Closed-form memory spans ----------------------------------------------------
//
// A full warp whose address rows are closed forms is charged and moved
// from `a0 + i * stride` without listing its lanes. These rows hold each
// way that could go wrong against the interpreter, and check that the
// typed tier really took the span (`ShapeCensus::spans`) — or, for the
// wrapping index, that it did not where it must not.

/// Memory steps of `kernel` the typed tier served from a closed form.
fn spans(kernel: &Kernel, cfg: LaunchConfig) -> u64 {
    let mode = Mode {
        trace: false,
        ..PLAIN
    };
    run_once(kernel, cfg, ExecTier::Auto, mode)
        .1
        .shape_census()
        .spans
}

/// `base + scale * (index + disp)`: an element at a displaced index.
fn at(base: impl Into<gpsim::Operand>, index: gpsim::Reg, disp: i64, scale: u64) -> MemRef {
    MemRef {
        disp: disp * scale as i64,
        ..MemRef::indexed(base, index, scale)
    }
}

/// A dense span that runs past the end of device memory partway through
/// a warp (`out` is the last allocation): the memory refuses the span and
/// the lanes replay, so the fault is the first lane past the end and the
/// lanes before it have stored — the interpreter's error, lane and
/// partial writes. `I32` stores and loads, and `F64` stores whose fault
/// falls mid-warp too.
#[test]
fn dense_spans_running_off_memory_agree_across_tiers() {
    for variant in 0..3 {
        let mut b = KernelBuilder::new(format!("off_the_end_{variant}"));
        let _data = b.param(0);
        let out = b.param(1);
        let lin = linear_index(&mut b);
        let l64 = b.cvt(Ty::I64, lin);
        match variant {
            0 => b.st_global(Ty::I32, at(out, l64, 16, 4), lin),
            1 => {
                let v = b.ld_global(Ty::I32, at(out, l64, 16, 4));
                b.st_global(Ty::I32, MemRef::indexed(out, l64, 4), v);
            }
            _ => {
                let f = b.cvt(Ty::F64, lin);
                b.st_global(Ty::F64, at(out, l64, 8, 8), f);
            }
        }
        let k = b.finish();
        assert_tiers_agree(&k, variant, 0);
        let (o, _) = run_once(&k, D1, ExecTier::Auto, PLAIN);
        assert!(o.result.contains("GlobalOutOfBounds"), "{}", o.result);
        if variant == 0 {
            // The faulting warp's first 16 lanes stored `lin` = 352..368.
            let stored = |i: usize| i32::from_le_bytes(o.out[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!((stored(368), stored(383)), (352, 367));
        }
        assert!(spans(&k, D1) > 0, "{}: no span taken", k.name);
    }
}

/// Spans through the parallel executor's block overlay: dense `I32` and
/// `F64` spans that straddle a 256-byte overlay page, a misaligned dense
/// span (the overlay refuses it and the lanes replay), and a dense read
/// after an atomic of the same block (the overlay refuses it, and the
/// replay hands the launch to the sequential executor). The harness runs
/// every row on 1 and 4 host threads.
#[test]
fn spans_through_the_block_overlay_agree_across_tiers() {
    for atomic in [false, true] {
        let mut b = KernelBuilder::new(format!("overlay_spans_{atomic}"));
        let data = b.param(0);
        let out = b.param(1);
        let lin = linear_index(&mut b);
        let tid = b.special(SpecialReg::TidX);
        let t64 = b.cvt(Ty::I64, tid);
        let l64 = b.cvt(Ty::I64, lin);
        if atomic {
            let zero = b.mov_imm(Value::I64(0));
            b.atom_global(
                AtomOp::Add,
                Ty::I32,
                MemRef::indexed(data, zero, 4),
                tid,
                false,
            );
        }
        // Warp 1 reads bytes 192..320 of `data`: across the page edge.
        let x = b.ld_global(Ty::I32, at(data, t64, 16, 4));
        let f = b.ld_global(Ty::F64, at(data, t64, 8, 8));
        let m = b.ld_global(
            Ty::I32,
            MemRef {
                disp: 2,
                ..MemRef::indexed(data, t64, 4)
            },
        );
        let f = b.cvt(Ty::I32, f);
        let r = b.bin(BinOp::Xor, Ty::I32, x, f);
        let r = b.bin(BinOp::Add, Ty::I32, r, m);
        // Shifted back 16 elements: every warp's store straddles a page.
        b.st_global(Ty::I32, at(out, l64, -16, 4), r);
        let k = b.finish();
        assert_shape_family_agrees(&k, D1, atomic as u64);
        assert!(spans(&k, D1) > 0, "{}: no span taken", k.name);
    }
}

/// An `I32` index that wraps inside a warp is no closed form of its lanes'
/// addresses. The base is placed so that the lanes before the wrap store
/// into `data`: warp 0 never wraps and takes the span; warp 1 wraps at its
/// tenth lane, whose address is wild — the launch must fault there, after
/// nine stores, where a span would have stored on.
#[test]
fn an_i32_index_that_wraps_inside_a_warp_takes_no_span() {
    let mut b = KernelBuilder::new("wrapping_index");
    let data = b.param(0);
    let _out = b.param(1);
    let tid = b.special(SpecialReg::TidX);
    let from = i32::MAX - 40;
    let base = b.bin(BinOp::Sub, Ty::U64, data, Value::U64(4 * from as u64));
    let i = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(from));
    let i64 = b.cvt(Ty::I64, i);
    b.st_global(Ty::I32, MemRef::indexed(base, i64, 4), tid);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 0);
    let (o, _) = run_once(&k, D1, ExecTier::Auto, PLAIN);
    assert!(o.result.contains("GlobalOutOfBounds"), "{}", o.result);
    let stored = |i: usize| i32::from_le_bytes(o.data[i * 4..i * 4 + 4].try_into().unwrap());
    assert_eq!((stored(31), stored(40)), (31, 40));
    assert_eq!(stored(41), data_init()[41].as_i64() as i32);
    assert_eq!(spans(&k, D1), 1, "only warp 0 of block 0 is a closed form");
}

/// Addresses the whole warp computed — closed forms — used by a smaller
/// group: a prefix of each warp (lanes below 20) and a scattered set (all
/// but every third lane), loading, storing, dense and strided, global and
/// shared. A span describes all of a warp's lanes, so these steps list the
/// group's lanes; only the final full-warp store of each warp is a span.
#[test]
fn closed_form_addresses_under_a_partial_mask_take_no_span() {
    let mut b = KernelBuilder::new("partial_groups");
    let data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    let l64 = b.cvt(Ty::I64, lin);
    let col = b.bin(BinOp::Mul, Ty::I64, t64, Value::I64(2));
    b.alloc_shared(96 * 8, 8);
    let acc = b.mov_imm(Value::I32(1));
    let lane = b.bin(BinOp::And, Ty::I32, tid, Value::I32(31));
    let low = b.cmp(CmpOp::Lt, Ty::I32, lane, Value::I32(20));
    let prefix_done = b.new_label();
    b.bra_unless(low, prefix_done);
    let v = b.ld_global(Ty::I32, MemRef::indexed(data, t64, 4));
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    let v = b.ld_global(Ty::I32, MemRef::indexed(data, col, 4));
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, v);
    b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4), acc);
    b.st_global(Ty::I32, MemRef::indexed(out, l64, 4), acc);
    b.place(prefix_done);
    let third = b.bin(BinOp::Rem, Ty::I32, lin, Value::I32(3));
    let third = b.cmp(CmpOp::Eq, Ty::I32, third, Value::I32(1));
    let scattered_done = b.new_label();
    b.bra_if(third, scattered_done);
    let v = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), col, 4));
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    let v = b.ld_global(Ty::I32, MemRef::indexed(data, col, 4));
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, v);
    let wide = b.cvt(Ty::F64, acc);
    b.st_shared(Ty::F64, MemRef::indexed(Value::U64(0), t64, 8), wide);
    b.st_global(Ty::I32, MemRef::indexed(data, t64, 4), acc);
    b.place(scattered_done);
    let v = b.ld_global(Ty::I32, MemRef::indexed(out, l64, 4));
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    b.st_global(Ty::I32, MemRef::indexed(out, l64, 4), acc);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
    // Per warp, the final load and store: 4 blocks of 3 warps.
    assert_eq!(spans(&k, D1), 2 * 12);
}

/// Closed forms the counters have no formula for: negative strides
/// (reversed `I32` and `F64` rows, global and shared) are charged over the
/// listed lanes and moved lane by lane.
#[test]
fn negative_stride_spans_agree_across_tiers() {
    let mut b = KernelBuilder::new("reversed");
    let data = b.param(0);
    let out = b.param(1);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let tid = b.special(SpecialReg::TidX);
    b.alloc_shared(96 * 8, 8);
    let rev = b.bin(BinOp::Sub, Ty::I32, Value::I32(95), tid);
    let r64 = b.cvt(Ty::I64, rev);
    let x = b.ld_global(Ty::I32, at(data, r64, 100, 4));
    let f = b.cvt(Ty::F64, x);
    b.st_shared(Ty::F64, MemRef::indexed(Value::U64(0), r64, 8), f);
    b.bar();
    let t64 = b.cvt(Ty::I64, tid);
    let g = b.ld_shared(Ty::F64, MemRef::indexed(Value::U64(0), r64, 8));
    let h = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4));
    let g = b.cvt(Ty::I32, g);
    let r = b.bin(BinOp::Add, Ty::I32, g, h);
    let row = b.bin(BinOp::Mul, Ty::I32, ctaid, Value::I32(96));
    let slot = b.bin(BinOp::Add, Ty::I32, row, rev);
    let slot = b.cvt(Ty::I64, slot);
    b.st_global(Ty::I32, MemRef::indexed(out, slot, 4), r);
    let k = b.finish();
    assert_shape_family_agrees(&k, D1, 0);
    assert!(spans(&k, D1) > 0, "no span taken");
}

/// Strided closed forms: matmul's column reads of 3, 4 and 6 segments per
/// lane (one segment each, unless a misaligned `F64` spills into the
/// next), short strides inside one segment, and shared-memory strides of
/// 2 and 3 words and a dense `F64` row (bank ways).
#[test]
fn strided_column_spans_agree_across_tiers() {
    let mut b = KernelBuilder::new("columns");
    let _data = b.param(0);
    let out = b.param(1);
    let cols = b.param(2);
    let lin = linear_index(&mut b);
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    b.alloc_shared(96 * 16, 8);
    let acc = b.mov_imm(Value::I32(0));
    let x64 = b.cvt(Ty::I64, tx);
    let y64 = b.cvt(Ty::I64, ty);
    for (segs, disp) in [(3, 0), (4, 5), (6, 1), (1, 0)] {
        let step = b.bin(BinOp::Mul, Ty::I64, x64, Value::I64(32 * segs));
        let i = b.bin(BinOp::Add, Ty::I64, step, y64);
        let v = b.ld_global(Ty::I32, at(cols, i, disp, 4));
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    }
    // A misaligned `F64` column: every lane's access spills a segment.
    let step = b.bin(BinOp::Mul, Ty::I64, x64, Value::I64(16 * 4));
    let f = b.ld_global(
        Ty::F64,
        MemRef {
            disp: 124,
            ..MemRef::indexed(cols, step, 8)
        },
    );
    let f = b.cvt(Ty::I32, f);
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, f);
    // Three lanes to a segment.
    let v = b.ld_global(Ty::I32, MemRef::indexed(cols, x64, 40));
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    let t64 = b.cvt(Ty::I64, lin);
    for words in [2, 3] {
        b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), x64, 4 * words), acc);
        let v = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), x64, 4 * words));
        b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    }
    let wide = b.cvt(Ty::F64, acc);
    b.st_shared(Ty::F64, MemRef::indexed(Value::U64(0), x64, 8), wide);
    let v = b.ld_shared(Ty::F64, MemRef::indexed(Value::U64(0), x64, 8));
    let v = b.cvt(Ty::I32, v);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, v);
    b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), acc);
    let k = b.finish();
    // One warp per block row: `tid.x` is a closed form in every warp.
    let cfg = LaunchConfig::gwv(4, 3, 32);
    assert_shape_family_agrees(&k, cfg, 0);
    assert!(spans(&k, cfg) > 0, "no span taken");
}

/// Spans under a tracer and under the sanitizer: both read the lanes'
/// accesses, so a span writes them out first. Warp 0 stores a dense
/// shared row that warp 1 reads, shifted, with no barrier between: the
/// race must be reported with the same lanes and bytes, and the trace must
/// carry the same touched ranges.
#[test]
fn observed_spans_agree_across_tiers() {
    let mut b = KernelBuilder::new("observed_spans");
    let data = b.param(0);
    let out = b.param(1);
    let lin = linear_index(&mut b);
    let tid = b.special(SpecialReg::TidX);
    let t64 = b.cvt(Ty::I64, tid);
    b.alloc_shared(128 * 4, 4);
    let x = b.ld_global(Ty::I32, MemRef::indexed(data, t64, 4));
    b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), t64, 4), x);
    let y = b.ld_shared(Ty::I32, at(Value::U64(0), t64, 20, 4));
    let l64 = b.cvt(Ty::I64, lin);
    b.st_global(Ty::I32, MemRef::indexed(out, l64, 4), y);
    let k = b.finish();
    assert_tiers_agree(&k, 0, 0);
    let observed = Mode {
        sanitize: true,
        ..PLAIN
    };
    let (o, _) = run_once(&k, D1, ExecTier::Auto, observed);
    assert!(
        o.hazards.contains("Race"),
        "no race reported: {}",
        o.hazards
    );
    assert!(o.trace.contains("MemTouch"), "no touched range traced");
    assert!(spans(&k, D1) > 0, "no span taken");
}

// --- Launch-scoped state ---------------------------------------------------------

/// The typed tier's bit rows and shape table belong to the launch, not to
/// the block: a block starts on whatever lanes the previous block of its
/// executor thread left behind. The even blocks of this kernel write
/// per-lane garbage into every register below and into every shared word;
/// the odd blocks never write those registers — they hold the
/// interpreter's zero — and read them, and immediates, through lane
/// loops: under a full mask, under a contiguous partial mask, under a
/// scattered one, and after a partial first write (the lanes outside it
/// must read zero). Run at a shape with more blocks than executor threads
/// and a short last warp too.
fn dirty_rows_kernel() -> Kernel {
    let mut b = KernelBuilder::new("dirty_rows");
    let data = b.param(0);
    let out = b.param(1);
    let lin = b.special(SpecialReg::LaneLinear);
    let ctaid = b.special(SpecialReg::CtaIdX);
    let ntid = b.special(SpecialReg::NTidX);
    let g = b.bin(BinOp::Mul, Ty::I32, ctaid, ntid);
    let g = b.bin(BinOp::Add, Ty::I32, g, lin);
    let l64 = b.cvt(Ty::I64, lin);
    b.alloc_shared(96 * 4, 4);
    // A per-lane value no closed form describes.
    let di = b.bin(BinOp::And, Ty::I32, g, Value::I32(DATA_ELEMS as i32 - 1));
    let di = b.cvt(Ty::I64, di);
    let x = b.ld_global(Ty::I32, MemRef::indexed(data, di, 4));
    let [full, part, scat, wpart, wscat] = [(); 5].map(|()| b.reg());
    let (wide, real) = (b.reg(), b.reg());
    let odd = b.bin(BinOp::And, Ty::I32, ctaid, Value::I32(1));
    let odd = b.cmp(CmpOp::Ne, Ty::I32, odd, Value::I32(0));
    let reader = b.new_label();
    let end = b.new_label();
    b.bra_if(odd, reader);

    // Even blocks: garbage everywhere.
    for (k, r) in [full, part, scat, wpart, wscat].into_iter().enumerate() {
        b.bin_to(
            r,
            BinOp::Xor,
            Ty::I32,
            x,
            Value::I32(0x5eed_0000 + k as i32),
        );
    }
    b.cvt_to(wide, Ty::I64, x);
    b.bin_to(wide, BinOp::Mul, Ty::I64, wide, Value::I64(0x1_0000_0001));
    b.cvt_to(real, Ty::F64, x);
    b.st_shared(Ty::I32, MemRef::indexed(Value::U64(0), l64, 4), x);
    b.bra(end);

    // Odd blocks: every read below goes through a lane loop, because `acc`
    // is per-lane.
    b.place(reader);
    let acc = b.bin(BinOp::Add, Ty::I32, x, full);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, Value::I32(101));
    let w = b.cvt(Ty::I64, acc);
    b.bin_to(w, BinOp::Add, Ty::I64, w, wide);
    let f = b.cvt(Ty::F64, acc);
    b.bin_to(f, BinOp::Add, Ty::F64, f, real);
    let sh = b.ld_shared(Ty::I32, MemRef::indexed(Value::U64(0), l64, 4));
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, sh);
    // Lanes 0..20 of every warp.
    let lane = b.bin(BinOp::And, Ty::I32, lin, Value::I32(31));
    let low = b.cmp(CmpOp::Lt, Ty::I32, lane, Value::I32(20));
    let join = b.new_label();
    b.bra_unless(low, join);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, part);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, Value::I32(202));
    b.bin_to(wpart, BinOp::Add, Ty::I32, x, Value::I32(1));
    b.place(join);
    // Every lane but each third one.
    let third = b.bin(BinOp::Rem, Ty::I32, lin, Value::I32(3));
    let third = b.cmp(CmpOp::Eq, Ty::I32, third, Value::I32(1));
    let join = b.new_label();
    b.bra_if(third, join);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, scat);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, Value::I32(303));
    b.bin_to(wscat, BinOp::Sub, Ty::I32, x, Value::I32(1));
    b.place(join);
    // The partially written registers, read by everyone.
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, wpart);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, wscat);
    let w = b.cvt(Ty::I32, w);
    b.bin_to(acc, BinOp::Xor, Ty::I32, acc, w);
    let f = b.cvt(Ty::I32, f);
    b.bin_to(acc, BinOp::Add, Ty::I32, acc, f);
    let gi = b.cvt(Ty::I64, g);
    b.st_global(Ty::I32, MemRef::indexed(out, gi, 4), acc);
    b.place(end);
    b.ret();
    b.finish()
}

#[test]
fn blocks_that_inherit_dirty_rows() {
    let k = dirty_rows_kernel();
    // The odd blocks' answer is known: every victim register reads zero.
    let (o, _) = run_once(&k, D1, ExecTier::Auto, PLAIN);
    assert!(!o.result.starts_with("err"), "{}", o.result);
    let init = |g: usize| (g as i32).wrapping_mul(2654435761u32 as i32);
    for g in (96..192).chain(288..384) {
        let (x, lane) = (init(g % DATA_ELEMS as usize), g % 96 % 32);
        let mut acc = x.wrapping_add(101);
        let (w, f) = (acc as i64, acc as f64);
        if lane < 20 {
            acc = acc.wrapping_add(202);
        }
        if g % 96 % 3 != 1 {
            acc = acc.wrapping_add(303);
        }
        acc ^= if lane < 20 { x.wrapping_add(1) } else { 0 };
        acc = acc.wrapping_add(if g % 96 % 3 != 1 {
            x.wrapping_sub(1)
        } else {
            0
        });
        acc = (acc ^ w as i32).wrapping_add(f as i32);
        let got = i32::from_le_bytes(o.out[g * 4..g * 4 + 4].try_into().unwrap());
        assert_eq!(got, acc, "thread {g}");
    }
    for cfg in [D1, LaunchConfig::d1(8, 48), LaunchConfig::gwv(4, 2, 48)] {
        assert_shape_family_agrees(&k, cfg, cfg.block.0 as u64);
    }

    // Two launches back to back on one device, of different block sizes
    // and register counts: nothing of the first is visible to the second.
    let (a, b) = (gen_kernel(3), gen_kernel(7));
    assert_ne!(a.num_regs, b.num_regs);
    for launches in [
        [(&a, D1), (&b, LaunchConfig::d1(6, 64))],
        [(&b, LaunchConfig::d1(12, 32)), (&a, D1)],
        [(&k, LaunchConfig::d1(8, 48)), (&k, D1)],
    ] {
        assert_launches_agree(&launches, 0, 0);
    }
}
