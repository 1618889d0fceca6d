//! Differential tests: the typed execution tier must be **bit-identical**
//! to the reference interpreter in every observable output — memory
//! contents, [`LaunchStats`], modelled cycles, profile attribution, hazard
//! reports, traces, and error values — across randomly generated kernels
//! and the full harness matrix (host_threads × sanitize × profile).
//!
//! Kernels come from a deterministic xorshift generator: structured random
//! programs with uniform and divergent arithmetic, global/shared
//! loads/stores, atomics, barriers, and forward branches (forward-only, so
//! every generated kernel terminates without leaning on the watchdog).

use gpsim::{
    AtomOp, BinOp, CmpOp, Device, ExecTier, Kernel, KernelBuilder, LaunchConfig, MemRef,
    ProfileConfig, SanitizerConfig, SanitizerLevel, SpecialReg, Ty, UnOp, Value,
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
            // never manufactures a barrier-divergence deadlock.
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

/// Run `kernel` once; returns the observables and the device's count of
/// launches the typed tier declined.
fn run_once(
    kernel: &Kernel,
    tier: ExecTier,
    host_threads: u32,
    sanitize: bool,
    profile: bool,
) -> (Outcome, u64) {
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
        dev.set_profiler(Some(ProfileConfig::default()));
    }
    let data = dev.alloc_elems(Ty::I32, DATA_ELEMS).unwrap();
    let out = dev.alloc_elems(Ty::I32, 4 * 96).unwrap();
    let init: Vec<Value> = (0..DATA_ELEMS)
        .map(|i| Value::I32((i as i32).wrapping_mul(2654435761u32 as i32)))
        .collect();
    dev.upload_values(data, &init).unwrap();
    let cfg = LaunchConfig::d1(4, 96); // 3 warps per block, last one partial
    let result = dev.launch_traced(
        kernel,
        cfg,
        &[Value::U64(data.addr), Value::U64(out.addr)],
        1 << 14,
    );
    let (res_str, trace_str) = match &result {
        Ok((stats, trace)) => (format!("{stats:?}"), format!("{trace:?}")),
        Err(e) => (format!("err: {e:?}"), String::new()),
    };
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
    (outcome, dev.tier_declines())
}

/// Assert interpreter ≡ `auto` for one kernel across the harness matrix,
/// and that `auto` really ran the typed tier (`declines` = 0) — or, for
/// the rows that pin a decline, really took the decline path (1).
fn assert_tiers_agree(kernel: &Kernel, seed: u64, declines: u64) {
    for &host_threads in &[1u32, 4] {
        for &sanitize in &[false, true] {
            for &profile in &[false, true] {
                let (a, _) = run_once(kernel, ExecTier::Interpret, host_threads, sanitize, profile);
                let (b, declined) =
                    run_once(kernel, ExecTier::Auto, host_threads, sanitize, profile);
                assert_eq!(
                    a,
                    b,
                    "tier divergence: seed={seed} host_threads={host_threads} \
                     sanitize={sanitize} profile={profile}\n{}",
                    kernel.disasm()
                );
                assert_eq!(declined, declines, "typed-tier declines: seed={seed}");
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
        let (o, _) = run_once(&k, ExecTier::Auto, 1, false, false);
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

/// The watchdog must trip at the identical instruction count in both
/// tiers (it is checked after every instruction, not per run).
#[test]
fn watchdog_trips_identically_across_tiers() {
    let mut b = KernelBuilder::new("spin");
    let top = b.new_label();
    b.place(top);
    let c = b.mov_imm(Value::Pred(true));
    b.bra_if(c, top);
    b.ret();
    let k = b.finish();
    let mut outcomes = Vec::new();
    for &tier in &[ExecTier::Interpret, ExecTier::Auto] {
        let mut dev = Device::test_small();
        dev.set_exec_tier(tier);
        dev.cost_model_mut().watchdog_warp_insts = 10_000;
        let r = dev.launch(&k, LaunchConfig::d1(1, 64), &[]);
        assert!(r.is_err(), "watchdog must fire ({tier})");
        outcomes.push(format!("{r:?}"));
    }
    assert_eq!(outcomes[0], outcomes[1]);
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
}
