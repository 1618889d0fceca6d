//! The [`Device`] facade: global memory, configuration, cost model and
//! session statistics behind one handle — the simulated analogue of a CUDA
//! context.

use crate::compiled::{Decline, ShapeCensus, TypedKernel};
use crate::cost::{CostModel, DeviceConfig, ExecTier};
use crate::error::SimError;
use crate::exec::{run_kernel_instrumented, LaunchConfig};
use crate::ir::Kernel;
use crate::memory::{BufferHandle, GlobalMemory};
use crate::profile::{LaunchProfile, SessionProfile, SpanKind};
use crate::sanitizer::{HazardReport, LaunchSanitizer, SanitizerConfig};
use crate::stats::{LaunchStats, SessionStats};
use crate::trace::Trace;
use crate::types::{Ty, Value};
use crate::verify::{verify_kernel, VerifyConfig, VerifyReport};

/// A simulated GPU device.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    cost: CostModel,
    global: GlobalMemory,
    stats: SessionStats,
    /// Declined launches, per reason (indexed like [`Decline::ALL`]).
    tier_declines: [u64; Decline::ALL.len()],
    shape_census: ShapeCensus,
    sanitizer: SanitizerConfig,
    hazards: Vec<HazardReport>,
    verifier: bool,
    verify_reports: Vec<VerifyReport>,
    session_profile: SessionProfile,
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default(), CostModel::default())
    }
}

impl Device {
    /// Create a device with the given configuration and cost model.
    ///
    /// Panics on a malformed configuration; use [`Device::try_new`] to get
    /// the error instead.
    pub fn new(config: DeviceConfig, cost: CostModel) -> Self {
        Device::try_new(config, cost).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create a device, validating the configuration (see
    /// [`DeviceConfig::validate`]) instead of deferring the failure to the
    /// first launch.
    pub fn try_new(config: DeviceConfig, cost: CostModel) -> Result<Self, SimError> {
        config.validate()?;
        let global = GlobalMemory::new(config.global_mem_bytes);
        Ok(Device {
            config,
            cost,
            global,
            stats: SessionStats::default(),
            tier_declines: [0; Decline::ALL.len()],
            shape_census: ShapeCensus::default(),
            sanitizer: SanitizerConfig::default(),
            hazards: Vec::new(),
            verifier: false,
            verify_reports: Vec::new(),
            session_profile: SessionProfile::default(),
        })
    }

    /// Set the number of host worker threads for subsequent launches
    /// (0 = auto; see [`DeviceConfig::host_threads`]). Results are
    /// bit-identical at any setting.
    pub fn set_host_threads(&mut self, n: u32) {
        self.config.host_threads = n;
    }

    /// Select the execution tier for subsequent launches (see
    /// [`ExecTier`]). Results are bit-identical at any setting; this is
    /// purely a simulator speed knob.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.config.exec_tier = tier;
    }

    /// Launches that asked for [`ExecTier::Auto`] and ran on the
    /// interpreter because the typed tier declined the kernel (see
    /// [`crate::compiled`] for the reasons). Kept beside, not inside,
    /// [`SessionStats`]: those are bit-identical across tiers, this is a
    /// property of the tier choice itself.
    pub fn tier_declines(&self) -> u64 {
        self.tier_declines.iter().sum()
    }

    /// [`Device::tier_declines`] by reason: every [`Decline`] that
    /// happened, with its count, in [`Decline::ALL`] order.
    pub fn tier_decline_reasons(&self) -> Vec<(Decline, u64)> {
        Decline::ALL
            .into_iter()
            .zip(self.tier_declines)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// What the typed tier decided over this device's launches: steps
    /// evaluated once per warp from their operands' shapes against steps
    /// that ran a lane loop (see [`ShapeCensus`]). Like
    /// [`Device::tier_declines`] it sits beside [`SessionStats`], not in
    /// it; launches that ran on the interpreter add nothing.
    pub fn shape_census(&self) -> ShapeCensus {
        self.shape_census
    }

    /// Set the sanitizer configuration for subsequent launches (see
    /// [`crate::sanitizer`]). Pass [`SanitizerConfig::default`] to turn
    /// instrumentation back off.
    pub fn set_sanitizer(&mut self, cfg: SanitizerConfig) {
        self.sanitizer = cfg;
    }

    /// The sanitizer configuration in effect.
    pub fn sanitizer(&self) -> &SanitizerConfig {
        &self.sanitizer
    }

    /// Mutable sanitizer configuration (the runtime updates
    /// per-launch ignore ranges through this).
    pub fn sanitizer_mut(&mut self) -> &mut SanitizerConfig {
        &mut self.sanitizer
    }

    /// Hazard reports accumulated across this device's launches, in launch
    /// order. Reports from a launch that *failed* (synccheck) are included:
    /// they are harvested before the error propagates.
    pub fn hazards(&self) -> &[HazardReport] {
        &self.hazards
    }

    /// Drain the accumulated hazard reports.
    pub fn take_hazards(&mut self) -> Vec<HazardReport> {
        std::mem::take(&mut self.hazards)
    }

    /// Enable (or disable) the static verifier as a pre-launch pass:
    /// every subsequent launch first runs [`crate::verify::verify_kernel`]
    /// over the kernel at the launch's block shape, with this device's
    /// warp size and bank count, and accumulates the report. Verification
    /// never aborts the launch — verdicts are advisory, mirroring the
    /// sanitizer.
    pub fn set_verifier(&mut self, on: bool) {
        self.verifier = on;
    }

    /// Static verification reports accumulated across launches.
    pub fn verify_reports(&self) -> &[VerifyReport] {
        &self.verify_reports
    }

    /// Drain the accumulated verification reports.
    pub fn take_verify_reports(&mut self) -> Vec<VerifyReport> {
        std::mem::take(&mut self.verify_reports)
    }

    /// Enable or disable the profiler for subsequent launches and
    /// transfers (see [`crate::profile`]). Profiling never changes
    /// modelled cycles or results; it only observes them.
    pub fn set_profiler(&mut self, on: bool) {
        self.config.profile = on;
    }

    /// The session profile accumulated so far (empty when the profiler
    /// was never enabled).
    pub fn profile(&self) -> &SessionProfile {
        &self.session_profile
    }

    /// Drain the accumulated session profile.
    pub fn take_profile(&mut self) -> SessionProfile {
        std::mem::take(&mut self.session_profile)
    }

    /// A small device for fast unit tests.
    pub fn test_small() -> Self {
        Device::new(DeviceConfig::test_small(), CostModel::default())
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Mutable cost model (for calibration experiments).
    pub fn cost_model_mut(&mut self) -> &mut CostModel {
        &mut self.cost
    }

    /// Session statistics accumulated so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Reset session statistics (keeps memory contents).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Total modelled milliseconds elapsed in this session.
    pub fn elapsed_ms(&self) -> f64 {
        self.config.cycles_to_ms(self.stats.total_cycles())
    }

    /// Allocate `len` bytes of device global memory.
    pub fn alloc(&mut self, len: u64) -> Result<BufferHandle, SimError> {
        self.global.alloc(len)
    }

    /// Allocate a buffer for `n` elements of type `ty`.
    pub fn alloc_elems(&mut self, ty: Ty, n: u64) -> Result<BufferHandle, SimError> {
        // Checked size: an absurd element count must surface as an
        // allocation failure, not a debug overflow panic (or a wrapped
        // release-mode size that "succeeds" tiny).
        let bytes = n
            .checked_mul(ty.size() as u64)
            .ok_or(SimError::OutOfMemory {
                requested: u64::MAX,
            })?;
        self.global.alloc(bytes)
    }

    /// Copy host bytes to the device (modelled PCIe transfer).
    pub fn memcpy_h2d(&mut self, dst: BufferHandle, src: &[u8]) -> Result<(), SimError> {
        self.global.write_bytes(dst.addr, src)?;
        let cycles = self.cost.transfer_cycles(src.len() as u64);
        self.stats.bytes_h2d += src.len() as u64;
        self.stats.transfer_cycles += cycles;
        if self.config.profile {
            self.session_profile
                .add_transfer(SpanKind::H2d, src.len() as u64, cycles);
        }
        Ok(())
    }

    /// Copy device bytes to the host (modelled PCIe transfer).
    pub fn memcpy_d2h(&mut self, src: BufferHandle, dst: &mut [u8]) -> Result<(), SimError> {
        self.global.read_bytes(src.addr, dst)?;
        let cycles = self.cost.transfer_cycles(dst.len() as u64);
        self.stats.bytes_d2h += dst.len() as u64;
        self.stats.transfer_cycles += cycles;
        if self.config.profile {
            self.session_profile
                .add_transfer(SpanKind::D2h, dst.len() as u64, cycles);
        }
        Ok(())
    }

    /// Read one typed value from device memory without charging transfer
    /// cost (debug/verification access).
    pub fn peek(&self, ty: Ty, addr: u64) -> Result<Value, SimError> {
        self.global.read(ty, addr)
    }

    /// Write one typed value to device memory without charging transfer
    /// cost (debug/initialization access).
    pub fn poke(&mut self, addr: u64, v: Value) -> Result<(), SimError> {
        self.global.write(addr, v)
    }

    /// Launch `kernel` with the given config and parameters; blocks until
    /// completion (the simulator is synchronous). Returns the launch stats;
    /// cycles are also accumulated into the session.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[Value],
    ) -> Result<LaunchStats, SimError> {
        self.launch_inner(kernel, cfg, params, None)
    }

    /// [`Device::launch`] with a bounded execution trace: capture up to
    /// `limit` warp-instructions (with active masks) for debugging.
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[Value],
        limit: usize,
    ) -> Result<(LaunchStats, Trace), SimError> {
        let mut trace = Trace::with_limit(limit);
        let stats = self.launch_inner(kernel, cfg, params, Some(&mut trace))?;
        Ok((stats, trace))
    }

    /// Shared launch path: runs the kernel under the configured sanitizer
    /// (if any) and harvests hazard reports on success *and* failure, so
    /// synccheck reports survive the launch erroring out.
    fn launch_inner(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[Value],
        trace: Option<&mut Trace>,
    ) -> Result<LaunchStats, SimError> {
        if self.verifier {
            let vc = VerifyConfig {
                shared_banks: self.config.shared_banks,
            };
            self.verify_reports.push(verify_kernel(kernel, cfg, &vc));
        }
        let mut san = self
            .sanitizer
            .level
            .enabled()
            .then(|| LaunchSanitizer::new(self.sanitizer.clone()));
        let mut prof = self.config.profile.then(|| LaunchProfile::new(kernel, cfg));
        let ck = TypedKernel::select(self.config.exec_tier, kernel, params, &self.cost)
            .unwrap_or_else(|why| {
                self.tier_declines[why as usize] += 1;
                None
            });
        let result = run_kernel_instrumented(
            kernel,
            cfg,
            params,
            &mut self.global,
            &self.config,
            &self.cost,
            ck.as_ref(),
            trace,
            san.as_mut(),
            prof.as_mut(),
        );
        if let Some(ck) = &ck {
            self.shape_census += ck.census();
        }
        let hazard_count = san.as_ref().map_or(0, |s| s.hazard_count());
        if let Some(s) = san.as_mut() {
            self.hazards.append(&mut s.take_reports());
        }
        if let Some(lp) = prof {
            // Keep the (possibly partial) attribution of a failed launch,
            // like hazard reports above.
            self.session_profile.add_launch(lp);
        }
        match result {
            Ok(mut stats) => {
                stats.hazards = hazard_count;
                self.stats.launches += 1;
                self.stats.kernel_cycles += stats.cycles;
                self.stats.totals += stats;
                Ok(stats)
            }
            Err(e) => {
                // The launch failed mid-flight; keep the hazard count in
                // the session totals so it is not silently lost.
                self.stats.totals.hazards += hazard_count;
                Err(e)
            }
        }
    }

    /// Typed host->device copy of a slice of `f64`-convertible values.
    pub fn upload_values(&mut self, dst: BufferHandle, vals: &[Value]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            let (b, n) = v.to_bytes();
            bytes.extend_from_slice(&b[..n]);
        }
        self.memcpy_h2d(dst, &bytes)
    }

    /// Typed device->host copy of `n` values of type `ty`.
    pub fn download_values(
        &mut self,
        src: BufferHandle,
        ty: Ty,
        n: usize,
    ) -> Result<Vec<Value>, SimError> {
        let mut bytes = vec![0u8; n * ty.size()];
        self.memcpy_d2h(src, &mut bytes)?;
        Ok((0..n)
            .map(|i| Value::from_bytes(ty, &bytes[i * ty.size()..]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, MemRef, SpecialReg};

    /// Regression: an element count whose byte size overflows `u64` is an
    /// allocation error, not a debug multiply panic (or a wrapped tiny
    /// allocation in release).
    #[test]
    fn alloc_elems_overflow_is_oom() {
        let mut d = Device::test_small();
        assert!(matches!(
            d.alloc_elems(crate::types::Ty::F64, u64::MAX / 2),
            Err(SimError::OutOfMemory { .. })
        ));
        // A sane allocation still works afterwards.
        assert!(d.alloc_elems(crate::types::Ty::F64, 8).is_ok());
    }

    #[test]
    fn alloc_and_transfer_roundtrip() {
        let mut d = Device::test_small();
        let buf = d.alloc(16).unwrap();
        d.memcpy_h2d(
            buf,
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
        )
        .unwrap();
        let mut out = [0u8; 16];
        d.memcpy_d2h(buf, &mut out).unwrap();
        assert_eq!(out[0], 1);
        assert_eq!(out[15], 16);
        assert_eq!(d.stats().bytes_h2d, 16);
        assert_eq!(d.stats().bytes_d2h, 16);
        assert!(d.stats().transfer_cycles > 0);
    }

    #[test]
    fn launch_accumulates_session_stats() {
        let mut d = Device::test_small();
        let buf = d.alloc_elems(Ty::I32, 32).unwrap();
        let mut b = KernelBuilder::new("k");
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let v = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(3));
        let t64 = b.cvt(Ty::I64, tid);
        b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), v);
        let k = b.finish();
        let s = d
            .launch(&k, LaunchConfig::d1(1, 32), &[Value::U64(buf.addr)])
            .unwrap();
        assert_eq!(d.stats().launches, 1);
        assert_eq!(d.stats().kernel_cycles, s.cycles);
        assert!(d.elapsed_ms() > 0.0);
        assert_eq!(d.peek(Ty::I32, buf.addr + 4).unwrap(), Value::I32(3));
    }

    #[test]
    fn upload_download_values() {
        let mut d = Device::test_small();
        let buf = d.alloc_elems(Ty::F64, 3).unwrap();
        d.upload_values(buf, &[Value::F64(1.0), Value::F64(2.0), Value::F64(3.0)])
            .unwrap();
        let vals = d.download_values(buf, Ty::F64, 3).unwrap();
        assert_eq!(
            vals,
            vec![Value::F64(1.0), Value::F64(2.0), Value::F64(3.0)]
        );
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let bad = DeviceConfig {
            segment_bytes: 100,
            ..DeviceConfig::test_small()
        };
        let err = Device::try_new(bad, CostModel::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "got {err:?}");
        assert!(err.to_string().contains("segment_bytes"));
    }

    #[test]
    fn reset_stats() {
        let mut d = Device::test_small();
        let buf = d.alloc(8).unwrap();
        d.memcpy_h2d(buf, &[0u8; 8]).unwrap();
        assert!(d.stats().transfer_cycles > 0);
        d.reset_stats();
        assert_eq!(d.stats().total_cycles(), 0);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, MemRef, SpecialReg};

    /// A kernel exercising every stall bucket: global load/store, a
    /// conflicted shared store, a barrier, and ALU work — with a line
    /// table so the rollup has something to attribute to.
    fn profiled_kernel() -> Kernel {
        let mut b = KernelBuilder::new("prof_k");
        b.set_line(3);
        let inp = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::TidX);
        let t64 = b.cvt(Ty::I64, tid);
        let v = b.ld_global(Ty::F32, MemRef::indexed(inp, t64, 4));
        b.set_line(5);
        let slab = b.alloc_shared(32 * 128, 4) as u64;
        // scale 128: all lanes hit bank 0 -> 32-way conflict.
        let m = MemRef {
            base: Value::U64(slab).into(),
            index: Some(tid),
            scale: 128,
            disp: 0,
        };
        b.st_shared(Ty::F32, m, v);
        b.bar();
        b.set_line(7);
        let w = b.bin(BinOp::Add, Ty::F32, v, v);
        b.st_global(Ty::F32, MemRef::indexed(out, t64, 4), w);
        b.finish()
    }

    fn run_profiled(host_threads: u32) -> (LaunchStats, SessionProfile) {
        let cfg = DeviceConfig {
            host_threads,
            profile: true,
            ..DeviceConfig::test_small()
        };
        let mut d = Device::new(cfg, CostModel::default());
        let inp = d.alloc_elems(Ty::F32, 128).unwrap();
        let out = d.alloc_elems(Ty::F32, 128).unwrap();
        d.memcpy_h2d(inp, &[0u8; 128 * 4]).unwrap();
        let stats = d
            .launch(
                &profiled_kernel(),
                LaunchConfig::d1(4, 32),
                &[Value::U64(inp.addr), Value::U64(out.addr)],
            )
            .unwrap();
        let mut buf = [0u8; 128 * 4];
        d.memcpy_d2h(out, &mut buf).unwrap();
        (stats, d.take_profile())
    }

    /// The stall decomposition partitions the charged cycles, the profile
    /// counters agree with [`LaunchStats`], and both buckets (per-PC and
    /// per-interval) sum to the same totals.
    #[test]
    fn profile_counters_agree_with_stats() {
        let (stats, prof) = run_profiled(1);
        assert_eq!(prof.launches.len(), 1);
        let lp = &prof.launches[0];
        let t = lp.totals();
        assert_eq!(t.warp_insts, stats.warp_insts);
        assert_eq!(t.lane_insts, stats.lane_insts);
        assert_eq!(t.global_accesses, stats.global_accesses);
        assert_eq!(t.global_transactions, stats.global_transactions);
        assert_eq!(t.shared_accesses, stats.shared_accesses);
        assert_eq!(t.shared_ways, stats.shared_ways);
        assert_eq!(t.atomics, stats.atomics);
        assert_eq!(t.barriers, stats.barriers);
        // Every stall bucket this kernel exercises is populated.
        assert!(t.issue_cycles > 0);
        assert!(t.alu_cycles > 0);
        assert!(t.mem_cycles > 0);
        assert!(t.shared_cycles > 0);
        assert!(t.conflict_cycles > 0, "128-stride store must conflict");
        assert!(t.barrier_cycles > 0);
        // Interval buckets partition the same cycles as PC buckets.
        let iv: u64 = lp.intervals.iter().map(|c| c.cycles()).sum();
        assert_eq!(iv, t.cycles());
        // The barrier split produced two intervals.
        assert_eq!(lp.intervals.len(), 2);
        assert_eq!(lp.blocks, 4);
        // Line rollup covers lines 3, 5, 7.
        let lines: Vec<u32> = lp.line_rollup().iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![3, 5, 7]);
        // Timeline: h2d, kernel, d2h in program order.
        let kinds: Vec<SpanKind> = prof.timeline.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::H2d, SpanKind::Kernel, SpanKind::D2h]);
        assert_eq!(prof.timeline[1].cycles, stats.cycles);
    }

    /// Profiling is deterministic: every exported byte is identical at any
    /// host thread count, and enabling it never changes modelled cycles.
    #[test]
    fn profile_is_bit_identical_across_host_threads() {
        let (stats1, prof1) = run_profiled(1);
        for threads in [2, 4] {
            let (stats, prof) = run_profiled(threads);
            assert_eq!(stats1, stats);
            assert_eq!(prof1.to_json(), prof.to_json());
            assert_eq!(prof1.to_chrome_trace(), prof.to_chrome_trace());
            assert_eq!(prof1.report(None), prof.report(None));
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, SpecialReg};

    #[test]
    fn traced_launch_captures_warp_instructions() {
        let mut d = Device::test_small();
        let mut b = KernelBuilder::new("traced");
        let tid = b.special(SpecialReg::TidX);
        let _ = b.bin(BinOp::Add, Ty::I32, tid, Value::I32(1));
        let k = b.finish();
        let (stats, trace) = d
            .launch_traced(&k, LaunchConfig::d1(2, 64), &[], 100)
            .unwrap();
        // 2 blocks x 2 warps x 3 instructions (2 + implicit ret).
        assert_eq!(trace.events().len(), 12);
        assert!(!trace.truncated());
        assert_eq!(stats.warp_insts, 12);
        let r = trace.render();
        assert!(r.contains("%tid.x"), "{r}");
        assert!(r.contains("add.s32"), "{r}");
        assert!(r.contains("[32 lanes]"), "{r}");
        // Limit is respected.
        let (_, t2) = d
            .launch_traced(&k, LaunchConfig::d1(2, 64), &[], 3)
            .unwrap();
        assert_eq!(t2.events().len(), 3);
        assert!(t2.truncated());
    }
}
