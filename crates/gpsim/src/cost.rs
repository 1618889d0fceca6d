//! Device configuration and timing cost model.
//!
//! The model is a *throughput* model: each warp-instruction is charged a
//! cycle cost, memory instructions are additionally charged per global
//! transaction / per shared-memory conflict way, and the per-block totals
//! are divided by a latency-hiding overlap factor that grows with the
//! number of resident warps. Blocks are distributed round-robin over SMs;
//! kernel time is the maximum per-SM total plus a fixed launch overhead.
//!
//! All knobs live in [`CostModel`] so experiments can recalibrate; the
//! defaults are Kepler-class (K20c) values matching the paper's platform.

use crate::ir::CostClass;
use crate::types::Ty;

/// Which engine runs kernel launches.
///
/// Both engines are **bit-identical** in every observable output —
/// results, [`crate::stats::LaunchStats`], modelled cycles, traces, hazard
/// reports, profiles, and error values — so this is purely a speed knob
/// (like [`DeviceConfig::host_threads`], a simulator property, not a
/// modelled device property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The typed tier ([`crate::compiled`]) whenever it accepts the kernel
    /// and its parameter types, else the interpreter; a decline is counted
    /// by [`crate::Device::tier_declines`].
    #[default]
    Auto,
    /// Force the reference interpreter (one `Inst` dispatch per warp-step),
    /// the oracle the typed tier is compared against.
    Interpret,
}

impl std::str::FromStr for ExecTier {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ExecTier::Auto),
            "interpret" => Ok(ExecTier::Interpret),
            other => Err(format!(
                "invalid execution tier `{other}` (expected auto|interpret)"
            )),
        }
    }
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecTier::Auto => "auto",
            ExecTier::Interpret => "interpret",
        })
    }
}

/// Static device limits and geometry (K20c-like by default).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors. The K20c exposes 13 (the paper
    /// assumes one may be disabled and sizes its grids for 12).
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory bytes available to one block.
    pub shared_mem_per_block: usize,
    /// Number of shared memory banks.
    pub shared_banks: u32,
    /// Global memory coalescing segment size in bytes.
    pub segment_bytes: u64,
    /// Global memory capacity in bytes (K20c: 5 GB; scaled default 1 GB to
    /// keep host allocations reasonable).
    pub global_mem_bytes: u64,
    /// Core clock in Hz (used to convert cycles to seconds). K20c: 706 MHz.
    pub clock_hz: f64,
    /// Host worker threads executing independent thread blocks in parallel
    /// (a *simulator* knob, not a modelled-device property — modelled
    /// cycles are bit-identical at any setting). `0` resolves to the
    /// `UHACC_HOST_THREADS` environment variable if set, else to
    /// [`std::thread::available_parallelism`]; `1` forces the sequential
    /// path.
    pub host_threads: u32,
    /// Profiler configuration; `None` disables profiling (no per-step
    /// attribution cost). Like `host_threads`, a *simulator* knob:
    /// enabling it never changes modelled cycles.
    pub profile: Option<crate::profile::ProfileConfig>,
    /// Which engine runs launches (typed tier vs interpreter). Like
    /// `host_threads`, a *simulator* knob: every observable output is
    /// bit-identical across tiers.
    pub exec_tier: ExecTier,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_sms: 13,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            shared_mem_per_block: 48 * 1024,
            shared_banks: 32,
            segment_bytes: 128,
            global_mem_bytes: 1 << 30,
            clock_hz: 706e6,
            host_threads: 0,
            profile: None,
            exec_tier: ExecTier::Auto,
        }
    }
}

impl DeviceConfig {
    /// A small configuration for fast unit tests (fewer SMs, tiny memory).
    pub fn test_small() -> Self {
        DeviceConfig {
            num_sms: 2,
            global_mem_bytes: 1 << 24,
            ..Default::default()
        }
    }

    /// Structural validation. In release builds a malformed config (most
    /// importantly a non-power-of-two coalescing segment) would silently
    /// skew the cost model — [`crate::coalesce::global_transactions`] only
    /// `debug_assert!`s it — so this is enforced here, both at
    /// [`crate::Device::try_new`] and again on every launch.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        let bad = |reason: String| Err(crate::error::SimError::InvalidConfig { reason });
        if self.num_sms == 0 {
            return bad("num_sms must be nonzero".into());
        }
        if self.warp_size == 0 {
            return bad("warp_size must be nonzero".into());
        }
        if self.max_threads_per_block == 0 {
            return bad("max_threads_per_block must be nonzero".into());
        }
        if self.shared_banks == 0 {
            return bad("shared_banks must be nonzero".into());
        }
        if self.segment_bytes == 0 || !self.segment_bytes.is_power_of_two() {
            return bad(format!(
                "segment_bytes must be a nonzero power of two (got {})",
                self.segment_bytes
            ));
        }
        Ok(())
    }

    /// The effective host worker thread count: an explicit nonzero
    /// `host_threads` wins, then a nonzero `UHACC_HOST_THREADS` environment
    /// variable, then the machine's available parallelism.
    pub fn resolved_host_threads(&self) -> usize {
        if self.host_threads != 0 {
            return self.host_threads as usize;
        }
        if let Ok(s) = std::env::var("UHACC_HOST_THREADS") {
            if let Ok(n) = s.trim().parse::<u32>() {
                if n != 0 {
                    return n as usize;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Cycle cost knobs for the throughput model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Issue cost charged to every warp-instruction.
    pub issue: u64,
    /// Extra cost for ALU ops (add/mul/...), charged once per warp-inst.
    pub alu: u64,
    /// Extra cost for double-precision ALU ops (Kepler GK110 runs FP64 at
    /// 1/3 rate; modelled as a flat surcharge).
    pub alu_f64_extra: u64,
    /// Extra cost of special functions (sqrt, division).
    pub sfu: u64,
    /// Cost per global-memory transaction (128-byte segment).
    pub global_segment: u64,
    /// Cost per shared-memory access way (multiplied by the bank-conflict
    /// degree; a conflict-free access costs exactly this).
    pub shared_way: u64,
    /// Cost of a block-wide barrier, charged per warp reaching it.
    pub barrier: u64,
    /// Cost per lane serialized by a global atomic.
    pub atomic_lane: u64,
    /// Fixed kernel launch overhead in cycles (≈5 µs at 706 MHz). This is
    /// what makes multi-kernel reduction strategies measurably slower.
    pub launch_overhead: u64,
    /// Host<->device transfer bandwidth in bytes/cycle (PCIe gen2 ≈ 6 GB/s
    /// at 706 MHz ≈ 8.5 B/cycle).
    pub pcie_bytes_per_cycle: f64,
    /// Fixed per-transfer latency in cycles.
    pub transfer_overhead: u64,
    /// Maximum overlap factor from warp-level latency hiding (Kepler's quad
    /// warp scheduler with dual issue).
    pub max_overlap: u32,
    /// Watchdog: abort after this many warp-instructions per block (0 = off).
    pub watchdog_warp_insts: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            issue: 4,
            alu: 2,
            alu_f64_extra: 6,
            sfu: 16,
            global_segment: 32,
            shared_way: 2,
            barrier: 16,
            atomic_lane: 24,
            launch_overhead: 3500,
            pcie_bytes_per_cycle: 8.5,
            transfer_overhead: 7000,
            max_overlap: 8,
            watchdog_warp_insts: 2_000_000_000,
        }
    }
}

impl CostModel {
    /// The ALU cycles of a warp-instruction of cost class `class`: a
    /// constant of the instruction, charged on top of its issue cycle.
    /// Memory, atomic and barrier steps have none — what they cost depends
    /// on the mask and the addresses.
    pub fn alu_cycles(&self, class: CostClass) -> u64 {
        match class {
            CostClass::Alu { ty, sfu } => {
                let mut c = self.alu;
                if ty == Some(Ty::F64) {
                    c += self.alu_f64_extra;
                }
                if sfu {
                    c += self.sfu;
                }
                c
            }
            CostClass::Memory(_) | CostClass::Atomic | CostClass::Barrier | CostClass::Free => 0,
        }
    }

    /// Overlap (latency hiding) factor for a block with `warps` resident
    /// warps: more warps hide more latency, saturating at `max_overlap`.
    pub fn overlap(&self, warps: u32) -> f64 {
        warps.clamp(1, self.max_overlap) as f64
    }

    /// Cycles to transfer `bytes` across PCIe.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.transfer_overhead + (bytes as f64 / self.pcie_bytes_per_cycle).ceil() as u64
    }

    /// Convert a cycle count to milliseconds at `clock_hz`.
    pub fn cycles_to_ms(&self, cycles: u64, clock_hz: f64) -> f64 {
        cycles as f64 / clock_hz * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_k20c_like() {
        let c = DeviceConfig::default();
        assert_eq!(c.num_sms, 13);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_block, 1024);
        assert_eq!(c.shared_mem_per_block, 48 * 1024);
        assert_eq!(c.segment_bytes, 128);
    }

    /// Regression: a non-power-of-two coalescing segment is a config error,
    /// not a silent release-mode miscount.
    #[test]
    fn validate_rejects_bad_segment_bytes() {
        assert!(DeviceConfig::default().validate().is_ok());
        assert!(DeviceConfig::test_small().validate().is_ok());
        for bad in [0u64, 96, 100, 129] {
            let c = DeviceConfig {
                segment_bytes: bad,
                ..Default::default()
            };
            assert!(
                matches!(
                    c.validate(),
                    Err(crate::error::SimError::InvalidConfig { .. })
                ),
                "segment_bytes = {bad} accepted"
            );
        }
        let c = DeviceConfig {
            num_sms: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn exec_tier_parse_roundtrip() {
        for t in [ExecTier::Auto, ExecTier::Interpret] {
            assert_eq!(t.to_string().parse::<ExecTier>(), Ok(t));
        }
        assert!("jit".parse::<ExecTier>().is_err());
        assert_eq!(
            "compiled".parse::<ExecTier>().unwrap_err(),
            "invalid execution tier `compiled` (expected auto|interpret)"
        );
        assert_eq!(ExecTier::default(), ExecTier::Auto);
    }

    #[test]
    fn host_threads_resolution() {
        // Explicit nonzero wins over everything.
        let c = DeviceConfig {
            host_threads: 3,
            ..Default::default()
        };
        assert_eq!(c.resolved_host_threads(), 3);
        // Auto resolves to something sane (>= 1).
        assert!(DeviceConfig::default().resolved_host_threads() >= 1);
    }

    #[test]
    fn overlap_clamps() {
        let m = CostModel::default();
        assert_eq!(m.overlap(0), 1.0);
        assert_eq!(m.overlap(1), 1.0);
        assert_eq!(m.overlap(4), 4.0);
        assert_eq!(m.overlap(100), m.max_overlap as f64);
    }

    #[test]
    fn transfer_cycles_monotone() {
        let m = CostModel::default();
        let a = m.transfer_cycles(1024);
        let b = m.transfer_cycles(1 << 20);
        assert!(b > a);
        assert!(a >= m.transfer_overhead);
    }

    #[test]
    fn cycles_to_ms() {
        let m = CostModel::default();
        let ms = m.cycles_to_ms(706_000, 706e6);
        assert!((ms - 1.0).abs() < 1e-9);
    }
}
