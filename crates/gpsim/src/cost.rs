//! Device configuration and timing cost model.
//!
//! The model is a *throughput* model in two halves:
//! - Each warp-instruction is charged a cycle cost, and memory
//!   instructions are additionally charged per global transaction / per
//!   shared-memory conflict way. A block's charges sum to its *raw* cycles.
//! - The launch schedule (`Schedule`, the one place raw cycles become
//!   modelled time) divides each block's raw cycles by its own
//!   latency-hiding overlap factor, `ceil(raw / clamp(warps, 1,
//!   max_overlap))`, places the block on SM `block_id % num_sms`, and
//!   charges the launch the busiest SM's total plus a fixed launch
//!   overhead.
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
    /// Profile launches and transfers; `false` (the default) costs no
    /// per-step attribution. Like `host_threads`, a *simulator* knob:
    /// enabling it never changes modelled cycles.
    pub profile: bool,
    /// Which engine runs launches (typed tier vs interpreter). Like
    /// `host_threads`, a *simulator* knob: every observable output is
    /// bit-identical across tiers.
    pub exec_tier: ExecTier,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_sms: 13,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            shared_mem_per_block: 48 * 1024,
            shared_banks: 32,
            segment_bytes: 128,
            global_mem_bytes: 1 << 30,
            clock_hz: 706e6,
            host_threads: 0,
            profile: false,
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

    /// Convert a cycle count to milliseconds at this device's clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz * 1e3
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

    /// Cycles to transfer `bytes` across PCIe.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.transfer_overhead + (bytes as f64 / self.pcie_bytes_per_cycle).ceil() as u64
    }
}

/// The launch timing model, stated once: both executors feed it every
/// committed block, in linear block-id order, and nothing else turns raw
/// block cycles into modelled time.
///
/// - A block's modelled cycles are `ceil(raw / clamp(warps, 1,
///   max_overlap))`: its own warps hide each other's latency, saturating
///   at the warp scheduler's overlap limit.
/// - Block `id` runs on SM `id % num_sms`, after the blocks placed there
///   before it.
/// - The launch takes the busiest SM's total plus the fixed launch
///   overhead.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    max_overlap: u32,
    launch_overhead: u64,
    sm_cycles: Vec<u64>,
}

/// Where and when one block ran on the modelled device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    /// SM the block ran on.
    pub(crate) sm: u32,
    /// Start cycle relative to the launch start.
    pub(crate) start: u64,
    /// Modelled block cycles.
    pub(crate) cycles: u64,
}

impl Schedule {
    /// An empty launch on `dev`, timed by `cost`.
    pub(crate) fn new(dev: &DeviceConfig, cost: &CostModel) -> Self {
        Schedule {
            max_overlap: cost.max_overlap,
            launch_overhead: cost.launch_overhead,
            sm_cycles: vec![0; dev.num_sms as usize],
        }
    }

    /// Place block `id`, whose `warps` warps charged `cycles_raw`. Blocks
    /// must arrive in linear block-id order: each start cycle depends on
    /// the blocks placed before it.
    pub(crate) fn place(&mut self, id: usize, cycles_raw: u64, warps: u32) -> Placement {
        let overlap = warps.clamp(1, self.max_overlap) as f64;
        let cycles = (cycles_raw as f64 / overlap).ceil() as u64;
        let sm = id % self.sm_cycles.len();
        let start = self.sm_cycles[sm];
        self.sm_cycles[sm] += cycles;
        Placement {
            sm: sm as u32,
            start,
            cycles,
        }
    }

    /// Modelled cycles per SM so far.
    pub(crate) fn sm_cycles(&self) -> &[u64] {
        &self.sm_cycles
    }

    /// The fixed overhead included in [`Schedule::cycles`].
    pub(crate) fn launch_overhead(&self) -> u64 {
        self.launch_overhead
    }

    /// Modelled launch cycles: the busiest SM plus the launch overhead.
    pub(crate) fn cycles(&self) -> u64 {
        self.sm_cycles.iter().copied().max().unwrap_or(0) + self.launch_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_k20c_like() {
        let c = DeviceConfig::default();
        assert_eq!(c.num_sms, 13);
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

    /// The whole launch model: the divisor clamps a block's warps to
    /// `[1, max_overlap]` and rounds each block up, placement wraps past
    /// the last SM, and the launch pays the overhead on top of the busiest
    /// SM — alone when no block was placed.
    #[test]
    fn schedule_divides_places_and_totals() {
        let dev = DeviceConfig {
            num_sms: 2,
            ..Default::default()
        };
        let cost = CostModel::default();
        assert_eq!(cost.max_overlap, 8);
        assert_eq!(Schedule::new(&dev, &cost).cycles(), cost.launch_overhead);
        let mut s = Schedule::new(&dev, &cost);
        let at = |sm, start, cycles| Placement { sm, start, cycles };
        assert_eq!(s.place(0, 10, 0), at(0, 0, 10));
        assert_eq!(s.place(1, 10, 4), at(1, 0, 3));
        assert_eq!(s.place(2, 100, 100), at(0, 10, 13));
        assert_eq!(s.place(3, 7, 1), at(1, 3, 7));
        assert_eq!(s.place(4, 0, 8), at(0, 23, 0));
        assert_eq!(s.sm_cycles(), &[23, 10]);
        assert_eq!(s.cycles(), 23 + cost.launch_overhead);
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
        let ms = DeviceConfig::default().cycles_to_ms(706_000);
        assert!((ms - 1.0).abs() < 1e-9);
    }
}
