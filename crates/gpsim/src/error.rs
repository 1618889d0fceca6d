//! Simulator error type.

use std::fmt;

/// Errors raised by the simulated device.
///
/// Functional bugs in generated code surface as these errors (or as wrong
/// results verified against the CPU reference) — exactly the externally
/// visible failure classes the paper reports for the baseline compilers.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Device global allocation failed.
    OutOfMemory { requested: u64 },
    /// A global access touched unmapped/null memory.
    GlobalOutOfBounds { addr: u64, len: usize },
    /// A shared access fell outside the block's shared window.
    SharedOutOfBounds { off: u64, len: usize, window: usize },
    /// The kernel requested more shared memory than the device provides.
    SharedMemExceeded { requested: usize, limit: usize },
    /// Launch configuration violates device limits.
    InvalidLaunch { reason: String },
    /// Threads of one block arrived at *different* barrier instructions —
    /// `__syncthreads()` executed under divergent control flow (undefined
    /// behaviour on real hardware; reported strictly here).
    BarrierDivergence {
        block: (u32, u32),
        pc_a: usize,
        pc_b: usize,
    },
    /// A kernel ran longer than the configured watchdog allows.
    Watchdog { executed_insts: u64 },
    /// Division (or remainder) by zero at an integer type.
    DivisionByZero,
    /// An instruction read a register holding an incompatible value class
    /// (interpreter type confusion — indicates a codegen bug).
    TypeError { context: String },
    /// Wrong number of launch parameters.
    BadParams { expected: u32, got: u32 },
    /// The device configuration itself is malformed (e.g. a coalescing
    /// segment size that is not a power of two). Caught at device
    /// construction and re-checked at launch, so a bad cost-model config
    /// cannot silently skew transaction counts in release builds.
    InvalidConfig { reason: String },
    /// A kernel failed structural verification when finishing its build
    /// (label never placed, branch out of range). These are compiler bugs;
    /// [`crate::KernelBuilder::try_finish`] surfaces them as errors so a
    /// driver can report a per-case diagnostic instead of aborting.
    KernelBuild { kernel: String, reason: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { requested } => {
                write!(f, "device out of memory (requested {requested} bytes)")
            }
            SimError::GlobalOutOfBounds { addr, len } => {
                write!(
                    f,
                    "global memory access out of bounds: addr={addr:#x} len={len}"
                )
            }
            SimError::SharedOutOfBounds { off, len, window } => write!(
                f,
                "shared memory access out of bounds: off={off} len={len} window={window}"
            ),
            SimError::SharedMemExceeded { requested, limit } => write!(
                f,
                "kernel requests {requested} bytes of shared memory, device limit is {limit}"
            ),
            SimError::InvalidLaunch { reason } => write!(f, "invalid launch: {reason}"),
            SimError::BarrierDivergence { block, pc_a, pc_b } => write!(
                f,
                "threads of block ({}, {}) arrived at different barriers (pc {pc_a} vs \
                 {pc_b}): __syncthreads() under divergent control flow",
                block.0, block.1
            ),
            SimError::Watchdog { executed_insts } => {
                write!(
                    f,
                    "kernel watchdog fired after {executed_insts} warp-instructions"
                )
            }
            SimError::DivisionByZero => write!(f, "integer division by zero"),
            SimError::TypeError { context } => write!(f, "interpreter type error: {context}"),
            SimError::BadParams { expected, got } => {
                write!(
                    f,
                    "kernel expects {expected} parameters, launch passed {got}"
                )
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid device configuration: {reason}")
            }
            SimError::KernelBuild { kernel, reason } => {
                write!(f, "kernel build error in `{kernel}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::DivisionByZero.to_string().contains("division"));
        assert!(SimError::OutOfMemory { requested: 42 }
            .to_string()
            .contains("42"));
    }
}
