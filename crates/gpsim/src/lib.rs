//! # gpsim — a deterministic SIMT GPU simulator
//!
//! `gpsim` is the hardware substrate for the reproduction of *"Reduction
//! Operations in Parallel Loops for GPGPUs"* (Xu et al., PMAM/PPoPP 2014).
//! The paper evaluates OpenACC reduction codegen on an NVIDIA K20c; this
//! crate provides a software stand-in with the properties that codegen
//! depends on:
//!
//! - warps of 32 threads executing in lockstep with divergence and
//!   reconvergence ([`exec`]),
//! - per-block shared memory with a 32-bank conflict model,
//! - global memory with 128-byte-segment coalescing,
//! - `__syncthreads()`-style block barriers with deadlock detection,
//! - **no** inter-block synchronization (the constraint that forces the
//!   paper's two-kernel gang reduction),
//! - a deterministic cycle cost model ([`cost`]) calibrated to Kepler-class
//!   throughput, so codegen strategies differ in modelled time the same way
//!   the paper's measurements differ.
//!
//! ## Quick example
//!
//! ```
//! use gpsim::{Device, KernelBuilder, LaunchConfig, MemRef, SpecialReg, Ty, Value, BinOp};
//!
//! // out[i] = i * 2 for one block of 32 threads
//! let mut b = KernelBuilder::new("double");
//! let out = b.param(0);
//! let tid = b.special(SpecialReg::TidX);
//! let v = b.bin(BinOp::Mul, Ty::I32, tid, Value::I32(2));
//! let t64 = b.cvt(Ty::I64, tid);
//! b.st_global(Ty::I32, MemRef::indexed(out, t64, 4), v);
//! let kernel = b.finish();
//!
//! let mut dev = Device::default();
//! let buf = dev.alloc_elems(Ty::I32, 32).unwrap();
//! dev.launch(&kernel, LaunchConfig::d1(1, 32), &[Value::U64(buf.addr)]).unwrap();
//! assert_eq!(dev.peek(Ty::I32, buf.addr + 4 * 5).unwrap(), Value::I32(10));
//! ```

pub mod builder;
pub mod cert;
pub mod coalesce;
pub mod compiled;
pub mod cost;
pub mod device;
pub mod error;
pub mod exec;
pub mod ir;
pub mod memory;
pub mod profile;
pub mod sanitizer;
pub mod shadow;
pub mod stats;
pub mod trace;
pub mod types;
pub mod verify;

pub use builder::KernelBuilder;
pub use cert::{
    run_symbolic, CertConfig, CertObservable, CertReport, CertVerdict, SVal, SymMemory, TermId,
    TermPool,
};
pub use compiled::{CompiledKernel, ShapeCensus};
pub use cost::{CostModel, DeviceConfig, ExecTier};
pub use device::Device;
pub use error::SimError;
pub use exec::{eval_bin, eval_cmp, eval_un, run_kernel_traced, LaunchConfig};
pub use ir::{
    AccessKind, AtomOp, BinOp, CmpOp, Inst, Kernel, Label, MemRef, Operand, Reg, Space, SpecialReg,
    UnOp,
};
pub use memory::{BufferHandle, GlobalMemory, SharedMemory};
pub use profile::{
    BlockProfile, BlockSpan, LaunchProfile, PcCounters, ProfileConfig, SessionProfile, SpanKind,
    TimelineSpan,
};
pub use sanitizer::{
    AccessInfo, BlockSanitizer, HazardClass, HazardReport, LaunchSanitizer, SanitizerConfig,
    SanitizerLevel,
};
pub use stats::{LaunchStats, SessionStats};
pub use trace::{MemTouch, Trace, TraceEvent};
pub use types::{Ty, Value};
pub use verify::{verify_kernel, VerifyClass, VerifyConfig, VerifyFinding, VerifyReport};
