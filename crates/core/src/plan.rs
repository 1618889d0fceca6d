//! Output artifacts of region compilation: the compiled kernels plus the
//! launch/data plan the runtime executes.
//!
//! [`CompiledRegion::steps`] is the one statement of that plan: the
//! runtime (`accrt`) executes it, redcert ([`crate::cert`]) replays it
//! symbolically, and every kverify caller verifies its launches. A new
//! launch or host read is a codegen change plus an edit here.

use crate::types::machine_ty;
use accparse::ast::{CType, RedOp};
use gpsim::{Kernel, LaunchConfig, Value};
use std::sync::{Arc, OnceLock};

/// Resolved launch geometry: the OpenACC `num_gangs`/`num_workers`/
/// `vector_length` mapped to CUDA grid/block dims (gang -> block,
/// worker -> `threadIdx.y`, vector -> `threadIdx.x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchDims {
    pub gangs: u32,
    pub workers: u32,
    pub vector: u32,
}

impl LaunchDims {
    /// The paper's evaluation configuration: 192 gangs (12 usable SMs x 16
    /// resident blocks), 8 workers, vector length 128.
    pub fn paper() -> Self {
        LaunchDims {
            gangs: 192,
            workers: 8,
            vector: 128,
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.workers * self.vector
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u32 {
        self.gangs * self.threads_per_block()
    }
}

/// One kernel launch parameter the runtime must supply, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSpec {
    /// Device base address of array `arrays[i]`.
    ArrayBase(usize),
    /// Extent of dimension `dim` of array `arrays[i]` (as i32).
    ArrayDim { array: usize, dim: usize },
    /// Current host value of scalar `hosts[i]`.
    HostScalar(usize),
    /// Device base address of temp buffer `buffers[i]` of this region.
    TempBuffer(usize),
    /// Element count of a finalize pass's partials buffer (as i32).
    ElemCount(u64),
}

/// A temporary device buffer the runtime must allocate for this region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSpec {
    /// Element count (known at compile time — it depends only on launch
    /// dims, never on data sizes).
    pub elems: u64,
    /// Element C type.
    pub ty: CType,
    /// What the buffer is for (diagnostics/debugging).
    pub purpose: BufferPurpose,
    /// Value to store into element 0 before every launch (atomic
    /// accumulators start at the operator identity).
    pub init: Option<gpsim::Value>,
}

impl BufferSpec {
    /// Device bytes the buffer occupies (at least one element).
    pub fn bytes(&self) -> u64 {
        self.elems.max(1) * machine_ty(self.ty).size() as u64
    }

    /// Whether the buffer is exempt from race checking: the mailbox is
    /// deliberately multi-writer (lane 0 of every block writes the same
    /// host-scalar slots). Blocks commit in linear block-id order, so
    /// the highest block id wins on every executor.
    pub fn race_exempt(&self) -> bool {
        self.purpose == BufferPurpose::Mailbox
    }
}

/// Why a temp buffer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPurpose {
    /// Per-participant partials of a gang-spanning reduction.
    GangPartials,
    /// Global-memory staging area for an in-kernel combine
    /// (`CombineSpace::Global`).
    GlobalCombine,
    /// Mailbox for host scalars written inside the kernel (8-byte slots).
    Mailbox,
    /// Single-element accumulator for the atomic gang strategy.
    GangAtomic,
}

/// A second-pass reduction kernel over a partials buffer (the paper's
/// "another kernel is launched to do the reduction within only one block").
#[derive(Debug, Clone)]
pub struct FinalizePass {
    pub kernel: Arc<Kernel>,
    /// Buffer index holding the partials; the result lands in element 0.
    pub buffer: usize,
    /// Number of partial elements to reduce.
    pub elems: u64,
    /// Threads of the single block.
    pub threads: u32,
}

/// After all kernels ran: fold `buffers[buffer][0]` into host scalar
/// `hosts[host]` with `op` (the initial-value handling of §3.1.1, done on
/// the host for gang-spanning reductions).
#[derive(Debug, Clone, Copy)]
pub struct ResultRead {
    pub host: usize,
    pub buffer: usize,
    pub op: RedOp,
    /// When false (injected baseline bug), overwrite instead of folding.
    pub fold: bool,
}

/// Which host scalars the main kernel writes directly (non-gang-spanning
/// reductions on host scalars and plain host assignments): the runtime
/// reads them back from a small mailbox buffer.
#[derive(Debug, Clone, Copy)]
pub struct HostWriteback {
    pub host: usize,
    /// Element index in the region's host-mailbox buffer.
    pub slot: u64,
}

/// A fully compiled parallel region.
///
/// Kernels are held behind `Arc`: a `CompiledRegion` is an immutable
/// *artifact* that many concurrent sessions (and the `uhaccd` cache)
/// share, while all mutable per-run state — temp buffers, bound data,
/// device statistics — lives in the session that launches it. Cloning a
/// region (or the whole struct) never copies instruction streams.
#[derive(Debug, Clone)]
pub struct CompiledRegion {
    pub main: Arc<Kernel>,
    pub dims: LaunchDims,
    pub params: Vec<ParamSpec>,
    pub buffers: Vec<BufferSpec>,
    pub finalize: Vec<FinalizePass>,
    pub results: Vec<ResultRead>,
    /// Host scalars written in-kernel, returned via the mailbox buffer.
    pub writebacks: Vec<HostWriteback>,
    /// Mailbox buffer index (present iff `writebacks` is non-empty).
    pub mailbox: Option<usize>,
    /// redcert's kverify precondition over [`CompiledRegion::launches`],
    /// judged on first use and kept with the artifact, so the sessions
    /// that share it judge it once.
    pub(crate) kverify_gate: OnceLock<Result<(), String>>,
}

/// One kernel launch of a region's plan.
#[derive(Debug, Clone)]
pub struct Launch<'a> {
    pub kernel: &'a Arc<Kernel>,
    pub config: LaunchConfig,
    /// The kernel's parameters, in order.
    pub args: Vec<ParamSpec>,
}

/// After the launches: read host scalar `hosts[host]` from temp buffer
/// `buffers[buffer]` at byte `offset`, at the scalar's machine type.
#[derive(Debug, Clone, Copy)]
pub struct HostRead {
    pub host: usize,
    pub buffer: usize,
    pub offset: u64,
    /// `Some(op)` folds the value into the scalar's old value with `op`
    /// (the initial-value handling of §3.1.1); `None` overwrites it.
    pub fold: Option<RedOp>,
}

/// One step of a region's plan, in execution order.
#[derive(Debug, Clone)]
pub enum Step<'a> {
    /// Store `value` into element 0 of temp buffer `buffers[buffer]`.
    Init {
        buffer: usize,
        value: Value,
    },
    Launch(Launch<'a>),
    Read(HostRead),
}

impl CompiledRegion {
    /// The region's launches, in order: the main kernel over the region's
    /// dims, then each finalize pass — the paper's "another kernel ...
    /// within only one block" — over its partials buffer.
    pub fn launches(&self) -> impl Iterator<Item = Launch<'_>> {
        let d = self.dims;
        let main = Launch {
            kernel: &self.main,
            config: LaunchConfig::gwv(d.gangs, d.workers, d.vector),
            args: self.params.clone(),
        };
        let finalize = self.finalize.iter().map(|f| Launch {
            kernel: &f.kernel,
            config: LaunchConfig::d1(1, f.threads),
            args: vec![
                ParamSpec::TempBuffer(f.buffer),
                ParamSpec::ElemCount(f.elems),
            ],
        });
        std::iter::once(main).chain(finalize)
    }

    /// The whole plan, in the order it runs: the buffer inits, then the
    /// [`launches`](Self::launches), then the host reads — gang-reduction
    /// results first, then the mailbox writebacks.
    pub fn steps(&self) -> impl Iterator<Item = Step<'_>> {
        let inits = self
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(buffer, spec)| spec.init.map(|value| Step::Init { buffer, value }));
        let results = self.results.iter().map(|r| HostRead {
            host: r.host,
            buffer: r.buffer,
            offset: 0,
            fold: r.fold.then_some(r.op),
        });
        let writebacks = self.mailbox.into_iter().flat_map(move |buffer| {
            self.writebacks.iter().map(move |w| HostRead {
                host: w.host,
                buffer,
                offset: w.slot * 8,
                fold: None,
            })
        });
        inits
            .chain(self.launches().map(Step::Launch))
            .chain(results.chain(writebacks).map(Step::Read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims() {
        let d = LaunchDims::paper();
        assert_eq!(d.threads_per_block(), 1024);
        assert_eq!(d.total_threads(), 192 * 1024);
    }
}
