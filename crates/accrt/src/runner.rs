//! The OpenACC program runner: owns the device, the host data
//! environment, and the compiled-region cache, and executes regions
//! (transfers, then the compiled region's plan — see
//! [`CompiledRegion::steps`]) the way the OpenUH runtime drives CUDA.

use crate::cache::{RegionCache, RegionKey};
use crate::error::AccError;
use crate::hostbuf::HostBuffer;
use crate::hosteval::{eval_host_expr, eval_host_extent};
use accparse::ast::{CType, DataDir};
use accparse::hir::{AnalyzedProgram, ArrayDecl};
use gpsim::{
    BufferHandle, Device, HazardReport, ProfileConfig, SanitizerConfig, SanitizerLevel,
    SessionProfile, Value,
};
use std::collections::HashMap;
use std::sync::Arc;
use uhacc_core::plan::{CompiledRegion, ParamSpec, Step};
use uhacc_core::types::{apply_host, machine_ty};
use uhacc_core::{CompilerOptions, LaunchDims};

/// Cached device-side state for one compiled region: the shared immutable
/// artifact plus this session's own temp buffers.
struct RegionInstance {
    compiled: Arc<CompiledRegion>,
    temp_buffers: Vec<BufferHandle>,
}

/// Observability hook for a session ([`AccRunner::set_obs`]): while
/// attached, [`AccRunner::run_region`] records one span per phase
/// (`codegen` when a compile actually happens, `h2d`, `launch`, `d2h`)
/// into the shared tracer under this request's trace id, and feeds
/// compile durations into the histogram. With no hook attached the
/// runner never reads a clock — the zero-cost (and, under the virtual
/// clock, zero-tick) default.
#[derive(Clone)]
pub struct RunnerObs {
    pub tracer: Arc<uhobs::Tracer>,
    pub trace_id: u64,
    pub compile_hist: Option<uhobs::Histogram>,
}

/// The runner: program + device + data environment.
///
/// A runner is one *session*: it owns every piece of mutable state (host
/// bindings, device memory, statistics, profiles) and is `Send`, so a
/// service can move sessions onto worker threads. Everything immutable —
/// the analyzed program and compiled kernel artifacts — is shared via
/// `Arc`, so N concurrent sessions of the same program cost one parse and
/// one codegen (see [`AccRunner::from_shared`] and
/// [`AccRunner::set_region_cache`]).
pub struct AccRunner {
    prog: Arc<AnalyzedProgram>,
    /// The OpenACC source text, when the runner was built from source
    /// (used to quote lines in profile reports).
    src: Option<String>,
    device: Device,
    opts: CompilerOptions,
    default_dims: LaunchDims,
    scalars: Vec<Value>,
    scalar_bound: Vec<bool>,
    arrays: Vec<Option<HostBuffer>>,
    dev_arrays: Vec<Option<(BufferHandle, u64)>>,
    /// Residency reference counts: arrays entered via [`AccRunner::enter_data`]
    /// or an enclosing `#pragma acc data` scope. While positive, per-region
    /// `copyin`/`copyout` clauses become `present` (no transfers).
    resident: Vec<u32>,
    instances: HashMap<(usize, u32, u32, u32), RegionInstance>,
    /// Shared compiled-artifact cache and this program's content key in
    /// it. When set, region compilation is looked up there first.
    region_cache: Option<(Arc<RegionCache>, u64)>,
    /// Region compilations this session actually performed (cache misses
    /// and uncached compiles both count; warm cache hits do not).
    compiles: u64,
    host_assigns_done: bool,
    /// Optional observability hook (see [`RunnerObs`]).
    obs: Option<RunnerObs>,
    /// Whether region executions are certified ([`AccRunner::certify`]).
    certify: bool,
    cert_reports: Vec<gpsim::CertReport>,
}

// The whole session must stay movable across threads: the uhaccd worker
// pool depends on it. A non-Send field (Rc, RefCell, raw pointer) breaks
// this at compile time, here, rather than deep inside the service.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AccRunner>();
    assert_send::<Device>();
    assert_send::<RunnerObs>();
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<AnalyzedProgram>>();
    assert_send_sync::<Arc<CompiledRegion>>();
    assert_send_sync::<RegionCache>();
};

impl AccRunner {
    /// Parse, analyze and prepare `src` with default options (OpenUH
    /// strategies, paper launch dims scaled to the source's needs) on a
    /// default device.
    pub fn new(src: &str) -> Result<Self, AccError> {
        Self::with_options(
            src,
            CompilerOptions::openuh(),
            LaunchDims::paper(),
            Device::default(),
        )
    }

    /// Full-control constructor.
    pub fn with_options(
        src: &str,
        opts: CompilerOptions,
        default_dims: LaunchDims,
        device: Device,
    ) -> Result<Self, AccError> {
        let prog = accparse::compile(src)?;
        let mut runner = Self::from_hir(prog, opts, default_dims, device);
        runner.src = Some(src.to_string());
        Ok(runner)
    }

    /// Build from an already-analyzed program.
    pub fn from_hir(
        prog: AnalyzedProgram,
        opts: CompilerOptions,
        default_dims: LaunchDims,
        device: Device,
    ) -> Self {
        Self::from_shared(Arc::new(prog), opts, default_dims, device)
    }

    /// Build a session over a *shared* analyzed program: N concurrent
    /// sessions of the same source cost one parse. This is the
    /// constructor the `uhaccd` service uses after a program-cache hit.
    pub fn from_shared(
        prog: Arc<AnalyzedProgram>,
        opts: CompilerOptions,
        default_dims: LaunchDims,
        device: Device,
    ) -> Self {
        let n_scalars = prog.hosts.len();
        let n_arrays = prog.arrays.len();
        AccRunner {
            prog,
            src: None,
            device,
            opts,
            default_dims,
            scalars: vec![Value::I32(0); n_scalars],
            scalar_bound: vec![false; n_scalars],
            arrays: (0..n_arrays).map(|_| None).collect(),
            dev_arrays: vec![None; n_arrays],
            resident: vec![0; n_arrays],
            instances: HashMap::new(),
            region_cache: None,
            compiles: 0,
            host_assigns_done: false,
            obs: None,
            certify: false,
            cert_reports: Vec::new(),
        }
    }

    /// Attach the session's source text (enables source quoting in
    /// profile reports for sessions built via [`AccRunner::from_shared`]).
    pub fn set_source(&mut self, src: &str) {
        self.src = Some(src.to_string());
    }

    /// Route region compilation through a shared artifact cache.
    /// `program_key` must content-address this session's `(source,
    /// options)` pair — use [`uhacc_core::program_key`] — so sessions of
    /// different programs or strategies never alias.
    pub fn set_region_cache(&mut self, cache: Arc<RegionCache>, program_key: u64) {
        self.region_cache = Some((cache, program_key));
    }

    /// Region compilations this session performed itself (warm cache
    /// hits are *not* counted — that is the point of the counter).
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// The analyzed program.
    pub fn program(&self) -> &AnalyzedProgram {
        &self.prog
    }

    /// The simulated device (stats, cost model, ...).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable device access (cost-model calibration in experiments).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Modelled milliseconds elapsed on the device so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.device.elapsed_ms()
    }

    /// Reset device timing/statistics (keeps data).
    pub fn reset_stats(&mut self) {
        self.device.reset_stats();
    }

    /// Set the number of host worker threads used to execute independent
    /// thread blocks (0 = auto, 1 = sequential; the `UHACC_HOST_THREADS`
    /// environment variable overrides the auto default). Every observable
    /// result — array contents, scalars, modelled cycles, hazard reports —
    /// is bit-identical at any setting; this knob only changes wall-clock
    /// simulation time.
    pub fn set_host_threads(&mut self, n: u32) {
        self.device.set_host_threads(n);
    }

    /// Select the simulator execution tier for every subsequent launch
    /// (see [`gpsim::ExecTier`]): `Auto` (the typed tier, or the
    /// interpreter for a kernel it declines) or the reference interpreter.
    /// Observable results are bit-identical across tiers; this knob only
    /// changes wall-clock simulation time.
    pub fn set_exec_tier(&mut self, tier: gpsim::ExecTier) {
        self.device.set_exec_tier(tier);
    }

    /// Run every subsequent launch — main kernels *and* gang-reduction
    /// finalize kernels — under the simulator's hazard sanitizer at
    /// `level` (see [`gpsim::sanitizer`]). [`SanitizerLevel::Off`] turns
    /// instrumentation back off.
    pub fn sanitize(&mut self, level: SanitizerLevel) {
        self.device.set_sanitizer(SanitizerConfig {
            level,
            ..SanitizerConfig::default()
        });
    }

    /// Hazard reports the sanitizer has accumulated across this runner's
    /// launches (empty when the sanitizer is off).
    pub fn hazards(&self) -> &[HazardReport] {
        self.device.hazards()
    }

    /// Drain the accumulated hazard reports.
    pub fn take_hazards(&mut self) -> Vec<HazardReport> {
        self.device.take_hazards()
    }

    /// Statically verify every subsequent launch — main kernels *and*
    /// finalize kernels — with [`gpsim::verify`] as a pre-launch pass at
    /// the launch's block shape. Advisory: a finding never aborts the
    /// run; harvest reports with [`AccRunner::take_verify_reports`].
    pub fn verify(&mut self, on: bool) {
        self.device.set_verifier(on);
    }

    /// Certify every subsequent region execution with the translation
    /// validator ([`uhacc_core::cert`]) as a pre-launch pass: the compiled
    /// kernels are symbolically executed over the region's launch plan and
    /// compared, observable by observable, against a sequential reference
    /// interpretation of the source HIR at the bound scalar values and
    /// array extents. Advisory: a `Refuted` verdict never aborts the run;
    /// harvest reports with [`AccRunner::take_cert_reports`].
    pub fn certify(&mut self, on: bool) {
        self.certify = on;
    }

    /// Certification reports accumulated across region executions.
    pub fn cert_reports(&self) -> &[gpsim::CertReport] {
        &self.cert_reports
    }

    /// Drain the accumulated certification reports.
    pub fn take_cert_reports(&mut self) -> Vec<gpsim::CertReport> {
        std::mem::take(&mut self.cert_reports)
    }

    /// Profile every subsequent transfer and launch — main kernels *and*
    /// gang-reduction finalize kernels — with [`gpsim::profile`]:
    /// per-source-line stall attribution plus a modelled timeline of
    /// transfers, kernels and per-SM block execution. Observational only:
    /// results and modelled cycles are unchanged, and every exported byte
    /// is identical at any host thread count.
    pub fn profile(&mut self, on: bool) {
        self.device.set_profiler(on.then(ProfileConfig::default));
    }

    /// Human-readable profile report, with per-line rows quoting the
    /// OpenACC source when the runner was built from source text.
    pub fn profile_report(&self) -> String {
        self.device.profile().report(self.src.as_deref())
    }

    /// Stable machine-readable profile JSON (byte-identical across runs
    /// and host thread counts).
    pub fn profile_json(&self) -> String {
        self.device.profile().to_json()
    }

    /// Chrome-trace (Perfetto / `chrome://tracing`) timeline of
    /// transfers, kernel launches and per-SM block spans.
    pub fn profile_chrome_trace(&self) -> String {
        self.device.profile().to_chrome_trace()
    }

    /// Drain the accumulated session profile.
    pub fn take_profile(&mut self) -> SessionProfile {
        self.device.take_profile()
    }

    /// Attach the observability hook: subsequent [`AccRunner::run_region`]
    /// calls record per-phase spans into `obs.tracer` under
    /// `obs.trace_id`.
    pub fn set_obs(&mut self, obs: RunnerObs) {
        self.obs = Some(obs);
    }

    /// Read the observability clock, if a hook is attached. (Virtual
    /// clocks advance per read, so this is only called on traced paths.)
    fn obs_now(&self) -> Option<u64> {
        self.obs.as_ref().map(|o| o.tracer.now_us())
    }

    /// Close a span opened by [`Self::obs_now`].
    fn obs_record(&self, name: &str, start: Option<u64>) -> u64 {
        match (&self.obs, start) {
            (Some(o), Some(s)) => {
                let end = o.tracer.now_us();
                o.tracer.record(o.trace_id, name, s, end, &[]);
                end.saturating_sub(s)
            }
            _ => 0,
        }
    }

    /// Static verification reports accumulated across launches.
    pub fn verify_reports(&self) -> &[gpsim::VerifyReport] {
        self.device.verify_reports()
    }

    /// Drain the accumulated verification reports.
    pub fn take_verify_reports(&mut self) -> Vec<gpsim::VerifyReport> {
        self.device.take_verify_reports()
    }

    fn host_index(&self, name: &str) -> Result<usize, AccError> {
        self.prog
            .host_index(name)
            .ok_or_else(|| AccError::Binding(format!("no host scalar named `{name}`")))
    }

    fn array_index(&self, name: &str) -> Result<usize, AccError> {
        self.prog
            .array_index(name)
            .ok_or_else(|| AccError::Binding(format!("no array named `{name}`")))
    }

    /// Bind a host scalar by name.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> Result<(), AccError> {
        let i = self.host_index(name)?;
        let ty = machine_ty(self.prog.hosts[i].ty);
        self.scalars[i] = v.convert(ty);
        self.scalar_bound[i] = true;
        Ok(())
    }

    /// Bind an integer host scalar by name.
    pub fn bind_int(&mut self, name: &str, v: i64) -> Result<(), AccError> {
        self.bind_scalar(name, Value::I64(v))
    }

    /// Bind a float host scalar by name.
    pub fn bind_float(&mut self, name: &str, v: f64) -> Result<(), AccError> {
        self.bind_scalar(name, Value::F64(v))
    }

    /// Read a host scalar's current value.
    pub fn scalar(&self, name: &str) -> Result<Value, AccError> {
        Ok(self.scalars[self.host_index(name)?])
    }

    /// Bind a host array by name. The element type must match the
    /// declaration; the length is validated at region launch against the
    /// declared dimensions.
    pub fn bind_array(&mut self, name: &str, buf: HostBuffer) -> Result<(), AccError> {
        let i = self.array_index(name)?;
        let want = self.prog.arrays[i].ty;
        if buf.ty() != want {
            return Err(AccError::Binding(format!(
                "array `{name}` is declared {want} but the binding is {}",
                buf.ty()
            )));
        }
        self.arrays[i] = Some(buf);
        Ok(())
    }

    /// Borrow a bound host array.
    pub fn array(&self, name: &str) -> Result<&HostBuffer, AccError> {
        let i = self.array_index(name)?;
        self.arrays[i]
            .as_ref()
            .ok_or_else(|| AccError::Binding(format!("array `{name}` is not bound")))
    }

    /// Mutably borrow a bound host array.
    pub fn array_mut(&mut self, name: &str) -> Result<&mut HostBuffer, AccError> {
        let i = self.array_index(name)?;
        self.arrays[i]
            .as_mut()
            .ok_or_else(|| AccError::Binding(format!("array `{name}` is not bound")))
    }

    /// Swap two arrays' host and device bindings (the classic stencil
    /// double-buffer swap; both arrays must have identical shape/type).
    pub fn swap_arrays(&mut self, a: &str, b: &str) -> Result<(), AccError> {
        let ia = self.array_index(a)?;
        let ib = self.array_index(b)?;
        if self.prog.arrays[ia].ty != self.prog.arrays[ib].ty
            || self.prog.arrays[ia].dims.len() != self.prog.arrays[ib].dims.len()
        {
            return Err(AccError::Binding(format!(
                "arrays `{a}` and `{b}` are not compatible"
            )));
        }
        self.arrays.swap(ia, ib);
        self.dev_arrays.swap(ia, ib);
        self.resident.swap(ia, ib);
        Ok(())
    }

    /// Ensure a device buffer of the declared size exists for array `i`.
    fn ensure_device_array(&mut self, i: usize) -> Result<(BufferHandle, u64), AccError> {
        let decl = self.prog.arrays[i].clone();
        let elems = array_elems(&decl, &self.scalars)?;
        let realloc = match self.dev_arrays[i] {
            Some((_, have)) => have != elems,
            None => true,
        };
        if realloc {
            let h = self
                .device
                .alloc(elems * machine_ty(decl.ty).size() as u64)?;
            self.dev_arrays[i] = Some((h, elems));
        }
        Ok(self.dev_arrays[i].unwrap())
    }

    /// Enter a structured-data binding: allocate, optionally upload, and
    /// bump the residency refcount (transfers only on the 0 -> 1 edge,
    /// OpenACC `present_or_*` semantics).
    fn enter_binding(&mut self, i: usize, dir: DataDir) -> Result<(), AccError> {
        if self.resident[i] == 0 {
            if dir == DataDir::Present && self.dev_arrays[i].is_none() {
                return Err(AccError::Binding(format!(
                    "array `{}` marked present but not on the device",
                    self.prog.arrays[i].name
                )));
            }
            let (handle, elems) = self.ensure_device_array(i)?;
            if matches!(dir, DataDir::CopyIn | DataDir::Copy) {
                let host = self.arrays[i].as_ref().ok_or_else(|| {
                    AccError::Binding(format!("array `{}` is not bound", self.prog.arrays[i].name))
                })?;
                if host.len() as u64 != elems {
                    return Err(AccError::Binding(format!(
                        "array `{}` declared with {elems} element(s) but bound with {}",
                        self.prog.arrays[i].name,
                        host.len()
                    )));
                }
                let bytes = host.bytes().to_vec();
                self.device.memcpy_h2d(handle, &bytes)?;
            }
        }
        self.resident[i] += 1;
        Ok(())
    }

    /// Exit a structured-data binding: drop the refcount and download on
    /// the 1 -> 0 edge for `copyout`/`copy`.
    fn exit_binding(&mut self, i: usize, dir: DataDir) -> Result<(), AccError> {
        debug_assert!(self.resident[i] > 0, "unbalanced data scope exit");
        self.resident[i] = self.resident[i].saturating_sub(1);
        if self.resident[i] == 0 && matches!(dir, DataDir::CopyOut | DataDir::Copy) {
            self.download_array(i)?;
        }
        Ok(())
    }

    fn download_array(&mut self, i: usize) -> Result<(), AccError> {
        let (handle, elems) = self.dev_arrays[i].ok_or_else(|| {
            AccError::Binding(format!(
                "array `{}` has no device buffer",
                self.prog.arrays[i].name
            ))
        })?;
        let decl_ty = self.prog.arrays[i].ty;
        if self.arrays[i].is_none() {
            self.arrays[i] = Some(HostBuffer::new(decl_ty, elems as usize));
        }
        let host = self.arrays[i].as_mut().unwrap();
        let mut bytes = vec![0u8; host.bytes().len()];
        self.device.memcpy_d2h(handle, &mut bytes)?;
        host.bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    /// Allocate + upload `name` and keep it device-resident (the OpenACC
    /// 2.0 `enter data copyin` runtime behaviour the paper's §2.1 refers
    /// to): subsequent regions skip its transfers until
    /// [`AccRunner::exit_data`].
    pub fn enter_data(&mut self, name: &str) -> Result<(), AccError> {
        self.run_host_assigns()?;
        let i = self.array_index(name)?;
        self.enter_binding(i, DataDir::Copy)
    }

    /// Download `name` from the device and end its residency (the OpenACC
    /// 2.0 `exit data copyout` behaviour).
    pub fn exit_data(&mut self, name: &str) -> Result<(), AccError> {
        let i = self.array_index(name)?;
        if self.resident[i] == 0 {
            return Err(AccError::Binding(format!(
                "array `{name}` is not device-resident"
            )));
        }
        self.exit_binding(i, DataDir::Copy)
    }

    /// `#pragma acc update host(name)`: refresh the host copy from the
    /// device without ending residency.
    pub fn update_host(&mut self, name: &str) -> Result<(), AccError> {
        let i = self.array_index(name)?;
        let (handle, elems) = self.dev_arrays[i]
            .ok_or_else(|| AccError::Binding(format!("array `{name}` has no device buffer")))?;
        let decl_ty = self.prog.arrays[i].ty;
        if self.arrays[i].is_none() {
            self.arrays[i] = Some(HostBuffer::new(decl_ty, elems as usize));
        }
        let host = self.arrays[i].as_mut().unwrap();
        let mut bytes = vec![0u8; host.bytes().len()];
        self.device.memcpy_d2h(handle, &mut bytes)?;
        host.bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    /// `#pragma acc update device(name)`: push the host copy to the device
    /// without ending residency.
    pub fn update_device(&mut self, name: &str) -> Result<(), AccError> {
        let i = self.array_index(name)?;
        let (handle, _) = self.dev_arrays[i]
            .ok_or_else(|| AccError::Binding(format!("array `{name}` has no device buffer")))?;
        let host = self.arrays[i]
            .as_ref()
            .ok_or_else(|| AccError::Binding(format!("array `{name}` is not bound")))?;
        let bytes = host.bytes().to_vec();
        self.device.memcpy_h2d(handle, &bytes)?;
        Ok(())
    }

    /// Execute the program's host assignments (idempotent; runs once).
    pub fn run_host_assigns(&mut self) -> Result<(), AccError> {
        if self.host_assigns_done {
            return Ok(());
        }
        let assigns = self.prog.host_assigns.clone();
        for ha in &assigns {
            let v = eval_host_expr(&ha.value, &self.scalars)?;
            let ty = machine_ty(self.prog.hosts[ha.host].ty);
            self.scalars[ha.host] = v.convert(ty);
            self.scalar_bound[ha.host] = true;
        }
        self.host_assigns_done = true;
        Ok(())
    }

    /// Run the whole program: host assignments, then every region in order,
    /// entering/exiting structured `acc data` scopes at their boundaries.
    pub fn run(&mut self) -> Result<(), AccError> {
        self.run_host_assigns()?;
        let scopes = self.prog.data_scopes.clone();
        let n = self.prog.regions.len();
        for p in 0..=n {
            // Exits first (scopes ending before region p), innermost first.
            let mut exiting: Vec<&accparse::hir::DataScope> =
                scopes.iter().filter(|s| s.end_region == p).collect();
            exiting.sort_by_key(|s| std::cmp::Reverse(s.first_region));
            for sc in exiting {
                for &(a, dir) in &sc.bindings {
                    self.exit_binding(a, dir)?;
                }
            }
            // Then enters (scopes starting at region p), outermost first.
            let mut entering: Vec<&accparse::hir::DataScope> = scopes
                .iter()
                .filter(|s| s.first_region == p && s.end_region > p)
                .collect();
            entering.sort_by_key(|s| std::cmp::Reverse(s.end_region));
            for sc in entering {
                for &(a, dir) in &sc.bindings {
                    self.enter_binding(a, dir)?;
                }
            }
            if p < n {
                self.run_region(p)?;
            }
        }
        Ok(())
    }

    /// Resolve launch dims for a region from its clauses (falling back to
    /// the runner defaults; `num_workers` defaults to 1 unless the region
    /// names worker parallelism).
    pub fn resolve_dims(&self, region: usize) -> Result<LaunchDims, AccError> {
        let r = &self.prog.regions[region];
        let gangs = match &r.num_gangs {
            Some(e) => eval_host_extent(e, &self.scalars, "num_gangs")? as u32,
            None => self.default_dims.gangs,
        };
        let mut uses_worker = false;
        let mut uses_vector = false;
        accparse::hir::visit_loops(&r.body, &mut |l| {
            for lv in &l.sched {
                match lv {
                    accparse::ast::Level::Worker => uses_worker = true,
                    accparse::ast::Level::Vector => uses_vector = true,
                    _ => {}
                }
            }
        });
        let workers = match &r.num_workers {
            Some(e) => eval_host_extent(e, &self.scalars, "num_workers")? as u32,
            None => {
                if uses_worker {
                    self.default_dims.workers
                } else {
                    1
                }
            }
        };
        let vector = match &r.vector_length {
            Some(e) => eval_host_extent(e, &self.scalars, "vector_length")? as u32,
            None => {
                if uses_vector {
                    self.default_dims.vector
                } else {
                    1
                }
            }
        };
        Ok(LaunchDims {
            gangs,
            workers,
            vector,
        })
    }

    /// Execute one region: compile (cached), move data in, run the
    /// region's plan ([`CompiledRegion::steps`]: buffer inits, launches,
    /// host reads), move data out.
    pub fn run_region(&mut self, region: usize) -> Result<(), AccError> {
        self.run_host_assigns()?;
        let dims = self.resolve_dims(region)?;

        // Compile: per-session instance cache first, then the shared
        // artifact cache (when attached), then actual codegen.
        let key = (region, dims.gangs, dims.workers, dims.vector);
        if !self.instances.contains_key(&key) {
            let t_codegen = self.obs_now();
            let compiled: Arc<CompiledRegion> = match &self.region_cache {
                Some((cache, program_key)) => {
                    let ck = RegionKey {
                        program: *program_key,
                        region,
                        dims,
                    };
                    let (prog, opts) = (self.prog.clone(), self.opts.clone());
                    let mut compiled_here = false;
                    let artifact = cache.get_or_compile(ck, || {
                        compiled_here = true;
                        uhacc_core::compile_region(&prog, region, dims, &opts)
                    })?;
                    self.compiles += compiled_here as u64;
                    artifact
                }
                None => {
                    self.compiles += 1;
                    Arc::new(uhacc_core::compile_region(
                        &self.prog, region, dims, &self.opts,
                    )?)
                }
            };
            let mut temp_buffers = Vec::new();
            for spec in &compiled.buffers {
                temp_buffers.push(self.device.alloc(spec.bytes())?);
            }
            self.instances.insert(
                key,
                RegionInstance {
                    compiled,
                    temp_buffers,
                },
            );
            let dur = self.obs_record(&format!("codegen.region{region}"), t_codegen);
            if let Some(h) = self.obs.as_ref().and_then(|o| o.compile_hist.as_ref()) {
                h.observe(dur);
            }
        }

        // Validate bindings and stage arrays.
        let t_h2d = self.obs_now();
        let data = self.prog.regions[region].data.clone();
        for db in &data {
            let decl = self.prog.arrays[db.array].clone();
            let elems = array_elems(&decl, &self.scalars)?;
            // Ensure a device buffer of the right size exists.
            let need_bytes = elems * machine_ty(decl.ty).size() as u64;
            let realloc = match self.dev_arrays[db.array] {
                Some((_, have)) => have != elems,
                None => true,
            };
            if realloc {
                if db.dir == DataDir::Present {
                    return Err(AccError::Binding(format!(
                        "array `{}` marked present but not on the device",
                        decl.name
                    )));
                }
                let h = self.device.alloc(need_bytes)?;
                self.dev_arrays[db.array] = Some((h, elems));
            }
            let (handle, _) = self.dev_arrays[db.array].unwrap();
            let resident = self.resident[db.array] > 0;
            let needs_in = !resident && matches!(db.dir, DataDir::CopyIn | DataDir::Copy);
            let needs_host = needs_in || (!resident && matches!(db.dir, DataDir::CopyOut));
            if needs_host {
                let host = self.arrays[db.array].as_ref().ok_or_else(|| {
                    AccError::Binding(format!("array `{}` is not bound", decl.name))
                })?;
                if host.len() as u64 != elems {
                    return Err(AccError::Binding(format!(
                        "array `{}` declared with {elems} element(s) but bound with {}",
                        decl.name,
                        host.len()
                    )));
                }
            }
            if needs_in {
                let bytes = self.arrays[db.array].as_ref().unwrap().bytes().to_vec();
                self.device.memcpy_h2d(handle, &bytes)?;
            }
        }
        self.obs_record(&format!("h2d.region{region}"), t_h2d);

        // Check host scalars used are bound (assignments count as binding).
        for &h in &self.prog.regions[region].hosts_used {
            if !self.scalar_bound[h] {
                return Err(AccError::Binding(format!(
                    "host scalar `{}` is used by the region but never bound",
                    self.prog.hosts[h].name
                )));
            }
        }

        let inst = &self.instances[&key];
        let (compiled, temp_buffers) = (inst.compiled.clone(), inst.temp_buffers.clone());

        // Exempt the multi-writer mailbox from global racecheck so the
        // sanitizer only reports unintended sharing.
        if self.device.sanitizer().level.enabled() {
            self.device.sanitizer_mut().global_ignore = compiled
                .buffers
                .iter()
                .zip(&temp_buffers)
                .filter(|(spec, _)| spec.race_exempt())
                .map(|(_, b)| (b.addr, b.end()))
                .collect();
        }

        // Translation validation (redcert), pre-launch: symbolically
        // execute the plan and compare against the source region at the
        // current scalar bindings and extents. Observational only.
        if self.certify {
            let extents: Vec<Vec<u64>> = self
                .prog
                .arrays
                .iter()
                .map(|a| {
                    a.dims
                        .iter()
                        .map(|e| eval_host_extent(e, &self.scalars, "dimension"))
                        .collect::<Result<Vec<u64>, _>>()
                        .unwrap_or_default()
                })
                .collect();
            let report =
                uhacc_core::certify_region(&self.prog, region, &compiled, &self.scalars, &extents);
            self.cert_reports.push(report);
        }

        let t_launch = self.obs_now();
        for step in compiled.steps() {
            match step {
                Step::Init { buffer, value } => {
                    self.device.poke(temp_buffers[buffer].addr, value)?
                }
                Step::Launch(l) => {
                    let args = l
                        .args
                        .iter()
                        .map(|p| self.arg(p, &temp_buffers))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.device.launch(l.kernel, l.config, &args)?;
                }
                Step::Read(rd) => {
                    let cty = self.prog.hosts[rd.host].ty;
                    let addr = temp_buffers[rd.buffer].addr + rd.offset;
                    let v = self.device.peek(machine_ty(cty), addr)?;
                    self.scalars[rd.host] = match rd.fold {
                        Some(op) => apply_host(op, cty, self.scalars[rd.host], v),
                        None => v.convert(machine_ty(cty)),
                    };
                    self.scalar_bound[rd.host] = true;
                }
            }
        }
        self.obs_record(&format!("launch.region{region}"), t_launch);

        // Data out.
        let t_d2h = self.obs_now();
        for db in &data {
            if self.resident[db.array] > 0 {
                continue; // device-resident: host copy refreshed at scope exit
            }
            if matches!(db.dir, DataDir::CopyOut | DataDir::Copy) {
                let (handle, elems) = self.dev_arrays[db.array].unwrap();
                let decl_ty = self.prog.arrays[db.array].ty;
                if self.arrays[db.array].is_none() {
                    self.arrays[db.array] = Some(HostBuffer::new(decl_ty, elems as usize));
                }
                let host = self.arrays[db.array].as_mut().unwrap();
                let mut bytes = vec![0u8; host.bytes().len()];
                self.device.memcpy_d2h(handle, &mut bytes)?;
                host.bytes_mut().copy_from_slice(&bytes);
            }
        }
        self.obs_record(&format!("d2h.region{region}"), t_d2h);
        Ok(())
    }

    /// The value of launch parameter `p` in this session.
    fn arg(&self, p: &ParamSpec, temp_buffers: &[BufferHandle]) -> Result<Value, AccError> {
        Ok(match *p {
            ParamSpec::ArrayBase(a) => {
                let (h, _) = self.dev_arrays[a].ok_or_else(|| {
                    AccError::Binding(format!(
                        "array `{}` has no device buffer",
                        self.prog.arrays[a].name
                    ))
                })?;
                Value::U64(h.addr)
            }
            ParamSpec::ArrayDim { array, dim } => {
                let e = &self.prog.arrays[array].dims[dim];
                Value::I32(eval_host_extent(e, &self.scalars, "dimension")? as i32)
            }
            ParamSpec::HostScalar(h) => self.scalars[h],
            ParamSpec::TempBuffer(i) => Value::U64(temp_buffers[i].addr),
            ParamSpec::ElemCount(n) => Value::I32(n as i32),
        })
    }

    /// Bind every host scalar and array to a deterministic input set:
    /// integer scalars to `n`, float scalars to 0, arrays (after host
    /// assignments resolve their extents) to the fixed pattern
    /// `(7i + 3) mod 101 - 50` — the same inputs `uhacc-cc --profile`
    /// and the `uhaccd` `/run` and `/profile` endpoints use, so the same
    /// source yields byte-identical results on every surface.
    pub fn bind_deterministic_inputs(&mut self, n: u64) -> Result<(), AccError> {
        let hosts: Vec<(String, CType)> = self
            .prog
            .hosts
            .iter()
            .map(|h| (h.name.clone(), h.ty))
            .collect();
        for (name, ty) in &hosts {
            match ty {
                CType::Int | CType::Long => self.bind_int(name, n as i64)?,
                CType::Float | CType::Double => self.bind_float(name, 0.0)?,
            }
        }
        self.run_host_assigns()?;
        let arrays = self.prog.arrays.clone();
        // Multi-dimensional arrays scale super-linearly in `n`; refuse
        // absurd allocations with a diagnostic instead of aborting OOM.
        const MAX_ELEMS: u64 = 1 << 28;
        for a in &arrays {
            let elems = array_elems(a, &self.scalars)?;
            if elems > MAX_ELEMS {
                return Err(AccError::Binding(format!(
                    "array `{}` needs {elems} elements at n={n}; the deterministic input \
                     binder caps arrays at {MAX_ELEMS} elements — pass a smaller n",
                    a.name
                )));
            }
            let mut buf = HostBuffer::new(a.ty, elems as usize);
            for i in 0..elems as usize {
                let k = (i as i64 * 7 + 3) % 101 - 50;
                let v = match a.ty {
                    CType::Int | CType::Long => Value::I64(k),
                    CType::Float | CType::Double => Value::F64(k as f64 / 101.0),
                };
                buf.set(i, v);
            }
            self.bind_array(&a.name, buf)?;
        }
        Ok(())
    }

    /// Read one value from a device-resident array without a full copy-out
    /// (verification/debug helper).
    pub fn peek_device_array(&self, name: &str, index: u64) -> Result<Value, AccError> {
        let i = self.array_index(name)?;
        let (h, elems) = self.dev_arrays[i]
            .ok_or_else(|| AccError::Binding(format!("array `{name}` has no device buffer")))?;
        if index >= elems {
            return Err(AccError::Binding(format!(
                "index {index} out of range ({elems})"
            )));
        }
        let ty = machine_ty(self.prog.arrays[i].ty);
        Ok(self.device.peek(ty, h.addr + index * ty.size() as u64)?)
    }
}

/// The element count of `decl` under the current scalars: the product of
/// its evaluated dimensions. A count whose bytes do not fit in 64 bits is
/// a binding error naming the array.
fn array_elems(decl: &ArrayDecl, scalars: &[Value]) -> Result<u64, AccError> {
    let what = format!("dimension of `{}`", decl.name);
    let mut elems = 1u64;
    for d in &decl.dims {
        elems = elems
            .checked_mul(eval_host_extent(d, scalars, &what)?)
            .filter(|n| n.checked_mul(machine_ty(decl.ty).size() as u64).is_some())
            .ok_or_else(|| {
                AccError::Binding(format!(
                    "array `{}` is too large: its size overflows 64 bits",
                    decl.name
                ))
            })?;
    }
    Ok(elems)
}
