//! The OpenACC program runner: owns the device, the host data
//! environment, and the compiled-region cache, and executes regions
//! (transfers, then the compiled region's plan — see
//! [`CompiledRegion::steps`]) the way the OpenUH runtime drives CUDA.

use crate::cache::{RegionCache, RegionKey};
use crate::error::AccError;
use crate::host::Host;
use crate::hostbuf::HostBuffer;
use accparse::ast::{CType, DataDir, Level};
use accparse::hir::{AnalyzedProgram, HExpr};
use gpsim::{
    BufferHandle, Device, HazardReport, SanitizerConfig, SanitizerLevel, SessionProfile, Value,
};
use std::collections::HashMap;
use std::sync::Arc;
use uhacc_core::plan::{CompiledRegion, ParamSpec, Step};
use uhacc_core::types::machine_ty;
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
    /// Host scalars and arrays, their binding rules and extents.
    host: Host,
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
        let n_arrays = prog.arrays.len();
        AccRunner {
            host: Host::new(Arc::clone(&prog)),
            prog,
            src: None,
            device,
            opts,
            default_dims,
            dev_arrays: vec![None; n_arrays],
            resident: vec![0; n_arrays],
            instances: HashMap::new(),
            region_cache: None,
            compiles: 0,
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
        self.device.set_profiler(on);
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

    /// Bind a host scalar by name.
    pub fn bind_scalar(&mut self, name: &str, v: Value) -> Result<(), AccError> {
        self.host.bind_scalar(name, v)
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
        self.host.scalar(name)
    }

    /// Bind a host array by name. The element type must match the
    /// declaration; the length is validated at region launch against the
    /// declared dimensions.
    pub fn bind_array(&mut self, name: &str, buf: HostBuffer) -> Result<(), AccError> {
        self.host.bind_array(name, buf)
    }

    /// Borrow a bound host array.
    pub fn array(&self, name: &str) -> Result<&HostBuffer, AccError> {
        self.host.array(name)
    }

    /// Mutably borrow a bound host array.
    pub fn array_mut(&mut self, name: &str) -> Result<&mut HostBuffer, AccError> {
        let i = self.host.array_index(name)?;
        self.host.buffer_mut(i)
    }

    /// Swap two arrays' host and device bindings (the classic stencil
    /// double-buffer swap; both arrays must have identical shape/type).
    pub fn swap_arrays(&mut self, a: &str, b: &str) -> Result<(), AccError> {
        let ia = self.host.array_index(a)?;
        let ib = self.host.array_index(b)?;
        if self.prog.arrays[ia].ty != self.prog.arrays[ib].ty
            || self.prog.arrays[ia].dims.len() != self.prog.arrays[ib].dims.len()
        {
            return Err(AccError::Binding(format!(
                "arrays `{a}` and `{b}` are not compatible"
            )));
        }
        self.host.swap_arrays(ia, ib);
        self.dev_arrays.swap(ia, ib);
        self.resident.swap(ia, ib);
        Ok(())
    }

    /// Array `i`'s device buffer, allocated anew unless it already holds
    /// `elems` elements.
    fn device_array(&mut self, i: usize, elems: u64) -> Result<BufferHandle, AccError> {
        match self.dev_arrays[i] {
            Some((h, have)) if have == elems => Ok(h),
            _ => {
                let bytes = elems * machine_ty(self.prog.arrays[i].ty).size() as u64;
                let h = self.device.alloc(bytes)?;
                self.dev_arrays[i] = Some((h, elems));
                Ok(h)
            }
        }
    }

    /// Array `i`'s device buffer and its element count.
    fn on_device(&self, i: usize) -> Result<(BufferHandle, u64), AccError> {
        self.dev_arrays[i].ok_or_else(|| {
            AccError::Binding(format!(
                "array `{}` has no device buffer",
                self.prog.arrays[i].name
            ))
        })
    }

    fn not_present(&self, i: usize) -> AccError {
        AccError::Binding(format!(
            "array `{}` marked present but not on the device",
            self.prog.arrays[i].name
        ))
    }

    /// Enter a structured-data binding: allocate, optionally upload, and
    /// bump the residency refcount (transfers only on the 0 -> 1 edge,
    /// OpenACC `present_or_*` semantics).
    fn enter_binding(&mut self, i: usize, dir: DataDir) -> Result<(), AccError> {
        if self.resident[i] == 0 {
            if dir == DataDir::Present && self.dev_arrays[i].is_none() {
                return Err(self.not_present(i));
            }
            let elems = self.host.shape(i)?.elems();
            let handle = self.device_array(i, elems)?;
            if matches!(dir, DataDir::CopyIn | DataDir::Copy) {
                let host = self.host.sized(i, elems)?;
                self.device.memcpy_h2d(handle, host.bytes())?;
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

    /// Copy array `i`'s device buffer into its host binding (bound now,
    /// zeroed, when there is none).
    fn download_array(&mut self, i: usize) -> Result<(), AccError> {
        let (handle, elems) = self.on_device(i)?;
        let host = self.host.landing(i, elems);
        self.device.memcpy_d2h(handle, host.bytes_mut())?;
        Ok(())
    }

    /// Allocate + upload `name` and keep it device-resident (the OpenACC
    /// 2.0 `enter data copyin` runtime behaviour the paper's §2.1 refers
    /// to): subsequent regions skip its transfers until
    /// [`AccRunner::exit_data`].
    pub fn enter_data(&mut self, name: &str) -> Result<(), AccError> {
        self.run_host_assigns()?;
        let i = self.host.array_index(name)?;
        self.enter_binding(i, DataDir::Copy)
    }

    /// Download `name` from the device and end its residency (the OpenACC
    /// 2.0 `exit data copyout` behaviour).
    pub fn exit_data(&mut self, name: &str) -> Result<(), AccError> {
        let i = self.host.array_index(name)?;
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
        let i = self.host.array_index(name)?;
        self.download_array(i)
    }

    /// `#pragma acc update device(name)`: push the host copy to the device
    /// without ending residency.
    pub fn update_device(&mut self, name: &str) -> Result<(), AccError> {
        let i = self.host.array_index(name)?;
        let (handle, _) = self.on_device(i)?;
        self.device
            .memcpy_h2d(handle, self.host.buffer(i)?.bytes())?;
        Ok(())
    }

    /// Execute the program's host assignments (idempotent; runs once).
    pub fn run_host_assigns(&mut self) -> Result<(), AccError> {
        self.host.run_assigns()
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
        let (r, d) = (&self.prog.regions[region], self.default_dims);
        let clause = |e: &Option<HExpr>, what, default| match e {
            Some(e) => self.host.extent(e, what).map(|n| n as u32),
            None => Ok(default),
        };
        let gangs = clause(&r.num_gangs, "num_gangs", d.gangs)?;
        let (mut worker, mut vector) = (false, false);
        accparse::hir::visit_loops(&r.body, &mut |l| {
            worker |= l.sched.contains(&Level::Worker);
            vector |= l.sched.contains(&Level::Vector);
        });
        let pick = |used, n| if used { n } else { 1 };
        Ok(LaunchDims {
            gangs,
            workers: clause(&r.num_workers, "num_workers", pick(worker, d.workers))?,
            vector: clause(&r.vector_length, "vector_length", pick(vector, d.vector))?,
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
        let prog = Arc::clone(&self.prog);
        let data = &prog.regions[region].data;
        for db in data {
            let elems = self.host.shape(db.array)?.elems();
            let sized = matches!(self.dev_arrays[db.array], Some((_, have)) if have == elems);
            if !sized && db.dir == DataDir::Present {
                return Err(self.not_present(db.array));
            }
            let handle = self.device_array(db.array, elems)?;
            let resident = self.resident[db.array] > 0;
            let needs_in = !resident && matches!(db.dir, DataDir::CopyIn | DataDir::Copy);
            let needs_host = needs_in || (!resident && matches!(db.dir, DataDir::CopyOut));
            if needs_host {
                let host = self.host.sized(db.array, elems)?;
                if needs_in {
                    self.device.memcpy_h2d(handle, host.bytes())?;
                }
            }
        }
        self.obs_record(&format!("h2d.region{region}"), t_h2d);

        // Check host scalars used are bound (assignments count as binding).
        self.host.check_used(region)?;

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
            let extents: Vec<Vec<u64>> = (0..prog.arrays.len())
                .map(|a| {
                    self.host
                        .shape(a)
                        .map(|s| s.dims().to_vec())
                        .unwrap_or_default()
                })
                .collect();
            let report =
                uhacc_core::certify_region(&prog, region, &compiled, self.host.scalars(), &extents);
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
                    let ty = machine_ty(prog.hosts[rd.host].ty);
                    let v = self
                        .device
                        .peek(ty, temp_buffers[rd.buffer].addr + rd.offset)?;
                    match rd.fold {
                        Some(op) => self.host.fold(rd.host, op, v),
                        None => self.host.set(rd.host, v),
                    }
                }
            }
        }
        self.obs_record(&format!("launch.region{region}"), t_launch);

        // Data out.
        let t_d2h = self.obs_now();
        for db in data {
            // A device-resident array's host copy is refreshed at scope exit.
            if self.resident[db.array] == 0 && matches!(db.dir, DataDir::CopyOut | DataDir::Copy) {
                self.download_array(db.array)?;
            }
        }
        self.obs_record(&format!("d2h.region{region}"), t_d2h);
        Ok(())
    }

    /// The value of launch parameter `p` in this session.
    fn arg(&self, p: &ParamSpec, temp_buffers: &[BufferHandle]) -> Result<Value, AccError> {
        Ok(match *p {
            ParamSpec::ArrayBase(a) => {
                let (h, _) = self.on_device(a)?;
                Value::U64(h.addr)
            }
            ParamSpec::ArrayDim { array, dim } => {
                let e = &self.prog.arrays[array].dims[dim];
                Value::I32(self.host.extent(e, "dimension")? as i32)
            }
            ParamSpec::HostScalar(h) => self.host.scalars()[h],
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
        let prog = Arc::clone(&self.prog);
        for (i, h) in prog.hosts.iter().enumerate() {
            let v = match h.ty {
                CType::Int | CType::Long => Value::I64(n as i64),
                CType::Float | CType::Double => Value::F64(0.0),
            };
            self.host.set(i, v);
        }
        self.run_host_assigns()?;
        // Multi-dimensional arrays scale super-linearly in `n`; refuse
        // absurd allocations with a diagnostic instead of aborting OOM.
        const MAX_ELEMS: u64 = 1 << 28;
        for (i, a) in prog.arrays.iter().enumerate() {
            let elems = self.host.shape(i)?.elems();
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
        let i = self.host.array_index(name)?;
        let (h, elems) = self.on_device(i)?;
        if index >= elems {
            return Err(AccError::Binding(format!(
                "index {index} out of range ({elems})"
            )));
        }
        let ty = machine_ty(self.prog.arrays[i].ty);
        Ok(self.device.peek(ty, h.addr + index * ty.size() as u64)?)
    }
}
