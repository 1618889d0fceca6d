//! The front door: the *one* module that knows the pass list, the option
//! vocabulary and what every pass outcome means (DESIGN.md, "The front
//! door").
//!
//! `uhacc-cc` and `uhaccd` are adapters over this module. An adapter
//! turns its input — argv, or a JSON body — into `(key, literal)` pairs
//! for [`Options::set`], calls the pass, and wraps the rendered output in
//! its own envelope (stdout and an exit code, or a response body and a
//! status). Because the decoding, the defaults, the renderers and the
//! pass/fail decisions live here, the two surfaces cannot disagree. Keep
//! every `format!` here; if a surface ever needs a different shape, add a
//! function rather than forking the string-building inline.

use acc_baselines::Compiler;
use accparse::diag::{Diag, Severity};
use accparse::hir::AnalyzedProgram;
use accrt::{AccError, AccRunner, RegionCache, RunnerObs};
use gpsim::{verify_kernel, Device, ExecTier, VerifyConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use uhacc_core::flags::{parse_count, parse_count_u32, parse_report_format, ReportFormat};
use uhacc_core::stablehash::{fnv1a64, FNV_OFFSET};
use uhacc_core::{CompiledRegion, CompilerOptions, LaunchDims};

/// The passes both surfaces expose. The daemon's POST router and its
/// `/metrics` `endpoint` label are read off [`Pass::ALL`]; the CLI maps
/// its mode flags onto the same values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    Compile,
    Lint,
    Analyze,
    Verify,
    Certify,
    Run,
    Profile,
}

impl Pass {
    pub const ALL: [Pass; 7] = [
        Pass::Compile,
        Pass::Lint,
        Pass::Analyze,
        Pass::Verify,
        Pass::Certify,
        Pass::Run,
        Pass::Profile,
    ];

    /// The daemon route serving this pass.
    pub fn route(self) -> &'static str {
        match self {
            Pass::Compile => "/compile",
            Pass::Lint => "/lint",
            Pass::Analyze => "/analyze",
            Pass::Verify => "/verify",
            Pass::Certify => "/certify",
            Pass::Run => "/run",
            Pass::Profile => "/profile",
        }
    }

    /// The pass served at `route`, if any.
    pub fn from_route(route: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.route() == route)
    }

    /// The [`Options`] keys this pass reads. The daemon decodes exactly
    /// these from a body and leaves the rest alone, so a field that means
    /// nothing to a pass is ignored rather than validated; they are also
    /// all that keys a remembered answer ([`Options::memo_key`]).
    pub fn reads(self) -> &'static [&'static str] {
        match self {
            Pass::Compile => &["compiler", "dims", "emit", "verify"],
            Pass::Lint => &["werror"],
            Pass::Analyze => &["compiler"],
            Pass::Verify => &["compiler", "dims"],
            // Certification runs at its own sizes (`CERT_NS`), not `n`.
            Pass::Certify => &["compiler", "format", "dims", "host_threads", "exec_tier"],
            Pass::Run | Pass::Profile => &["compiler", "dims", "n", "host_threads", "exec_tier"],
        }
    }
}

/// Every value a caller can set, on either surface, with its default.
///
/// | key            | CLI spelling        | default                                   |
/// |----------------|---------------------|-------------------------------------------|
/// | `compiler`     | `--compiler NAME`   | `openuh`                                  |
/// | `dims`         | `--dims G,W,V`      | the paper's 192,8,128; 2,2,64 for certify |
/// | `emit`         | `--emit WHAT,..`    | `kernel,plan`                             |
/// | `verify`       | `--verify`          | off                                       |
/// | `werror`       | `--werror`          | off                                       |
/// | `format`       | `--certify=FMT`     | the surface's own (CLI text, daemon json) |
/// | `n`            | `--n N`             | 65536                                     |
/// | `host_threads` | `--host-threads N`  | 0 (auto)                                  |
/// | `exec_tier`    | `--exec-tier T`     | `auto`                                    |
#[derive(Debug, Clone)]
pub struct Options {
    pub compiler: Compiler,
    /// `None` = the pass's default geometry ([`Options::dims_for`]).
    pub dims: Option<LaunchDims>,
    /// The listings to render; `None` = [`EmitFlags::default`]. The
    /// `verify` bit of the stored flags is unused ([`Options::verify`]
    /// is the option).
    pub emit: Option<EmitFlags>,
    pub verify: bool,
    pub werror: bool,
    pub format: Option<ReportFormat>,
    pub n: u64,
    pub host_threads: u32,
    pub exec_tier: ExecTier,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            compiler: Compiler::OpenUH,
            dims: None,
            emit: None,
            verify: false,
            werror: false,
            format: None,
            n: 65536,
            host_threads: 0,
            exec_tier: ExecTier::Auto,
        }
    }
}

impl Options {
    /// `(key, CLI flag, the flag is a bare switch)` for every option: the
    /// body-field name is the key, and a switch sets its key to `true`.
    pub const KEYS: [(&'static str, &'static str, bool); 9] = [
        ("compiler", "--compiler", false),
        ("dims", "--dims", false),
        ("emit", "--emit", false),
        ("verify", "--verify", true),
        ("werror", "--werror", true),
        ("format", "--certify", false),
        ("n", "--n", false),
        ("host_threads", "--host-threads", false),
        ("exec_tier", "--exec-tier", false),
    ];

    /// The one decoder: set `key` from its literal. `--key value` on the
    /// command line and `"key": value` in a body both end here (an array
    /// of scalars arrives comma-joined, so `[192,8,128]` *is*
    /// `--dims 192,8,128`); `what` names the flag or field in the
    /// rejection, which is otherwise the same text on both surfaces.
    pub fn set(&mut self, what: &str, key: &str, lit: &str) -> Result<(), String> {
        let bad =
            |expected: &str| format!("invalid value for {what}: expected {expected}, got `{lit}`");
        let switch = || match lit {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(bad("`true` or `false`")),
        };
        match key {
            "compiler" => {
                self.compiler = match lit {
                    "openuh" => Compiler::OpenUH,
                    "pgi" => Compiler::PgiLike,
                    "caps" => Compiler::CapsLike,
                    _ => return Err(bad("openuh | pgi | caps")),
                }
            }
            "dims" => {
                let parts: Vec<&str> = lit.split(',').collect();
                let [g, w, v] = parts[..] else {
                    return Err(bad("G,W,V (three comma-separated non-negative integers)"));
                };
                self.dims = Some(LaunchDims {
                    gangs: parse_count_u32(what, g)?,
                    workers: parse_count_u32(what, w)?,
                    vector: parse_count_u32(what, v)?,
                });
            }
            "emit" => {
                let mut emit = EmitFlags::NONE;
                // An empty list (`"emit": []`) renders the header alone.
                for word in lit.split(',').filter(|w| !w.is_empty()) {
                    match word {
                        "hir" => emit.hir = true,
                        "kernel" => emit.kernel = true,
                        "plan" => emit.plan = true,
                        "all" => (emit.hir, emit.kernel, emit.plan) = (true, true, true),
                        _ => {
                            return Err(bad("a comma-separated list of hir | kernel | plan | all"))
                        }
                    }
                }
                self.emit = Some(emit);
            }
            "verify" => self.verify = switch()?,
            "werror" => self.werror = switch()?,
            "format" => self.format = Some(parse_report_format(what, lit)?),
            "n" => self.n = parse_count(what, lit)?,
            "host_threads" => self.host_threads = parse_count_u32(what, lit)?,
            "exec_tier" => self.exec_tier = lit.parse()?,
            _ => return Err(format!("unknown option `{key}`")),
        }
        Ok(())
    }

    /// Launch geometry for `pass`: the caller's, else the small
    /// certification geometry for certify and the paper's for the rest.
    pub fn dims_for(&self, pass: Pass) -> LaunchDims {
        self.dims.unwrap_or_else(|| match pass {
            Pass::Certify => certify_dims(),
            _ => LaunchDims::paper(),
        })
    }

    /// What [`compile_text`] renders for `pass`: the verify pass is the
    /// header plus the static-verification sections; the compile pass is
    /// the listings `emit` names plus, under `verify`, those sections.
    pub fn emit_flags(&self, pass: Pass) -> EmitFlags {
        match pass {
            Pass::Verify => EmitFlags {
                verify: true,
                ..EmitFlags::NONE
            },
            _ => EmitFlags {
                verify: self.verify,
                ..self.emit.unwrap_or_default()
            },
        }
    }

    /// The execution request `pass` runs under.
    pub fn request(&self, pass: Pass) -> RunRequest {
        RunRequest {
            opts: self.compiler.base_options(),
            dims: self.dims_for(pass),
            n: self.n,
            host_threads: self.host_threads,
            exec_tier: self.exec_tier,
        }
    }

    /// The key of `pass`'s answer under these options, for a cache of
    /// answers per program: an FNV-1a hash of the decoded values of
    /// exactly [`Pass::reads`]. Decoded, so `"dims":[192,8,128]` and
    /// `--dims 192,8,128` are one key; exactly, so an option the pass
    /// reads cannot be left out and one it ignores cannot split an answer.
    pub fn memo_key(&self, pass: Pass) -> u64 {
        pass.reads().iter().fold(FNV_OFFSET, |h, &key| {
            let value = match key {
                "compiler" => self.compiler.name().to_string(),
                "dims" => format!("{:?}", self.dims),
                "emit" => format!("{:?}", self.emit),
                "verify" => self.verify.to_string(),
                "werror" => self.werror.to_string(),
                "format" => format!("{:?}", self.format),
                "n" => self.n.to_string(),
                "host_threads" => self.host_threads.to_string(),
                "exec_tier" => self.exec_tier.to_string(),
                _ => unreachable!("`{key}` is not in Options::KEYS"),
            };
            fnv1a64(h, format!("{key}={value}\0").as_bytes())
        })
    }
}

/// Which sections [`compile_text`] renders.
#[derive(Debug, Clone, Copy)]
pub struct EmitFlags {
    pub hir: bool,
    pub kernel: bool,
    pub plan: bool,
    pub verify: bool,
}

impl EmitFlags {
    /// The header line alone.
    pub const NONE: EmitFlags = EmitFlags {
        hir: false,
        kernel: false,
        plan: false,
        verify: false,
    };
}

impl Default for EmitFlags {
    fn default() -> Self {
        EmitFlags {
            hir: false,
            kernel: true,
            plan: true,
            verify: false,
        }
    }
}

/// Result of [`compile_text`]: the rendered text plus the error-level
/// static-verification finding count.
pub struct CompileOutput {
    pub text: String,
    pub verify_errors: u64,
    /// The compiled artifacts, for callers (the daemon) that want to
    /// share them onward.
    pub regions: Vec<Arc<CompiledRegion>>,
}

impl CompileOutput {
    /// The pass outcome: an error-level static-verification finding
    /// fails it (CLI exit 1, `/verify` `"ok": false`).
    pub fn ok(&self) -> bool {
        self.verify_errors == 0
    }
}

/// Pluggable region compiler for [`compile_text`]: given a region index
/// and dims, produce the artifact. The CLI compiles directly; the daemon
/// passes a closure that consults its content-addressed cache first.
pub type RegionCompiler<'c> = dyn Fn(usize, LaunchDims) -> Result<Arc<CompiledRegion>, Diag> + 'c;

/// Render the compile products of every region — the exact text
/// `uhacc-cc` prints for `--emit`/`--verify`. Errors carry the region
/// index so the CLI can reproduce its `region N: <diag>` prefix.
pub fn compile_text(
    hir: &AnalyzedProgram,
    dims: LaunchDims,
    compiler_name: &str,
    emit: EmitFlags,
    compile: &RegionCompiler<'_>,
) -> Result<CompileOutput, (usize, Diag)> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// uhacc-cc: {} region(s), compiler = {}, dims = {}x{}x{}",
        hir.regions.len(),
        compiler_name,
        dims.gangs,
        dims.workers,
        dims.vector
    );
    if emit.hir {
        let _ = writeln!(out, "\n// ---- HIR ----");
        let _ = writeln!(
            out,
            "// hosts : {:?}",
            hir.hosts.iter().map(|h| &h.name).collect::<Vec<_>>()
        );
        let _ = writeln!(
            out,
            "// arrays: {:?}",
            hir.arrays.iter().map(|a| &a.name).collect::<Vec<_>>()
        );
        for (i, r) in hir.regions.iter().enumerate() {
            let _ = writeln!(
                out,
                "// region {i}: {} locals, {} data bindings",
                r.locals.len(),
                r.data.len()
            );
            accparse::hir::visit_loops(&r.body, &mut |l| {
                let _ = writeln!(
                    out,
                    "//   loop local#{} sched {:?} reductions {:?}",
                    l.var,
                    l.sched,
                    l.reductions
                        .iter()
                        .map(|rd| format!("{}:{:?}", rd.op.clause_token(), rd.span_levels))
                        .collect::<Vec<_>>()
                );
            });
        }
    }

    let mut verify_errors = 0u64;
    let mut regions = Vec::new();
    for region in 0..hir.regions.len() {
        let c = compile(region, dims).map_err(|d| (region, d))?;
        if emit.plan {
            let _ = writeln!(out, "\n// ---- region {region} plan ----");
            let _ = writeln!(out, "// params   : {:?}", c.params);
            let _ = writeln!(out, "// buffers  : {:?}", c.buffers);
            let _ = writeln!(out, "// finalize : {} pass(es)", c.finalize.len());
            let _ = writeln!(out, "// results  : {} host fold(s)", c.results.len());
            let _ = writeln!(out, "// mailbox  : {:?}", c.mailbox);
            let _ = writeln!(
                out,
                "// shared   : {} bytes/block, {} registers/thread, {} instructions",
                c.main.shared_bytes,
                c.main.num_regs,
                c.main.insts.len()
            );
        }
        if emit.kernel {
            let listing: Vec<String> = c.launches().map(|l| l.kernel.disasm()).collect();
            let _ = writeln!(out, "\n{}", listing.join("\n"));
        }
        if emit.verify {
            let vc = VerifyConfig::default();
            let _ = writeln!(out, "\n// ---- region {region} static verification ----");
            for l in c.launches() {
                let r = verify_kernel(l.kernel, l.config, &vc);
                let _ = write!(out, "{r}");
                verify_errors += r.errors();
            }
        }
        regions.push(c);
    }
    Ok(CompileOutput {
        text: out,
        verify_errors,
        regions,
    })
}

/// A [`RegionCompiler`] that compiles directly (no shared cache) — what
/// the CLI uses.
pub fn direct_compiler<'c>(
    hir: &'c AnalyzedProgram,
    opts: &'c CompilerOptions,
) -> impl Fn(usize, LaunchDims) -> Result<Arc<CompiledRegion>, Diag> + 'c {
    move |region, dims| uhacc_core::compile_region(hir, region, dims, opts).map(Arc::new)
}

/// The compile and verify passes: [`compile_text`] under `o` for `pass`.
/// A region the code generator rejects comes back rendered against the
/// source, as both surfaces report it.
pub fn compile_pass(
    pass: Pass,
    o: &Options,
    src: &str,
    hir: &AnalyzedProgram,
    compile: &RegionCompiler<'_>,
) -> Result<CompileOutput, String> {
    compile_text(
        hir,
        o.dims_for(pass),
        o.compiler.name(),
        o.emit_flags(pass),
        compile,
    )
    .map_err(|(region, d)| format!("region {region}: {}", d.render(src)))
}

/// Everything a deterministic single-shot execution needs.
#[derive(Debug, Clone)]
pub struct RunRequest {
    pub opts: CompilerOptions,
    pub dims: LaunchDims,
    /// Problem size bound to every integer host scalar.
    pub n: u64,
    /// Simulator host worker threads (0 = auto; results identical at any
    /// setting).
    pub host_threads: u32,
    /// Simulator execution tier (results identical at any setting).
    pub exec_tier: gpsim::ExecTier,
}

impl Default for RunRequest {
    /// The run pass under [`Options::default`].
    fn default() -> Self {
        Options::default().request(Pass::Run)
    }
}

/// Execute a prepared session under `req`: thread setting, optional
/// profiler, deterministic input binding, full run. Every [`session`]
/// funnels through this, so execution is identical regardless of where
/// its artifacts came from.
pub fn execute(r: &mut AccRunner, req: &RunRequest, profile: bool) -> Result<(), AccError> {
    r.set_host_threads(req.host_threads);
    r.set_exec_tier(req.exec_tier);
    if profile {
        r.profile(true);
    }
    r.bind_deterministic_inputs(req.n)?;
    r.run()
}

/// [`execute`] with the observability hook attached: the runtime records
/// per-region phase spans (codegen/h2d/launch/d2h) under `trace_id`, an
/// enclosing `exec` span brackets the whole run, and — when `profile` is
/// set — the device's modelled-cycle timeline is spliced into the tracer
/// as per-request stream/SM tracks anchored at the `exec` span's start,
/// so daemon request spans and uhprof device tracks land in one Perfetto
/// view on a shared timebase. Output bytes (results/profile JSON) are
/// identical to an untraced [`execute`]: observation never feeds back
/// into execution.
pub fn execute_traced(
    r: &mut AccRunner,
    req: &RunRequest,
    profile: bool,
    tracer: &Arc<uhobs::Tracer>,
    trace_id: u64,
    compile_hist: Option<uhobs::Histogram>,
) -> Result<(), AccError> {
    r.set_obs(accrt::RunnerObs {
        tracer: Arc::clone(tracer),
        trace_id,
        compile_hist,
    });
    let t_exec = tracer.now_us();
    let result = execute(r, req, profile);
    let t_end = tracer.now_us();
    tracer.record(trace_id, "exec", t_exec, t_end, &[]);
    if profile && result.is_ok() {
        let pid_base =
            uhobs::trace::DEVICE_PID_BASE.wrapping_add((trace_id as u32).wrapping_mul(2));
        let events =
            r.device()
                .profile()
                .chrome_trace_events(t_exec, pid_base, &format!("req {trace_id} "));
        tracer.record_device_events(events);
    }
    result
}

/// Where a run/profile [`session`] or a [`certify`] gets its analyzed
/// program and its compiled regions.
pub enum Artifacts {
    /// Parse and compile on the spot (the CLI).
    Direct,
    /// Share them through the daemon's two caches: the program came out
    /// of its program cache, regions are looked up in `regions` under the
    /// program's content `key`.
    Cached {
        program: Arc<AnalyzedProgram>,
        regions: Arc<RegionCache>,
        key: u64,
    },
}

impl Artifacts {
    /// A maker of fresh, unrun sessions of `req` over these artifacts.
    /// `Direct` parses `src` here, once, however many sessions are made.
    fn sessions<'a>(
        self,
        src: &'a str,
        req: &'a RunRequest,
    ) -> Result<impl Fn() -> AccRunner + 'a, AccError> {
        let (program, regions) = match self {
            Artifacts::Direct => (Arc::new(accparse::compile(src)?), None),
            Artifacts::Cached {
                program,
                regions,
                key,
            } => (program, Some((regions, key))),
        };
        Ok(move || {
            let mut r = AccRunner::from_shared(
                Arc::clone(&program),
                req.opts.clone(),
                req.dims,
                Device::default(),
            );
            r.set_source(src);
            if let Some((cache, key)) = &regions {
                r.set_region_cache(Arc::clone(cache), *key);
            }
            r
        })
    }
}

/// The run and profile passes: build the session for `req` over `from`,
/// bind the deterministic inputs and run the whole program — under the
/// [`execute_traced`] hook when `obs` is given. The one place either
/// surface builds an [`AccRunner`] for these passes; print the finished
/// session with [`results_json`] or its `profile_*` renderers.
pub fn session(
    src: &str,
    req: &RunRequest,
    profile: bool,
    from: Artifacts,
    obs: Option<RunnerObs>,
) -> Result<AccRunner, AccError> {
    let mut r = from.sessions(src, req)?();
    match obs {
        Some(o) => execute_traced(&mut r, req, profile, &o.tracer, o.trace_id, o.compile_hist)?,
        None => execute(&mut r, req, profile)?,
    }
    Ok(r)
}

/// How a pass that could not produce its report says so, on both
/// surfaces (CLI stderr with exit 1, the daemon's 422 `error`): a
/// front-end diagnostic is rendered against the source — message,
/// line/column, source line, caret — and anything else is the runtime
/// error's own line.
pub fn failure_text(e: &AccError, src: &str) -> String {
    match e {
        AccError::Compile(d) => d.render(src),
        e => format!("error: {e}"),
    }
}

/// Outcome of the lint pass.
pub struct LintOutcome {
    /// The findings (`werror` already applied), or the one front-end
    /// diagnostic when the source does not parse.
    pub diags: Vec<Diag>,
    /// Any error-level diagnostic fails the pass (CLI exit 1, `/lint`
    /// `"ok": false`).
    pub failed: bool,
}

/// The lint pass: the source-level findings of `src`, with warnings
/// promoted to errors under `werror` (notes — proven facts such as
/// L210's relaxation — are never promoted).
pub fn lint(src: &str, werror: bool) -> LintOutcome {
    let mut diags: Vec<Diag> = match accparse::lint_source(src) {
        Ok((_, findings)) => findings.into_iter().map(|f| f.diag).collect(),
        Err(d) => vec![d],
    };
    if werror {
        for d in &mut diags {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }
    let failed = diags.iter().any(|d| d.severity == Severity::Error);
    LintOutcome { diags, failed }
}

/// Render a finished session's scalar results and device statistics as
/// stable JSON — the `uhacc-cc --run` output and the `/run` endpoint
/// body. Integer-only except scalar values, which use Rust's shortest
/// round-trip float rendering (deterministic across platforms).
pub fn results_json(r: &AccRunner) -> String {
    let mut out = String::from("{\"scalars\":{");
    let mut first = true;
    for h in &r.program().hosts {
        let v = r.scalar(&h.name).expect("declared scalar");
        if !first {
            out.push(',');
        }
        first = false;
        let _ = match v {
            gpsim::Value::F32(_) | gpsim::Value::F64(_) => {
                write!(out, "\"{}\":{}", h.name, fmt_f64(v.as_f64()))
            }
            _ => write!(out, "\"{}\":{}", h.name, v.as_i64()),
        };
    }
    let s = r.device().stats();
    let _ = write!(
        out,
        "}},\"stats\":{{\"launches\":{},\"kernel_cycles\":{},\"transfer_cycles\":{},\
         \"total_cycles\":{},\"bytes_h2d\":{},\"bytes_d2h\":{},\"hazards\":{}}}}}",
        s.launches,
        s.kernel_cycles,
        s.transfer_cycles,
        s.total_cycles(),
        s.bytes_h2d,
        s.bytes_d2h,
        s.totals.hazards
    );
    out
}

/// Render the redflow fusion-legality analysis of a compiled program as
/// human-readable text — the `uhacc-cc --fusion-plan` output.
pub fn analyze_text(hir: &AnalyzedProgram) -> String {
    accparse::redflow::fusion_plan_text(&accparse::redflow::fusion_plan(hir))
}

/// Render the redflow fusion plan as stable JSON — byte-identical between
/// `uhacc-cc --fusion-plan=json` and the daemon `/analyze` endpoint for
/// the same source, because both call this one function.
pub fn analyze_json(hir: &AnalyzedProgram) -> String {
    accparse::redflow::fusion_plan_json(&accparse::redflow::fusion_plan(hir))
}

/// Problem sizes the certification driver runs at. Two sizes so a
/// verdict is never an artifact of one loop-trip count lining up with
/// the launch shape; per region the *worse* verdict is kept.
pub const CERT_NS: [u64; 2] = [3, 5];

/// Launch dims the certification driver defaults to: big enough to
/// exercise gang/worker/vector combining (2 gangs × 2 workers × 64
/// lanes = two full warps per block), small enough that symbolic
/// execution of every thread is instant.
pub fn certify_dims() -> LaunchDims {
    LaunchDims {
        gangs: 2,
        workers: 2,
        vector: 64,
    }
}

/// Certify every region of `src`: run the program under the translation
/// validator at each problem size in [`CERT_NS`] and keep, per region
/// execution, the report with the worse verdict. `src` is parsed once;
/// the `session` hook runs before each execution.
pub fn certify_reports(
    src: &str,
    req: &RunRequest,
    session: impl Fn(&mut AccRunner),
) -> Result<Vec<gpsim::CertReport>, AccError> {
    certify(src, req, Artifacts::Direct, session)
}

/// [`certify_reports`] over `from`: the daemon passes the program and
/// region artifacts out of its caches, as it does to [`session`].
pub fn certify(
    src: &str,
    req: &RunRequest,
    from: Artifacts,
    session: impl Fn(&mut AccRunner),
) -> Result<Vec<gpsim::CertReport>, AccError> {
    // The sessions of one call share their compiled regions, and with
    // them each region's kverify gate: without a cache of the caller's,
    // through one of the call's own.
    let from = match from {
        Artifacts::Direct => {
            let program = Arc::new(accparse::compile(src)?);
            let regions = Arc::new(RegionCache::new(program.regions.len()));
            Artifacts::Cached {
                program,
                regions,
                key: 0,
            }
        }
        cached => cached,
    };
    let new_session = from.sessions(src, req)?;
    let mut merged: Vec<gpsim::CertReport> = Vec::new();
    for &n in &CERT_NS {
        let mut r = new_session();
        session(&mut r);
        r.set_host_threads(req.host_threads);
        r.set_exec_tier(req.exec_tier);
        r.certify(true);
        r.bind_deterministic_inputs(n)?;
        r.run()?;
        let reports = r.take_cert_reports();
        if merged.is_empty() {
            merged = reports;
        } else {
            for (i, rep) in reports.into_iter().enumerate() {
                if let Some(m) = merged.get_mut(i) {
                    if rep.verdict.severity() > m.verdict.severity() {
                        *m = rep;
                    }
                } else {
                    merged.push(rep);
                }
            }
        }
    }
    Ok(merged)
}

/// The certify pass outcome: only a *refuted* region fails it (CLI exit
/// 1, `/certify` `"ok": false`). Unknown is a coverage gap, not a proven
/// miscompilation.
pub fn refuted(reports: &[gpsim::CertReport]) -> bool {
    reports
        .iter()
        .any(|r| matches!(r.verdict, gpsim::CertVerdict::Refuted { .. }))
}

/// Human-readable certification rendering — the `uhacc-cc --certify`
/// output: one line per region report plus a summary line.
pub fn cert_reports_text(reports: &[gpsim::CertReport]) -> String {
    let mut out = String::new();
    let mut counts = [0u64; 4];
    for r in reports {
        let _ = writeln!(out, "{}", r.render_text());
        counts[r.verdict.severity() as usize] += 1;
    }
    let _ = writeln!(
        out,
        "certify: {} region(s) — {} certified, {} modulo-reassoc, {} unknown, {} refuted",
        reports.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    );
    out
}

/// Stable certification JSON — byte-identical between
/// `uhacc-cc --certify=json` and the daemon `/certify` endpoint for the
/// same source, because both call this one function.
pub fn cert_reports_json(reports: &[gpsim::CertReport]) -> String {
    let mut out = String::from("{\"schema_version\":1,\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push_str("]}");
    out
}

/// Shortest-round-trip float rendering that is always a valid JSON
/// number (`1.0` stays `1.0`, never `1`; non-finite values have no JSON
/// form and render as null).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel \
                       loop gang vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; \
                       i++) { s += a[i]; }\n";

    #[test]
    fn compile_text_renders_plan_and_kernel() {
        let hir = accparse::compile(SRC).unwrap();
        let opts = CompilerOptions::openuh();
        let out = compile_text(
            &hir,
            LaunchDims::paper(),
            "openuh",
            EmitFlags::default(),
            &direct_compiler(&hir, &opts),
        )
        .unwrap();
        assert!(out
            .text
            .starts_with("// uhacc-cc: 1 region(s), compiler = openuh"));
        assert!(out.text.contains("// ---- region 0 plan ----"));
        assert!(out.text.contains(".kernel"), "kernel disasm present");
        assert_eq!(out.verify_errors, 0);
        assert_eq!(out.regions.len(), 1);
    }

    #[test]
    fn run_json_is_deterministic_and_sane() {
        let req = RunRequest {
            n: 1000,
            ..Default::default()
        };
        let run = || results_json(&session(SRC, &req, false, Artifacts::Direct, None).unwrap());
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"scalars\""), "{a}");
        assert!(a.contains("\"launches\""), "{a}");
        // Floats render as JSON numbers with a decimal point.
        assert!(a.contains("\"s\":"), "{a}");
    }

    /// One row per option: a literal both spellings accept (never the
    /// default) and one both reject.
    const ROWS: [(&str, &str, &str); 9] = [
        ("compiler", "pgi", "gcc"),
        ("dims", "4,2,32", "4,2"),
        ("emit", "hir,plan", "hir,asm"),
        ("verify", "true", "yes"),
        ("werror", "true", "1"),
        ("format", "json", "yaml"),
        ("n", "4096", "-1"),
        ("host_threads", "4", "4294967296"),
        ("exec_tier", "interpret", "compiled"),
    ];

    /// A key added to [`Options::KEYS`] without a row in [`ROWS`] fails here.
    #[test]
    fn both_spellings_decode_every_option_alike() {
        assert_eq!(
            ROWS.map(|r| r.0),
            Options::KEYS.map(|k| k.0),
            "one row per key, in KEYS order"
        );
        for ((key, good, bad), (_, flag, switch)) in ROWS.into_iter().zip(Options::KEYS) {
            let (mut cli, mut body) = (Options::default(), Options::default());
            cli.set(flag, key, good).unwrap();
            body.set(key, key, good).unwrap();
            assert_eq!(format!("{cli:?}"), format!("{body:?}"), "{key}");
            assert_ne!(
                format!("{cli:?}"),
                format!("{:?}", Options::default()),
                "{key}: the good literal is not the default"
            );
            let e_cli = cli.set(flag, key, bad).unwrap_err();
            let e_body = body.set(key, key, bad).unwrap_err();
            assert!(e_cli.contains(bad), "{e_cli}");
            assert_eq!(e_cli.replacen(flag, key, 1), e_body, "the label aside");
            assert_eq!(switch, ["true", "false"].contains(&good), "{key}");
        }
        assert!(Options::default().set("x", "x", "1").is_err());
    }

    /// Every pass × every option: setting a key the pass reads moves its
    /// memo key, setting one it ignores does not — so no read option can
    /// be left out of the key, and no ignored one can split an answer —
    /// and the flag and body-field spellings of a value are one key.
    #[test]
    fn memo_key_covers_exactly_the_keys_a_pass_reads() {
        for pass in Pass::ALL {
            let base = Options::default().memo_key(pass);
            for ((key, good, _), (_, flag, _)) in ROWS.into_iter().zip(Options::KEYS) {
                let (mut cli, mut body) = (Options::default(), Options::default());
                cli.set(flag, key, good).unwrap();
                body.set(key, key, good).unwrap();
                assert_eq!(cli.memo_key(pass), body.memo_key(pass), "{pass:?} / {key}");
                assert_eq!(
                    body.memo_key(pass) != base,
                    pass.reads().contains(&key),
                    "{pass:?} / {key}"
                );
            }
        }
    }

    #[test]
    fn analyze_json_is_byte_stable() {
        let src = "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:v)\n\
             for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}";
        let hir = accparse::compile(src).unwrap();
        let a = analyze_json(&hir);
        assert_eq!(a, analyze_json(&hir));
        assert!(a.starts_with("{\"schema_version\":1,"), "{a}");
        assert!(a.contains("\"chains\":[[0,1]]"), "{a}");
        let t = analyze_text(&hir);
        assert!(t.contains("fusion plan: 2 region(s)"), "{t}");
    }

    #[test]
    fn fmt_f64_is_json() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-3.25), "-3.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
        // Whatever Rust's shortest rendering is, the result must parse
        // back as the same f64 and contain a decimal point or exponent.
        let big = fmt_f64(1e300);
        assert_eq!(big.parse::<f64>().unwrap(), 1e300);
        assert!(big.contains('.') || big.contains('e'));
    }
}
