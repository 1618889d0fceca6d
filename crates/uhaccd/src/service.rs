//! The daemon: the `uhacc::driver` passes behind HTTP. What stays here
//! is what only a server has — body → `(key, literal)` for the one option
//! decoder, the two caches, the per-pass response envelopes and the
//! status map (400 = the request is malformed, 422 = the program fails).
//! The pass list, the option vocabulary with its defaults and every
//! pass/fail decision are `uhacc::driver`'s (DESIGN.md, "The front
//! door"), and every body that has a single-shot CLI equivalent is
//! rendered by the driver function the CLI prints, so the two surfaces
//! agree byte for byte — `tests/cli_daemon_identity.rs` holds the built
//! binary against a spawned daemon for every pass:
//!
//! | pass (`Pass::route`) | spliced field          | `uhacc-cc <src> ...` stdout            |
//! |----------------------|------------------------|----------------------------------------|
//! | compile              | `text`                 | `[--emit ...] [--verify]`              |
//! | lint                 | `diagnostics`          | `--lint --json` (the envelope's array) |
//! | analyze              | `analysis`             | `--fusion-plan=json`                   |
//! | verify               | `text`                 | `--verify` (header + verify sections)  |
//! | run                  | `results`              | `--run`                                |
//! | profile              | `profile`              | `--profile=json`                       |
//! | certify              | `certification`/`text` | `--certify=json` / `--certify`         |
//!
//! Caching is two-layer and content-addressed on
//! `program_key(source, options)` (stable FNV-1a, see
//! `uhacc_core::stablehash`): analyzed programs and compiled region
//! artifacts, two instances of `accrt::Cache`, the latter shared by every
//! session via `AccRunner::set_region_cache`. A warm request re-parses
//! nothing and re-compiles nothing — the end-to-end tests pin that with
//! the compile counters.

use crate::http::{read_request, write_response, write_response_typed, Request};
use crate::json::{obj, parse, Json};
use crate::pool::{QueueSlip, WorkerPool};
use accparse::hir::AnalyzedProgram;
use accrt::{Cache, RegionCache, RegionKey, RunnerObs};
use std::cell::Cell;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uhacc::driver::{self, Artifacts, Options, Pass};
use uhacc_core::flags::ReportFormat;
use uhacc_core::{program_key, LaunchDims};
use uhobs::metrics::LATENCY_BUCKETS_US;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Device-worker threads (bounded parallelism of sessions).
    pub workers: usize,
    /// Program-cache capacity (analyzed programs).
    pub program_cache_cap: usize,
    /// Region-artifact cache capacity (compiled kernels).
    pub region_cache_cap: usize,
    /// Deterministic virtual observability clock (byte-stable `/metrics`
    /// and trace output; used by goldens and determinism tests).
    pub virtual_clock: bool,
    /// Slow-request log threshold in milliseconds: requests slower than
    /// this emit one structured JSON line on stderr. `None` disables.
    pub slow_ms: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            program_cache_cap: 64,
            region_cache_cap: 256,
            virtual_clock: false,
            slow_ms: None,
        }
    }
}

/// The daemon's observability bundle: one clock, one tracer, one metric
/// registry, shared by the accept loop, the worker pool, every endpoint
/// handler, and (via `accrt::RunnerObs`) the runtime underneath them.
pub struct Obs {
    pub clock: Arc<uhobs::Clock>,
    pub tracer: Arc<uhobs::Tracer>,
    pub registry: Arc<uhobs::Registry>,
    /// Queue-wait histogram, fed by the worker pool at dequeue.
    pub queue_wait: uhobs::Histogram,
    /// Region codegen durations, fed by the runtime hook.
    compile_hist: uhobs::Histogram,
    slow_total: uhobs::Counter,
    slow_threshold_us: Option<u64>,
}

impl Obs {
    fn new(cfg: &DaemonConfig) -> Self {
        let clock = Arc::new(if cfg.virtual_clock {
            uhobs::Clock::virtual_clock(uhobs::clock::VIRTUAL_STEP_US)
        } else {
            uhobs::Clock::monotonic()
        });
        let tracer = Arc::new(uhobs::Tracer::new(Arc::clone(&clock), "uhaccd requests"));
        let registry = Arc::new(uhobs::Registry::new());
        let queue_wait = registry.histogram(
            "uhaccd_queue_wait_us",
            "Time jobs spend queued before a worker dequeues them (us)",
            &[],
            LATENCY_BUCKETS_US,
        );
        let compile_hist = registry.histogram(
            "uhaccd_compile_duration_us",
            "Region codegen time observed by the runtime hook (us)",
            &[],
            LATENCY_BUCKETS_US,
        );
        let slow_total = registry.counter(
            "uhaccd_slow_requests_total",
            "Requests slower than the slow-request threshold",
            &[],
        );
        Obs {
            clock,
            tracer,
            registry,
            queue_wait,
            compile_hist,
            slow_total,
            slow_threshold_us: cfg.slow_ms.map(|ms| ms * 1000),
        }
    }
}

/// Label for the per-endpoint metric series: known paths verbatim,
/// everything else collapsed to `other` to bound series cardinality.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/health" => "/health",
        "/metrics" => "/metrics",
        "/trace" => "/trace",
        _ => Pass::from_route(path).map_or("other", Pass::route),
    }
}

/// Shared daemon state. Cheap to clone via `Arc`; every worker thread
/// handles requests against the same caches.
pub struct Daemon {
    cfg: DaemonConfig,
    /// Analyzed programs by `program_key(source, options)`; the cache's
    /// `compiles` counter is the full front-end parses performed.
    programs: Cache<u64, AnalyzedProgram>,
    /// Shared compiled-artifact cache, injected into every session.
    pub regions: Arc<RegionCache>,
    /// Requests served, by status class.
    served_2xx: AtomicU64,
    served_4xx: AtomicU64,
    served_5xx: AtomicU64,
    /// Observability bundle (clock, tracer, metric registry).
    obs: Obs,
    /// Simulated work accumulated across every `/run`-`/profile`
    /// execution (warp instructions, modelled cycles) — the service-side
    /// mirror of uhprof's per-launch numbers.
    sim_insts: AtomicU64,
    sim_cycles: AtomicU64,
    /// Process start, for `/health` uptime.
    started: std::time::Instant,
    /// The worker pool serving this daemon, attached by [`serve`] so
    /// `/health` and `/metrics` can report queue depth and wait times.
    pool: Mutex<Option<Arc<WorkerPool>>>,
}

impl Daemon {
    pub fn new(cfg: DaemonConfig) -> Arc<Self> {
        let obs = Obs::new(&cfg);
        Arc::new(Daemon {
            programs: Cache::new(cfg.program_cache_cap),
            regions: Arc::new(RegionCache::new(cfg.region_cache_cap)),
            cfg,
            served_2xx: AtomicU64::new(0),
            served_4xx: AtomicU64::new(0),
            served_5xx: AtomicU64::new(0),
            obs,
            sim_insts: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            started: std::time::Instant::now(),
            pool: Mutex::new(None),
        })
    }

    /// The daemon's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attach the worker pool serving this daemon (done by [`serve`]) so
    /// `/health` and `/metrics` can report queue statistics.
    pub fn attach_pool(&self, pool: &Arc<WorkerPool>) {
        *self.pool.lock().unwrap() = Some(Arc::clone(pool));
    }

    /// Content-addressed program lookup: parse on miss, share on hit.
    /// Returns `(program, key, was_hit)`, or the front-end diagnostic
    /// rendered against the source as a 422. Records one `cache.lookup`
    /// span under `trace_id` covering the lookup plus any parse (same
    /// two clock reads on the hit and miss paths, so virtual-clock
    /// sequences stay deterministic).
    fn get_or_parse(
        &self,
        source: &str,
        o: &Options,
        trace_id: u64,
    ) -> Result<(Arc<AnalyzedProgram>, u64, bool), (u16, String)> {
        let key = program_key(source, &o.compiler.base_options());
        let t0 = self.obs.clock.now_us();
        let result = self
            .programs
            .get_or_compile_hit(key, || accparse::compile(source));
        let t1 = self.obs.clock.now_us();
        let hit = matches!(&result, Ok((_, true)));
        self.obs.tracer.record(
            trace_id,
            "cache.lookup",
            t0,
            t1,
            &[("hit", if hit { "true" } else { "false" })],
        );
        match result {
            Ok((prog, hit)) => Ok((prog, key, hit)),
            Err(d) => Err((422, d.render(source))),
        }
    }

    /// Dispatch one request to its handler; returns `(status, body)`.
    /// (Untraced convenience used by tests; the serving path goes
    /// through [`Self::handle_traced`] with a minted trace id.)
    pub fn handle(&self, req: &Request) -> (u16, String) {
        self.handle_traced(req, 0)
    }

    /// Dispatch one request under `trace_id`; returns `(status, body)`.
    pub fn handle_traced(&self, req: &Request, trace_id: u64) -> (u16, String) {
        let (status, body) = self.route(req, trace_id);
        let class = match status {
            200..=299 => &self.served_2xx,
            400..=499 => &self.served_4xx,
            _ => &self.served_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        (status, body)
    }

    /// [`Self::handle_traced`] plus the response content type
    /// (`/metrics` serves Prometheus text, everything else JSON).
    pub fn handle_typed(&self, req: &Request, trace_id: u64) -> (u16, &'static str, String) {
        let (status, body) = self.handle_traced(req, trace_id);
        let content_type = if req.method == "GET" && req.path == "/metrics" && status == 200 {
            "text/plain; version=0.0.4"
        } else {
            "application/json"
        };
        (status, content_type, body)
    }

    fn route(&self, req: &Request, trace_id: u64) -> (u16, String) {
        let not_found = || (404, err_body(&format!("no such endpoint: {}", req.path)));
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => (200, self.health()),
            ("GET", "/metrics") => (200, self.metrics()),
            ("GET", "/trace") => (200, self.obs.tracer.to_chrome_trace()),
            ("POST", path) => match Pass::from_route(path) {
                Some(pass) => match self.post(pass, &req.body, trace_id) {
                    Ok(body) => (200, body.to_string()),
                    Err((status, msg)) => (status, err_body(&msg)),
                },
                None => not_found(),
            },
            ("GET", _) => not_found(),
            _ => (405, err_body(&format!("method {} not allowed", req.method))),
        }
    }

    /// Render the Prometheus text exposition. Mirrored counters (cache
    /// hit/miss, pool queue stats, simulated work, span drops) are
    /// snapshot into the registry here, at scrape time; request/latency
    /// series are recorded live as requests finish.
    fn metrics(&self) -> String {
        let reg = &self.obs.registry;
        let snap_ctr = |name: &str, help: &str, v: u64| {
            reg.counter(name, help, &[]).set(v);
        };
        let pc = self.programs.counters();
        snap_ctr(
            "uhaccd_program_cache_hits_total",
            "Analyzed-program cache hits",
            pc.hits,
        );
        snap_ctr(
            "uhaccd_program_cache_misses_total",
            "Analyzed-program cache misses",
            pc.misses,
        );
        snap_ctr(
            "uhaccd_program_cache_evictions_total",
            "Analyzed-program cache evictions",
            pc.evictions,
        );
        snap_ctr(
            "uhaccd_program_parses_total",
            "Full front-end parses performed",
            pc.compiles,
        );
        let rc = self.regions.counters();
        snap_ctr(
            "uhaccd_region_cache_hits_total",
            "Compiled-region artifact cache hits",
            rc.hits,
        );
        snap_ctr(
            "uhaccd_region_cache_misses_total",
            "Compiled-region artifact cache misses",
            rc.misses,
        );
        snap_ctr(
            "uhaccd_region_cache_evictions_total",
            "Compiled-region artifact cache evictions",
            rc.evictions,
        );
        snap_ctr(
            "uhaccd_region_compiles_total",
            "Region codegen runs actually performed",
            rc.compiles,
        );
        snap_ctr(
            "uhaccd_sim_instructions_total",
            "Simulated warp instructions across all executions",
            self.sim_insts.load(Ordering::Relaxed),
        );
        snap_ctr(
            "uhaccd_sim_cycles_total",
            "Simulated modelled cycles across all executions",
            self.sim_cycles.load(Ordering::Relaxed),
        );
        snap_ctr(
            "uhaccd_trace_spans_dropped_total",
            "Trace spans dropped on buffer overflow",
            self.obs.tracer.dropped(),
        );
        if let Some(pool) = self.pool.lock().unwrap().as_ref() {
            let s = pool.stats();
            let gauge = |name: &str, help: &str, v: u64| {
                reg.gauge(name, help, &[]).set(v);
            };
            gauge(
                "uhaccd_queue_depth",
                "Jobs currently queued",
                s.queued as u64,
            );
            gauge(
                "uhaccd_queue_peak_depth",
                "High-water mark of queue depth",
                s.peak_depth as u64,
            );
            gauge(
                "uhaccd_pool_busy",
                "Jobs currently running on workers",
                s.busy as u64,
            );
            gauge("uhaccd_pool_workers", "Worker threads", s.workers as u64);
        }
        reg.render()
    }

    /// Record one finished request into the metric families and, when it
    /// crossed the slow threshold, emit a structured JSON log line.
    pub fn finish_request(&self, endpoint: &str, status: u16, dur_us: u64, trace_id: u64) {
        let code = status.to_string();
        self.obs
            .registry
            .counter(
                "uhaccd_requests_total",
                "Requests served, by endpoint and status code",
                &[("endpoint", endpoint), ("code", &code)],
            )
            .inc();
        self.obs
            .registry
            .histogram(
                "uhaccd_request_duration_us",
                "End-to-end request latency, submit to response written (us)",
                &[("endpoint", endpoint)],
                LATENCY_BUCKETS_US,
            )
            .observe(dur_us);
        if let Some(threshold) = self.obs.slow_threshold_us {
            if dur_us > threshold {
                self.obs.slow_total.inc();
                eprintln!(
                    "{{\"slow_request\":true,\"endpoint\":\"{}\",\"status\":{status},\
                     \"duration_us\":{dur_us},\"threshold_us\":{threshold},\"trace_id\":{trace_id}}}",
                    uhobs::json_escape(endpoint)
                );
            }
        }
    }

    fn health(&self) -> String {
        let pc = self.programs.counters();
        let rc = self.regions.counters();
        let pool = self.pool.lock().unwrap().as_ref().map(|p| p.stats());
        let pool_json = match pool {
            Some(s) => obj(vec![
                ("workers", Json::Num(s.workers as f64)),
                ("executed", Json::Num(s.executed as f64)),
                ("busy", Json::Num(s.busy as f64)),
                ("queued", Json::Num(s.queued as f64)),
                ("peak_depth", Json::Num(s.peak_depth as f64)),
                ("wait_count", Json::Num(s.wait_count as f64)),
                ("wait_mean_us", Json::Num(s.wait_mean_us() as f64)),
                ("wait_max_us", Json::Num(s.wait_max_us as f64)),
            ]),
            None => Json::Null,
        };
        obj(vec![
            ("status", Json::Str("ok".into())),
            ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
            (
                "uptime_secs",
                Json::Num(self.started.elapsed().as_secs() as f64),
            ),
            ("workers", Json::Num(self.cfg.workers as f64)),
            (
                "config",
                obj(vec![
                    ("workers", Json::Num(self.cfg.workers as f64)),
                    (
                        "program_cache_cap",
                        Json::Num(self.cfg.program_cache_cap as f64),
                    ),
                    (
                        "region_cache_cap",
                        Json::Num(self.cfg.region_cache_cap as f64),
                    ),
                    ("exec_tier", Json::Str(gpsim::ExecTier::Auto.to_string())),
                    (
                        "host_threads",
                        Json::Num(
                            uhacc_core::flags::host_threads_from_env()
                                .ok()
                                .flatten()
                                .unwrap_or(0) as f64,
                        ),
                    ),
                    ("virtual_clock", Json::Bool(self.cfg.virtual_clock)),
                    (
                        "slow_ms",
                        match self.cfg.slow_ms {
                            Some(ms) => Json::Num(ms as f64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("pool", pool_json),
            (
                "programs",
                obj(vec![
                    ("hits", Json::Num(pc.hits as f64)),
                    ("misses", Json::Num(pc.misses as f64)),
                    ("evictions", Json::Num(pc.evictions as f64)),
                    ("parses", Json::Num(pc.compiles as f64)),
                    ("entries", Json::Num(pc.entries as f64)),
                ]),
            ),
            (
                "regions",
                obj(vec![
                    ("hits", Json::Num(rc.hits as f64)),
                    ("misses", Json::Num(rc.misses as f64)),
                    ("evictions", Json::Num(rc.evictions as f64)),
                    ("compiles", Json::Num(rc.compiles as f64)),
                    ("entries", Json::Num(rc.entries as f64)),
                ]),
            ),
            (
                "served",
                obj(vec![
                    (
                        "ok",
                        Json::Num(self.served_2xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "client_error",
                        Json::Num(self.served_4xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "server_error",
                        Json::Num(self.served_5xx.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
        .to_string()
    }

    /// One POST: decode the body into the options `pass` reads, run the
    /// pass through `uhacc::driver`, and wrap its rendered output in the
    /// pass's envelope. Spliced fields (`Json::Raw`) are byte-identical
    /// to the CLI's stdout for the same source and options.
    fn post(&self, pass: Pass, body: &[u8], trace_id: u64) -> Result<Json, (u16, String)> {
        let bad = |msg: String| (400, msg);
        let text =
            std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8".into()))?;
        let v = parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing required string field `source`".into()))?;
        // Only the keys this pass reads are decoded: an absent or `null`
        // field keeps its default, a field the pass ignores is not
        // validated, and `source` never goes through the literal copy.
        let mut o = Options::default();
        for key in pass.reads() {
            match v.get(key) {
                None | Some(Json::Null) => {}
                Some(x) => o.set(key, key, &x.literal()).map_err(bad)?,
            }
        }
        match pass {
            Pass::Lint => {
                use accparse::diag::{diags_to_json, LINT_SCHEMA_VERSION};
                let lint = driver::lint(source, o.werror);
                Ok(obj(vec![
                    ("ok", Json::Bool(!lint.failed)),
                    ("schema_version", Json::Num(LINT_SCHEMA_VERSION as f64)),
                    ("diagnostics", Json::Raw(diags_to_json(&lint.diags, source))),
                ]))
            }
            Pass::Analyze => {
                let (prog, _, program_hit) = self.get_or_parse(source, &o, trace_id)?;
                Ok(obj(vec![
                    ("ok", Json::Bool(true)),
                    ("analysis", Json::Raw(driver::analyze_json(&prog))),
                    ("cache", obj(vec![("program_hit", Json::Bool(program_hit))])),
                ]))
            }
            Pass::Compile | Pass::Verify => self.compile(pass, source, &o, trace_id),
            Pass::Run | Pass::Profile => self.execute(pass, source, &o, trace_id),
            Pass::Certify => {
                let req = o.request(pass);
                let key = program_key(source, &req.opts);
                let reports = driver::certify_reports(source, &req, |r| {
                    r.set_source(source);
                    r.set_region_cache(Arc::clone(&self.regions), key);
                })
                .map_err(|e| (422, driver::failure_text(&e, source)))?;
                let report = match o.format.unwrap_or(ReportFormat::Json) {
                    ReportFormat::Json => (
                        "certification",
                        Json::Raw(driver::cert_reports_json(&reports)),
                    ),
                    ReportFormat::Text => ("text", Json::Str(driver::cert_reports_text(&reports))),
                };
                Ok(obj(vec![
                    ("ok", Json::Bool(!driver::refuted(&reports))),
                    report,
                ]))
            }
        }
    }

    /// `/compile` and `/verify`: cached parse, then `driver::compile_pass`
    /// over a region compiler that consults the shared artifact cache
    /// and counts this request's hits and compiles (the global counters
    /// are shared across concurrent requests and can't be diffed safely).
    fn compile(
        &self,
        pass: Pass,
        source: &str,
        o: &Options,
        trace_id: u64,
    ) -> Result<Json, (u16, String)> {
        let (prog, key, program_hit) = self.get_or_parse(source, o, trace_id)?;
        let opts = o.compiler.base_options();
        let (region_hits, region_compiles) = (Cell::new(0u64), Cell::new(0u64));
        let compile = |region: usize, dims: LaunchDims| {
            let (artifact, hit) = self.regions.get_or_compile_hit(
                RegionKey {
                    program: key,
                    region,
                    dims,
                },
                || uhacc_core::compile_region(&prog, region, dims, &opts),
            )?;
            let counter = if hit { &region_hits } else { &region_compiles };
            counter.set(counter.get() + 1);
            Ok(artifact)
        };
        let out =
            driver::compile_pass(pass, o, source, &prog, &compile).map_err(|msg| (422, msg))?;
        let verify_errors = ("verify_errors", Json::Num(out.verify_errors as f64));
        Ok(match pass {
            Pass::Verify => obj(vec![
                ("ok", Json::Bool(out.ok())),
                verify_errors,
                ("text", Json::Str(out.text)),
            ]),
            _ => obj(vec![
                ("text", Json::Str(out.text)),
                verify_errors,
                ("regions", Json::Num(out.regions.len() as f64)),
                (
                    "cache",
                    obj(vec![
                        ("program_hit", Json::Bool(program_hit)),
                        ("region_hits", Json::Num(region_hits.get() as f64)),
                        ("region_compiles", Json::Num(region_compiles.get() as f64)),
                    ]),
                ),
            ]),
        })
    }

    /// `/run` and `/profile`: cached parse, `driver::session` over the
    /// shared artifacts on this worker — traced end to end (per-region
    /// phase spans via the runtime hook, device timeline spliced into
    /// the unified trace for `/profile`).
    fn execute(
        &self,
        pass: Pass,
        source: &str,
        o: &Options,
        trace_id: u64,
    ) -> Result<Json, (u16, String)> {
        let (program, key, program_hit) = self.get_or_parse(source, o, trace_id)?;
        let profile = pass == Pass::Profile;
        let r = driver::session(
            source,
            &o.request(pass),
            profile,
            Artifacts::Cached {
                program,
                regions: Arc::clone(&self.regions),
                key,
            },
            Some(RunnerObs {
                tracer: Arc::clone(&self.obs.tracer),
                trace_id,
                compile_hist: Some(self.obs.compile_hist.clone()),
            }),
        )
        .map_err(|e| (422, driver::failure_text(&e, source)))?;
        let s = r.device().stats();
        self.sim_insts
            .fetch_add(s.totals.warp_insts, Ordering::Relaxed);
        self.sim_cycles
            .fetch_add(s.total_cycles(), Ordering::Relaxed);
        let report = if profile {
            ("profile", Json::Raw(r.profile_json()))
        } else {
            ("results", Json::Raw(driver::results_json(&r)))
        };
        let cache = obj(vec![
            ("program_hit", Json::Bool(program_hit)),
            ("session_compiles", Json::Num(r.compiles() as f64)),
        ]);
        Ok(obj(vec![report, ("cache", cache)]))
    }
}

fn err_body(msg: &str) -> String {
    obj(vec![("error", Json::Str(msg.into()))]).to_string()
}

/// Accept loop: every connection becomes one FIFO job on the shared
/// worker pool. Blocks forever (until the listener errors).
pub fn serve(daemon: Arc<Daemon>, listener: TcpListener, pool: Arc<WorkerPool>) {
    daemon.attach_pool(&pool);
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let daemon = Arc::clone(&daemon);
        pool.submit_timed(move |slip| handle_connection(&daemon, &mut stream, slip));
    }
}

/// One connection, end to end: parse, dispatch, respond — with the full
/// request-lifecycle spans (`queue.wait` from the pool slip,
/// `http.parse`, handler-internal spans, `render`, and the enclosing
/// `request`) recorded under a freshly minted trace id, and the
/// per-endpoint counters/latency histograms updated at the end.
fn handle_connection(daemon: &Daemon, stream: &mut TcpStream, slip: QueueSlip) {
    let obs = daemon.obs();
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(120)));
    let t_parse0 = obs.clock.now_us();
    match read_request(stream) {
        Ok(Some(req)) => {
            let t_parse1 = obs.clock.now_us();
            let endpoint = endpoint_label(&req.path);
            let trace_id = obs.tracer.mint_trace_id();
            obs.tracer
                .set_track_name(trace_id, &format!("req {trace_id} {}", req.path));
            obs.tracer
                .record(trace_id, "queue.wait", slip.submit_us, slip.dequeue_us, &[]);
            obs.tracer
                .record(trace_id, "http.parse", t_parse0, t_parse1, &[]);
            let (status, content_type, body) = daemon.handle_typed(&req, trace_id);
            let t_render0 = obs.clock.now_us();
            let _ = write_response_typed(stream, status, content_type, body.as_bytes());
            let t_end = obs.clock.now_us();
            let status_s = status.to_string();
            obs.tracer.record(trace_id, "render", t_render0, t_end, &[]);
            obs.tracer.record(
                trace_id,
                "request",
                slip.submit_us,
                t_end,
                &[("endpoint", endpoint), ("status", &status_s)],
            );
            daemon.finish_request(
                endpoint,
                status,
                t_end.saturating_sub(slip.submit_us),
                trace_id,
            );
        }
        Ok(None) => {}
        Err(e) => {
            // Protocol-level rejection: answer with the status the error
            // carries (431 oversized headers, 413 oversized body, 400
            // malformed framing) in the standard diagnostic shape.
            let _ = write_response(stream, e.status, err_body(&e.msg).as_bytes());
            let t_end = obs.clock.now_us();
            daemon.finish_request(
                "malformed",
                e.status,
                t_end.saturating_sub(slip.submit_us),
                0,
            );
        }
    }
}

/// Bind `addr`, spawn the accept loop on a background thread, and return
/// the bound address (useful with port 0) plus the daemon handle.
/// Used by the end-to-end tests, `uhbench daemon_mix`, and CI.
pub fn spawn(cfg: DaemonConfig, addr: &str) -> std::io::Result<(SocketAddr, Arc<Daemon>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let daemon = Daemon::new(cfg.clone());
    // The pool stamps queue times on the daemon's clock and feeds the
    // queue-wait histogram directly.
    let pool = Arc::new(WorkerPool::with_obs(
        cfg.workers,
        Arc::clone(&daemon.obs().clock),
        Some(daemon.obs().queue_wait.clone()),
    ));
    let d = Arc::clone(&daemon);
    // Thread spawn can fail (e.g. under resource limits); surface it as
    // an io::Error like bind failures, so callers render a diagnostic
    // instead of the process aborting on a panic.
    std::thread::Builder::new()
        .name("uhaccd-accept".into())
        .spawn(move || serve(d, listener, pool))?;
    Ok((local, daemon))
}
