//! The daemon: the `uhacc::driver` passes behind HTTP. What stays here
//! is what only a server has — body → `(key, literal)` for the one option
//! decoder, the caches, the per-pass response envelopes and the
//! status map (400 = the request is malformed, 422 = the program fails).
//! The pass list, the option vocabulary with its defaults and every
//! pass/fail decision are `uhacc::driver`'s (DESIGN.md, "The front
//! door"), and every body that has a single-shot CLI equivalent is
//! rendered by the driver function the CLI prints, so the two surfaces
//! agree byte for byte — `tests/cli_daemon_identity.rs` holds the built
//! binary against a spawned daemon for every pass:
//!
//! | pass (`Pass::route`) | spliced field          | `uhacc-cc <src> ...` stdout            | remembered answer                    |
//! |----------------------|------------------------|----------------------------------------|--------------------------------------|
//! | compile              | `text`                 | `[--emit ...] [--verify]`              | `text`, `verify_errors`, `regions`   |
//! | lint                 | `diagnostics`          | `--lint --json` (the envelope's array) | none (must answer unparsable source) |
//! | analyze              | `analysis`             | `--fusion-plan=json`                   | `ok`, `analysis`                     |
//! | verify               | `text`                 | `--verify` (header + verify sections)  | `ok`, `verify_errors`, `text`        |
//! | run                  | `results`              | `--run`                                | `results`                            |
//! | profile              | `profile`              | `--profile=json`                       | `profile`                            |
//! | certify              | `certification`/`text` | `--certify=json` / `--certify`         | `ok`, `certification`/`text`         |
//!
//! Caching is three-layer and content-addressed on
//! `program_key(source, options)` (stable FNV-1a, see
//! `uhacc_core::stablehash`), every layer an `accrt::Cache`: analyzed
//! programs; compiled region artifacts, shared by every session via
//! `AccRunner::set_region_cache`; and, inside each program's entry, the
//! answers already given for it, keyed by `(pass, Options::memo_key)`.
//! Every body is a pure function of the source and the options its pass
//! reads, so a repeated request is answered from the entry — no parse,
//! codegen, checker or simulation — and its reply differs from the first
//! only in the `cache` object, which is rebuilt for every reply. A warm
//! program re-parses nothing and a warm region re-compiles nothing — the
//! end-to-end tests pin all three layers with their counters.

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
use uhobs::{Counter, Registry};

/// Answers a program keeps, least recently used evicted first: a hot
/// program is asked a handful of distinct questions (each pass under the
/// options it reads), and every answer dies with its program's entry.
pub const ANSWERS_PER_PROGRAM: usize = 8;

/// A reply's fields except `cache`, as a pass rendered them.
type Fields = Vec<(&'static str, Json)>;

/// [`Fields`] serialized once: the reply object's text without its
/// closing brace. Every reply appends its own `cache` object to these
/// bytes, so a remembered answer is neither copied field by field nor
/// rendered again.
type Answer = String;

fn answer_text(fields: Fields) -> Answer {
    let mut text = obj(fields).to_string();
    text.pop(); // the closing `}`
    text
}

/// One program-cache entry: the analyzed program and the answers already
/// given for it, keyed by `(pass, Options::memo_key(pass))`.
struct Program {
    hir: Arc<AnalyzedProgram>,
    answers: Cache<(Pass, u64), Answer>,
}

/// What one request found in the caches.
struct Found {
    program: Arc<Program>,
    program_hit: bool,
    answer: Option<Arc<Answer>>,
}

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
    slow_total: Counter,
    slow_threshold_us: Option<u64>,
    /// Answer lookups, by outcome.
    result_hits: Counter,
    result_misses: Counter,
    sim: SimTotals,
}

/// What the executed `/run` and `/profile` sessions simulated, summed —
/// the service-side mirror of the device's per-session numbers. A
/// remembered answer executes nothing and adds nothing.
struct SimTotals {
    insts: Counter,
    cycles: Counter,
    tier_declines: Counter,
    once_per_warp: Counter,
    per_lane: Counter,
}

impl SimTotals {
    fn new(reg: &Registry) -> Self {
        let steps = |shape: &str| {
            reg.counter(
                "uhaccd_sim_shape_steps_total",
                "Typed-tier warp steps, by whether operand shapes decided them once per warp",
                &[("shape", shape)],
            )
        };
        SimTotals {
            insts: reg.counter(
                "uhaccd_sim_instructions_total",
                "Simulated warp instructions across all executions",
                &[],
            ),
            cycles: reg.counter(
                "uhaccd_sim_cycles_total",
                "Simulated modelled cycles across all executions",
                &[],
            ),
            tier_declines: reg.counter(
                "uhaccd_sim_tier_declines_total",
                "Launches the typed tier declined (run on the interpreter) across all executions",
                &[],
            ),
            once_per_warp: steps("once_per_warp"),
            per_lane: steps("per_lane"),
        }
    }

    fn add(&self, device: &gpsim::Device) {
        let s = device.stats();
        self.insts.add(s.totals.warp_insts);
        self.cycles.add(s.total_cycles());
        self.tier_declines.add(device.tier_declines());
        let census = device.shape_census();
        self.once_per_warp.add(census.once_per_warp);
        self.per_lane.add(census.per_lane);
    }
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
        let result_hits = registry.counter(
            "uhaccd_result_cache_hits_total",
            "Requests answered from their program's remembered answers",
            &[],
        );
        let result_misses = registry.counter(
            "uhaccd_result_cache_misses_total",
            "Requests whose answer was computed (and remembered when it succeeded)",
            &[],
        );
        Obs {
            sim: SimTotals::new(&registry),
            clock,
            tracer,
            registry,
            queue_wait,
            compile_hist,
            slow_total,
            slow_threshold_us: cfg.slow_ms.map(|ms| ms * 1000),
            result_hits,
            result_misses,
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
    /// Analyzed programs, with their remembered answers, by
    /// `program_key(source, options)`; the cache's `compiles` counter is
    /// the full front-end parses performed.
    programs: Cache<u64, Program>,
    /// Shared compiled-artifact cache, injected into every session.
    pub regions: Arc<RegionCache>,
    /// Requests served, by status class.
    served_2xx: AtomicU64,
    served_4xx: AtomicU64,
    served_5xx: AtomicU64,
    /// Observability bundle (clock, tracer, metric registry).
    obs: Obs,
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

    /// Content-addressed lookup, parse on miss: `source`'s program under
    /// its content `key`, then the answer remembered under `memo` in it —
    /// or the front-end diagnostic rendered against the source as a 422.
    /// Records one `cache.lookup` span under `trace_id` covering both
    /// lookups plus any parse (same two clock reads on every path, so
    /// virtual-clock sequences stay deterministic).
    fn lookup(
        &self,
        source: &str,
        key: u64,
        memo: (Pass, u64),
        trace_id: u64,
    ) -> Result<Found, (u16, String)> {
        let t0 = self.obs.clock.now_us();
        let result = self.programs.get_or_compile_hit(key, || {
            accparse::compile(source).map(|hir| Program {
                hir: Arc::new(hir),
                answers: Cache::new(ANSWERS_PER_PROGRAM),
            })
        });
        let answer = result
            .as_ref()
            .ok()
            .and_then(|(p, _)| p.answers.lookup(memo));
        let t1 = self.obs.clock.now_us();
        let flag = |b: bool| if b { "true" } else { "false" };
        let hit = matches!(&result, Ok((_, true)));
        self.obs.tracer.record(
            trace_id,
            "cache.lookup",
            t0,
            t1,
            &[("hit", flag(hit)), ("result_hit", flag(answer.is_some()))],
        );
        match result {
            Ok((program, program_hit)) => Ok(Found {
                program,
                program_hit,
                answer,
            }),
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
                    Ok(body) => (200, body),
                    Err((status, msg)) => (status, err_body(&msg)),
                },
                None => not_found(),
            },
            ("GET", _) => not_found(),
            _ => (405, err_body(&format!("method {} not allowed", req.method))),
        }
    }

    /// Render the Prometheus text exposition. Mirrored counters (program
    /// and region cache hit/miss, pool queue stats, span drops) are
    /// snapshot into the registry here, at scrape time; request/latency
    /// series, answer lookups and simulated work are recorded live.
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
                "results",
                obj(vec![
                    ("hits", Json::Num(self.obs.result_hits.get() as f64)),
                    ("misses", Json::Num(self.obs.result_misses.get() as f64)),
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

    /// One POST: decode the body into the options `pass` reads, look up
    /// the program and the answer remembered for them, run the pass
    /// through `uhacc::driver` only when there is none, and close the
    /// reply with its `cache` object. Spliced fields (`Json::Raw`) are
    /// byte-identical to the CLI's stdout for the same source and options,
    /// remembered or not; only successful answers are remembered.
    fn post(&self, pass: Pass, body: &[u8], trace_id: u64) -> Result<String, (u16, String)> {
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
        if pass == Pass::Lint {
            use accparse::diag::{diags_to_json, LINT_SCHEMA_VERSION};
            let lint = driver::lint(source, o.werror);
            return Ok(obj(vec![
                ("ok", Json::Bool(!lint.failed)),
                ("schema_version", Json::Num(LINT_SCHEMA_VERSION as f64)),
                ("diagnostics", Json::Raw(diags_to_json(&lint.diags, source))),
            ])
            .to_string());
        }
        let key = program_key(source, &o.compiler.base_options());
        let memo = (pass, o.memo_key(pass));
        let found = self.lookup(source, key, memo, trace_id)?;
        let result_hit = found.answer.is_some();
        let (answer, work) = match found.answer {
            Some(answer) => {
                self.obs.result_hits.inc();
                (answer, Work::default())
            }
            None => {
                self.obs.result_misses.inc();
                let hir = &found.program.hir;
                let (fields, work) = self.answer(pass, source, &o, hir, key, trace_id)?;
                let answer = Arc::new(answer_text(fields));
                (found.program.answers.insert(memo, answer), work)
            }
        };
        let cache = work.cache_json(pass, found.program_hit, result_hit);
        Ok(format!("{answer},\"cache\":{cache}}}"))
    }

    /// Run `pass` over the analyzed program `hir` (content key `key`):
    /// its answer, and the compile work it took.
    fn answer(
        &self,
        pass: Pass,
        source: &str,
        o: &Options,
        hir: &Arc<AnalyzedProgram>,
        key: u64,
        trace_id: u64,
    ) -> Result<(Fields, Work), (u16, String)> {
        let artifacts = || Artifacts::Cached {
            program: Arc::clone(hir),
            regions: Arc::clone(&self.regions),
            key,
        };
        let failed = |e: accrt::AccError| (422, driver::failure_text(&e, source));
        match pass {
            Pass::Analyze => Ok((
                vec![
                    ("ok", Json::Bool(true)),
                    ("analysis", Json::Raw(driver::analyze_json(hir))),
                ],
                Work::default(),
            )),
            Pass::Compile | Pass::Verify => self.compile(pass, source, o, hir, key),
            Pass::Run | Pass::Profile => {
                let profile = pass == Pass::Profile;
                let obs = RunnerObs {
                    tracer: Arc::clone(&self.obs.tracer),
                    trace_id,
                    compile_hist: Some(self.obs.compile_hist.clone()),
                };
                let r = driver::session(source, &o.request(pass), profile, artifacts(), Some(obs))
                    .map_err(failed)?;
                self.obs.sim.add(r.device());
                let report = if profile {
                    ("profile", Json::Raw(r.profile_json()))
                } else {
                    ("results", Json::Raw(driver::results_json(&r)))
                };
                let work = Work {
                    session_compiles: r.compiles(),
                    ..Work::default()
                };
                Ok((vec![report], work))
            }
            Pass::Certify => {
                let reports = driver::certify(source, &o.request(pass), artifacts(), |_| {})
                    .map_err(failed)?;
                let report = match o.format.unwrap_or(ReportFormat::Json) {
                    ReportFormat::Json => (
                        "certification",
                        Json::Raw(driver::cert_reports_json(&reports)),
                    ),
                    ReportFormat::Text => ("text", Json::Str(driver::cert_reports_text(&reports))),
                };
                let ok = ("ok", Json::Bool(!driver::refuted(&reports)));
                Ok((vec![ok, report], Work::default()))
            }
            Pass::Lint => unreachable!("`/lint` is answered before any program lookup"),
        }
    }

    /// `/compile` and `/verify`: `driver::compile_pass` over a region
    /// compiler that consults the shared artifact cache and counts this
    /// request's hits and compiles (the global counters are shared across
    /// concurrent requests and can't be diffed safely).
    fn compile(
        &self,
        pass: Pass,
        source: &str,
        o: &Options,
        hir: &AnalyzedProgram,
        key: u64,
    ) -> Result<(Fields, Work), (u16, String)> {
        let opts = o.compiler.base_options();
        let (region_hits, region_compiles) = (Cell::new(0u64), Cell::new(0u64));
        let compile = |region: usize, dims: LaunchDims| {
            let (artifact, hit) = self.regions.get_or_compile_hit(
                RegionKey {
                    program: key,
                    region,
                    dims,
                },
                || uhacc_core::compile_region(hir, region, dims, &opts),
            )?;
            let counter = if hit { &region_hits } else { &region_compiles };
            counter.set(counter.get() + 1);
            Ok(artifact)
        };
        let out = driver::compile_pass(pass, o, source, hir, &compile).map_err(|msg| (422, msg))?;
        let verify_errors = ("verify_errors", Json::Num(out.verify_errors as f64));
        let answer = match pass {
            Pass::Verify => vec![
                ("ok", Json::Bool(out.ok())),
                verify_errors,
                ("text", Json::Str(out.text)),
            ],
            _ => vec![
                ("text", Json::Str(out.text)),
                verify_errors,
                ("regions", Json::Num(out.regions.len() as f64)),
            ],
        };
        let work = Work {
            region_hits: region_hits.get(),
            region_compiles: region_compiles.get(),
            ..Work::default()
        };
        Ok((answer, work))
    }
}

/// The compile work behind one reply; a remembered answer took none.
#[derive(Default)]
struct Work {
    region_hits: u64,
    region_compiles: u64,
    session_compiles: u64,
}

impl Work {
    /// The reply's `cache` object: which layers hit, and the counters of
    /// the work `pass` does (regions for compile/verify, the session's
    /// own compiles for run/profile).
    fn cache_json(&self, pass: Pass, program_hit: bool, result_hit: bool) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let mut fields = vec![("program_hit", Json::Bool(program_hit))];
        match pass {
            Pass::Compile | Pass::Verify => {
                fields.push(("region_hits", num(self.region_hits)));
                fields.push(("region_compiles", num(self.region_compiles)));
            }
            Pass::Run | Pass::Profile => {
                fields.push(("session_compiles", num(self.session_compiles)))
            }
            Pass::Lint | Pass::Analyze | Pass::Certify => {}
        }
        fields.push(("result_hit", Json::Bool(result_hit)));
        obj(fields)
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
