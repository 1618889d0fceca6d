//! `daemon_mix` — the only workload through HTTP, JSON, the caches, the
//! worker pool and the renderers: a closed loop of 2 client threads (each
//! waits for its reply; one connection per request, the daemon has no
//! keep-alive) against an in-process `uhaccd::spawn` with 2 workers and
//! default cache caps, over loopback.
//!
//! A pass is a fixed multiset of 80 requests in a seed-shuffled order —
//! 60 % light (`/lint`, `/analyze`, `/compile` with verify, `/verify`)
//! and 40 % heavy (`/run`, `/profile`, `/certify`). Half of the requests
//! reuse one of 8 hot `(source, compiler)` pairs; half are novel: a
//! unique trailing comment changes `program_key`, so they parse and
//! compile cold, and over a run the novel stream overflows the 64-entry
//! program LRU. Because most requests are light, `op_ms_p50` tracks the
//! `uhaccd` layers and the front end, `op_ms_p95` and `ops_per_s` track
//! simulation and contention behind it.

use super::timed;
use crate::harness::{bump, OpSample, PassOut, Workload};
use crate::json::{self, quote, Json};
use crate::metrics::Metrics;
use crate::rng::{fnv1a, Rng};
use crate::span::{Recorder, Span};
use crate::stats::median;
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uhacc::driver::{self, RunRequest};
use uhacc::rt::AccRunner;
use uhacc::sim::Device;
use uhaccd::http::Request;
use uhaccd::{Daemon, DaemonConfig};

/// Closed-loop callers — and daemon workers: the box has 2 cores.
const CLIENTS: usize = 2;

/// The deterministic input the daemon binds to every array: element `i`
/// is `(7i + 3) mod 101 − 50`, divided by 101 in floating-point arrays
/// (documented at `AccRunner::bind_deterministic_inputs`).
fn pattern(i: u64) -> i64 {
    ((7 * i + 3) % 101) as i64 - 50
}

/// `Σ pattern(i)` over `0..n`, in closed form: 7 is coprime to 101, so
/// every 101 consecutive elements are a permutation of `−50..=50` and sum
/// to zero; only the `n mod 101` elements of the last, partial period
/// count, and the pattern restarts with each period.
fn pattern_sum(n: u64) -> i64 {
    (0..n % 101).map(pattern).sum()
}

/// A scalar a `/run` reply must carry, as a function of `n`.
struct Want {
    scalar: &'static str,
    int: bool,
    value: fn(u64) -> f64,
}

struct Program {
    name: &'static str,
    src: &'static str,
    compiler: &'static str,
    regions: usize,
    want: &'static [Want],
}

fn elems(n: u64) -> impl Iterator<Item = f64> {
    (0..n).map(|i| pattern(i) as f64)
}

fn felems(n: u64) -> impl Iterator<Item = f64> {
    elems(n).map(|k| k / 101.0)
}

/// The 8 hot `(source, compiler)` pairs: one-dimensional reductions, so
/// `/run`'s "every integer scalar = n" binding gives arrays of n.
const PROGRAMS: [Program; 8] = [
    Program {
        name: "sum_int",
        src: "int N; int s;\nint a[N];\ns = 0;\n#pragma acc parallel loop gang vector \
              reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n",
        compiler: "openuh",
        regions: 1,
        want: &[Want {
            scalar: "s",
            int: true,
            value: |n| pattern_sum(n) as f64,
        }],
    },
    Program {
        name: "sum_double_gwv",
        src: "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel loop gang worker \
              vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n",
        compiler: "openuh",
        regions: 1,
        want: &[Want {
            scalar: "s",
            int: false,
            value: |n| felems(n).sum(),
        }],
    },
    Program {
        name: "minmax_int",
        src: "int N; int lo; int hi;\nint a[N];\nlo = 2147483647;\nhi = -2147483648;\n\
              #pragma acc parallel loop gang vector reduction(min:lo) reduction(max:hi) \
              copyin(a)\nfor (int i = 0; i < N; i++) { lo = min(lo, a[i]); hi = max(hi, a[i]); }\n",
        compiler: "openuh",
        regions: 1,
        want: &[
            Want {
                scalar: "lo",
                int: true,
                value: |n| elems(n).fold(f64::INFINITY, f64::min),
            },
            Want {
                scalar: "hi",
                int: true,
                value: |n| elems(n).fold(f64::NEG_INFINITY, f64::max),
            },
        ],
    },
    Program {
        name: "dot_double",
        src: "int N; double s;\ndouble a[N];\ndouble b[N];\ns = 0.0;\n#pragma acc parallel loop \
              gang vector reduction(+:s) copyin(a, b)\nfor (int i = 0; i < N; i++) { s += a[i] \
              * b[i]; }\n",
        compiler: "openuh",
        regions: 1,
        want: &[Want {
            scalar: "s",
            int: false,
            value: |n| felems(n).map(|x| x * x).sum(),
        }],
    },
    Program {
        name: "max_double_pgi",
        src: "int N; double m;\ndouble a[N];\nm = -1.0e30;\n#pragma acc parallel loop gang \
              vector reduction(max:m) copyin(a)\nfor (int i = 0; i < N; i++) { m = fmax(m, \
              a[i]); }\n",
        compiler: "pgi",
        regions: 1,
        want: &[Want {
            scalar: "m",
            int: false,
            value: |n| felems(n).fold(-1.0e30, f64::max),
        }],
    },
    Program {
        name: "sum_then_squares_int",
        src: "int N; int s; int q;\nint a[N];\ns = 0;\nq = 0;\n#pragma acc parallel loop gang \
              vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n\
              #pragma acc parallel loop gang vector reduction(+:q) copyin(a)\nfor (int i = 0; i \
              < N; i++) { q += a[i] * a[i]; }\n",
        compiler: "openuh",
        regions: 2,
        want: &[
            Want {
                scalar: "s",
                int: true,
                value: |n| pattern_sum(n) as f64,
            },
            Want {
                scalar: "q",
                int: true,
                value: |n| elems(n).map(|k| k * k).sum(),
            },
        ],
    },
    Program {
        name: "sum_int_caps",
        src: "int N; int total;\nint v[N];\ntotal = 0;\n#pragma acc parallel loop gang worker \
              vector reduction(+:total) copyin(v)\nfor (int i = 0; i < N; i++) { total += v[i]; \
              }\n",
        compiler: "caps",
        regions: 1,
        want: &[Want {
            scalar: "total",
            int: true,
            value: |n| pattern_sum(n) as f64,
        }],
    },
    Program {
        name: "sum_squares_double",
        src: "int N; double q;\ndouble a[N];\nq = 0.0;\n#pragma acc parallel loop gang vector \
              reduction(+:q) copyin(a)\nfor (int i = 0; i < N; i++) { q += a[i] * a[i]; }\n",
        compiler: "openuh",
        regions: 1,
        want: &[Want {
            scalar: "q",
            int: false,
            value: |n| felems(n).map(|x| x * x).sum(),
        }],
    },
];

/// `(path, span name of the round trip, requests per pass)`; half of each
/// endpoint's requests are hot, half novel. The span name is the stem of
/// the endpoint's `uhaccd.<ep>_ms_p50`.
const MIX: [(&str, &str, usize); 7] = [
    ("/lint", "uhaccd.lint", 16),
    ("/analyze", "uhaccd.analyze", 8),
    ("/compile", "uhaccd.compile", 16),
    ("/verify", "uhaccd.verify", 8),
    ("/run", "uhaccd.run", 20),
    ("/profile", "uhaccd.profile", 4),
    ("/certify", "uhaccd.certify", 8),
];

#[derive(Debug, Clone)]
struct Spec {
    path: &'static str,
    span: &'static str,
    program: usize,
    n: u64,
    novel: bool,
}

impl Spec {
    fn name(&self) -> String {
        format!(
            "{} {} n={}{}",
            self.path,
            PROGRAMS[self.program].name,
            self.n,
            if self.novel { " novel" } else { "" }
        )
    }

    /// Requests with one key must carry one payload, novel or not: the
    /// trailing comment changes the cache key and nothing else.
    fn key(&self) -> (&'static str, usize, u64) {
        (self.path, self.program, self.n)
    }

    fn body(&self, tag: &str) -> String {
        let p = &PROGRAMS[self.program];
        let src = if self.novel {
            format!("{}// novel {tag}\n", p.src)
        } else {
            p.src.to_string()
        };
        let mut body = format!(
            "{{\"source\":{},\"compiler\":\"{}\"",
            quote(&src),
            p.compiler
        );
        match self.path {
            "/compile" => body.push_str(",\"verify\":true"),
            "/run" | "/profile" => {
                body.push_str(&format!(",\"n\":{},\"host_threads\":1", self.n));
            }
            "/certify" => body.push_str(",\"host_threads\":1"),
            _ => {}
        }
        body.push('}');
        body
    }
}

/// The fixed multiset of one pass, before shuffling.
fn specs() -> Vec<Spec> {
    let mut out = Vec::new();
    let mut next = 0;
    for (path, span, count) in MIX {
        for k in 0..count {
            let program = next % PROGRAMS.len();
            next += 1;
            // `/run` alternates its two problem sizes per program, so a
            // hot `(source, n)` recurs identically pass after pass.
            let n = match path {
                "/run" if (program + k / PROGRAMS.len()) % 2 == 1 => 65536,
                "/run" | "/profile" => 4096,
                _ => 0,
            };
            out.push(Spec {
                path,
                span,
                program,
                n,
                novel: k % 2 == 1,
            });
        }
    }
    out
}

/// One request over its own connection; `(status, body)`.
fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    let method = if body.is_empty() { "GET" } else { "POST" };
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: uhbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(io)?;
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).map_err(io)?;
    let reply = String::from_utf8(reply).map_err(|_| "reply is not UTF-8")?;
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .ok_or("reply has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status")?;
    Ok((status, body.to_string()))
}

struct Reply {
    spec: usize,
    ns: u64,
    got: Result<(u16, String), String>,
}

pub struct DaemonMix {
    seed: u64,
    addr: SocketAddr,
    daemon: Arc<Daemon>,
    specs: Vec<Spec>,
    recs: Vec<Recorder>,
    /// Payload first seen per request key.
    payloads: BTreeMap<(&'static str, usize, u64), Json>,
    /// Client latency per endpoint, all passes.
    latency_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl DaemonMix {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = DaemonConfig {
            workers: CLIENTS,
            ..DaemonConfig::default()
        };
        let (addr, daemon) =
            uhaccd::spawn(cfg, "127.0.0.1:0").map_err(|e| format!("spawn uhaccd: {e}"))?;
        let origin = Instant::now();
        let mut w = DaemonMix {
            seed,
            addr,
            daemon,
            specs: specs(),
            recs: (0..CLIENTS).map(|_| Recorder::new(origin)).collect(),
            payloads: BTreeMap::new(),
            latency_ms: BTreeMap::new(),
        };
        // Warm-up: every hot request once, one caller, checked.
        for spec in w.specs.clone().iter().filter(|s| !s.novel) {
            let got = post(addr, spec.path, &spec.body(""));
            w.check(spec, got, &mut PassOut::default())
                .map_err(|e| format!("warm-up of {} failed: {e}", spec.name()))?;
        }
        Ok(w)
    }

    /// Status 200, a body that parses, the endpoint's own success marks,
    /// `/run` scalars equal to the reference, and a payload identical to
    /// every earlier one with the same key.
    fn check(
        &mut self,
        spec: &Spec,
        got: Result<(u16, String), String>,
        out: &mut PassOut,
    ) -> Result<(), String> {
        let (status, body) = got?;
        match status {
            400..=499 => bump(&mut out.counts, "uhaccd.status_4xx", 1),
            500..=599 => bump(&mut out.counts, "uhaccd.status_5xx", 1),
            _ => {}
        }
        if status != 200 {
            return Err(format!("status {status}: {}", &body[..body.len().min(200)]));
        }
        let doc = json::parse(&body).map_err(|e| format!("reply is not JSON: {e}"))?;
        let p = &PROGRAMS[spec.program];
        let flag = |k: &str| doc.get(k) == Some(&Json::Bool(true));
        let num = |path: &[&str]| doc.at(path).and_then(Json::as_f64);
        let (payload, ok) = match spec.path {
            "/lint" => (
                "diagnostics",
                flag("ok") && doc.get("diagnostics") == Some(&Json::Arr(Vec::new())),
            ),
            "/analyze" => ("analysis", flag("ok")),
            "/compile" => (
                "text",
                num(&["verify_errors"]) == Some(0.0) && num(&["regions"]) == Some(p.regions as f64),
            ),
            "/verify" => ("text", flag("ok")),
            "/profile" => ("profile", doc.get("profile").is_some()),
            "/certify" => ("certification", flag("ok")),
            _ => {
                for w in p.want {
                    let want = (w.value)(spec.n);
                    let got = num(&["results", "scalars", w.scalar])
                        .ok_or_else(|| format!("reply has no scalar `{}`", w.scalar))?;
                    let tol = if w.int {
                        0.0
                    } else {
                        1e-9 * want.abs().max(1.0)
                    };
                    if (got - want).abs() > tol {
                        return Err(format!("{} is {got}, expected {want}", w.scalar));
                    }
                }
                let cycles = num(&["results", "stats", "total_cycles"]).unwrap_or(0.0);
                bump(&mut out.counts, "modelled_cycles", cycles as u64);
                ("results", cycles > 0.0)
            }
        };
        if !ok {
            return Err(format!(
                "reply lacks its success marks: {}",
                &body[..body.len().min(200)]
            ));
        }
        let payload = doc.get(payload).ok_or("reply lacks its payload")?;
        let first = self
            .payloads
            .entry(spec.key())
            .or_insert_with(|| payload.clone());
        if first != payload {
            return Err("payload differs from an earlier identical request".into());
        }
        Ok(())
    }

    fn pass_order(&self, pass: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.specs.len()).collect();
        Rng::new(self.seed.wrapping_add(pass), 0).shuffle(&mut order);
        order
    }

    fn scrape(&self, path: &str) -> Result<String, String> {
        match post(self.addr, path, "")? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("GET {path}: status {status}")),
        }
    }
}

/// Samples of a Prometheus text exposition: `name{labels} value`.
fn exposition(text: &str) -> Vec<(&str, &str, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (name, labels) = match series.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            Some((name, labels, value.parse().ok()?))
        })
        .collect()
}

/// Quantile of a cumulative-bucket histogram, interpolated linearly
/// inside the bucket (the Prometheus `histogram_quantile` rule).
fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0.0, |b| b.1);
    let rank = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in buckets {
        if cum >= rank && cum > below {
            let hi = if le.is_finite() { le } else { lo };
            return lo + (hi - lo) * (rank - below) / (cum - below);
        }
        (lo, below) = (if le.is_finite() { le } else { lo }, cum);
    }
    lo
}

impl Workload for DaemonMix {
    fn ops_per_pass(&self) -> usize {
        self.specs.len()
    }

    fn op_list_hash(&self) -> u64 {
        let order = self.pass_order(0);
        let text: String = order
            .iter()
            .map(|&i| self.specs[i].name() + &self.specs[i].body("0"))
            .collect();
        fnv1a(text.as_bytes())
    }

    fn run_pass(&mut self, pass: u64, traced: bool) -> PassOut {
        let order = self.pass_order(pass);
        let bodies: Vec<String> = order
            .iter()
            .enumerate()
            .map(|(k, &i)| self.specs[i].body(&format!("{}-{pass}-{k}", self.seed)))
            .collect();
        let next = AtomicUsize::new(0);
        let (addr, specs) = (self.addr, &self.specs);
        let t_pass = Instant::now();
        let replies: Vec<Vec<Reply>> = std::thread::scope(|scope| {
            let callers: Vec<_> = self
                .recs
                .iter_mut()
                .map(|rec| {
                    let (next, order, bodies) = (&next, &order, &bodies);
                    scope.spawn(move || {
                        rec.set_on(traced);
                        let mut mine = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = order.get(k) else { break };
                            let spec = &specs[i];
                            let op_id = (pass as usize * order.len() + k) as u32;
                            let (ns, got) = timed(rec, op_id, |rec| {
                                span!(rec, spec.span, post(addr, spec.path, &bodies[k]))
                            });
                            mine.push(Reply { spec: i, ns, got });
                        }
                        mine
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("a caller thread panicked"))
                .collect()
        });
        let mut out = PassOut {
            wall_ns: t_pass.elapsed().as_nanos() as u64,
            ..PassOut::default()
        };
        // Checks run after the callers have stopped, outside the pass.
        for r in replies.into_iter().flatten() {
            let spec = self.specs[r.spec].clone();
            out.ops.push(OpSample {
                slot: r.spec,
                name: spec.name(),
                ns: r.ns,
            });
            self.latency_ms
                .entry(spec.span)
                .or_default()
                .push(r.ns as f64 / 1e6);
            if let Err(why) = self.check(&spec, r.got, &mut out) {
                out.failures.push(format!("{}: {why}", spec.name()));
            }
        }
        for name in ["uhaccd.status_4xx", "uhaccd.status_5xx"] {
            bump(&mut out.counts, name, 0);
        }
        out
    }

    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)> {
        self.recs
            .iter_mut()
            .enumerate()
            .map(|(tid, r)| (tid as u32, r.take()))
            .collect()
    }

    /// Read the daemon's own hooks: `GET /metrics` for caches, queue and
    /// span drops; client latencies per endpoint.
    fn finish(&mut self, m: &mut Metrics, failures: &mut Vec<String>) {
        for (span, ms) in &self.latency_ms {
            m.set(&format!("{span}_ms_p50"), median(ms), ms.len() as u64);
        }
        let text = match self.scrape("/metrics") {
            Ok(t) => t,
            Err(e) => return failures.push(format!("harness: {e}")),
        };
        let samples = exposition(&text);
        let value = |name: &str| samples.iter().find(|s| s.0 == name).map_or(0.0, |s| s.2);
        let ratio = |hits: f64, misses: f64| match hits + misses {
            t if t > 0.0 => hits / t,
            _ => 0.0,
        };
        let served = value("uhaccd_queue_wait_us_count") as u64;
        m.set(
            "uhaccd.program_cache_hit_ratio",
            ratio(
                value("uhaccd_program_cache_hits_total"),
                value("uhaccd_program_cache_misses_total"),
            ),
            served,
        );
        m.set(
            "uhaccd.region_cache_hit_ratio",
            ratio(
                value("uhaccd_region_cache_hits_total"),
                value("uhaccd_region_cache_misses_total"),
            ),
            served,
        );
        m.set(
            "uhaccd.program_evictions",
            value("uhaccd_program_cache_evictions_total"),
            served,
        );
        m.set(
            "uhaccd.pool_peak_depth",
            value("uhaccd_queue_peak_depth"),
            served,
        );
        m.set(
            "uhobs.spans_dropped",
            value("uhaccd_trace_spans_dropped_total"),
            served,
        );
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.0 == "uhaccd_queue_wait_us_bucket")
            .filter_map(|s| {
                let le = s.1.strip_prefix("le=\"")?.trim_end_matches('"');
                Some((le.parse().unwrap_or(f64::INFINITY), s.2))
            })
            .collect();
        for (name, q) in [
            ("uhaccd.queue_wait_ms_p50", 0.50),
            ("uhaccd.queue_wait_ms_p99", 0.99),
        ] {
            m.set(name, bucket_quantile(&buckets, q) / 1e3, served);
        }
    }

    /// The same bodies replayed without the wire, the daemon's readers on
    /// raw bytes, its `/trace` for the server-side phases, and the two
    /// result renderers on finished sessions.
    fn side_measurements(&mut self, _quick: bool, m: &mut Metrics) {
        let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;

        // Server-side phases of `/run`-like requests, from the spans the
        // daemon kept (its buffer is bounded: the run's first requests).
        if let Ok(doc) = self.scrape("/trace").and_then(|t| json::parse(&t)) {
            let mut per_request: BTreeMap<(u64, &str), f64> = BTreeMap::new();
            for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = match ev.get("name").and_then(Json::as_str).unwrap_or("") {
                    n if n.starts_with("codegen.") => "accrt.codegen_us",
                    n if n.starts_with("h2d.") => "accrt.h2d_us",
                    n if n.starts_with("launch.") => "gpsim.launch_us",
                    n if n.starts_with("d2h.") => "accrt.d2h_us",
                    _ => continue,
                };
                let id = ev
                    .at(&["args", "trace_id"])
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                *per_request.entry((id as u64, name)).or_default() +=
                    ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
            }
            let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for ((_, name), dur) in per_request {
                by_name.entry(name).or_default().push(dur);
            }
            for (name, durs) in by_name {
                m.set(name, median(&durs), durs.len() as u64);
            }
        }

        // One pass's requests through `Daemon::handle`, no socket. Novel
        // tags are new, so the replay parses cold exactly like a pass.
        let mut handle_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut http_us, mut json_us) = (Vec::new(), Vec::new());
        for (k, spec) in self.specs.iter().enumerate() {
            let body = spec.body(&format!("{}-replay-{k}", self.seed));
            let raw = format!(
                "POST {} HTTP/1.1\r\nHost: uhbench\r\nContent-Length: {}\r\n\r\n{body}",
                spec.path,
                body.len()
            );
            let t = Instant::now();
            let parsed = uhaccd::http::read_request_from(&mut BufReader::new(raw.as_bytes()));
            http_us.push(us(t));
            let t = Instant::now();
            std::hint::black_box(uhaccd::json::parse(&body)).expect("the benchmark sends JSON");
            json_us.push(us(t));
            let req: Request = parsed.expect("well-formed").expect("non-empty");
            let t = Instant::now();
            let (status, _) = self.daemon.handle(&req);
            handle_us.entry(spec.span).or_default().push(us(t));
            assert_eq!(status, 200, "replay of {}", spec.name());
        }
        m.set(
            "uhaccd.http_parse_us",
            median(&http_us),
            http_us.len() as u64,
        );
        m.set(
            "uhaccd.json_parse_us",
            median(&json_us),
            json_us.len() as u64,
        );
        // Expected cost of one request of the mix: per-endpoint medians
        // weighted by the endpoint's share of a pass.
        let (mut handle, mut wire) = (0.0, 0.0);
        for (span, h) in &handle_us {
            let weight = h.len() as f64 / self.specs.len() as f64;
            let client_us = self.latency_ms.get(span).map_or(0.0, |ms| median(ms) * 1e3);
            handle += weight * median(h);
            wire += weight * (client_us - median(h));
        }
        let n = self.specs.len() as u64;
        m.set("uhaccd.handle_us", handle, n);
        m.set("uhaccd.wire_overhead_us", wire, n);

        let get_metrics = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            body: Vec::new(),
        };
        let render: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.daemon.handle(&get_metrics));
                us(t)
            })
            .collect();
        m.set(
            "uhaccd.metrics_render_us",
            median(&render),
            render.len() as u64,
        );

        let (mut results_us, mut profile_us) = (Vec::new(), Vec::new());
        for p in &PROGRAMS {
            let req = RunRequest {
                n: 4096,
                host_threads: 1,
                ..RunRequest::default()
            };
            let mut r =
                AccRunner::with_options(p.src, req.opts.clone(), req.dims, Device::default())
                    .expect("hot sources compile");
            driver::execute(&mut r, &req, true).expect("hot sources run");
            let t = Instant::now();
            std::hint::black_box(driver::results_json(&r));
            results_us.push(us(t));
            let t = Instant::now();
            std::hint::black_box(r.profile_json());
            profile_us.push(us(t));
        }
        let n = PROGRAMS.len() as u64;
        m.set("driver.results_json_us", median(&results_us), n);
        m.set("driver.profile_json_us", median(&profile_us), n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form against the pattern written out element by element.
    #[test]
    fn pattern_sum_closed_form_matches_brute_force() {
        assert_eq!((pattern(0), pattern(1), pattern(14)), (-47, -40, -50));
        let period: Vec<i64> = (0..101).map(pattern).collect();
        let mut sorted = period.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (-50..=50).collect::<Vec<_>>(),
            "one period permutes -50..=50"
        );
        for n in [0, 1, 100, 101, 102, 4096, 65536, 65537] {
            assert_eq!(pattern_sum(n), (0..n).map(pattern).sum::<i64>(), "n = {n}");
        }
        // What the hot programs must answer at the two problem sizes.
        assert_eq!(pattern_sum(4096), (0..4096 % 101).map(pattern).sum::<i64>());
        assert_eq!((PROGRAMS[2].want[0].value)(4096), -50.0);
        assert_eq!((PROGRAMS[2].want[1].value)(4096), 50.0);
        // Σ k² over one period is 2·(1² + … + 50²) = 85850.
        assert_eq!((PROGRAMS[5].want[1].value)(101), 85850.0);
    }

    #[test]
    fn the_mix_is_the_documented_multiset() {
        let s = specs();
        assert_eq!(s.len(), 80);
        let share = |paths: &[&str]| {
            s.iter().filter(|x| paths.contains(&x.path)).count() as f64 / s.len() as f64
        };
        assert_eq!(share(&["/lint", "/analyze", "/compile", "/verify"]), 0.6);
        assert_eq!(share(&["/run"]), 0.25);
        assert_eq!(s.iter().filter(|x| x.novel).count(), 40);
        // Hot `/run` requests recur identically; both sizes are used.
        let hot_runs: Vec<_> = s.iter().filter(|x| x.path == "/run" && !x.novel).collect();
        assert_eq!(hot_runs.len(), 10);
        assert!(hot_runs.iter().any(|x| x.n == 4096) && hot_runs.iter().any(|x| x.n == 65536));
        // A novel body differs from its hot twin, and from other novel ones.
        let (hot, novel) = (
            s[0].body(""),
            Spec {
                novel: true,
                ..s[0].clone()
            },
        );
        assert_ne!(hot, novel.body("a"));
        assert_ne!(novel.body("a"), novel.body("b"));
        json::parse(&novel.body("a")).expect("bodies are JSON");
    }

    #[test]
    fn exposition_and_bucket_quantiles() {
        let text = "# HELP x y\nq_bucket{le=\"100\"} 50\nq_bucket{le=\"300\"} 90\n\
                    q_bucket{le=\"+Inf\"} 100\nhits_total 7\n";
        let s = exposition(text);
        assert_eq!(s.len(), 4);
        assert_eq!(s[3], ("hits_total", "", 7.0));
        assert_eq!(s[0], ("q_bucket", "le=\"100\"", 50.0));
        let b = [(100.0, 50.0), (300.0, 90.0), (f64::INFINITY, 100.0)];
        assert_eq!(bucket_quantile(&b, 0.25), 50.0);
        assert_eq!(bucket_quantile(&b, 0.70), 200.0);
        assert_eq!(
            bucket_quantile(&b, 0.99),
            300.0,
            "the open bucket reads its lower edge"
        );
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
