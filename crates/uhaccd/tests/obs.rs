//! End-to-end observability tests: the `/metrics` exposition pinned
//! byte-for-byte under the virtual clock, the unified `/trace` timeline
//! (request spans + device tracks), protocol-level HTTP rejections over
//! a real socket, the extended `/health` shape, and the slow-request
//! counter.
//!
//! Regenerate the metrics golden after an intentional change with:
//!
//! ```console
//! UPDATE_GOLDEN=1 cargo test -p uhaccd --test obs
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use uhaccd::http;
use uhaccd::json::Json;
use uhaccd::{service, DaemonConfig};

const SRC: &str = "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel loop \
                   gang vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s \
                   += a[i]; }\n";

/// One worker + virtual clock: every observability byte the daemon
/// emits is a deterministic function of the request sequence.
fn spawn_virtual() -> std::net::SocketAddr {
    let (addr, _daemon) = service::spawn(
        DaemonConfig {
            workers: 1,
            virtual_clock: true,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    addr
}

fn run_body(n: u64) -> String {
    format!("{{\"source\":{},\"n\":{n}}}", Json::Str(SRC.into()))
}

fn post_ok(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let (status, body) = http::post(addr, path, body).expect("post");
    assert_eq!(status, 200, "{path}: {body}");
    body
}

fn golden_check(name: &str, got: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    assert_eq!(
        got, golden,
        "{name}: exposition drifted from tests/golden/{name} \
         (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
    );
}

/// A fixed sequential request sequence against a single-worker daemon on
/// the virtual clock produces a byte-identical Prometheus exposition:
/// every counter is a deterministic simulator/cache fact and every
/// histogram value is a deterministic count of clock ticks.
#[test]
fn metrics_exposition_is_pinned_under_virtual_clock() {
    let addr = spawn_virtual();
    post_ok(addr, "/run", &run_body(2048)); // cold: parse + codegen
    post_ok(addr, "/run", &run_body(4096)); // warm program and region, new answer
    post_ok(addr, "/run", &run_body(2048)); // repeat: the remembered answer
    post_ok(
        addr,
        "/compile",
        &format!("{{\"source\":{}}}", Json::Str(SRC.into())),
    );
    let (status, _) = http::get(addr, "/health").expect("health");
    assert_eq!(status, 200);

    let (status, text) = http::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    golden_check(
        "metrics.golden.txt",
        &text,
        include_str!("golden/metrics.golden.txt"),
    );

    // Independent of the golden: the exposition must parse strictly and
    // carry the advertised series.
    let samples = uhobs::metrics::parse_exposition(&text).expect("valid exposition");
    for name in [
        "uhaccd_requests_total",
        "uhaccd_request_duration_us_count",
        "uhaccd_request_duration_us_bucket",
        "uhaccd_queue_wait_us_count",
        "uhaccd_queue_wait_us_bucket",
        "uhaccd_compile_duration_us_count",
        "uhaccd_compile_duration_us_bucket",
        "uhaccd_program_cache_hits_total",
        "uhaccd_program_cache_misses_total",
        "uhaccd_program_parses_total",
        "uhaccd_region_cache_hits_total",
        "uhaccd_region_compiles_total",
        "uhaccd_sim_instructions_total",
        "uhaccd_sim_tier_declines_total",
        "uhaccd_sim_shape_steps_total",
        "uhaccd_result_cache_hits_total",
        "uhaccd_result_cache_misses_total",
        "uhaccd_pool_workers",
        "uhaccd_queue_depth",
    ] {
        assert!(
            samples.iter().any(|s| s.name == name),
            "missing series {name}"
        );
    }
    // Three /run of the same source and a /compile of it: one parse,
    // three program-cache hits, the second /run's region a cache hit, and
    // the repeated /run answered from memory — so two sessions simulated,
    // and the typed tier ran all of them.
    let value = |name: &str| {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(value("uhaccd_program_parses_total"), 1.0);
    assert_eq!(value("uhaccd_program_cache_hits_total"), 3.0);
    assert_eq!(value("uhaccd_region_cache_hits_total"), 1.0);
    assert_eq!(value("uhaccd_result_cache_hits_total"), 1.0);
    assert_eq!(value("uhaccd_result_cache_misses_total"), 3.0);
    assert!(value("uhaccd_sim_instructions_total") > 0.0);
    assert_eq!(
        value("uhaccd_sim_shape_steps_total"),
        value("uhaccd_sim_instructions_total")
    );
    assert_eq!(value("uhaccd_sim_tier_declines_total"), 0.0);
    // Every request was dequeued by the pool, so the queue-wait histogram
    // the benchmark reads its percentiles from is not empty.
    assert!(value("uhaccd_queue_wait_us_count") >= 4.0);
}

/// `/trace` returns one Chrome/Perfetto file holding both the request
/// track (pid 100: queue.wait → http.parse → cache.lookup → exec with
/// per-region phases → render → request) and the device stream/SM
/// tracks spliced in by the `/profile` execution, remapped to the
/// request's own pid pair and labelled with its trace id.
#[test]
fn trace_unifies_request_and_device_tracks() {
    let addr = spawn_virtual();
    post_ok(addr, "/profile", &run_body(1024));

    let (status, trace) = http::get(addr, "/trace").expect("trace");
    assert_eq!(status, 200);
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");

    // Request-track spans under REQUEST_PID.
    assert!(trace.contains("\"pid\":100"), "request track missing");
    for span in [
        "queue.wait",
        "http.parse",
        "cache.lookup",
        "codegen.region0",
        "h2d.region0",
        "launch.region0",
        "d2h.region0",
        "exec",
        "render",
        "request",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "missing span {span}"
        );
    }
    // The /profile request is the first traced request → trace id 1 →
    // device pid pair DEVICE_PID_BASE + 2 = (1002, 1003), labelled with
    // the request id.
    assert!(
        trace.contains("\"pid\":1002"),
        "device stream track missing"
    );
    assert!(trace.contains("\"pid\":1003"), "device SM track missing");
    assert!(
        trace.contains("req 1 accrt runtime"),
        "device track label missing"
    );
    assert!(trace.contains("req 1 gpsim SMs"), "SM track label missing");
    // Shared timebase: the device tracks are anchored at the exec span's
    // start, so no device event starts before it.
    assert!(trace.contains("\"name\":\"exec\""));
}

/// A remembered `/profile` runs no session: it splices no device track
/// into `/trace`, and its `cache.lookup` span says why.
#[test]
fn a_remembered_profile_adds_no_device_track() {
    let addr = spawn_virtual();
    post_ok(addr, "/profile", &run_body(1024));
    let (_, first) = http::get(addr, "/trace").expect("trace");
    post_ok(addr, "/profile", &run_body(1024));
    let (_, trace) = http::get(addr, "/trace").expect("trace");
    let device_events = |t: &str| t.matches("\"pid\":1002").count();
    assert!(device_events(&first) > 0, "{first}");
    assert_eq!(device_events(&trace), device_events(&first));
    // Trace ids: 1 = the first /profile, 2 = /trace, 3 = the repeat.
    assert!(
        !trace.contains("\"pid\":1006"),
        "the repeat has no device track"
    );
    assert!(trace.contains("\"result_hit\":\"false\""), "{trace}");
    assert!(trace.contains("\"result_hit\":\"true\""), "{trace}");
}

/// Once the span buffer is full, further requests leave `/trace`
/// byte-for-byte alone: no spans, and no track names either.
#[test]
fn a_full_trace_buffer_stops_growing() {
    let (addr, daemon) = service::spawn(
        DaemonConfig {
            workers: 1,
            virtual_clock: true,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let tracer = &daemon.obs().tracer;
    while tracer.span_count() < uhobs::trace::DEFAULT_SPAN_CAP {
        tracer.record(0, "fill", 0, 0, &[]);
    }
    let (_, full) = http::get(addr, "/trace").expect("trace");
    for n in 0..8 {
        post_ok(addr, "/run", &run_body(64 + n));
        http::get(addr, "/health").expect("health");
    }
    let (_, after) = http::get(addr, "/trace").expect("trace");
    assert!(after == full, "/trace grew after its buffer filled");
    assert!(!full.contains("\"thread_name\",\"ph\":\"M\",\"pid\":100,\"tid\":1,"));
}

/// Raw-socket protocol rejections: an unparsable `Content-Length` is
/// answered with a 400 JSON diagnostic, oversized headers with 431 —
/// the connection is not just dropped.
#[test]
fn protocol_rejections_get_diagnostic_responses() {
    let addr = spawn_virtual();

    let raw_roundtrip = |payload: &str| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(payload.as_bytes()).expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    };

    let resp = raw_roundtrip("POST /run HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");
    assert!(resp.contains("invalid Content-Length: banana"), "{resp}");
    assert!(resp.contains("\"error\""), "diagnostic is JSON: {resp}");

    let mut huge = String::from("GET /health HTTP/1.1\r\n");
    for _ in 0..70 {
        huge.push_str(&format!("X-Pad: {}\r\n", "y".repeat(1000)));
    }
    huge.push_str("\r\n");
    let resp = raw_roundtrip(&huge);
    assert!(
        resp.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{resp}"
    );
    assert!(resp.contains("headers too large"), "{resp}");

    // The rejections land in the metric families under the synthetic
    // `malformed` endpoint.
    let (_, text) = http::get(addr, "/metrics").expect("metrics");
    assert!(
        text.contains("uhaccd_requests_total{endpoint=\"malformed\",code=\"400\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("uhaccd_requests_total{endpoint=\"malformed\",code=\"431\"} 1"),
        "{text}"
    );
}

/// `/health` reports the crate version, uptime, the effective
/// configuration, and live pool statistics including queue-wait
/// aggregates.
#[test]
fn health_reports_version_uptime_config_and_pool() {
    let addr = spawn_virtual();
    post_ok(addr, "/run", &run_body(1024));
    let (status, body) = http::get(addr, "/health").expect("health");
    assert_eq!(status, 200);
    let h = uhaccd::json::parse(&body).expect("health json");

    assert_eq!(
        h.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(h.get("uptime_secs").and_then(Json::as_f64).is_some());

    let cfg = h.get("config").expect("config section");
    assert_eq!(cfg.get("workers").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        cfg.get("program_cache_cap").and_then(Json::as_f64),
        Some(64.0)
    );
    assert_eq!(cfg.get("exec_tier").and_then(Json::as_str), Some("auto"));
    assert!(cfg.get("host_threads").and_then(Json::as_f64).is_some());
    assert_eq!(cfg.get("virtual_clock").and_then(Json::as_bool), Some(true));
    assert!(matches!(cfg.get("slow_ms"), Some(Json::Null)));

    let pool = h.get("pool").expect("pool section");
    assert_eq!(pool.get("workers").and_then(Json::as_f64), Some(1.0));
    // /run + this /health's own dequeue have been measured.
    let wait_count = pool.get("wait_count").and_then(Json::as_f64).unwrap();
    assert!(wait_count >= 1.0, "wait_count = {wait_count}");
    assert!(pool.get("wait_mean_us").and_then(Json::as_f64).is_some());
    assert!(pool.get("wait_max_us").and_then(Json::as_f64).is_some());
}

/// Requests slower than the threshold increment
/// `uhaccd_slow_requests_total` (the structured stderr line rides the
/// same gate).
#[test]
fn slow_requests_are_counted_above_the_threshold() {
    let daemon = uhaccd::Daemon::new(DaemonConfig {
        workers: 1,
        virtual_clock: true,
        slow_ms: Some(1), // 1 ms = 1000 us threshold
        ..DaemonConfig::default()
    });
    daemon.finish_request("/run", 200, 5_000, 7); // over
    daemon.finish_request("/run", 200, 400, 8); // under
    let req = http::Request {
        method: "GET".into(),
        path: "/metrics".into(),
        body: Vec::new(),
    };
    let (status, text) = daemon.handle(&req);
    assert_eq!(status, 200);
    assert!(text.contains("uhaccd_slow_requests_total 1"), "{text}");
}
