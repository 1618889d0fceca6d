//! Concurrency property: N sessions through the shared worker pool
//! produce results, stats, and profile JSON **byte-identical** to the
//! same requests issued sequentially — across random request mixes,
//! problem sizes, and worker counts.
//!
//! This is the service-level extension of the runtime's determinism
//! guarantee (see `accrt/tests/parallel_determinism.rs`): sharing
//! `Arc<AnalyzedProgram>` and `Arc<CompiledRegion>` across concurrent
//! sessions must not introduce any observable coupling between them.

use proptest::prelude::*;
use uhaccd::http;
use uhaccd::json::Json;
use uhaccd::{service, DaemonConfig};

const SOURCES: [&str; 3] = [
    // gang+vector int sum
    "int N; int s;\nint a[N];\ns = 0;\n#pragma acc parallel loop gang vector \
     reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n",
    // gang+worker+vector double sum (rounding-order sensitive)
    "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel loop gang worker \
     vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n",
    // min+max pair
    "int N; int lo; int hi;\nint a[N];\nlo = 2147483647;\nhi = -2147483648;\n#pragma acc \
     parallel loop gang vector reduction(min:lo) reduction(max:hi) copyin(a)\nfor (int i = \
     0; i < N; i++) { lo = min(lo, a[i]); hi = max(hi, a[i]); }\n",
];

#[derive(Debug, Clone)]
struct Req {
    path: &'static str,
    body: String,
}

fn make_req(source_idx: usize, profile: bool, n: u64) -> Req {
    let src = Json::Str(SOURCES[source_idx % SOURCES.len()].into());
    Req {
        path: if profile { "/profile" } else { "/run" },
        body: format!("{{\"source\":{src},\"n\":{n}}}"),
    }
}

fn post_ok(addr: std::net::SocketAddr, req: &Req) -> String {
    let (status, body) = http::post(addr, req.path, &req.body).expect("transport");
    assert_eq!(status, 200, "{} -> {body}", req.path);
    body
}

fn spawn_daemon(workers: usize) -> std::net::SocketAddr {
    let (addr, _daemon) = service::spawn(
        DaemonConfig {
            workers,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    addr
}

/// Send every request of `reqs` from its own thread at once.
fn burst(addr: std::net::SocketAddr, reqs: &[Req]) -> Vec<String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| scope.spawn(move || post_ok(addr, r)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Require each pair of replies to be byte-identical with `cache` masked:
/// the cache annotation legitimately differs (which layers were warm, and
/// whether the answer was remembered); the payload must not.
fn assert_same_payloads(reqs: &[Req], expected: &[String], got: &[String], what: &str) {
    let strip = |s: &str| match uhaccd::json::parse(s).expect("response JSON") {
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "cache").collect()).to_string()
        }
        other => other.to_string(),
    };
    for (i, (want, have)) in expected.iter().zip(got).enumerate() {
        assert_eq!(
            strip(want),
            strip(have),
            "request {i} ({}) diverged between sequential and {what} service",
            reqs[i].path
        );
    }
}

/// Issue `reqs` from `reqs.len()` threads at once against a cold
/// multi-worker daemon — so concurrent sessions race to fill and share
/// the program, region and answer caches — and strictly one at a time
/// against a second daemon, and require every response pair to match.
/// Returns the concurrent daemon (now warm) and the sequential replies.
fn concurrent_equals_sequential(
    reqs: &[Req],
    workers: usize,
) -> (std::net::SocketAddr, Vec<String>) {
    let raced = spawn_daemon(workers);
    let concurrent = burst(raced, reqs);
    let alone = spawn_daemon(workers);
    let sequential: Vec<String> = reqs.iter().map(|r| post_ok(alone, r)).collect();
    assert_same_payloads(reqs, &sequential, &concurrent, "cold concurrent");
    (raced, sequential)
}

#[test]
fn mixed_burst_is_deterministic() {
    // A fixed 12-request burst mixing all sources, both endpoints, and
    // several sizes, each body sent twice, against 4 workers: the two
    // copies of a body race each other through the cold caches.
    let mut reqs = Vec::new();
    for i in 0..24usize {
        reqs.push(make_req(i % 12, i % 3 == 0, 500 + 700 * (i as u64 % 4)));
    }
    let (raced, sequential) = concurrent_equals_sequential(&reqs, 4);
    // The first burst answered every question, so the same burst again
    // is served from remembered answers, racing each other for them.
    let repeat = burst(raced, &reqs);
    assert_same_payloads(&reqs, &sequential, &repeat, "remembered");
    for reply in repeat {
        assert!(reply.contains("\"result_hit\":true}"), "{reply}");
    }
}

/// The endpoints that simulate nothing — `/compile` under each compiler
/// personality with the verifier on, `/lint`, `/verify` — over every
/// source: the same bytes from 15 threads at once on cold caches and
/// sequentially.
#[test]
fn static_endpoints_are_deterministic_across_interleavings() {
    let mut reqs = Vec::new();
    for src in SOURCES {
        let src = Json::Str(src.into());
        for compiler in ["openuh", "pgi", "caps"] {
            reqs.push(Req {
                path: "/compile",
                body: format!("{{\"source\":{src},\"compiler\":\"{compiler}\",\"verify\":true}}"),
            });
        }
        for path in ["/lint", "/verify"] {
            reqs.push(Req {
                path,
                body: format!("{{\"source\":{src}}}"),
            });
        }
    }
    concurrent_equals_sequential(&reqs, 4);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn random_burst_is_deterministic(
        picks in proptest::collection::vec((0usize..3, any::<bool>(), 64u64..4096), 3..9),
        workers in 2usize..5,
    ) {
        let reqs: Vec<Req> = picks
            .into_iter()
            .map(|(s, p, n)| make_req(s, p, n))
            .collect();
        concurrent_equals_sequential(&reqs, workers);
    }
}
