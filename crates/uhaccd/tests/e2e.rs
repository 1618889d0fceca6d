//! End-to-end tests over real TCP: spawn the daemon on an ephemeral
//! port, drive every endpoint, and pin the two headline guarantees —
//!
//! 1. **Byte-identity**: `/compile`, `/run`, `/profile`, and `/lint`
//!    bodies match the single-shot `uhacc::driver` outputs (what
//!    `uhacc-cc` prints) exactly.
//! 2. **Counter-verified caching**: a repeated identical request is
//!    answered from its program's remembered answers, a new question about
//!    a warm program is a program-cache *and* artifact-cache hit — the
//!    response says so, the `/health` counters say so, and the warm
//!    session performed zero region compilations — and an evicted program
//!    forgets its answers.

use uhacc::driver::{self, Artifacts, EmitFlags, RunRequest};
use uhacc_core::{CompilerOptions, LaunchDims};
use uhaccd::http;
use uhaccd::json::{parse, Json};
use uhaccd::{service, DaemonConfig};

const SRC: &str = "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel loop \
                   gang vector reduction(+:s) copyin(a)\nfor (int i = 0; i < N; i++) { s \
                   += a[i]; }\n";

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

fn src_json() -> String {
    Json::Str(SRC.into()).to_string()
}

#[test]
fn health_reports_workers_and_counters() {
    let addr = spawn_daemon(3);
    let (status, body) = http::get(addr, "/health").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("workers").and_then(Json::as_f64), Some(3.0));
    assert!(v.get("programs").is_some());
    assert!(v.get("regions").is_some());
}

#[test]
fn run_body_matches_cli_driver_byte_for_byte() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{},\"n\":1000}}", src_json());
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    // `results` was spliced raw; re-extract it as a substring to avoid
    // any reserialization: find the exact driver output inside the body.
    let req = RunRequest {
        n: 1000,
        ..RunRequest::default()
    };
    let want =
        driver::results_json(&driver::session(SRC, &req, false, Artifacts::Direct, None).unwrap());
    assert!(
        resp.contains(&format!("\"results\":{want}")),
        "daemon /run body does not embed the CLI --run output verbatim:\n{resp}\nwant: {want}"
    );
    // And semantic sanity: the reduction result is present.
    assert!(v.get("results").is_some());
}

#[test]
fn profile_body_matches_cli_driver_byte_for_byte() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{},\"n\":512}}", src_json());
    let (status, resp) = http::post(addr, "/profile", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let req = RunRequest {
        n: 512,
        ..RunRequest::default()
    };
    let want = driver::session(SRC, &req, true, Artifacts::Direct, None)
        .unwrap()
        .profile_json();
    assert!(
        resp.contains(&format!("\"profile\":{want}")),
        "daemon /profile body does not embed the CLI --profile=json output verbatim"
    );
}

#[test]
fn compile_text_matches_cli_driver() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{},\"verify\":true}}", src_json());
    let (status, resp) = http::post(addr, "/compile", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    let got_text = v.get("text").and_then(Json::as_str).unwrap();

    let hir = accparse::compile(SRC).unwrap();
    let opts = CompilerOptions::openuh();
    let emit = EmitFlags {
        verify: true,
        ..EmitFlags::default()
    };
    let want = driver::compile_text(
        &hir,
        LaunchDims::paper(),
        "OpenUH",
        emit,
        &driver::direct_compiler(&hir, &opts),
    )
    .unwrap();
    assert_eq!(got_text, want.text, "daemon /compile text differs from CLI");
    assert_eq!(
        v.get("verify_errors").and_then(Json::as_f64),
        Some(want.verify_errors as f64)
    );
}

#[test]
fn lint_diagnostics_match_cli_json() {
    use accparse::diag::diags_to_json;
    // A source that lints dirty: reduction clause stripped.
    let dirty = "int N; double s;\ndouble a[N];\ns = 0.0;\n#pragma acc parallel loop gang \
                 vector copyin(a)\nfor (int i = 0; i < N; i++) { s += a[i]; }\n";
    let addr = spawn_daemon(1);
    let body = format!("{{\"source\":{}}}", Json::Str(dirty.into()));
    let (status, resp) = http::post(addr, "/lint", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let (_, findings) = accparse::lint_source(dirty).unwrap();
    let diags: Vec<accparse::Diag> = findings.into_iter().map(|f| f.diag).collect();
    let want = diags_to_json(&diags, dirty);
    assert!(
        !diags.is_empty(),
        "expected lint findings for stripped clause"
    );
    assert!(
        resp.contains(&format!("\"diagnostics\":{want}")),
        "daemon /lint diagnostics differ from `uhacc-cc --lint --json`:\n{resp}\nwant: {want}"
    );
    // The envelope version is spliced from the same constant the CLI
    // prints, so clients can pin one schema for both surfaces.
    assert!(
        resp.contains(&format!(
            "\"schema_version\":{}",
            accparse::diag::LINT_SCHEMA_VERSION
        )),
        "{resp}"
    );
}

#[test]
fn analyze_matches_cli_fusion_plan_json() {
    // Two cascaded reductions forming a fusable chain.
    let chain = "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
                 #pragma acc parallel copyin(a)\n{\n\
                 #pragma acc loop gang reduction(+:s)\n\
                 for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
                 #pragma acc parallel copyin(a)\n{\n\
                 #pragma acc loop gang reduction(+:v)\n\
                 for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}";
    let addr = spawn_daemon(1);
    let body = format!("{{\"source\":{}}}", Json::Str(chain.into()));
    let (status, resp) = http::post(addr, "/analyze", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let want = driver::analyze_json(&accparse::compile(chain).unwrap());
    assert!(
        resp.contains(&format!("\"analysis\":{want}")),
        "daemon /analyze differs from `uhacc-cc --fusion-plan=json`:\n{resp}\nwant: {want}"
    );
    assert!(resp.contains("\"chains\":[[0,1]]"), "{resp}");

    // A source that fails to compile is a 422, like every other endpoint.
    let bad = format!("{{\"source\":{}}}", Json::Str("int ;".into()));
    let (status, resp) = http::post(addr, "/analyze", &bad).unwrap();
    assert_eq!(status, 422, "{resp}");
}

#[test]
fn verify_endpoint_reports_clean_kernel() {
    let addr = spawn_daemon(1);
    let body = format!("{{\"source\":{}}}", src_json());
    let (status, resp) = http::post(addr, "/verify", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("verify_errors").and_then(Json::as_f64), Some(0.0));
    assert!(v
        .get("text")
        .and_then(Json::as_str)
        .unwrap()
        .contains("static verification"));
}

/// `cache.<field>` of a parsed reply.
fn cache_num(v: &Json, field: &str) -> f64 {
    v.get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no cache.{field} in {v}"))
}

fn cache_flag(v: &Json, field: &str) -> bool {
    v.get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("no cache.{field} in {v}"))
}

/// A reply with its `cache` object masked: the answer itself.
fn answer(v: &Json) -> String {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

fn post_json(addr: std::net::SocketAddr, path: &str, body: &str) -> Json {
    let (status, resp) = http::post(addr, path, body).unwrap();
    assert_eq!(status, 200, "{path}: {resp}");
    parse(&resp).unwrap()
}

fn health_counter(addr: std::net::SocketAddr, layer: &str, counter: &str) -> f64 {
    let (_, health) = http::get(addr, "/health").unwrap();
    parse(&health)
        .unwrap()
        .get(layer)
        .and_then(|p| p.get(counter))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {layer}.{counter} in {health}"))
}

#[test]
fn repeated_request_is_counter_verified_cache_hit() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{},\"verify\":true}}", src_json());

    // Cold: program miss, real region compiles.
    let cold = post_json(addr, "/compile", &body);
    assert!(!cache_flag(&cold, "program_hit"));
    assert!(!cache_flag(&cold, "result_hit"));
    assert!(cache_num(&cold, "region_compiles") >= 1.0);
    assert_eq!(cache_num(&cold, "region_hits"), 0.0);

    // The same request again: answered from the program's entry — no
    // region looked up, none compiled, the same text.
    let again = post_json(addr, "/compile", &body);
    assert!(cache_flag(&again, "program_hit") && cache_flag(&again, "result_hit"));
    assert_eq!(cache_num(&again, "region_compiles"), 0.0);
    assert_eq!(cache_num(&again, "region_hits"), 0.0);
    assert_eq!(answer(&cold), answer(&again));

    // /verify on the warm program is a new question over warm regions:
    // all artifact hits, zero compiles.
    let verify = post_json(addr, "/verify", &format!("{{\"source\":{}}}", src_json()));
    assert!(cache_flag(&verify, "program_hit") && !cache_flag(&verify, "result_hit"));
    assert_eq!(cache_num(&verify, "region_compiles"), 0.0);
    assert!(cache_num(&verify, "region_hits") >= 1.0);

    // /run on the same (source, options): the parse is skipped (program
    // cache hit from /compile). The first /run still compiles once — the
    // runtime resolves this region's dims to (192,1,128), a different
    // artifact than /compile's requested (192,8,128) — but a /run at a
    // second `n` is an answer miss over warm artifacts: zero parses, zero
    // compiles in-session.
    let run = |n: u64| {
        post_json(
            addr,
            "/run",
            &format!("{{\"source\":{},\"n\":{n}}}", src_json()),
        )
    };
    let r1 = run(256);
    assert!(cache_flag(&r1, "program_hit") && !cache_flag(&r1, "result_hit"));
    assert!(cache_num(&r1, "session_compiles") >= 1.0);
    let r2 = run(512);
    assert!(cache_flag(&r2, "program_hit") && !cache_flag(&r2, "result_hit"));
    assert_eq!(
        cache_num(&r2, "session_compiles"),
        0.0,
        "warm /run must not compile: artifacts were cached by the first /run"
    );
    assert_ne!(answer(&r1), answer(&r2), "a second n is a second answer");

    // The first `n` again is remembered: byte-identical results, no
    // session at all.
    let r3 = run(256);
    assert!(cache_flag(&r3, "result_hit"));
    assert_eq!(cache_num(&r3, "session_compiles"), 0.0);
    assert_eq!(answer(&r1), answer(&r3));

    // /health shows every layer's hits.
    assert!(health_counter(addr, "programs", "hits") >= 4.0);
    assert!(health_counter(addr, "regions", "hits") >= 2.0);
    assert_eq!(health_counter(addr, "results", "hits"), 2.0);
    assert_eq!(health_counter(addr, "results", "misses"), 4.0);
}

/// The answer key is the decoded options: both spellings of `dims` are
/// one answer, and a field the pass does not read does not split it.
#[test]
fn answers_are_keyed_by_decoded_options() {
    let addr = spawn_daemon(1);
    let body = |dims: &str| format!("{{\"source\":{},\"dims\":{dims}}}", src_json());
    let array = post_json(addr, "/verify", &body("[192,8,128]"));
    let string = post_json(addr, "/verify", &body("\"192,8,128\""));
    assert!(!cache_flag(&array, "result_hit") && cache_flag(&string, "result_hit"));
    assert_eq!(answer(&array), answer(&string));
    let ignored = post_json(
        addr,
        "/verify",
        &format!("{{\"source\":{},\"dims\":[192,8,128],\"n\":7}}", src_json()),
    );
    assert!(cache_flag(&ignored, "result_hit"));
}

/// `/certify` shares the program cache: two identical requests parse
/// once between them — certification's two problem sizes included —
/// and the second is answered from the first.
#[test]
fn certify_parses_once_and_remembers_its_answer() {
    let addr = spawn_daemon(1);
    let body = format!("{{\"source\":{}}}", src_json());
    let first = post_json(addr, "/certify", &body);
    assert_eq!(health_counter(addr, "programs", "parses"), 1.0);
    let second = post_json(addr, "/certify", &body);
    assert_eq!(health_counter(addr, "programs", "parses"), 1.0);
    assert!(!cache_flag(&first, "program_hit") && !cache_flag(&first, "result_hit"));
    assert!(cache_flag(&second, "program_hit") && cache_flag(&second, "result_hit"));
    assert_eq!(answer(&first), answer(&second));
}

/// Certification ignores `n` (it runs at `driver::CERT_NS`), so an `n`
/// that does not even decode changes nothing: the same 200 answer, the
/// second time from memory.
#[test]
fn certify_ignores_n_even_when_malformed() {
    let addr = spawn_daemon(1);
    let first = post_json(
        addr,
        "/certify",
        &format!("{{\"source\":{},\"n\":64}}", src_json()),
    );
    let bogus = post_json(
        addr,
        "/certify",
        &format!("{{\"source\":{},\"n\":\"bogus\"}}", src_json()),
    );
    assert!(cache_flag(&bogus, "result_hit"));
    assert_eq!(answer(&first), answer(&bogus));
}

/// An evicted program takes its answers with it: with room for one
/// program, a repeat after another program displaced it is answered
/// from scratch.
#[test]
fn evicting_a_program_drops_its_answers() {
    let (addr, _daemon) = service::spawn(
        DaemonConfig {
            workers: 1,
            program_cache_cap: 1,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let a = format!("{{\"source\":{}}}", src_json());
    let b = format!(
        "{{\"source\":{}}}",
        Json::Str(format!("{SRC}// another program\n"))
    );
    post_json(addr, "/analyze", &a);
    let hot = post_json(addr, "/analyze", &a);
    assert!(cache_flag(&hot, "program_hit") && cache_flag(&hot, "result_hit"));
    post_json(addr, "/analyze", &b);
    let evicted = post_json(addr, "/analyze", &a);
    assert!(!cache_flag(&evicted, "program_hit") && !cache_flag(&evicted, "result_hit"));
    assert_eq!(answer(&hot), answer(&evicted));
}

/// A failing pass is never remembered: a program that parses but cannot
/// run at this `n` is a 422 with the same bytes every time, each time
/// computed afresh.
#[test]
fn failures_are_not_remembered() {
    let addr = spawn_daemon(1);
    let body = format!("{{\"source\":{},\"n\":1000000000000}}", src_json());
    let first = http::post(addr, "/run", &body).unwrap();
    assert_eq!(first.0, 422, "{}", first.1);
    assert_eq!(http::post(addr, "/run", &body).unwrap(), first);
    assert_eq!(health_counter(addr, "results", "hits"), 0.0);
    assert_eq!(health_counter(addr, "results", "misses"), 2.0);
}

#[test]
fn validation_errors_are_strict_and_rendered() {
    let addr = spawn_daemon(1);

    // Garbage JSON.
    let (status, resp) = http::post(addr, "/run", "{not json").unwrap();
    assert_eq!(status, 400);
    assert!(resp.contains("invalid JSON"));

    // Missing source.
    let (status, resp) = http::post(addr, "/run", "{}").unwrap();
    assert_eq!(status, 400);
    assert!(resp.contains("source"));

    // Garbage numeric field: same diagnostic the CLI renders for flags.
    let body = format!("{{\"source\":{},\"n\":\"bogus\"}}", src_json());
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(
        resp.contains("invalid value for n: expected a non-negative integer, got `bogus`"),
        "{resp}"
    );

    // Negative and fractional numbers are rejected the same way.
    let body = format!("{{\"source\":{},\"host_threads\":-2}}", src_json());
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 400);
    assert!(resp.contains("invalid value for host_threads"), "{resp}");

    // An unknown execution tier (`compiled` was removed): the CLI's diagnostic.
    let body = format!("{{\"source\":{},\"exec_tier\":\"compiled\"}}", src_json());
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 400);
    assert!(
        resp.contains("invalid execution tier `compiled` (expected auto|interpret)"),
        "{resp}"
    );

    let body = format!("{{\"source\":{},\"dims\":[192,8]}}", src_json());
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 400);
    assert!(resp.contains("dims"), "{resp}");

    // Unknown endpoint / bad method.
    let (status, _) = http::post(addr, "/nope", "{}").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http::request(addr, "DELETE", "/run", "").unwrap();
    assert_eq!(status, 405);

    // A program error is 422, with the rendered front-end diagnostic.
    let bad_src = "int N;\n#pragma acc parallel loop\nfor (int i = 0; i < N; i++) { x += 1; }\n";
    let body = format!("{{\"source\":{}}}", Json::Str(bad_src.into()));
    let (status, resp) = http::post(addr, "/run", &body).unwrap();
    assert_eq!(status, 422, "{resp}");
    assert!(resp.contains("error"), "{resp}");
}

#[test]
fn certify_body_matches_cli_driver_byte_for_byte() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{}}}", src_json());
    let (status, resp) = http::post(addr, "/certify", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let want = driver::cert_reports_json(
        &driver::certify_reports(
            SRC,
            &RunRequest {
                dims: driver::certify_dims(),
                ..RunRequest::default()
            },
            |_| {},
        )
        .unwrap(),
    );
    assert!(
        resp.contains(&format!("\"certification\":{want}")),
        "daemon /certify body does not embed the CLI --certify=json output verbatim:\n{resp}\nwant: {want}"
    );
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn certify_text_format_and_format_validation() {
    let addr = spawn_daemon(2);
    let body = format!("{{\"source\":{},\"format\":\"text\"}}", src_json());
    let (status, resp) = http::post(addr, "/certify", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    let txt = v.get("text").and_then(Json::as_str).unwrap();
    assert!(
        txt.contains("CERTIFIED (modulo FP reassociation)"),
        "double `+` reduction should certify modulo reassociation:\n{txt}"
    );

    // Garbage format: a malformed option value is HTTP 400 like every
    // other, with the same rendered diagnostic the CLI prints for
    // `--certify=yaml` (both go through `driver::Options::set`).
    let body = format!("{{\"source\":{},\"format\":\"yaml\"}}", src_json());
    let (status, resp) = http::post(addr, "/certify", &body).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("expected `text` or `json`"), "{resp}");
}
