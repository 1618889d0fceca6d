//! CLI ≡ daemon, against the real thing: for every pass in
//! [`Pass::ALL`], run the built `uhacc-cc` binary and `POST` the same
//! source and options to a spawned `uhaccd`, and hold the daemon's
//! spliced field to the binary's stdout byte for byte, under the
//! correspondence tabled in `crates/uhaccd/src/service.rs`. Exit 0/1 must
//! agree with `ok`/the status, and a program the front end rejects must
//! read the same on stderr as in the 422 body. Every request is sent
//! twice: the repeat is answered from the daemon's memory (`/lint`
//! aside, which remembers nothing) and must hold to the same bytes —
//! hit ≡ miss ≡ CLI.

use std::path::PathBuf;
use std::process::Command;
use uhacc::driver::Pass;
use uhaccd::json::{parse, Json};
use uhaccd::{http, DaemonConfig};

/// A source no front end accepts (`x` is never declared).
const BAD: &str = "int N;\n#pragma acc parallel loop\nfor (int i = 0; i < N; i++) { x += 1; }\n";

/// How one pass is spelled on each surface, and which response field
/// carries the CLI's stdout. No wildcard arm: a new `Pass` variant does
/// not compile until it has a row.
fn row(pass: Pass) -> (&'static [&'static str], &'static str, &'static str) {
    match pass {
        Pass::Compile => (
            &["--emit", "hir,kernel", "--verify", "--dims", "8,2,32"],
            r#","emit":["hir","kernel"],"verify":true,"dims":[8,2,32]"#,
            "text",
        ),
        Pass::Lint => (
            &["--lint", "--json", "--werror"],
            r#","werror":true"#,
            "diagnostics",
        ),
        Pass::Analyze => (&["--fusion-plan=json"], "", "analysis"),
        Pass::Verify => (
            &["--verify", "--compiler", "caps"],
            r#","compiler":"caps""#,
            "text",
        ),
        Pass::Certify => (&["--certify=json"], "", "certification"),
        Pass::Run => (
            &["--run", "--n", "64", "--compiler", "pgi"],
            r#","n":64,"compiler":"pgi""#,
            "results",
        ),
        Pass::Profile => (
            &["--profile=json", "--n", "48", "--exec-tier", "interpret"],
            r#","n":"48","exec_tier":"interpret""#,
            "profile",
        ),
    }
}

/// The header line plus the `static verification` sections of a full
/// `uhacc-cc --verify` listing — what the verify pass renders.
fn verify_sections(full: &str) -> String {
    const RULE: &str = "\n// ---- ";
    let mut pieces = full.split(RULE);
    let mut out = pieces.next().unwrap_or("").to_string();
    for piece in pieces.filter(|p| {
        p.lines()
            .next()
            .is_some_and(|l| l.contains("static verification"))
    }) {
        out.push_str(RULE);
        out.push_str(piece);
    }
    out
}

#[test]
fn every_pass_prints_on_the_cli_what_the_daemon_splices() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bad_path = std::env::temp_dir().join(format!("uhacc-identity-{}.c", std::process::id()));
    std::fs::write(&bad_path, BAD).expect("write the rejected source");
    let mut sources: Vec<PathBuf> = [
        "examples/grid.c",
        "examples/redflow/tp_mean_variance.c",
        "examples/lint/tp_copyin_never_read.c",
    ]
    .iter()
    .map(|p| root.join(p))
    .collect();
    sources.push(bad_path.clone());
    let (addr, _daemon) = uhaccd::spawn(DaemonConfig::default(), "127.0.0.1:0").expect("spawn");

    let mut failed_somewhere = false;
    for path in &sources {
        let src = std::fs::read_to_string(path).expect("example source");
        for pass in Pass::ALL {
            let (args, fields, field) = row(pass);
            let what = format!("{} {args:?}", path.display());
            let cli = Command::new(env!("CARGO_BIN_EXE_uhacc-cc"))
                .arg(path)
                .args(args)
                .output()
                .expect("spawn uhacc-cc");
            let stdout = String::from_utf8(cli.stdout).expect("stdout is UTF-8");
            let stderr = String::from_utf8(cli.stderr).expect("stderr is UTF-8");
            let code = cli.status.code().expect("uhacc-cc exits");
            assert!(code == 0 || code == 1, "{what}: exit {code}\n{stderr}");

            let body = format!("{{\"source\":{}{fields}}}", Json::Str(src.clone()));
            let first = http::post(addr, pass.route(), &body).expect("post");
            let (status, resp) = http::post(addr, pass.route(), &body).expect("post");
            let v = parse(&resp).expect("the daemon answers JSON");
            let result_hit = |v: &Json| {
                v.get("cache")
                    .and_then(|c| c.get("result_hit"))
                    .and_then(Json::as_bool)
            };
            let masked = |r: &str| {
                r.rsplit_once(",\"cache\":")
                    .map_or(r, |(a, _)| a)
                    .to_string()
            };
            assert_eq!(
                (first.0, masked(&first.1)),
                (status, masked(&resp)),
                "{what}: the repeat is the same answer"
            );

            if status == 422 {
                // The program fails the pass: same text, exit 1.
                let error = v.get("error").and_then(Json::as_str).expect("error");
                assert_eq!(stderr, format!("{error}\n"), "{what}");
                assert_eq!((code, stdout.as_str()), (1, ""), "{what}");
                failed_somewhere = true;
                continue;
            }
            assert_eq!(status, 200, "{what}: {resp}");
            let remembered = pass != Pass::Lint;
            let first_hit = result_hit(&parse(&first.1).expect("JSON"));
            assert_eq!(
                first_hit,
                remembered.then_some(false),
                "{what}: {}",
                first.1
            );
            assert_eq!(result_hit(&v), remembered.then_some(true), "{what}: {resp}");
            let ok = v.get("ok").and_then(Json::as_bool).unwrap_or(true)
                && v.get("verify_errors").and_then(Json::as_f64).unwrap_or(0.0) == 0.0;
            assert_eq!(code == 0, ok, "{what}: exit {code} vs {resp}");
            failed_somewhere |= !ok;

            let printed = stdout.strip_suffix('\n').unwrap_or(&stdout);
            let spliced = match pass {
                // A JSON string: compare what it decodes to.
                Pass::Compile => {
                    assert_eq!(
                        v.get(field).and_then(Json::as_str),
                        Some(&*stdout),
                        "{what}"
                    );
                    continue;
                }
                Pass::Verify => {
                    // The CLI prints the compile pass under `--verify`.
                    assert!(stdout.contains(".kernel"), "{what}: full listing expected");
                    let want = verify_sections(&stdout);
                    assert_eq!(v.get(field).and_then(Json::as_str), Some(&*want), "{what}");
                    continue;
                }
                // The `--lint --json` envelope's array.
                Pass::Lint => printed
                    .strip_prefix(&format!(
                        "{{\"schema_version\":{},\"diagnostics\":",
                        uhacc::parse::diag::LINT_SCHEMA_VERSION
                    ))
                    .and_then(|s| s.strip_suffix('}'))
                    .unwrap_or_else(|| panic!("{what}: not a lint envelope: {printed}")),
                Pass::Analyze | Pass::Certify | Pass::Run | Pass::Profile => printed,
            };
            // A raw splice: the CLI's document must appear verbatim as
            // the field's whole value.
            let needle = format!("\"{field}\":{spliced}");
            let at = resp.find(&needle).unwrap_or_else(|| {
                panic!("{what}: `{field}` is not the CLI's stdout\n{resp}\nwant: {spliced}")
            });
            let next = resp[at + needle.len()..].chars().next();
            assert!(matches!(next, Some(',' | '}')), "{what}: {next:?}");
        }
    }
    std::fs::remove_file(&bad_path).ok();
    assert!(
        failed_somewhere,
        "the corpus exercises the failing side too"
    );
}

/// Two uninitialized privates read in one expression: one L304 each, in
/// the order of their reads, with the same bytes from every CLI run (each
/// a fresh process, so a fresh hash seed) and from `/lint`.
#[test]
fn both_uninitialized_privates_report_the_same_bytes_on_both_surfaces() {
    const TWO: &str = "int N;\ndouble a[N]; double b[N];\n\
        #pragma acc parallel copyin(a) copyout(b)\n{\n\
        double t = 1.0; double u = 2.0;\n\
        #pragma acc loop gang private(t, u)\n\
        for (int i = 0; i < N; i++) {\n    b[i] = t * u * a[i];\n}\n}\n";
    let path = std::env::temp_dir().join(format!("uhacc-two-privates-{}.c", std::process::id()));
    std::fs::write(&path, TWO).expect("write the source");
    let runs: Vec<String> = (0..4)
        .map(|_| {
            let out = Command::new(env!("CARGO_BIN_EXE_uhacc-cc"))
                .arg(&path)
                .args(["--lint", "--json"])
                .output()
                .expect("spawn uhacc-cc");
            String::from_utf8(out.stdout).expect("stdout is UTF-8")
        })
        .collect();
    std::fs::remove_file(&path).ok();
    assert!(runs.iter().all(|r| *r == runs[0]), "{runs:#?}");
    let diagnostics = runs[0]
        .trim_end()
        .strip_prefix(&format!(
            "{{\"schema_version\":{},\"diagnostics\":",
            uhacc::parse::diag::LINT_SCHEMA_VERSION
        ))
        .and_then(|s| s.strip_suffix('}'))
        .expect("a lint envelope");
    let (t, u) = (
        diagnostics
            .find("private variable `t`")
            .expect("t reported"),
        diagnostics
            .find("private variable `u`")
            .expect("u reported"),
    );
    assert!(t < u, "{diagnostics}");
    assert_eq!(
        diagnostics.matches("\"code\":\"L304\"").count(),
        2,
        "{diagnostics}"
    );

    let (addr, _daemon) = uhaccd::spawn(DaemonConfig::default(), "127.0.0.1:0").expect("spawn");
    let body = format!("{{\"source\":{}}}", Json::Str(TWO.to_string()));
    let (status, resp) = http::post(addr, Pass::Lint.route(), &body).expect("post");
    assert_eq!(status, 200, "{resp}");
    assert!(
        resp.contains(&format!("\"diagnostics\":{diagnostics}")),
        "`/lint` differs from the CLI\n{resp}\nwant: {diagnostics}"
    );
}
