//! Golden-diff tests for the machine-readable lint output: the JSON
//! rendering is a stable interface (editor integrations parse it), so
//! any change to field order, span layout or message text must show up
//! as an explicit diff here.

use uhacc::parse::diag::{diags_to_json, lint_report_json, LINT_SCHEMA_VERSION};
use uhacc::parse::lint::lint_source;

fn lint_json(src: &str) -> String {
    let (_, findings) = lint_source(src).expect("compile");
    let diags: Vec<_> = findings.into_iter().map(|f| f.diag).collect();
    diags_to_json(&diags, src)
}

fn report_json(src: &str) -> String {
    let (_, findings) = lint_source(src).expect("compile");
    let diags: Vec<_> = findings.into_iter().map(|f| f.diag).collect();
    lint_report_json(&diags, src)
}

#[test]
fn clean_program_is_empty_array() {
    let src = "int N; double s;\n\
               double a[N];\n\
               s = 0;\n\
               #pragma acc parallel copyin(a)\n\
               {\n\
               #pragma acc loop gang vector reduction(+:s)\n\
               for (int i = 0; i < N; i++) { s += a[i]; }\n\
               }\n";
    assert_eq!(lint_json(src), "[]");
}

#[test]
fn missing_reduction_json_golden() {
    let src = "int N; double s;\n\
               double a[N];\n\
               s = 0;\n\
               #pragma acc parallel copyin(a)\n\
               {\n\
               #pragma acc loop gang vector\n\
               for (int i = 0; i < N; i++) { s += a[i]; }\n\
               }\n";
    let expected = concat!(
        "[{\"severity\":\"error\",\"code\":\"L100\",",
        "\"message\":\"`s` is accumulated across iterations of a parallel loop ",
        "without a `reduction` clause\",",
        "\"span\":{\"start\":129,\"end\":130,\"line\":7,\"column\":31},",
        "\"notes\":[",
        "{\"message\":\"concurrent iterations race on the read-modify-write of `s`\",",
        "\"span\":null},",
        "{\"message\":\"the accumulated value of `s` is copied back to the host ",
        "after the region\",\"span\":null},",
        "{\"message\":\"detected reduction span: gang vector (every parallelism ",
        "level between the next use and the update)\",\"span\":null}],",
        "\"fixit\":{\"message\":\"add this clause to the `gang vector` loop\",",
        "\"insert\":\"reduction(+:s)\",",
        "\"at\":{\"start\":70,\"end\":77,\"line\":6,\"column\":1}}}]",
    );
    assert_eq!(lint_json(src), expected);
}

#[test]
fn missing_reduction_without_an_admissible_clause_json_golden() {
    // `||` needs an integer variable: no fix-it, and a note in sema's words.
    let src = "int N; double s;\n\
               double a[N];\n\
               s = 0;\n\
               #pragma acc parallel copyin(a)\n\
               {\n\
               #pragma acc loop gang vector\n\
               for (int i = 0; i < N; i++) { s = s || a[i]; }\n\
               }\n";
    let expected = concat!(
        "[{\"severity\":\"error\",\"code\":\"L100\",",
        "\"message\":\"`s` is accumulated across iterations of a parallel loop ",
        "without a `reduction` clause\",",
        "\"span\":{\"start\":133,\"end\":141,\"line\":7,\"column\":35},",
        "\"notes\":[",
        "{\"message\":\"concurrent iterations race on the read-modify-write of `s`\",",
        "\"span\":null},",
        "{\"message\":\"the accumulated value of `s` is copied back to the host ",
        "after the region\",\"span\":null},",
        "{\"message\":\"detected reduction span: gang vector (every parallelism ",
        "level between the next use and the update)\",\"span\":null},",
        "{\"message\":\"a `||` reduction needs an integer variable, but `s` is ",
        "`double`\",\"span\":null}],",
        "\"fixit\":null}]",
    );
    assert_eq!(lint_json(src), expected);
}

#[test]
fn warning_json_golden() {
    let src = "int N;\n\
               double a[N];\n\
               double b[N];\n\
               double c[N];\n\
               #pragma acc parallel copyin(a) copyin(c) copyout(b)\n\
               {\n\
               #pragma acc loop gang vector\n\
               for (int i = 0; i < N; i++) { b[i] = a[i] + 1.0; }\n\
               }\n";
    let expected = concat!(
        "[{\"severity\":\"warning\",\"code\":\"L402\",",
        "\"message\":\"data clause names `c`, but the region never references it\",",
        "\"span\":{\"start\":46,\"end\":53,\"line\":5,\"column\":1},",
        "\"notes\":[{\"message\":\"remove the clause to avoid a useless transfer\",",
        "\"span\":null}],",
        "\"fixit\":null}]",
    );
    assert_eq!(lint_json(src), expected);
}

#[test]
fn schema_version_envelope_golden() {
    // The versioned envelope `uhacc-cc --lint --json` prints (and the
    // daemon `/lint` endpoint splices): bumping LINT_SCHEMA_VERSION or
    // changing the envelope framing must show up as a diff here.
    assert_eq!(LINT_SCHEMA_VERSION, 2);
    let clean = "int N; double s;\n\
                 double a[N];\n\
                 s = 0;\n\
                 #pragma acc parallel copyin(a)\n\
                 {\n\
                 #pragma acc loop gang vector reduction(+:s)\n\
                 for (int i = 0; i < N; i++) { s += a[i]; }\n\
                 }\n";
    assert_eq!(
        report_json(clean),
        "{\"schema_version\":2,\"diagnostics\":[]}"
    );
}

#[test]
fn relaxation_note_json_golden() {
    // The L210 relaxation note: severity `note`, the commutativity
    // proof, the operator identity and the privatization cost.
    let src = "int N; int B;\n\
               int hist[B]; int bin[N];\n\
               #pragma acc parallel copy(hist) copyin(bin)\n\
               {\n\
               #pragma acc loop gang vector\n\
               for (int i = 0; i < N; i++) { hist[bin[i]] += 1; }\n\
               }\n";
    let expected = concat!(
        "[{\"severity\":\"note\",\"code\":\"L210\",",
        "\"message\":\"carried accesses on `hist` form a `+` reduction; ",
        "the dependence is relaxed\",",
        "\"span\":{\"start\":144,\"end\":148,\"line\":6,\"column\":31},",
        "\"notes\":[",
        "{\"message\":\"proof: all 1 store(s) to `hist` in this parallel loop are ",
        "`hist[e] += v` updates with no other read or write of `hist`, so any ",
        "interleaving commutes\",\"span\":null},",
        "{\"message\":\"identity: 0; privatization cost: one private copy per ",
        "gang+vector lane, combined in a log-depth tree at loop exit\",\"span\":null},",
        "{\"message\":\"the subscripts of `hist` are not analyzable, so a carried ",
        "conflict cannot be excluded\",",
        "\"span\":{\"start\":149,\"end\":154,\"line\":6,\"column\":36}}],",
        "\"fixit\":null}]",
    );
    assert_eq!(lint_json(src), expected);
}

#[test]
fn illegal_reduction_json_golden() {
    // The L211 scan error: the running value of the accumulator escapes
    // into `run[i]` every iteration.
    let src = "int N; double s;\n\
               double a[N]; double run[N];\n\
               s = 0;\n\
               #pragma acc parallel copyin(a) copyout(run)\n\
               {\n\
               #pragma acc loop gang\n\
               for (int i = 0; i < N; i++) { s += a[i]; run[i] = s; }\n\
               }\n";
    let expected = concat!(
        "[{\"severity\":\"error\",\"code\":\"L211\",",
        "\"message\":\"the running value of `s` is consumed inside the parallel ",
        "loop that accumulates it (a scan, not a reduction)\",",
        "\"span\":{\"start\":170,\"end\":171,\"line\":7,\"column\":51},",
        "\"notes\":[",
        "{\"message\":\"`s` is accumulated here\",",
        "\"span\":{\"start\":150,\"end\":151,\"line\":7,\"column\":31}},",
        "{\"message\":\"each iteration observes an unspecified partial value under ",
        "parallel execution; a reduction clause cannot express this \u{2014} mark ",
        "the loop `seq` or restructure as a scan primitive\",\"span\":null}],",
        "\"fixit\":null}]",
    );
    assert_eq!(lint_json(src), expected);
}

#[test]
fn json_is_parseable_shape() {
    // Structural sanity for a multi-finding program: valid JSON array
    // framing, one object per finding, errors ranked before warnings.
    let src = "int N; double s;\n\
               double a[N];\n\
               double dead[N];\n\
               s = 0;\n\
               #pragma acc parallel copyin(a) copyin(dead)\n\
               {\n\
               #pragma acc loop gang\n\
               for (int i = 0; i < N; i++) { s += a[i]; }\n\
               }\n";
    let json = lint_json(src);
    assert!(json.starts_with("[{") && json.ends_with("}]"));
    let err = json.find("\"severity\":\"error\"").expect("has an error");
    let warn = json
        .find("\"severity\":\"warning\"")
        .expect("has a warning");
    assert!(err < warn, "errors must rank before warnings");
    assert!(json.contains("\"code\":\"L100\""));
    assert!(json.contains("\"code\":\"L402\""));
}
