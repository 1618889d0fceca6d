//! Redflow legality sweep: relaxation (L210) must be *proof-gated*.
//!
//! The sweep is the mutated-corpus pin for the reduction-aware dependence
//! analysis, in the style of the stripped-clause L100 sweep
//! ([`crate::lintsweep`]):
//!
//! 1. **Legal** — for every reduction operator, an array-accumulator
//!    loop whose carried conflict is provably commutative must be
//!    relaxed to exactly one `L210` note — no `L200`/`L201` error and
//!    no `L211`.
//! 2. **Mutated** — breaking the idiom (swapping the operator mid-loop,
//!    reading the accumulator between updates, plainly overwriting it,
//!    turning it into a genuine recurrence or a scan) must re-arm the
//!    error path (`L211` or `L200`) and must never leave a stale `L210`
//!    relaxation behind. A single false relaxation here is a
//!    miscompile-grade bug, so the sweep fails the build.
//! 3. **Fusion** — cascaded-region verdicts are pinned the same way:
//!    a legal producer→consumer reduction chain must be reported
//!    fusable, and each illegal mutation (interleaved host mutation,
//!    launch-shape mismatch, unconsumed intermediate) must be rejected
//!    with its specific reason. Plans must render byte-identically when
//!    analyzed twice (the committed golden relies on this).

use crate::cases::update_stmt;
use crate::report::{format_sweep, verdict, SweepRow};
use crate::run::SuiteConfig;
use accparse::ast::{CType, RedOp};
use accparse::lint::lint_source;
use accparse::redflow::{fusion_plan, fusion_plan_json};

/// One case of the sweep.
#[derive(Debug, Clone)]
pub struct RedflowRow {
    pub label: String,
    /// What the case expects, for the report (`L210`, `L211`, ...).
    pub expect: String,
    /// What the analysis produced.
    pub got: String,
    pub ok: bool,
}

/// Lint `src` and return the sorted, deduplicated code list.
fn codes_of(src: &str) -> Result<Vec<String>, String> {
    let (_, findings) = lint_source(src).map_err(|d| d.render(src))?;
    let mut codes: Vec<String> = findings.iter().map(|f| f.code().to_string()).collect();
    codes.sort();
    codes.dedup();
    Ok(codes)
}

fn row(label: &str, expect: &str, src: &str, want: &[&str], forbid: &[&str]) -> RedflowRow {
    match codes_of(src) {
        Ok(codes) => {
            let ok = want.iter().all(|w| codes.iter().any(|c| c == w))
                && !forbid.iter().any(|f| codes.iter().any(|c| c == f));
            RedflowRow {
                label: label.to_string(),
                expect: expect.to_string(),
                got: if codes.is_empty() {
                    "clean".to_string()
                } else {
                    codes.join(",")
                },
                ok,
            }
        }
        Err(e) => RedflowRow {
            label: label.to_string(),
            expect: expect.to_string(),
            got: format!("compile-error: {}", e.lines().next().unwrap_or("")),
            ok: false,
        },
    }
}

/// The legal array-accumulator loop for `op`: every iteration folds
/// `b[i]` into `acc[0]`, a same-element carried conflict that commutes.
fn legal_source(op: RedOp) -> String {
    let ty = if op.admits(CType::Double) {
        CType::Double
    } else {
        CType::Int
    };
    let update = update_stmt(op, ty.is_float(), "acc[0]", "b[i]");
    format!(
        "int N;\n{ty} acc[N]; {ty} b[N];\n\
         #pragma acc parallel copy(acc) copyin(b)\n{{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) {{ {update} }}\n}}"
    )
}

/// A fusable two-region mean→variance chain (shared by several cases).
const CHAIN: &str = "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
     #pragma acc parallel copyin(a)\n{\n\
     #pragma acc loop gang reduction(+:s)\n\
     for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
     #pragma acc parallel copyin(a)\n{\n\
     #pragma acc loop gang reduction(+:v)\n\
     for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}";

/// Judge one fusion-plan expectation: compile, analyze, and check the
/// first pair's verdict (and reject reason, when one is expected).
fn fusion_row(label: &str, src: &str, want_fusable: bool, want_reject: Option<&str>) -> RedflowRow {
    let expect = match want_reject {
        Some(r) => format!("reject: {r}"),
        None if want_fusable => "fusable".to_string(),
        None => "not fusable".to_string(),
    };
    let prog = match accparse::compile(src) {
        Ok(p) => p,
        Err(d) => {
            return RedflowRow {
                label: label.to_string(),
                expect,
                got: format!(
                    "compile-error: {}",
                    d.render(src).lines().next().unwrap_or("")
                ),
                ok: false,
            }
        }
    };
    let plan = fusion_plan(&prog);
    let Some(pair) = plan.pairs.first() else {
        return RedflowRow {
            label: label.to_string(),
            expect,
            got: "no region pair".to_string(),
            ok: false,
        };
    };
    let got = match &pair.reject {
        Some(r) => format!("reject: {r}"),
        None => "fusable".to_string(),
    };
    let ok = pair.fusable == want_fusable
        && match want_reject {
            Some(r) => pair.reject.as_deref().is_some_and(|g| g.contains(r)),
            None => true,
        };
    RedflowRow {
        label: label.to_string(),
        expect,
        got,
        ok,
    }
}

/// Run the full legality sweep.
pub fn run_redflow_sweep() -> Vec<RedflowRow> {
    let mut rows = Vec::new();

    // 1. Legal relaxations: one L210 per operator, nothing else.
    for op in RedOp::ALL {
        rows.push(row(
            &format!("legal {op} array accumulator"),
            "L210 only",
            &legal_source(op),
            &["L210"],
            &["L200", "L201", "L211"],
        ));
    }
    // Histogram: indirect subscript is unanalyzable, yet provably a
    // reduction — the exact case the paper's §6 grid cannot express.
    rows.push(row(
        "legal histogram hist[bin[i]] += 1",
        "L210 only",
        "int N; int B;\nint hist[B]; int bin[N];\n\
         #pragma acc parallel copy(hist) copyin(bin)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { hist[bin[i]] += 1; }\n}",
        &["L210"],
        &["L200", "L201", "L211"],
    ));
    // Two same-operator update sites with overlapping footprints.
    rows.push(row(
        "legal two-site same-op updates",
        "L210 only",
        "int N;\ndouble a[N]; double b[N]; double c[N];\n\
         #pragma acc parallel copy(a) copyin(b) copyin(c)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { a[i] += b[i]; a[i + 1] += c[i]; }\n}",
        &["L210"],
        &["L200", "L201", "L211"],
    ));

    // 2. Mutations: every broken idiom re-arms an error, and no L210
    //    false relaxation survives.
    rows.push(row(
        "mutated operator swapped mid-loop",
        "L211, no L210",
        "int N;\ndouble a[N]; double b[N]; double c[N];\n\
         #pragma acc parallel copy(a) copyin(b) copyin(c)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { a[0] += b[i]; a[0] *= c[i]; }\n}",
        &["L211"],
        &["L210"],
    ));
    rows.push(row(
        "mutated accumulator read between updates",
        "L211, no L210",
        "int N; int B;\nint hist[B]; int bin[N]; int last[N];\n\
         #pragma acc parallel copy(hist) copyin(bin) copyout(last)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { hist[bin[i]] += 1; last[i] = hist[bin[i]]; }\n}",
        &["L211"],
        &["L210"],
    ));
    rows.push(row(
        "mutated plain overwrite of accumulator",
        "L211, no L210",
        "int N;\ndouble a[N]; double b[N];\n\
         #pragma acc parallel copy(a) copyin(b)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { a[0] += b[i]; a[0] = 0.0; }\n}",
        &["L211"],
        &["L210"],
    ));
    rows.push(row(
        "mutated genuine recurrence a[i] = a[i-1]",
        "L200, no L210",
        "int N;\ndouble a[N]; double b[N];\n\
         #pragma acc parallel copy(a) copyin(b)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 1; i < N; i++) { a[i] = a[i - 1] + b[i]; }\n}",
        &["L200"],
        &["L210"],
    ));
    rows.push(row(
        "mutated scalar scan escapes mid-loop",
        "L211, no L210",
        "int N; double s;\ndouble a[N]; double run[N];\ns = 0;\n\
         #pragma acc parallel copyin(a) copyout(run)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { s += a[i]; run[i] = s; }\n}",
        &["L211"],
        &["L210"],
    ));
    rows.push(row(
        "mutated scalar mixing + and *",
        "L211, no L210",
        "int N; double s;\ndouble a[N]; double b[N];\ns = 1;\n\
         #pragma acc parallel copyin(a) copyin(b)\n{\n\
         #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
         s += a[i];\n\
         #pragma acc loop vector\nfor (int j = 0; j < N; j++) { s *= b[j]; }\n}\n}",
        &["L211"],
        &["L210"],
    ));
    rows.push(row(
        "mutated indirect self-subscript hist[hist[i]]",
        "L211, no L210",
        "int N;\nint hist[N];\n\
         #pragma acc parallel copy(hist)\n{\n\
         #pragma acc loop gang\n\
         for (int i = 0; i < N; i++) { hist[hist[i]] += 1; }\n}",
        &["L211"],
        &["L210"],
    ));

    // 3. Fusion-legality verdicts.
    rows.push(fusion_row(
        "fusion legal mean->variance chain",
        CHAIN,
        true,
        None,
    ));
    rows.push(fusion_row(
        "fusion rejects interleaved host mutation",
        "int N; double s; double m; double v;\ndouble a[N];\ns = 0; v = 0;\n\
         #pragma acc parallel copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:s)\n\
         for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
         m = s / N;\n\
         #pragma acc parallel copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:v)\n\
         for (int i = 0; i < N; i++) { v += (a[i] - m) * (a[i] - m); }\n}",
        false,
        Some("interleaved host mutation"),
    ));
    rows.push(fusion_row(
        "fusion rejects launch-shape mismatch",
        "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
         #pragma acc parallel num_gangs(64) copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:s)\n\
         for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
         #pragma acc parallel num_gangs(128) copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:v)\n\
         for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}",
        false,
        Some("launch shapes differ"),
    ));
    rows.push(fusion_row(
        "fusion rejects unconsumed intermediate",
        "int N; double s; double v;\ndouble a[N]; double partial[N];\ns = 0; v = 0;\n\
         #pragma acc parallel copyin(a) copyout(partial)\n{\n\
         #pragma acc loop gang reduction(+:s)\n\
         for (int i = 0; i < N; i++) { s += a[i]; partial[i] = a[i]; }\n}\n\
         #pragma acc parallel copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:v)\n\
         for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}",
        false,
        Some("not consumed"),
    ));

    // 4. Determinism: rendering the same plan twice is byte-identical.
    {
        let prog = accparse::compile(CHAIN).expect("chain compiles");
        let a = fusion_plan_json(&fusion_plan(&prog));
        let b = fusion_plan_json(&fusion_plan(&prog));
        rows.push(RedflowRow {
            label: "fusion plan JSON is byte-stable".to_string(),
            expect: "identical renders".to_string(),
            got: if a == b {
                "identical".to_string()
            } else {
                "DIFFER".to_string()
            },
            ok: a == b,
        });
    }

    rows
}

/// The whole sweep as `acc-testsuite --redflow` runs it: the report and
/// whether every row passed. (No simulation: `cfg` is not consulted.)
pub fn sweep(_cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_redflow_sweep();
    (format_redflow_sweep(&rows), rows.iter().all(|r| r.ok))
}

/// The sweep as a table.
pub fn format_redflow_sweep(rows: &[RedflowRow]) -> String {
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            label: r.label.clone(),
            cells: vec![r.expect.clone(), r.got.clone(), verdict(r.ok)],
            failed: !r.ok,
            detail: None,
        })
        .collect();
    format_sweep(
        &["case", "expect", "got", "verdict"],
        &rows,
        "failed: every relaxation is proof-gated and every mutation re-arms the error path",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_redflow_sweep_holds() {
        let rows = run_redflow_sweep();
        // 9 operators + 2 extra legal + 7 mutations + 4 fusion + 1
        // determinism case.
        assert_eq!(rows.len(), 9 + 2 + 7 + 4 + 1);
        let bad: Vec<RedflowRow> = rows.iter().filter(|r| !r.ok).cloned().collect();
        assert!(bad.is_empty(), "{}", format_redflow_sweep(&bad));
    }

    #[test]
    fn zero_false_relaxations_on_mutations() {
        // The sweep's hard guarantee, asserted directly: no mutated case
        // reports L210.
        for r in run_redflow_sweep() {
            if r.label.starts_with("mutated") {
                assert!(!r.got.contains("L210"), "false relaxation: {r:?}");
            }
        }
    }
}
