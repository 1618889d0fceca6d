//! Stripped-clause lint sweep over the §6 reduction grid.
//!
//! For every legal (position, operator, type) case of the testsuite, two
//! properties tie the lint layer to the paper's semantics:
//!
//! 1. **Stripped** — removing the `reduction` clause from the generated
//!    source must produce exactly one `L100` missing-reduction finding
//!    whose suggested clause (operator, variable) and detected span match
//!    the clause that was removed (the span is the position's levels,
//!    Table 2).
//! 2. **Intact** — the unmodified source must lint completely clean: the
//!    checks add no false positives on the very codes they exist to
//!    protect.

use crate::cases::{case_source, ctype_name, Position};
use crate::report::{format_sweep, verdict, SweepRow};
use crate::run::SuiteConfig;
use accparse::ast::{CType, RedOp};
use accparse::lint::{lint_source, FindingKind};

/// One (position, op, type) outcome of the sweep.
#[derive(Debug, Clone)]
pub struct LintSweepRow {
    pub label: String,
    /// Codes reported on the intact source (must be empty).
    pub intact_codes: Vec<String>,
    /// Codes reported on the stripped source.
    pub stripped_codes: Vec<String>,
    /// Did the stripped source produce exactly one `L100` whose suggested
    /// clause matches the stripped one (operator, variable and span)?
    pub suggestion_matches: bool,
    /// Failure detail when something did not hold.
    pub detail: Option<String>,
}

impl LintSweepRow {
    /// Both properties held.
    pub fn ok(&self) -> bool {
        self.intact_codes.is_empty() && self.suggestion_matches
    }
}

/// Remove every `reduction(...)` clause from a directive source.
pub fn strip_reduction_clauses(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(pos) = rest.find("reduction(") {
        let (before, after) = rest.split_at(pos);
        out.push_str(before.trim_end_matches(' '));
        let close = after.find(')').map(|c| c + 1).unwrap_or(after.len());
        rest = &after[close..];
    }
    out.push_str(rest);
    out
}

/// The variable each position's clause names (see [`case_source`]).
fn clause_var(pos: Position) -> &'static str {
    match pos {
        Position::Worker | Position::WorkerVector => "j_sum",
        Position::Vector => "i_sum",
        _ => "sum",
    }
}

/// Run the sweep for one case.
pub fn lint_case(pos: Position, op: RedOp, t: CType) -> LintSweepRow {
    let label = format!("{} {} {}", pos.label(), op, ctype_name(t));
    let src = case_source(pos, op, t);

    let intact_codes = match lint_source(&src) {
        Ok((_, findings)) => findings.iter().map(|f| f.code().to_string()).collect(),
        Err(d) => {
            return LintSweepRow {
                label,
                intact_codes: vec!["compile-error".into()],
                stripped_codes: Vec::new(),
                suggestion_matches: false,
                detail: Some(d.render(&src)),
            }
        }
    };

    let stripped = strip_reduction_clauses(&src);
    let (stripped_codes, suggestion_matches, detail) = match lint_source(&stripped) {
        Ok((_, findings)) => {
            let codes: Vec<String> = findings.iter().map(|f| f.code().to_string()).collect();
            let missing: Vec<&FindingKind> = findings
                .iter()
                .filter(|f| matches!(f.kind, FindingKind::MissingReduction { .. }))
                .map(|f| &f.kind)
                .collect();
            match missing.as_slice() {
                [FindingKind::MissingReduction {
                    var,
                    op: found_op,
                    span_levels,
                    ..
                }] => {
                    let ok =
                        var == clause_var(pos) && *found_op == op && *span_levels == pos.levels();
                    let detail = (!ok).then(|| {
                        format!(
                            "suggested reduction({}:{}) span {:?}, stripped \
                             reduction({}:{}) span {:?}",
                            found_op,
                            var,
                            span_levels,
                            op,
                            clause_var(pos),
                            pos.levels()
                        )
                    });
                    (codes, ok, detail)
                }
                other => (
                    codes,
                    false,
                    Some(format!("expected exactly one L100, got {other:?}")),
                ),
            }
        }
        Err(d) => (
            vec!["compile-error".into()],
            false,
            Some(d.render(&stripped)),
        ),
    };

    LintSweepRow {
        label,
        intact_codes,
        stripped_codes,
        suggestion_matches,
        detail,
    }
}

/// Run the full sweep: every position × all nine operators × all four
/// types, skipping illegal combinations.
pub fn run_lint_sweep() -> Vec<LintSweepRow> {
    let types = [CType::Int, CType::Long, CType::Float, CType::Double];
    let mut rows = Vec::new();
    for pos in Position::all() {
        for op in RedOp::ALL {
            for t in types {
                if op.admits(t) {
                    rows.push(lint_case(pos, op, t));
                }
            }
        }
    }
    rows
}

/// The whole sweep as `acc-testsuite --lint` runs it: the report and
/// whether every row passed. (No simulation: `cfg` is not consulted.)
pub fn sweep(_cfg: &SuiteConfig) -> (String, bool) {
    let rows = run_lint_sweep();
    (format_lint_sweep(&rows), rows.iter().all(|r| r.ok()))
}

/// The sweep as a table.
pub fn format_lint_sweep(rows: &[LintSweepRow]) -> String {
    let rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            label: r.label.clone(),
            cells: vec![
                if r.intact_codes.is_empty() {
                    "clean".to_string()
                } else {
                    r.intact_codes.join(",")
                },
                r.stripped_codes.join(","),
                verdict(r.ok()),
            ],
            failed: !r.ok(),
            detail: r.detail.clone(),
        })
        .collect();
    format_sweep(
        &["case", "intact", "stripped", "verdict"],
        &rows,
        "failed: intact sources lint clean and every stripped clause is re-suggested exactly",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_only_the_clause() {
        let src = "#pragma acc loop gang reduction(+:sum)\nfor (int i = 0; i < N; i++) {}";
        let s = strip_reduction_clauses(src);
        assert_eq!(s, "#pragma acc loop gang\nfor (int i = 0; i < N; i++) {}");
        // No clause: unchanged.
        assert_eq!(strip_reduction_clauses("x + y"), "x + y");
        // Multiple clauses all removed.
        let two = "reduction(+:a) mid reduction(max:b) end";
        assert_eq!(strip_reduction_clauses(two), " mid end");
    }

    #[test]
    fn full_sweep_holds() {
        let rows = run_lint_sweep();
        // 7 positions x (4 ops x 4 types + 5 int-only ops x 2 types).
        assert_eq!(rows.len(), 7 * (4 * 4 + 5 * 2));
        let bad: Vec<&LintSweepRow> = rows.iter().filter(|r| !r.ok()).collect();
        assert!(
            bad.is_empty(),
            "{}",
            format_lint_sweep(&bad.into_iter().cloned().collect::<Vec<_>>())
        );
    }
}
