//! Result formatting: the paper's Table 2 and the Fig. 11 series, and the
//! one table every checker sweep reports through.

use crate::cases::{ctype_name, Position};
use crate::run::{CaseResult, CaseStatus, Cell};
use acc_baselines::Compiler;
use accparse::ast::{CType, RedOp};

/// Find a result in a result set.
pub fn find(
    results: &[CaseResult],
    compiler: Compiler,
    pos: Position,
    op: RedOp,
    t: CType,
) -> Option<&CaseResult> {
    results
        .iter()
        .find(|r| r.compiler == compiler && r.position == pos && r.op == op && r.dtype == t)
}

fn cell(results: &[CaseResult], c: Compiler, pos: Position, op: RedOp, t: CType) -> String {
    match find(results, c, pos, op, t) {
        None => "-".to_string(),
        Some(r) => match r.status.ms() {
            Some(ms) => format!("{ms:.2}"),
            None => r.status.mark().to_string(),
        },
    }
}

/// Render the paper's Table 2 layout: rows are (position, operator), column
/// groups are data types, columns within a group are compilers.
pub fn format_table2(results: &[CaseResult], ops: &[RedOp], dtypes: &[CType]) -> String {
    use std::fmt::Write;
    let compilers = [Compiler::OpenUH, Compiler::PgiLike, Compiler::CapsLike];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Performance results of OpenACC compilers using the reduction testsuite."
    );
    let _ = writeln!(
        out,
        "Time in milliseconds (modelled device time). F = wrong result, CE = compile error.\n"
    );
    let _ = write!(out, "{:<30} {:<4}", "Reduction Position", "Op");
    for t in dtypes {
        for c in compilers {
            let _ = write!(out, " {:>10}", format!("{}[{}]", c.name(), ctype_name(*t)));
        }
    }
    let _ = writeln!(out);
    let width = 30 + 1 + 4 + dtypes.len() * compilers.len() * 11;
    let _ = writeln!(out, "{}", "-".repeat(width));
    for pos in Position::all() {
        for &op in ops {
            let _ = write!(out, "{:<30} {:<4}", pos.label(), op.clause_token());
            for &t in dtypes {
                for c in compilers {
                    let _ = write!(out, " {:>10}", cell(results, c, pos, op, t));
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Render the Fig. 11 view: for each reduction position, one line per
/// (operator, type) with all compiler times side by side — the data behind
/// the paper's bar charts.
pub fn format_fig11(results: &[CaseResult], ops: &[RedOp], dtypes: &[CType]) -> String {
    use std::fmt::Write;
    let compilers = [Compiler::OpenUH, Compiler::PgiLike, Compiler::CapsLike];
    let mut out = String::new();
    for pos in Position::all() {
        let _ = writeln!(
            out,
            "Figure 11 ({}): time in ms, missing bar = failed",
            pos.label()
        );
        for &op in ops {
            for &t in dtypes {
                if find(results, Compiler::OpenUH, pos, op, t).is_none() {
                    continue;
                }
                let _ = write!(out, "  [{}] {:<7}", op.clause_token(), ctype_name(t));
                for c in compilers {
                    let _ = write!(out, " {}={:<10}", c.name(), cell(results, c, pos, op, t));
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Summarize pass/fail counts per compiler (the paper's robustness claim:
/// "only OpenUH passed all of the reduction tests").
pub fn format_summary(results: &[CaseResult]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for c in [Compiler::OpenUH, Compiler::PgiLike, Compiler::CapsLike] {
        let (mut pass, mut fail, mut ce) = (0, 0, 0);
        for r in results.iter().filter(|r| r.compiler == c) {
            match r.status {
                CaseStatus::Pass { .. } => pass += 1,
                CaseStatus::Fail { .. } => fail += 1,
                CaseStatus::CompileError { .. } => ce += 1,
            }
        }
        let _ = writeln!(
            out,
            "{:<10} passed {pass:>3}  wrong {fail:>3}  compile-error {ce:>3}",
            c.name()
        );
    }
    out
}

/// One cell as its line of `BENCH_modelled.json`: the label, the Table-2
/// status and, for a pass, the modelled time in nanoseconds and the
/// session's counts — integers only, in a fixed order, so the file diffs
/// by line and a changed field is found by splitting on `", "`.
pub fn format_cell(cell: &Cell) -> String {
    let counts = match &cell.status {
        CaseStatus::Fail { .. } | CaseStatus::CompileError { .. } => vec![],
        CaseStatus::Pass { ms, stats } => {
            let t = &stats.totals;
            vec![
                ("modelled_ns", (ms * 1e6).round() as u64),
                ("kernel_cycles", stats.kernel_cycles),
                ("launches", stats.launches),
                ("global_transactions", t.global_transactions),
                ("global_accesses", t.global_accesses),
                ("shared_ways", t.shared_ways),
                ("shared_accesses", t.shared_accesses),
                ("warp_insts", t.warp_insts),
                ("lane_insts", t.lane_insts),
                ("barriers", t.barriers),
                ("atomics", t.atomics),
            ]
        }
    };
    let (label, status) = (&cell.label, cell.status.mark());
    let counts: String = (counts.iter())
        .map(|(name, n)| format!(", \"{name}\": {n}"))
        .collect();
    format!(r#"{{"cell": "{label}", "status": "{status}"{counts}}}"#)
}

/// One row of a sweep report. Each checker sweep keeps its own typed row
/// (what it counted, what it expected) and maps it onto this to print.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub label: String,
    /// The columns after the label, the verdict last.
    pub cells: Vec<String>,
    /// The row missed its expectation: counted in the summary line.
    pub failed: bool,
    /// Context, printed under the row when it failed.
    pub detail: Option<String>,
}

/// The verdict cell of a row that either met its expectation or did not.
pub fn verdict(ok: bool) -> String {
    if ok { "ok" } else { "FAIL" }.into()
}

/// Render a sweep as an aligned text table. `head` names every column
/// (the label's first), widths and alignment come from the contents, a
/// failing row is followed by its detail, and the last line reads
/// `N case(s), M <summary>` with M the failing rows.
pub fn format_sweep(head: &[&str], rows: &[SweepRow], summary: &str) -> String {
    use std::fmt::Write;
    fn columns(r: &SweepRow) -> impl Iterator<Item = &str> {
        std::iter::once(r.label.as_str()).chain(r.cells.iter().map(String::as_str))
    }
    let mut wide: Vec<usize> = head.iter().map(|h| h.chars().count()).collect();
    let mut count = vec![true; head.len()];
    for r in rows {
        for ((w, n), c) in wide.iter_mut().zip(&mut count).zip(columns(r)) {
            *w = (*w).max(c.chars().count());
            *n &= c.parse::<u64>().is_ok();
        }
    }
    // Counts flush right, text flush left, the last column unpadded.
    let line = |out: &mut String, cols: &mut dyn Iterator<Item = &str>| {
        for (i, c) in cols.enumerate() {
            let (w, sep) = (wide[i], if i == 0 { "" } else { "  " });
            let _ = match (i + 1 == head.len(), count[i]) {
                (true, _) => write!(out, "{sep}{c}"),
                (false, true) => write!(out, "{sep}{c:>w$}"),
                (false, false) => write!(out, "{sep}{c:<w$}"),
            };
        }
        out.push('\n');
    };
    let mut out = String::new();
    line(&mut out, &mut head.iter().copied());
    let rule = wide.iter().sum::<usize>() + 2 * (wide.len() - 1);
    let _ = writeln!(out, "{}", "-".repeat(rule));
    for r in rows {
        line(&mut out, &mut columns(r));
        for d in r.detail.iter().filter(|_| r.failed).flat_map(|d| d.lines()) {
            let _ = writeln!(out, "    {d}");
        }
    }
    let failed = rows.iter().filter(|r| r.failed).count();
    let _ = writeln!(out, "{} case(s), {failed} {summary}", rows.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(ms: f64) -> CaseStatus {
        CaseStatus::Pass {
            ms,
            stats: Default::default(),
        }
    }

    fn mk(c: Compiler, pos: Position, op: RedOp, t: CType, status: CaseStatus) -> CaseResult {
        CaseResult {
            compiler: c,
            position: pos,
            op,
            dtype: t,
            status,
        }
    }

    #[test]
    fn table_renders_all_statuses() {
        let results = vec![
            mk(
                Compiler::OpenUH,
                Position::Gang,
                RedOp::Add,
                CType::Int,
                pass(1.23),
            ),
            mk(
                Compiler::PgiLike,
                Position::Gang,
                RedOp::Add,
                CType::Int,
                CaseStatus::Fail { detail: "x".into() },
            ),
            mk(
                Compiler::CapsLike,
                Position::Gang,
                RedOp::Add,
                CType::Int,
                CaseStatus::CompileError { msg: "y".into() },
            ),
        ];
        let t = format_table2(&results, &[RedOp::Add], &[CType::Int]);
        assert!(t.contains("1.23"));
        assert!(t.contains(" F"));
        assert!(t.contains("CE"));
        assert!(t.contains("gang"));
        let s = format_summary(&results);
        assert!(s.contains("OpenUH"));
        assert!(s.contains("passed   1"));
    }

    #[test]
    fn fig11_lists_rows() {
        let results = vec![mk(
            Compiler::OpenUH,
            Position::Vector,
            RedOp::Mul,
            CType::Double,
            pass(4.0),
        )];
        let f = format_fig11(&results, &[RedOp::Mul], &[CType::Double]);
        assert!(f.contains("vector"));
        assert!(f.contains("[*] double"));
    }

    fn sweep_row(label: &str, verdict: &str, failed: bool) -> SweepRow {
        SweepRow {
            label: label.into(),
            cells: vec!["12".into(), "certified".into(), verdict.into()],
            failed,
            detail: Some(format!("why {label}\nsecond line")),
        }
    }

    #[test]
    fn sweep_table_details_failures_only_and_keeps_verdicts_apart() {
        let rows = [
            sweep_row("passes", "ok", false),
            sweep_row("a rather longer label", "FAIL", true),
            sweep_row("certified a defect", "FALSE CERTIFIED", true),
        ];
        let text = format_sweep(
            &["case", "n", "got", "verdict"],
            &rows,
            "unexpected outcome(s)",
        );
        // The rule spans every column at its widest.
        let rule = "-".repeat(21 + 2 + 2 + 2 + 9 + 2 + 15);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "case                    n  got        verdict",
                rule.as_str(),
                "passes                 12  certified  ok",
                "a rather longer label  12  certified  FAIL",
                "    why a rather longer label",
                "    second line",
                "certified a defect     12  certified  FALSE CERTIFIED",
                "    why certified a defect",
                "    second line",
                "3 case(s), 2 unexpected outcome(s)",
            ]
        );
        assert!(!text.contains("why passes"));
    }
}
