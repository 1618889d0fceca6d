//! `uhbench compare <dir-a> <dir-b>`: per (workload, metric) both
//! values, the delta and the gate — the tool behind the repeatability
//! criterion and behind parent-vs-change tables. `dir-a` is the base.

use crate::json::{parse, Json};
use crate::metrics::{def, Better, Gate};
use crate::workloads::NAMES;
use std::path::Path;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    ExactMismatch,
    Info,
}

/// Judge `b` against base `a` for one metric.
pub fn judge(better: Better, gate: Gate, a: f64, b: f64) -> Verdict {
    match gate {
        Gate::Info => Verdict::Info,
        Gate::Exact if a == b => Verdict::Ok,
        Gate::Exact => Verdict::ExactMismatch,
        Gate::Bound(bound) => {
            let worsening = match better {
                Better::Lower => b - a,
                Better::Higher => a - b,
            };
            if worsening > bound * a.abs() {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

fn load(path: &Path) -> Result<Option<Json>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Print the table; `Ok(false)` when any row is `worse`, mismatched, or a
/// run reported failures.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let mut good = true;
    let mut rows = 0;
    println!(
        "{:<13} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "delta", "gate"
    );
    for name in NAMES {
        for ext in ["json", "layers.json"] {
            let (Some(ja), Some(jb)) = (
                load(&a.join(name).with_extension(ext))?,
                load(&b.join(name).with_extension(ext))?,
            ) else {
                continue;
            };
            for (side, j) in [("a", &ja), ("b", &jb)] {
                if j.get("correct") != Some(&Json::Bool(true)) {
                    println!("{name:<13} run {side} ({ext}) reported failures");
                    good = false;
                }
            }
            let (ma, mb) = (ja.get("metrics"), jb.get("metrics"));
            for (metric, va) in ma.map_or(&[][..], Json::fields) {
                let value =
                    |j: Option<&Json>| j.and_then(|v| v.get("value")).and_then(Json::as_f64);
                let (Some(d), Some(x), Some(y)) = (
                    def(metric),
                    value(Some(va)),
                    value(mb.and_then(|m| m.get(metric))),
                ) else {
                    continue;
                };
                let verdict = judge(d.better, d.gate, x, y);
                let delta = if x != 0.0 {
                    format!("{:+.2}%", (y - x) / x * 100.0)
                } else {
                    "-".into()
                };
                let gate = match d.gate {
                    Gate::Bound(g) => format!("{:.0}%", g * 100.0),
                    Gate::Exact => "exact".into(),
                    Gate::Info => "-".into(),
                };
                let label = match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::ExactMismatch => "exact-mismatch",
                    Verdict::Info => "",
                };
                good &= matches!(verdict, Verdict::Ok | Verdict::Info);
                rows += 1;
                println!(
                    "{name:<13} {metric:<34} {x:>16.4} {y:>16.4} {delta:>9} {gate:>7}  {label}"
                );
            }
        }
    }
    if rows == 0 {
        return Err(format!(
            "no result files in common between {} and {}",
            a.display(),
            b.display()
        ));
    }
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_shares_of_the_base_in_the_worse_direction() {
        use Better::*;
        assert_eq!(judge(Lower, Gate::Bound(0.1), 100.0, 109.9), Verdict::Ok);
        assert_eq!(judge(Lower, Gate::Bound(0.1), 100.0, 110.1), Verdict::Worse);
        assert_eq!(judge(Lower, Gate::Bound(0.1), 100.0, 50.0), Verdict::Ok);
        assert_eq!(judge(Higher, Gate::Bound(0.1), 100.0, 90.1), Verdict::Ok);
        assert_eq!(judge(Higher, Gate::Bound(0.1), 100.0, 89.0), Verdict::Worse);
        assert_eq!(judge(Higher, Gate::Bound(0.1), 100.0, 500.0), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_tolerate_nothing_and_info_judges_nothing() {
        use Better::*;
        assert_eq!(judge(Lower, Gate::Exact, 7.0, 7.0), Verdict::Ok);
        assert_eq!(judge(Lower, Gate::Exact, 7.0, 6.0), Verdict::ExactMismatch);
        assert_eq!(judge(Lower, Gate::Info, 1.0, 9.0), Verdict::Info);
    }
}
