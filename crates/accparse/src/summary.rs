//! # Region summaries — the source-side facts redcert validates against
//!
//! An IR-free, per-region digest of the analyzed program: the set of
//! reduction triples `(var, op, identity)`, the loop-nest iteration
//! spaces, and the element-wise outputs (arrays the region stores to,
//! with their data directions). The translation validator
//! (`uhacc-core::cert`) consumes these to label observables and render
//! reports; they are deliberately descriptive — the authoritative
//! reference semantics is the HIR itself.

use crate::ast::{CType, DataDir, Level, RedOp};
use crate::hir::{visit_stmts, AnalyzedProgram, HExpr, HExprKind, HStmt, Sym};

/// One reduction clause as the paper's `(var, op, identity)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionTriple {
    pub var: String,
    pub op: RedOp,
    /// The operator's identity element, rendered for the element type
    /// ([`RedOp::identity_text`]).
    pub identity: String,
    pub ty: CType,
    pub clause_levels: Vec<Level>,
    pub span_levels: Vec<Level>,
}

impl ReductionTriple {
    /// `(s, +, 0)` — the rendering used in certification reports.
    pub fn render(&self) -> String {
        format!(
            "({}, {}, {})",
            self.var,
            self.op.clause_token(),
            self.identity
        )
    }
}

/// One loop of the region's nest with its iteration space, rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpace {
    pub var: String,
    pub lower: String,
    pub bound: String,
    pub step: String,
    pub levels: Vec<Level>,
    /// 0 = outermost loop of the region.
    pub depth: usize,
}

/// An array the region stores to.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSummary {
    pub array: String,
    pub dir: Option<DataDir>,
}

/// The per-region source summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSummary {
    pub region: usize,
    pub reductions: Vec<ReductionTriple>,
    pub loops: Vec<LoopSpace>,
    pub outputs: Vec<OutputSummary>,
    pub hosts_written: Vec<String>,
}

fn sym_name(prog: &AnalyzedProgram, region: usize, sym: Sym) -> String {
    match sym {
        Sym::Host(h) => prog
            .hosts
            .get(h)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("host{h}")),
        Sym::Local(l) => prog.regions[region]
            .locals
            .get(l)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("local{l}")),
    }
}

/// Render an HIR expression compactly (for iteration-space bounds).
pub fn expr_text(prog: &AnalyzedProgram, region: usize, e: &HExpr) -> String {
    match &e.kind {
        HExprKind::Int(v) => v.to_string(),
        HExprKind::Float(v) => format!("{v}"),
        HExprKind::Sym(s) => sym_name(prog, region, *s),
        HExprKind::Load { array, indices } => {
            let idx = indices
                .iter()
                .map(|i| expr_text(prog, region, i))
                .collect::<Vec<_>>()
                .join("][");
            format!("{}[{idx}]", prog.arrays[*array].name)
        }
        HExprKind::Un { op, operand } => {
            format!("{op:?}({})", expr_text(prog, region, operand)).to_lowercase()
        }
        HExprKind::Bin { op, lhs, rhs, .. } => format!(
            "({} {op:?} {})",
            expr_text(prog, region, lhs),
            expr_text(prog, region, rhs)
        ),
        HExprKind::Cond { cond, then, els } => format!(
            "({} ? {} : {})",
            expr_text(prog, region, cond),
            expr_text(prog, region, then),
            expr_text(prog, region, els)
        ),
        HExprKind::Call { func, args } => format!(
            "{func:?}({})",
            args.iter()
                .map(|a| expr_text(prog, region, a))
                .collect::<Vec<_>>()
                .join(", ")
        )
        .to_lowercase(),
        HExprKind::Cast { operand } => {
            format!("({:?}){}", e.ty, expr_text(prog, region, operand)).to_lowercase()
        }
    }
}

/// Summarize one region of the analyzed program.
pub fn summarize_region(prog: &AnalyzedProgram, region: usize) -> RegionSummary {
    let r = &prog.regions[region];
    let mut reductions = Vec::new();
    let mut loops = Vec::new();
    let mut stored: Vec<usize> = Vec::new();
    visit_stmts(&r.body, &mut |s, chain| match s {
        HStmt::Store { array, .. } if !stored.contains(array) => stored.push(*array),
        HStmt::Loop(l) => {
            let var = r
                .locals
                .get(l.var)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("local{}", l.var));
            loops.push(LoopSpace {
                var,
                lower: expr_text(prog, region, &l.lower),
                bound: expr_text(prog, region, &l.bound),
                step: expr_text(prog, region, &l.step),
                levels: l.sched.clone(),
                depth: chain.len(),
            });
            for red in &l.reductions {
                reductions.push(ReductionTriple {
                    var: sym_name(prog, region, red.sym),
                    op: red.op,
                    identity: red.op.identity_text(red.ty).to_string(),
                    ty: red.ty,
                    clause_levels: red.clause_levels.clone(),
                    span_levels: red.span_levels.clone(),
                });
            }
        }
        _ => {}
    });
    let outputs = stored
        .into_iter()
        .map(|a| OutputSummary {
            array: prog.arrays[a].name.clone(),
            dir: r.data.iter().find(|d| d.array == a).map(|d| d.dir),
        })
        .collect();

    RegionSummary {
        region,
        reductions,
        loops,
        outputs,
        hosts_written: r
            .hosts_written
            .iter()
            .map(|&h| prog.hosts[h].name.clone())
            .collect(),
    }
}

/// Summaries for every region of the program.
pub fn summarize(prog: &AnalyzedProgram) -> Vec<RegionSummary> {
    (0..prog.regions.len())
        .map(|i| summarize_region(prog, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_reduction_triple_and_space() {
        let src = r#"
            int N; int s;
            int a[N];
            #pragma acc parallel copyin(a)
            {
                #pragma acc loop gang vector reduction(+:s)
                for (int i = 0; i < N; i++) { s += a[i]; }
            }
        "#;
        let prog = crate::compile(src).unwrap();
        let sums = summarize(&prog);
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert_eq!(s.reductions.len(), 1);
        assert_eq!(s.reductions[0].render(), "(s, +, 0)");
        assert_eq!(s.loops.len(), 1);
        assert_eq!(s.loops[0].var, "i");
        assert_eq!(s.loops[0].lower, "0");
        assert_eq!(s.loops[0].bound, "N");
        assert_eq!(s.loops[0].depth, 0);
        assert!(s.outputs.is_empty());
        assert_eq!(s.hosts_written, vec!["s".to_string()]);
    }
}
