//! `redflow` — reduction-aware dependence classification and
//! cascaded-fusion legality (DESIGN.md §17).
//!
//! The dependence layer ([`crate::dataflow::loop_dependence`]) proves
//! *where* iterations of a parallel loop conflict; it cannot say whether
//! a conflict is harmful. This pass adds the missing judgment for the one
//! benign conflict class the paper cares about: **reduction idioms**. An
//! access pair that races on `a[e]` is harmless when every touch of `a`
//! in the loop is an update `a[e] ⊕= v` with a single associative,
//! commutative operator `⊕` — the updates commute, so any interleaving
//! yields the same result and the dependence can be *relaxed* (Polly's
//! reduction-aware scheduling applies the same rule to polyhedral
//! dependences).
//!
//! Two verdict surfaces are exported:
//!
//! * **Array-reduction classification** ([`classify_array_reduction`]) —
//!   a small lattice over one loop body and one array:
//!
//!   ```text
//!              NotReduction            (no update-shaped store)
//!                   |
//!               Proven{op}             (uniform op, no strays — relax)
//!              /    |     \
//!         Mixed  Escape  Overwrite     (illegal: L211, never relax)
//!   ```
//!
//!   The relaxation rule is deliberately conservative: `Proven` requires
//!   every store to be update-shaped with the *same* operator, and no
//!   read or plain write of the array anywhere else in the loop. Anything
//!   unproven keeps its L200/L201 finding.
//!
//! * **Fusion-legality analysis** ([`fusion_plan`]) — region-level
//!   def/use chains over cascaded parallel regions. Two adjacent regions
//!   are fusable (one back-to-back device launch, no host round-trip)
//!   when the producer's outputs are fully consumed by the consumer, no
//!   interleaved host mutation depends on (or feeds) the pair, the launch
//!   shapes agree, and no write-write or anti-dependence links them. The
//!   plan is machine-readable (`--fusion-plan=json`, uhaccd `/analyze`)
//!   and byte-stable, pinned by goldens.

use crate::ast::{Level, RedOp};
use crate::dataflow::{
    collect_array_accesses, expr_eq, scalar_events, strip_casts, ScalarEventKind,
};
use crate::diag::{json_escape, Span};
use crate::hir::{visit_stmts, AnalyzedProgram, AnalyzedRegion, HExpr, HExprKind, HStmt, Sym};
use crate::reduction::update_form;
use std::collections::BTreeSet;

// ---- array reduction classification -------------------------------------

/// One `a[e] ⊕= v` update site found in a loop body.
#[derive(Debug, Clone, Copy)]
pub struct ArrayUpdateSite {
    pub op: RedOp,
    pub span: Span,
}

/// Raw facts about how one array is touched inside one loop body.
#[derive(Debug, Default)]
pub struct ArrayRedInfo {
    /// Update-shaped stores `a[e] ⊕= v` (self-load with matching
    /// subscripts, operand free of `a`).
    pub updates: Vec<ArrayUpdateSite>,
    /// Stores that are not update-shaped.
    pub plain_writes: Vec<Span>,
    /// Loads of the array outside an update's self-read position
    /// (including loads in subscripts and in other statements).
    pub stray_reads: Vec<Span>,
}

/// Verdict of the array-reduction lattice for one (loop body, array).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrayRedVerdict {
    /// No update-shaped store: an ordinary dependence, not a reduction.
    NotReduction,
    /// Every touch of the array is an `op`-update: the carried dependence
    /// commutes and may be relaxed (L210).
    Proven {
        op: RedOp,
        /// Span of the first update site (diagnostic anchor).
        update: Span,
        /// Number of update sites the proof covers.
        sites: usize,
    },
    /// Update sites disagree on the operator — combining them is
    /// order-sensitive (L211).
    Mixed {
        first_op: RedOp,
        second_op: RedOp,
        first: Span,
        second: Span,
    },
    /// The running value escapes: the array is read outside an update's
    /// self-read position mid-loop (L211).
    Escape { update: Span, read: Span },
    /// A plain (non-update) store overwrites the accumulator (L211).
    Overwrite { update: Span, write: Span },
}

fn is_load_of(e: &HExpr, array: usize) -> bool {
    matches!(&e.kind, HExprKind::Load { array: a, .. } if *a == array)
}

/// Collect spans of every load of `array` in `e`.
fn array_reads(e: &HExpr, array: usize, out: &mut Vec<Span>) {
    e.walk(&mut |n| {
        if is_load_of(n, array) {
            out.push(n.span);
        }
    });
}

/// Recognize a store as an array reduction update ([`update_form`]):
/// `value` is `a[indices] ⊕ v` (either operand order) or
/// `fmax/fmin/max/min(a[indices], v)` where the self-load's subscripts
/// structurally equal the store's and the other operand `v` never loads
/// `a`. Returns the operator and `v`.
pub fn store_update_shape<'a>(
    array: usize,
    indices: &[HExpr],
    value: &'a HExpr,
) -> Option<(RedOp, &'a HExpr)> {
    let is_self = |e: &HExpr| match &strip_casts(e).kind {
        HExprKind::Load {
            array: a,
            indices: ix,
        } => {
            *a == array
                && ix.len() == indices.len()
                && ix.iter().zip(indices).all(|(p, q)| expr_eq(p, q))
        }
        _ => false,
    };
    update_form(strip_casts(value), is_self, |e| {
        !e.any(&mut |n| is_load_of(n, array))
    })
}

/// Gather every update site, plain write and stray read of `array` in
/// `body`, descending through nested control flow and loops (a
/// conditional update still counts — the proof is path-insensitive).
pub fn array_reduction_info(body: &[HStmt], array: usize) -> ArrayRedInfo {
    let mut info = ArrayRedInfo::default();
    visit_stmts(body, &mut |s, _| {
        if let HStmt::Store {
            array: a,
            indices,
            value,
        } = s
        {
            if *a == array {
                if let Some((op, _)) = store_update_shape(array, indices, value) {
                    info.updates.push(ArrayUpdateSite {
                        op,
                        span: value.span,
                    });
                    // The self-load is licensed and the shape check proved
                    // the other operand `a`-free; a load of the target
                    // inside a subscript is still stray.
                    for ix in indices {
                        array_reads(ix, array, &mut info.stray_reads);
                    }
                    return;
                }
                info.plain_writes
                    .push(indices.first().map(|e| e.span).unwrap_or(value.span));
            }
        }
        for e in s.exprs() {
            array_reads(e, array, &mut info.stray_reads);
        }
    });
    info
}

/// Run the array-reduction lattice over one (loop body, array).
pub fn classify_array_reduction(body: &[HStmt], array: usize) -> ArrayRedVerdict {
    let info = array_reduction_info(body, array);
    let Some(first) = info.updates.first() else {
        return ArrayRedVerdict::NotReduction;
    };
    if let Some(second) = info.updates.iter().find(|u| u.op != first.op) {
        return ArrayRedVerdict::Mixed {
            first_op: first.op,
            second_op: second.op,
            first: first.span,
            second: second.span,
        };
    }
    if let Some(read) = info.stray_reads.first() {
        return ArrayRedVerdict::Escape {
            update: first.span,
            read: *read,
        };
    }
    if let Some(write) = info.plain_writes.first() {
        return ArrayRedVerdict::Overwrite {
            update: first.span,
            write: *write,
        };
    }
    ArrayRedVerdict::Proven {
        op: first.op,
        update: first.span,
        sites: info.updates.len(),
    }
}

/// Describe what privatizing the accumulator across `levels` costs —
/// shown on L210 so the relaxation's price is visible before the future
/// fusion-codegen pass commits to it.
pub fn privatization_cost(levels: &[Level]) -> String {
    if levels.is_empty() {
        return "none (sequential loop)".to_string();
    }
    let names: Vec<String> = levels.iter().map(|l| l.to_string()).collect();
    format!(
        "one private copy per {} lane, combined in a log-depth tree at loop exit",
        names.join("+")
    )
}

// ---- fusion-legality analysis -------------------------------------------

/// Launch-shape dimension of a region, normalized for plan output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeDim {
    /// Clause absent (runtime default).
    Absent,
    /// Present with a non-constant expression.
    Expr,
    /// Present with a constant value.
    Const(i64),
}

impl ShapeDim {
    fn of(e: &Option<HExpr>) -> ShapeDim {
        match e {
            None => ShapeDim::Absent,
            Some(e) => match e.const_int() {
                Some(k) => ShapeDim::Const(k),
                None => ShapeDim::Expr,
            },
        }
    }

    fn json(&self) -> String {
        match self {
            ShapeDim::Absent => "null".to_string(),
            ShapeDim::Expr => "\"expr\"".to_string(),
            ShapeDim::Const(k) => k.to_string(),
        }
    }
}

/// One region's def/use summary in the fusion plan.
#[derive(Debug, Clone)]
pub struct PlanRegion {
    pub index: usize,
    /// `"reduce"` when the region carries a reduction (clause or proven
    /// array idiom), `"map"` otherwise.
    pub kind: &'static str,
    /// 1-based source line of the region.
    pub line: u32,
    /// Names (arrays and host scalars) the region writes, sorted.
    pub writes: Vec<String>,
    /// Names the region reads, sorted.
    pub reads: Vec<String>,
    pub gangs: ShapeDim,
    pub workers: ShapeDim,
    pub vector: ShapeDim,
}

/// Fusion verdict for one adjacent region pair.
#[derive(Debug, Clone)]
pub struct FusionPair {
    pub producer: usize,
    pub consumer: usize,
    pub fusable: bool,
    /// Producer outputs the consumer reads (the def/use links), sorted.
    pub links: Vec<String>,
    /// First failed legality condition, `None` when fusable.
    pub reject: Option<String>,
}

/// The full fusion plan for a program.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    pub regions: Vec<PlanRegion>,
    pub pairs: Vec<FusionPair>,
    /// Maximal runs of ≥2 consecutively fusable regions.
    pub chains: Vec<Vec<usize>>,
}

/// Version of the fusion-plan JSON schema. Bump on envelope changes.
pub const FUSION_PLAN_SCHEMA_VERSION: u32 = 1;

/// Internal per-region dataflow facts (index sets, not names).
struct RegionFacts {
    writes_arrays: BTreeSet<usize>,
    reads_arrays: BTreeSet<usize>,
    writes_hosts: BTreeSet<usize>,
    reads_hosts: BTreeSet<usize>,
    span: Span,
}

fn region_facts(r: &AnalyzedRegion) -> RegionFacts {
    let mut accs = Vec::new();
    collect_array_accesses(&r.body, &mut accs);
    let writes_arrays: BTreeSet<usize> = accs
        .iter()
        .filter(|a| a.is_write)
        .map(|a| a.array)
        .collect();
    let reads_arrays: BTreeSet<usize> = accs
        .iter()
        .filter(|a| !a.is_write)
        .map(|a| a.array)
        .collect();
    let writes_hosts: BTreeSet<usize> = r.hosts_written.iter().copied().collect();
    let mut reads_hosts: BTreeSet<usize> = BTreeSet::new();
    for ev in scalar_events(&r.body) {
        if let Sym::Host(h) = ev.sym {
            match ev.kind {
                ScalarEventKind::Read => {
                    reads_hosts.insert(h);
                }
                // An update (clause or plain) folds the scalar's incoming
                // value into the result: a read for dataflow purposes.
                ScalarEventKind::Update(_) | ScalarEventKind::ClauseUpdate(_) => {
                    reads_hosts.insert(h);
                }
                ScalarEventKind::Write => {}
            }
        }
    }
    RegionFacts {
        writes_arrays,
        reads_arrays,
        writes_hosts,
        reads_hosts,
        span: r.span,
    }
}

/// Is this region a reduction region (clause reduction anywhere, or a
/// proven array-reduction idiom in a parallel loop)?
fn region_kind(r: &AnalyzedRegion) -> &'static str {
    let mut reduce = false;
    crate::hir::visit_loops(&r.body, &mut |l| {
        if !l.reductions.is_empty() {
            reduce = true;
        }
        if !l.sched.is_empty() {
            let mut accs = Vec::new();
            collect_array_accesses(&l.body, &mut accs);
            let written: BTreeSet<usize> = accs
                .iter()
                .filter(|a| a.is_write)
                .map(|a| a.array)
                .collect();
            for a in written {
                if matches!(
                    classify_array_reduction(&l.body, a),
                    ArrayRedVerdict::Proven { .. }
                ) {
                    reduce = true;
                }
            }
        }
    });
    if reduce {
        "reduce"
    } else {
        "map"
    }
}

fn shape_compatible(p: &AnalyzedRegion, c: &AnalyzedRegion) -> bool {
    let dim_ok = |a: &Option<HExpr>, b: &Option<HExpr>| match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => expr_eq(x, y),
        _ => false,
    };
    dim_ok(&p.num_gangs, &c.num_gangs)
        && dim_ok(&p.num_workers, &c.num_workers)
        && dim_ok(&p.vector_length, &c.vector_length)
}

/// Build the fusion plan: per-region summaries, adjacent-pair legality
/// verdicts, and maximal fusable chains.
pub fn fusion_plan(p: &AnalyzedProgram) -> FusionPlan {
    let facts: Vec<RegionFacts> = p.regions.iter().map(region_facts).collect();
    let names = |arrays: &BTreeSet<usize>, hosts: &BTreeSet<usize>| -> Vec<String> {
        let mut out: BTreeSet<String> = arrays.iter().map(|a| p.arrays[*a].name.clone()).collect();
        out.extend(hosts.iter().map(|h| p.hosts[*h].name.clone()));
        out.into_iter().collect()
    };
    let regions: Vec<PlanRegion> = p
        .regions
        .iter()
        .zip(&facts)
        .enumerate()
        .map(|(i, (r, f))| PlanRegion {
            index: i,
            kind: region_kind(r),
            line: p.line_of(r.span.start),
            writes: names(&f.writes_arrays, &f.writes_hosts),
            reads: names(&f.reads_arrays, &f.reads_hosts),
            gangs: ShapeDim::of(&r.num_gangs),
            workers: ShapeDim::of(&r.num_workers),
            vector: ShapeDim::of(&r.vector_length),
        })
        .collect();

    let mut pairs = Vec::new();
    for i in 0..p.regions.len().saturating_sub(1) {
        pairs.push(judge_pair(p, &facts, i));
    }

    let mut chains: Vec<Vec<usize>> = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    for pr in &pairs {
        if pr.fusable {
            if run.is_empty() {
                run.push(pr.producer);
            }
            run.push(pr.consumer);
        } else if run.len() >= 2 {
            chains.push(std::mem::take(&mut run));
        } else {
            run.clear();
        }
    }
    if run.len() >= 2 {
        chains.push(run);
    }
    FusionPlan {
        regions,
        pairs,
        chains,
    }
}

fn judge_pair(p: &AnalyzedProgram, facts: &[RegionFacts], i: usize) -> FusionPair {
    let (pf, cf) = (&facts[i], &facts[i + 1]);
    let (pr, cr) = (&p.regions[i], &p.regions[i + 1]);
    let mut link_names: BTreeSet<String> = pf
        .writes_arrays
        .intersection(&cf.reads_arrays)
        .map(|a| p.arrays[*a].name.clone())
        .collect();
    link_names.extend(
        pf.writes_hosts
            .intersection(&cf.reads_hosts)
            .map(|h| p.hosts[*h].name.clone()),
    );
    let links: Vec<String> = link_names.into_iter().collect();
    let reject = |reason: String| FusionPair {
        producer: i,
        consumer: i + 1,
        fusable: false,
        links: links.clone(),
        reject: Some(reason),
    };

    // 1. No interleaved host mutation that depends on the producer (it
    //    would have to run between the fused launches, even when it
    //    mediates the dataflow to the consumer) or re-targets a producer
    //    output (ordering would flip under hoisting). Independent assigns
    //    (`error = 0.0`) commute past both launches and do not block.
    for ha in &p.host_assigns {
        let between = pf.span.end <= ha.span.start && ha.span.end <= cf.span.start;
        if !between {
            continue;
        }
        let depends = ha.value.any(
            &mut |e| matches!(e.kind, HExprKind::Sym(Sym::Host(h)) if pf.writes_hosts.contains(&h)),
        ) || pf.writes_hosts.contains(&ha.host);
        if depends {
            return reject(format!(
                "interleaved host mutation of `{}` between the regions",
                p.hosts[ha.host].name
            ));
        }
    }
    // 2. A def/use link must exist: fusing unrelated launches saves a
    //    round-trip but is a scheduling concern, not a legality fact this
    //    pass certifies.
    if links.is_empty() {
        return reject("no producer-to-consumer dataflow".to_string());
    }
    // 3. Full consumption: every producer output must be read by the
    //    consumer, otherwise a later region (or the host) still expects
    //    the intermediate and the fused kernel cannot retire it.
    for a in &pf.writes_arrays {
        if !cf.reads_arrays.contains(a) {
            return reject(format!(
                "producer output `{}` is not consumed by the next region",
                p.arrays[*a].name
            ));
        }
    }
    for h in &pf.writes_hosts {
        if !cf.reads_hosts.contains(h) {
            return reject(format!(
                "producer output `{}` is not consumed by the next region",
                p.hosts[*h].name
            ));
        }
    }
    // 4. Launch shapes must agree: a fused chain is one launch geometry.
    if !shape_compatible(pr, cr) {
        return reject("launch shapes differ (num_gangs/num_workers/vector_length)".to_string());
    }
    // 5. No write-write conflicts: both regions storing to one array (or
    //    host scalar) is order-sensitive under fused execution.
    if let Some(a) = pf.writes_arrays.intersection(&cf.writes_arrays).next() {
        return reject(format!(
            "both regions write `{}` (write-write conflict)",
            p.arrays[*a].name
        ));
    }
    if let Some(h) = pf.writes_hosts.intersection(&cf.writes_hosts).next() {
        return reject(format!(
            "both regions write `{}` (write-write conflict)",
            p.hosts[*h].name
        ));
    }
    // 6. No anti-dependence: the consumer must not overwrite anything the
    //    producer still reads — fused element-wise execution could feed
    //    the producer an updated value.
    if let Some(a) = pf.reads_arrays.intersection(&cf.writes_arrays).next() {
        return reject(format!(
            "anti-dependence: consumer overwrites `{}` which the producer reads",
            p.arrays[*a].name
        ));
    }
    if let Some(h) = pf.reads_hosts.intersection(&cf.writes_hosts).next() {
        return reject(format!(
            "anti-dependence: consumer overwrites `{}` which the producer reads",
            p.hosts[*h].name
        ));
    }
    FusionPair {
        producer: i,
        consumer: i + 1,
        fusable: true,
        links,
        reject: None,
    }
}

// ---- plan rendering ------------------------------------------------------

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Serialize the plan as byte-stable JSON (hand-rolled, fixed field
/// order; same discipline as [`crate::diag::diags_to_json`]).
pub fn fusion_plan_json(plan: &FusionPlan) -> String {
    let regions: Vec<String> = plan
        .regions
        .iter()
        .map(|r| {
            format!(
                "{{\"index\":{},\"kind\":\"{}\",\"line\":{},\"writes\":{},\"reads\":{},\
                 \"shape\":{{\"gangs\":{},\"workers\":{},\"vector\":{}}}}}",
                r.index,
                r.kind,
                r.line,
                json_str_list(&r.writes),
                json_str_list(&r.reads),
                r.gangs.json(),
                r.workers.json(),
                r.vector.json()
            )
        })
        .collect();
    let pairs: Vec<String> = plan
        .pairs
        .iter()
        .map(|pr| {
            let reject = match &pr.reject {
                Some(r) => format!("\"{}\"", json_escape(r)),
                None => "null".to_string(),
            };
            format!(
                "{{\"producer\":{},\"consumer\":{},\"fusable\":{},\"links\":{},\"reject\":{reject}}}",
                pr.producer,
                pr.consumer,
                pr.fusable,
                json_str_list(&pr.links)
            )
        })
        .collect();
    let chains: Vec<String> = plan
        .chains
        .iter()
        .map(|c| {
            let ids: Vec<String> = c.iter().map(|i| i.to_string()).collect();
            format!("[{}]", ids.join(","))
        })
        .collect();
    format!(
        "{{\"schema_version\":{FUSION_PLAN_SCHEMA_VERSION},\"regions\":[{}],\"pairs\":[{}],\"chains\":[{}]}}",
        regions.join(","),
        pairs.join(","),
        chains.join(",")
    )
}

/// Render the plan for humans (the default `--fusion-plan` output).
pub fn fusion_plan_text(plan: &FusionPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fusion plan: {} region(s), {} fusable pair(s), {} chain(s)\n",
        plan.regions.len(),
        plan.pairs.iter().filter(|p| p.fusable).count(),
        plan.chains.len()
    ));
    for r in &plan.regions {
        out.push_str(&format!(
            "  region {} [{}] line {}: writes {}; reads {}\n",
            r.index,
            r.kind,
            r.line,
            if r.writes.is_empty() {
                "-".to_string()
            } else {
                r.writes.join(", ")
            },
            if r.reads.is_empty() {
                "-".to_string()
            } else {
                r.reads.join(", ")
            },
        ));
    }
    for pr in &plan.pairs {
        match &pr.reject {
            None => out.push_str(&format!(
                "  pair {} -> {}: FUSABLE via {}\n",
                pr.producer,
                pr.consumer,
                pr.links.join(", ")
            )),
            Some(why) => out.push_str(&format!(
                "  pair {} -> {}: blocked ({why})\n",
                pr.producer, pr.consumer
            )),
        }
    }
    for c in &plan.chains {
        let ids: Vec<String> = c.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!("  chain: {}\n", ids.join(" -> ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> AnalyzedProgram {
        crate::compile(src).expect("compile")
    }

    fn loop_body(p: &AnalyzedProgram) -> &[HStmt] {
        match &p.regions[0].body[0] {
            HStmt::Loop(l) => &l.body,
            _ => panic!("no loop"),
        }
    }

    fn one_loop(update: &str) -> String {
        format!(
            "int N;\ndouble a[N]; double b[N]; double c[N];\nint bin[N]; int hist[N];\n\
             #pragma acc parallel copy(a) copy(hist) copyin(b) copyin(c) copyin(bin)\n{{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {{ {update} }}\n}}"
        )
    }

    #[test]
    fn classify_proves_uniform_updates() {
        for (update, op) in [
            ("a[0] = a[0] + b[i];", RedOp::Add),
            ("a[0] += b[i];", RedOp::Add),
            ("a[0] = b[i] + a[0];", RedOp::Add),
            ("a[0] *= b[i];", RedOp::Mul),
            ("a[0] = fmax(a[0], b[i]);", RedOp::Max),
            ("a[0] = fmin(b[i], a[0]);", RedOp::Min),
            ("hist[bin[i]] += 1;", RedOp::Add),
        ] {
            let p = compile(&one_loop(update));
            let arr = if update.starts_with("hist") {
                p.array_index("hist").unwrap()
            } else {
                p.array_index("a").unwrap()
            };
            match classify_array_reduction(loop_body(&p), arr) {
                ArrayRedVerdict::Proven { op: got, sites, .. } => {
                    assert_eq!(got, op, "for `{update}`");
                    assert_eq!(sites, 1, "for `{update}`");
                }
                v => panic!("`{update}` classified {v:?}"),
            }
        }
    }

    #[test]
    fn classify_rejects_illegal_shapes() {
        let p = compile(&one_loop("a[0] += b[i]; a[0] *= c[i];"));
        let a = p.array_index("a").unwrap();
        assert!(matches!(
            classify_array_reduction(loop_body(&p), a),
            ArrayRedVerdict::Mixed {
                first_op: RedOp::Add,
                second_op: RedOp::Mul,
                ..
            }
        ));

        // Mid-loop read of the accumulator escapes the running value.
        let src = "int N;\ndouble a[N]; double b[N]; double out[N];\n\
             #pragma acc parallel copy(a) copyin(b) copyout(out)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { a[0] += b[i]; out[i] = a[0]; }\n}";
        let p = compile(src);
        let a = p.array_index("a").unwrap();
        assert!(matches!(
            classify_array_reduction(loop_body(&p), a),
            ArrayRedVerdict::Escape { .. }
        ));

        let p = compile(&one_loop("a[0] += b[i]; a[0] = c[i];"));
        let a = p.array_index("a").unwrap();
        assert!(matches!(
            classify_array_reduction(loop_body(&p), a),
            ArrayRedVerdict::Overwrite { .. }
        ));

        // Subscript loading the accumulator array itself is a stray read.
        let p = compile(&one_loop("hist[hist[i]] += 1;"));
        let h = p.array_index("hist").unwrap();
        assert!(matches!(
            classify_array_reduction(loop_body(&p), h),
            ArrayRedVerdict::Escape { .. }
        ));

        // `a[i] -= b[i]`-style non-commutative shapes never prove.
        let p = compile(&one_loop("a[0] = a[0] - b[i];"));
        let a = p.array_index("a").unwrap();
        assert_eq!(
            classify_array_reduction(loop_body(&p), a),
            ArrayRedVerdict::NotReduction
        );
    }

    #[test]
    fn conditional_update_still_proves() {
        let p = compile(&one_loop("if (b[i] > 0.0) { a[0] += b[i]; }"));
        let a = p.array_index("a").unwrap();
        assert!(matches!(
            classify_array_reduction(loop_body(&p), a),
            ArrayRedVerdict::Proven { op: RedOp::Add, .. }
        ));
    }

    const CHAIN_SRC: &str = "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
         #pragma acc parallel copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:s)\n\
         for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
         #pragma acc parallel copyin(a)\n{\n\
         #pragma acc loop gang reduction(+:v)\n\
         for (int i = 0; i < N; i++) { v += (a[i] - s / N) * (a[i] - s / N); }\n}";

    #[test]
    fn fusion_plan_finds_legal_chain() {
        let p = compile(CHAIN_SRC);
        let plan = fusion_plan(&p);
        assert_eq!(plan.regions.len(), 2);
        assert_eq!(plan.regions[0].kind, "reduce");
        assert_eq!(plan.pairs.len(), 1);
        assert!(plan.pairs[0].fusable, "{:?}", plan.pairs[0]);
        assert_eq!(plan.pairs[0].links, vec!["s".to_string()]);
        assert_eq!(plan.chains, vec![vec![0, 1]]);
    }

    #[test]
    fn fusion_rejects_interleaved_host_mutation() {
        // `m = s / N` between the regions depends on the producer's
        // reduction output: the chain cannot fuse across it.
        let src = "int N; double s; double m; double v;\ndouble a[N];\ns = 0; v = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
             m = s / N;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:v)\n\
             for (int i = 0; i < N; i++) { v += (a[i] - m) * (a[i] - m); }\n}";
        let p = compile(src);
        let plan = fusion_plan(&p);
        assert!(!plan.pairs[0].fusable);
        assert!(
            plan.pairs[0]
                .reject
                .as_deref()
                .unwrap()
                .contains("interleaved host mutation"),
            "{:?}",
            plan.pairs[0]
        );
        assert!(plan.chains.is_empty());
    }

    #[test]
    fn fusion_rejects_shape_mismatch() {
        let src = "int N; double s; double v;\ndouble a[N];\ns = 0; v = 0;\n\
             #pragma acc parallel num_gangs(64) copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; }\n}\n\
             #pragma acc parallel num_gangs(128) copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:v)\n\
             for (int i = 0; i < N; i++) { v += a[i] * s; }\n}";
        let p = compile(src);
        let plan = fusion_plan(&p);
        assert!(!plan.pairs[0].fusable);
        assert!(plan.pairs[0]
            .reject
            .as_deref()
            .unwrap()
            .contains("launch shapes differ"));
        assert_eq!(plan.regions[0].gangs, ShapeDim::Const(64));
        assert_eq!(plan.regions[1].gangs, ShapeDim::Const(128));
    }

    #[test]
    fn fusion_rejects_unconsumed_output() {
        // The producer also writes `partial`, which the consumer ignores.
        let src = "int N; double s; double v;\ndouble a[N]; double partial[N];\ns = 0; v = 0;\n\
             #pragma acc parallel copyin(a) copyout(partial)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; partial[i] = a[i]; }\n}\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:v)\n\
             for (int i = 0; i < N; i++) { v += a[i] * s; }\n}";
        let p = compile(src);
        let plan = fusion_plan(&p);
        assert!(!plan.pairs[0].fusable);
        assert!(plan.pairs[0]
            .reject
            .as_deref()
            .unwrap()
            .contains("`partial` is not consumed"));
    }

    #[test]
    fn plan_json_is_byte_stable() {
        let p = compile(CHAIN_SRC);
        let a = fusion_plan_json(&fusion_plan(&p));
        let b = fusion_plan_json(&fusion_plan(&p));
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema_version\":1,\"regions\":["), "{a}");
        assert!(a.contains("\"chains\":[[0,1]]"), "{a}");
    }
}
