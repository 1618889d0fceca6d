//! `acclint` — source-level reduction and data-clause dataflow lints.
//!
//! Runs the [`crate::dataflow`] analyses over an [`AnalyzedProgram`] and
//! reports ranked diagnostics. The rule catalog (see DESIGN.md §13):
//!
//! | code | severity | check |
//! |------|----------|-------|
//! | L100 | error    | reduction-shaped accumulation in a parallel loop with no `reduction` clause (fix-it suggests the exact clause and placement, §3.2.1, when sema admits the variable's type) |
//! | L101 | error    | `reduction` clause placed below the loop whose iterations consume the value (span not fully covered) |
//! | L102 | warning  | reduction variable read (non-update) inside the reduction loop — observes an unspecified partial value |
//! | L103 | warning  | `reduction` clause whose variable is never updated under the loop |
//! | L104 | error    | reduction updates at different parallelism depths (rejected by codegen) |
//! | L200 | error    | loop-carried dependence on affine array subscripts in a parallel loop |
//! | L201 | warning  | unanalyzable subscripts — a carried dependence cannot be excluded |
//! | L210 | note     | carried dependence proven to be a reduction idiom ([`crate::redflow`]) — relaxed; reports the operator, identity and privatization cost |
//! | L211 | error    | reduction-shaped updates that mix operators, or whose running value escapes mid-loop (scan) |
//! | L300 | warning  | `copyin` array never read by the region |
//! | L301 | warning  | `copyout` array never written by the region |
//! | L304 | warning  | `private` variable read before it is assigned |
//! | L400 | warning  | duplicate variable in a clause |
//! | L401 | warning  | data clause shadowed by an enclosing `acc data` binding |
//! | L402 | warning  | data clause names an array the region never references |

use crate::ast::{DataDir, Level, RedOp};
use crate::dataflow::{
    collect_array_accesses, consume_liveness, loop_dependence, loop_key, read_before_write,
    scalar_events, varying_syms, DepResult, Liveness, LoopKey, ScalarEvent, ScalarEventKind,
};
use crate::diag::{Diag, Span};
use crate::hir::{visit_loops, visit_stmts, AnalyzedProgram, AnalyzedRegion, HLoop, HStmt, Sym};
use crate::redflow::{self, ArrayRedVerdict};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Machine-readable payload of a lint finding (the diagnostic carries the
/// human-readable rendering; tests and the sweep assert on this).
#[derive(Debug, Clone, PartialEq)]
pub enum FindingKind {
    MissingReduction {
        var: String,
        op: RedOp,
        /// Schedule of the loop the clause should be written on.
        clause_loop_levels: Vec<Level>,
        /// Full detected span (paper §3.2.1), outermost level first.
        span_levels: Vec<Level>,
    },
    SpanMismatch {
        var: String,
        /// Parallelism levels between the consume point and the clause
        /// loop that the clause does not cover.
        uncovered: Vec<Level>,
    },
    ReductionReadInside {
        var: String,
    },
    DeadReduction {
        var: String,
    },
    MixedDepthUpdates {
        var: String,
    },
    LoopCarried {
        array: String,
        /// Iteration distance; `None` = every iteration hits the same
        /// element.
        distance: Option<i64>,
    },
    Unanalyzable {
        array: String,
    },
    /// A carried dependence proven benign by the redflow pass: every
    /// touch of the array is an `op`-update, so the conflict commutes.
    ReductionRelaxed {
        array: String,
        op: RedOp,
    },
    /// A reduction idiom that is *not* legal: operators mix, the running
    /// value escapes mid-loop, or a plain write clobbers the accumulator.
    /// `var` names the scalar or array accumulator.
    ReductionIllegal {
        var: String,
    },
    CopyinNeverRead {
        array: String,
    },
    CopyoutNeverWritten {
        array: String,
    },
    PrivateReadBeforeWrite {
        var: String,
    },
    DuplicateClauseVar {
        var: String,
    },
    ShadowedDataClause {
        array: String,
    },
    DeadDataClause {
        array: String,
    },
}

impl FindingKind {
    /// The stable diagnostic code of this finding.
    pub fn code(&self) -> &'static str {
        match self {
            FindingKind::MissingReduction { .. } => "L100",
            FindingKind::SpanMismatch { .. } => "L101",
            FindingKind::ReductionReadInside { .. } => "L102",
            FindingKind::DeadReduction { .. } => "L103",
            FindingKind::MixedDepthUpdates { .. } => "L104",
            FindingKind::LoopCarried { .. } => "L200",
            FindingKind::Unanalyzable { .. } => "L201",
            FindingKind::ReductionRelaxed { .. } => "L210",
            FindingKind::ReductionIllegal { .. } => "L211",
            FindingKind::CopyinNeverRead { .. } => "L300",
            FindingKind::CopyoutNeverWritten { .. } => "L301",
            FindingKind::PrivateReadBeforeWrite { .. } => "L304",
            FindingKind::DuplicateClauseVar { .. } => "L400",
            FindingKind::ShadowedDataClause { .. } => "L401",
            FindingKind::DeadDataClause { .. } => "L402",
        }
    }
}

/// One lint finding: a structured payload plus its rendered diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: FindingKind,
    pub diag: Diag,
}

impl Finding {
    /// The stable diagnostic code of this finding.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

/// Parse, analyze and lint `src`. A parse/sema error aborts linting.
pub fn lint_source(src: &str) -> Result<(AnalyzedProgram, Vec<Finding>), Diag> {
    let p = crate::compile(src)?;
    let findings = lint_program(&p);
    Ok((p, findings))
}

/// Run every lint over an analyzed program. Findings are ranked errors
/// first, then by source position.
pub fn lint_program(p: &AnalyzedProgram) -> Vec<Finding> {
    let mut out = Vec::new();
    for (ri, r) in p.regions.iter().enumerate() {
        let cx = RegionCx::new(p, r);
        cx.missing_reduction(&mut out);
        cx.reduction_clause_lints(&mut out);
        cx.illegal_scalar_reductions(&mut out);
        cx.loop_carried(&mut out);
        cx.data_clause_lints(ri, &mut out);
        cx.private_lints(&mut out);
        cx.duplicate_lints(&mut out);
    }
    out.sort_by_key(|f| (f.diag.severity, f.diag.span.start, f.diag.span.end));
    out
}

/// A loop together with its enclosing-loop chain (outermost first,
/// excluding the loop itself).
struct LoopInfo<'a> {
    l: &'a HLoop,
    chain: Vec<&'a HLoop>,
}

fn common_prefix_len(a: &[&HLoop], b: &[&HLoop]) -> usize {
    a.iter()
        .zip(b.iter())
        .take_while(|(x, y)| loop_key(x) == loop_key(y))
        .count()
}

fn levels_of(chain: &[&HLoop]) -> Vec<Level> {
    let set: BTreeSet<Level> = chain.iter().flat_map(|l| l.sched.iter().copied()).collect();
    set.into_iter().collect()
}

fn fmt_levels(levels: &[Level]) -> String {
    levels
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Where a scalar's accumulated value is next consumed.
enum ConsumePoint {
    /// Read at the given span, under the given loop depth.
    Read(Span),
    /// Copied back to the host after the region.
    RegionExit,
}

struct RegionCx<'a> {
    p: &'a AnalyzedProgram,
    r: &'a AnalyzedRegion,
    events: Vec<ScalarEvent<'a>>,
    loops: Vec<LoopInfo<'a>>,
    liveness: Liveness,
    hosts_written: HashSet<Sym>,
}

impl<'a> RegionCx<'a> {
    fn new(p: &'a AnalyzedProgram, r: &'a AnalyzedRegion) -> Self {
        let events = scalar_events(&r.body);
        let mut loops = Vec::new();
        visit_stmts(&r.body, &mut |s, chain| {
            if let HStmt::Loop(l) = s {
                loops.push(LoopInfo {
                    l,
                    chain: chain.to_vec(),
                });
            }
        });
        let hosts_written: HashSet<Sym> = r.hosts_written.iter().map(|h| Sym::Host(*h)).collect();
        let liveness = consume_liveness(&r.body, &hosts_written);
        RegionCx {
            p,
            r,
            events,
            loops,
            liveness,
            hosts_written,
        }
    }

    fn sym_name(&self, sym: Sym) -> &str {
        match sym {
            Sym::Host(h) => &self.p.hosts[h].name,
            Sym::Local(l) => &self.r.locals[l].name,
        }
    }

    fn array_name(&self, a: usize) -> &str {
        &self.p.arrays[a].name
    }

    /// Find the shallowest consume point of `sym`'s updates: the place its
    /// accumulated value is next used (paper §3.2.1's placement question).
    /// Returns the consume-chain depth plus the witnessing point, or
    /// `None` when the value is never consumed. Sets `*intra_loop` when a
    /// read observes the running value inside the updates' innermost loop
    /// (a scan, not a reduction).
    fn consume_point(
        &self,
        updates: &[&ScalarEvent<'a>],
        reads: &[&ScalarEvent<'a>],
        sym: Sym,
        intra_loop: &mut bool,
    ) -> Option<(usize, ConsumePoint)> {
        let mut best: Option<(usize, ConsumePoint)> = None;
        for u in updates {
            for rd in reads {
                let eff = common_prefix_len(&rd.chain, &u.chain);
                if eff == u.chain.len() {
                    *intra_loop = true;
                } else if (rd.order > u.order || eff > 0)
                    && best.as_ref().is_none_or(|(d, _)| eff < *d)
                {
                    best = Some((eff, ConsumePoint::Read(rd.span)));
                }
            }
        }
        if self.hosts_written.contains(&sym) {
            best = Some((0, ConsumePoint::RegionExit));
        }
        best
    }

    // ---- L100 -----------------------------------------------------------

    fn missing_reduction(&self, out: &mut Vec<Finding>) {
        let mut syms: Vec<Sym> = Vec::new();
        for ev in &self.events {
            if matches!(ev.kind, ScalarEventKind::Update(_)) && !syms.contains(&ev.sym) {
                syms.push(ev.sym);
            }
        }
        for sym in syms {
            // A clause already covers this symbol somewhere: partial
            // coverage is L101's job.
            if self
                .events
                .iter()
                .any(|e| e.sym == sym && matches!(e.kind, ScalarEventKind::ClauseUpdate(_)))
            {
                continue;
            }
            let updates: Vec<&ScalarEvent<'a>> = self
                .events
                .iter()
                .filter(|e| e.sym == sym && matches!(e.kind, ScalarEventKind::Update(_)))
                .collect();
            let reads: Vec<&ScalarEvent<'a>> = self
                .events
                .iter()
                .filter(|e| e.sym == sym && e.kind == ScalarEventKind::Read)
                .collect();
            let writes: Vec<&ScalarEvent<'a>> = self
                .events
                .iter()
                .filter(|e| e.sym == sym && e.kind == ScalarEventKind::Write)
                .collect();
            let mut intra_loop = false;
            let Some((depth, point)) = self.consume_point(&updates, &reads, sym, &mut intra_loop)
            else {
                continue; // value never consumed: dead accumulation
            };
            if intra_loop {
                continue; // running value observed per iteration: a scan
            }
            // Group updates by the loop the clause belongs on: the loop
            // just inside the consume point, along each update's chain.
            let mut groups: BTreeMap<LoopKey, Vec<&ScalarEvent<'a>>> = BTreeMap::new();
            for u in &updates {
                if u.chain.len() > depth {
                    groups.entry(loop_key(u.chain[depth])).or_default().push(u);
                }
            }
            for us in groups.values() {
                self.report_missing_reduction(sym, depth, &point, us, &writes, out);
            }
        }
    }

    fn report_missing_reduction(
        &self,
        sym: Sym,
        depth: usize,
        point: &ConsumePoint,
        updates: &[&ScalarEvent<'a>],
        writes: &[&ScalarEvent<'a>],
        out: &mut Vec<Finding>,
    ) {
        let candidate = updates[0].chain[depth];
        let ScalarEventKind::Update(op) = updates[0].kind else {
            return;
        };
        // All updates must agree on the operator to suggest one clause.
        if updates
            .iter()
            .any(|u| u.kind != ScalarEventKind::Update(op))
        {
            return;
        }
        // A plain write inside the candidate loop re-initializes the
        // accumulator every iteration: no cross-iteration accumulation.
        let cand_chain = &updates[0].chain[..depth + 1];
        if writes.iter().any(|w| {
            w.chain.len() >= cand_chain.len()
                && common_prefix_len(&w.chain, cand_chain) == cand_chain.len()
        }) {
            return;
        }
        // Detected span (§3.2.1): every parallelism level from the
        // candidate loop down to each update site.
        let mut span_levels: BTreeSet<Level> = BTreeSet::new();
        for u in updates {
            span_levels.extend(levels_of(&u.chain[depth..]));
        }
        let span_levels: Vec<Level> = span_levels.into_iter().collect();
        if span_levels.is_empty() {
            return; // purely sequential accumulation is fine
        }
        // The accumulated value must actually survive the candidate loop.
        if !self.hosts_written.contains(&sym)
            && !self
                .liveness
                .live_after_loop
                .get(&loop_key(candidate))
                .is_some_and(|s| s.contains(&sym))
        {
            return;
        }
        let var = self.sym_name(sym).to_string();
        let cand_sched = candidate.sched.clone();
        let loop_desc = if cand_sched.is_empty() {
            "loop".to_string()
        } else {
            format!("`{}` loop", fmt_levels(&cand_sched))
        };
        let mut diag = Diag::new(
            format!(
                "`{var}` is accumulated across iterations of a parallel loop \
                 without a `reduction` clause"
            ),
            updates[0].span,
        )
        .with_code("L100")
        .with_note(format!(
            "concurrent iterations race on the read-modify-write of `{var}`"
        ));
        diag = match point {
            ConsumePoint::Read(span) => diag.with_note_at(
                format!("the accumulated value of `{var}` is next used here"),
                *span,
            ),
            ConsumePoint::RegionExit => diag.with_note(format!(
                "the accumulated value of `{var}` is copied back to the host after the region"
            )),
        };
        diag = diag.with_note(format!(
            "detected reduction span: {} (every parallelism level between \
             the next use and the update)",
            fmt_levels(&span_levels)
        ));
        // Suggest only a clause sema accepts; otherwise say why not.
        let ty = match sym {
            Sym::Host(h) => self.p.hosts[h].ty,
            Sym::Local(l) => self.r.locals[l].ty,
        };
        diag = match op.refusal(&var, ty) {
            Some(refusal) => diag.with_note(refusal),
            None => diag.with_fixit(
                format!("add this clause to the {loop_desc}"),
                format!("reduction({}:{var})", op.clause_token()),
                candidate.span,
            ),
        };
        out.push(Finding {
            kind: FindingKind::MissingReduction {
                var,
                op,
                clause_loop_levels: cand_sched,
                span_levels,
            },
            diag,
        });
    }

    // ---- L101 / L102 / L103 / L104 --------------------------------------

    fn reduction_clause_lints(&self, out: &mut Vec<Finding>) {
        for info in &self.loops {
            for red in &info.l.reductions {
                let var = self.sym_name(red.sym).to_string();
                if !red.has_update {
                    out.push(Finding {
                        kind: FindingKind::DeadReduction { var: var.clone() },
                        diag: Diag::warning(
                            format!(
                                "`reduction` clause on `{var}`, but `{var}` is never \
                                 updated under this loop"
                            ),
                            red.span,
                        )
                        .with_code("L103")
                        .with_note("the clause has no effect; remove it or add the update"),
                    });
                    continue;
                }
                if red.mixed_updates {
                    out.push(Finding {
                        kind: FindingKind::MixedDepthUpdates { var: var.clone() },
                        diag: Diag::new(
                            format!(
                                "reduction variable `{var}` is updated at different \
                                 parallelism depths"
                            ),
                            red.span,
                        )
                        .with_code("L104")
                        .with_note(
                            "a single per-thread accumulator over-counts the shallower \
                             update site; hoist the updates to one depth",
                        ),
                    });
                }
                self.span_mismatch(info, red, &var, out);
                self.read_inside_clause_loop(info, red, &var, out);
            }
        }
    }

    fn span_mismatch(
        &self,
        info: &LoopInfo<'a>,
        red: &crate::hir::Reduction,
        var: &str,
        out: &mut Vec<Finding>,
    ) {
        let sym = red.sym;
        let updates: Vec<&ScalarEvent<'a>> = self
            .events
            .iter()
            .filter(|e| {
                e.sym == sym
                    && matches!(e.kind, ScalarEventKind::ClauseUpdate(_))
                    && e.chain.iter().any(|l| loop_key(l) == loop_key(info.l))
            })
            .collect();
        if updates.is_empty() {
            return;
        }
        let reads: Vec<&ScalarEvent<'a>> = self
            .events
            .iter()
            .filter(|e| e.sym == sym && e.kind == ScalarEventKind::Read)
            .collect();
        let mut intra_loop = false;
        let Some((depth, _)) = self.consume_point(&updates, &reads, sym, &mut intra_loop) else {
            return;
        };
        let clause_depth = info.chain.len();
        if depth >= clause_depth {
            return; // clause sits at (or above) the consume point
        }
        // Parallelism levels between the consume point and the clause
        // loop: combined outside the clause's coverage.
        let uncovered = levels_of(&info.chain[depth..]);
        if uncovered.is_empty() {
            return; // only sequential loops in between: no race
        }
        let required = info.chain[depth];
        let clause = format!("reduction({}:{})", red.op.clause_token(), var);
        out.push(Finding {
            kind: FindingKind::SpanMismatch {
                var: var.to_string(),
                uncovered: uncovered.clone(),
            },
            diag: Diag::new(
                format!(
                    "`reduction` clause on `{var}` does not cover every parallelism \
                     level that combines it"
                ),
                red.span,
            )
            .with_code("L101")
            .with_note(format!(
                "the value of `{var}` is also combined across the `{}` level(s), \
                 outside this clause's loop",
                fmt_levels(&uncovered)
            ))
            .with_fixit(
                format!(
                    "move the clause to the outer `{}` loop (the compiler widens the \
                     span down to the updates, \u{00a7}3.2.1)",
                    fmt_levels(&required.sched)
                ),
                clause,
                required.span,
            ),
        });
    }

    fn read_inside_clause_loop(
        &self,
        info: &LoopInfo<'a>,
        red: &crate::hir::Reduction,
        var: &str,
        out: &mut Vec<Finding>,
    ) {
        let key = loop_key(info.l);
        for rd in self.events.iter().filter(|e| {
            e.sym == red.sym
                && e.kind == ScalarEventKind::Read
                && e.chain.iter().any(|l| loop_key(l) == key)
        }) {
            out.push(Finding {
                kind: FindingKind::ReductionReadInside {
                    var: var.to_string(),
                },
                diag: Diag::warning(
                    format!("reduction variable `{var}` is read inside the reduction loop"),
                    rd.span,
                )
                .with_code("L102")
                .with_note(
                    "the value observed here is an unspecified partial accumulation; \
                     only the value after the loop is defined",
                )
                .with_note_at("the `reduction` clause is here", red.span),
            });
        }
    }

    // ---- L211 (scalar accumulators) -------------------------------------

    /// Flag illegal scalar reduction idioms: updates of one accumulator
    /// mixing operators within one parallel loop nest, and clause-less
    /// accumulators whose running value is consumed inside the updates'
    /// innermost loop (a scan — `missing_reduction` deliberately stays
    /// silent on both shapes, since no single `reduction` clause fixes
    /// them; this pass reports them as errors instead).
    fn illegal_scalar_reductions(&self, out: &mut Vec<Finding>) {
        fn sym_key(s: Sym) -> (u8, usize) {
            match s {
                Sym::Host(h) => (0, h),
                Sym::Local(l) => (1, l),
            }
        }
        // Group update events per (sym, outermost loop of the nest): all
        // updates under one top-level loop combine into one accumulator,
        // so that is the scope an operator mix corrupts.
        let mut groups: BTreeMap<((u8, usize), LoopKey), Vec<&ScalarEvent<'a>>> = BTreeMap::new();
        for ev in &self.events {
            if !matches!(
                ev.kind,
                ScalarEventKind::Update(_) | ScalarEventKind::ClauseUpdate(_)
            ) {
                continue;
            }
            if ev.chain.is_empty() || levels_of(&ev.chain).is_empty() {
                continue; // sequential accumulation: any shape is fine
            }
            groups
                .entry((sym_key(ev.sym), loop_key(ev.chain[0])))
                .or_default()
                .push(ev);
        }
        for evs in groups.values() {
            let sym = evs[0].sym;
            let var = self.sym_name(sym).to_string();
            let op_of = |e: &ScalarEvent<'_>| match e.kind {
                ScalarEventKind::Update(op) | ScalarEventKind::ClauseUpdate(op) => op,
                _ => unreachable!(),
            };
            let first_op = op_of(evs[0]);
            if let Some(second) = evs.iter().find(|e| op_of(e) != first_op) {
                out.push(Finding {
                    kind: FindingKind::ReductionIllegal { var: var.clone() },
                    diag: Diag::new(
                        format!(
                            "reduction updates of `{var}` mix `{first_op}` and `{}` \
                             operators in one parallel loop nest",
                            op_of(second)
                        ),
                        second.span,
                    )
                    .with_code("L211")
                    .with_note_at(
                        format!("the first update uses `{first_op}` here"),
                        evs[0].span,
                    )
                    .with_note(
                        "mixed operators combine order-sensitively and cannot be \
                         privatized; use one operator per accumulator",
                    ),
                });
                continue;
            }
            // Escape check only for clause-less accumulators (a read
            // inside a clause's loop is L102's warning).
            if evs
                .iter()
                .any(|e| matches!(e.kind, ScalarEventKind::ClauseUpdate(_)))
            {
                continue;
            }
            let escape = self
                .events
                .iter()
                .filter(|e| e.sym == sym && e.kind == ScalarEventKind::Read)
                .find_map(|rd| {
                    evs.iter()
                        .find(|u| common_prefix_len(&rd.chain, &u.chain) == u.chain.len())
                        .map(|u| (rd.span, u.span))
                });
            if let Some((read, update)) = escape {
                out.push(Finding {
                    kind: FindingKind::ReductionIllegal { var: var.clone() },
                    diag: Diag::new(
                        format!(
                            "the running value of `{var}` is consumed inside the \
                             parallel loop that accumulates it (a scan, not a reduction)"
                        ),
                        read,
                    )
                    .with_code("L211")
                    .with_note_at(format!("`{var}` is accumulated here"), update)
                    .with_note(
                        "each iteration observes an unspecified partial value under \
                         parallel execution; a reduction clause cannot express this — \
                         mark the loop `seq` or restructure as a scan primitive",
                    ),
                });
            }
        }
    }

    // ---- L200 / L201 / L210 / L211 (arrays) ------------------------------

    fn loop_carried(&self, out: &mut Vec<Finding>) {
        // Pass 1: per (parallel loop, array), collect every non-benign
        // dependence pair as evidence, then classify the array against
        // the redflow reduction lattice.
        struct DepGroup {
            /// Loop-nest path of the reporting loop: the keys of every
            /// enclosing loop, outermost first, ending with the loop
            /// itself. `a.path` being a proper prefix of `b.path` means
            /// `a`'s loop encloses `b`'s.
            path: Vec<LoopKey>,
            array: usize,
            /// (dependence, write span, other-access span) pairs.
            evidence: Vec<(DepResult, Span, Span)>,
            verdict: ArrayRedVerdict,
            /// Parallelism levels of the loop and everything nested in it
            /// (the span a privatized accumulator must cover).
            levels: Vec<crate::ast::Level>,
        }
        let mut groups: Vec<DepGroup> = Vec::new();
        for info in &self.loops {
            if info.l.sched.is_empty() {
                continue;
            }
            let mut accs = Vec::new();
            collect_array_accesses(&info.l.body, &mut accs);
            let varying = varying_syms(&info.l.body);
            let mut per_array: BTreeMap<usize, Vec<(DepResult, Span, Span)>> = BTreeMap::new();
            for w in accs.iter().filter(|a| a.is_write) {
                for o in accs.iter().filter(|a| a.array == w.array) {
                    let dep = loop_dependence(w, o, info.l.var, &varying);
                    if matches!(dep, DepResult::Independent | DepResult::SameIteration) {
                        continue;
                    }
                    per_array
                        .entry(w.array)
                        .or_default()
                        .push((dep, w.span, o.span));
                }
            }
            if per_array.is_empty() {
                continue;
            }
            let mut lvls: BTreeSet<crate::ast::Level> = info.l.sched.iter().copied().collect();
            visit_loops(&info.l.body, &mut |nl| {
                lvls.extend(nl.sched.iter().copied());
            });
            let levels: Vec<crate::ast::Level> = lvls.into_iter().collect();
            let mut path: Vec<LoopKey> = info.chain.iter().map(|l| loop_key(l)).collect();
            path.push(loop_key(info.l));
            for (array, evidence) in per_array {
                groups.push(DepGroup {
                    path: path.clone(),
                    array,
                    evidence,
                    verdict: redflow::classify_array_reduction(&info.l.body, array),
                    levels: levels.clone(),
                });
            }
        }
        // Pass 2: cross-nested-loop dedupe. A loop nest often yields the
        // same story twice (once per enclosing parallel loop); keep the
        // most informative verdict per array.
        let encloses = |a: &[LoopKey], b: &[LoopKey]| a.len() < b.len() && b.starts_with(a);
        let nested = |a: &[LoopKey], b: &[LoopKey]| encloses(a, b) || encloses(b, a);
        let unana_only = |g: &DepGroup| {
            matches!(g.verdict, ArrayRedVerdict::NotReduction)
                && g.evidence
                    .iter()
                    .all(|(d, _, _)| matches!(d, DepResult::Unanalyzable))
        };
        let keep: Vec<bool> = groups
            .iter()
            .map(|g| {
                // Duplicate proven verdicts across a nest: the outermost
                // loop's report covers the whole nest.
                if matches!(g.verdict, ArrayRedVerdict::Proven { .. })
                    && groups.iter().any(|g2| {
                        g2.array == g.array
                            && matches!(g2.verdict, ArrayRedVerdict::Proven { .. })
                            && encloses(&g2.path, &g.path)
                    })
                {
                    return false;
                }
                // An unanalyzable-only finding is noise when a nested (or
                // enclosing) loop resolves the same array to a definite
                // verdict.
                if unana_only(g)
                    && groups.iter().any(|g2| {
                        g2.array == g.array && !unana_only(g2) && nested(&g2.path, &g.path)
                    })
                {
                    return false;
                }
                true
            })
            .collect();
        for (g, keep) in groups.iter().zip(keep) {
            if keep {
                self.report_dep_group(g.array, &g.evidence, &g.verdict, &g.levels, out);
            }
        }
    }

    /// Emit the single finding for one (loop, array) dependence group.
    fn report_dep_group(
        &self,
        array: usize,
        evidence: &[(DepResult, Span, Span)],
        verdict: &ArrayRedVerdict,
        levels: &[crate::ast::Level],
        out: &mut Vec<Finding>,
    ) {
        let array_name = self.array_name(array).to_string();
        match *verdict {
            ArrayRedVerdict::Proven { op, update, sites } => {
                let ty = self.p.arrays[array].ty;
                let witness = match evidence[0].0 {
                    DepResult::Carried(k) => format!(
                        "iterations at distance {k} touch the same element of `{array_name}`"
                    ),
                    DepResult::SameElement => {
                        format!("every iteration touches the same element of `{array_name}`")
                    }
                    _ => format!(
                        "the subscripts of `{array_name}` are not analyzable, so a \
                         carried conflict cannot be excluded"
                    ),
                };
                let mut diag = Diag::note(
                    format!(
                        "carried accesses on `{array_name}` form a `{op}` reduction; \
                         the dependence is relaxed"
                    ),
                    update,
                )
                .with_code("L210")
                .with_note(format!(
                    "proof: all {sites} store(s) to `{array_name}` in this parallel \
                     loop are `{array_name}[e] {op}= v` updates with no other read or \
                     write of `{array_name}`, so any interleaving commutes"
                ))
                .with_note(format!(
                    "identity: {}; privatization cost: {}",
                    op.identity_text(ty),
                    redflow::privatization_cost(levels)
                ));
                diag = diag.with_note_at(witness, evidence[0].2);
                out.push(Finding {
                    kind: FindingKind::ReductionRelaxed {
                        array: array_name,
                        op,
                    },
                    diag,
                });
            }
            ArrayRedVerdict::Mixed {
                first_op,
                second_op,
                first,
                second,
            } => {
                out.push(Finding {
                    kind: FindingKind::ReductionIllegal {
                        var: array_name.clone(),
                    },
                    diag: Diag::new(
                        format!(
                            "reduction updates of `{array_name}` mix `{first_op}` and \
                             `{second_op}` operators in a parallel loop"
                        ),
                        second,
                    )
                    .with_code("L211")
                    .with_note_at(format!("the first update uses `{first_op}` here"), first)
                    .with_note(
                        "mixed operators combine order-sensitively and cannot be \
                         privatized; use one operator per accumulator",
                    ),
                });
            }
            ArrayRedVerdict::Escape { update, read } => {
                out.push(Finding {
                    kind: FindingKind::ReductionIllegal {
                        var: array_name.clone(),
                    },
                    diag: Diag::new(
                        format!(
                            "`{array_name}` is updated like a reduction but its running \
                             value is read mid-loop"
                        ),
                        read,
                    )
                    .with_code("L211")
                    .with_note_at(
                        format!("the reduction-shaped update of `{array_name}` is here"),
                        update,
                    )
                    .with_note(
                        "the partial value observed here is unspecified under parallel \
                         execution; the dependence cannot be relaxed",
                    ),
                });
            }
            ArrayRedVerdict::Overwrite { update, write } => {
                out.push(Finding {
                    kind: FindingKind::ReductionIllegal {
                        var: array_name.clone(),
                    },
                    diag: Diag::new(
                        format!(
                            "`{array_name}` is updated like a reduction but also \
                             plainly overwritten in the same loop"
                        ),
                        write,
                    )
                    .with_code("L211")
                    .with_note_at(
                        format!("the reduction-shaped update of `{array_name}` is here"),
                        update,
                    )
                    .with_note(
                        "the overwrite discards concurrent accumulation; every store \
                         must use the same `op=` update shape",
                    ),
                });
            }
            ArrayRedVerdict::NotReduction => {
                self.report_unproven_group(&array_name, evidence, out);
            }
        }
    }

    /// The classic L200/L201 report, deduplicated: one finding per
    /// (loop, array) with additional access pairs attached as notes.
    fn report_unproven_group(
        &self,
        array: &str,
        evidence: &[(DepResult, Span, Span)],
        out: &mut Vec<Finding>,
    ) {
        let carried: Vec<&(DepResult, Span, Span)> = evidence
            .iter()
            .filter(|(d, _, _)| matches!(d, DepResult::Carried(_) | DepResult::SameElement))
            .collect();
        let unana = evidence.len() - carried.len();
        if let Some((dep, wspan, ospan)) = carried.first() {
            let (distance, mut diag) = match dep {
                DepResult::Carried(k) => (
                    Some(*k),
                    Diag::new(
                        format!(
                            "loop-carried dependence on `{array}` in a \
                             parallel loop (iteration distance {k})"
                        ),
                        *wspan,
                    )
                    .with_code("L200")
                    .with_note_at(
                        format!(
                            "this access touches the element written {k} \
                             iteration(s) away",
                        ),
                        *ospan,
                    )
                    .with_note(
                        "parallel iterations execute in arbitrary order; \
                         mark the loop `seq` or restructure the recurrence",
                    ),
                ),
                _ => (
                    None,
                    Diag::new(
                        format!(
                            "every iteration of this parallel loop accesses \
                             the same element of `{array}`"
                        ),
                        *wspan,
                    )
                    .with_code("L200")
                    .with_note(
                        "concurrent iterations race on one element; if this \
                         is a reduction, accumulate into a scalar",
                    ),
                ),
            };
            // Remaining conflicting pairs ride along as notes instead of
            // repeating the diagnostic once per access pair.
            for (dep, _, ospan) in carried.iter().skip(1).take(3) {
                let desc = match dep {
                    DepResult::Carried(k) => format!("iteration distance {k}"),
                    _ => "same element every iteration".to_string(),
                };
                diag = diag.with_note_at(
                    format!("another conflicting access pair on `{array}` ({desc})"),
                    *ospan,
                );
            }
            if carried.len() > 4 {
                diag = diag.with_note(format!(
                    "{} more conflicting access pair(s) on `{array}` in this loop",
                    carried.len() - 4
                ));
            }
            if unana > 0 {
                diag = diag.with_note(format!(
                    "{unana} further access pair(s) on `{array}` have unanalyzable \
                     subscripts"
                ));
            }
            out.push(Finding {
                kind: FindingKind::LoopCarried {
                    array: array.to_string(),
                    distance,
                },
                diag,
            });
        } else {
            let (_, wspan, _) = evidence[0];
            let mut diag = Diag::warning(
                format!(
                    "cannot analyze the subscripts of `{array}`; a \
                     loop-carried dependence cannot be excluded"
                ),
                wspan,
            )
            .with_code("L201")
            .with_note(
                "subscripts must be affine in the loop variable for \
                 the dependence test; verify iterations are independent",
            );
            if evidence.len() > 1 {
                diag = diag.with_note(format!(
                    "{} more unanalyzable access pair(s) on `{array}` in this loop",
                    evidence.len() - 1
                ));
            }
            out.push(Finding {
                kind: FindingKind::Unanalyzable {
                    array: array.to_string(),
                },
                diag,
            });
        }
    }

    // ---- L300 / L301 / L401 / L402 --------------------------------------

    fn data_clause_lints(&self, ri: usize, out: &mut Vec<Finding>) {
        let mut accs = Vec::new();
        collect_array_accesses(&self.r.body, &mut accs);
        let read: HashSet<usize> = accs
            .iter()
            .filter(|a| !a.is_write)
            .map(|a| a.array)
            .collect();
        let written: HashSet<usize> = accs
            .iter()
            .filter(|a| a.is_write)
            .map(|a| a.array)
            .collect();
        for b in self.r.data.iter().filter(|b| !b.implied) {
            let array = self.array_name(b.array).to_string();
            let is_read = read.contains(&b.array);
            let is_written = written.contains(&b.array);
            if !is_read && !is_written {
                out.push(Finding {
                    kind: FindingKind::DeadDataClause {
                        array: array.clone(),
                    },
                    diag: Diag::warning(
                        format!(
                            "data clause names `{array}`, but the region never \
                             references it"
                        ),
                        self.r.span,
                    )
                    .with_code("L402")
                    .with_note("remove the clause to avoid a useless transfer"),
                });
                continue;
            }
            match b.dir {
                DataDir::CopyIn if !is_read => {
                    let mut d = Diag::warning(
                        format!("`copyin({array})` but the region never reads `{array}`"),
                        self.r.span,
                    )
                    .with_code("L300");
                    d = if is_written {
                        d.with_note(format!(
                            "the region only writes `{array}`; use `copyout({array})` \
                             (or `create({array})` if the host never reads it back)"
                        ))
                    } else {
                        d.with_note("the host-to-device transfer is wasted")
                    };
                    out.push(Finding {
                        kind: FindingKind::CopyinNeverRead { array },
                        diag: d,
                    });
                }
                DataDir::CopyOut if !is_written => {
                    let mut d = Diag::warning(
                        format!("`copyout({array})` but the region never writes `{array}`"),
                        self.r.span,
                    )
                    .with_code("L301")
                    .with_note(
                        "the device-to-host transfer copies back unmodified (or \
                         uninitialized) data",
                    );
                    if is_read {
                        d = d.with_note(format!(
                            "the region only reads `{array}`; use `copyin({array})`"
                        ));
                    }
                    out.push(Finding {
                        kind: FindingKind::CopyoutNeverWritten { array },
                        diag: d,
                    });
                }
                _ => {}
            }
        }
        // L401: explicit movement clause on an array already resident via
        // an enclosing structured `acc data` scope.
        for ds in &self.p.data_scopes {
            if !(ds.first_region <= ri && ri < ds.end_region) {
                continue;
            }
            for b in self.r.data.iter().filter(|b| !b.implied) {
                if b.dir == DataDir::Present {
                    continue;
                }
                if ds.bindings.iter().any(|(a, _)| *a == b.array) {
                    let array = self.array_name(b.array).to_string();
                    out.push(Finding {
                        kind: FindingKind::ShadowedDataClause {
                            array: array.clone(),
                        },
                        diag: Diag::warning(
                            format!(
                                "data clause on `{array}` is shadowed by an enclosing \
                                 `acc data` region"
                            ),
                            self.r.span,
                        )
                        .with_code("L401")
                        .with_note(format!(
                            "`{array}` is already resident; the clause moves no data \
                             (present-or-copy semantics) — write `present({array})` to \
                             state the intent"
                        )),
                    });
                }
            }
        }
    }

    // ---- L304 -----------------------------------------------------------

    fn private_lints(&self, out: &mut Vec<Finding>) {
        #[allow(clippy::type_complexity)]
        let scopes: Vec<(&[(Sym, Span)], &[HStmt])> =
            std::iter::once((self.r.privates.as_slice(), self.r.body.as_slice()))
                .chain(
                    self.loops
                        .iter()
                        .map(|i| (i.l.privates.as_slice(), i.l.body.as_slice())),
                )
                .collect();
        for (privates, body) in scopes {
            if privates.is_empty() {
                continue;
            }
            let tracked: HashSet<Sym> = privates
                .iter()
                .map(|(s, _)| *s)
                .filter(|s| match s {
                    Sym::Local(l) => !self.r.locals[*l].is_loop_var,
                    Sym::Host(_) => true,
                })
                .collect();
            if tracked.is_empty() {
                continue;
            }
            for (sym, span) in read_before_write(body, &tracked, &HashSet::new()) {
                let var = self.sym_name(sym).to_string();
                out.push(Finding {
                    kind: FindingKind::PrivateReadBeforeWrite { var: var.clone() },
                    diag: Diag::warning(
                        format!("private variable `{var}` may be read before it is assigned"),
                        span,
                    )
                    .with_code("L304")
                    .with_note(
                        "each thread's private copy starts uninitialized; assignments \
                         outside the construct do not initialize it",
                    ),
                });
            }
        }
    }

    // ---- L400 -----------------------------------------------------------

    fn duplicate_lints(&self, out: &mut Vec<Finding>) {
        // Duplicate `private` items (region construct and each loop).
        let lists = std::iter::once(self.r.privates.as_slice())
            .chain(self.loops.iter().map(|i| i.l.privates.as_slice()));
        for privates in lists {
            let mut seen: HashSet<Sym> = HashSet::new();
            for (sym, span) in privates {
                if !seen.insert(*sym) {
                    let var = self.sym_name(*sym).to_string();
                    out.push(Finding {
                        kind: FindingKind::DuplicateClauseVar { var: var.clone() },
                        diag: Diag::warning(
                            format!("`{var}` appears more than once in `private` clauses"),
                            *span,
                        )
                        .with_code("L400")
                        .with_note("the duplicate entry has no effect"),
                    });
                }
            }
        }
        // Duplicate reduction variables on one loop directive.
        for info in &self.loops {
            let mut seen: HashSet<Sym> = HashSet::new();
            for red in &info.l.reductions {
                if !seen.insert(red.sym) {
                    let var = self.sym_name(red.sym).to_string();
                    out.push(Finding {
                        kind: FindingKind::DuplicateClauseVar { var: var.clone() },
                        diag: Diag::warning(
                            format!(
                                "`{var}` appears in more than one `reduction` clause on \
                                 this loop"
                            ),
                            red.span,
                        )
                        .with_code("L400")
                        .with_note("only one reduction operator can apply per variable"),
                    });
                }
            }
        }
        // Duplicate arrays in the region's explicit data clauses.
        let mut seen: HashSet<usize> = HashSet::new();
        for b in self.r.data.iter().filter(|b| !b.implied) {
            if !seen.insert(b.array) {
                let array = self.array_name(b.array).to_string();
                out.push(Finding {
                    kind: FindingKind::DuplicateClauseVar { var: array.clone() },
                    diag: Diag::warning(
                        format!("`{array}` appears in more than one data clause"),
                        self.r.span,
                    )
                    .with_code("L400")
                    .with_note("the first clause wins; remove the duplicate"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let (_, f) = lint_source(src).expect("compile");
        f
    }

    fn codes(src: &str) -> Vec<&'static str> {
        findings(src).iter().map(|f| f.code()).collect()
    }

    #[test]
    fn missing_reduction_simple() {
        let src = "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang vector\nfor (int i = 0; i < N; i++) { s = s + a[i]; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        match &f[0].kind {
            FindingKind::MissingReduction {
                var,
                op,
                span_levels,
                ..
            } => {
                assert_eq!(var, "s");
                assert_eq!(*op, RedOp::Add);
                assert_eq!(span_levels, &[Level::Gang, Level::Vector]);
            }
            k => panic!("wrong kind {k:?}"),
        }
        let fix = f[0].diag.fixit().expect("fixit");
        assert_eq!(fix.insert, "reduction(+:s)");
    }

    #[test]
    fn missing_reduction_never_suggests_a_clause_sema_refuses() {
        let src = "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang vector\nfor (int i = 0; i < N; i++) { s = s || a[i]; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code(), "L100");
        assert!(f[0].diag.fixit().is_none(), "{:?}", f[0].diag);
        // The note is word for word the compile error the clause would get.
        let with_clause = src.replace("gang vector", "gang vector reduction(||:s)");
        let ce = crate::compile(&with_clause).unwrap_err();
        assert_eq!(
            ce.message,
            "a `||` reduction needs an integer variable, but `s` is `double`"
        );
        assert!(
            f[0].diag.notes().iter().any(|n| n.message == ce.message),
            "{:?}",
            f[0].diag.notes()
        );
    }

    #[test]
    fn missing_reduction_nested_span() {
        // Update in the vector loop, consumed at region exit: the span
        // covers both levels; the clause belongs on the gang loop.
        let src = "int N; int M; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
             #pragma acc loop vector\nfor (int j = 0; j < M; j++) { s += a[i * M + j]; }\n}\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        match &f[0].kind {
            FindingKind::MissingReduction {
                clause_loop_levels,
                span_levels,
                ..
            } => {
                assert_eq!(clause_loop_levels, &[Level::Gang]);
                assert_eq!(span_levels, &[Level::Gang, Level::Vector]);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn missing_reduction_consumed_per_gang_iteration() {
        // Accumulator re-initialized and consumed inside the gang loop:
        // only the vector level reduces.
        let src = "int N; int M;\ndouble a[N]; double out[N];\n\
             #pragma acc parallel copyin(a) copyout(out)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
             double t = 0.0;\n\
             #pragma acc loop vector\nfor (int j = 0; j < M; j++) { t += a[i * M + j]; }\n\
             out[i] = t;\n}\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        match &f[0].kind {
            FindingKind::MissingReduction {
                var,
                clause_loop_levels,
                span_levels,
                ..
            } => {
                assert_eq!(var, "t");
                assert_eq!(clause_loop_levels, &[Level::Vector]);
                assert_eq!(span_levels, &[Level::Vector]);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn sequential_accumulation_is_clean() {
        let src = "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop seq\nfor (int i = 0; i < N; i++) { s += a[i]; }\n}";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn scan_pattern_is_not_reported() {
        // Running value consumed every iteration: a scan, not a reduction.
        let src = "int N; double s;\ndouble a[N]; double b[N];\ns = 0;\n\
             #pragma acc parallel copyin(a) copyout(b)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) { s += a[i]; b[i] = s; }\n}";
        let c = codes(src);
        assert!(!c.contains(&"L100"), "{c:?}");
        // ...but it is an L211: the running value escapes every iteration.
        assert!(c.contains(&"L211"), "{c:?}");
    }

    #[test]
    fn scalar_mixed_operators_are_l211() {
        // `s` is accumulated with `+` at gang depth and `*` at vector
        // depth: no single reduction clause makes this legal.
        let src = "int N; double s;\ndouble a[N]; double b[N];\ns = 1;\n\
             #pragma acc parallel copyin(a,b)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
             s += a[i];\n\
             #pragma acc loop vector\nfor (int j = 0; j < N; j++) { s *= b[j]; }\n}\n}";
        let f = findings(src);
        let l211: Vec<_> = f.iter().filter(|x| x.code() == "L211").collect();
        assert_eq!(l211.len(), 1, "{f:?}");
        assert_eq!(
            l211[0].kind,
            FindingKind::ReductionIllegal { var: "s".into() }
        );
        // No L100 fix-it should be offered for an unfixable shape.
        assert!(!codes(src).contains(&"L100"));
    }

    #[test]
    fn disjoint_sequential_loops_may_mix_operators() {
        // Two separate top-level parallel loops each using one operator:
        // legal (each has its own clause), no L211.
        let src = "int N; double s; double p;\ndouble a[N];\ns = 0; p = 1;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; }\n\
             #pragma acc loop gang reduction(*:p)\n\
             for (int i = 0; i < N; i++) { p *= a[i]; }\n}";
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn clean_reduction_has_no_findings() {
        let src = "int N; double s;\ndouble a[N];\ns = 0;\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang vector reduction(+:s)\n\
             for (int i = 0; i < N; i++) { s += a[i]; }\n}";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn span_mismatch_reported() {
        // Clause on the vector loop, but the value is combined across the
        // gang level too (consumed after the gang loop). Sema rejects this
        // shape for host scalars outright, so the lint covers the
        // region-local case.
        let src = "int N; int M;\ndouble a[N]; double out[N];\n\
             #pragma acc parallel copyin(a) copyout(out)\n{\n\
             double s = 0.0;\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
             #pragma acc loop vector reduction(+:s)\n\
             for (int j = 0; j < M; j++) { s += a[i * M + j]; }\n}\n\
             out[0] = s;\n}";
        let f = findings(src);
        let sm: Vec<_> = f.iter().filter(|f| f.code() == "L101").collect();
        assert_eq!(sm.len(), 1, "{f:?}");
        match &sm[0].kind {
            FindingKind::SpanMismatch { var, uncovered } => {
                assert_eq!(var, "s");
                assert_eq!(uncovered, &[Level::Gang]);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn dead_reduction_clause() {
        let src = "int N; double s;\ndouble a[N]; double b[N];\ns = 0;\n\
             #pragma acc parallel copyin(a) copyout(b)\n{\n\
             #pragma acc loop gang reduction(+:s)\n\
             for (int i = 0; i < N; i++) { b[i] = a[i]; }\n}";
        assert_eq!(codes(src), vec!["L103"]);
    }

    #[test]
    fn loop_carried_dependence() {
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 1; i < N; i++) { a[i] = a[i - 1] + 1.0; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            f[0].kind,
            FindingKind::LoopCarried {
                array: "a".into(),
                distance: Some(1)
            }
        );
    }

    #[test]
    fn same_element_accumulation_is_relaxed_to_l210() {
        // Every iteration updates a[0] with `+=`: a race under the naive
        // test, but a proven reduction — relaxed to an informational note.
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copy(a) copyin(b)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { a[0] += b[i]; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            f[0].kind,
            FindingKind::ReductionRelaxed {
                array: "a".into(),
                op: RedOp::Add,
            }
        );
        assert_eq!(f[0].diag.severity, crate::diag::Severity::Note);
        // The note carries the proof, identity and privatization cost.
        let msg = format!("{:?}", f[0].diag);
        assert!(msg.contains("identity"), "{msg}");
    }

    #[test]
    fn histogram_update_is_relaxed_to_l210() {
        // Indirect subscript: unanalyzable dependence, but every store is
        // a `+=` update so the conflict commutes.
        let src = "int N; int B;\nint hist[B]; int bin[N];\n\
             #pragma acc parallel copy(hist) copyin(bin)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { hist[bin[i]] += 1; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            f[0].kind,
            FindingKind::ReductionRelaxed {
                array: "hist".into(),
                op: RedOp::Add,
            }
        );
        assert!(!codes(src).contains(&"L201"));
    }

    #[test]
    fn nested_parallel_loops_report_one_relaxation() {
        // gang × vector nest over the same accumulator: exactly one L210,
        // attributed to the nest as a whole, not one per loop level.
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copy(a) copyin(b)\n{\n\
             #pragma acc loop gang\nfor (int i = 0; i < N; i++) {\n\
             #pragma acc loop vector\nfor (int j = 0; j < N; j++) {\n\
             a[0] += b[j]; } } }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code(), "L210");
    }

    #[test]
    fn mixed_array_operators_are_l211() {
        let src = "int N;\ndouble a[N]; double b[N]; double c[N];\n\
             #pragma acc parallel copy(a) copyin(b) copyin(c)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { a[0] += b[i]; a[0] *= c[i]; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, FindingKind::ReductionIllegal { var: "a".into() });
    }

    #[test]
    fn array_escape_mid_loop_is_l211() {
        // The partial histogram value escapes into `last` every iteration.
        let src = "int N; int B;\nint hist[B]; int bin[N]; int last[N];\n\
             #pragma acc parallel copy(hist) copyin(bin) copyout(last)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { hist[bin[i]] += 1; last[i] = hist[bin[i]]; }\n}";
        let f = findings(src);
        let l211: Vec<_> = f.iter().filter(|x| x.code() == "L211").collect();
        assert_eq!(l211.len(), 1, "{f:?}");
        assert_eq!(
            l211[0].kind,
            FindingKind::ReductionIllegal { var: "hist".into() }
        );
        assert!(!codes(src).contains(&"L210"));
    }

    #[test]
    fn array_overwrite_is_l211() {
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copy(a) copyin(b)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { a[0] += b[i]; a[0] = 0.0; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code(), "L211");
    }

    #[test]
    fn genuine_recurrence_still_fires_l200() {
        // `a[i] = a[i-1] + b[i]` is not reduction-shaped (subscripts of
        // the load and store differ): the relaxation must not apply.
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copy(a) copyin(b)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 1; i < N; i++) { a[i] = a[i - 1] + b[i]; }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code(), "L200");
        assert!(!codes(src).contains(&"L210"));
    }

    #[test]
    fn carried_dependences_dedupe_into_one_finding() {
        // Two distinct recurrences on `a` in one loop: one L200 with the
        // extra pair attached as a note, not two findings.
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 2; i < N; i++) { a[i] = a[i - 1] + a[i - 2]; }\n}";
        let f = findings(src);
        let l200: Vec<_> = f.iter().filter(|x| x.code() == "L200").collect();
        assert_eq!(l200.len(), 1, "{f:?}");
    }

    #[test]
    fn max_reduction_via_fmax_is_relaxed() {
        let src = "int N;\ndouble m[N]; double a[N];\n\
             #pragma acc parallel copy(m) copyin(a)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { m[0] = fmax(m[0], a[i]); }\n}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            f[0].kind,
            FindingKind::ReductionRelaxed {
                array: "m".into(),
                op: RedOp::Max,
            }
        );
    }

    #[test]
    fn distance_zero_is_clean() {
        let src = "int N;\ndouble a[N];\n\
             #pragma acc parallel copy(a)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; }\n}";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn data_clause_lints_fire() {
        let src = "int N;\ndouble a[N]; double b[N]; double c[N];\n\
             #pragma acc parallel copyin(a) copyin(b) copyout(c)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { b[i] = a[i] + c[i]; }\n}";
        let c = codes(src);
        // b: copyin but only written; c: copyout but only read.
        assert!(c.contains(&"L300"), "{c:?}");
        assert!(c.contains(&"L301"), "{c:?}");
    }

    #[test]
    fn dead_data_clause() {
        let src = "int N;\ndouble a[N]; double b[N]; double c[N];\n\
             #pragma acc parallel copyin(a) copyin(c) copyout(b)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { b[i] = a[i]; }\n}";
        assert_eq!(codes(src), vec!["L402"]);
    }

    #[test]
    fn private_read_before_write() {
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copyin(a) copyout(b)\n{\n\
             double t = 1.0;\n\
             #pragma acc loop gang private(t)\n\
             for (int i = 0; i < N; i++) { b[i] = t * a[i]; t = a[i]; }\n}";
        let c = codes(src);
        assert!(c.contains(&"L304"), "{c:?}");
    }

    #[test]
    fn private_read_before_write_reports_every_variable_in_read_order() {
        let src = "int N;\ndouble a[N]; double b[N];\n\
             #pragma acc parallel copyin(a) copyout(b)\n{\n\
             double t = 1.0; double u = 2.0;\n\
             #pragma acc loop gang private(u, t)\n\
             for (int i = 0; i < N; i++) { b[i] = t * u * a[i]; }\n}";
        let vars: Vec<String> = findings(src)
            .into_iter()
            .filter_map(|f| match f.kind {
                FindingKind::PrivateReadBeforeWrite { var } => Some(var),
                _ => None,
            })
            .collect();
        assert_eq!(vars, ["t", "u"]);
    }

    #[test]
    fn shadowed_data_clause() {
        let src = "int N;\ndouble a[N];\n\
             #pragma acc data copy(a)\n{\n\
             #pragma acc parallel copyin(a)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }\n}\n}";
        let c = codes(src);
        assert!(c.contains(&"L401"), "{c:?}");
    }

    #[test]
    fn findings_rank_errors_first() {
        let src = "int N; double s;\ndouble a[N]; double b[N]; double dead[N];\ns = 0;\n\
             #pragma acc parallel copyin(a) copyin(dead) copy(b)\n{\n\
             #pragma acc loop gang\n\
             for (int i = 1; i < N; i++) { s += a[i]; b[i] = b[i - 1]; }\n}";
        let f = findings(src);
        let codes: Vec<_> = f.iter().map(|x| x.code()).collect();
        assert!(codes.contains(&"L100"), "{codes:?}");
        assert!(codes.contains(&"L200"), "{codes:?}");
        assert!(codes.contains(&"L402"), "{codes:?}");
        // Errors (L100/L200) must come before the warning (L402).
        let pos_err = codes.iter().position(|c| *c == "L200").unwrap();
        let pos_warn = codes.iter().position(|c| *c == "L402").unwrap();
        assert!(pos_err < pos_warn);
    }
}
