//! `check_rails` — checker time-to-verdict with known answers. One op
//! per (case, rail): the static verifier on a case's kernels, the
//! translation validator on its source, or a fully sanitized run — over
//! the clean Table-2 rows and the injected-bug rows, each expected
//! verdict hand-written in `expect/rails.tsv`. kverify and redcert
//! dominate here and nowhere else, and the sanitizer ops exercise
//! `gpsim` execution instrumented rather than plain.

use super::table2_sim::{bind_extents, draw_input, out_len};
use super::{add_session_stats, timed, HOST_THREADS};
use crate::harness::{bump, PassOut, Workload};
use crate::metrics::Metrics;
use crate::rng::{fnv1a, Rng};
use crate::span::{Recorder, Span};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use uhacc::core::{compile_region, CompiledRegion, CompilerOptions, LaunchDims, VectorLayout};
use uhacc::driver::{certify_dims, certify_reports, RunRequest};
use uhacc::parse::{CType, RedOp};
use uhacc::rt::{AccRunner, HostBuffer};
use uhacc::sim::{
    verify_kernel, CertVerdict, Device, ExecTier, HazardClass, LaunchConfig, SanitizerLevel,
    SessionStats, VerifyConfig,
};
use uhacc::testsuite::cases::{case_source, ctype_name, Position};

/// Reduction size of the sanitized runs.
const SAN_RED_N: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rail {
    Verify,
    Sanitize,
    Certify,
}

impl Rail {
    fn name(self) -> &'static str {
        match self {
            Rail::Verify => "verify",
            Rail::Sanitize => "sanitize",
            Rail::Certify => "certify",
        }
    }
}

struct Case {
    name: String,
    pos: Position,
    op: RedOp,
    ty: CType,
    src: String,
    opts: CompilerOptions,
    /// Launch dims of the verify rail (the paper's on clean rows).
    verify_dims: LaunchDims,
    /// Launch dims of the sanitized run.
    san_dims: LaunchDims,
    /// Launch dims of the certify rail.
    cert_dims: LaunchDims,
    rails: &'static [Rail],
    /// Compiled once in set-up, at `verify_dims`.
    compiled: Arc<CompiledRegion>,
}

struct Op {
    case: usize,
    rail: Rail,
    expect: String,
}

pub struct CheckRails {
    seed: u64,
    cases: Vec<Case>,
    ops: Vec<Op>,
    rec: Recorder,
}

/// An op's verdict in the vocabulary of `rails.tsv`, with its counts.
struct Verdict {
    label: String,
    findings: u64,
    observables: u64,
    stats: Option<SessionStats>,
}

const ALL_RAILS: &[Rail] = &[Rail::Verify, Rail::Sanitize, Rail::Certify];

/// The sanitizer matrix's geometry: small enough to run fully shadowed
/// in milliseconds, big enough that every combining path is live.
const SAN_DIMS: LaunchDims = LaunchDims {
    gangs: 8,
    workers: 4,
    vector: 64,
};

/// A defect row: the knob that injects it, where it shows, on which rails.
struct Defect {
    name: &'static str,
    pos: Position,
    op: RedOp,
    inject: fn(&mut CompilerOptions),
    /// The geometry the defect is live at, when the defaults hide it.
    dims: Option<LaunchDims>,
    rails: &'static [Rail],
}

/// The sanitizer matrix's four barrier defects, then the census's two
/// semantic defects — no hazard to raise, only the validator sees them —
/// each with the benign twin the validator must keep certifying.
const DEFECTS: [Defect; 8] = [
    Defect {
        name: "bug: missing stage barrier (worker)",
        pos: Position::Worker,
        op: RedOp::Add,
        inject: |o| o.bugs.skip_stage_barrier = true,
        dims: None,
        rails: ALL_RAILS,
    },
    Defect {
        name: "bug: missing post-broadcast barrier (vector)",
        pos: Position::Vector,
        op: RedOp::Add,
        inject: |o| o.bugs.skip_bcast_barrier = true,
        dims: None,
        rails: ALL_RAILS,
    },
    Defect {
        name: "bug: warp-sync tail with vector % 32 != 0",
        pos: Position::Vector,
        op: RedOp::Add,
        inject: |o| o.bugs.warp_tail_everywhere = true,
        dims: Some(LaunchDims {
            gangs: 4,
            workers: 2,
            vector: 80,
        }),
        rails: ALL_RAILS,
    },
    Defect {
        name: "bug: transposed slab reuse (no post-read barrier)",
        pos: Position::Vector,
        op: RedOp::Add,
        inject: |o| {
            o.vector_layout = VectorLayout::Transposed;
            o.bugs.skip_postread_barrier = true;
        },
        dims: None,
        rails: ALL_RAILS,
    },
    Defect {
        name: "bug: clause levels only (vector span dropped)",
        pos: Position::WorkerVector,
        op: RedOp::Add,
        inject: |o| o.bugs.clause_levels_only = true,
        dims: None,
        rails: &[Rail::Certify],
    },
    Defect {
        name: "bug(benign): clause levels only, nothing spans",
        pos: Position::Worker,
        op: RedOp::Add,
        inject: |o| o.bugs.clause_levels_only = true,
        dims: None,
        rails: &[Rail::Certify],
    },
    Defect {
        name: "bug: initial value not folded (+, init 3)",
        pos: Position::SameLineGwv,
        op: RedOp::Add,
        inject: |o| o.bugs.skip_init_fold = true,
        dims: None,
        rails: &[Rail::Certify],
    },
    Defect {
        name: "bug(benign): initial value not folded (*, init 1)",
        pos: Position::SameLineGwv,
        op: RedOp::Mul,
        inject: |o| o.bugs.skip_init_fold = true,
        dims: None,
        rails: &[Rail::Certify],
    },
];

impl Case {
    /// A clean row uses each rail's own default geometry; a defect row is
    /// pinned, on every rail, to a geometry where the defect is live.
    fn new(
        name: String,
        pos: Position,
        op: RedOp,
        ty: CType,
        defect: Option<&Defect>,
    ) -> Result<Case, String> {
        let mut opts = CompilerOptions::openuh();
        let dims = defect.and_then(|d| {
            (d.inject)(&mut opts);
            d.dims
        });
        let verify_dims = dims.unwrap_or(match defect {
            None => LaunchDims::paper(),
            Some(_) => SAN_DIMS,
        });
        let src = case_source(pos, op, ty);
        let hir = uhacc::parse::compile(&src).map_err(|d| d.render(&src))?;
        let compiled = compile_region(&hir, 0, verify_dims, &opts).map_err(|d| d.render(&src))?;
        Ok(Case {
            name,
            pos,
            op,
            ty,
            src,
            opts,
            verify_dims,
            san_dims: dims.unwrap_or(SAN_DIMS),
            cert_dims: dims.unwrap_or_else(certify_dims),
            rails: defect.map_or(ALL_RAILS, |d| d.rails),
            compiled: Arc::new(compiled),
        })
    }
}

fn cases() -> Result<Vec<Case>, String> {
    let mut out = Vec::new();
    for pos in Position::all() {
        for ty in [CType::Int, CType::Double] {
            let name = format!("openuh {} {} +", pos.label(), ctype_name(ty));
            out.push(Case::new(name, pos, RedOp::Add, ty, None)?);
        }
    }
    for d in &DEFECTS {
        out.push(Case::new(d.name.into(), d.pos, d.op, CType::Int, Some(d))?);
    }
    Ok(out)
}

/// Parse `rails.tsv`: `(case, rail) → expected verdict`.
fn parse_expectations(text: &str) -> Result<BTreeMap<(String, String), String>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [case, rail, expect] = cols[..] else {
            return Err(format!(
                "rails.tsv line {}: expected 3 tab-separated columns",
                n + 1
            ));
        };
        if map
            .insert((case.to_string(), rail.to_string()), expect.to_string())
            .is_some()
        {
            return Err(format!(
                "rails.tsv line {}: ({case}, {rail}) listed twice",
                n + 1
            ));
        }
    }
    Ok(map)
}

impl CheckRails {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expect/rails.tsv");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut expect = parse_expectations(&text)?;
        let cases = cases()?;
        let mut ops = Vec::new();
        for (i, c) in cases.iter().enumerate() {
            for &rail in c.rails {
                let key = (c.name.clone(), rail.name().to_string());
                let expect = expect
                    .remove(&key)
                    .ok_or_else(|| format!("rails.tsv has no row for {key:?}"))?;
                ops.push(Op {
                    case: i,
                    rail,
                    expect,
                });
            }
        }
        if let Some(stray) = expect.keys().next() {
            return Err(format!("rails.tsv row {stray:?} matches no op"));
        }
        Rng::new(seed, 0).shuffle(&mut ops);
        let mut w = CheckRails {
            seed,
            cases,
            ops,
            rec: Recorder::new(Instant::now()),
        };
        // Warm-up: the first case on each rail, untimed and checked — the
        // same three ops whatever the seed. (A whole pass would make
        // set-up as long as a pass for nothing: the checkers keep no
        // state between ops.)
        let mut warm = PassOut::default();
        let mut rng = Rng::new(seed, u64::MAX);
        for i in 0..w.ops.len() {
            if w.ops[i].case == 0 {
                w.run_op(i, 0, &mut rng, &mut warm);
            }
        }
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(w),
        }
    }

    fn run_op(&mut self, i: usize, op_id: u32, rng: &mut Rng, out: &mut PassOut) {
        let op = &self.ops[i];
        let c = &self.cases[op.case];
        let input = (op.rail == Rail::Sanitize).then(|| self.input(c, rng));
        let (ns, verdict) = timed(&mut self.rec, op_id, |rec| match op.rail {
            Rail::Verify => Self::verify(c, rec),
            Rail::Certify => Self::certify(c, rec),
            Rail::Sanitize => Self::simulate(
                c,
                SanitizerLevel::Full,
                input.expect("drawn for the sanitize rail"),
                rec,
            ),
        });
        let check = verdict.and_then(|v| {
            bump(&mut out.counts, "gpsim.verify_findings", v.findings);
            bump(&mut out.counts, "gpsim.cert_observables", v.observables);
            if let Some(s) = &v.stats {
                add_session_stats(&mut out.counts, s);
            }
            if v.label == op.expect {
                Ok(())
            } else {
                Err(format!("verdict `{}`, expected `{}`", v.label, op.expect))
            }
        });
        out.push(&format!("{} / {}", c.name, op.rail.name()), ns, check);
    }

    fn verify(c: &Case, rec: &mut Recorder) -> Result<Verdict, String> {
        let reports = span!(rec, "gpsim.verify", {
            let vc = VerifyConfig::default();
            let d = c.verify_dims;
            let mut reports = vec![verify_kernel(
                &c.compiled.main,
                LaunchConfig::gwv(d.gangs, d.workers, d.vector),
                &vc,
            )];
            for f in &c.compiled.finalize {
                reports.push(verify_kernel(
                    &f.kernel,
                    LaunchConfig::d1(1, f.threads),
                    &vc,
                ));
            }
            reports
        });
        let errors: u64 = reports.iter().map(|r| r.errors()).sum();
        Ok(Verdict {
            label: if errors == 0 { "clean" } else { "detected" }.into(),
            findings: reports.iter().map(|r| r.findings.len() as u64).sum(),
            observables: 0,
            stats: None,
        })
    }

    fn certify(c: &Case, rec: &mut Recorder) -> Result<Verdict, String> {
        let req = RunRequest {
            opts: c.opts.clone(),
            dims: c.cert_dims,
            host_threads: HOST_THREADS,
            exec_tier: ExecTier::Auto,
            ..RunRequest::default()
        };
        let reports = span!(rec, "gpsim.cert", certify_reports(&c.src, &req, |_| {}))
            .map_err(|e| e.to_string())?;
        let worst = reports
            .iter()
            .fold(CertVerdict::Certified, |w, r| w.merge(r.verdict.clone()));
        if reports.is_empty() {
            return Err("the validator produced no report".into());
        }
        Ok(Verdict {
            label: worst.label().into(),
            findings: 0,
            observables: reports.iter().map(|r| r.observables.len() as u64).sum(),
            stats: None,
        })
    }

    /// A run of the case under the sanitizer at `level`.
    fn simulate(
        c: &Case,
        level: SanitizerLevel,
        input: HostBuffer,
        rec: &mut Recorder,
    ) -> Result<Verdict, String> {
        let mut r = span!(
            rec,
            "accrt.session",
            AccRunner::with_options(&c.src, c.opts.clone(), c.san_dims, Device::default())
        )
        .map_err(|e| e.to_string())?;
        r.set_host_threads(HOST_THREADS);
        r.sanitize(level);
        span!(rec, "accrt.bind", {
            bind_extents(c.pos, SAN_RED_N, |n, v| r.bind_int(n, v));
            r.bind_array("input", input).expect("input binds");
            if let Some(n) = out_len(c.pos, SAN_RED_N) {
                r.bind_array("out", HostBuffer::new(c.ty, n))
                    .expect("out binds");
            }
        });
        span!(rec, "gpsim.sanitize", r.run()).map_err(|e| e.to_string())?;
        let raised = |class| r.hazards().iter().any(|h| h.class == class);
        let classes: Vec<&str> = [
            HazardClass::RaceCheck,
            HazardClass::InitCheck,
            HazardClass::SyncCheck,
        ]
        .into_iter()
        .filter(|&c| raised(c))
        .map(|c| c.label())
        .collect();
        Ok(Verdict {
            label: if classes.is_empty() {
                "clean".into()
            } else {
                classes.join("+")
            },
            findings: 0,
            observables: 0,
            stats: Some(*r.device().stats()),
        })
    }

    fn input(&self, c: &Case, rng: &mut Rng) -> HostBuffer {
        draw_input(c.pos, c.op, c.ty, SAN_RED_N, rng).0
    }
}

impl Workload for CheckRails {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn op_list_hash(&self) -> u64 {
        let text: String = self
            .ops
            .iter()
            .flat_map(|o| [self.cases[o.case].name.as_str(), o.rail.name(), &o.expect])
            .collect();
        fnv1a(text.as_bytes())
    }

    fn run_pass(&mut self, pass: u64, traced: bool) -> PassOut {
        self.rec.set_on(traced);
        let mut rng = Rng::new(self.seed.wrapping_add(pass), 1);
        let mut out = PassOut::default();
        for i in 0..self.ops.len() {
            let op_id = (pass as usize * self.ops.len() + i) as u32;
            self.run_op(i, op_id, &mut rng, &mut out);
        }
        out
    }

    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)> {
        vec![(0, self.rec.take())]
    }

    /// The clean rows once more, sanitized and plain back to back: what
    /// full shadowing costs over plain execution of the same case.
    fn side_measurements(&mut self, _quick: bool, m: &mut Metrics) {
        self.rec.set_on(false);
        let mut rng = Rng::new(self.seed, u64::MAX);
        let (mut plain, mut sanitized, mut n) = (0u64, 0u64, 0);
        for c in &self.cases {
            if c.opts != CompilerOptions::openuh() {
                continue;
            }
            for (level, total) in [
                (SanitizerLevel::Full, &mut sanitized),
                (SanitizerLevel::Off, &mut plain),
            ] {
                let input = self.input(c, &mut rng);
                let t = Instant::now();
                let ran = Self::simulate(c, level, input, &mut self.rec);
                *total += t.elapsed().as_nanos() as u64;
                ran.expect("clean rows ran in every pass");
            }
            n += 1;
        }
        m.set("gpsim.sanitize_ratio", sanitized as f64 / plain as f64, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_parse_and_reject_malformed_rows() {
        let m = parse_expectations("# c\n\na\tverify\tclean\na\tcertify\tunknown\n").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[&("a".to_string(), "verify".to_string())], "clean");
        assert!(parse_expectations("a\tverify\n").is_err());
        assert!(parse_expectations("a\tverify\tclean\na\tverify\tdetected\n").is_err());
    }

    /// The committed table covers exactly the ops the workload runs.
    #[test]
    fn committed_table_matches_the_op_list() {
        let w = CheckRails::setup(1).expect("set-up, warm-up pass included");
        assert_eq!(w.ops.len(), 58);
        assert_eq!(
            w.op_list_hash(),
            CheckRails::setup(1).unwrap().op_list_hash()
        );
        assert_ne!(
            w.op_list_hash(),
            CheckRails::setup(2).unwrap().op_list_hash()
        );
    }
}
