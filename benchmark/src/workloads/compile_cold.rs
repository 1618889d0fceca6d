//! `compile_cold` — no simulation, no checker, nothing cached: every op
//! takes one source of a seeded corpus through parse → sema → lint →
//! redflow → codegen of every region → the plan/disassembly renderer.
//! The only workload where `accparse`, `uhacc_core::codegen` and the
//! renderers do all the work. `verify_kernel` is deliberately left out:
//! at ~1.4 ms it would bury the ~0.2 ms front end.

use super::{add_region_statics, timed};
use crate::harness::{bump, PassOut, Workload};
use crate::json;
use crate::rng::{fnv1a, Rng};
use crate::span::{Recorder, Span};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use uhacc::baselines::{Compiler, ReductionCase};
use uhacc::core::{compile_region, program_key, CompiledRegion, CompilerOptions, LaunchDims};
use uhacc::driver::{compile_text, EmitFlags};
use uhacc::parse::hir::{visit_loops, AnalyzedProgram};
use uhacc::parse::{lint_program, parser, redflow, sema, CType, RedOp};
use uhacc::testsuite::cases::{case_source, ctype_name, initial_value, update_stmt, Position};

struct Source {
    name: String,
    src: String,
    opts: CompilerOptions,
    compiler: &'static str,
    /// Lint codes the source is documented to raise (empty: none).
    expect: BTreeSet<String>,
}

/// What one op produced, for checking outside its timed part.
struct Compiled {
    codes: BTreeSet<String>,
    findings: usize,
    hir_loops: u64,
    regions: Vec<Arc<CompiledRegion>>,
    /// Codegen's diagnostic when it rejected the program; the listing
    /// and the rendered text are then empty.
    rejected: Option<String>,
    disasm_hash: u64,
    plan_json: String,
    text: String,
}

/// The lint code whose finding is documented (in `tp_mixed_depth.c`) as
/// a shape codegen rejects: such a source's op ends at codegen, and the
/// rejection is its correct outcome.
const REJECTED_BY_CODEGEN: &str = "L104";

pub struct CompileCold {
    corpus: Vec<Source>,
    /// Disassembly fingerprint per op, from the first pass that ran it:
    /// codegen must be deterministic from pass to pass.
    disasm: Vec<Option<u64>>,
    rec: Recorder,
}

/// The repository root: the benchmark package sits directly below it.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Codes named in an example's `// expect: L100 L200` header.
fn header_codes(src: &str) -> BTreeSet<String> {
    src.lines()
        .next()
        .and_then(|l| l.strip_prefix("// expect:"))
        .map(|rest| rest.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default()
}

fn c_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            c_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "c") {
            out.push(path);
        }
    }
    Ok(())
}

/// What varies from one synthetic region to the next.
#[derive(Debug, Clone, Copy)]
struct RegionShape {
    op: RedOp,
    sched: &'static str,
    expr: &'static str,
    data: &'static str,
}

/// Region counts of the synthetic programs: each for `int` and `double`,
/// twice. They vary source size at fixed density.
const SYNTHETIC_REGIONS: [usize; 3] = [1, 4, 16];

/// The shapes of all synthetic regions of a corpus: always the same
/// multiset — every (operator, schedule, operand) combination, over and
/// over — dealt out in a seed-determined order, so the corpus costs the
/// same to compile whatever the seed and only its arrangement varies.
fn region_shapes(rng: &mut Rng) -> Vec<RegionShape> {
    let total = SYNTHETIC_REGIONS.iter().sum::<usize>() * 4;
    let mut all = Vec::new();
    for op in [RedOp::Add, RedOp::Max, RedOp::Min] {
        for sched in ["gang vector", "gang worker vector", "gang"] {
            for (expr, data) in [
                ("a[i]", "copyin(a)"),
                ("a[i] * b[i]", "copyin(a, b)"),
                ("a[i] + b[i]", "copyin(a, b)"),
            ] {
                all.push(RegionShape {
                    op,
                    sched,
                    expr,
                    data,
                });
            }
        }
    }
    let mut shapes: Vec<RegionShape> = all.iter().cycle().take(total).copied().collect();
    rng.shuffle(&mut shapes);
    shapes
}

/// A lint-clean program of independent reduction regions over two shared
/// arrays, one region per shape.
fn synthetic(shapes: &[RegionShape], ty: CType) -> String {
    let t = ctype_name(ty);
    let mut decls = format!("int N;\n{t} a[N];\n{t} b[N];\n");
    let (mut inits, mut body) = (String::new(), String::new());
    for (r, shape) in shapes.iter().enumerate() {
        let var = format!("s{r}");
        decls.push_str(&format!("{t} {var};\n"));
        inits.push_str(&format!("{var} = {};\n", initial_value(shape.op, ty)));
        body.push_str(&format!(
            "#pragma acc parallel loop {} reduction({}:{var}) {}\n\
             for (int i = 0; i < N; i++) {{ {} }}\n",
            shape.sched,
            shape.op.clause_token(),
            shape.data,
            update_stmt(shape.op, ty.is_float(), &var, shape.expr),
        ));
    }
    decls + &inits + &body
}

impl CompileCold {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut corpus = Vec::new();
        let openuh = |name: String, src: String, expect| Source {
            name,
            src,
            opts: CompilerOptions::openuh(),
            compiler: "openuh",
            expect,
        };
        // The 84 legal arithmetic Table-2 sources, once per personality
        // that accepts them (a rejection is a Table-2 "CE").
        for pos in Position::all() {
            for op in [RedOp::Add, RedOp::Mul, RedOp::Max] {
                for ty in [CType::Int, CType::Long, CType::Float, CType::Double] {
                    let case = ReductionCase::new(pos.levels(), pos.same_loop(), op, ty);
                    for c in Compiler::all() {
                        let Ok(opts) = c.options_for_case(&case) else {
                            continue;
                        };
                        corpus.push(Source {
                            name: format!(
                                "{} {} {} [{}]",
                                pos.label(),
                                ctype_name(ty),
                                op.clause_token(),
                                c.name()
                            ),
                            src: case_source(pos, op, ty),
                            opts,
                            compiler: c.name(),
                            expect: BTreeSet::new(),
                        });
                    }
                }
            }
        }
        for (name, src) in uhacc::apps::all_sources() {
            corpus.push(openuh(
                format!("app {name}"),
                src.to_string(),
                BTreeSet::new(),
            ));
        }
        let mut files = Vec::new();
        c_files(&repo_root().join("examples"), &mut files)?;
        files.sort();
        for path in files {
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path
                .strip_prefix(repo_root())
                .unwrap_or(&path)
                .display()
                .to_string();
            let expect = header_codes(&src);
            corpus.push(openuh(name, src, expect));
        }
        let mut rng = Rng::new(seed, 0);
        let shapes = region_shapes(&mut rng);
        let mut rest = shapes.as_slice();
        for regions in SYNTHETIC_REGIONS {
            for ty in [CType::Int, CType::Double] {
                for variant in 0..2 {
                    let (mine, later) = rest.split_at(regions);
                    rest = later;
                    corpus.push(openuh(
                        format!("synthetic {regions}r {} #{variant}", ctype_name(ty)),
                        synthetic(mine, ty),
                        BTreeSet::new(),
                    ));
                }
            }
        }
        rng.shuffle(&mut corpus);
        let mut w = CompileCold {
            disasm: vec![None; corpus.len()],
            corpus,
            rec: Recorder::new(Instant::now()),
        };
        // Warm-up: one untimed, checked pass.
        let warm = w.run_pass(0, false);
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(w),
        }
    }

    fn compile(s: &Source, rec: &mut Recorder) -> Result<Compiled, String> {
        let dims = LaunchDims::paper();
        // `accparse::compile`, stage by stage.
        let ast = span!(rec, "accparse.parse", parser::parse_program(&s.src))
            .map_err(|d| d.render(&s.src))?;
        let hir: AnalyzedProgram = span!(rec, "accparse.sema", {
            sema::analyze(&ast).map(|mut p| {
                p.line_starts = uhacc::parse::line_starts(&s.src);
                p
            })
        })
        .map_err(|d| d.render(&s.src))?;
        let findings = span!(rec, "accparse.lint", lint_program(&hir));
        let plan_json = span!(
            rec,
            "accparse.redflow",
            redflow::fusion_plan_json(&redflow::fusion_plan(&hir))
        );
        span!(
            rec,
            "core.program_key",
            std::hint::black_box(program_key(&s.src, &s.opts))
        );
        let codegen = span!(rec, "core.codegen", {
            (0..hir.regions.len())
                .map(|r| compile_region(&hir, r, dims, &s.opts).map(Arc::new))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut hir_loops = 0;
        for r in &hir.regions {
            visit_loops(&r.body, &mut |_| hir_loops += 1);
        }
        let mut out = Compiled {
            codes: findings.iter().map(|f| f.code().to_string()).collect(),
            findings: findings.len(),
            hir_loops,
            regions: Vec::new(),
            rejected: None,
            disasm_hash: 0,
            plan_json,
            text: String::new(),
        };
        let regions = match codegen {
            Ok(regions) => regions,
            Err(d) => {
                out.rejected = Some(d.message);
                return Ok(out);
            }
        };
        out.disasm_hash = span!(rec, "gpsim.disasm", {
            let mut listing = String::new();
            for c in &regions {
                listing.push_str(&c.main.disasm());
                for f in &c.finalize {
                    listing.push_str(&f.kernel.disasm());
                }
            }
            fnv1a(listing.as_bytes())
        });
        // The renderer gets the artefacts compiled above: it renders,
        // codegen is not paid twice.
        out.text = span!(rec, "driver.compile_text", {
            compile_text(&hir, dims, s.compiler, EmitFlags::default(), &|r, _| {
                Ok(Arc::clone(&regions[r]))
            })
        })
        .map_err(|(r, d)| format!("region {r}: {}", d.render(&s.src)))?
        .text;
        out.regions = regions;
        Ok(out)
    }

    fn check(s: &Source, first_disasm: &mut Option<u64>, c: &Compiled) -> Result<(), String> {
        if c.codes != s.expect {
            return Err(format!(
                "lint raised {:?}, documented {:?}",
                c.codes, s.expect
            ));
        }
        if *first_disasm.get_or_insert(c.disasm_hash) != c.disasm_hash {
            return Err("disassembly differs from an earlier pass".into());
        }
        json::parse(&c.plan_json).map_err(|e| format!("fusion plan is not JSON: {e}"))?;
        match (&c.rejected, s.expect.contains(REJECTED_BY_CODEGEN)) {
            (Some(_), true) => return Ok(()),
            (Some(why), false) => return Err(format!("codegen rejected it: {why}")),
            (None, true) => return Err("codegen accepted a shape it documents rejecting".into()),
            (None, false) => {}
        }
        let banner = format!(
            "// uhacc-cc: {} region(s), compiler = {}",
            c.regions.len(),
            s.compiler
        );
        if !c.text.starts_with(&banner) || !c.text.contains(".kernel") {
            return Err("rendered text lacks its banner or a kernel listing".into());
        }
        Ok(())
    }
}

impl Workload for CompileCold {
    fn ops_per_pass(&self) -> usize {
        self.corpus.len()
    }

    fn op_list_hash(&self) -> u64 {
        let text: String = self
            .corpus
            .iter()
            .flat_map(|s| [s.name.as_str(), s.src.as_str()])
            .collect();
        fnv1a(text.as_bytes())
    }

    fn run_pass(&mut self, pass: u64, traced: bool) -> PassOut {
        self.rec.set_on(traced);
        let mut out = PassOut::default();
        for i in 0..self.corpus.len() {
            let op_id = (pass as usize * self.corpus.len() + i) as u32;
            let s = &self.corpus[i];
            let (ns, compiled) = timed(&mut self.rec, op_id, |rec| Self::compile(s, rec));
            let check = compiled.and_then(|c| {
                bump(&mut out.counts, "raw.src_bytes", s.src.len() as u64);
                bump(&mut out.counts, "accparse.hir_loops", c.hir_loops);
                bump(&mut out.counts, "accparse.diags", c.findings as u64);
                bump(
                    &mut out.counts,
                    "driver.render_bytes",
                    (c.text.len() + c.plan_json.len()) as u64,
                );
                for r in &c.regions {
                    add_region_statics(&mut out.counts, r);
                }
                Self::check(s, &mut self.disasm[i], &c)
            });
            out.push(&self.corpus[i].name, ns, check);
        }
        let insts = *out.counts.get("core.kernel_insts").unwrap_or(&0);
        bump(&mut out.counts, "kernel_insts", insts);
        out
    }

    fn take_spans(&mut self) -> Vec<(u32, Vec<Span>)> {
        vec![(0, self.rec.take())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_codes_reads_the_first_line_only() {
        let got = header_codes("// expect: L100 L211\nint N;\n// expect: L999\n");
        assert_eq!(got, ["L100", "L211"].map(String::from).into());
        assert!(header_codes("int N;\n// expect: L100\n").is_empty());
    }

    #[test]
    fn synthetic_programs_are_seeded_and_lint_clean() {
        let shapes = |seed| region_shapes(&mut Rng::new(seed, 0));
        let text = |seed| synthetic(&shapes(seed)[..4], CType::Double);
        assert_eq!(text(3), text(3));
        assert_ne!(text(3), text(4));
        // Whatever the seed, the same multiset of shapes is dealt out.
        let key = |s: &RegionShape| format!("{s:?}");
        let (mut a, mut b): (Vec<_>, Vec<_>) = (
            shapes(3).iter().map(key).collect(),
            shapes(4).iter().map(key).collect(),
        );
        assert_eq!(a.len(), 84);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every shape lints clean in both element types.
        for ty in [CType::Int, CType::Double] {
            let src = synthetic(&shapes(1), ty);
            let (hir, findings) = uhacc::parse::lint_source(&src)
                .unwrap_or_else(|d| panic!("{}\n{src}", d.render(&src)));
            assert_eq!(hir.regions.len(), 84);
            assert!(findings.is_empty(), "{:?}\n{src}", findings[0].diag.message);
        }
    }
}
