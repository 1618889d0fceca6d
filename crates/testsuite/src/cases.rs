//! Testsuite case definitions: reduction positions, generated directive
//! sources, and operator/type-appropriate input data.
//!
//! The paper: "Since there are no existing benchmarks that could cover all
//! the reduction cases, we have designed and implemented a testsuite to
//! validate all possible cases of reduction including different reduction
//! data types and reduction operations." The sources below follow the
//! shapes of Fig. 4 (single level), Fig. 9 (RMP in different loops) and
//! Fig. 10 (RMP in the same loop). Except for the same-line case, every
//! test is a triple nested loop; the reduction loop has `red_n` iterations
//! and the other two have 2 and 32 (the paper's proportions, scaled).

use accparse::ast::{CType, Level, RedOp};
use gpsim::Value;

/// The reduction positions of Table 2, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Position {
    Gang,
    Worker,
    Vector,
    GangWorker,
    WorkerVector,
    GangWorkerVector,
    /// "same line gang worker vector": one loop carrying all three levels.
    SameLineGwv,
}

impl Position {
    /// All positions, Table 2 order.
    pub fn all() -> [Position; 7] {
        [
            Position::Gang,
            Position::Worker,
            Position::Vector,
            Position::GangWorker,
            Position::WorkerVector,
            Position::GangWorkerVector,
            Position::SameLineGwv,
        ]
    }

    /// Table row label.
    pub fn label(&self) -> &'static str {
        match self {
            Position::Gang => "gang",
            Position::Worker => "worker",
            Position::Vector => "vector",
            Position::GangWorker => "gang worker",
            Position::WorkerVector => "worker vector",
            Position::GangWorkerVector => "gang worker vector",
            Position::SameLineGwv => "same line gang worker vector",
        }
    }

    /// The parallelism levels the reduction spans.
    pub fn levels(&self) -> Vec<Level> {
        match self {
            Position::Gang => vec![Level::Gang],
            Position::Worker => vec![Level::Worker],
            Position::Vector => vec![Level::Vector],
            Position::GangWorker => vec![Level::Gang, Level::Worker],
            Position::WorkerVector => vec![Level::Worker, Level::Vector],
            Position::GangWorkerVector | Position::SameLineGwv => {
                vec![Level::Gang, Level::Worker, Level::Vector]
            }
        }
    }

    /// True for the single-loop RMP case.
    pub fn same_loop(&self) -> bool {
        matches!(self, Position::SameLineGwv)
    }
}

/// Spelling of a C type in generated source.
pub fn ctype_name(t: CType) -> &'static str {
    match t {
        CType::Int => "int",
        CType::Long => "long",
        CType::Float => "float",
        CType::Double => "double",
    }
}

/// The reduction-update statement for `var <op>= expr`.
pub fn update_stmt(op: RedOp, is_float: bool, var: &str, expr: &str) -> String {
    let tok = op.clause_token();
    match op {
        RedOp::Add | RedOp::Mul | RedOp::BitAnd | RedOp::BitOr | RedOp::BitXor => {
            format!("{var} {tok}= {expr};")
        }
        RedOp::Max | RedOp::Min => {
            let f = if is_float { "f" } else { "" };
            format!("{var} = {f}{tok}({var}, {expr});")
        }
        RedOp::LogAnd | RedOp::LogOr => format!("{var} = {var} {tok} {expr};"),
    }
}

/// Host-side initial value of the reduction variable (chosen so that a
/// wrong initial-value fold is visible, without overflowing products).
pub fn initial_value(op: RedOp, t: CType) -> &'static str {
    let float = t.is_float();
    match op {
        RedOp::Add => {
            if float {
                "2.5"
            } else {
                "3"
            }
        }
        RedOp::Mul => "1",
        RedOp::Max => {
            if float {
                "-1.0e30"
            } else {
                "-1000000"
            }
        }
        RedOp::Min => {
            if float {
                "1.0e30"
            } else {
                "1000000"
            }
        }
        RedOp::BitAnd => "-1",
        RedOp::BitOr | RedOp::BitXor | RedOp::LogOr => "0",
        RedOp::LogAnd => "1",
    }
}

/// Deterministic input element `idx` for (op, type): values chosen so the
/// reduction stays informative (products bounded for floats, logical data
/// mostly-true/mostly-false, ...). Integer products may wrap; wrapping is
/// C semantics and matches the CPU reference exactly.
pub fn gen_value(op: RedOp, t: CType, idx: usize) -> Value {
    let h = idx.wrapping_mul(2654435761) >> 7;
    let v: f64 = match op {
        RedOp::Add => ((h % 13) as f64) - 4.0,
        RedOp::Mul => {
            if t.is_float() {
                1.0 + (((h % 7) as f64) - 3.0) * 1e-8
            } else {
                1.0 + ((h % 2) as f64)
            }
        }
        RedOp::Max | RedOp::Min => ((h % 100_000) as f64) - 50_000.0,
        RedOp::BitAnd | RedOp::BitOr | RedOp::BitXor => (h & 0xffff_ffff) as f64,
        RedOp::LogAnd => {
            if h % 50_000 == 17 {
                0.0
            } else {
                1.0
            }
        }
        RedOp::LogOr => {
            if h % 50_000 == 17 {
                1.0
            } else {
                0.0
            }
        }
    };
    match t {
        CType::Int => Value::I32(v as i32),
        CType::Long => Value::I64(v as i64),
        CType::Float => Value::F32(v as f32),
        CType::Double => Value::F64(v),
    }
}

/// Loop extents `(NK, NJ, NI)` for a position given the reduction size.
pub fn extents(pos: Position, red_n: usize) -> (usize, usize, usize) {
    match pos {
        Position::Gang | Position::GangWorker | Position::GangWorkerVector => (red_n, 2, 32),
        Position::Worker | Position::WorkerVector => (2, red_n, 32),
        Position::Vector => (2, 32, red_n),
        // One loop; NJ/NI unused.
        Position::SameLineGwv => (red_n, 1, 1),
    }
}

/// Generate the directive source for a testsuite case.
///
/// `sum` is always a host scalar so every case is verified the same way;
/// positions whose reduction is naturally per-gang (worker/vector/wv)
/// store per-iteration results into `temp`/`out`, which are also compared.
pub fn case_source(pos: Position, op: RedOp, t: CType) -> String {
    let ty = ctype_name(t);
    let float = t.is_float();
    let init = initial_value(op, t);
    match pos {
        Position::Gang => format!(
            r#"
int NK; int NJ; int NI;
{ty} sum;
{ty} input[NK][NJ][NI];
{ty} temp[NK][NJ][NI];
sum = {init};
#pragma acc parallel copyin(input) create(temp)
{{
    #pragma acc loop gang reduction({op}:sum)
    for (int k = 0; k < NK; k++) {{
        #pragma acc loop worker
        for (int j = 0; j < NJ; j++) {{
            #pragma acc loop vector
            for (int i = 0; i < NI; i++) {{
                temp[k][j][i] = input[k][j][i];
            }}
        }}
        {update}
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "sum", "temp[k][0][0]"),
        ),
        Position::Worker => format!(
            r#"
int NK; int NJ; int NI;
{ty} input[NK][NJ][NI];
{ty} temp[NK][NJ][NI];
{ty} out[NK];
#pragma acc parallel copyin(input) create(temp) copyout(out)
{{
    #pragma acc loop gang
    for (int k = 0; k < NK; k++) {{
        {ty} j_sum = {init};
        #pragma acc loop worker reduction({op}:j_sum)
        for (int j = 0; j < NJ; j++) {{
            #pragma acc loop vector
            for (int i = 0; i < NI; i++) {{
                temp[k][j][i] = input[k][j][i];
            }}
            {update}
        }}
        out[k] = j_sum;
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "j_sum", "temp[k][j][0]"),
        ),
        Position::Vector => format!(
            r#"
int NK; int NJ; int NI;
{ty} input[NK][NJ][NI];
{ty} out[NK][NJ];
#pragma acc parallel copyin(input) copyout(out)
{{
    #pragma acc loop gang
    for (int k = 0; k < NK; k++) {{
        #pragma acc loop worker
        for (int j = 0; j < NJ; j++) {{
            {ty} i_sum = {init};
            #pragma acc loop vector reduction({op}:i_sum)
            for (int i = 0; i < NI; i++) {{
                {update}
            }}
            out[k][j] = i_sum;
        }}
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "i_sum", "input[k][j][i]"),
        ),
        Position::GangWorker => format!(
            r#"
int NK; int NJ; int NI;
{ty} sum;
{ty} input[NK][NJ][NI];
{ty} temp[NK][NJ][NI];
sum = {init};
#pragma acc parallel copyin(input) create(temp)
{{
    #pragma acc loop gang reduction({op}:sum)
    for (int k = 0; k < NK; k++) {{
        #pragma acc loop worker
        for (int j = 0; j < NJ; j++) {{
            #pragma acc loop vector
            for (int i = 0; i < NI; i++) {{
                temp[k][j][i] = input[k][j][i];
            }}
            {update}
        }}
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "sum", "temp[k][j][0]"),
        ),
        Position::WorkerVector => format!(
            r#"
int NK; int NJ; int NI;
{ty} input[NK][NJ][NI];
{ty} out[NK];
#pragma acc parallel copyin(input) copyout(out)
{{
    #pragma acc loop gang
    for (int k = 0; k < NK; k++) {{
        {ty} j_sum = {init};
        #pragma acc loop worker reduction({op}:j_sum)
        for (int j = 0; j < NJ; j++) {{
            #pragma acc loop vector
            for (int i = 0; i < NI; i++) {{
                {update}
            }}
        }}
        out[k] = j_sum;
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "j_sum", "input[k][j][i]"),
        ),
        Position::GangWorkerVector => format!(
            r#"
int NK; int NJ; int NI;
{ty} sum;
{ty} input[NK][NJ][NI];
sum = {init};
#pragma acc parallel copyin(input)
{{
    #pragma acc loop gang reduction({op}:sum)
    for (int k = 0; k < NK; k++) {{
        #pragma acc loop worker
        for (int j = 0; j < NJ; j++) {{
            #pragma acc loop vector
            for (int i = 0; i < NI; i++) {{
                {update}
            }}
        }}
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "sum", "input[k][j][i]"),
        ),
        Position::SameLineGwv => format!(
            r#"
int N;
{ty} sum;
{ty} input[N];
sum = {init};
#pragma acc parallel copyin(input)
{{
    #pragma acc loop gang worker vector reduction({op}:sum)
    for (int i = 0; i < N; i++) {{
        {update}
    }}
}}
"#,
            op = op.clause_token(),
            update = update_stmt(op, float, "sum", "input[i]"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_parse_and_analyze() {
        for pos in Position::all() {
            for op in [
                RedOp::Add,
                RedOp::Mul,
                RedOp::Max,
                RedOp::BitXor,
                RedOp::LogAnd,
            ] {
                for t in [CType::Int, CType::Long, CType::Float, CType::Double] {
                    if !op.admits(t) {
                        continue;
                    }
                    let src = case_source(pos, op, t);
                    let r = accparse::compile(&src);
                    assert!(
                        r.is_ok(),
                        "{} {} {}: {}",
                        pos.label(),
                        op,
                        ctype_name(t),
                        r.err().map(|e| e.render(&src)).unwrap_or_default()
                    );
                }
            }
        }
    }

    #[test]
    fn detected_spans_match_position() {
        use accparse::hir::visit_loops;
        for pos in Position::all() {
            let src = case_source(pos, RedOp::Add, CType::Int);
            let prog = accparse::compile(&src).unwrap();
            let mut spans = Vec::new();
            visit_loops(&prog.regions[0].body, &mut |l| {
                for r in &l.reductions {
                    spans.push(r.span_levels.clone());
                }
            });
            assert_eq!(spans.len(), 1, "{}", pos.label());
            assert_eq!(spans[0], pos.levels(), "{}", pos.label());
        }
    }

    #[test]
    fn data_generator_properties() {
        // Mul float data stays near 1.
        for i in 0..1000 {
            let v = gen_value(RedOp::Mul, CType::Double, i).as_f64();
            assert!((v - 1.0).abs() < 1e-6);
        }
        // LogAnd data is mostly ones with at least one zero in a big range.
        let zeros = (0..200_000)
            .filter(|&i| gen_value(RedOp::LogAnd, CType::Int, i).as_i64() == 0)
            .count();
        assert!(zeros > 0);
        // Types match.
        assert!(matches!(
            gen_value(RedOp::Add, CType::Float, 3),
            Value::F32(_)
        ));
        assert!(matches!(
            gen_value(RedOp::Add, CType::Long, 3),
            Value::I64(_)
        ));
    }

    #[test]
    fn extents_follow_paper_proportions() {
        assert_eq!(extents(Position::Gang, 100), (100, 2, 32));
        assert_eq!(extents(Position::Worker, 100), (2, 100, 32));
        assert_eq!(extents(Position::Vector, 100), (2, 32, 100));
        assert_eq!(extents(Position::SameLineGwv, 100), (100, 1, 1));
    }
}
