//! Tier-1 check of the reduction vocabulary (`accparse::reduction`): one
//! table of operator facts and one recognizer of an update's form, read by
//! every pass. For each of the nine operators at each C type:
//! - an admitted pair spelled the way the testsuite spells it
//!   (`cases::update_stmt`) is read back as that operator by all three
//!   users of the recognizer: sema under a clause, the dataflow events
//!   without one, and redflow's array lattice;
//! - a pair the operator does not admit is a rendered compile error at the
//!   clause, never a device error at run time;
//! - the identity's text (region summaries, L210) names the value codegen
//!   seeds accumulators with (`uhacc_core::types::identity`).

use uhacc::parse::dataflow::{scalar_events, ScalarEventKind};
use uhacc::parse::hir::{AnalyzedProgram, HStmt};
use uhacc::parse::redflow::{classify_array_reduction, ArrayRedVerdict};
use uhacc::parse::{CType, RedOp};
use uhacc::sim::Value;
use uhacc::testsuite::cases::update_stmt;

const TYPES: [CType; 4] = [CType::Int, CType::Long, CType::Float, CType::Double];

fn scalar_source(op: RedOp, ty: CType, clause: bool) -> String {
    let clause = if clause {
        format!(" reduction({op}:s)")
    } else {
        String::new()
    };
    let update = update_stmt(op, ty.is_float(), "s", "a[i]");
    format!(
        "int N; {ty} s;\n{ty} a[N];\n\
         #pragma acc parallel copyin(a)\n{{\n\
         #pragma acc loop gang vector{clause}\n\
         for (int i = 0; i < N; i++) {{ {update} }}\n}}"
    )
}

fn loop_body(prog: &AnalyzedProgram) -> &[HStmt] {
    match &prog.regions[0].body[..] {
        [HStmt::Loop(l)] => &l.body,
        other => panic!("expected one loop, got {other:?}"),
    }
}

#[test]
fn every_spelled_update_is_read_back_as_its_operator() {
    for op in RedOp::ALL {
        for ty in TYPES.into_iter().filter(|&ty| op.admits(ty)) {
            let case = format!("`{op}` on `{ty}`");

            let src = scalar_source(op, ty, true);
            let prog = uhacc::parse::compile(&src).unwrap_or_else(|d| panic!("{case}: {d:?}"));
            let HStmt::Loop(l) = &prog.regions[0].body[0] else {
                panic!("{case}: no loop");
            };
            assert_eq!(l.reductions[0].op, op, "{case}");
            assert!(l.reductions[0].has_update, "{case}");
            assert!(
                matches!(loop_body(&prog), [HStmt::ReduceUpdate { op: o, .. }] if *o == op),
                "{case}: {:?}",
                loop_body(&prog)
            );

            let src = scalar_source(op, ty, false);
            let prog = uhacc::parse::compile(&src).unwrap_or_else(|d| panic!("{case}: {d:?}"));
            let events = scalar_events(&prog.regions[0].body);
            assert!(
                events.iter().any(|e| e.kind == ScalarEventKind::Update(op)),
                "{case}: no clause-less update event"
            );

            let update = update_stmt(op, ty.is_float(), "acc[0]", "b[i]");
            let src = format!(
                "int N;\n{ty} acc[N]; {ty} b[N];\n\
                 #pragma acc parallel copy(acc) copyin(b)\n{{\n\
                 #pragma acc loop gang\n\
                 for (int i = 0; i < N; i++) {{ {update} }}\n}}"
            );
            let prog = uhacc::parse::compile(&src).unwrap_or_else(|d| panic!("{case}: {d:?}"));
            let acc = prog.array_index("acc").expect("acc");
            assert!(
                matches!(
                    classify_array_reduction(loop_body(&prog), acc),
                    ArrayRedVerdict::Proven { op: o, sites: 1, .. } if o == op
                ),
                "{case}: array update not proven"
            );
        }
    }
}

#[test]
fn an_inadmissible_pair_is_a_compile_error_at_the_clause() {
    let mut rejected = 0;
    for op in RedOp::ALL {
        for ty in TYPES.into_iter().filter(|&ty| !op.admits(ty)) {
            let src = scalar_source(op, ty, true);
            let d = uhacc::parse::compile(&src).expect_err(&format!("`{op}` on `{ty}`"));
            assert!(
                d.message.contains("needs an integer variable"),
                "{}",
                d.message
            );
            let clause = src.find("reduction(").expect("clause");
            assert!(
                (clause..clause + 20).contains(&d.span.start),
                "`{op}` on `{ty}`: not anchored at the clause: {:?}",
                d.span
            );
            assert!(d.render(&src).contains("^"), "{}", d.render(&src));
            rejected += 1;
        }
    }
    // Five integer-only operators, two floating types.
    assert_eq!(rejected, 10);
}

/// The value an identity's text names at `ty`.
fn value_of(text: &str, ty: CType) -> Value {
    let float = |v: f64| match ty {
        CType::Float => Value::F32(v as f32),
        _ => Value::F64(v),
    };
    let int = |v: i64| match ty {
        CType::Int => Value::I32(v as i32),
        _ => Value::I64(v),
    };
    match text {
        "INT_MIN" => Value::I32(i32::MIN),
        "INT_MAX" => Value::I32(i32::MAX),
        "LONG_MIN" => Value::I64(i64::MIN),
        "LONG_MAX" => Value::I64(i64::MAX),
        "-inf" => float(f64::NEG_INFINITY),
        "+inf" => float(f64::INFINITY),
        "~0" => int(-1),
        _ if ty.is_float() => float(text.parse().expect(text)),
        _ => int(text.parse().expect(text)),
    }
}

#[test]
fn identity_text_names_the_codegen_identity() {
    for op in RedOp::ALL {
        for ty in TYPES.into_iter().filter(|&ty| op.admits(ty)) {
            assert_eq!(
                value_of(op.identity_text(ty), ty),
                uhacc::core::types::identity(op, ty),
                "`{op}` on `{ty}`"
            );
        }
    }
}
