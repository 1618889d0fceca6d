//! One rule per front-end construct: a host-scope expression and the same
//! expression in a kernel are typed by one typer, a plain loop and every
//! level of a `collapse` nest obey one loop rule, and a directive that
//! must govern a `for` loop names itself, as written, when it does not.

// proptest's config idiom spells out `..default()` for forward compat.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use uhacc::baselines::CpuExec;
use uhacc::parse::compile;
use uhacc::prelude::*;

/// One expression, evaluated three ways after `decls` (host declarations
/// and assignments): as a host assignment, in a 1-gang kernel, and by the
/// CPU reference over that kernel. Each result is the bits of the value
/// stored into a `double`, or the error's text.
fn three_ways(decls: &str, expr: &str) -> [Result<u64, String>; 3] {
    let region = |value: &str| {
        format!(
            "#pragma acc parallel copyout(out)\n{{\n#pragma acc loop gang\n\
             for (int i = 0; i < 1; i++) {{ out[i] = {value}; }}\n}}\n"
        )
    };
    let host_src = format!(
        "{decls}\ndouble r;\ndouble out[1];\nr = {expr};\n{}",
        region("0.0")
    );
    let kernel_src = format!("{decls}\ndouble out[1];\n{}", region(expr));
    let dims = LaunchDims {
        gangs: 1,
        workers: 1,
        vector: 32,
    };
    let device = |src: &str, read: &dyn Fn(&AccRunner) -> Result<f64, AccError>| {
        let mut gpu =
            AccRunner::with_options(src, CompilerOptions::openuh(), dims, Device::default())?;
        gpu.bind_array("out", HostBuffer::from_f64(&[0.0]))?;
        gpu.run()?;
        read(&gpu)
    };
    let host = device(&host_src, &|g| Ok(g.scalar("r")?.as_f64()));
    let kernel = device(&kernel_src, &|g| Ok(g.array("out")?.to_f64_vec()[0]));
    let cpu = CpuExec::new(&kernel_src).and_then(|mut cpu| {
        cpu.bind_array("out", HostBuffer::from_f64(&[0.0]))?;
        cpu.run()?;
        Ok(cpu.array("out")?.to_f64_vec()[0])
    });
    [host, kernel, cpu].map(|r| r.map(f64::to_bits).map_err(|e| e.to_string()))
}

/// All three ways agree bit for bit, or all three fail.
fn agree(decls: &str, expr: &str) -> Result<(), String> {
    match three_ways(decls, expr) {
        [Ok(h), Ok(k), Ok(c)] if h == k && k == c => Ok(()),
        [Err(_), Err(_), Err(_)] => Ok(()),
        [h, k, c] => Err(format!(
            "`{expr}` after `{decls}`:\n  host   {:?}\n  kernel {:?}\n  cpu    {:?}",
            h.map(f64::from_bits),
            k.map(f64::from_bits),
            c.map(f64::from_bits)
        )),
    }
}

#[test]
fn host_logical_not_is_a_c_int() {
    let decls = "double d;\nd = 0;";
    let zero = Ok(0.0f64.to_bits());
    assert_eq!(
        three_ways(decls, "!d / 2"),
        [zero.clone(), zero.clone(), zero]
    );
}

#[test]
fn host_bitwise_not_on_a_double_is_a_compile_error_at_the_expression() {
    let src = "double d; double m;\nd = 1.5;\nm = ~d;\n\
               #pragma acc parallel\n{\n#pragma acc loop gang\n\
               for (int i = 0; i < 4; i++) { m = 1.0; }\n}\n";
    let err = compile(src).unwrap_err();
    assert_eq!(err.message, "`~` requires an integer operand");
    assert_eq!(&src[err.span.start..err.span.end], "~d");
    let ways = three_ways("double d;\nd = 1.5;", "~d");
    for w in &ways {
        assert!(
            matches!(w, Err(e) if e.contains("requires an integer operand")),
            "{ways:?}"
        );
    }
}

#[test]
fn a_collapsed_level_obeys_the_loop_rule() {
    let nest = |outer: &str, inner: &str| {
        format!(
            "int N; int M; double s;\ns = 0;\n#pragma acc parallel\n{{\n\
             #pragma acc loop gang collapse(2) reduction(+:s)\n\
             for ({outer} i = 0; i < N; i++) {{\n\
             for ({inner} j = 0; j < M; j++) {{ s += 1.0; }}\n}}\n}}\n"
        )
    };
    assert!(compile(&nest("int", "long")).is_ok());
    for (src, var) in [(nest("int", "double"), "j"), (nest("float", "int"), "i")] {
        let err = compile(&src).unwrap_err();
        assert_eq!(err.message, "loop variable must have integer type");
        assert_eq!(&src[err.span.start..err.span.end], var);
    }
    // The same rule, with the same words, as on a plain loop.
    let plain = "int N; double s;\ns = 0;\n#pragma acc parallel\n{\n\
                 #pragma acc loop gang reduction(+:s)\n\
                 for (double i = 0; i < N; i++) { s += 1.0; }\n}\n";
    assert_eq!(
        compile(plain).unwrap_err().message,
        "loop variable must have integer type"
    );
    // A collapsed level still steps by one in the direction its test reads.
    let backwards = nest("int", "int").replace("j++", "j--");
    assert_eq!(
        compile(&backwards).unwrap_err().message,
        "loop step direction contradicts its condition"
    );
}

#[test]
fn a_directive_without_its_for_loop_names_the_directive_written() {
    let cases = [
        (
            "#pragma omp target teams distribute map(to: a[0:N]) reduction(+:s)\n\
             for (int i = 0; i < N; i++) {\n#pragma omp parallel for\ns += a[i];\n}\n",
            "`#pragma omp parallel for` must be followed by a for loop",
        ),
        (
            "#pragma omp target teams distribute parallel for map(to: a) reduction(+:s)\n\
             s += a[0];\n",
            "`#pragma omp target teams distribute parallel for` must be followed by a for loop",
        ),
        (
            "#pragma acc kernels loop gang reduction(+:s)\ns += a[0];\n",
            "`#pragma acc kernels loop` must be followed by a for loop",
        ),
        (
            "#pragma acc parallel\n{\n#pragma acc loop gang\ns += a[0];\n}\n",
            "`#pragma acc loop` must be followed by a for loop",
        ),
    ];
    for (region, message) in cases {
        let src = format!("int N; double s;\ndouble a[N];\ns = 0;\n{region}");
        let err = compile(&src).unwrap_err();
        assert_eq!(err.message, message, "{src}");
        // Anchored at the statement that should have been the loop.
        assert!(src[err.span.start..].starts_with("s += a["), "{src}");
    }
}

// ---- host scope and kernel agree on every expression --------------------

/// A random expression over `int` and `double` literals and the host
/// scalars `i1`, `i2`, `d1`, `d2`, paired with whether it is
/// integer-typed. Integer-only operators are mostly applied at integer
/// type; the raw `~` arm also reaches doubles, where every path must
/// reject it.
fn gen_expr() -> impl Strategy<Value = (String, bool)> {
    let leaf = prop_oneof![
        (-20i32..20).prop_map(|v| (v.to_string(), true)),
        (-40i32..40).prop_map(|k| (format!("{:?}", f64::from(k) / 8.0), false)),
        prop::sample::select(vec![
            ("i1", true),
            ("i2", true),
            ("d1", false),
            ("d2", false)
        ])
        .prop_map(|(n, int)| (n.to_string(), int)),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop::sample::select(vec!["+", "-", "*"])
            )
                .prop_map(|((a, ai), (b, bi), op)| (format!("({a} {op} {b})"), ai && bi)),
            (
                inner.clone(),
                inner.clone(),
                prop::sample::select(vec!["<", "<=", "==", "!=", "&&", "||"])
            )
                .prop_map(|((a, _), (b, _), op)| (format!("({a} {op} {b})"), true)),
            inner.clone().prop_map(|(a, ai)| {
                let op = if ai { "% 3" } else { "/ 4" };
                (format!("({a} {op})"), ai)
            }),
            inner.clone().prop_map(|(a, _)| (format!("(!{a})"), true)),
            inner.clone().prop_map(|(a, ai)| {
                let op = if ai { "~" } else { "-" };
                (format!("({op}({a}))"), ai)
            }),
            inner.clone().prop_map(|(a, ai)| (format!("(~({a}))"), ai)),
            (inner.clone(), any::<bool>()).prop_map(|((a, _), int)| {
                let ty = if int { "int" } else { "double" };
                (format!("(({ty}) {a})"), int)
            }),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|((c, _), (t, ti), (e, ei))| (format!("({c} ? {t} : {e})"), ti && ei)),
            (inner.clone(), inner.clone())
                .prop_map(|((a, _), (b, _))| (format!("fmax({a}, {b})"), false)),
            inner.prop_map(|(a, ai)| {
                let f = if ai { "abs" } else { "fabs" };
                (format!("{f}({a})"), ai)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, max_shrink_iters: 40, .. ProptestConfig::default() })]

    /// A host assignment, a 1-gang kernel and the CPU reference compute
    /// the same bits for one expression, or all three refuse it.
    #[test]
    fn host_kernel_and_cpu_agree_on_every_expression(
        (expr, _) in gen_expr(),
        i1 in -9i32..9,
        i2 in -9i32..9,
        d1 in -40i32..40,
        d2 in -40i32..40,
    ) {
        let decls = format!(
            "int i1; int i2; double d1; double d2;\ni1 = {i1}; i2 = {i2};\n\
             d1 = {:?}; d2 = {:?};",
            f64::from(d1) / 8.0,
            f64::from(d2) / 8.0
        );
        if let Err(e) = agree(&decls, &expr) {
            return Err(TestCaseError::fail(e));
        }
    }
}
