//! Cross-crate integration tests: front end → compiler → runtime →
//! simulator → verification against the CPU reference executor.

use uhacc::baselines::{Compiler, CpuExec};
use uhacc::prelude::*;

/// A program with two regions sharing state: the first computes row sums
/// into `rs`, the second reduces `rs` to a scalar.
#[test]
fn two_regions_share_data_environment() {
    let src = r#"
        int N; int M;
        double total;
        double A[N][M];
        double rs[N];
        total = 0.0;
        #pragma acc parallel copyin(A) copyout(rs)
        {
            #pragma acc loop gang worker
            for (int i = 0; i < N; i++) {
                double s = 0.0;
                #pragma acc loop vector reduction(+:s)
                for (int j = 0; j < M; j++) {
                    s += A[i][j];
                }
                rs[i] = s;
            }
        }
        #pragma acc parallel copyin(rs)
        {
            #pragma acc loop gang vector reduction(+:total)
            for (int i = 0; i < N; i++) {
                total += rs[i];
            }
        }
    "#;
    let (n, m) = (40usize, 300usize);
    let a: Vec<f64> = (0..n * m).map(|x| ((x % 17) as f64) * 0.5 - 4.0).collect();

    let mut r = AccRunner::new(src).unwrap();
    r.bind_int("N", n as i64).unwrap();
    r.bind_int("M", m as i64).unwrap();
    r.bind_array("A", HostBuffer::from_f64(&a)).unwrap();
    r.bind_array("rs", HostBuffer::new(accparse::CType::Double, n))
        .unwrap();
    r.run().unwrap();

    let want: f64 = a.iter().sum();
    let got = r.scalar("total").unwrap().as_f64();
    assert!(
        (got - want).abs() < 1e-9 * want.abs().max(1.0),
        "{got} vs {want}"
    );
    // Row sums came back too.
    let rs = r.array("rs").unwrap().to_f64_vec();
    let want0: f64 = a[..m].iter().sum();
    assert!((rs[0] - want0).abs() < 1e-9);
}

/// GPU result equals the sequential CPU interpreter on the same HIR for a
/// gnarly mixed program.
#[test]
fn device_matches_cpu_reference_interpreter() {
    let src = r#"
        int N;
        long checksum;
        int parity;
        int a[N];
        int b[N];
        checksum = 7;
        parity = 0;
        #pragma acc parallel copyin(a) copyout(b)
        {
            #pragma acc loop gang reduction(+:checksum)
            for (int i = 0; i < N; i++) {
                int v = a[i];
                if (v % 3 == 0) {
                    v = v * 2 + 1;
                } else {
                    v = v - 1;
                }
                b[i] = v;
                checksum += v;
            }
        }
        #pragma acc parallel copyin(b)
        {
            #pragma acc loop gang vector reduction(^:parity)
            for (int i = 0; i < N; i++) {
                parity ^= b[i];
            }
        }
    "#;
    let n = 5000usize;
    let a: Vec<i32> = (0..n).map(|x| ((x * 37) % 91) as i32 - 45).collect();

    let mut gpu = AccRunner::new(src).unwrap();
    gpu.bind_int("N", n as i64).unwrap();
    gpu.bind_array("a", HostBuffer::from_i32(&a)).unwrap();
    gpu.bind_array("b", HostBuffer::from_i32(&vec![0; n]))
        .unwrap();
    gpu.run().unwrap();

    let mut cpu = CpuExec::new(src).unwrap();
    cpu.bind_int("N", n as i64).unwrap();
    cpu.bind_array("a", HostBuffer::from_i32(&a)).unwrap();
    cpu.bind_array("b", HostBuffer::from_i32(&vec![0; n]))
        .unwrap();
    cpu.run().unwrap();

    assert_eq!(
        gpu.scalar("checksum").unwrap().as_i64(),
        cpu.scalar("checksum").unwrap().as_i64()
    );
    assert_eq!(
        gpu.scalar("parity").unwrap().as_i64(),
        cpu.scalar("parity").unwrap().as_i64()
    );
    assert_eq!(
        gpu.array("b").unwrap().to_i64_vec(),
        cpu.array("b").unwrap().to_i64_vec()
    );
}

/// Every compiler personality agrees on a case that all of them support.
#[test]
fn personalities_agree_on_supported_cases() {
    let src = r#"
        int N; int s;
        int a[N];
        s = 0;
        #pragma acc parallel copyin(a)
        {
            #pragma acc loop gang reduction(+:s)
            for (int i = 0; i < N; i++) {
                s += a[i];
            }
        }
    "#;
    let n = 3000usize;
    let a: Vec<i32> = (0..n).map(|x| (x % 21) as i32 - 10).collect();
    let want: i64 = a.iter().map(|&v| v as i64).sum();
    for c in Compiler::all() {
        let mut r = AccRunner::with_options(
            src,
            c.base_options(),
            LaunchDims {
                gangs: 16,
                workers: 2,
                vector: 64,
            },
            Device::default(),
        )
        .unwrap();
        r.bind_int("N", n as i64).unwrap();
        r.bind_array("a", HostBuffer::from_i32(&a)).unwrap();
        r.run().unwrap();
        assert_eq!(r.scalar("s").unwrap().as_i64(), want, "{}", c.name());
    }
}

/// The full quick testsuite: OpenUH passes everything; each baseline shows
/// at least one failure (the paper's robustness claim).
#[test]
fn quick_suite_reproduces_robustness_claim() {
    use accparse::ast::{CType, RedOp};
    use uhacc::testsuite::{run_suite, CaseStatus, SuiteConfig};
    let cfg = SuiteConfig::quick();
    let results = run_suite(
        &Compiler::all(),
        &[RedOp::Add, RedOp::Mul],
        &[CType::Int],
        &cfg,
    );
    let count = |c: Compiler, pred: &dyn Fn(&CaseStatus) -> bool| {
        results
            .iter()
            .filter(|r| r.compiler == c && pred(&r.status))
            .count()
    };
    let is_pass = |s: &CaseStatus| matches!(s, CaseStatus::Pass { .. });
    let is_bad = |s: &CaseStatus| !matches!(s, CaseStatus::Pass { .. });
    assert_eq!(
        count(Compiler::OpenUH, &is_bad),
        0,
        "OpenUH must pass everything"
    );
    assert!(count(Compiler::PgiLike, &is_bad) > 0);
    assert!(count(Compiler::CapsLike, &is_bad) > 0);
    assert!(count(Compiler::PgiLike, &is_pass) > 0);
    assert!(count(Compiler::CapsLike, &is_pass) > 0);
}

/// Diagnostics carry usable source locations end to end.
#[test]
fn diagnostics_render_with_location() {
    let src = "int N;\n#pragma acc parallel\n{\n#pragma acc loop gang reduction(+:nosuch)\nfor (int i = 0; i < N; i++) { }\n}\n";
    let err = accparse::compile(src).unwrap_err();
    let rendered = err.render(src);
    assert!(rendered.contains("line 4"), "{rendered}");
    assert!(rendered.contains("nosuch"), "{rendered}");
}

/// Modelled time scales with the work: the same program on 4x the data
/// takes measurably more simulated time.
#[test]
fn modelled_time_scales_with_work() {
    let src = r#"
        int N; int s;
        int a[N];
        s = 0;
        #pragma acc parallel loop gang vector reduction(+:s) copyin(a)
        for (int i = 0; i < N; i++) { s += a[i]; }
    "#;
    let mut times = Vec::new();
    for n in [20_000usize, 80_000] {
        let mut r = AccRunner::new(src).unwrap();
        r.bind_int("N", n as i64).unwrap();
        r.bind_array("a", HostBuffer::from_i32(&vec![1; n]))
            .unwrap();
        r.run().unwrap();
        assert_eq!(r.scalar("s").unwrap().as_i64(), n as i64);
        times.push(r.elapsed_ms());
    }
    assert!(times[1] > times[0] * 1.5, "{times:?}");
}

/// `int a[N]` summed into `s` at index `{ix}` (`i`, or `i + 1`).
fn indexed_sum(ix: &str, extra: &str) -> String {
    format!(
        "int N; int M; int s;\nint a[N];\ns = 0;\n\
         #pragma acc parallel loop gang vector reduction(+:s) copyin(a)\n\
         for (int i = 0; i < N; i++) {{ s += a[{ix}]{extra}; }}\n"
    )
}

/// Run `src` on the runtime and on the CPU reference with the same
/// bindings; each result is `s` or the error's text.
fn on_both(
    src: &str,
    ints: &[(&str, i64)],
    arrays: &[(&str, HostBuffer)],
) -> [Result<i64, String>; 2] {
    let gpu = (|| -> Result<i64, AccError> {
        let mut r = AccRunner::new(src)?;
        for &(n, v) in ints {
            r.bind_int(n, v)?;
        }
        for (n, b) in arrays {
            r.bind_array(n, b.clone())?;
        }
        r.run()?;
        Ok(r.scalar("s")?.as_i64())
    })();
    let cpu = (|| -> Result<i64, AccError> {
        let mut c = CpuExec::new(src)?;
        for &(n, v) in ints {
            c.bind_int(n, v)?;
        }
        for (n, b) in arrays {
            c.bind_array(n, b.clone())?;
        }
        c.run()?;
        Ok(c.scalar("s")?.as_i64())
    })();
    [gpu, cpu].map(|r| r.map_err(|e| e.to_string()))
}

/// An index past the end is an error on both surfaces, not a panic.
#[test]
fn an_out_of_range_index_is_an_error_on_both_surfaces() {
    let a = [("a", HostBuffer::from_i32(&[1, 2, 3, 4]))];
    let [gpu, cpu] = on_both(&indexed_sum("i + 1", ""), &[("N", 4)], &a);
    let gpu = gpu.unwrap_err();
    assert!(gpu.contains("global memory access out of bounds"), "{gpu}");
    assert_eq!(
        cpu.unwrap_err(),
        "binding error: index out of bounds for array `a` of 4 element(s)"
    );
    // In range, both read the same elements.
    assert_eq!(
        on_both(&indexed_sum("i", ""), &[("N", 4)], &a),
        [Ok(10), Ok(10)]
    );
}

/// The CPU reference refuses what the runtime refuses, in the same words:
/// an array bound at the wrong type or length, and a scalar never bound.
#[test]
fn the_cpu_reference_refuses_the_bindings_the_runtime_refuses() {
    let src = indexed_sum("i", "");
    let uses_m = indexed_sum("i", " * M");
    let four = [("a", HostBuffer::from_i32(&[1, 2, 3, 4]))];
    let refused = |src: &str, ints: &[(&str, i64)], a: HostBuffer, want: &str| {
        let err = Err(format!("binding error: {want}"));
        assert_eq!(
            on_both(src, ints, &[("a", a)]),
            [err.clone(), err],
            "{want}"
        );
    };
    refused(
        &src,
        &[("N", 4)],
        HostBuffer::from_f64(&[1.0, 2.0, 3.0, 4.0]),
        "array `a` is declared int but the binding is double",
    );
    refused(
        &src,
        &[("N", 4)],
        HostBuffer::from_i32(&[1, 2, 3]),
        "array `a` declared with 4 element(s) but bound with 3",
    );
    refused(
        &src,
        &[],
        four[0].1.clone(),
        "dimension of `a` must be positive, got 0",
    );
    refused(
        &uses_m,
        &[("N", 4)],
        four[0].1.clone(),
        "host scalar `M` is used by the region but never bound",
    );
    // Bound at the declared type and length, both accept.
    assert_eq!(
        on_both(&uses_m, &[("N", 4), ("M", 2)], &four),
        [Ok(20), Ok(20)]
    );
}
