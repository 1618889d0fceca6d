//! Unit tests for the runner's host-facing API: binding validation, launch
//! dimension resolution, error paths, and statistics plumbing.

use accparse::CType;
use accrt::{AccError, AccRunner, HostBuffer};
use gpsim::{Device, Value};
use uhacc_core::{CompilerOptions, LaunchDims};

const SRC: &str = r#"
    int N; int s;
    int a[N];
    s = 0;
    #pragma acc parallel copyin(a) num_gangs(4) vector_length(32)
    {
        #pragma acc loop gang vector reduction(+:s)
        for (int i = 0; i < N; i++) { s += a[i]; }
    }
"#;

fn runner() -> AccRunner {
    AccRunner::new(SRC).unwrap()
}

#[test]
fn clause_dims_override_defaults() {
    let r = runner();
    // num_gangs(4) + vector_length(32) come from the clauses; no worker
    // level is used so workers resolve to 1 regardless of the default 8.
    let dims = r.resolve_dims(0).unwrap();
    assert_eq!(
        dims,
        LaunchDims {
            gangs: 4,
            workers: 1,
            vector: 32
        }
    );
}

#[test]
fn dims_clauses_can_reference_scalars() {
    let src = r#"
        int N; int G; int s;
        int a[N];
        s = 0;
        #pragma acc parallel copyin(a) num_gangs(G * 2)
        {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < N; i++) { s += a[i]; }
        }
    "#;
    let mut r = AccRunner::new(src).unwrap();
    r.bind_int("G", 3).unwrap();
    assert_eq!(r.resolve_dims(0).unwrap().gangs, 6);
    r.bind_int("G", -1).unwrap();
    assert!(matches!(r.resolve_dims(0), Err(AccError::Binding(_))));
}

#[test]
fn unknown_names_are_binding_errors() {
    let mut r = runner();
    assert!(matches!(r.bind_int("nosuch", 1), Err(AccError::Binding(_))));
    assert!(matches!(
        r.bind_array("nosuch", HostBuffer::from_i32(&[1])),
        Err(AccError::Binding(_))
    ));
    assert!(matches!(r.scalar("nosuch"), Err(AccError::Binding(_))));
    assert!(
        matches!(r.array("a"), Err(AccError::Binding(_))),
        "not bound yet"
    );
}

#[test]
fn type_mismatched_array_binding_rejected() {
    let mut r = runner();
    let err = r.bind_array("a", HostBuffer::from_f32(&[1.0])).unwrap_err();
    assert!(err.to_string().contains("declared int"), "{err}");
}

#[test]
fn size_mismatched_array_rejected_at_launch() {
    let mut r = runner();
    r.bind_int("N", 100).unwrap();
    r.bind_array("a", HostBuffer::from_i32(&[1; 50])).unwrap();
    let err = r.run().unwrap_err();
    assert!(err.to_string().contains("100 element(s)"), "{err}");
}

#[test]
fn unbound_scalar_rejected_at_launch() {
    let mut r = runner();
    // N used by the region but never bound.
    r.bind_array("a", HostBuffer::from_i32(&[1])).unwrap();
    let err = r.run().unwrap_err();
    assert!(matches!(err, AccError::Binding(_)), "{err}");
}

#[test]
fn scalar_binding_converts_to_declared_type() {
    let mut r = runner();
    r.bind_scalar("s", Value::F64(3.9)).unwrap();
    assert_eq!(r.scalar("s").unwrap(), Value::I32(3));
}

#[test]
fn repeated_runs_reuse_compiled_region_and_accumulate_stats() {
    let mut r = runner();
    r.bind_int("N", 64).unwrap();
    r.bind_array("a", HostBuffer::from_i32(&vec![2; 64]))
        .unwrap();
    r.run().unwrap();
    let launches_once = r.device().stats().launches;
    r.bind_int("s", 0).unwrap();
    r.run_region(0).unwrap();
    assert_eq!(r.device().stats().launches, launches_once * 2);
    assert_eq!(r.scalar("s").unwrap().as_i64(), 128);
    r.reset_stats();
    assert_eq!(r.device().stats().launches, 0);
    assert_eq!(r.elapsed_ms(), 0.0);
}

#[test]
fn copyout_materializes_host_buffer() {
    let src = r#"
        int N;
        float b[N];
        #pragma acc parallel copyout(b)
        {
            #pragma acc loop gang vector
            for (int i = 0; i < N; i++) { b[i] = i * 0.5; }
        }
    "#;
    let mut r = AccRunner::with_options(
        src,
        CompilerOptions::openuh(),
        LaunchDims {
            gangs: 2,
            workers: 1,
            vector: 32,
        },
        Device::default(),
    )
    .unwrap();
    r.bind_int("N", 10).unwrap();
    // copyout requires a caller-allocated host array (C semantics).
    assert!(r.run().is_err());
    r.bind_array("b", HostBuffer::new(CType::Float, 10))
        .unwrap();
    r.run().unwrap();
    let b = r.array("b").unwrap();
    assert_eq!(b.ty(), CType::Float);
    assert_eq!(b.get(4).as_f64(), 2.0);
}

#[test]
fn swap_arrays_validates_compatibility() {
    let src = r#"
        int N;
        float p[N]; float q[N]; int z[N];
        #pragma acc parallel copy(p, q)
        {
            #pragma acc loop gang vector
            for (int i = 0; i < N; i++) { p[i] = q[i] + 1.0; }
        }
    "#;
    let mut r = AccRunner::new(src).unwrap();
    r.bind_int("N", 4).unwrap();
    r.bind_array("p", HostBuffer::from_f32(&[0.0; 4])).unwrap();
    r.bind_array("q", HostBuffer::from_f32(&[9.0; 4])).unwrap();
    r.swap_arrays("p", "q").unwrap();
    assert_eq!(r.array("p").unwrap().get(0).as_f64(), 9.0);
    assert!(r.swap_arrays("p", "z").is_err(), "incompatible types");
    let _ = r;
}

#[test]
fn peek_device_array_bounds_checked() {
    let mut r = runner();
    r.bind_int("N", 8).unwrap();
    r.bind_array("a", HostBuffer::from_i32(&[5; 8])).unwrap();
    r.run().unwrap();
    assert_eq!(r.peek_device_array("a", 3).unwrap().as_i64(), 5);
    assert!(r.peek_device_array("a", 8).is_err());
    assert!(r.peek_device_array("nosuch", 0).is_err());
}

#[test]
fn program_accessor_exposes_hir() {
    let r = runner();
    assert_eq!(r.program().hosts.len(), 2);
    assert_eq!(r.program().arrays.len(), 1);
    assert_eq!(r.program().regions.len(), 1);
}

#[test]
fn an_overflowing_element_count_is_a_binding_error_naming_the_array() {
    // 2^22 cubed is 2^66 elements: the count itself overflows 64 bits.
    let src = r#"
        int N;
        double a[N][N][N];
        #pragma acc parallel create(a)
        {
            #pragma acc loop gang vector
            for (int i = 0; i < N; i++) { a[0][0][i] = 1.0; }
        }
    "#;
    let overflow = |e: AccError| matches!(&e, AccError::Binding(m) if m.contains("`a`"));
    let mut r = AccRunner::new(src).unwrap();
    r.bind_int("N", 1 << 22).unwrap();
    assert!(overflow(r.run().unwrap_err()));
    assert!(overflow(r.enter_data("a").unwrap_err()));
    let mut r = AccRunner::new(src).unwrap();
    assert!(overflow(r.bind_deterministic_inputs(1 << 22).unwrap_err()));
}
