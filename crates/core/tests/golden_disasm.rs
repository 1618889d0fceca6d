//! Golden-disasm tests: one kernel per reduction strategy of the paper's
//! figures, pinned instruction-for-instruction. A codegen change that
//! moves an instruction shows up as a reviewable golden diff instead of a
//! silent behavioural shift. The figure numbers are the paper's: Fig. 6(c)
//! is the row-wise (OpenUH) slab layout and 6(b) the transposed one,
//! Fig. 8(c) the first-row worker combine and 8(b) duplicate rows.
//!
//! Regenerate after an intentional codegen change with:
//!
//! ```console
//! UPDATE_GOLDEN=1 cargo test -p uhacc-core --test golden_disasm
//! ```

use accparse::compile as front;
use uhacc_core::{compile_region, CompilerOptions, LaunchDims, VectorLayout, WorkerStrategy};

/// Vector-position reduction (the paper's Fig. 6 setting).
const VECTOR_SRC: &str = r#"
    int NK; int NJ; int NI;
    int input[NK][NJ][NI];
    int out[NK][NJ];
    #pragma acc parallel copyin(input) copyout(out)
    {
        #pragma acc loop gang
        for (int k = 0; k < NK; k++) {
            #pragma acc loop worker
            for (int j = 0; j < NJ; j++) {
                int s = 0;
                #pragma acc loop vector reduction(+:s)
                for (int i = 0; i < NI; i++) {
                    s += input[k][j][i];
                }
                out[k][j] = s;
            }
        }
    }
"#;

/// Worker-position reduction (the paper's Fig. 8 setting).
const WORKER_SRC: &str = r#"
    int NK; int NJ; int NI;
    int input[NK][NJ][NI];
    int temp[NK][NJ][NI];
    int out[NK];
    #pragma acc parallel copyin(input) create(temp) copyout(out)
    {
        #pragma acc loop gang
        for (int k = 0; k < NK; k++) {
            int s = 0;
            #pragma acc loop worker reduction(+:s)
            for (int j = 0; j < NJ; j++) {
                #pragma acc loop vector
                for (int i = 0; i < NI; i++) {
                    temp[k][j][i] = input[k][j][i];
                }
                s += temp[k][j][0];
            }
            out[k] = s;
        }
    }
"#;

fn check(name: &str, src: &str, opts: &CompilerOptions, golden: &str) {
    let dims = LaunchDims {
        gangs: 8,
        workers: 4,
        vector: 64,
    };
    let prog = front(src).unwrap();
    let c = compile_region(&prog, 0, dims, opts).unwrap();
    let text = c.main.disasm();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}.disasm", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    assert_eq!(
        text, golden,
        "{name}: kernel drifted from tests/golden/{name}.disasm \
         (UPDATE_GOLDEN=1 to regenerate after an intentional change)"
    );
}

#[test]
fn fig6c_vector_row_wise() {
    check(
        "fig6c_vector_row_wise",
        VECTOR_SRC,
        &CompilerOptions::openuh(),
        include_str!("golden/fig6c_vector_row_wise.disasm"),
    );
}

#[test]
fn fig6b_vector_transposed() {
    let mut opts = CompilerOptions::openuh();
    opts.vector_layout = VectorLayout::Transposed;
    check(
        "fig6b_vector_transposed",
        VECTOR_SRC,
        &opts,
        include_str!("golden/fig6b_vector_transposed.disasm"),
    );
}

#[test]
fn fig8c_worker_first_row() {
    check(
        "fig8c_worker_first_row",
        WORKER_SRC,
        &CompilerOptions::openuh(),
        include_str!("golden/fig8c_worker_first_row.disasm"),
    );
}

#[test]
fn fig8b_worker_duplicate_rows() {
    let mut opts = CompilerOptions::openuh();
    opts.worker_strategy = WorkerStrategy::DuplicateRows;
    check(
        "fig8b_worker_duplicate_rows",
        WORKER_SRC,
        &opts,
        include_str!("golden/fig8b_worker_duplicate_rows.disasm"),
    );
}
