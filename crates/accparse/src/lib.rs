//! # accparse — mini-C + `#pragma acc` front end
//!
//! The front end for the PMAM'14 reduction-paper reproduction. It parses a
//! small C dialect with OpenACC directives — enough to express every code
//! in the paper (the reduction testsuite, 2D heat equation, matrix multiply
//! and Monte Carlo PI) — and analyzes it into a typed HIR with
//! canonicalized loops and *detected reduction spans* (§3.2.1 of the
//! paper: the user writes a single `reduction` clause and the compiler
//! widens it across every parallelism level the variable is updated in).
//!
//! Pipeline: [`token::lex`] → [`parser::parse_program`] →
//! [`sema::analyze`] → [`hir::AnalyzedProgram`].
//!
//! ```
//! let src = r#"
//!     int N; int s;
//!     int a[N];
//!     #pragma acc parallel copyin(a)
//!     {
//!         #pragma acc loop gang vector reduction(+:s)
//!         for (int i = 0; i < N; i++) { s += a[i]; }
//!     }
//! "#;
//! let hir = accparse::compile(src).unwrap();
//! assert_eq!(hir.hosts.len(), 2);
//! assert_eq!(hir.regions.len(), 1);
//! ```

pub mod ast;
pub mod dataflow;
pub mod diag;
pub mod hir;
pub mod lint;
pub mod parser;
pub mod redflow;
pub mod reduction;
pub mod sema;
pub mod summary;
pub mod token;

pub use ast::{CType, DataDir, Level, RedOp};
pub use diag::{Diag, Severity, Span};
pub use hir::AnalyzedProgram;
pub use lint::{lint_program, lint_source, Finding, FindingKind};
pub use summary::{summarize, summarize_region, RegionSummary};

/// Parse and analyze `src` in one step. The result carries a line table
/// ([`hir::AnalyzedProgram::line_starts`]) so downstream codegen can map
/// HIR spans back to 1-based source lines.
pub fn compile(src: &str) -> Result<hir::AnalyzedProgram, diag::Diag> {
    let ast = parser::parse_program(src)?;
    let mut prog = sema::analyze(&ast)?;
    prog.line_starts = line_starts(src);
    Ok(prog)
}

/// Byte offsets of line starts in `src` (always non-empty: line 1 starts
/// at offset 0).
pub fn line_starts(src: &str) -> Vec<usize> {
    std::iter::once(0)
        .chain(
            src.bytes()
                .enumerate()
                .filter_map(|(i, b)| (b == b'\n').then_some(i + 1)),
        )
        .collect()
}
