//! # acc-testsuite — the paper's reduction testsuite
//!
//! "Since there are no existing benchmarks that could cover all the
//! reduction cases, we have designed and implemented a testsuite to
//! validate all possible cases of reduction including different reduction
//! data types and reduction operations" (§4).
//!
//! This crate generates the directive sources for every reduction
//! position of Table 2 (gang / worker / vector / gang-worker /
//! worker-vector / gang-worker-vector / same-line-gwv), runs them under
//! each compiler personality on the simulated device, verifies each
//! result against the sequential CPU reference, and formats the outcomes
//! as the paper's Table 2 and Figure 11.

pub mod cases;
pub mod certsweep;
pub mod lintsweep;
pub mod redflowsweep;
pub mod report;
pub mod run;
pub mod sanitize;

pub use cases::{case_source, Position};
pub use certsweep::{
    cert_cases, cert_config, certify_case, format_cert_sweep, run_cert_sweep, CertExpect,
    CertSweepRow,
};
pub use lintsweep::{format_lint_sweep, run_lint_sweep, strip_reduction_clauses, LintSweepRow};
pub use redflowsweep::{format_redflow_sweep, run_redflow_sweep, RedflowRow};
pub use report::{
    format_cell, format_fig11, format_summary, format_sweep, format_table2, SweepRow,
};
pub use run::{
    profile_case, run_case, run_cells, run_suite, strategy_cases, strategy_grid, time_case, Case,
    CaseResult, CaseStatus, Cell, ProfiledCase, SuiteConfig, TimedCase,
};
pub use sanitize::{
    barrier_defects, format_matrix, format_verify_sweep, run_sanitize_matrix, run_verify_sweep,
    sanitize_case, SanitizeRow, VerifySweepRow,
};
