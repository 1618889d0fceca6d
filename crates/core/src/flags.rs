//! Strict numeric option parsing, shared by the CLI drivers and the
//! `uhaccd` JSON API.
//!
//! Every surface that accepts a numeric knob — `--host-threads` /
//! `--n` / `--red-n` / `--dims` on the CLIs, the same fields in daemon
//! request bodies, and the `UHACC_HOST_THREADS` environment variable —
//! validates through these helpers so garbage is rejected with the same
//! rendered diagnostic everywhere (CLIs exit with code 2) instead of
//! panicking or silently falling back to a default.

/// Parse a non-negative integer option. `what` names the flag or field in
/// the diagnostic (e.g. `--host-threads` or `host_threads`).
pub fn parse_count(what: &str, s: &str) -> Result<u64, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err(format!(
            "invalid value for {what}: expected a non-negative integer, got an empty string"
        ));
    }
    t.parse::<u64>().map_err(|_| {
        format!("invalid value for {what}: expected a non-negative integer, got `{s}`")
    })
}

/// [`parse_count`] bounded to `u32` (thread counts, launch dims, ports).
pub fn parse_count_u32(what: &str, s: &str) -> Result<u32, String> {
    let v = parse_count(what, s)?;
    u32::try_from(v).map_err(|_| format!("invalid value for {what}: `{s}` does not fit in 32 bits"))
}

/// Validate the `UHACC_HOST_THREADS` environment variable. Returns the
/// parsed value (`None` when unset). Library code tolerates garbage by
/// falling back to auto ([`gpsim::DeviceConfig::resolved_host_threads`]);
/// the CLIs and the daemon call this at startup so a typo surfaces as a
/// diagnostic and exit code 2 rather than a silently sequential run.
pub fn host_threads_from_env() -> Result<Option<u32>, String> {
    match std::env::var("UHACC_HOST_THREADS") {
        Err(_) => Ok(None),
        Ok(s) => parse_count_u32("UHACC_HOST_THREADS", &s).map(Some),
    }
}

/// Output format for report-producing switches (`--certify=FMT` on the
/// CLI, the `format` field of daemon request bodies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    Text,
    Json,
}

/// Parse a report format. `what` names the flag or field in the
/// diagnostic, so `--certify=yaml` on the CLI (exit 2) and
/// `"format":"yaml"` in a daemon body (HTTP 400) reject with the same
/// rendered text.
pub fn parse_report_format(what: &str, s: &str) -> Result<ReportFormat, String> {
    match s.trim() {
        "text" => Ok(ReportFormat::Text),
        "json" => Ok(ReportFormat::Json),
        _ => Err(format!(
            "invalid value for {what}: expected `text` or `json`, got `{s}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_formats() {
        assert_eq!(
            parse_report_format("--certify", "text"),
            Ok(ReportFormat::Text)
        );
        assert_eq!(
            parse_report_format("format", " json "),
            Ok(ReportFormat::Json)
        );
        for bad in ["", "yaml", "JSON", "trace"] {
            let e = parse_report_format("--certify", bad).unwrap_err();
            assert!(e.contains("--certify"), "{e}");
            assert!(e.contains("expected `text` or `json`"), "{e}");
        }
    }

    #[test]
    fn accepts_valid_counts() {
        assert_eq!(parse_count("--n", "0"), Ok(0));
        assert_eq!(parse_count("--n", " 42 "), Ok(42));
        assert_eq!(parse_count_u32("--host-threads", "4"), Ok(4));
    }

    #[test]
    fn rejects_garbage_with_named_diagnostic() {
        for bad in ["", "  ", "abc", "-1", "3.5", "4x", "0x10"] {
            let e = parse_count("--red-n", bad).unwrap_err();
            assert!(e.contains("--red-n"), "{e}");
            assert!(e.contains("invalid value"), "{e}");
        }
        let e = parse_count_u32("--host-threads", "4294967296").unwrap_err();
        assert!(e.contains("32 bits"), "{e}");
    }
}
