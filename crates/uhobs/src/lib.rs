//! # uhobs — the observability core
//!
//! A dependency-free tracing + metrics layer shared by the whole stack:
//! the `uhaccd` daemon, the `uhacc::driver` single-shot paths, and the
//! `accrt` runtime all record into the same primitives, so one request
//! produces one coherent timeline from HTTP parse down to simulated
//! per-SM block execution.
//!
//! Three pieces:
//!
//! - [`Clock`] — monotonic microseconds since a process-local origin, or
//!   a *virtual* clock that advances a fixed step per observation. Under
//!   the virtual clock every exported byte (metrics exposition, unified
//!   trace) is a pure function of the observation sequence, which is
//!   what makes goldens and cross-configuration determinism tests
//!   possible.
//! - [`Registry`] / [`Counter`] / [`Gauge`] / [`Histogram`] — a metrics
//!   registry with fixed-bucket histograms rendered as Prometheus text
//!   exposition ([`Registry::render`]), plus a small exposition parser
//!   ([`metrics::parse_exposition`]) the daemon's tests validate
//!   scrapes with.
//! - [`Tracer`] / [`Span`] — per-request span collection with minted
//!   trace ids, a bounded buffer, pre-rendered device-track splicing,
//!   and Chrome-trace (Perfetto) export on a shared timebase
//!   ([`Tracer::to_chrome_trace`]).
//!
//! Everything is `Send + Sync`; handles are cheap `Arc` clones.

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::Clock;
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{Span, Tracer};

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
