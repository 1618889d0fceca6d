//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus text exposition.
//!
//! Deliberately small and deterministic:
//!
//! - A *family* is a metric name + help + type; a *series* is one label
//!   combination inside it. Families render sorted by name, series
//!   sorted by their rendered label string, so the exposition is a pure
//!   function of the recorded values — byte-stable, golden-pinnable.
//! - Histograms have **fixed** bucket bounds chosen at registration.
//!   Observations are integers (microseconds throughout this workspace);
//!   sums and counts render as integers. Valid Prometheus text, no
//!   floating-point drift.
//! - Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//!   clones over atomics: lock-free on the hot path, the registry lock
//!   is only taken at registration and render time.
//!
//! [`parse_exposition`] is the consumer side: the daemon's `obs` test
//! scrapes `/metrics` and validates that the text parses strictly and
//! that every advertised series is present.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency buckets (microseconds): 100µs … 10s, roughly
/// geometric. Shared by the request-duration, queue-wait and
/// compile-duration histograms so cross-metric comparisons line up.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    /// Set to an absolute value — for counters that mirror an external
    /// accumulator (cache counters owned by the daemon) and are
    /// refreshed at scrape time.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    /// Finite upper bounds; the implicit last bucket is `+Inf`.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` slots).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram of integer observations (microseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Series {
    Value(Arc<AtomicU64>),
    Hist(Arc<HistCore>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the rendered label set (`{k="v",...}` or empty).
    series: BTreeMap<String, Series>,
}

/// The metrics registry. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Render a label set as it appears inside `{...}` (no braces; empty for
/// no labels). Label order is the caller's — keep it fixed per call site.
fn label_body(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(",")
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> (Series, T),
        reuse: impl FnOnce(&Series) -> T,
    ) -> T {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric `{name}` registered twice with different types"
        );
        let key = label_body(labels);
        match fam.series.get(&key) {
            Some(s) => reuse(s),
            None => {
                let (series, handle) = make();
                fam.series.insert(key, series);
                handle
            }
        }
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            name,
            help,
            Kind::Counter,
            labels,
            || {
                let cell = Arc::new(AtomicU64::new(0));
                (Series::Value(cell.clone()), Counter(cell))
            },
            |s| match s {
                Series::Value(c) => Counter(c.clone()),
                Series::Hist(_) => unreachable!("kind checked above"),
            },
        )
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            name,
            help,
            Kind::Gauge,
            labels,
            || {
                let cell = Arc::new(AtomicU64::new(0));
                (Series::Value(cell.clone()), Gauge(cell))
            },
            |s| match s {
                Series::Value(c) => Gauge(c.clone()),
                Series::Hist(_) => unreachable!("kind checked above"),
            },
        )
    }

    /// Get or create a histogram series with the given finite bucket
    /// bounds (must be sorted ascending).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        self.get_or_insert(
            name,
            help,
            Kind::Histogram,
            labels,
            || {
                let core = Arc::new(HistCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                });
                (Series::Hist(core.clone()), Histogram(core))
            },
            |s| match s {
                Series::Hist(c) => Histogram(c.clone()),
                Series::Value(_) => unreachable!("kind checked above"),
            },
        )
    }

    /// Prometheus text exposition: families sorted by name, series by
    /// label string, integer values. Byte-stable given stable values.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.label()));
            for (labels, series) in &fam.series {
                match series {
                    Series::Value(v) => {
                        let v = v.load(Ordering::Relaxed);
                        if labels.is_empty() {
                            out.push_str(&format!("{name} {v}\n"));
                        } else {
                            out.push_str(&format!("{name}{{{labels}}} {v}\n"));
                        }
                    }
                    Series::Hist(h) => {
                        let sep = if labels.is_empty() { "" } else { "," };
                        let mut cum = 0u64;
                        for (i, b) in h.bounds.iter().enumerate() {
                            cum += h.buckets[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{{{labels}{sep}le=\"{b}\"}} {cum}\n"
                            ));
                        }
                        cum += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}\n"
                        ));
                        let (lb, rb) = if labels.is_empty() {
                            ("", "")
                        } else {
                            ("{", "}")
                        };
                        out.push_str(&format!(
                            "{name}_sum{lb}{labels}{rb} {}\n",
                            h.sum.load(Ordering::Relaxed)
                        ));
                        out.push_str(&format!(
                            "{name}_count{lb}{labels}{rb} {}\n",
                            h.count.load(Ordering::Relaxed)
                        ));
                    }
                }
            }
        }
        out
    }
}

/// One sample parsed back out of a text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// Label lookup.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition into samples. Strict enough to
/// catch a malformed emitter: every non-comment line must be
/// `name[{labels}] value`, label values must be quoted, values must
/// parse as numbers (`+Inf` accepted for bucket bounds is a label, not a
/// value). Returns an error naming the offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment form: {line}", lineno + 1));
            }
            continue;
        }
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value `{value}`", lineno + 1))?;
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels: {line}", lineno + 1))?;
                let mut labels = Vec::new();
                for pair in split_label_pairs(body) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label `{pair}`", lineno + 1))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("line {}: unquoted label `{pair}`", lineno + 1))?;
                    labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name `{name}`", lineno + 1));
        }
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

/// Split a label body on commas that are outside quotes.
fn split_label_pairs(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_render_sorted() {
        let r = Registry::new();
        let c = r.counter("z_total", "last family", &[]);
        c.add(3);
        let g = r.gauge("a_depth", "first family", &[("pool", "main")]);
        g.set(7);
        let text = r.render();
        let a = text.find("a_depth").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < z, "{text}");
        assert!(text.contains("a_depth{pool=\"main\"} 7\n"), "{text}");
        assert!(text.contains("# TYPE a_depth gauge"), "{text}");
        assert!(text.contains("z_total 3\n"), "{text}");
    }

    #[test]
    fn histogram_renders_cumulative_and_parses_back() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency", &[("ep", "/run")], &[100, 1000]);
        h.observe(50);
        h.observe(150);
        h.observe(5000);
        let text = r.render();
        assert!(
            text.contains("lat_us_bucket{ep=\"/run\",le=\"100\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_us_bucket{ep=\"/run\",le=\"1000\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_us_bucket{ep=\"/run\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("lat_us_sum{ep=\"/run\"} 5200\n"), "{text}");
        assert!(text.contains("lat_us_count{ep=\"/run\"} 3\n"), "{text}");

        let samples = parse_exposition(&text).unwrap();
        assert_eq!(
            samples.iter().filter(|s| s.name == "lat_us_bucket").count(),
            3
        );
        let sum = samples.iter().find(|s| s.name == "lat_us_sum").unwrap();
        assert_eq!(sum.value, 5200.0);
        assert_eq!(sum.label("ep"), Some("/run"));
    }

    #[test]
    fn same_series_is_shared() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_exposition("name 1\n").is_ok());
        assert!(parse_exposition("name{k=\"v\"} 2.5\n").is_ok());
        assert!(parse_exposition("novalue\n").is_err());
        assert!(parse_exposition("name{k=unquoted} 1\n").is_err());
        assert!(parse_exposition("name{k=\"v\" 1\n").is_err());
        assert!(parse_exposition("bad name 1\n").is_err());
        assert!(parse_exposition("# FOO bar\n").is_err());
    }
}
