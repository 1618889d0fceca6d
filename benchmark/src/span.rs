//! Spans recorded by the benchmark around its calls into each layer's
//! public functions, and the arithmetic that turns them into a ledger.
//!
//! A span is `(name, start, end, parent, op)`; the name is
//! `<layer>.<what>` and doubles as the stem of the per-layer metric it
//! feeds (`accparse.parse` → `accparse.parse_us`). A span's *self time*
//! is its duration minus the part covered by its direct children; per op
//! the self times of all spans add up to the op's wall time, and the
//! root span's own self time is what no layer accounts for — the
//! *unattributed* share, which the harness reports and bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span the harness opens around every op.
pub const ROOT: &str = "op";

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: u32,
    /// The op this span belongs to (index into the pass's op list, offset
    /// by the pass so ids are unique in a run).
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; `None` while recording is off.
pub struct Tok(Option<u32>);

/// One thread's span recorder. Spans stay in memory until the run ends.
/// While off, `enter`/`exit` touch neither the clock nor the buffer, so
/// the timed run pays one predictable branch per call site.
pub struct Recorder {
    on: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            on: false,
            origin,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of op `op`.
    pub fn begin_op(&mut self, op: u32) -> Tok {
        self.op = op;
        debug_assert!(self.stack.is_empty(), "previous op left spans open");
        self.enter(ROOT)
    }

    pub fn enter(&mut self, name: &'static str) -> Tok {
        if !self.on {
            return Tok(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(idx);
        Tok(Some(idx))
    }

    pub fn exit(&mut self, tok: Tok) {
        if let Some(idx) = tok.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Add a span measured elsewhere (the runtime's `RunnerObs` phases,
    /// which arrive after the fact in whole microseconds): it becomes a
    /// child of the innermost span of the current op that contains it,
    /// clamped into that span.
    pub fn import(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        // Spans are pushed in start order and nest properly, so the
        // latest-started container is the innermost one. One microsecond
        // of slack absorbs the imported clock's truncation.
        const SLACK_NS: u64 = 1_000;
        let parent = self.spans.iter().rposition(|s| {
            s.op == self.op && s.start_ns <= start_ns + SLACK_NS && end_ns <= s.end_ns + SLACK_NS
        });
        let Some(p) = parent else { return };
        let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
        self.spans.push(Span {
            name,
            start_ns: start_ns.clamp(lo, hi),
            end_ns: end_ns.clamp(lo, hi),
            parent: p as u32,
            op: self.op,
        });
    }

    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Record a span around an expression. The expression may itself use the
/// recorder (nested spans); it must not return early with `?`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr, $e:expr) => {{
        let __tok = $rec.enter($name);
        let __v = $e;
        $rec.exit(__tok);
        __v
    }};
}

/// Self time of every span of one recording, in recording order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// One op's share of the ledger: its wall time (the root span) and the
/// self time spent under each span name, the root's own included.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpLedger {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl OpLedger {
    /// Wall time no layer span accounts for, as a share of the op.
    pub fn unattributed_share(&self) -> f64 {
        match self.wall_ns {
            0 => 0.0,
            w => *self.self_ns.get(ROOT).unwrap_or(&0) as f64 / w as f64,
        }
    }
}

/// Fold one recording into per-op ledgers, keyed by op id.
pub fn fold(spans: &[Span]) -> BTreeMap<u32, OpLedger> {
    let mut ops: BTreeMap<u32, OpLedger> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = ops.entry(s.op).or_default();
        if s.parent == NO_PARENT {
            l.wall_ns += s.dur_ns();
        }
        *l.self_ns.entry(s.name).or_default() += own;
    }
    ops
}

/// Render recordings (one per thread) as a Chrome trace document.
pub fn chrome_trace(process: &str, threads: &[(u32, &[Span])]) -> String {
    let mut out = format!(
        "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":{}}}}}",
        crate::json::quote(process)
    );
    for (tid, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"op\":{},\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                },
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op[0,100] ⊃ run[10,90] ⊃ {h2d[10,20], launch[20,80]}; read[90,95]
        let spans = vec![
            sp(ROOT, 0, 100, NO_PARENT, 0),
            sp("accrt.run", 10, 90, 0, 0),
            sp("accrt.h2d", 10, 20, 1, 0),
            sp("gpsim.launch", 20, 80, 1, 0),
            sp("accrt.read", 90, 95, 0, 0),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 10, 60, 5]);
    }

    #[test]
    fn ledger_reconciles_with_wall_time() {
        let spans = vec![
            sp(ROOT, 0, 100, NO_PARENT, 7),
            sp("a.x", 0, 40, 0, 7),
            sp("a.x", 40, 70, 0, 7),
            sp("b.y", 45, 60, 2, 7),
            sp(ROOT, 100, 150, NO_PARENT, 8),
            sp("a.x", 100, 148, 4, 8),
        ];
        let ops = fold(&spans);
        let l = &ops[&7];
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.self_ns["a.x"], 40 + 15);
        assert_eq!(l.self_ns["b.y"], 15);
        assert_eq!(l.self_ns[ROOT], 30);
        // Σ self times == wall, exactly: nothing is counted twice.
        assert_eq!(l.self_ns.values().sum::<u64>(), l.wall_ns);
        assert!((l.unattributed_share() - 0.30).abs() < 1e-12);
        assert!((ops[&8].unattributed_share() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_imports_and_is_inert_when_off() {
        let mut r = Recorder::new(Instant::now());
        let t = r.begin_op(0);
        r.exit(t);
        r.import("x.y", 0, 1);
        assert!(r.take().is_empty(), "off: nothing recorded");

        r.set_on(true);
        let root = r.begin_op(3);
        let run = r.enter("accrt.run");
        r.exit(run);
        let (lo, hi) = (r.spans[1].start_ns, r.spans[1].end_ns);
        // An imported phase overhanging the run span by < 1 µs is clamped
        // into it and parented to it, not to the root.
        r.import("gpsim.launch", lo.saturating_sub(500), hi + 500);
        r.exit(root);
        let spans = r.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 1);
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (lo, hi));
        assert!(spans.iter().all(|s| s.op == 3));
        let doc = crate::json::parse(&chrome_trace("t", &[(0, &spans)])).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
