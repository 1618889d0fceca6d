//! Span tracing with Chrome-trace (Perfetto) export.
//!
//! The tracer owns the request-level timeline: every daemon request (or
//! CLI invocation) mints a trace id, records named spans against it, and
//! the whole session exports as one Chrome-trace JSON document. Device
//! timelines from `gpsim`'s profiler arrive *pre-rendered* — the runtime
//! remaps their timestamps/pids onto this tracer's timebase and hands
//! over finished event strings, which are spliced verbatim into the
//! export. That is what puts daemon request spans and per-SM device
//! tracks into one Perfetto view on a shared clock.
//!
//! Layout of the exported trace:
//!
//! - pid [`REQUEST_PID`] — the request track. One thread per trace id
//!   (`tid` = trace id), named `req N <endpoint>` via
//!   [`Tracer::set_track_name`]. Spans are `ph:"X"` events carrying
//!   their trace id in `args`.
//! - pids assigned by the caller for device tracks (the runtime uses
//!   `DEVICE_PID_BASE + 2*trace_id` so concurrent requests don't
//!   collide).
//!
//! The span buffer is bounded; overflow increments a drop counter that
//! is surfaced as a metric rather than growing without limit under
//! sustained load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::json_escape;

/// Chrome-trace pid of the request track.
pub const REQUEST_PID: u32 = 100;

/// First pid available for per-request device tracks. The runtime maps
/// request `t`'s device timeline to pids `DEVICE_PID_BASE + 2*t` (stream)
/// and `DEVICE_PID_BASE + 2*t + 1` (SMs).
pub const DEVICE_PID_BASE: u32 = 1000;

/// Default span-buffer capacity.
pub const DEFAULT_SPAN_CAP: usize = 16 * 1024;

/// One completed request-track span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    /// Extra `args` entries (rendered as JSON strings).
    pub args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Buf {
    spans: Vec<Span>,
    /// Pre-rendered Chrome-trace event objects, spliced verbatim.
    device_events: Vec<String>,
    /// Thread (track) names per trace id.
    track_names: BTreeMap<u64, String>,
}

/// Span collector + Chrome-trace exporter. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    clock: Arc<Clock>,
    process_name: String,
    cap: usize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<Buf>,
}

impl Tracer {
    /// New tracer with the default span capacity.
    pub fn new(clock: Arc<Clock>, process_name: &str) -> Self {
        Tracer::with_capacity(clock, process_name, DEFAULT_SPAN_CAP)
    }

    pub fn with_capacity(clock: Arc<Clock>, process_name: &str, cap: usize) -> Self {
        Tracer {
            clock,
            process_name: process_name.to_string(),
            cap: cap.max(1),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(Buf::default()),
        }
    }

    /// The clock this tracer stamps spans with.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Read the clock (virtual clocks advance on every read).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Mint the next trace id (1, 2, 3, …).
    pub fn mint_trace_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Name the request track for a trace id (e.g. `req 3 /run`). Like a
    /// span, a name is dropped once the buffer is full: a track that can
    /// hold no span needs none, and a long-lived caller naming one track
    /// per request must not grow without limit.
    pub fn set_track_name(&self, trace_id: u64, name: &str) {
        let mut buf = self.buf.lock().unwrap();
        if buf.spans.len() < self.cap {
            buf.track_names.insert(trace_id, name.to_string());
        }
    }

    /// Record a completed span. `end_us >= start_us` is clamped, extra
    /// args are copied. Dropped (not recorded) once the buffer is full.
    pub fn record(
        &self,
        trace_id: u64,
        name: &str,
        start_us: u64,
        end_us: u64,
        args: &[(&str, &str)],
    ) {
        let mut buf = self.buf.lock().unwrap();
        if buf.spans.len() >= self.cap {
            drop(buf);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.spans.push(Span {
            trace_id,
            name: name.to_string(),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Splice pre-rendered Chrome-trace event objects (from
    /// `gpsim::SessionProfile::chrome_trace_events`) into the export.
    /// Device events share the span buffer's capacity budget.
    pub fn record_device_events(&self, events: Vec<String>) {
        let mut buf = self.buf.lock().unwrap();
        let room = self
            .cap
            .saturating_sub(buf.spans.len() + buf.device_events.len());
        if events.len() > room {
            self.dropped
                .fetch_add((events.len() - room) as u64, Ordering::Relaxed);
        }
        buf.device_events.extend(events.into_iter().take(room));
    }

    /// Spans dropped on buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of request-track spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.buf.lock().unwrap().spans.len()
    }

    /// Export everything as one Chrome-trace JSON document: request
    /// track first (process/thread metadata, then spans in record
    /// order), then the spliced device events.
    pub fn to_chrome_trace(&self) -> String {
        let buf = self.buf.lock().unwrap();
        let mut ev: Vec<String> = vec![meta_event(
            "process_name",
            REQUEST_PID,
            None,
            &self.process_name,
        )];
        let mut named: Vec<u64> = buf.track_names.keys().copied().collect();
        for s in &buf.spans {
            if !buf.track_names.contains_key(&s.trace_id) && !named.contains(&s.trace_id) {
                named.push(s.trace_id);
            }
        }
        named.sort_unstable();
        for id in named {
            let name = buf
                .track_names
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("req {id}"));
            ev.push(meta_event("thread_name", REQUEST_PID, Some(id), &name));
        }
        for s in &buf.spans {
            let mut args = format!("\"trace_id\":{}", s.trace_id);
            for (k, v) in &s.args {
                args.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            ev.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{REQUEST_PID},\"tid\":{},\"args\":{{{args}}}}}",
                json_escape(&s.name),
                s.start_us,
                s.dur_us,
                s.trace_id,
            ));
        }
        ev.extend(buf.device_events.iter().cloned());
        format!("{{\"traceEvents\":[{}]}}", ev.join(","))
    }
}

fn meta_event(name: &str, pid: u32, tid: Option<u64>, value: &str) -> String {
    let tid = tid.map_or(String::new(), |t| format!(",\"tid\":{t}"));
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}{tid},\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(value)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtual_tracer() -> Tracer {
        Tracer::new(Arc::new(Clock::virtual_clock(100)), "test requests")
    }

    #[test]
    fn mint_ids_are_sequential() {
        let t = virtual_tracer();
        assert_eq!(t.mint_trace_id(), 1);
        assert_eq!(t.mint_trace_id(), 2);
        assert_eq!(t.mint_trace_id(), 3);
    }

    #[test]
    fn export_is_deterministic_under_virtual_clock() {
        let mk = || {
            let t = virtual_tracer();
            let id = t.mint_trace_id();
            t.set_track_name(id, "req 1 /run");
            let a = t.now_us();
            let b = t.now_us();
            t.record(id, "request", a, b, &[("endpoint", "/run")]);
            t.to_chrome_trace()
        };
        let one = mk();
        let two = mk();
        assert_eq!(one, two);
        assert!(one.starts_with("{\"traceEvents\":["), "{one}");
        assert!(one.contains("\"name\":\"req 1 /run\""), "{one}");
        assert!(one.contains("\"trace_id\":1"), "{one}");
        assert!(one.contains("\"endpoint\":\"/run\""), "{one}");
        assert!(one.contains("\"ts\":100,\"dur\":100"), "{one}");
    }

    #[test]
    fn unnamed_tracks_get_default_names() {
        let t = virtual_tracer();
        t.record(7, "x", 0, 10, &[]);
        let ct = t.to_chrome_trace();
        assert!(ct.contains("\"args\":{\"name\":\"req 7\"}"), "{ct}");
    }

    #[test]
    fn device_events_are_spliced_verbatim() {
        let t = virtual_tracer();
        t.record(1, "exec", 0, 5, &[]);
        t.record_device_events(vec![
            "{\"name\":\"k b0\",\"ph\":\"X\",\"ts\":3,\"dur\":2,\"pid\":1001,\"tid\":0}".into(),
        ]);
        let ct = t.to_chrome_trace();
        assert!(ct.contains("\"pid\":1001"), "{ct}");
        assert!(ct.ends_with("\"tid\":0}]}"), "{ct}");
    }

    #[test]
    fn overflow_drops_and_counts() {
        let t = Tracer::with_capacity(Arc::new(Clock::virtual_clock(1)), "t", 2);
        t.record(1, "a", 0, 1, &[]);
        t.record(1, "b", 1, 2, &[]);
        t.record(1, "c", 2, 3, &[]);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.dropped(), 1);
        t.record_device_events(vec!["{}".into(), "{}".into()]);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn a_full_buffer_names_no_more_tracks() {
        let t = Tracer::with_capacity(Arc::new(Clock::virtual_clock(1)), "t", 2);
        t.set_track_name(1, "req 1 /run");
        t.record(1, "a", 0, 1, &[]);
        t.record(1, "b", 1, 2, &[]);
        let full = t.to_chrome_trace();
        for id in 2..10 {
            t.set_track_name(id, &format!("req {id} /run"));
            t.record(id, "request", 2, 3, &[]);
        }
        assert_eq!(t.to_chrome_trace(), full);
        assert!(full.contains("\"req 1 /run\""), "{full}");
    }
}
