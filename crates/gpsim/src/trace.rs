//! Execution tracing: capture the first N warp-instructions of a launch
//! with their active masks — the "look at what the machine actually did"
//! debugging facility. Memory instructions additionally carry the address
//! range the warp touched and which space it lives in, which is what the
//! sanitizer's reports point back into.

use crate::ir::Space;

/// The warp-aggregate footprint of one memory instruction: the half-open
/// `[lo, hi)` byte range covering every active lane's access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTouch {
    pub space: Space,
    pub lo: u64,
    pub hi: u64,
}

/// One executed warp-instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Block index (x, y).
    pub block: (u32, u32),
    /// Warp index within the block.
    pub warp: u32,
    /// Instruction index in the kernel.
    pub pc: usize,
    /// Number of active lanes.
    pub active: u32,
    /// Disassembled instruction text.
    pub text: String,
    /// For memory instructions: the space and address range touched.
    pub mem: Option<MemTouch>,
}

/// A bounded trace buffer.
#[derive(Debug, Clone)]
pub struct Trace {
    limit: usize,
    events: Vec<TraceEvent>,
    truncated: bool,
}

impl Trace {
    /// Capture at most `limit` events (the rest are dropped and
    /// [`Trace::truncated`] reports it).
    pub fn with_limit(limit: usize) -> Self {
        Trace {
            limit,
            events: Vec::new(),
            truncated: false,
        }
    }

    /// Record an event; returns whether it was kept (false once full).
    pub(crate) fn record(&mut self, ev: TraceEvent) -> bool {
        if self.events.len() < self.limit {
            self.events.push(ev);
            true
        } else {
            self.truncated = true;
            false
        }
    }

    /// Attach a memory footprint to the most recently recorded event. Only
    /// called when that event was actually kept, so a truncated buffer
    /// never has a stale event annotated.
    pub(crate) fn annotate_mem(&mut self, mem: MemTouch) {
        if let Some(e) = self.events.last_mut() {
            e.mem = Some(mem);
        }
    }

    /// The configured event limit.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// Append another trace's events (in order) until this buffer's limit
    /// is reached. Used by the parallel block executor: each block records
    /// into its own buffer (with the launch-wide limit) and the buffers are
    /// merged in block-id order, which reproduces the sequential capture
    /// byte for byte — a block that overflowed its own buffer would also
    /// have overflowed the launch buffer at the same event.
    pub(crate) fn merge_from(&mut self, other: Trace) {
        for ev in other.events {
            if !self.record(ev) {
                break;
            }
        }
        self.truncated |= other.truncated;
    }

    /// The captured events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True if events were dropped because the limit was reached.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Render the trace as a listing.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "b({:>2},{}) w{:<2} pc {:>4} [{:>2} lanes]  {}",
                e.block.0, e.block.1, e.warp, e.pc, e.active, e.text
            );
            if let Some(m) = e.mem {
                let _ = write!(out, "  <{} {:#x}..{:#x}>", m.space, m.lo, m.hi);
            }
            out.push('\n');
        }
        if self.truncated {
            let _ = writeln!(out, "... (truncated at {} events)", self.limit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: usize) -> TraceEvent {
        TraceEvent {
            block: (0, 0),
            warp: 0,
            pc,
            active: 32,
            text: format!("inst{pc}"),
            mem: None,
        }
    }

    #[test]
    fn bounded_and_renders() {
        let mut t = Trace::with_limit(2);
        for pc in 0..3 {
            t.record(ev(pc));
        }
        assert_eq!(t.events().len(), 2);
        assert!(t.truncated());
        let r = t.render();
        assert!(r.contains("inst0"));
        assert!(r.contains("inst1"));
        assert!(!r.contains("inst2"));
        assert!(r.contains("truncated"));
    }

    #[test]
    fn merge_respects_limit_and_propagates_truncation() {
        let mut a = Trace::with_limit(3);
        a.record(ev(0));
        let mut b = Trace::with_limit(3);
        for pc in 10..13 {
            b.record(ev(pc));
        }
        b.record(ev(99)); // overflows b -> truncated
        a.merge_from(b);
        assert_eq!(a.events().len(), 3);
        assert_eq!(a.events()[1].pc, 10);
        assert_eq!(a.events()[2].pc, 11);
        assert!(a.truncated());

        // Truncation propagates even when the destination has room left.
        let mut c = Trace::with_limit(100);
        let mut d = Trace::with_limit(1);
        d.record(ev(0));
        d.record(ev(1));
        assert!(d.truncated());
        c.merge_from(d);
        assert_eq!(c.events().len(), 1);
        assert!(c.truncated());
        assert_eq!(c.limit(), 100);
    }

    #[test]
    fn record_reports_kept_and_mem_annotates_last() {
        let mut t = Trace::with_limit(1);
        assert!(t.record(ev(0)));
        t.annotate_mem(MemTouch {
            space: Space::Shared,
            lo: 0x40,
            hi: 0x80,
        });
        assert!(!t.record(ev(1)));
        assert_eq!(
            t.events()[0].mem,
            Some(MemTouch {
                space: Space::Shared,
                lo: 0x40,
                hi: 0x80
            })
        );
        let r = t.render();
        assert!(r.contains("<shared 0x40..0x80>"), "{r}");
    }
}
