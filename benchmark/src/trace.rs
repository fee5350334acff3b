//! In-memory spans, written out once at exit.
//!
//! A span is `{id, name, parent, iteration, start_ns, end_ns, count}`:
//! `parent` is the id of the enclosing span (0 for a root), `count` the
//! units of work done inside (elems, records, events, …), times are
//! nanoseconds since the tracer was created. The benchmark records spans
//! only around calls into the layers — never inside them — and never
//! around a per-elem call: a timer pair costs about as much as one
//! `push`, so per-elem stages are timed as one span over the whole loop.
//!
//! Spans below `ledger.round` are *isolation passes*: each stage driven
//! alone over the same input. Their `parent` is the stage that contains
//! them in the fused path (`mrt.read` under `routing.elem_source`), but
//! they ran at their own time, so a stage's self time is its duration
//! minus its children's durations, not an interval subtraction.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// Calls shorter than this are not worth a span of their own (tick,
/// query); they still count in their parent's `count`.
pub const COARSE_NS: u64 = 10_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub parent: u32,
    pub iteration: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Collects spans when on; when off every method returns at once
/// without reading the clock, so the untraced loop pays a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    iteration: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    pub fn on() -> Self {
        Tracer { on: true, ..Self::off() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pause or resume recording; spans already taken stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Stamp later spans with this iteration number.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Nanoseconds since the tracer was created (0 when off).
    pub fn now_ns(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent: self.stack.last().copied().unwrap_or(0),
            iteration: self.iteration,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close `open` (and anything left open inside it); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, open: Open, count: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        while let Some(id) = self.stack.pop() {
            if id == open.0 {
                break;
            }
        }
        let span = &mut self.spans[open.0 as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
        end_ns - span.start_ns
    }

    /// Record a childless call that started at `start_ns` and ends now,
    /// unless it was shorter than [`COARSE_NS`]. Returns its duration.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, count: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        if end_ns - start_ns >= COARSE_NS {
            self.record(name, self.stack.last().copied().unwrap_or(0), start_ns, end_ns, count);
        }
        end_ns - start_ns
    }

    /// Record a finished span under an explicit parent id; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            name,
            parent,
            iteration: self.iteration,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Id of the innermost open span (0 if none).
    pub fn current(&self) -> u32 {
        self.stack.last().copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: one header object, then `spans` one per line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"workload\":");
        json::write_str(&mut out, workload);
        write!(out, ",\"seed\":{seed},\"spans\":[").expect("string write");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"id\":");
            write!(out, "{},\"name\":", s.id).expect("string write");
            json::write_str(&mut out, s.name);
            write!(
                out,
                ",\"parent\":{},\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.parent, s.iteration, s.start_ns, s.end_ns, s.count
            )
            .expect("string write");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::on();
        t.set_iteration(3);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner, 7);
        let start = t.now_ns();
        std::thread::sleep(std::time::Duration::from_micros(50));
        t.leaf("leaf", start, 1);
        t.leaf("too-short", t.now_ns(), 1);
        t.close(outer, 2);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.count)).collect();
        assert_eq!(names, vec![("outer", 0, 2), ("inner", 1, 7), ("leaf", 1, 1)]);
        assert!(t.spans().iter().all(|s| s.iteration == 3 && s.end_ns >= s.start_ns));
        let parsed = json::parse(&t.to_json("w", 9)).unwrap();
        assert_eq!(parsed.get("spans").and_then(json::Value::as_array).unwrap().len(), 3);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let o = t.open("x");
        assert_eq!(t.close(o, 1), 0);
        assert_eq!(t.leaf("y", 0, 1), 0);
        assert!(t.spans().is_empty());
    }
}
