//! Benchmark-side spans around calls into the program's public functions.
//!
//! Spans are kept in memory and written once when the run ends. Each span
//! records its name, wall-clock start and end (nanoseconds since the tracer
//! was created), its parent and the id of the op it belongs to. A disabled
//! tracer reads no clock at all, so untraced runs pay one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

use spider_obs::{ArgValue, Span, TraceBuffer};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `core.timestep.run_timestep`.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Op this span belongs to (0 = set-up).
    pub op: u64,
}

impl SpanRec {
    /// Duration in nanoseconds (0 while the span is open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start or stop recording; already recorded spans are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.close_to(self.open.len() - 1);
        out
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened above `depth` at the current time. A panic
    /// caught inside an op leaves its spans open; this restores the stack.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("len > depth >= 0");
            self.spans[idx].end_ns = now;
        }
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time per span name in nanoseconds over the spans opened since
    /// span index `since`: each span's duration minus the part its direct
    /// children cover (children never overlap, since they run one after
    /// another on the caller's thread). `since` must fall between root
    /// spans.
    pub fn self_times(&self, since: usize) -> BTreeMap<String, u64> {
        let spans = &self.spans[since..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(since)) {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            *out.entry(s.name.clone()).or_default() += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Durations in nanoseconds of the spans named `name` opened since span
    /// index `since`.
    pub fn durations(&self, name: &str, since: usize) -> Vec<u64> {
        self.spans[since..]
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_ns)
            .collect()
    }

    /// The spans as an obs [`TraceBuffer`] (one track per op), for the
    /// `spans.jsonl` and Chrome/Perfetto exports.
    pub fn to_buffer(&self) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id".to_owned(), ArgValue::U64(i as u64)),
                ("op".to_owned(), ArgValue::U64(s.op)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), ArgValue::U64(p as u64)));
            }
            buf.push(Span {
                track: u32::try_from(s.op).unwrap_or(u32::MAX),
                ts_ns: s.start_ns,
                dur_ns: s.dur_ns(),
                name: s.name.clone(),
                args,
            });
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("a", |tr| tr.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_and_self_times() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        tr.span("root", |tr| {
            tr.span("child", |tr| tr.span("leaf", |_| ()));
            tr.span("child", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        let total: u64 = tr.self_times(0).values().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times telescope to the root");
        assert_eq!(tr.durations("child", 0).len(), 2);
        tr.span("later", |_| ());
        assert_eq!(tr.self_times(4).keys().collect::<Vec<_>>(), ["later"]);
    }

    #[test]
    fn close_to_repairs_the_stack_after_a_panic() {
        let mut tr = Tracer::new(true);
        let depth = tr.depth();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("op", |tr| tr.span("inner", |_| panic!("boom")));
        }));
        assert!(r.is_err());
        tr.close_to(depth);
        assert_eq!(tr.depth(), 0);
        tr.span("next", |_| ());
        assert_eq!(tr.spans()[2].parent, None);
    }
}
