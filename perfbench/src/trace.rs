//! The benchmark's own spans: name, start, end, parent and run id,
//! recorded around each call into a layer and kept in memory until the
//! run ends.
//!
//! Spans the program records itself (its `fairem-obs` recorder) can be
//! grafted under the benchmark span whose call produced them. Those
//! carry a duration but no start time, because the recorder keeps none.

use fairem_obs::Snapshot;

use crate::sys::Stopwatch;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Index in the tracer.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer entry point or stage name.
    pub name: String,
    /// Seconds from the tracer's origin; `None` for grafted spans.
    pub start_s: Option<f64>,
    /// Duration in seconds.
    pub secs: f64,
    /// Run the span belongs to.
    pub run: u64,
    /// Note the program attached (grafted spans only).
    pub note: Option<String>,
}

/// In-memory span recorder. An `off` tracer runs the wrapped calls and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run: u64,
    origin: Stopwatch,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer for run `run`.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            on: true,
            run,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(0)
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.secs();
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied(),
            name: name.to_owned(),
            start_s: Some(start),
            secs: 0.0,
            run: self.run,
            note: None,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].secs = self.origin.secs() - start;
        out
    }

    /// Graft every span of a program snapshot under the innermost open
    /// span (or as roots when none is open), keeping the snapshot's own
    /// parent links.
    pub fn graft(&mut self, snap: &Snapshot) {
        if !self.on {
            return;
        }
        let under = self.stack.last().copied();
        let base = self.spans.len();
        let index: std::collections::BTreeMap<u64, usize> = snap
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, base + i))
            .collect();
        for (i, s) in snap.spans.iter().enumerate() {
            self.spans.push(SpanRec {
                id: base + i,
                parent: s.parent.and_then(|p| index.get(&p).copied()).or(under),
                name: s.name.clone(),
                start_s: None,
                secs: s.secs,
                run: self.run,
                note: s.note.clone(),
            });
        }
    }

    /// Every recorded span, in the order they were opened or grafted.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Direct children of `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |acc, s| acc + s.secs)
    }

    /// A span's self time: its duration minus the part its children
    /// cover. Children that ran in parallel can add up to more than the
    /// parent, so the result is clamped at zero.
    pub fn self_time(&self, id: usize) -> f64 {
        let covered: f64 = self.children(id).map(|c| c.secs).sum();
        (self.spans[id].secs - covered).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_obs::Recorder;

    fn spin(ms: u64) {
        let t = Stopwatch::start();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(7);
        tr.span("root", |tr| {
            spin(5);
            tr.span("child", |_| spin(20));
        });
        let root = &tr.spans()[0];
        let child = &tr.spans()[1];
        assert_eq!(root.name, "root");
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.run, 7);
        assert!(child.secs >= 0.020);
        assert!(root.secs >= child.secs + 0.005);
        let own = tr.self_time(0);
        assert!(own >= 0.005 && own < root.secs - 0.019, "self time {own}");
        assert!(child.start_s >= root.start_s);
    }

    #[test]
    fn off_tracer_runs_the_call_and_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("root", |tr| tr.span("child", |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn grafted_program_spans_keep_their_tree_under_the_open_span() {
        let rec = Recorder::enabled();
        {
            let stage = rec.span("train");
            let _a = stage.child("train.A");
        }
        let mut tr = Tracer::new(1);
        tr.span("run", |tr| tr.graft(&rec.snapshot()));
        let train = tr.named("train").next().expect("grafted").clone();
        assert_eq!(train.parent, Some(0));
        assert_eq!(train.start_s, None);
        let a = tr.named("train.A").next().expect("grafted child");
        assert_eq!(a.parent, Some(train.id));
    }
}
