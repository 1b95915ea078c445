//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (tracing inside the program is a later change) and kept in memory until
//! the run ends. A span's name is `<layer>.<call>`; `bench.*` spans are the
//! harness's own work (generating a batch, hashing rows), recorded so that
//! the wall time no span covers is a real residual and not the generator.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// An in-memory span recorder; a disabled one costs a branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (threads of one run share
    /// the epoch so their spans line up).
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Recorder::new(false, Instant::now())
    }

    /// A recorder on another thread of the same run.
    #[must_use]
    pub fn sibling(&self) -> Self {
        let mut sibling = Recorder::new(self.enabled, self.epoch);
        sibling.rep = self.rep;
        sibling
    }

    /// Tags the spans recorded from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of whichever span is open on this
    /// recorder. Pair with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            rep: self.rep,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Appends another thread's spans (their parents stay within them).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Self time per span: its duration minus what its direct children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// The layer a span belongs to: its name up to the first dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time summed per span name, restricted to one repetition.
#[must_use]
pub fn self_time_by_name(spans: &[Span], rep: u32) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        if span.rep == rep {
            *by_name.entry(span.name).or_insert(0) += own;
        }
    }
    by_name
}

/// Self time summed per layer, restricted to one repetition.
#[must_use]
pub fn self_time_by_layer(spans: &[Span], rep: u32) -> BTreeMap<String, u64> {
    let mut by_layer = BTreeMap::new();
    for (name, own) in self_time_by_name(spans, rep) {
        *by_layer.entry(layer_of(name).to_string()).or_insert(0) += own;
    }
    by_layer
}

/// The share of the root span `root` that none of its descendants covers.
#[must_use]
pub fn residual_share(spans: &[Span], root: &str, rep: u32) -> f64 {
    let own = self_times(spans);
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(own) {
        if span.name == root && span.rep == rep {
            wall += span.end_ns - span.start_ns;
            uncovered += own;
        }
    }
    if wall == 0 {
        0.0
    } else {
        uncovered as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("engine.push_columns", 100, 400, Some(0)),
            span("bench.generate", 150, 200, Some(1)),
            span("engine.poll_results", 500, 900, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![300, 250, 50, 400]);
        let layers = self_time_by_layer(&spans, 0);
        assert_eq!(layers["engine"], 650);
        assert_eq!(layers["bench"], 50);
        assert_eq!(layers["run"], 300);
        assert!((residual_share(&spans, "run", 0) - 0.3).abs() < 1e-12);
        assert_eq!(residual_share(&spans, "run", 1), 0.0);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut main = Recorder::new(true, Instant::now());
        main.span("run", |r| {
            r.span("sql.parse", |_| ());
            r.span("core.optimize", |r| r.span("bench.generate", |_| ()));
        });
        assert_eq!(main.spans.len(), 4);
        assert_eq!(main.spans[1].parent, Some(0));
        assert_eq!(main.spans[3].parent, Some(2));
        assert!(main.spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut other = main.sibling();
        other.span("serve.frame_read", |r| r.span("bench.sink", |_| ()));
        main.absorb(other);
        assert_eq!(main.spans[4].parent, None);
        assert_eq!(main.spans[5].parent, Some(4));

        let mut off = Recorder::off();
        assert_eq!(off.span("run", |_| 7), 7);
        assert!(off.spans.is_empty());
    }
}
