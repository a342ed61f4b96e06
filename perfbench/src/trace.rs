//! In-memory spans for the traced replay.
//!
//! A span is a named interval with a parent and the id of the campaign
//! (or request) it belongs to. Spans stay in memory while the benchmark
//! runs and are written out once, at the end. A span's self time is its
//! duration minus the part of it its children cover; a layer's self
//! time is the sum over its spans (the layer is the name up to the
//! first `.`).

use obs::{JsonValue, SpanRecord};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `faultsim.sim`.
    pub name: String,
    /// The campaign or request the span belongs to.
    pub campaign: u64,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    campaign: u64,
}

impl Tracer {
    /// A tracer whose offsets count from `origin` (tracers on several
    /// threads share one origin so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new(), campaign: 0 }
    }

    /// Tags the spans recorded from now on with `campaign`.
    pub fn set_campaign(&mut self, campaign: u64) {
        self.campaign = campaign;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one; returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            campaign: self.campaign,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`; `f` may open child spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Runs `f` inside a childless span named `name`.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Adds the spans an [`obs::Registry`] created at `registry_start`
    /// recorded as children of span `parent`.
    pub fn adopt(&mut self, parent: usize, registry_start: Instant, records: &[SpanRecord]) {
        let base = registry_start.saturating_duration_since(self.origin).as_nanos() as u64;
        for record in records {
            let start_ns = base + record.start_us * 1000;
            self.spans.push(Span {
                name: record.name.clone(),
                campaign: self.campaign,
                start_ns,
                end_ns: start_ns + record.duration_us * 1000,
                parent: Some(parent),
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves this tracer's spans to the end of `all`, re-basing their
    /// parent indices.
    pub fn drain_into(self, all: &mut Vec<Span>) {
        let offset = all.len();
        all.extend(
            self.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }
}

/// Each span's self time in nanoseconds: its duration minus the union
/// of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Milliseconds of the spans `pick` selects, summed (inclusive time).
pub fn total_ms(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    // A fold from +0.0: an empty `sum()` of floats is -0.0.
    spans.iter().filter(|s| pick(s)).fold(0.0, |ms, s| ms + s.duration_ns() as f64 / 1e6)
}

/// Self time in milliseconds of the spans `pick` selects, summed.
pub fn self_ms(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| pick(s))
        .fold(0.0, |ms, (_, own)| ms + own as f64 / 1e6)
}

/// Writes `spans` as JSON lines (`name`, `campaign`, `start_us`,
/// `end_us`, `parent`) to `path`.
pub fn write(path: &str, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for span in spans {
        let line = JsonValue::object()
            .push("name", span.name.as_str())
            .push("campaign", span.campaign)
            .push("start_us", span.start_ns / 1000)
            .push("end_us", span.end_ns / 1000)
            .push("parent", span.parent.map_or(JsonValue::Null, JsonValue::from));
        text.push_str(&line.to_json());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), campaign: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("core.campaign", 0, 100, None),
            span("faultsim.sim", 10, 60, Some(0)),
            span("faultsim.stage0", 12, 30, Some(1)),
            span("faultsim.stage1", 25, 50, Some(1)), // overlaps stage0
            span("atpg.top_off", 55, 120, Some(0)),   // runs past its parent
            span("core.campaign", 200, 210, None),
        ];
        // campaign: 100 − [10,60) − [60,100) = 10 (top_off clipped at 100)
        // sim: 50 − [12,50) = 12; stages and top_off are leaves.
        assert_eq!(self_times(&spans), vec![10, 12, 18, 25, 65, 10]);
        assert_eq!(self_ms(&spans, |s| s.name == "core.campaign"), 20.0 / 1e6);
        assert_eq!(self_ms(&spans, |s| s.layer() == "faultsim"), (12.0 + 18.0 + 25.0) / 1e6);
        assert_eq!(self_ms(&spans, |s| s.layer() == "atpg"), 65.0 / 1e6);
        assert_eq!(total_ms(&spans, |s| s.parent.is_none()), 110.0 / 1e6);
    }

    #[test]
    fn tracer_nests_spans_and_rebases_when_drained() {
        let mut t = Tracer::new(Instant::now());
        t.set_campaign(3);
        t.span("core.campaign", |t| {
            t.leaf("atpg.screen", || ());
            let id = t.open("faultsim.sim");
            t.adopt(
                id,
                Instant::now(),
                &[SpanRecord { name: "faultsim.stage0".into(), start_us: 0, duration_us: 5 }],
            );
            t.close(id);
        });
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.campaign == 3 && s.end_ns >= s.start_ns));
        let mut all = vec![span("x.y", 0, 1, None)];
        t.drain_into(&mut all);
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(all[1].parent, None);
    }
}
