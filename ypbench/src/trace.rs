//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name (`layer.call`), the request it served, an optional
//! parent span, and start/end times.  Spans stay in memory and are
//! summarised when the run ends; a layer's self time is its duration
//! minus the part its child spans cover.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// The request the call served (shared by every span of a request).
    pub request: u64,
    /// Index of the span that caused this one, within the same log.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread (merge logs of several threads at the end).
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call`, recording a span around it; returns its result and the
    /// span's index (a parent for spans recorded inside it afterwards).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        (result, self.record(name, request, parent, start, end))
    }

    /// Records a span timed by the caller; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends another log's spans (re-basing their parent indices).
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        let shift = self.ns_since_epoch(other.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Mean duration (ns) of the spans called `name`; `None` if there are
    /// none.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        crate::stats::mean(&self.durations_ns(name))
    }

    /// Each span's children, by index.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Self time (ns) of span `index`: its duration minus the union of its
    /// children's intervals.
    pub fn self_ns(&self, index: usize) -> u64 {
        self.self_ns_among(index, &self.children()[index])
    }

    fn self_ns_among(&self, index: usize, children: &[usize]) -> u64 {
        let span = &self.spans[index];
        let mut children: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| &self.spans[c])
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.ns() - covered
    }

    /// Per span name: count, total and self time (ns), sorted by name —
    /// the summary written out when the run ends.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        let children = self.children();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += self.self_ns_among(i, &children[i]);
        }
        rows.into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            span("engine.cycle", None, 0, 100),
            span("qm.prepare", Some(0), 10, 30),
            // Overlapping children are counted once.
            span("pm.handle", Some(0), 20, 50),
            span("pool.release", Some(0), 90, 120),
            span("sched.select", Some(2), 25, 45),
        ];
        assert_eq!(log.self_ns(0), 100 - 40 - 10);
        assert_eq!(log.self_ns(2), 30 - 20);
        assert_eq!(log.self_ns(4), 20);
        let summary = log.summary();
        assert_eq!(summary[0], ("engine.cycle", 1, 100, 50));
    }

    #[test]
    fn timed_calls_nest_and_merge() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        let (value, outer) = log.time("outer", 7, None, || 2 + 2);
        assert_eq!(value, 4);
        let mut other = SpanLog::new(epoch);
        other.time("inner", 7, None, || ());
        other.time("child", 7, Some(0), || ());
        log.merge(other);
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.spans()[2].parent, Some(1), "parents are re-based");
        assert_eq!(log.durations_ns("outer").len(), 1);
        assert!(log.mean_ns("outer").is_some());
        assert!(log.mean_ns("missing").is_none());
        assert!(log.spans()[outer].end_ns >= log.spans()[outer].start_ns);
    }
}
