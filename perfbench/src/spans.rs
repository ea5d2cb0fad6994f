//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code (never inside the
//! simulator) and written out as JSON once the run ends. The layers nest as
//! workload → cell → {build, gen, access, runner, ...}.

use std::time::Instant;

use d2m_common::json::Json;

/// One timed interval, in host nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<u64>,
}

/// Records spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        cell: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), cell);
        let out = f();
        (out, self.close(id))
    }

    /// Every span with its self time, as a JSON array.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".to_string(), Json::U64(id as u64)),
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("start_ns".to_string(), Json::U64(s.start_ns)),
                        ("end_ns".to_string(), Json::U64(s.end_ns)),
                        ("parent".to_string(), opt(s.parent.map(|p| p as u64))),
                        ("cell".to_string(), opt(s.cell)),
                        ("self_ns".to_string(), Json::U64(self_ns(&self.spans, id))),
                    ])
                })
                .collect(),
        )
    }
}

/// The self time of span `id`: its duration minus the part of its interval
/// that its child spans cover. Overlapping children count once, and a
/// child's time outside the parent's interval does not count.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let (start, end) = (spans[id].start_ns, spans[id].end_ns);
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in children {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_ns(&[span(10, 50, None)], 0), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 60);
        assert_eq!(self_ns(&spans, 1), 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(35, 45, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(10, 100, None),
            span(0, 30, Some(0)),
            span(90, 120, Some(0)),
            span(200, 300, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 60);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let spans = [
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(60, 90, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
    }

    #[test]
    fn tracer_records_nesting_and_json() {
        let mut t = Tracer::new();
        let root = t.open("workload", None, None);
        let ((), secs) = t.time("cell", root, Some(3), || {});
        t.close(root);
        assert!(secs >= 0.0);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].cell, Some(3));
        let json = t.to_json().to_string_compact();
        assert!(json.contains("\"name\":\"cell\""), "{json}");
        assert!(json.contains("\"self_ns\""), "{json}");
    }
}
