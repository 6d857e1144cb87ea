//! In-memory spans recorded by the harness around its calls into each layer
//! (spans *inside* the program are a later change), and the arithmetic over
//! them: a span's self time is its duration minus the part of its interval
//! its child spans cover.

use crate::stats;
use ofscil_simbench::record::Json;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `wire.call`.
    pub name: &'static str,
    /// The request the call served; spans of one request share it.
    pub request: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans; nothing is written anywhere until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns the span's index with `f`'s value.
    /// `f` receives the recorder and the new span's index, so it can record
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce(&mut Recorder, u32) -> T,
    ) -> T {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let value = f(self, index);
        self.spans[index as usize].end_ns = self.now_ns();
        value
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let durations = self.durations_us(name);
        (!durations.is_empty()).then(|| stats::median(&durations))
    }
}

/// Self time of every span, nanoseconds: duration minus the union of its
/// children's intervals (clipped to the span's own).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// The span file: one object per span, in recording order.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("request".into(), Json::Int(i64::from(s.request))),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                ),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Int(seed as i64)),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child a
            span(Some(0), 20, 50),  // child b, overlaps a: union 10..50
            span(Some(0), 70, 120), // child c, clipped to 70..100
            span(Some(1), 12, 18),  // grandchild, counts against a only
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 30);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 50);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let value = rec.span("outer", 7, None, |rec, outer| {
            rec.span("inner", 7, Some(outer), |_, _| 41) + 1
        });
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_us("inner").len(), 1);
        assert!(rec.median_us("missing").is_none());
        let own = self_times_ns(spans);
        assert_eq!(
            own[0],
            (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns)
        );
    }

    #[test]
    fn span_file_round_trips_through_the_recorder_parser() {
        let spans = vec![span(None, 0, 10), span(Some(0), 2, 5)];
        let text = to_json("w", 3, &spans).render();
        let parsed = ofscil_simbench::record::parse(&text).unwrap();
        assert_eq!(parsed.get("workload"), Some(&Json::Str("w".into())));
        match parsed.get("spans") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].get("parent"), Some(&Json::Null));
                assert_eq!(rows[1].get("parent"), Some(&Json::Int(0)));
            }
            other => panic!("spans missing: {other:?}"),
        }
    }
}
