//! Spans recorded from the benchmark's own files, around the calls into
//! each layer's public functions. Held in memory; written out at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. A span's id is its index in the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u32>,
    /// Shared by every span of one request.
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Recorder::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request_id: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f` inside a span when tracing is on, bare when it is off — the
/// traced and untraced replays share every other line.
pub fn timed<T>(
    recorder: &mut Option<Recorder>,
    name: &'static str,
    parent: Option<u32>,
    request_id: u32,
    f: impl FnOnce() -> T,
) -> T {
    match recorder {
        None => f(),
        Some(rec) => {
            let id = rec.open(name, parent, request_id);
            let out = f();
            rec.close(id);
            out
        }
    }
}

/// Concatenates per-thread logs, re-basing parent ids.
pub fn merge(logs: Vec<Vec<Span>>) -> Vec<Span> {
    let mut merged = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for log in logs {
        let base = merged.len() as u32;
        merged.extend(log.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + base),
            ..span
        }));
    }
    merged
}

/// Each span's self time: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self times of every span called `name`.
pub fn self_times_of(spans: &[Span], own: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(own)
        .filter(|(span, _)| span.name == name)
        .map(|(_, &ns)| ns as f64)
        .collect()
}

/// Writes the span log plus the run's counts as one JSON document.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    counts: &[(String, f64)],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"counts\":{{"
    );
    for (i, (name, value)) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
    out.push_str("},\"spans\":[");
    for (id, span) in spans.iter().enumerate() {
        let sep = if id == 0 { "" } else { "," };
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"request_id\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request_id
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("submit", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let own = self_times(&spans);
        assert_eq!(self_times_of(&spans, &own, "submit"), vec![50.0]);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("request", 0, 10, None), span("x", 1, 2, Some(0))];
        let b = vec![span("request", 0, 10, None), span("y", 1, 2, Some(0))];
        let merged = merge(vec![a, b]);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
    }

    #[test]
    fn timed_records_only_when_tracing() {
        let mut off = None;
        assert_eq!(timed(&mut off, "x", None, 0, || 7), 7);
        let mut on = Some(Recorder::new(Instant::now()));
        assert_eq!(timed(&mut on, "x", None, 3, || 7), 7);
        let spans = on.unwrap().into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request_id, 3);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
