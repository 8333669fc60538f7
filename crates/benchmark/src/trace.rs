//! The benchmark-side span recorder.
//!
//! Spans are taken around calls into each layer from this crate's own
//! code (spans inside the program are a later change), kept in memory,
//! and written as one JSON object per line when the run ends:
//! `{id, parent, request, name, start_ns, end_ns}`. `request` groups the
//! spans of one operation; `parent` is the span that caused this one
//! (`null` for a root). A layer's self time is its span minus the part
//! its children cover.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based id, unique within a run.
    pub id: u64,
    /// The causing span, `None` for a root.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub request: u64,
    /// `layer.stage`, e.g. `ann.retrieve_items`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Collects spans from any thread. A disabled recorder (the untraced
/// pass) reads no clock and takes no lock.
pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that keeps spans (`on`) or drops everything.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: on.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let Some(spans) = &self.spans else { return 0 };
        let mut spans = spans.lock().expect("a recording thread panicked");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `f` under a child span of `parent` and returns its result
    /// with the elapsed microseconds (measured even when disabled: the
    /// per-layer numbers are computed from these).
    pub fn timed<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, parent, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// Reserves the id a root span will get, so children recorded before
    /// the root is finished can name it as parent. The root must then be
    /// stored with [`Recorder::finish_root`].
    pub fn open_root(&self, name: &'static str, request: u64, start: Instant) -> u64 {
        self.record(name, request, None, start, start)
    }

    /// Sets the end of a root opened with [`Recorder::open_root`].
    pub fn finish_root(&self, id: u64, end: Instant) {
        if let Some(spans) = &self.spans {
            let end_ns = self.ns(end);
            spans.lock().expect("a recording thread panicked")[id as usize - 1].end_ns = end_ns;
        }
    }

    /// All spans so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("a recording thread panicked").clone(),
            None => Vec::new(),
        }
    }

    /// Writes the trace file, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name self time in microseconds: each span's duration minus the
/// duration of its direct children, summed by span name.
pub fn self_time_us(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        *by_name.entry(s.name).or_default() += own as f64 / 1e3;
    }
    by_name.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_nest_and_self_time_subtracts_them() {
        let rec = Recorder::new(true);
        let t0 = Instant::now();
        let root = rec.open_root("replay", 7, t0);
        let (_, us) = rec.timed("ann.retrieve_items", 7, Some(root), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(us >= 2_000.0);
        rec.finish_root(root, Instant::now());
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_time_us(&spans);
        let root_self = own.iter().find(|(n, _)| *n == "replay").expect("root").1;
        let total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e3;
        assert!(
            root_self < total - 1_999.0,
            "root self {root_self} of {total}"
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let (v, us) = rec.timed("x.y", 1, None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
