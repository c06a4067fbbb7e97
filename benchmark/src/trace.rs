//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that caused it and the id of the task it belongs to. Layers that
//! are entered millions of times per task (oracle calls, distance
//! evaluations) are recorded as one *aggregate* span per task: its
//! interval is the enclosing call's, and `busy_ns` is the summed time of
//! the calls. A span's self time is its busy time minus the time its
//! children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub task: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time the layer was busy inside `[start_ns, end_ns)`: the whole
    /// interval for an ordinary span, the summed calls for an aggregate.
    pub busy_ns: u64,
    pub aggregate: bool,
}

/// Collects spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Time spent inside the tracer's own bookkeeping.
    own_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            own_ns: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &str,
        task: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        self.push(
            name,
            task,
            parent,
            start_ns,
            end_ns,
            end_ns - start_ns,
            false,
        )
    }

    /// Records an aggregate span: `busy_ns` of summed calls inside the
    /// parent's interval.
    pub fn aggregate(
        &mut self,
        name: &str,
        task: u64,
        parent: Option<SpanId>,
        busy_ns: u64,
    ) -> Option<SpanId> {
        let (start, end) = match parent.and_then(|p| self.spans.get(p)) {
            Some(p) => (p.start_ns, p.end_ns),
            None => (0, busy_ns),
        };
        self.push(name, task, parent, start, end, busy_ns, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        task: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        aggregate: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let t = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            task,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            aggregate,
        });
        self.own_ns += t.elapsed().as_nanos() as u64;
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn own_ns(&self) -> u64 {
        self.own_ns
    }

    /// Writes `{"host": <host_json>}` and then every span, one JSON
    /// object per line.
    pub fn write_jsonl(&self, path: &Path, host_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"host\":{host_json}}}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"task\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"aggregate\":{}}}",
                s.task, s.name, s.start_ns, s.end_ns, s.busy_ns, s.aggregate
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its busy time minus what its children
/// cover. Ordinary children cover the union of their intervals (clipped
/// to the parent); aggregate children cover their busy time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut aggregated = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.aggregate {
                aggregated[p] += s.busy_ns;
            } else {
                let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
                let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
                if a < b {
                    intervals[p].push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = union_len(&mut intervals[i]) + aggregated[i];
            s.busy_ns.saturating_sub(covered)
        })
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Summed self time (ns) of every span called `name`.
pub fn self_ns(spans: &[Span], selfs: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum()
}

/// Summed busy time (ns) of every span called `name`.
pub fn busy_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            task: 0,
            parent,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("task", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a` by 10: the union covers 10..60.
            span("b", Some(0), 30, 60),
            // Sticks out of the parent: only 90..100 counts.
            span("c", Some(0), 90, 130),
            span("leaf", Some(1), 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 30 - 10, 30, 40, 10]);
    }

    #[test]
    fn aggregate_children_cover_their_busy_time() {
        let mut spans = vec![span("core", None, 0, 1_000)];
        let mut chain = span("oracle.chain", Some(0), 0, 1_000);
        chain.aggregate = true;
        chain.busy_ns = 600;
        spans.push(chain);
        let mut raw = span("oracle.raw", Some(1), 0, 1_000);
        raw.aggregate = true;
        raw.busy_ns = 450;
        spans.push(raw);
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![400, 150, 450]);
        assert_eq!(self_ns(&spans, &selfs, "oracle.chain"), 150);
        assert_eq!(busy_ns(&spans, "oracle.raw"), 450);
    }

    #[test]
    fn children_never_drive_self_time_negative() {
        let mut spans = vec![span("p", None, 0, 10)];
        let mut agg = span("x", Some(0), 0, 10);
        agg.aggregate = true;
        agg.busy_ns = 25;
        spans.push(agg);
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.record("x", 1, None, 0, 5);
        t.aggregate("y", 1, id, 3);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
