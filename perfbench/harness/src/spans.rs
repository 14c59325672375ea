//! In-memory span recorder: name, start, end, parent and point id per
//! span, written out once when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use maps_obs::Json;

/// One closed span; times are ns since the recorder was created.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub point: String,
    pub start: u64,
    pub end: u64,
}

/// Per-name totals: count, inclusive ns and self ns (the span minus the
/// part of it its child spans cover).
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The recorder. Disabled recorders still time `record` calls (callers
/// use the duration) but keep nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` (given this span's id, the parent of its children) under
    /// a span and returns its result with the span's duration in ns.
    pub fn record<R>(
        &self,
        parent: u64,
        name: &'static str,
        point: &str,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let result = f(id);
        let end = self.now();
        if self.enabled {
            self.done
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Span {
                    id,
                    parent,
                    name,
                    point: point.to_string(),
                    start,
                    end,
                });
        }
        (result, (end - start) as f64)
    }

    /// Every closed span.
    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.done.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| coverage(c, s.start, s.end));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON array of span objects.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans()
            .iter()
            .map(|s| {
                let field = |k: &str, v: Json| (k.to_string(), v);
                Json::Obj(vec![
                    field("id", Json::UInt(s.id)),
                    field("parent", Json::UInt(s.parent)),
                    field("name", Json::Str(s.name.to_string())),
                    field("point", Json::Str(s.point.clone())),
                    field("start_ns", Json::UInt(s.start)),
                    field("end_ns", Json::UInt(s.end)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_pretty())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn coverage(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(coverage(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(coverage(&[(0, 10), (5, 20)], 8, 12), 4);
        assert_eq!(coverage(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new(true);
        spans.record(0, "point", "p", |id| {
            spans.record(id, "replay", "p", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = spans.totals();
        let point = totals["point"];
        let replay = totals["replay"];
        assert_eq!(point.count, 1);
        assert_eq!(point.total_ns, point.self_ns + replay.total_ns);
    }
}
