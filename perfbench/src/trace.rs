//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the library's public functions: name, start, end and the enclosing
//! span. Nothing inside the library is instrumented, so a layer's number
//! is the time spent inside the calls the benchmark made into it. The
//! recorder is thread-local so a [`roam_measure::DataSink`] wrapper that
//! the library calls back into can open spans under the caller's span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`"measure.rtt"`, `"world.build"`, …).
    pub name: &'static str,
    /// Start, ns since the recorder epoch.
    pub start: u64,
    /// End, ns since the recorder epoch (`>= start`).
    pub end: u64,
    /// Index of the enclosing span in the span list, if any.
    pub parent: Option<u32>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        });
    });
}

/// Stop recording and hand back every span, in open order.
///
/// # Panics
/// If a span is still open: every `enter` must be paired with `exit`.
#[must_use]
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut().take().map_or_else(Vec::new, |rec| {
            assert!(rec.open.is_empty(), "span left open at finish");
            rec.spans
        })
    })
}

/// Open a span named `name` under the innermost open span. Returns a
/// token for [`exit`]; a no-op when the thread is not recording.
#[must_use]
pub fn enter(name: &'static str) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let id = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans");
        let start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent: rec.open.last().copied(),
        });
        rec.open.push(id);
        Some(id)
    })
}

/// Close the span `token` opened.
pub fn exit(token: Option<u32>) {
    let Some(id) = token else { return };
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("recorder still running");
        let end = rec.epoch.elapsed().as_nanos() as u64;
        assert_eq!(rec.open.pop(), Some(id), "spans must nest");
        rec.spans[id as usize].end = end;
    });
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let token = enter(name);
    let out = f();
    exit(token);
    out
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed by name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(*children);
    }
    out
}

/// Write spans as tab-separated `index name start_ns end_ns parent`.
///
/// # Errors
/// Any I/O error creating or writing `path`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > b [15,25); root > a [50,60)
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 15, 25, Some(1)),
            sp("a", 50, 60, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(
            t["a"],
            LayerTime {
                count: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(t["b"].self_ns, 10);
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root's wall");
    }

    #[test]
    fn recorder_nests_by_call_stack() {
        start();
        span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
            span("inner", || ());
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[1].start >= spans[0].start && spans[2].end <= spans[0].end);
    }

    #[test]
    fn enter_is_inert_when_not_recording() {
        let token = enter("nothing");
        assert_eq!(token, None);
        exit(token);
        assert!(finish().is_empty());
    }
}
