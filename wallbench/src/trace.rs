//! In-memory span recorder for the traced run.
//!
//! Each timed call into an engine layer becomes one span: its name, start
//! and end relative to the recorder's origin, the span that encloses it,
//! and the id of the op it belongs to. Spans stay in memory until the run
//! ends. Recording is off unless [`enable`] was called (and not since
//! [`pause`]d), and a disabled [`span`] costs one thread-local read, so
//! untraced runs time the same code path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `index.insert`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = set-up or checks, outside any op).
    pub op: u64,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    next_op: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts (or resumes) recording on this thread; spans already recorded
/// are kept.
pub fn enable() {
    REC.with(|r| {
        r.borrow_mut()
            .get_or_insert_with(|| Recorder {
                on: false,
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
                next_op: 1,
            })
            .on = true;
    });
}

/// Stops recording until the next [`enable`], keeping what was recorded.
pub fn pause() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.on = false;
        }
    });
}

/// True while recording.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().as_ref().is_some_and(|rec| rec.on))
}

/// Stops recording and returns every span recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

fn open(name: &'static str) -> Option<usize> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().filter(|rec| rec.on)?;
        let idx = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            op: rec.op,
        });
        rec.open.push(idx);
        Some(idx)
    })
}

fn close(idx: usize) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.open.pop();
        }
    });
}

/// Runs `f` inside a span named `name` (just runs it when not recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = open(name) else { return f() };
    let out = f();
    close(idx);
    out
}

/// Runs `f` as one op: a root span named `name` under a fresh op id that
/// every span opened inside it shares.
pub fn op<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.on) {
            rec.op = rec.next_op;
            rec.next_op += 1;
        }
    });
    let out = span(name, f);
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = 0;
        }
    });
    out
}

/// Runs `f` with its spans attached to op `id`: reference calls and
/// checks made after an op finished share its id without adding to its
/// timed span.
pub fn attach<R>(id: u64, f: impl FnOnce() -> R) -> R {
    let set = |v: u64| {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.op = v;
            }
        })
    };
    set(id);
    let out = f();
    set(0);
    out
}

/// Id of the op most recently started (0 before any).
pub fn last_op() -> u64 {
    REC.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.next_op - 1))
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Spans are recorded on one thread, so children are
/// disjoint and nested inside their parent.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Inclusive durations in microseconds, grouped by span name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
    }
    by
}

/// Writes the spans as tab-separated rows (`op name start_ns end_ns
/// self_ns parent`) with a header line.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let own = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "idx\top\tname\tstart_ns\tend_ns\tself_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}",
            s.op, s.name, s.start_ns, s.end_ns, own[i]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "c",
                start_ns: 55,
                end_ns: 65,
                parent: Some(2),
                op: 1,
            },
        ];
        assert_eq!(self_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn spans_nest_and_share_the_op_id() {
        enable();
        op("op", || span("inner", || span("leaf", || ())));
        span("outside", || ());
        let spans = take();
        assert!(!enabled());
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 1),
                ("inner", Some(0), 1),
                ("leaf", Some(1), 1),
                ("outside", None, 0)
            ]
        );
        // Disabled: no spans, the closure still runs.
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
        // Paused: nothing recorded until resumed; earlier spans survive.
        enable();
        span("a", || ());
        pause();
        span("b", || ());
        enable();
        span("c", || ());
        let names: Vec<_> = take().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a", "c"]);
    }
}
