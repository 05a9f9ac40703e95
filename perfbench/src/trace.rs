//! In-memory span recorder for the traced replay.
//!
//! Every call the replay makes into a layer runs inside [`span`]; the
//! span's name is `<layer>.<call>`. Spans stay in memory until the run
//! ends, when [`Trace::write_tsv`] writes them out and
//! [`Trace::layer_self_times`] splits the replay's wall time by layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: `[start, end)` in nanoseconds since the trace
/// began, and the index of the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Starts recording on this thread, discarding any earlier trace.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns the trace.
pub fn finish() -> Trace {
    let rec = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start");
    assert!(rec.open.is_empty(), "trace finished inside an open span");
    Trace { spans: rec.spans }
}

/// Runs `f` inside a span named `name`. Outside a trace it just runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = now_ns(rec.origin);
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("the recorder outlives its spans");
            rec.spans[idx].end_ns = now_ns(rec.origin);
            assert_eq!(rec.open.pop(), Some(idx), "spans close in LIFO order");
        });
    }
    out
}

/// A finished trace.
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Each span's duration minus the part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self time per layer, in seconds, over every span under (and
    /// including) the root span `root`.
    pub fn layer_self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.is_under(i, root) {
                *out.entry(s.layer()).or_insert(0.0) += own[i] as f64 * 1e-9;
            }
        }
        out
    }

    /// Whether span `i` is `root` or one of its descendants.
    pub fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_s(), n + 1))
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// The last span named `name`.
    pub fn find_last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Checks the nesting: every span ends after it starts and lies
    /// inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
                }
            }
        }
        Ok(())
    }

    /// Writes `id, parent, name, start_ns, end_ns` rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        start();
        span("bench.root", || {
            span("store.save", || {
                span("proto.encode", || std::hint::black_box(1))
            });
            span("journal.append", || ());
        });
        let t = finish();
        t.check_nesting().unwrap();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        let total: f64 = t.layer_self_times(0).values().sum();
        assert!((total - t.spans[0].dur_s()).abs() < 1e-9);
        assert_eq!(t.layer_self_times(0).len(), 4);
    }

    #[test]
    fn spans_outside_a_trace_just_run() {
        assert_eq!(span("x.y", || 3), 3);
    }
}
