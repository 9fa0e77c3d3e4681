//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public entry point, plus the I/O calls that reach the
//! benchmark-owned [`Vfs`](xtwig_core::Vfs) decorator. Nothing inside
//! the library is instrumented. The single client thread owns the
//! recorder (the catalog serves inline with `threads = 1`, and the
//! ingest store is single-threaded), so a thread-local is enough.
//!
//! Spans are opened only inside a *sampled* root operation: every
//! request or ingest step whose id is a multiple of the sampling
//! stride. Work outside a root (set-up, correctness checks) is not
//! traced, so a root's duration is pure client time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `catalog.serve`; roots are `request`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The root operation this span belongs to.
    pub request: u64,
    /// Whether the duration came from library telemetry
    /// ([`QueryTelemetry`](xtwig_core::QueryTelemetry)) rather than a
    /// clock read around a call: such spans are placed back to back at
    /// the end of their parent, so only their durations are measured.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    sampled: bool,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        request: 0,
        sampled: false,
    });
}

/// Turns span recording on for this thread (the traced run).
pub fn enable() {
    REC.with(|r| r.borrow_mut().enabled = true);
}

/// Whether this is a traced run.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Closes its span on drop.
pub struct Guard {
    index: Option<usize>,
}

impl Guard {
    /// Renames the span once the outcome of the call is known (e.g. a
    /// `catalog.warm` that turned out to be a fault-in).
    pub fn rename(&self, name: &'static str) {
        if let Some(i) = self.index {
            REC.with(|r| r.borrow_mut().spans[i].name = name);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = now_ns(r.epoch);
                r.spans[i].end = end;
                r.stack.pop();
            });
        }
    }
}

/// Opens a root operation. Spans are recorded under it only when
/// tracing is on and `sampled` is true.
pub fn root(request: u64, sampled: bool) -> Guard {
    let open = REC.with(|r| {
        let mut r = r.borrow_mut();
        r.request = request;
        r.sampled = r.enabled && sampled;
        r.sampled
    });
    if open {
        span("request")
    } else {
        Guard { index: None }
    }
}

/// Opens a child span of the innermost open span. A no-op outside a
/// sampled root.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.sampled || (name != "request" && r.stack.is_empty()) {
            return Guard { index: None };
        }
        let start = now_ns(r.epoch);
        let index = r.spans.len();
        let parent = r.stack.last().copied();
        let request = r.request;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            derived: false,
        });
        r.stack.push(index);
        Guard { index: Some(index) }
    })
}

/// Records children of the innermost open span whose durations the
/// library reported, laid back to back so they end now.
pub fn derived(children: &[(&'static str, u64)]) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(&parent) = r.stack.last() else {
            return;
        };
        if !r.sampled {
            return;
        }
        let end = now_ns(r.epoch);
        let total: u64 = children.iter().map(|c| c.1).sum();
        let mut at = end.saturating_sub(total).max(r.spans[parent].start);
        let request = r.request;
        for &(name, dur) in children {
            let stop = (at + dur).min(end);
            r.spans.push(Span {
                name,
                start: at,
                end: stop,
                parent: Some(parent),
                request,
                derived: true,
            });
            at = stop;
        }
    });
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus the durations of its
/// children (children of one span never overlap on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| s.dur().saturating_sub(c))
        .collect()
}

/// Mean self time per root operation, by layer, and the share of root
/// time covered by non-root layers.
pub struct Breakdown {
    /// Layer → mean self time per root, µs.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Σ non-root self time / Σ root duration.
    pub coverage: f64,
}

/// Aggregates self times by layer.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut roots = 0u64;
    let mut root_total = 0u64;
    let mut covered = 0u64;
    for (s, &st) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            roots += 1;
            root_total += s.dur();
        } else {
            covered += st;
            *by_layer.entry(s.layer()).or_default() += st;
        }
    }
    let per_root = |ns: u64| ns as f64 / 1e3 / roots.max(1) as f64;
    Breakdown {
        self_us: by_layer
            .into_iter()
            .map(|(k, v)| (k, per_root(v)))
            .collect(),
        coverage: if root_total == 0 {
            0.0
        } else {
            covered as f64 / root_total as f64
        },
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

/// Writes the spans as tab-separated rows with a header.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\tderived"
    )?;
    for (i, (s, st)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{st}\t{}",
            s.request,
            s.name,
            s.start,
            s.end,
            u8::from(s.derived)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp("request", 0, 100, None),
            sp("catalog.serve", 10, 90, Some(0)),
            sp("estimate.eval", 20, 50, Some(1)),
            sp("estimate.expand", 50, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        let b = breakdown(&spans);
        assert!((b.coverage - 0.8).abs() < 1e-12);
        assert!((b.self_us["estimate"] - 0.04).abs() < 1e-12);
    }
}
