//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer (name, start, end, parent), kept in memory while the
//! run measures, and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose times count from `origin`, so spans of several
    /// threads can be merged onto one time line.
    pub fn with_origin(origin: Instant) -> Self {
        Tracer {
            origin,
            ..Tracer::new()
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Append another tracer's spans (recorded against the same origin).
    pub fn extend(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total self time (ms) per span name among the descendants of the
    /// spans named `root`: a span's duration minus what its children
    /// cover. Also returns the roots' total duration.
    pub fn self_times_under(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let under_root = |mut i: usize| loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        let mut root_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                root_ns += s.dur_ns();
            }
            if under_root(i) {
                let own = s.dur_ns().saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        (out, root_ns as f64 / 1e6)
    }

    /// Write every span as one JSON line: id, parent, name, start, end.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Format a self-time table: each span name's self time per root, the
/// roots' end-to-end time, and the part no child span covers.
pub fn attribution(
    tracer: &Tracer,
    root: &str,
    roots: usize,
    layer_of: fn(&str) -> &'static str,
) -> Vec<String> {
    let (selfs, total) = tracer.self_times_under(root);
    let per = |ms: f64| ms / roots.max(1) as f64;
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, ms) in &selfs {
        *by_layer.entry(layer_of(name)).or_insert(0.0) += ms;
    }
    let mut lines = vec![format!(
        "attribution {root}: {:.3} ms end to end per {root} over {roots} traced",
        per(total)
    )];
    for (name, ms) in &selfs {
        lines.push(format!(
            "attribution   span {:<28} layer {:<9} self {:>10.3} ms",
            name,
            layer_of(name),
            per(*ms)
        ));
    }
    for (layer, ms) in &by_layer {
        lines.push(format!(
            "attribution   layer {layer:<9} self {:>10.3} ms  ({:.1}% of end to end)",
            per(*ms),
            100.0 * ms / total.max(1e-12)
        ));
    }
    lines
}
