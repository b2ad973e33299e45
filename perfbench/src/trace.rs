//! Spans recorded by the traced run around each call the benchmark makes
//! into a layer's public functions. Spans stay in memory and are written
//! out, one JSON object per line, when the run ends.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span one layer up for the same request, if recorded.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `origin` (shared by every
    /// thread of a run so that their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| crate::measure::nanos_between(self.origin, t);
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Sets each span's parent to the first span of the nearest level
    /// above it (in `levels`, outermost first) that carries the same
    /// request id.
    pub fn link(&mut self, levels: &[&[&str]]) {
        let level_of = |name: &str| levels.iter().position(|names| names.contains(&name));
        let mut first: HashMap<(usize, u64), usize> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(level) = level_of(s.name) {
                first.entry((level, s.request)).or_insert(i);
            }
        }
        for s in &mut self.spans {
            if let Some(level) = level_of(s.name) {
                s.parent = (0..level)
                    .rev()
                    .find_map(|above| first.get(&(above, s.request)).copied());
            }
        }
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
