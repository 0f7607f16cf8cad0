//! In-memory spans for the traced run: name, start, end and parent,
//! written out as JSON lines when the run ends. A layer's self time is a
//! span's duration minus the part its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Rec {
    name: u32,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
}

/// A span log with a shared clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    recs: Vec<Rec>,
    /// Mean cost of one clock read, subtracted once from every span
    /// (each span's end stamp is one read).
    pub stamp_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty log; calibrates the clock-read cost.
    pub fn new() -> Self {
        let origin = Instant::now();
        const READS: u32 = 200_000;
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        let stamp_ns = (last - t0).as_nanos() as u64 / u64::from(READS);
        Spans { origin, names: Vec::new(), ids: HashMap::new(), recs: Vec::new(), stamp_ns }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Intern a span name.
    pub fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Record a finished span.
    pub fn push(&mut self, name: u32, start: u64, end: u64, parent: Option<SpanId>) -> SpanId {
        self.recs.push(Rec { name, start, end, parent });
        self.recs.len() - 1
    }

    /// Self time per span name (ns), clock-read cost removed.
    pub fn self_times(&self) -> HashMap<String, f64> {
        let mut child = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child[p] += self.dur(r);
            }
        }
        let mut out: HashMap<String, f64> = HashMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            let own = self.dur(r).saturating_sub(child[i]);
            *out.entry(self.names[r.name as usize].clone()).or_default() += own as f64;
        }
        out
    }

    fn dur(&self, r: &Rec) -> u64 {
        r.end.saturating_sub(r.start).saturating_sub(self.stamp_ns)
    }

    /// Write every span as one JSON line: `{"id", "name", "start_ns",
    /// "end_ns", "parent"}`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                crate::report::escape(&self.names[r.name as usize]),
                r.start,
                r.end
            )?;
        }
        w.flush()
    }
}
