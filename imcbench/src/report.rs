//! The run's result line, its named metrics, and the in-memory span
//! recorder of traced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics with units; a later insert of a name replaces it.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Outcome of the correctness checks: every failed check is printed to
/// stderr and clears `ok`.
pub struct Checks {
    pub ok: bool,
}

impl Checks {
    pub fn new() -> Self {
        Self { ok: true }
    }

    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            eprintln!("imcbench: check failed: {}", what());
            self.ok = false;
        }
    }
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    ///
    /// # Errors
    ///
    /// A non-finite metric value (JSON has no spelling for it).
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// One recorded call into a layer's public function.
pub struct Span {
    pub name: &'static str,
    /// The operation (request id, round index…) the call served.
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Records spans in memory when enabled; a disabled tracer only runs
/// the closure.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

/// Spans kept per run; later spans are dropped so a long traced run
/// cannot grow memory without bound.
const SPAN_CAP: usize = 200_000;

impl Tracer {
    pub fn new(origin: Instant, thread: u32, enabled: bool) -> Self {
        Self {
            origin,
            thread,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The instant span start times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                op,
                thread: self.thread,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns: start.elapsed().as_nanos() as u64,
            });
        }
        out
    }

    /// Writes every span as one JSON array to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn write(spans: &[Span], path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut s = String::from("[\n");
        for (i, sp) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                s,
                "{{\"name\":\"{}\",\"op\":{},\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}{sep}",
                sp.name, sp.op, sp.thread, sp.start_ns, sp.dur_ns
            )
            .expect("writing to a String cannot fail");
        }
        s.push(']');
        std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
    }
}
