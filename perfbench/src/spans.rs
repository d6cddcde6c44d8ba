//! The traced run's span recorder.
//!
//! The benchmark opens a span around each of its own calls into the
//! program (`csv::read_str`, `discover`, `Engine::impute_batch_with`,
//! `Durable::append`, ...). Spans the program itself emits — through its
//! `renuver_obs::Tracer` in process, or in the `?trace=1` envelope of an
//! HTTP response — are imported as children of the benchmark span that
//! was open around them. Every span has an id, a parent (0 = root), a
//! request id shared by all spans of one operation, a start and an end.
//! With recording off (the timed runs) a span is only a stopwatch.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use renuver_obs::{FieldValue, Tracer};

pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: String,
    /// `bench` for the benchmark's own spans, `program` for imported ones.
    pub src: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<SpanRec>,
}

/// An open benchmark span; close it with [`Recorder::close`].
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A program tracer whose records have been imported up to `seen`.
pub struct ProgramTrace {
    pub tracer: Tracer,
    /// Recorder time (µs) at which the tracer's epoch started.
    offset_us: f64,
    seen: usize,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder { on, epoch: Instant::now(), next_id: 1, spans: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, parent, req, name, start: Instant::now() }
    }

    /// Closes `span`, records it (when recording), and returns its length.
    pub fn close(&mut self, span: Open) -> Duration {
        let end = Instant::now();
        let dur = end.duration_since(span.start);
        if self.on {
            self.spans.push(SpanRec {
                id: span.id,
                parent: span.parent,
                req: span.req,
                name: span.name.to_string(),
                src: "bench",
                start_us: self.us(span.start),
                end_us: self.us(end),
            });
        }
        dur
    }

    /// Runs `f` inside a root-level span of request `req`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.open(name, 0, req);
        let out = f();
        let dur = self.close(span);
        (out, dur)
    }

    /// Records a span measured elsewhere (an HTTP request timed by a
    /// client thread). Returns its id.
    pub fn record(&mut self, name: &str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.on {
            self.spans.push(SpanRec {
                id,
                parent,
                req,
                name: name.to_string(),
                src: "bench",
                start_us: self.us(start),
                end_us: self.us(end),
            });
        }
        id
    }

    /// A fresh enabled program tracer aligned with this recorder's clock.
    pub fn program_trace(&self) -> ProgramTrace {
        let tracer = Tracer::enabled();
        ProgramTrace { tracer, offset_us: self.us(Instant::now()), seen: 0 }
    }

    /// Imports the program spans `trace` recorded since the last import.
    /// Program root spans become children of `parent`.
    pub fn import(&mut self, trace: &mut ProgramTrace, parent: u64, req: u64) {
        let records = trace.tracer.records();
        let fresh = &records[trace.seen.min(records.len())..];
        trace.seen = records.len();
        if !self.on {
            return;
        }
        let base = self.next_id;
        let mut max_id = 0;
        for rec in fresh.iter().filter(|r| r.kind == "span") {
            let (label, prog_parent, dur) = span_fields(&rec.fields);
            let end = trace.offset_us + rec.ts_us as f64;
            max_id = max_id.max(rec.span);
            self.spans.push(SpanRec {
                id: base + rec.span,
                parent: if prog_parent == 0 { parent } else { base + prog_parent },
                req,
                name: label,
                src: "program",
                start_us: end - dur as f64,
                end_us: end,
            });
        }
        self.next_id = base + max_id + 1;
    }

    /// Imports the spans of a `?trace=1` response envelope as children
    /// of the client span `parent`, which covered `[start, end]`. The
    /// envelope carries durations only, so each program span is placed
    /// to end where the client span ended.
    pub fn import_envelope(&mut self, spans: &[(u64, String, u64, u64)], parent: u64, req: u64, end: Instant) {
        if !self.on {
            return;
        }
        let base = self.next_id;
        let end_us = self.us(end);
        let mut max_id = 0;
        for (id, label, prog_parent, dur_us) in spans {
            max_id = max_id.max(*id);
            self.spans.push(SpanRec {
                id: base + id,
                parent: if *prog_parent == 0 { parent } else { base + prog_parent },
                req,
                name: label.clone(),
                src: "program",
                start_us: end_us - *dur_us as f64,
                end_us,
            });
        }
        self.next_id = base + max_id + 1;
    }

    /// Durations (µs) of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_us - s.start_us).collect()
    }

    /// Per-name `(calls, total µs, self µs)`: self time is a span's
    /// length minus the lengths of its direct children.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_sum.entry(s.parent).or_default() += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_us - s.start_us;
            let own = dur - child_sum.get(&s.id).copied().unwrap_or(0.0);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own.max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":",
                s.id, s.parent, s.req
            ));
            renuver_obs::json::write_str(&mut out, &s.name);
            out.push_str(&format!(
                ",\"src\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.src, s.start_us, s.end_us
            ));
        }
        std::fs::write(path, out)
    }

    /// Prints the self-time table of the traced run.
    pub fn print_self_times(&self) {
        println!("self times (traced run): span  calls  total_ms  self_ms  self_us/call");
        for (name, (calls, total, own)) in self.self_times() {
            println!(
                "  {name:<44} {calls:>6} {:>10.2} {:>9.2} {:>10.1}",
                total / 1e3,
                own / 1e3,
                own / calls as f64
            );
        }
    }
}

fn span_fields(fields: &[(&'static str, FieldValue)]) -> (String, u64, u64) {
    let mut label = String::from("?");
    let mut parent = 0;
    let mut dur = 0;
    for (k, v) in fields {
        match (*k, v) {
            ("label", FieldValue::Str(s)) => label = s.to_string(),
            ("label", FieldValue::Text(s)) => label = s.clone(),
            ("parent", FieldValue::U64(p)) => parent = *p,
            ("dur_us", FieldValue::U64(d)) => dur = *d,
            _ => {}
        }
    }
    (label, parent, dur)
}
