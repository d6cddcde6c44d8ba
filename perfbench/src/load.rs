//! Client-side load: per-request samples over keep-alive connections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use renuver_obs::json;
use renuver_serve::http::Request;

use crate::client::Conn;
use crate::model::{Probe, WORKERS};

/// One request as the client saw it.
pub struct Sample {
    /// Pool index (imputes) or batch index (ingests).
    pub idx: usize,
    pub ingest: bool,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub end: Instant,
    /// HTTP status, or 0 when the exchange failed on the socket.
    pub status: u16,
    /// Program spans of a `?trace=1` envelope: `(id, label, parent, dur_us)`.
    pub spans: Vec<(u64, String, u64, u64)>,
    /// The served value of the hole (imputes only).
    pub answer: Option<String>,
}

impl Sample {
    /// Latency from the moment the request was due, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.due).as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// The impute path, with `?trace=1` in the traced phase.
pub fn impute_path(traced: bool) -> &'static str {
    if traced {
        "/v1/impute?trace=1"
    } else {
        "/v1/impute"
    }
}

/// Closed loop: [`WORKERS`] connections each send the next pooled
/// request as soon as the previous one is answered, in pool order, for
/// `dur`. Checks every answer against `expected` (the in-process
/// `Engine::impute_batch` rendering) and reports mismatches in `problems`.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    pool: &[Probe],
    expected: &[String],
    dur: Duration,
    traced: bool,
    problems: &Mutex<Vec<String>>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + dur;
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let idx = next.fetch_add(1, Ordering::Relaxed) % pool.len();
                    let start = Instant::now();
                    let res = conn.request("POST", impute_path(traced), &pool[idx].body);
                    let end = Instant::now();
                    let mut sample =
                        Sample { idx, ingest: false, due: start, end, status: 0, spans: Vec::new(), answer: None };
                    match res {
                        Ok((status, body)) => {
                            sample.status = status;
                            if status == 200 && !same_answer(&body, &expected[idx], traced) {
                                note(problems, format!(
                                    "pooled request {idx}: served answer differs from Engine::impute_batch \
                                     (served {body:.200}, expected {:.200})",
                                    expected[idx]
                                ));
                            }
                            if traced {
                                sample.spans = envelope_spans(&body);
                            }
                        }
                        Err(e) => note(problems, format!("socket error (counted as failed): {e}")),
                    }
                    mine.push(sample);
                }
                samples.lock().unwrap().extend(mine);
            });
        }
    });
    samples.into_inner().unwrap()
}

/// The in-process form of a `/v1/impute` request, for `router::route`.
pub fn impute_request(body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: "/v1/impute".into(),
        query: Vec::new(),
        headers: vec![("content-type".into(), "application/json".into())],
        body: body.as_bytes().to_vec(),
    }
}

/// A traced response carries the untraced document with per-phase
/// budget timings and a `trace` envelope after the `degraded` flag;
/// everything before the flag must match exactly.
pub fn same_answer(body: &str, expected: &str, traced: bool) -> bool {
    if !traced {
        return body == expected;
    }
    answer_part(body) == answer_part(expected) && body.contains(",\"trace\":")
}

/// The tuples, outcomes and stats of a rendered batch: the part that
/// carries no timing.
pub fn answer_part(doc: &str) -> &str {
    &doc[..doc.find(",\"degraded\":").unwrap_or(doc.len())]
}

/// The value served for attribute `attr` of the first tuple.
pub fn served_cell(body: &str, attr: usize) -> Option<String> {
    let doc = json::parse(body).ok()?;
    let tuple = doc.get("tuples")?.as_array()?.first()?.as_array()?;
    crate::model::json_cell(tuple.get(attr)?)
}

/// The spans of a `?trace=1` envelope.
pub fn envelope_spans(body: &str) -> Vec<(u64, String, u64, u64)> {
    let Ok(doc) = json::parse(body) else { return Vec::new() };
    let Some(spans) = doc.get("trace").and_then(|t| t.get("spans")).and_then(|s| s.as_array()) else {
        return Vec::new();
    };
    spans
        .iter()
        .map(|s| {
            let n = |k: &str| s.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            let label = s.get("label").and_then(|v| v.as_str()).unwrap_or("?").to_string();
            (n("span"), label, n("parent"), n("dur_us"))
        })
        .collect()
}

pub fn note(problems: &Mutex<Vec<String>>, msg: String) {
    let mut p = problems.lock().unwrap();
    if p.len() < 20 {
        p.push(msg);
    }
}
