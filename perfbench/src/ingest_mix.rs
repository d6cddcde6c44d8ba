//! `ingest-mix`: the serve-point model served durably, under an open-loop
//! mix of one-hole imputes and 10-row ingests, then reopened from its
//! snapshot and WAL.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use renuver_core::Engine;
use renuver_data::{csv, Tuple, Value};
use renuver_datasets::Dataset;
use renuver_serve::router::{render_batch, route};
use renuver_serve::{artifact, DurabilityOptions, Durable, Topology};

use crate::client::Conn;
use crate::layers;
use crate::load::{self, impute_path, note, Sample};
use crate::model::{self, Rng, Score, WorkDir, ROWS, WORKERS};
use crate::report::{beyond, median, quantile, sorted, Outcome};
use crate::spans::Recorder;
use crate::Args;

/// Offered load, operations per second. An ingest costs about three
/// imputes (~60 ms on 2 cores at the seed, where serve-point sustains
/// ~50 imputes/s): at 10/s an operation is due every 100 ms, so a request
/// waits only behind a compaction or a machine slowed by more than
/// half, and the latency percentiles measure service, not a growing
/// queue. Half of serve-point's throughput would saturate the engine lock.
pub const RATE: f64 = 10.0;
/// Every this-many-th operation is an ingest (20%).
pub const INGEST_EVERY: usize = 5;
/// Rows per ingest batch, each with one hole.
pub const BATCH_ROWS: usize = 10;
/// WAL records between compactions: several compactions per run.
pub const COMPACT_RECORDS: u64 = 16;
/// Distinct pooled impute requests.
const POOL: usize = 120;
/// The run is invalid when the p99 lateness of sends on an idle
/// connection exceeds this: the generator, not the server, fell behind.
pub const GEN_LAG_BOUND_MS: f64 = 20.0;
/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(2);
/// Operations still unsent this long after the schedule ends are failed.
const OVERRUN: Duration = Duration::from_secs(30);
/// Probes the live and the recovered engine must answer identically.
const PROBES: usize = 16;
/// Imputes sent before the schedule starts, unmeasured.
const WARMUP_IMPUTES: usize = 10;

#[derive(Clone, Copy)]
enum Kind {
    Impute(usize),
    Ingest(usize),
}

struct Op {
    at: Duration,
    kind: Kind,
    conn: usize,
    traced: bool,
}

/// The schedule: evenly spaced at [`RATE`], every [`INGEST_EVERY`]-th op
/// an ingest starting at a seeded phase. Ingests all go over connection
/// 0, so one never arrives while another's inline compaction holds the
/// store; imputes alternate between the connections. In the traced run
/// the second half of the schedule asks for `?trace=1`.
fn schedule(seed: u64, seconds: f64, traced_run: bool) -> Vec<Op> {
    let phase = Rng::new(seed, 2).below(INGEST_EVERY);
    let n = (RATE * seconds).round().max(2.0) as usize;
    let (mut imputes, mut ingests) = (0, 0);
    (0..n)
        .map(|i| {
            let (kind, conn) = if i % INGEST_EVERY == phase {
                ingests += 1;
                (Kind::Ingest(ingests - 1), 0)
            } else {
                imputes += 1;
                (Kind::Impute((imputes - 1) % POOL), imputes % WORKERS)
            };
            Op { at: Duration::from_secs_f64(i as f64 / RATE), kind, conn, traced: traced_run && i >= n / 2 }
        })
        .collect()
}

/// Ingest batches: generator rows past the first [`ROWS`], each with one
/// seeded attribute blanked.
fn batches(seed: u64, count: usize) -> Vec<(Vec<Tuple>, String)> {
    let grown = model::restaurant(ROWS + BATCH_ROWS * count);
    let mut rng = Rng::new(seed, 3);
    (0..count)
        .map(|b| {
            let rows: Vec<Tuple> = (0..BATCH_ROWS)
                .map(|r| {
                    let mut t = grown.tuple(ROWS + b * BATCH_ROWS + r).clone();
                    let attr = rng.below(t.len());
                    t[attr] = Value::Null;
                    t
                })
                .collect();
            let body = model::body_json(&rows);
            (rows, body)
        })
        .collect()
}

/// What one connection of the open loop saw.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    /// Lateness of sends on an idle connection, ms.
    lags: Vec<f64>,
    unsent: u64,
}

fn open_loop(
    addr: std::net::SocketAddr,
    ops: &[Op],
    pool: &[model::Probe],
    batches: &[(Vec<Tuple>, String)],
    problems: &Mutex<Vec<String>>,
) -> ConnLog {
    let start = Instant::now() + Duration::from_millis(50);
    let give_up = start + ops.last().map_or(Duration::ZERO, |op| op.at) + OVERRUN;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut conn = Conn::new(addr);
                    for op in ops.iter().filter(|op| op.conn == c) {
                        let due = start + op.at;
                        let now = Instant::now();
                        if now < due {
                            // Sleep to just short of the due time, then spin:
                            // a sleeping thread wakes late by a varying amount.
                            if let Some(nap) = (due - now).checked_sub(SPIN) {
                                std::thread::sleep(nap);
                            }
                            while Instant::now() < due {
                                std::hint::spin_loop();
                            }
                            log.lags.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        } else if now > give_up {
                            log.unsent += 1;
                            continue;
                        }
                        let (path, body, idx, ingest) = match op.kind {
                            Kind::Impute(i) => (impute_path(op.traced), &pool[i].body, i, false),
                            Kind::Ingest(b) => {
                                (if op.traced { "/v1/ingest?trace=1" } else { "/v1/ingest" }, &batches[b].1, b, true)
                            }
                        };
                        let res = conn.request("POST", path, body);
                        let end = Instant::now();
                        let mut sample = Sample { idx, ingest, due, end, status: 0, spans: Vec::new(), answer: None };
                        match res {
                            Ok((status, body)) => {
                                sample.status = status;
                                if status != 200 {
                                    note(problems, format!("{path} answered {status} (counted as failed): {body:.200}"));
                                }
                                if !ingest {
                                    sample.answer = load::served_cell(&body, pool[idx].attr);
                                }
                                if op.traced {
                                    sample.spans = load::envelope_spans(&body);
                                }
                            }
                            Err(e) => note(problems, format!("socket error on {path} (counted as failed): {e}")),
                        }
                        log.samples.push(sample);
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = ConnLog::default();
    for log in logs {
        all.samples.extend(log.samples);
        all.lags.extend(log.lags);
        all.unsent += log.unsent;
    }
    all.samples.sort_by_key(|s| s.due);
    all
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome { unit_of_work: "requests", ..Outcome::default() };
    let rel = model::restaurant(ROWS);
    let csv_text = csv::write_string(&rel);
    let pool = model::pool(&rel, args.seed, POOL);
    let ops = schedule(args.seed, args.seconds, args.trace);
    let n_batches = ops.iter().filter(|op| matches!(op.kind, Kind::Ingest(_))).count();
    let batches = batches(args.seed, n_batches);
    let rules = Dataset::Restaurant.rules();
    let mut rec = Recorder::new(args.trace);
    let mut pt = args.trace.then(|| rec.program_trace());
    let (served, setups, shadow, dir) =
        model::serve_repeatedly(&csv_text, Some(COMPACT_RECORDS), &mut rec, pt.as_mut());
    let dir = dir.expect("durable set-up has a store directory");

    // Unmeasured warm-up: a few imputes, which leave the relation as is.
    let mut warm = Conn::new(served.addr);
    for p in pool.iter().take(WARMUP_IMPUTES) {
        let _ = warm.request("POST", "/v1/impute", &p.body);
    }
    drop(warm);
    let problems = Mutex::new(Vec::new());
    let log = open_loop(served.addr, &ops, &pool, &batches, &problems);
    let ctx = Arc::clone(&served.ctx);
    let shed = served.stop();
    out.problems.extend(problems.into_inner().unwrap());

    // Failure accounting and the store's own view of the run.
    let acked = log.samples.iter().filter(|s| s.ingest && s.ok()).count() as u64;
    let compact_failed = ctx.metrics.counter("serve.compact_failed").get();
    out.attempted = ops.len() as u64;
    out.failed = log.samples.iter().filter(|s| !s.ok()).count() as u64 + log.unsent + shed + compact_failed;
    if ctx.seq() != acked {
        out.problem(format!("WAL sequence {} != {acked} acknowledged ingests", ctx.seq()));
    }
    let compactions = ctx.metrics.counter("serve.compactions").get();
    let live_durable = match &ctx.topology {
        Topology::Single { durable, .. } => durable.lock().unwrap_or_else(|e| e.into_inner()).take(),
        Topology::Sharded(_) => None,
    };
    drop(live_durable);

    // Reopen the snapshot plus WAL, as a restart would.
    let reopen = rec.open("reopen", 0, REOPEN_REQ);
    let (art, _) = rec.time("artifact::decode", REOPEN_REQ, || {
        artifact::decode(&std::fs::read(dir.snapshot()).expect("read snapshot")).expect("decode snapshot")
    });
    let snapshot_seq = art.committed_seq;
    let mut recovered = art.into_engine(model::serving_config());
    let mut opts = DurabilityOptions::beside(dir.snapshot(), "perfbench:restaurant");
    opts.compact_records = COMPACT_RECORDS;
    let ((_, report), recover) =
        rec.time("Durable::recover", REOPEN_REQ, || Durable::recover(&mut recovered, snapshot_seq, opts).expect("recover"));
    let reopen = rec.close(reopen);
    if report.seq != acked {
        out.problem(format!("recovered WAL sequence {} != {acked} acknowledged ingests", report.seq));
    }
    {
        let mut live = ctx.lock_engine();
        if live.donor_rows() != recovered.donor_rows() {
            out.problem(format!("recovered engine has {} rows, live {}", recovered.donor_rows(), live.donor_rows()));
        }
        for (i, p) in pool.iter().take(PROBES).enumerate() {
            if live.impute_batch(vec![p.tuple.clone()]).ok() != recovered.impute_batch(vec![p.tuple.clone()]).ok() {
                out.problem(format!("probe {i}: recovered and live engines answer differently"));
            }
        }
    }
    let artifact_mb = std::fs::metadata(dir.snapshot()).map_or(0, |m| m.len()) as f64 / 1e6;

    // Client-side figures, from the untraced part of the schedule.
    let mut score = Score::default();
    for s in log.samples.iter().filter(|s| !s.ingest && s.ok()) {
        let p = &pool[s.idx];
        score.add(&rules, rel.schema().name(p.attr), s.answer.as_deref(), &p.truth);
    }
    let plain: Vec<&Sample> = log.samples.iter().filter(|s| s.spans.is_empty()).collect();
    let all_lat = sorted(plain.iter().map(|s| s.ms()).collect());
    let impute_lat = sorted(plain.iter().filter(|s| !s.ingest).map(|s| s.ms()).collect());
    let ingest_lat = sorted(plain.iter().filter(|s| s.ingest).map(|s| s.ms()).collect());
    let lags = sorted(log.lags.clone());
    let gen_lag = quantile(&lags, 0.99);

    out.fact("workload", "ingest-mix");
    out.fact("seed", args.seed);
    out.fact("machine_cores", crate::machine_cores());
    out.fact("rows", ROWS);
    out.fact("rows_after", recovered.donor_rows());
    out.fact("rfds", setups[0].rfds);
    out.fact("rate_per_s", RATE);
    out.fact("ops_scheduled", ops.len());
    out.fact("ingests_acked", acked);
    out.fact("compactions", compactions);
    out.fact("op_samples", all_lat.len());
    out.fact("op_beyond_p95", beyond(all_lat.len(), 0.95));
    out.fact("impute_samples", impute_lat.len());
    out.fact("impute_p50_ms", quantile(&impute_lat, 0.5));
    out.fact("impute_p99_ms", quantile(&impute_lat, 0.99));
    out.fact("ingest_samples", ingest_lat.len());
    out.fact("ingest_p50_ms", quantile(&ingest_lat, 0.5));
    out.fact("ingest_p95_ms", quantile(&ingest_lat, 0.95));
    out.fact("ingest_beyond_p95", beyond(ingest_lat.len(), 0.95));
    out.fact("recover_s", reopen.as_secs_f64());
    out.fact("wal_records_replayed", report.replayed);
    out.fact("artifact_mb", artifact_mb);
    out.fact("gen_lag_p99_ms", gen_lag);
    out.fact("gen_lag_bound_ms", GEN_LAG_BOUND_MS);
    if gen_lag > GEN_LAG_BOUND_MS {
        out.problem(format!(
            "run invalid: the generator fell {gen_lag:.2} ms behind its schedule (p99), bound {GEN_LAG_BOUND_MS} ms"
        ));
    }

    if !args.trace {
        let first = log.samples.first().map(|s| s.due).expect("at least one request");
        let last = log.samples.iter().map(|s| s.end).max().expect("at least one request");
        let ok = log.samples.iter().filter(|s| s.ok()).count();
        out.set("setup_s", median(&setups.iter().map(|s| s.total.as_secs_f64()).collect::<Vec<_>>()));
        out.set("ops_per_s", ok as f64 / last.duration_since(first).as_secs_f64());
        out.set("op_p50_ms", quantile(&all_lat, 0.5));
        out.set("op_p95_ms", quantile(&all_lat, 0.95));
        out.set("peak_heap_mb", renuver_budget::peak_bytes() as f64 / 1e6);
        out.set("answer_f1", score.f1());
        if beyond(all_lat.len(), 0.95) < 10 {
            out.problem(format!("only {} samples beyond p95; the quantile is not measured", beyond(all_lat.len(), 0.95)));
        }
        return out;
    }

    // Traced run: client spans, then the same schedule replayed in
    // process through the store API, one span per call.
    let mut pt = pt.expect("traced run has a program tracer");
    let shadow = shadow.expect("traced run builds a shadow engine");
    for (i, s) in log.samples.iter().enumerate().filter(|(_, s)| !s.spans.is_empty()) {
        let req = i as u64 + 1;
        let id = rec.record(if s.ingest { "client::ingest" } else { "client::impute" }, 0, req, s.due, s.end);
        rec.import_envelope(&s.spans, id, req, s.end);
    }
    let replay = replay(&mut rec, &mut pt, shadow, &ops, &pool, &batches, &ctx, &mut out);

    let traced_impute = sorted(
        log.samples.iter().filter(|s| !s.ingest && !s.spans.is_empty()).map(|s| s.ms()).collect(),
    );
    let impute_p50 = quantile(&impute_lat, 0.5);
    layers::program_layers(&mut out, &rec, &pt);
    layers::setup_layers(&mut out, &setups[0], &rec);
    layers::request_layers(&mut out, &rec, impute_p50);
    out.set("serve.artifact_mb", artifact_mb);
    out.set("serve.impute_p99_ms", quantile(&impute_lat, 0.99));
    out.set("serve.ingest_p50_ms", quantile(&ingest_lat, 0.5));
    out.set("serve.ingest_p95_ms", quantile(&ingest_lat, 0.95));
    out.set("core.commit_tuples_ms", crate::report::mean(&rec.durations("Engine::commit_tuples")) / 1e3);
    out.set("serve.store_append_us", crate::report::mean(&rec.durations("Durable::append")));
    out.set("serve.store_compact_ms", crate::report::mean(&rec.durations("Durable::compact")) / 1e3);
    out.set("serve.store_compactions", compactions as f64);
    out.set("serve.store_recover_ms", recover.as_secs_f64() * 1e3);
    out.set("serve.reopen_ms", reopen.as_secs_f64() * 1e3);
    out.set("serve.wal_bytes_per_row", replay.wal_bytes as f64 / replay.wal_rows as f64);
    out.set("bench.gen_lag_ms", gen_lag);
    out.set("bench.trace_overhead_pct", layers::overhead_pct(quantile(&traced_impute, 0.5), impute_p50));
    layers::finish_trace(&mut out, &rec, "ingest-mix", args.seed);
    out
}

const REOPEN_REQ: u64 = 2_000_000;
const REPLAY_REQ: u64 = 3_000_000;
/// Impute ops of the replay that also go through `router::route`.
const ROUTED: usize = 64;

struct Replay {
    wal_bytes: u64,
    wal_rows: u64,
}

/// Replays the schedule in process on the shadow engine with a store of
/// its own: imputes through `Engine::impute_batch_with` and
/// `render_batch` (the first [`ROUTED`] also through `router::route` on
/// the stopped server's context), ingests through impute, `Durable::append`,
/// `Engine::commit_tuples` and, when due, `Durable::compact`.
#[allow(clippy::too_many_arguments)]
fn replay(
    rec: &mut Recorder,
    pt: &mut crate::spans::ProgramTrace,
    mut engine: Engine,
    ops: &[Op],
    pool: &[model::Probe],
    batches: &[(Vec<Tuple>, String)],
    ctx: &renuver_serve::Ctx,
    out: &mut Outcome,
) -> Replay {
    let dir = WorkDir::fresh("replay");
    std::fs::write(dir.snapshot(), artifact::encode_engine(&engine, "perfbench:replay", 0)).expect("write snapshot");
    let mut opts = DurabilityOptions::beside(dir.snapshot(), "perfbench:replay");
    opts.compact_records = COMPACT_RECORDS;
    let (mut durable, _) = Durable::recover(&mut engine, 0, opts).expect("recover replay store");
    let config = renuver_core::RenuverConfig { tracer: pt.tracer.clone(), ..model::serving_config() };
    let mut totals = Replay { wal_bytes: 0, wal_rows: 0 };
    let mut routed = 0;
    for (i, op) in ops.iter().enumerate() {
        let req = REPLAY_REQ + i as u64;
        match op.kind {
            Kind::Impute(idx) => {
                if routed < ROUTED {
                    routed += 1;
                    let request = load::impute_request(&pool[idx].body);
                    let (resp, _) = rec.time("router::route", req, || route(ctx, &request));
                    if resp.status != 200 {
                        out.problem(format!("in-process route answered {}", resp.status));
                    }
                }
                let span = rec.open("Engine::impute_batch_with", 0, req);
                let result = engine.impute_batch_with(vec![pool[idx].tuple.clone()], &config).expect("replay impute");
                rec.import(pt, span.id(), req);
                rec.close(span);
                rec.time("render_batch", req, || render_batch(&result, false));
            }
            Kind::Ingest(b) => {
                let span = rec.open("Engine::impute_batch_with(ingest)", 0, req);
                let result = engine.impute_batch_with(batches[b].0.clone(), &config).expect("replay ingest impute");
                rec.import(pt, span.id(), req);
                rec.close(span);
                let before = durable.wal_bytes();
                rec.time("Durable::append", req, || durable.append(&result.tuples).expect("wal append"));
                totals.wal_bytes += durable.wal_bytes() - before;
                totals.wal_rows += result.tuples.len() as u64;
                rec.time("Engine::commit_tuples", req, || engine.commit_tuples(result.tuples).expect("commit"));
                if durable.should_compact() {
                    rec.time("Durable::compact", req, || durable.compact(&engine).expect("compact"));
                }
            }
        }
    }
    totals
}
