//! `serve-point`: closed-loop one-hole `/v1/impute` requests against the
//! Restaurant model served from its artifact.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use renuver_budget::Budget;
use renuver_data::csv;
use renuver_datasets::Dataset;
use renuver_serve::router::{render_batch, route};

use crate::layers;
use crate::load::{self, closed_loop, Sample};
use crate::model::{self, Score, ROWS};
use crate::report::{beyond, median, quantile, sorted, Outcome};
use crate::spans::Recorder;
use crate::Args;

/// Distinct pooled requests; the load cycles through them in order.
pub const POOL: usize = 120;
/// Unmeasured closed-loop time before the measured window.
const WARMUP: Duration = Duration::from_millis(300);

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome { unit_of_work: "impute requests", ..Outcome::default() };
    let rel = model::restaurant(ROWS);
    let csv_text = csv::write_string(&rel);
    let pool = model::pool(&rel, args.seed, POOL);
    let rules = Dataset::Restaurant.rules();
    let mut rec = Recorder::new(args.trace);
    let mut pt = args.trace.then(|| rec.program_trace());
    let (served, setups, shadow, _) = model::serve_repeatedly(&csv_text, None, &mut rec, pt.as_mut());

    // The answers every served request must equal, computed in process
    // on the served engine before any timing.
    let expected: Vec<String> = {
        let mut engine = served.ctx.lock_engine();
        pool.iter()
            .map(|p| render_batch(&engine.impute_batch(vec![p.tuple.clone()]).expect("pooled impute"), false))
            .collect()
    };
    let mut score = Score::default();
    for (p, body) in pool.iter().zip(&expected) {
        let got = load::served_cell(body, p.attr);
        score.add(&rules, rel.schema().name(p.attr), got.as_deref(), &p.truth);
    }

    let problems = Mutex::new(Vec::new());
    closed_loop(served.addr, &pool, &expected, WARMUP, false, &problems);
    let window = Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let timed = closed_loop(served.addr, &pool, &expected, window, false, &problems);
    let traced = if args.trace {
        closed_loop(served.addr, &pool, &expected, window, true, &problems)
    } else {
        Vec::new()
    };
    let ctx = Arc::clone(&served.ctx);
    let shed = served.stop();

    out.attempted = (timed.len() + traced.len()) as u64;
    out.failed = timed.iter().chain(&traced).filter(|s| !s.ok()).count() as u64 + shed;
    out.problems.extend(problems.into_inner().unwrap());
    let lat = sorted(timed.iter().map(Sample::ms).collect());
    let p50 = quantile(&lat, 0.5);
    describe(&mut out, args, setups[0].rfds, &lat);

    if !args.trace {
        let first = timed.iter().map(|s| s.due).min().expect("at least one request");
        let last = timed.iter().map(|s| s.end).max().expect("at least one request");
        let ok = timed.iter().filter(|s| s.ok()).count();
        out.set("setup_s", median(&setups.iter().map(|s| s.total.as_secs_f64()).collect::<Vec<_>>()));
        out.set("ops_per_s", ok as f64 / last.duration_since(first).as_secs_f64());
        out.set("op_p50_ms", p50);
        out.set("op_p95_ms", quantile(&lat, 0.95));
        out.set("peak_heap_mb", renuver_budget::peak_bytes() as f64 / 1e6);
        out.set("answer_f1", score.f1());
        if beyond(lat.len(), 0.95) < 10 {
            out.problem(format!("only {} samples beyond p95; the quantile is not measured", beyond(lat.len(), 0.95)));
        }
        return out;
    }

    // Traced run: client spans with the program's spans beneath them.
    let mut pt = pt.expect("traced run has a program tracer");
    let mut shadow = shadow.expect("traced run builds a shadow engine");
    for (i, s) in traced.iter().enumerate() {
        let req = i as u64 + 1;
        let id = rec.record("client::impute", 0, req, s.due, s.end);
        rec.import_envelope(&s.spans, id, req, s.end);
    }
    // In process, per pooled request: the router alone, the key
    // partition alone, the engine call under the program tracer, render.
    let config = renuver_core::RenuverConfig { tracer: pt.tracer.clone(), ..model::serving_config() };
    for (i, p) in pool.iter().enumerate() {
        let req = 1_000_000 + i as u64;
        let request = load::impute_request(&p.body);
        let (resp, _) = rec.time("router::route", req, || route(&ctx, &request));
        if resp.status != 200 || resp.body != expected[i].as_bytes() {
            out.problem(format!("in-process route of pooled request {i} differs from Engine::impute_batch"));
        }
        let engine = &shadow;
        rec.time("RfdSet::partition_keys_budgeted_with", req, || {
            engine.sigma().partition_keys_budgeted_with(
                engine.oracle(),
                engine.index(),
                engine.relation(),
                &Budget::unlimited(),
            )
        });
        let span = rec.open("Engine::impute_batch_with", 0, req);
        let result = shadow.impute_batch_with(vec![p.tuple.clone()], &config).expect("shadow impute");
        rec.import(&mut pt, span.id(), req);
        rec.close(span);
        let (body, _) = rec.time("render_batch", req, || render_batch(&result, false));
        if load::answer_part(&body) != load::answer_part(&expected[i]) {
            out.problem(format!("shadow engine answer for pooled request {i} differs from the served engine"));
        }
    }

    let traced_lat = sorted(traced.iter().map(Sample::ms).collect());
    layers::program_layers(&mut out, &rec, &pt);
    layers::setup_layers(&mut out, &setups[0], &rec);
    layers::request_layers(&mut out, &rec, p50);
    out.set("serve.artifact_mb", setups[0].artifact_bytes as f64 / 1e6);
    out.set("serve.impute_p99_ms", quantile(&lat, 0.99));
    out.set("bench.trace_overhead_pct", layers::overhead_pct(quantile(&traced_lat, 0.5), p50));
    layers::finish_trace(&mut out, &rec, "serve-point", args.seed);
    out
}

/// The facts every serve-point run prints: machine, inputs, samples.
fn describe(out: &mut Outcome, args: &Args, rfds: usize, lat: &[f64]) {
    out.fact("workload", "serve-point");
    out.fact("seed", args.seed);
    out.fact("machine_cores", crate::machine_cores());
    out.fact("rows", ROWS);
    out.fact("rfds", rfds);
    out.fact("pool", POOL);
    out.fact("connections", model::WORKERS);
    out.fact("impute_samples", lat.len());
    out.fact("impute_beyond_p95", beyond(lat.len(), 0.95));
    out.fact("impute_beyond_p99", beyond(lat.len(), 0.99));
    out.fact("impute_p99_ms", quantile(lat, 0.99));
}
