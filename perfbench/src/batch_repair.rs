//! `batch-repair`: the offline `renuver impute` path — read the CSV,
//! discover the RFDs, repair every hole with `Renuver::impute`, and score
//! the repair against the injected ground truth.

use std::time::{Duration, Instant};

use renuver_core::{Renuver, RenuverConfig};
use renuver_data::{csv, Relation};
use renuver_datasets::Dataset;
use renuver_eval::{evaluate, inject_with, GroundTruth, InjectionPattern};

use crate::layers;
use crate::model::{self, ROWS, SETUPS};
use crate::report::{mean, median, quantile, sorted, Outcome};
use crate::spans::Recorder;
use crate::Args;

/// Share of all cells turned into MCAR holes.
pub const HOLE_RATE: f64 = 0.03;
/// Repairs a timed run makes at least, however long they take.
const MIN_REPAIRS: usize = 2;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome { unit_of_work: "cells", ..Outcome::default() };
    let rel = model::restaurant(ROWS);
    let (incomplete, truth) = holes(&rel, args.seed);
    let clean_csv = csv::write_string(&rel);
    let holes_csv = csv::write_string(&incomplete);
    drop((rel, incomplete));
    let rules = Dataset::Restaurant.rules();
    let mut rec = Recorder::new(args.trace);
    let mut pt = args.trace.then(|| rec.program_trace());

    // Set-up: CSV text to RFDs, discovered on the complete relation as
    // `renuver discover data.csv` does before `renuver impute holes.csv
    // --rfds`, so every seed repairs with workload A's 19 RFDs.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        let (clean, read) = rec.time("csv::read_str", 0, || csv::read_str(&clean_csv).expect("generated CSV parses"));
        let (rfds, discover) = model::discover_traced(&clean, &mut rec, pt.as_mut(), 0);
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((rfds, read, discover));
    }
    let (rfds, read, discover) = prepared.expect("at least one set-up");
    let input = csv::read_str(&holes_csv).expect("generated CSV parses");

    // Repairs until the window closes; the traced run makes one untraced
    // and one traced repair.
    let mut times: Vec<f64> = Vec::new();
    let mut first: Option<(u64, f64)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let repairs = |n: usize| if args.trace { n < 2 } else { n < MIN_REPAIRS || Instant::now() < deadline };
    while repairs(times.len()) {
        let traced = args.trace && times.len() == 1;
        let mut config = RenuverConfig::default();
        let req = times.len() as u64 + 1;
        let span = rec.open(if traced { "Renuver::impute" } else { "Renuver::impute(untraced)" }, 0, req);
        if let (true, Some(pt)) = (traced, &pt) {
            config.tracer = pt.tracer.clone();
        }
        let result = Renuver::new(config).impute(&input, &rfds);
        if let (true, Some(pt)) = (traced, pt.as_mut()) {
            rec.import(pt, span.id(), req);
        }
        let took = rec.close(span);
        times.push(took.as_secs_f64() * 1e3);

        let (scores, _) = rec.time("evaluate", req, || evaluate(&result.relation, &truth, &rules));
        let digest = fnv1a(csv::write_string(&result.relation).as_bytes());
        out.attempted += result.stats.missing_total as u64;
        out.failed += (result.stats.skipped_budget + result.stats.cancelled) as u64;
        match first {
            None => {
                first = Some((digest, scores.f1));
                out.fact("repair_digest", format!("{digest:016x}"));
                out.fact("repair_precision", scores.precision);
                out.fact("repair_recall", scores.recall);
                out.fact("repair_f1", scores.f1);
                out.fact("cells_imputed", result.stats.imputed);
            }
            Some((d, f1)) if d != digest || f1 != scores.f1 => {
                out.problem(format!("repair {req} differs from the first repair of this run"))
            }
            Some(_) => {}
        }
    }
    let (digest, f1) = first.expect("at least one repair");
    check_across_runs(&mut out, args.seed, digest, f1);

    out.fact("workload", "batch-repair");
    out.fact("seed", args.seed);
    out.fact("machine_cores", crate::machine_cores());
    out.fact("rows", ROWS);
    out.fact("holes", truth.len());
    out.fact("rfds", rfds.len());
    out.fact("repairs", times.len());

    if !args.trace {
        let lat = sorted(times.clone());
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", times.len() as f64 * 1e3 / times.iter().sum::<f64>());
        out.set("op_p50_ms", quantile(&lat, 0.5));
        out.set("op_p95_ms", quantile(&lat, 0.95));
        out.set("peak_heap_mb", renuver_budget::peak_bytes() as f64 / 1e6);
        out.set("answer_f1", f1);
        return out;
    }

    let pt = pt.expect("traced run has a program tracer");
    layers::program_layers(&mut out, &rec, &pt);
    out.set("data.read_str_ms", read.as_secs_f64() * 1e3);
    out.set("rfd.discover_ms", discover.as_secs_f64() * 1e3);
    out.set("rfd.discover_rfds", rfds.len() as f64);
    out.set("distance.oracle_build_ms", mean(&rec.durations("distance::oracle_build")) / 1e3);
    out.set("distance.index_build_ms", mean(&rec.durations("distance::index_build")) / 1e3);
    out.set("core.repair_ms", times[0]);
    out.set("bench.trace_overhead_pct", layers::overhead_pct(times[1], times[0]));
    layers::finish_trace(&mut out, &rec, "batch-repair", args.seed);
    out
}

/// [`HOLE_RATE`] of the cells as MCAR holes, stratified by attribute:
/// each column loses the same number of cells, drawn uniformly within it
/// by `renuver_eval::inject_with`. Candidate work differs ~100× between
/// attributes (Phone holes are the costly ones), so an unstratified draw
/// would make the repair's cost swing with each seed's Phone count.
fn holes(rel: &Relation, seed: u64) -> (Relation, GroundTruth) {
    let rate = HOLE_RATE / rel.arity() as f64;
    let mut current = rel.clone();
    let mut truth = GroundTruth::new();
    for attr in 0..rel.arity() {
        let column = InjectionPattern::Columns(vec![attr]);
        let (next, t) = inject_with(&current, rate, seed.wrapping_add(attr as u64), &column);
        current = next;
        truth.extend(t);
    }
    (current, truth)
}

/// The repaired relation and its F1 are a function of the seed: the
/// first run in a checkout records them, every later run must match.
fn check_across_runs(out: &mut Outcome, seed: u64, digest: u64, f1: f64) {
    let path = model::out_dir().join(format!("batch-repair-{seed}.digest"));
    let line = format!("{digest:016x} {f1}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != line => out.problem(format!(
            "repair of seed {seed} differs from an earlier run in this checkout: {} then {}",
            prev.trim(),
            line.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, line) {
                out.problem(format!("could not record the repair digest: {e}"));
            }
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
