//! Per-layer metrics read from the traced run's spans and the program
//! tracer's own `core.*`, `oracle.*` and `index.*` metrics.

use crate::model::Setup;
use crate::report::{mean, quantile, share, sorted, Outcome};
use crate::spans::{ProgramTrace, Recorder};

/// Metrics every workload derives the same way: the program's spans
/// (`core::impute`, `core::partition_keys`, `core::impute_cells`) and
/// counters, wherever in the run they were recorded.
pub fn program_layers(out: &mut Outcome, rec: &Recorder, pt: &ProgramTrace) {
    let keys = rec.durations("core::partition_keys");
    let impute = rec.durations("core::impute");
    out.set("rfd.partition_keys_us", mean(&keys));
    out.set("rfd.partition_keys_calls", share(keys.len() as f64, impute.len() as f64));
    out.set("rfd.key_share", share(keys.iter().sum(), impute.iter().sum()));
    out.set("core.impute_cells_us", mean(&rec.durations("core::impute_cells")));

    let m = pt.tracer.metrics();
    let c = |name: &'static str| m.counter(name).get() as f64;
    let cells = c("core.cells_imputed") + c("core.cells_no_candidates") + c("core.cells_skipped_budget")
        + c("core.cells_cancelled");
    let candidates = m.histogram("core.candidates_per_cell");
    let superset = m.histogram("index.superset_rows");
    out.set("core.candidates_per_cell", share(candidates.sum() as f64, candidates.count() as f64));
    out.set("core.verify_reject_share", share(c("core.verification_failures"), c("core.verifications")));
    out.set(
        "core.batch_plan_reuse_share",
        share(c("core.batch_plans_reused"), c("core.batch_plans_reused") + c("core.batch_plans_built")),
    );
    out.set("core.imputed_share", share(c("core.cells_imputed"), cells));
    out.set(
        "distance.oracle_hit_share",
        share(c("oracle.matrix_hits"), c("oracle.matrix_hits") + c("oracle.direct_calls")),
    );
    out.set("distance.index_answer_share", share(c("index.answered"), c("index.probes")));
    out.set("distance.index_superset_rows", share(superset.sum() as f64, superset.count() as f64));
}

/// The set-up stages of a serving workload's (single) traced set-up.
pub fn setup_layers(out: &mut Outcome, setup: &Setup, rec: &Recorder) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    out.set("data.read_str_ms", ms(setup.read));
    out.set("rfd.discover_ms", ms(setup.discover));
    out.set("rfd.discover_rfds", setup.rfds as f64);
    out.set("core.prepare_ms", ms(setup.prepare));
    out.set("serve.artifact_encode_ms", ms(setup.encode));
    out.set("serve.artifact_decode_ms", ms(setup.decode));
    out.set("distance.oracle_build_ms", mean(&rec.durations("DistanceOracle::build")) / 1e3);
    out.set("distance.index_build_ms", mean(&rec.durations("SimilarityIndex::build")) / 1e3);
}

/// In-process request layers: `Engine::impute_batch_with`, `router::route`
/// and `render_batch` per call, and the client's wait beyond the route.
pub fn request_layers(out: &mut Outcome, rec: &Recorder, client_p50_ms: f64) {
    let batch = sorted(rec.durations("Engine::impute_batch_with"));
    out.set("core.impute_batch_p50_us", quantile(&batch, 0.5));
    out.set("core.impute_batch_p99_us", quantile(&batch, 0.99));
    let route = quantile(&sorted(rec.durations("router::route")), 0.5);
    out.set("serve.route_us", route);
    out.set("serve.render_us", quantile(&sorted(rec.durations("render_batch")), 0.5));
    out.set("serve.wait_us", client_p50_ms * 1e3 - route);
}

/// `(traced / untraced - 1)` in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// Writes the traced run's spans beside the benchmark and prints the
/// self-time table.
pub fn finish_trace(out: &mut Outcome, rec: &Recorder, workload: &str, seed: u64) {
    let path = crate::model::out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => out.fact("spans_file", path.display()),
        Err(e) => out.problem(format!("could not write spans to {}: {e}", path.display())),
    }
    out.fact("spans", rec.spans.len());
    rec.print_self_times();
}
