//! Metric names, exact quantiles, and the result line.
//!
//! The metric lists here match `BENCHMARK.json` (a unit test checks it): a timed
//! run (`--trace 0`) reports exactly [`END_TO_END`], a traced run
//! (`--trace 1`) exactly [`PER_LAYER`]. Every workload reports every
//! metric of its mode; a per-layer metric whose layer is not on the
//! workload's path reads 0 and is printed as `not exercised`.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("answer_f1", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rfd.partition_keys_us", "us"),
    ("rfd.partition_keys_calls", "count"),
    ("rfd.key_share", "ratio"),
    ("core.impute_batch_p50_us", "us"),
    ("core.impute_batch_p99_us", "us"),
    ("core.impute_cells_us", "us"),
    ("core.candidates_per_cell", "count"),
    ("core.verify_reject_share", "ratio"),
    ("core.batch_plan_reuse_share", "ratio"),
    ("core.imputed_share", "ratio"),
    ("distance.oracle_hit_share", "ratio"),
    ("distance.index_answer_share", "ratio"),
    ("distance.index_superset_rows", "count"),
    ("data.read_str_ms", "ms"),
    ("rfd.discover_ms", "ms"),
    ("rfd.discover_rfds", "count"),
    ("distance.oracle_build_ms", "ms"),
    ("distance.index_build_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("serve.artifact_encode_ms", "ms"),
    ("serve.artifact_decode_ms", "ms"),
    ("serve.artifact_mb", "MB"),
    ("serve.route_us", "us"),
    ("serve.render_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.impute_p99_ms", "ms"),
    ("serve.ingest_p50_ms", "ms"),
    ("serve.ingest_p95_ms", "ms"),
    ("core.commit_tuples_ms", "ms"),
    ("serve.store_append_us", "us"),
    ("serve.store_compact_ms", "ms"),
    ("serve.store_compactions", "count"),
    ("serve.store_recover_ms", "ms"),
    ("serve.reopen_ms", "ms"),
    ("serve.wal_bytes_per_row", "bytes"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one run found: its metrics, its failure accounting, the output
/// checks that failed, and descriptive facts (cores, rows, sample
/// counts) printed above the result line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// What `attempted`/`failed` count (requests, cells, ...).
    pub unit_of_work: &'static str,
    pub problems: Vec<String>,
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records a failed output check; the run reports `correct: false`.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Prints the human-readable report and, last, the one-line JSON
    /// result. Every end-to-end metric must have been measured; a
    /// per-layer metric that was not (absent, or a ratio with nothing
    /// under it) reads 0.
    pub fn print(mut self, trace: bool) {
        let list = if trace { PER_LAYER } else { END_TO_END };
        if !trace {
            for &(name, _) in list {
                if !self.metrics.get(name).is_some_and(|v| v.is_finite()) {
                    self.problem(format!("metric {name} was not measured"));
                }
            }
        }
        for (k, v) in &self.facts {
            println!("fact {k} = {v}");
        }
        let share = if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "failed_share = {share} ({} failed of {} {})",
            self.failed, self.attempted, self.unit_of_work
        );
        let mut json = String::new();
        for (i, &(name, unit)) in list.iter().enumerate() {
            let measured = self.metrics.get(name).copied().filter(|v| v.is_finite());
            let value = measured.unwrap_or(0.0);
            match measured {
                Some(_) => println!("metric {name} = {value} {unit}"),
                None => println!("metric {name} = 0 {unit} (not exercised by this workload)"),
            }
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)));
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Exact nearest-rank quantile of `sorted` (ascending). `q` in (0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts a sample vector for [`quantile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or NaN (reported as not exercised) when `den` is 0.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_obs::json;

    fn listed(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &json::Value, k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
        let list = doc.get(key).and_then(|v| v.as_array()).expect(key);
        list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.95), 5);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }
}
