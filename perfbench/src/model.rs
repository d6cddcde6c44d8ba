//! Seeded inputs and the serving set-up shared by the HTTP workloads.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use renuver_budget::Budget;
use renuver_core::{Engine, IndexMode, RenuverConfig};
use renuver_data::{csv, Relation, Tuple, Value};
use renuver_datasets::Dataset;
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_obs::json;
use renuver_rfd::discovery::{discover, DiscoveryConfig};
use renuver_rfd::RfdSet;
use renuver_rulekit::RuleSet;
use renuver_serve::{artifact, Ctx, DurabilityOptions, Durable, ModelInfo, ServeConfig, Server};

use crate::client::Conn;
use crate::spans::{ProgramTrace, Recorder};

/// Reference rows of the Restaurant model (the ROADMAP's workload A).
pub const ROWS: usize = 5_000;
/// Discovery threshold limit (`renuver prepare --limit 3`).
pub const DISCOVERY_LIMIT: f64 = 3.0;
/// Discovery lattice depth, the CLI default (`--max-lhs 2`).
pub const DISCOVERY_MAX_LHS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Server worker threads, and client connections.
pub const WORKERS: usize = 2;
const SOURCE: &str = "perfbench:restaurant";

/// splitmix64: the benchmark's own seeded stream for pools and schedules.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generator seed of the reference relation. The model is fixed (the
/// ROADMAP's workload A: `export_csv restaurant 5000 42`, 19 RFDs); the
/// run's `--seed` draws what is asked of it — pooled holes, ingest
/// batches and their schedule, injected holes.
pub const MODEL_SEED: u64 = 42;

/// The Restaurant generator at `rows` rows.
pub fn restaurant(rows: usize) -> Relation {
    Dataset::Restaurant.relation_n(rows, MODEL_SEED)
}

/// The configuration `renuver prepare` serves with: the index built.
pub fn serving_config() -> RenuverConfig {
    RenuverConfig { index_mode: IndexMode::Indexed, ..RenuverConfig::default() }
}

/// One pooled one-hole request: a reference row with one cell blanked.
pub struct Probe {
    pub tuple: Tuple,
    pub attr: usize,
    pub truth: Value,
    pub body: String,
}

/// `n` distinct `(row, attribute)` holes over seeded reference rows, in
/// seeded order. Attributes are stratified — each blanked `n / arity`
/// times — so the pool's mix of cheap and expensive holes (candidate work
/// differs ~100× between attributes) is the same for every seed.
pub fn pool(rel: &Relation, seed: u64, n: usize) -> Vec<Probe> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (row, attr) = (rng.below(rel.len()), out.len() % rel.arity());
        if rel.is_missing(row, attr) || !seen.insert((row, attr)) {
            continue;
        }
        let mut tuple = rel.tuple(row).clone();
        let truth = std::mem::replace(&mut tuple[attr], Value::Null);
        let body = body_json(std::slice::from_ref(&tuple));
        out.push(Probe { tuple, attr, truth, body });
    }
    for i in (1..out.len()).rev() {
        let j = rng.below(i + 1);
        out.swap(i, j);
    }
    out
}

/// The `/v1/impute` and `/v1/ingest` request document.
pub fn body_json(tuples: &[Tuple]) -> String {
    let mut out = String::from("{\"tuples\": [");
    for (i, t) in tuples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, v) in t.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            match v {
                Value::Null => out.push_str("null"),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Float(f) => json::write_f64(&mut out, *f),
                Value::Text(s) => json::write_str(&mut out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Renders a served JSON cell the way [`Value::render`] renders the truth.
pub fn json_cell(v: &json::Value) -> Option<String> {
    match v {
        json::Value::Null => None,
        json::Value::Str(s) => Some(s.clone()),
        json::Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some((*n as i64).to_string()),
        json::Value::Num(n) => Some(n.to_string()),
        json::Value::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// Imputed / correct counts of served one-hole answers against truth.
#[derive(Default)]
pub struct Score {
    pub holes: usize,
    pub imputed: usize,
    pub correct: usize,
}

impl Score {
    pub fn add(&mut self, rules: &RuleSet, attr_name: &str, got: Option<&str>, truth: &Value) {
        self.holes += 1;
        if let Some(got) = got {
            self.imputed += 1;
            if rules.validate(attr_name, got, &truth.render()) {
                self.correct += 1;
            }
        }
    }

    pub fn f1(&self) -> f64 {
        renuver_eval::Scores::from_counts(self.holes, self.imputed, self.correct).f1
    }
}

/// A scratch directory inside the benchmark's own tree, removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn fresh(tag: &str) -> WorkDir {
        let path = out_dir().join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create work dir");
        WorkDir { path }
    }

    pub fn snapshot(&self) -> PathBuf {
        self.path.join("model.rnv")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where runs leave spans and digests: `perfbench/out`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

/// A running server over loopback.
pub struct Served {
    pub ctx: Arc<Ctx>,
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<u64>>,
}

impl Served {
    /// Stops the server, waits for it, and returns the connections it shed.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("server thread").expect("server run")
    }
}

/// Stage timings of one set-up.
#[derive(Default)]
pub struct Setup {
    pub read: Duration,
    pub discover: Duration,
    pub prepare: Duration,
    pub encode: Duration,
    pub decode: Duration,
    /// CSV text to the first answered request.
    pub total: Duration,
    pub rfds: usize,
    pub artifact_bytes: usize,
}

/// `renuver prepare` then `renuver serve`, from CSV text to the first
/// answered request: read, discover, prepare, encode the artifact,
/// decode it (with `store`, write it there and recover its WAL), bind
/// the server and answer `/healthz`. With `trace`, also returns a shadow
/// engine: one assembled from an oracle and index the benchmark built
/// itself under the program tracer, so its `oracle.*` and `index.*`
/// counters land in that tracer's metrics.
pub fn serve(
    csv_text: &str,
    store: Option<(&WorkDir, u64)>,
    rec: &mut Recorder,
    mut trace: Option<&mut ProgramTrace>,
) -> (Served, Setup, Option<Engine>) {
    let mut setup = Setup::default();
    let start = Instant::now();
    let req = 0;
    let (rel, d) = rec.time("csv::read_str", req, || csv::read_str(csv_text).expect("generated CSV parses"));
    setup.read = d;
    let (rfds, d) = discover_traced(&rel, rec, trace.as_deref_mut(), req);
    setup.discover = d;
    setup.rfds = rfds.len();

    let shadow = trace.map(|pt| {
        let span = rec.open("DistanceOracle::build", 0, req);
        let oracle = DistanceOracle::build_traced(&rel, DEFAULT_DICT_CAP, &Budget::unlimited(), &pt.tracer);
        rec.import(pt, span.id(), req);
        rec.close(span);
        let span = rec.open("SimilarityIndex::build", 0, req);
        let index = SimilarityIndex::build_traced(&rel, &oracle, &Budget::unlimited(), &pt.tracer);
        rec.import(pt, span.id(), req);
        rec.close(span);
        Engine::from_parts(rel.clone(), rfds.clone(), oracle, Some(index), serving_config())
    });

    let (engine, d) = rec.time("Engine::prepare", req, || Engine::prepare(rel, rfds, serving_config()));
    setup.prepare = d;
    let (bytes, d) = rec.time("artifact::encode_engine", req, || artifact::encode_engine(&engine, SOURCE, 0));
    setup.encode = d;
    setup.artifact_bytes = bytes.len();
    let schema_fingerprint = artifact::schema_fingerprint(engine.schema());
    drop(engine);

    let info = ModelInfo { source: SOURCE.into(), schema_fingerprint, artifact_bytes: bytes.len() };
    let ctx = match store {
        None => {
            let (art, d) = rec.time("artifact::decode", req, || artifact::decode(&bytes).expect("decode artifact"));
            setup.decode = d;
            Ctx::new(art.into_engine(serving_config()), info, None, 60_000)
        }
        Some((dir, compact_records)) => {
            std::fs::write(dir.snapshot(), &bytes).expect("write snapshot");
            let (art, d) = rec.time("artifact::decode", req, || {
                artifact::decode(&std::fs::read(dir.snapshot()).expect("read snapshot")).expect("decode artifact")
            });
            setup.decode = d;
            let seq = art.committed_seq;
            let mut engine = art.into_engine(serving_config());
            let mut opts = DurabilityOptions::beside(dir.snapshot(), SOURCE);
            opts.compact_records = compact_records;
            let ((durable, _), _) = rec.time("Durable::recover", req, || {
                Durable::recover(&mut engine, seq, opts).expect("recover fresh store")
            });
            let ctx = Ctx::new(engine, info, None, 60_000);
            ctx.install_durable(durable);
            ctx
        }
    };
    let ctx = Arc::new(ctx);
    let server = Server::bind(
        ServeConfig { addr: "127.0.0.1:0".into(), workers: WORKERS, queue: 64, ..ServeConfig::default() },
        Arc::clone(&ctx),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let stop = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let (status, _) = Conn::new(addr).request("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "healthz");
    setup.total = start.elapsed();
    (Served { ctx, addr, stop, thread }, setup, shadow)
}

/// `discover` at [`DISCOVERY_LIMIT`], inside a benchmark span; with a
/// program tracer its `rfd::*` spans are imported beneath it.
pub fn discover_traced(
    rel: &Relation,
    rec: &mut Recorder,
    trace: Option<&mut ProgramTrace>,
    req: u64,
) -> (RfdSet, Duration) {
    let mut cfg = DiscoveryConfig { max_lhs: DISCOVERY_MAX_LHS, ..DiscoveryConfig::with_limit(DISCOVERY_LIMIT) };
    if let Some(pt) = &trace {
        cfg.tracer = pt.tracer.clone();
    }
    let span = rec.open("discover", 0, req);
    let rfds = discover(rel, &cfg);
    if let Some(pt) = trace {
        rec.import(pt, span.id(), req);
    }
    (rfds, rec.close(span))
}

/// `SETUPS` set-ups; the last one is returned running, the others are
/// stopped. Returns the running server, every set-up's timings, and the
/// last set-up's shadow engine (traced run only).
pub fn serve_repeatedly(
    csv_text: &str,
    store: Option<u64>,
    rec: &mut Recorder,
    mut trace: Option<&mut ProgramTrace>,
) -> (Served, Vec<Setup>, Option<Engine>, Option<WorkDir>) {
    // The traced run sets up once: it reports no set-up time.
    let rounds = if rec.is_on() { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let dir = store.map(|_| WorkDir::fresh(&format!("setup{round}")));
        let last = round + 1 == rounds;
        let pt = if last { trace.as_deref_mut() } else { None };
        let (served, setup, shadow) = serve(csv_text, dir.as_ref().zip(store), rec, pt);
        setups.push(setup);
        if last {
            return (served, setups, shadow, dir);
        }
        served.stop();
    }
    unreachable!("at least one set-up round")
}
