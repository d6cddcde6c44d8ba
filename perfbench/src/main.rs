//! End-to-end and per-layer benchmark of the renuver workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-point --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `serve-point`, `ingest-mix`, `batch-repair` (see
//! `perfbench/README.md`). A timed run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! metrics and writes its spans to `perfbench/out/`. Every run checks
//! the program's outputs; the last stdout line is the JSON result.

mod batch_repair;
mod client;
mod ingest_mix;
mod layers;
mod load;
mod model;
mod report;
mod serve_point;
mod spans;

#[global_allocator]
static ALLOC: renuver_budget::TrackingAlloc = renuver_budget::TrackingAlloc;

const USAGE: &str = "usage: perfbench --workload serve-point|ingest-mix|batch-repair \
                     --seed <n> --seconds <s> --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

pub fn machine_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "serve-point" => serve_point::run(&args),
        "ingest-mix" => ingest_mix::run(&args),
        "batch-repair" => batch_repair::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    outcome.print(args.trace);
}
