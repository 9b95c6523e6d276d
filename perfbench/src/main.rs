//! The Plinius benchmark: one process runs the `train`, `checkpoint` and `serve`
//! loops, prints every metric by name with its unit, direction and sample count,
//! checks that the outputs are correct, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|checkpoint|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each loop is closed, with one caller. The named workload's loop runs for
//! `--seconds` of its own operations; the other two run a fixed number of
//! operations, so every run reports every metric. The loops take turns of about
//! half a second. `--trace 0` reports the end-to-end metrics, measured with
//! tracing off; `--trace 1` runs the same loops with a span around each call into
//! a layer, reports the per-layer metrics and writes the spans to
//! `perfbench/out/`. The exit code is non-zero when an operation failed or a
//! correctness check did not hold.

mod checkpoint;
mod model;
mod report;
mod serve;
mod trace;
mod train;

use checkpoint::CheckpointRig;
use plinius::{PliniusError, DEFAULT_RING_DEPTH};
use report::{median, result_line, Better, Gate, Loop, Metrics};
use serve::ServeRig;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use train::TrainRig;

/// Times the whole set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Fewest operations of the `train`, `checkpoint` and `serve` loops: at least 100,
/// so that p90 has ten samples beyond it, and more where the operation is cheap
/// or its tail noisy.
const MIN_OPS: [usize; 3] = [150, 120, 300];
/// Fewest operations of each loop in a traced run, which reports no p90.
const TRACED_MIN_OPS: [usize; 3] = [20, 21, 64];
/// Operations per turn of each loop, about half a second: short turns spread the
/// samples, long turns keep the cache-cold first operation of a turn out of the
/// 10% tail. A checkpoint turn holds exactly one full cycle.
const BLOCKS: [usize; 3] = [15, 3, 96];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    Checkpoint,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "train" => Some(Workload::Train),
            "checkpoint" => Some(Workload::Checkpoint),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Checkpoint => "checkpoint",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <train|checkpoint|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host and configuration a result was measured on.
fn fingerprint(args: &Args) -> String {
    #[cfg(target_arch = "x86_64")]
    let features: Vec<&str> = [
        ("aes", std::arch::is_x86_feature_detected!("aes")),
        (
            "pclmulqdq",
            std::arch::is_x86_feature_detected!("pclmulqdq"),
        ),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    #[cfg(not(target_arch = "x86_64"))]
    let features: Vec<&str> = Vec::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_features\": \"{}\", \"crypto_engine\": \"{}\", \
         \"gemm_engine\": \"{}\", \"worker_threads\": {}, \"ring_depth\": {DEFAULT_RING_DEPTH}, \
         \"pipeline\": \"sync\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        features.join(","),
        plinius::selected_engine().name(),
        plinius::selected_gemm().name(),
        plinius_parallel::max_threads(),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    )
}

/// The three deployments of a run, built and warmed up.
struct Rigs {
    train: TrainRig,
    checkpoint: CheckpointRig,
    serve: ServeRig,
}

impl Rigs {
    fn new(seed: u64, gate: &mut Gate) -> Result<Self, PliniusError> {
        Ok(Rigs {
            train: TrainRig::new(seed)?,
            checkpoint: CheckpointRig::new(seed, gate)?,
            serve: ServeRig::new(seed, gate)?,
        })
    }
}

/// One loop of the run and how long it runs: until it has taken `min_ops`
/// operations and, for the named workload, spent `target_s` seconds in them.
struct Lane {
    lp: Box<dyn Loop>,
    target_s: f64,
    min_ops: usize,
    /// Operations per turn.
    block: usize,
    done: usize,
    busy_s: f64,
    failed: bool,
}

impl Lane {
    /// Share of the lane's work done, 1 when finished.
    fn progress(&self) -> f64 {
        let by_ops = self.done as f64 / self.min_ops as f64;
        if self.target_s > 0.0 {
            by_ops.min(self.busy_s / self.target_s)
        } else {
            by_ops
        }
    }

    /// Runs one turn: up to `block` operations.
    fn turn(&mut self, tr: &mut Tracer, gate: &mut Gate) {
        for _ in 0..self.block {
            if self.failed || self.progress() >= 1.0 {
                return;
            }
            let start = Instant::now();
            self.failed = !self.lp.op(tr, gate);
            self.busy_s += start.elapsed().as_secs_f64();
            self.done += 1;
        }
    }
}

fn run(
    args: &Args,
    gate: &mut Gate,
    out: &mut Metrics,
    tr: &mut Tracer,
) -> Result<(), PliniusError> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut rigs = None;
    for _ in 0..repeats {
        drop(rigs.take());
        let start = Instant::now();
        rigs = Some(Rigs::new(args.seed, gate)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let rigs = rigs.expect("set up at least once");
    if !args.trace {
        out.put("setup_s", median(&setups), "s", Better::Lower, setups.len());
    }
    let min_ops = if args.trace { TRACED_MIN_OPS } else { MIN_OPS };
    let loops: [(Workload, Box<dyn Loop>); 3] = [
        (Workload::Train, rigs.train.into_loop(args.trace)?),
        (Workload::Checkpoint, rigs.checkpoint.into_loop(args.trace)?),
        (Workload::Serve, Box::new(rigs.serve)),
    ];
    let mut lanes: Vec<Lane> = loops
        .into_iter()
        .zip(min_ops.into_iter().zip(BLOCKS))
        .map(|((workload, lp), (min_ops, block))| Lane {
            lp,
            target_s: if workload == args.workload {
                args.seconds
            } else {
                0.0
            },
            min_ops,
            block,
            done: 0,
            busy_s: 0.0,
            failed: false,
        })
        .collect();
    // The lane furthest behind takes the next turn, so every loop's samples spread
    // over the whole run. The host's speed drifts over seconds; spread out, every
    // loop sees the same mix of fast and slow phases instead of a window of its own.
    while let Some(lane) = lanes
        .iter_mut()
        .filter(|l| !l.failed && l.progress() < 1.0)
        .min_by(|a, b| a.progress().total_cmp(&b.progress()))
    {
        lane.turn(tr, gate);
    }
    for lane in lanes {
        lane.lp.finish(tr, gate, out);
    }
    Ok(())
}

fn write_trace(args: &Args, fingerprint: &str, tr: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, format!("{fingerprint}\n{}", tr.to_jsonl()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = fingerprint(&args);
    let mut gate = Gate::default();
    let mut out = Metrics::default();
    let mut tr = Tracer::new(args.trace);
    if let Err(e) = run(&args, &mut gate, &mut out, &mut tr) {
        eprintln!("perfbench: set-up failed: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        match write_trace(&args, &fingerprint, &tr) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write the spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    gate.check(out.0.values().all(|m| m.value.is_finite()), || {
        "a metric is not finite".into()
    });
    out.print_table();
    println!("fingerprint {fingerprint}");
    println!("{}", result_line(&gate, &out));
    if gate.correct() && gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
