//! The repository benchmark: one workload per invocation, measured from
//! outside the program through its public API and the `refer-node`
//! binary. The last line of standard output is the JSON result.
//!
//! ```text
//! refer-benchmark --workload paper|dutycycle|fabric|cluster --seed N
//!                 --seconds S --trace 0|1 [--node-bin PATH] [--work-dir DIR]
//! ```
//!
//! `benchmark/run.py` builds this binary and `refer-node`, then runs it.

mod cluster;
mod probe;
mod report;
mod sim;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// The workloads this binary runs.
const WORKLOADS: [&str; 4] = ["paper", "dutycycle", "fabric", "cluster"];

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: Option<PathBuf>,
    work_dir: PathBuf,
    start: Instant,
}

impl Args {
    /// When this run's measuring ends.
    pub fn deadline(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            node_bin: None,
            work_dir: std::env::temp_dir(),
            start: Instant::now(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds.is_finite() && args.seconds > 0.0) {
                        return Err(bad("a positive number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--node-bin" => args.node_bin = Some(PathBuf::from(value)),
                "--work-dir" => args.work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        Ok(args)
    }
}

/// Runs `pass` at least `min` times, then again while one more pass as
/// long as the last, plus `reserve` more of them, ends by `deadline`. A
/// pass that returns false stops the repetition.
pub fn repeat(deadline: Instant, min: usize, reserve: u32, mut pass: impl FnMut() -> bool) {
    let mut passes = 0;
    let mut last = Duration::ZERO;
    while passes < min || Instant::now() + last * (1 + reserve) <= deadline {
        let start = Instant::now();
        if !pass() {
            return;
        }
        passes += 1;
        last = start.elapsed();
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("refer-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    if args.trace {
        rep.set("host.cpus", sys::host_cpus() as f64);
    }
    // The simulator workloads run on one thread at a time (the fabric is
    // one shard, whose coordinator and worker hand off at every window), so
    // they stay on one CPU: cross-CPU wake-ups on a virtual machine made the
    // fabric's wall time swing by ±40 % from run to run. Each pass moves to
    // the CPU the rest of the host left idlest (see `sim::measure`). The
    // cluster's daemons would inherit the pin, so it is not pinned.
    if args.workload != "cluster" && sys::pin_to_idlest_cpu().is_none() {
        eprintln!("refer-benchmark: could not pin to one CPU; timings may be noisier");
    }
    match args.workload.as_str() {
        "paper" => sim::paper(&args, &mut rep),
        "dutycycle" => sim::dutycycle(&args, &mut rep),
        "fabric" => sim::fabric(&args, &mut rep),
        _ => cluster::cluster(&args, &mut rep),
    }
    rep.finish(args.trace);
    ExitCode::SUCCESS
}
