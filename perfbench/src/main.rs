//! `gcs-perfbench` — the repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload churn-grid-oracle --seed 1 --seconds 25 --trace 0
//! ```
//!
//! runs one named workload on inputs made from the seed, checks its
//! outputs, prints every metric as a `metric <name> <value> <unit>` line
//! and ends with one JSON line: the end-to-end metrics of the untraced
//! runs with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Both modes do the same work; see `perfbench/README.md`.

mod expected;
mod host;
mod mesh;
mod report;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use sim::SimWorkload;

/// The simulator workloads (why each was chosen is in `BENCHMARK.json`).
const SIM_WORKLOADS: &[SimWorkload] = &[
    SimWorkload {
        name: "geometric-4k-sharded",
        shards: Some(2),
        rides: false,
    },
    SimWorkload {
        name: "churn-grid-oracle",
        shards: None,
        rides: true,
    },
];

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's self-test.
    pub tiny: bool,
    /// Negative control: off-by-one recorded values must fail the run.
    pub forge: bool,
    /// The checkout root (inputs and recorded values are read from it).
    pub root: PathBuf,
    /// The `gcs-node` executable.
    pub node_bin: PathBuf,
    /// Where spans and the daemons' socket directories go.
    pub work_dir: PathBuf,
}

impl RunArgs {
    /// Writes the traced run's spans out, after the run has ended.
    pub fn write_spans(&self, tr: &spans::Tracer) -> Result<(), String> {
        std::fs::create_dir_all(&self.work_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.work_dir.display()))?;
        let path = self
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        std::fs::write(&path, tr.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans {}", path.display());
        Ok(())
    }
}

const USAGE: &str = "usage: gcs-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--tiny] [--forge-expected] [--root DIR] [--node-bin PATH] [--work-dir DIR]";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut forge = false;
    let mut root = PathBuf::from(".");
    let mut node_bin = None;
    let mut work_dir = None;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--root" => root = PathBuf::from(value()?),
            "--node-bin" => node_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            "--forge-expected" => {
                forge = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 2;
    }
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    Ok(RunArgs {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or(format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or(format!("--seconds is required\n{USAGE}"))?,
        trace: trace.ok_or(format!("--trace is required\n{USAGE}"))?,
        tiny,
        forge,
        node_bin: node_bin.unwrap_or_else(|| exe_dir.join("gcs-node")),
        work_dir: work_dir.unwrap_or_else(|| exe_dir.join("perfbench")),
        root,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::HostRecord::detect();
    println!(
        "host nproc={} cpu=\"{}\" commit={} daemon_time_scale={}",
        host.nproc,
        host.cpu_model,
        host.commit,
        mesh::time_scale(&args.root).unwrap_or_else(|| "unknown".to_string())
    );
    println!(
        "run workload={} seed={} seconds={} trace={} tiny={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.tiny
    );
    let result = if let Some(w) = SIM_WORKLOADS.iter().find(|w| w.name == args.workload) {
        sim::run(&args, w)
    } else if args.workload == mesh::NAME {
        mesh::run(&args)
    } else {
        Err(format!(
            "unknown workload {:?}; known: {}, {}",
            args.workload,
            SIM_WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", "),
            mesh::NAME
        ))
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.render(args.trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
