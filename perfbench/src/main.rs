//! F2PM benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <offline_build|serve_stream|retrain_slide> --seed N
//!           --seconds S --trace <0|1> --f2pm PATH --out-dir DIR
//!           [--rev REV] [--rustc VERSION]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds it and the `f2pm`
//! CLI first. The last line of standard output is the result JSON; the
//! lines before it carry provenance, correctness checks, the attribution
//! report and every metric with its unit and sample count.

mod corpus;
mod offline_build;
mod procfs;
mod report;
mod retrain_slide;
mod serve_stream;
mod trace;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `f2pm` CLI binary (serve_stream runs it as the server).
    pub f2pm: PathBuf,
    /// Scratch directory of this run; removed when the run ends.
    pub work_dir: PathBuf,
    out_dir: PathBuf,
    rev: String,
    rustc: String,
}

impl Args {
    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let out_dir = PathBuf::from(need("--out-dir")?);
    let work_dir = out_dir.join(format!("work-{}-{}", workload, std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        f2pm: PathBuf::from(need("--f2pm")?),
        work_dir,
        out_dir,
        rev: get("--rev").unwrap_or_else(|| "unknown".into()),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "offline_build" => offline_build::run(&args),
        "serve_stream" => serve_stream::run(&args),
        "retrain_slide" => retrain_slide::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(outcome) => {
            let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
            let provenance = [
                ("workload", args.workload.clone()),
                ("seed", args.seed.to_string()),
                ("seconds", args.seconds.to_string()),
                ("trace", (args.trace as u8).to_string()),
                ("cpu", procfs::cpu_model()),
                ("nproc", nproc.to_string()),
                ("pool_threads", f2pm_linalg::pool_threads().to_string()),
                ("rev", args.rev.clone()),
                ("rustc", args.rustc.clone()),
            ];
            report::print(&outcome, args.trace, &provenance);
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
