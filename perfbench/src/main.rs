//! The repository benchmark: four workloads from MF source or Delirium
//! text to results checked bit for bit against the sequential
//! reference, timed end to end and, in a separate traced run, per layer.
//!
//! ```text
//! perfbench --workload <apps|apps_ckpt|small_jobs|serve> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Scratch files (snapshots, the daemon
//! socket) go under `.bench_run/<pid>/` and are removed on exit; traced
//! runs leave their Chrome trace at `.bench_run/trace-<workload>-<seed>.json`.
//! The last line of standard output is the JSON result; see README.md.

mod check;
mod closed;
mod inputs;
mod layers;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;

use closed::Kind;
use report::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// A timed run sets up at least this many times and reports the
/// median as `setup_s`...
const SETUP_MIN_REPS: usize = 3;
/// ...and keeps repeating, up to [`SETUP_MAX_REPS`], until this much
/// time has gone into set-up. The host's speed can swing by half over a
/// few hundred ms, so a cheap set-up's repetitions are spread over
/// seconds, where they sample its fast and slow phases alike.
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 100;

/// Runs `setup` (once, or repeatedly when `timed`) and returns the
/// last result with the median set-up time, s. Each repetition drops
/// the previous result before it starts.
pub fn timed_setup<T>(
    timed: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if !timed
            || times.len() >= SETUP_MAX_REPS
            || (times.len() >= SETUP_MIN_REPS && spent >= SETUP_MIN_SECS)
        {
            break;
        }
    }
    Ok((last.expect("set up at least once"), stats::median(&times)))
}

/// What every workload runs with.
pub struct Env {
    /// Threaded-backend workers (and daemon pool size): `nproc`.
    pub workers: usize,
    /// Measuring time, s.
    pub seconds: f64,
    /// Input seed.
    pub seed: u64,
    /// Per-run scratch directory.
    pub scratch: PathBuf,
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => a.trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["apps", "apps_ckpt", "small_jobs", "serve"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(a)
}

/// Per-job self time of each layer group, from the traced jobs' spans.
fn self_metrics(spans: &[trace::Span]) -> Vec<Metric> {
    let own = trace::self_times(spans);
    let jobs = spans.iter().filter(|s| s.name == "job").count().max(1) as f64;
    let group = |s: &trace::Span| -> Option<&'static str> {
        if s.name == "job" {
            return Some("self.bench_ms");
        }
        s.parent?;
        Some(match s.name.split('.').next()? {
            "lang" | "analysis" | "split" | "core" => "self.compile_ms",
            "runtime" => "self.runtime_ms",
            "daemon" | "wire" | "delirium" => "self.daemon_ms",
            "check" => "self.check_ms",
            _ => return None,
        })
    };
    ["self.compile_ms", "self.runtime_ms", "self.daemon_ms", "self.check_ms", "self.bench_ms"]
        .into_iter()
        .map(|name| {
            let ns: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| group(s) == Some(name))
                .map(|(_, &t)| t)
                .sum();
            Metric::new(name, ns as f64 / 1e6 / jobs, "ms")
        })
        .collect()
}

fn run(a: &Args, env: &Env) -> Result<Outcome, String> {
    let kind = match a.workload.as_str() {
        "apps" => Some(Kind::Apps),
        "apps_ckpt" => Some(Kind::AppsCkpt),
        "small_jobs" => Some(Kind::Small),
        _ => None,
    };
    if !a.trace {
        let mut out = match kind {
            Some(k) => closed::run(k, env)?,
            None => serve::run(env)?,
        };
        out.metrics = report::conform(&out.metrics, &report::END_TO_END);
        return Ok(out);
    }
    let (mut out, spans) = match kind {
        Some(k) => closed::run_traced(k, env)?,
        None => serve::run_traced(env)?,
    };
    out.metrics.extend(self_metrics(&spans));
    out.metrics = report::conform(&out.metrics, &report::PER_LAYER);
    let path = PathBuf::from(".bench_run").join(format!("trace-{}-{}.json", a.workload, a.seed));
    std::fs::write(&path, trace::chrome_json(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!("{} spans written to {}", spans.len(), path.display()));
    out.notes.push(format!(
        "{:<24} {:>7} {:>12} {:>12}",
        "layer self time", "spans", "total ms", "self ms"
    ));
    for r in trace::layer_table(&spans) {
        out.notes.push(format!(
            "{:<24} {:>7} {:>12.3} {:>12.3}",
            r.name, r.count, r.total_ms, r.self_ms
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <apps|apps_ckpt|small_jobs|serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let env = Env { workers, seconds: a.seconds, seed: a.seed, scratch: scratch.clone() };
    let result = run(&a, &env);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(out) => {
            let cpu = std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    Some(
                        s.lines()
                            .find(|l| l.starts_with("model name"))?
                            .split(':')
                            .nth(1)?
                            .trim()
                            .to_string(),
                    )
                })
                .unwrap_or_default();
            println!(
                "host: nproc={workers} cpu=\"{cpu}\" seed={} input_hash={:016x}",
                a.seed,
                inputs::hash(&a.workload, a.seed)
            );
            print!("{}", report::render(&a.workload, &out));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs differ from the sequential reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
