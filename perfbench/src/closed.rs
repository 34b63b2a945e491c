//! The closed-loop workloads: `apps`, `apps_ckpt` and `small_jobs`.
//! One caller runs a fixed job list pass after pass, each job only
//! after the previous one returned.

use crate::check::{self, Reference};
use crate::inputs::{self, SmallJob};
use crate::layers::{self, PerTask};
use crate::openloop::Outcome as JobOutcome;
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use crate::Env;
use orchestra_analysis::analyze_program;
use orchestra_core::{compile_source, graph_of_compiled};
use orchestra_delirium::DelirGraph;
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::{build_plan, ExecutorBackend};
use orchestra_runtime::{
    execute_graph_resumable, execute_threaded, snapshot_versions, CheckpointSpec, ResumableRun,
    SpinKernel, ThreadedRun,
};
use orchestra_split::SplitOptions;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The four apps through `execute_threaded`.
    Apps,
    /// The four apps through `execute_graph_resumable` with snapshots.
    AppsCkpt,
    /// MF sources and tiny-task graphs through `execute_threaded`.
    Small,
}

enum What {
    Graph(DelirGraph),
    Source(String),
}

struct Job {
    name: String,
    what: What,
    opts: ExecutorOptions,
    reference: Reference,
}

/// Threaded-backend options for a job.
fn exec_opts(workers: usize, seed: u64, iters: HashMap<String, usize>) -> ExecutorOptions {
    ExecutorOptions {
        backend: ExecutorBackend::Threaded,
        threads: workers,
        seed,
        pipeline_iters: iters,
        ..ExecutorOptions::default()
    }
}

type CompiledGraph = (DelirGraph, HashMap<String, usize>);

/// Source → graph through the public calls. Untraced, the one-call
/// path (`compile_source` → `graph_of_compiled`); traced, the same
/// work with parse, check, `compile` and graph building each in its
/// own span.
fn compile(
    src: &str,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    job: u64,
) -> Result<CompiledGraph, String> {
    if !tr.on() {
        let c = compile_source(src, &SplitOptions::default()).map_err(|e| e.to_string())?;
        return Ok(graph_of_compiled(&c));
    }
    let prog = tr
        .span("lang.parse", parent, job, || orchestra_lang::parse_program(src))
        .map_err(|e| e.to_string())?;
    let errors = tr.span("lang.check", parent, job, || orchestra_lang::check_program(&prog));
    if !errors.is_empty() {
        return Err(format!("{} semantic errors", errors.len()));
    }
    let c = tr.span("core.compile", parent, job, || {
        orchestra_core::compile(prog, &SplitOptions::default())
    });
    Ok(tr.span("core.graph", parent, job, || graph_of_compiled(&c)))
}

fn setup(kind: Kind, env: &Env) -> Result<Vec<Job>, String> {
    let kernel = SpinKernel::default();
    let mut jobs = Vec::new();
    let mut add = |name: String, what: What, opts: ExecutorOptions, g: &DelirGraph| {
        let reference = check::reference(g, &opts, &kernel)?;
        jobs.push(Job { name, what, opts, reference });
        Ok::<(), String>(())
    };
    if kind == Kind::Small {
        let mut off = Tracer::new(false, Instant::now());
        for j in inputs::small_jobs(env.seed) {
            match j {
                SmallJob::Source { name, src, seed } => {
                    let (g, iters) = compile(&src, &mut off, None, 0)?;
                    add(name, What::Source(src), exec_opts(env.workers, seed, iters), &g)?;
                }
                SmallJob::Graph(gj) => {
                    let opts = exec_opts(env.workers, gj.seed, gj.iters);
                    add(gj.name, What::Graph(gj.graph.clone()), opts, &gj.graph)?;
                }
            }
        }
    } else {
        for gj in inputs::apps(env.seed) {
            let opts = exec_opts(env.workers, gj.seed, gj.iters);
            add(gj.name, What::Graph(gj.graph.clone()), opts, &gj.graph)?;
        }
    }
    Ok(jobs)
}

/// Per-pass counters read from the runtime's returned run records.
#[derive(Debug, Default)]
struct Counters {
    chunks: u64,
    tasks: u64,
    streamed: u64,
    pubs: u64,
    steals: u64,
    busy_us: f64,
    capacity_us: f64,
    executed: u64,
    planned: u64,
    overhead_us: Vec<f64>,
    snapshots: u64,
    ckpt_bytes: u64,
    attempts: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// A run record from either entry point.
enum Ran {
    Threaded(ThreadedRun),
    Resumable(ResumableRun),
}

/// Runs one job; returns its submission→result latency (ms) and how it
/// ended.
fn run_job(
    job: &Job,
    ckpt: Option<&Path>,
    tr: &mut Tracer,
    id: u64,
    ctr: &mut Counters,
) -> (f64, JobOutcome) {
    let kernel = SpinKernel::default();
    let root = tr.begin("job", None, id);
    let t0 = Instant::now();
    let graph;
    let (g, opts) = match &job.what {
        What::Graph(g) => (g, std::borrow::Cow::Borrowed(&job.opts)),
        What::Source(src) => match compile(src, tr, Some(root), id) {
            Ok((g, iters)) => {
                graph = g;
                let mut o = job.opts.clone();
                o.pipeline_iters = iters;
                (&graph, std::borrow::Cow::Owned(o))
            }
            Err(e) => return (0.0, JobOutcome::Error(format!("{}: {e}", job.name))),
        },
    };
    let c0 = Instant::now();
    let sp = tr.begin("runtime.execute", Some(root), id);
    let run = match ckpt {
        Some(dir) => {
            let opts =
                ExecutorOptions { checkpoint: Some(CheckpointSpec::new(dir)), ..(*opts).clone() };
            execute_graph_resumable(g, &opts, &kernel).map(Ran::Resumable)
        }
        None => execute_threaded(g, &opts, &kernel).map(Ran::Threaded),
    };
    tr.end(sp);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let call_us = c0.elapsed().as_secs_f64() * 1e6;
    let outcome = run.map(|ran| {
        let (names, outputs): (Vec<&str>, &[Vec<f64>]) = match &ran {
            Ran::Resumable(r) => {
                ctr.overhead_us.push(call_us - r.wall_us);
                ctr.attempts += r.attempts as u64;
                ctr.executed += r.exec_counts.iter().flatten().map(|&c| u64::from(c)).sum::<u64>();
                ctr.planned += r.outputs.iter().map(|o| o.len() as u64).sum::<u64>();
                (r.op_names.iter().map(String::as_str).collect(), &r.outputs)
            }
            Ran::Threaded(r) => {
                ctr.overhead_us.push(call_us - r.wall_us);
                ctr.chunks += r.ops.iter().map(|o| o.chunks).sum::<u64>();
                ctr.tasks += r.ops.iter().map(|o| o.tasks as u64).sum::<u64>();
                ctr.streamed += r.streamed_edges as u64;
                ctr.pubs += r.watermark_pubs;
                ctr.steals += r.steal.steals;
                ctr.busy_us += r.stats.procs.iter().map(|p| p.busy).sum::<f64>();
                ctr.capacity_us += r.workers as f64 * r.wall_us;
                ctr.executed += r.exec_counts.iter().flatten().map(|&c| u64::from(c)).sum::<u64>();
                ctr.planned += r.ops.iter().map(|o| o.tasks as u64).sum::<u64>();
                (r.ops.iter().map(|o| o.name.as_str()).collect(), &r.outputs)
            }
        };
        tr.span("check.bitwise", Some(root), id, || {
            check::compare(&job.reference, Some(&names), outputs.iter().map(Vec::as_slice))
        })
    });
    tr.end(root);
    if let Some(dir) = ckpt {
        ctr.snapshots += snapshot_versions(dir).last().copied().unwrap_or(0);
        ctr.ckpt_bytes += dir_bytes(dir);
        let _ = std::fs::remove_dir_all(dir);
    }
    let verdict = match outcome {
        Ok(Ok(())) => JobOutcome::Ok,
        Ok(Err(diff)) => JobOutcome::Mismatch(format!("{}: {diff}", job.name)),
        Err(e) => JobOutcome::Error(format!("{}: {e}", job.name)),
    };
    (latency_ms, verdict)
}

/// What a run of passes observed.
#[derive(Debug, Default)]
struct Passes {
    pass_s: Vec<f64>,
    job_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    mismatched: usize,
    errors: Vec<String>,
}

impl Passes {
    fn absorb(&mut self, p: Passes) {
        self.pass_s.extend(p.pass_s);
        self.job_ms.extend(p.job_ms);
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.mismatched += p.mismatched;
        self.errors.extend(p.errors);
    }
}

/// Runs whole passes until `secs` have elapsed (at least `min`).
#[allow(clippy::too_many_arguments)]
fn run_passes(
    jobs: &[Job],
    ckpt: bool,
    env: &Env,
    secs: f64,
    min: usize,
    tr: &mut Tracer,
    ctr: &mut Counters,
    next_id: &mut u64,
) -> Passes {
    let mut out = Passes::default();
    let t0 = Instant::now();
    while out.pass_s.len() < min || t0.elapsed().as_secs_f64() < secs {
        let mut pass = 0.0;
        for job in jobs {
            *next_id += 1;
            let dir = ckpt.then(|| env.scratch.join(format!("ckpt-{next_id}")));
            let (ms, verdict) = run_job(job, dir.as_deref(), tr, *next_id, ctr);
            out.attempted += 1;
            pass += ms;
            if verdict == JobOutcome::Ok {
                out.job_ms.push(ms);
                continue;
            }
            out.failed += 1;
            out.mismatched += usize::from(matches!(verdict, JobOutcome::Mismatch(_)));
            if out.errors.len() < 5 {
                out.errors.push(format!("{verdict:?}"));
            }
        }
        out.pass_s.push(pass / 1e3);
    }
    out
}

fn outcome_of(p: &Passes, metrics: Vec<Metric>, notes: Vec<String>) -> Outcome {
    let mut notes = notes;
    notes.extend(p.errors.iter().cloned());
    Outcome { correct: p.mismatched == 0, attempted: p.attempted, failed: p.failed, metrics, notes }
}

/// The end-to-end run.
///
/// # Errors
///
/// Set-up failures: a graph that cannot run or a compile that fails.
pub fn run(kind: Kind, env: &Env) -> Result<Outcome, String> {
    let (jobs, setup_s) = crate::timed_setup(true, || setup(kind, env))?;
    let ckpt = kind == Kind::AppsCkpt;
    let mut off = Tracer::new(false, Instant::now());
    let mut ctr = Counters::default();
    let mut id = 0;
    // Warm-up pass: lazy host calibration and first-touch allocation
    // are paid before timing starts.
    run_passes(&jobs, ckpt, env, 0.0, 2, &mut off, &mut ctr, &mut id);
    let p = run_passes(&jobs, ckpt, env, env.seconds, 2, &mut off, &mut ctr, &mut id);
    let tail = stats::tail(&p.job_ms);
    let busy_s: f64 = p.pass_s.iter().sum();
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("pass_s", stats::median(&p.pass_s), "s"),
        Metric::new("job_p50_ms", stats::median(&p.job_ms), "ms"),
        Metric::new("max_rate_jobs_s", p.job_ms.len() as f64 / busy_s, "jobs/s"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    let notes = vec![
        tail.line(),
        format!("passes: {} of {} jobs (closed loop, one caller)", p.pass_s.len(), jobs.len()),
        format!(
            "max_rate_jobs_s: closed-loop completions per busy second \
             (one caller; no open loop on this workload)"
        ),
        crate::report::fail_line(p.failed, p.attempted),
    ];
    Ok(outcome_of(&p, metrics, notes))
}

/// Layer probes: the benchmark's own calls into `analyze_program`,
/// `build_plan`, `ChunkQueue` and `SpinKernel::run_task` on this
/// workload's programs and graphs. Returns (claim ns/task, kernel
/// ns/task).
fn probes(jobs: &[Job], env: &Env, tr: &mut Tracer) -> Result<(f64, f64), String> {
    let (mut claims, mut kernel) = (PerTask::default(), PerTask::default());
    let mut off = Tracer::new(false, Instant::now());
    for (i, job) in jobs.iter().enumerate() {
        let id = u64::MAX - i as u64;
        let (g, opts) = match &job.what {
            What::Graph(g) => (g.clone(), job.opts.clone()),
            What::Source(src) => {
                let prog = orchestra_lang::parse_program(src).map_err(|e| e.to_string())?;
                for _ in 0..5 {
                    tr.span("analysis.analyze", None, id, || analyze_program(&prog));
                }
                let (g, iters) = compile(src, &mut off, None, 0)?;
                (g, ExecutorOptions { pipeline_iters: iters, ..job.opts.clone() })
            }
        };
        for _ in 0..4 {
            let _ = tr.span("runtime.plan", None, id, || build_plan(&g, &opts));
        }
        let plan = tr.span("runtime.plan", None, id, || build_plan(&g, &opts));
        let plan = plan.map_err(|e| e.to_string())?;
        tr.span("runtime.claim", None, id, || {
            layers::claim_drain(&plan, opts.policy, env.workers, &mut claims);
        });
        tr.span("runtime.kernel", None, id, || {
            layers::kernel_drive(&g, opts.seed, &SpinKernel::default(), 128, &mut kernel);
        });
    }
    Ok((claims.ns_per_task(), kernel.ns_per_task()))
}

/// The traced run: untraced passes, then traced ones, then probes.
///
/// # Errors
///
/// Set-up failures, as for [`run`].
pub fn run_traced(kind: Kind, env: &Env) -> Result<(Outcome, Vec<trace::Span>), String> {
    let (jobs, _) = crate::timed_setup(false, || setup(kind, env))?;
    let ckpt = kind == Kind::AppsCkpt;
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut on = Tracer::new(true, origin);
    let mut sink = Counters::default();
    let mut ctr = Counters::default();
    let mut id = 0;
    run_passes(&jobs, ckpt, env, 0.0, 2, &mut off, &mut sink, &mut id);
    let share = env.seconds / 2.0;
    let (untraced, plain) = if ckpt {
        // `apps_ckpt` also times the same passes without snapshots, for
        // the checkpoint overhead ratio. The two kinds alternate, so a
        // drift in the host's speed weighs on both medians alike.
        let (mut with, mut without) = (Passes::default(), Passes::default());
        let t0 = Instant::now();
        while with.pass_s.len() < 2 || t0.elapsed().as_secs_f64() < share {
            with.absorb(run_passes(&jobs, true, env, 0.0, 1, &mut off, &mut sink, &mut id));
            without.absorb(run_passes(&jobs, false, env, 0.0, 1, &mut off, &mut sink, &mut id));
        }
        (with, Some(without))
    } else {
        (run_passes(&jobs, false, env, share, 2, &mut off, &mut sink, &mut id), None)
    };
    let traced = run_passes(&jobs, ckpt, env, share, 2, &mut on, &mut ctr, &mut id);
    let (claim_ns, kernel_ns) = probes(&jobs, env, &mut on)?;
    let spans = trace::merge(vec![on]);

    let passes = traced.pass_s.len() as f64;
    let per_pass = |x: u64| x as f64 / passes;
    let seq_ms: f64 = jobs.iter().map(|j| j.reference.seq_us).sum::<f64>() / 1e3;
    let pass_ms = stats::median(&untraced.pass_s) * 1e3;
    let compile = kind == Kind::Small;
    let m = |name: &'static str, on: bool, v: f64, unit: &'static str| {
        Metric::new(name, if on { v } else { 0.0 }, unit)
    };
    let span_us = |name: &str| trace::median_us(&spans, name);
    let transform_us = (span_us("core.compile") - span_us("analysis.analyze")).max(0.0);
    let mut metrics = vec![
        Metric::new("job_tail_ms", stats::tail(&untraced.job_ms).value, "ms"),
        m("lang.parse_us", compile, span_us("lang.parse"), "us"),
        m("lang.check_us", compile, span_us("lang.check"), "us"),
        m("analysis.analyze_us", compile, span_us("analysis.analyze"), "us"),
        // `compile` runs the analysis and then the split transformation;
        // the analysis probe's median is taken off its span.
        m("split.transform_us", compile, transform_us, "us"),
        m("core.graph_us", compile, span_us("core.graph"), "us"),
        Metric::new("runtime.plan_us", span_us("runtime.plan"), "us"),
        Metric::new("runtime.call_overhead_us", stats::median(&ctr.overhead_us), "us"),
        Metric::new("runtime.claim_ns_per_task", claim_ns, "ns"),
        m("runtime.chunks", !ckpt, per_pass(ctr.chunks), "count"),
        m("runtime.tasks_per_chunk", !ckpt, ctr.tasks as f64 / ctr.chunks.max(1) as f64, "count"),
        m("runtime.streamed_inputs", !ckpt, per_pass(ctr.streamed), "count"),
        m("runtime.watermark_pubs", !ckpt, per_pass(ctr.pubs), "count"),
        Metric::new("runtime.kernel_ns_per_task", kernel_ns, "ns"),
        Metric::new("runtime.seq_ms", seq_ms, "ms"),
        Metric::new("runtime.efficiency", seq_ms / (env.workers as f64 * pass_ms), "ratio"),
        m("runtime.busy_ratio", !ckpt, ctr.busy_us / ctr.capacity_us.max(1e-9), "ratio"),
        m("runtime.steals", !ckpt, per_pass(ctr.steals), "count"),
        Metric::new("runtime.exec_ratio", ctr.executed as f64 / ctr.planned.max(1) as f64, "ratio"),
        m("checkpoint.snapshots", ckpt, per_pass(ctr.snapshots), "count"),
        m("checkpoint.bytes", ckpt, per_pass(ctr.ckpt_bytes), "bytes"),
        m("checkpoint.attempts", ckpt, per_pass(ctr.attempts), "count"),
    ];
    let overhead = plain.as_ref().map_or(0.0, |p| pass_ms / (stats::median(&p.pass_s) * 1e3));
    metrics.push(m("checkpoint.overhead_ratio", ckpt, overhead, "ratio"));
    metrics.push(Metric::new(
        "bench.trace_overhead_ratio",
        stats::median(&traced.pass_s) * 1e3 / pass_ms,
        "ratio",
    ));
    let notes = vec![format!(
        "traced {} passes, untraced {}; checkpoint.bytes counts the retained snapshot files",
        traced.pass_s.len(),
        untraced.pass_s.len()
    )];
    let mut all = Passes::default();
    for p in [Some(untraced), Some(traced), plain].into_iter().flatten() {
        all.absorb(p);
    }
    Ok((outcome_of(&all, metrics, notes), spans))
}
