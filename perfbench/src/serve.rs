//! The `serve` workload: an in-process `orchestrad` on a real unix
//! socket, fed by an open loop. One connection submits on a fixed
//! schedule, one waits; latency runs from each job's due time.

use crate::check::{self, Reference};
use crate::inputs::{self, ServeJob};
use crate::layers::{self, PerTask};
use crate::openloop::{self, Obs, Outcome as JobOutcome, RungReport};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::Env;
use orchestra_daemon::wire::{Request, Response};
use orchestra_daemon::{
    graph_load_specs, Client, ClientError, Daemon, DaemonConfig, GraphLoad, JobOptions,
    PoolScheduler, WireResult,
};
use orchestra_runtime::executor::ExecutorOptions;
use orchestra_runtime::threaded::build_plan;
use orchestra_runtime::{PolicyKind, SpinKernel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The reference rate, jobs/s: where `job_p50_ms`/`job_tail_ms` are
/// read. Part of the benchmark's definition, the same on every commit.
const REF_RATE: f64 = 200.0;
/// The saturating rung's offered rate, jobs/s: far above what the
/// daemon completes, so `max_rate_jobs_s` reads its completion rate.
const SATURATE_RATE: f64 = 20_000.0;
/// The latency limit on the tail, ms.
const LIMIT_MS: f64 = 100.0;
/// Outstanding jobs at which the reference rung is cut short as
/// overloaded, and the saturating rung's generator waits for a result.
const MAX_OUTSTANDING: usize = 256;
/// The spin-kernel scale the references use: `DaemonConfig`'s default,
/// which the benchmark's daemon keeps.
const KERNEL_SCALE: f64 = 1.0;

struct Served {
    /// Held so the daemon serves until the run drops it.
    _daemon: Daemon,
    variants: Vec<ServeJob>,
    refs: Arc<Vec<Reference>>,
    order: Vec<usize>,
    pass_len: usize,
    submitter: Client,
    /// Moved to the waiter thread when the run starts.
    waiter: Option<Client>,
}

fn setup(env: &Env, tag: usize) -> Result<Served, String> {
    let (variants, passes) = inputs::serve(env.seed);
    let kernel = SpinKernel::with_scale(KERNEL_SCALE);
    let refs = variants
        .iter()
        .map(|v| {
            let opts = ExecutorOptions { seed: v.seed, ..ExecutorOptions::default() };
            check::reference(&v.graph, &opts, &kernel)
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Relative to the checkout root, which keeps the socket path under
    // the unix-socket length limit wherever the checkout lives.
    let socket = env.scratch.join(format!("d{tag}.sock"));
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        workers: env.workers,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let connect = |who: &str| Client::connect(&socket, who, 1.0).map_err(|e| e.to_string());
    Ok(Served {
        submitter: connect("bench-submit")?,
        waiter: Some(connect("bench-wait")?),
        _daemon: daemon,
        variants,
        refs: Arc::new(refs),
        pass_len: passes[0].len(),
        order: passes.concat(),
    })
}

/// One job handed from the submitter to the waiter.
enum Msg {
    Sent { key: u64, variant: usize, due: Instant, sent: Instant, job: u64, traced: bool },
    Failed { key: u64, variant: usize, due: Instant, sent: Instant, outcome: JobOutcome },
    Flush(mpsc::Sender<Vec<Record>>),
}

#[derive(Debug, Clone)]
struct Record {
    key: u64,
    variant: usize,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    outcome: JobOutcome,
    exec_us: f64,
}

/// The waiting side: waits for each job in submission order, checks
/// its outputs bit for bit, and hands the records back on `Flush`.
fn waiter(
    mut client: Client,
    refs: Arc<Vec<Reference>>,
    rx: mpsc::Receiver<Msg>,
    completed: Arc<AtomicUsize>,
    mut tr: Tracer,
) -> (Tracer, BTreeMap<usize, WireResult>) {
    let mut recs = Vec::new();
    let mut samples = BTreeMap::new();
    for msg in rx {
        match msg {
            Msg::Sent { key, variant, due, sent, job, traced } => {
                // Only the traced rung's jobs are recorded.
                let w0 = Instant::now();
                let res = client.wait(job);
                let done = Instant::now();
                if traced {
                    tr.record("daemon.wait", w0, done, None, key);
                }
                let (outcome, exec_us) = match res {
                    Ok(r) => {
                        let c0 = Instant::now();
                        let names: Vec<&str> = r.outputs.iter().map(|o| o.name.as_str()).collect();
                        let vals = r.outputs.iter().map(|o| o.values.as_slice());
                        let v = check::compare(&refs[variant], Some(&names), vals);
                        if traced {
                            tr.record("check.bitwise", c0, Instant::now(), None, key);
                        }
                        let wall = r.wall_us;
                        samples.entry(variant).or_insert(r);
                        match v {
                            Ok(()) => (JobOutcome::Ok, wall),
                            Err(d) => (JobOutcome::Mismatch(d), wall),
                        }
                    }
                    Err(e) => (JobOutcome::Error(e.to_string()), 0.0),
                };
                if traced {
                    tr.record("job", due, done, None, key);
                }
                completed.fetch_add(1, Ordering::SeqCst);
                recs.push(Record { key, variant, due, sent, done: Some(done), outcome, exec_us });
            }
            Msg::Failed { key, variant, due, sent, outcome } => {
                completed.fetch_add(1, Ordering::SeqCst);
                recs.push(Record { key, variant, due, sent, done: None, outcome, exec_us: 0.0 });
            }
            Msg::Flush(back) => {
                let _ = back.send(std::mem::take(&mut recs));
            }
        }
    }
    (tr, samples)
}

/// The sending side of one open-loop run.
struct Gen<'a> {
    served: &'a mut Served,
    tx: mpsc::Sender<Msg>,
    completed: Arc<AtomicUsize>,
    sent: usize,
    next_key: u64,
    cursor: usize,
}

impl Gen<'_> {
    /// Sends `secs` seconds of jobs at `rate`, then waits for all of
    /// them. Returns the records and whether the rung met overload:
    /// more than [`MAX_OUTSTANDING`] jobs in flight. Overload cuts a
    /// plain rung short; a `saturate` rung waits for a result instead,
    /// and stops sending once `secs` have passed.
    fn rung(
        &mut self,
        rate: f64,
        secs: f64,
        saturate: bool,
        tr: &mut Tracer,
    ) -> (Vec<Record>, bool) {
        let n = ((rate * secs).round() as usize).max(16);
        let start = Instant::now() + Duration::from_millis(2);
        let stop = start + Duration::from_secs_f64(secs);
        let mut overloaded = false;
        for offset in openloop::schedule(rate, n, 0.0) {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let over = || self.sent - self.completed.load(Ordering::SeqCst) > MAX_OUTSTANDING;
            if over() {
                overloaded = true;
                if !saturate {
                    break;
                }
                while over() {
                    thread::sleep(Duration::from_micros(50));
                }
            }
            if saturate && Instant::now() >= stop {
                break;
            }
            let variant = self.served.order[self.cursor % self.served.order.len()];
            self.cursor += 1;
            self.next_key += 1;
            let key = self.next_key;
            let v = &self.served.variants[variant];
            let opts = JobOptions { seed: v.seed, ..JobOptions::default() };
            let sent = Instant::now();
            let sp = tr.begin("daemon.submit", None, key);
            let res = self.served.submitter.submit(&v.graph, "job", &opts);
            tr.end(sp);
            self.sent += 1;
            let msg = match res {
                Ok(job) => Msg::Sent { key, variant, due, sent, job, traced: tr.on() },
                // The graphs are valid, so a daemon error on submit is
                // admission turning the job away.
                Err(ClientError::Remote(m)) => {
                    Msg::Failed { key, variant, due, sent, outcome: JobOutcome::Refused(m) }
                }
                Err(e) => {
                    let outcome = JobOutcome::Error(e.to_string());
                    Msg::Failed { key, variant, due, sent, outcome }
                }
            };
            self.tx.send(msg).expect("waiter thread alive");
        }
        let (back, recs) = mpsc::channel();
        self.tx.send(Msg::Flush(back)).expect("waiter thread alive");
        (recs.recv().expect("waiter flushes"), overloaded)
    }
}

fn obs_of(recs: &[Record]) -> Vec<Obs> {
    let t0 = recs.iter().map(|r| r.due).min().unwrap_or_else(Instant::now);
    let s = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    recs.iter()
        .map(|r| Obs {
            due: s(r.due),
            sent: s(r.sent),
            done: r.done.map(s),
            outcome: r.outcome.clone(),
        })
        .collect()
}

/// Each whole pass of the mix's summed latency from the due time, s:
/// the time its jobs spent in the system, as a closed loop's pass
/// time is, without the gaps of the schedule between them.
fn pass_times(recs: &[Record], pass_len: usize) -> Vec<f64> {
    recs.chunks_exact(pass_len)
        .filter_map(|c| {
            c.iter()
                .map(|r| r.done.map(|d| d.saturating_duration_since(r.due).as_secs_f64()))
                .sum::<Option<f64>>()
        })
        .collect()
}

struct Session {
    served: Served,
    tx: mpsc::Sender<Msg>,
    completed: Arc<AtomicUsize>,
    handle: thread::JoinHandle<(Tracer, BTreeMap<usize, WireResult>)>,
    setup_s: f64,
}

fn start(env: &Env, timed: bool, origin: Instant, trace_on: bool) -> Result<Session, String> {
    let mut tag = 0;
    let (mut served, setup_s) = crate::timed_setup(timed, || {
        tag += 1;
        setup(env, tag)
    })?;
    let (tx, rx) = mpsc::channel();
    let completed = Arc::new(AtomicUsize::new(0));
    let wait_client = served.waiter.take().expect("set-up connects the waiter");
    let (refs, done) = (Arc::clone(&served.refs), Arc::clone(&completed));
    let tr = Tracer::new(trace_on, origin).fork(1);
    let handle = thread::spawn(move || waiter(wait_client, refs, rx, done, tr));
    Ok(Session { served, tx, completed, handle, setup_s })
}

impl Session {
    fn gen(&mut self) -> Gen<'_> {
        Gen {
            served: &mut self.served,
            tx: self.tx.clone(),
            completed: Arc::clone(&self.completed),
            sent: self.completed.load(Ordering::SeqCst),
            next_key: 0,
            cursor: 0,
        }
    }

    fn finish(self) -> Result<(Served, Tracer, BTreeMap<usize, WireResult>), String> {
        drop(self.tx);
        let (tr, samples) = self.handle.join().map_err(|_| "waiter thread panicked".to_string())?;
        Ok((self.served, tr, samples))
    }
}

fn tally(recs: &[Record], limit_misses: bool) -> (usize, usize, usize) {
    let o = obs_of(recs);
    let failed = o
        .iter()
        .filter(|x| if limit_misses { x.failed(LIMIT_MS) } else { x.outcome != JobOutcome::Ok })
        .count();
    let mism = recs.iter().filter(|r| matches!(r.outcome, JobOutcome::Mismatch(_))).count();
    (recs.len(), failed, mism)
}

fn errors_of(recs: &[Record]) -> Vec<String> {
    recs.iter()
        .filter(|r| r.outcome != JobOutcome::Ok)
        .take(5)
        .map(|r| format!("job {} (variant {}): {:?}", r.key, r.variant, r.outcome))
        .collect()
}

fn warm(session: &mut Session) {
    let mut off = Tracer::new(false, Instant::now());
    session.gen().rung(REF_RATE, 0.25, false, &mut off);
}

/// The end-to-end run: the reference rate, then the saturating rung.
///
/// # Errors
///
/// Set-up failures: a reference that cannot run, a daemon that does
/// not start.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let mut session = start(env, true, Instant::now(), false)?;
    let mut off = Tracer::new(false, Instant::now());
    warm(&mut session);
    let pass_len = session.served.pass_len;
    let (reference, cut) = session.gen().rung(REF_RATE, env.seconds * 0.8, false, &mut off);
    // Read here, before the saturating rung: it queues a number of jobs
    // that depends on how the host ran, the reference rung a fixed
    // number.
    let peak_rss_mb = crate::peak_rss_mb();
    let (saturated, overloaded) =
        session.gen().rung(SATURATE_RATE, env.seconds * 0.2, true, &mut off);
    let setup_s = session.setup_s;
    let (served, _, _) = session.finish()?;
    drop(served);

    let mut ref_report = openloop::judge(REF_RATE, &obs_of(&reference), LIMIT_MS);
    ref_report.holds &= !cut;
    let sat_report = openloop::judge(SATURATE_RATE, &obs_of(&saturated), LIMIT_MS);
    let (mut attempted, mut failed, mut mismatched) = tally(&reference, true);
    // On the saturating rung a missed limit is the point, not a
    // failure; errors, refusals and wrong bits still are.
    let (a, f, m) = tally(&saturated, false);
    attempted += a;
    failed += f;
    mismatched += m;
    let lat: Vec<f64> = obs_of(&reference).iter().filter_map(Obs::latency_ms).collect();
    let tail = stats::tail(&lat);
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("pass_s", stats::median(&pass_times(&reference, pass_len)), "s"),
        Metric::new("job_p50_ms", stats::median(&lat), "ms"),
        Metric::new("max_rate_jobs_s", sat_report.achieved, "jobs/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let mut notes = vec![
        format!("{} at {REF_RATE} jobs/s", tail.line()),
        format!(
            "max_rate_jobs_s: completions per second with {SATURATE_RATE} jobs/s offered{}",
            if overloaded {
                format!(" (saturated: the generator met {MAX_OUTSTANDING} jobs in flight)")
            } else {
                " (NOT saturated: the daemon kept up with the offered rate)".to_string()
            }
        ),
        crate::report::fail_line(failed, attempted),
        format!("peak_rss_mb after the saturating rung: {:.1} MB", crate::peak_rss_mb()),
        rung_line(&ref_report),
        rung_line(&sat_report),
    ];
    notes.extend(errors_of(&reference));
    notes.extend(errors_of(&saturated));
    Ok(Outcome { correct: mismatched == 0, attempted, failed, metrics, notes })
}

fn rung_line(r: &RungReport) -> String {
    format!(
        "rung {:>6.0} jobs/s: achieved {:8.1}/s p50 {:7.3} ms p{} {:7.3} ms late-p99 {:6.3} ms \
         growing={} holds={} ({} jobs, {} failed)",
        r.rate,
        r.achieved,
        r.p50_ms,
        r.tail.pct,
        r.tail.value,
        r.late_p99_ms,
        r.growing,
        r.holds,
        r.attempted,
        r.failed
    )
}

/// Calls `f` `reps` times, each call inside its own span.
fn probe<T>(tr: &mut Tracer, name: &'static str, job: u64, reps: usize, mut f: impl FnMut() -> T) {
    for _ in 0..reps {
        std::hint::black_box(tr.span(name, None, job, &mut f));
    }
}

/// The traced run: the reference rate untraced, then traced, then
/// probes of the layer functions on one pass of the mix.
///
/// # Errors
///
/// As for [`run`].
pub fn run_traced(env: &Env) -> Result<(Outcome, Vec<Span>), String> {
    let origin = Instant::now();
    let mut session = start(env, false, origin, true)?;
    let mut off = Tracer::new(false, origin);
    let mut on = Tracer::new(true, origin);
    warm(&mut session);
    let (untraced, _) = session.gen().rung(REF_RATE, env.seconds / 2.0, false, &mut off);
    let (traced, _) = session.gen().rung(REF_RATE, env.seconds / 2.0, false, &mut on);
    let retained = session.served.submitter.stats().map_err(|e| e.to_string())?.1.len();
    let (served, wait_tr, samples) = session.finish()?;

    // Probes on one pass of the mix.
    let pass_len = served.pass_len;
    let kernel = SpinKernel::with_scale(KERNEL_SCALE);
    let (mut text_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    let (mut claims, mut kernel_time) = (PerTask::default(), PerTask::default());
    let mut sched = PoolScheduler::new(env.workers);
    for (i, &vi) in served.order[..pass_len].iter().enumerate() {
        let v = &served.variants[vi];
        let id = u64::MAX - i as u64;
        let opts = JobOptions { seed: v.seed, ..JobOptions::default() };
        let text = orchestra_delirium::text::print(&v.graph, "job");
        text_bytes.push(text.len() as f64);
        probe(&mut on, "delirium.print", id, 10, || {
            orchestra_delirium::text::print(&v.graph, "job")
        });
        probe(&mut on, "delirium.parse", id, 10, || orchestra_delirium::text::parse(&text));
        let req = Request::Submit { opts: opts.clone(), graph: text.clone() };
        probe(&mut on, "wire.request_encode", id, 10, || req.encode());
        if let Some(r) = samples.get(&vi) {
            let resp = Response::Result(r.clone());
            let payload = resp.encode();
            resp_bytes.push(payload.len() as f64);
            probe(&mut on, "wire.response_encode", id, 10, || resp.encode());
            probe(&mut on, "wire.response_decode", id, 10, || Response::decode(&payload));
        }
        probe(&mut on, "daemon.sched", id, 10, || {
            let specs = graph_load_specs(&v.graph, PolicyKind::Taper);
            let grant = sched.admit(GraphLoad { job: id, weight: 1.0, specs });
            sched.complete(id);
            grant
        });
        let eopts =
            ExecutorOptions { seed: v.seed, threads: env.workers, ..ExecutorOptions::default() };
        probe(&mut on, "runtime.plan", id, 10, || build_plan(&v.graph, &eopts));
        let plan = build_plan(&v.graph, &eopts).map_err(|e| e.to_string())?;
        layers::claim_drain(&plan, eopts.policy, env.workers, &mut claims);
        layers::kernel_drive(&v.graph, v.seed, &kernel, usize::MAX, &mut kernel_time);
    }
    let seq_ms: f64 =
        served.order[..pass_len].iter().map(|&v| served.refs[v].seq_us).sum::<f64>() / 1e3;
    drop(served);

    let spans = trace::merge(vec![on, wait_tr]);

    let ok =
        |recs: &[Record]| -> Vec<f64> { obs_of(recs).iter().filter_map(Obs::latency_ms).collect() };
    let per_job = |f: &dyn Fn(&Record) -> Option<f64>| -> f64 {
        let v: Vec<f64> = traced.iter().filter_map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let rtt = |r: &Record| r.done.map(|d| d.saturating_duration_since(r.sent).as_secs_f64() * 1e6);
    let untraced_report = openloop::judge(REF_RATE, &obs_of(&untraced), LIMIT_MS);
    // Probe timings: each job's median over its reps, averaged over the
    // pass, so every kind in the mix weighs in at its share.
    let span_us = |name: &str| trace::job_mean_us(&spans, name);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let metrics = vec![
        Metric::new("job_tail_ms", stats::tail(&ok(&untraced)).value, "ms"),
        Metric::new("delirium.print_us", span_us("delirium.print"), "us"),
        Metric::new("delirium.parse_us", span_us("delirium.parse"), "us"),
        Metric::new("delirium.text_bytes", mean(&text_bytes), "bytes"),
        Metric::new("runtime.plan_us", span_us("runtime.plan"), "us"),
        Metric::new("runtime.claim_ns_per_task", claims.ns_per_task(), "ns"),
        Metric::new("runtime.kernel_ns_per_task", kernel_time.ns_per_task(), "ns"),
        Metric::new("runtime.seq_ms", seq_ms, "ms"),
        Metric::new("daemon.submit_us", trace::median_us(&spans, "daemon.submit"), "us"),
        Metric::new("daemon.rtt_us", per_job(&rtt), "us"),
        Metric::new("daemon.exec_us", per_job(&|r| r.done.map(|_| r.exec_us)), "us"),
        Metric::new("daemon.tax_us", per_job(&|r| rtt(r).map(|x| x - r.exec_us)), "us"),
        Metric::new("wire.request_encode_us", span_us("wire.request_encode"), "us"),
        Metric::new("wire.response_encode_us", span_us("wire.response_encode"), "us"),
        Metric::new("wire.response_decode_us", span_us("wire.response_decode"), "us"),
        Metric::new("wire.response_bytes", mean(&resp_bytes), "bytes"),
        Metric::new("daemon.sched_us", span_us("daemon.sched"), "us"),
        Metric::new("daemon.jobs_retained", retained as f64, "count"),
        Metric::new("bench.gen_late_ms", untraced_report.late_p99_ms, "ms"),
        Metric::new(
            "bench.trace_overhead_ratio",
            stats::median(&ok(&traced)) / stats::median(&ok(&untraced)),
            "ratio",
        ),
    ];
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    let mut errors = Vec::new();
    for recs in [&untraced, &traced] {
        let (a, f, m) = tally(recs, true);
        attempted += a;
        failed += f;
        mismatched += m;
        errors.extend(errors_of(recs));
    }
    let mut notes = vec![
        format!("traced {} jobs, untraced {} at {REF_RATE} jobs/s", traced.len(), untraced.len()),
        rung_line(&untraced_report),
    ];
    notes.extend(errors);
    Ok((Outcome { correct: mismatched == 0, attempted, failed, metrics, notes }, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_pass_time_sums_latencies_not_schedule_gaps() {
        let t0 = Instant::now();
        let ms = |x: u64| t0 + Duration::from_millis(x);
        // Jobs due 5 ms apart, each done 1 ms after it is due; the last
        // job of the second pass never finishes.
        let recs: Vec<Record> = (0..6)
            .map(|i| Record {
                key: i,
                variant: 0,
                due: ms(5 * i),
                sent: ms(5 * i),
                done: (i != 5).then(|| ms(5 * i + 1)),
                outcome: JobOutcome::Ok,
                exec_us: 0.0,
            })
            .collect();
        let p = pass_times(&recs, 3);
        assert_eq!(p.len(), 1, "a pass with an unfinished job has no time");
        assert!((p[0] - 0.003).abs() < 1e-9, "three jobs of 1 ms: {}", p[0]);
    }
}
