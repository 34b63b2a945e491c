//! Open-loop accounting: jobs are due on a fixed schedule whatever the
//! system does, so latency is counted from the due time, the
//! generator's own lateness is recorded, and a rung of fixed rate
//! holds only if its tail meets the limit without a growing backlog.

use crate::stats;

/// How one attempted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed with outputs bitwise equal to the reference.
    Ok,
    /// Completed, but some output differs from the reference.
    Mismatch(String),
    /// The daemon or transport reported an error.
    Error(String),
    /// Admission control refused the job.
    Refused(String),
}

/// One open-loop job, times in seconds from the rung's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// When the schedule made the job due.
    pub due: f64,
    /// When the generator actually began sending it.
    pub sent: f64,
    /// When its result arrived (`None`: never).
    pub done: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Obs {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }

    /// How late the generator sent it, ms.
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }

    /// Whether the job counts against `fail_ratio`: it errored, was
    /// refused, differed by a bit, never finished, or missed the
    /// latency limit.
    pub fn failed(&self, limit_ms: f64) -> bool {
        match self.outcome {
            Outcome::Ok => self.latency_ms().is_none_or(|l| l > limit_ms),
            _ => true,
        }
    }
}

/// Due times of `n` jobs at `rate` jobs/s, starting at `t0` seconds.
pub fn schedule(rate: f64, n: usize, t0: f64) -> Vec<f64> {
    (0..n).map(|i| t0 + i as f64 / rate).collect()
}

/// Jobs sent but not finished at each job's due time.
pub fn outstanding(obs: &[Obs]) -> Vec<usize> {
    obs.iter()
        .map(|o| {
            obs.iter()
                .filter(|p| p.due <= o.due && p.done.is_none_or(|d| d > o.due))
                .count()
                .saturating_sub(1)
        })
        .collect()
}

/// A backlog grows when the median number of jobs outstanding over the
/// last third of a rung exceeds twice that of the first third by more
/// than a few jobs. Medians, so that one stall's spike is not growth.
pub fn backlog_growing(obs: &[Obs]) -> bool {
    const SLACK: f64 = 8.0;
    let q: Vec<f64> = outstanding(obs).into_iter().map(|x| x as f64).collect();
    let third = q.len() / 3;
    if third == 0 {
        return q.last().is_some_and(|&x| x > SLACK);
    }
    let (first, last) = (stats::median(&q[..third]), stats::median(&q[q.len() - third..]));
    last > 2.0 * first + SLACK
}

/// What one rung showed.
#[derive(Debug, Clone, PartialEq)]
pub struct RungReport {
    /// Offered rate, jobs/s.
    pub rate: f64,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs failed (see [`Obs::failed`]).
    pub failed: usize,
    /// Completions per second between the first due time and the last
    /// completion.
    pub achieved: f64,
    /// Tail latency from the due time, ms.
    pub tail: stats::Tail,
    /// Median latency from the due time, ms.
    pub p50_ms: f64,
    /// Whether outstanding work grew across the rung.
    pub growing: bool,
    /// 99th-percentile generator lateness, ms.
    pub late_p99_ms: f64,
    /// Whether the rung meets the limit: tail under it, no growing
    /// backlog, no errors, refusals or mismatches.
    pub holds: bool,
}

/// Summarizes a rung against the latency limit.
pub fn judge(rate: f64, obs: &[Obs], limit_ms: f64) -> RungReport {
    let lat: Vec<f64> = obs.iter().filter_map(Obs::latency_ms).collect();
    let tail = stats::tail(&lat);
    let growing = backlog_growing(obs);
    let broken = obs.iter().any(|o| o.outcome != Outcome::Ok || o.done.is_none());
    let first = obs.iter().map(|o| o.due).fold(f64::INFINITY, f64::min);
    let last = obs.iter().filter_map(|o| o.done).fold(f64::NEG_INFINITY, f64::max);
    let done = obs.iter().filter(|o| o.done.is_some()).count();
    let achieved = if last > first { done as f64 / (last - first) } else { 0.0 };
    let late: Vec<f64> = obs.iter().map(Obs::late_ms).collect();
    RungReport {
        rate,
        attempted: obs.len(),
        failed: obs.iter().filter(|o| o.failed(limit_ms)).count(),
        achieved,
        tail,
        p50_ms: stats::median(&lat),
        growing,
        late_p99_ms: if late.is_empty() { 0.0 } else { stats::percentile(&late, 99.0) },
        holds: !broken && !growing && tail.value <= limit_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single FIFO server with a fixed service time, fed on schedule.
    fn simulate(rate: f64, n: usize, service: f64, late: f64) -> Vec<Obs> {
        let mut free = 0.0f64;
        schedule(rate, n, 0.0)
            .into_iter()
            .map(|due| {
                let sent = due + late;
                free = free.max(sent) + service;
                Obs { due, sent, done: Some(free), outcome: Outcome::Ok }
            })
            .collect()
    }

    #[test]
    fn schedule_is_fixed_by_rate() {
        assert_eq!(schedule(4.0, 3, 1.0), vec![1.0, 1.25, 1.5]);
    }

    #[test]
    fn latency_counts_from_due_and_lateness_is_recorded() {
        // The generator sends 5 ms late; the job takes 2 ms.
        let obs = simulate(10.0, 30, 0.002, 0.005);
        assert!((obs[0].latency_ms().unwrap() - 7.0).abs() < 1e-9);
        assert!((obs[0].late_ms() - 5.0).abs() < 1e-9);
        let r = judge(10.0, &obs, 50.0);
        assert!((r.late_p99_ms - 5.0).abs() < 1e-9);
        assert!((r.p50_ms - 7.0).abs() < 1e-9);
        assert!(r.holds);
    }

    #[test]
    fn stable_load_has_no_growing_backlog() {
        let obs = simulate(100.0, 300, 0.005, 0.0);
        assert!(!backlog_growing(&obs));
        assert!(judge(100.0, &obs, 20.0).holds);
    }

    #[test]
    fn one_stall_is_not_a_growing_backlog() {
        // A 50 ms stall two thirds of the way in queues 25 jobs behind
        // it, which then drain.
        let mut obs = simulate(500.0, 900, 0.001, 0.0);
        for o in &mut obs[600..625] {
            o.done = Some(1.25);
        }
        assert!(!backlog_growing(&obs));
    }

    #[test]
    fn overload_grows_the_backlog_and_fails_the_rung() {
        // 100 jobs/s against a 20 ms server: it completes 50/s.
        let obs = simulate(100.0, 300, 0.02, 0.0);
        assert!(backlog_growing(&obs));
        let r = judge(100.0, &obs, 1e9);
        assert!(!r.holds, "a growing backlog fails even a lax limit");
        assert!((r.achieved - 50.0).abs() < 1.0, "achieved {}", r.achieved);
    }

    #[test]
    fn tail_over_limit_fails_the_rung_and_counts_misses() {
        let obs = simulate(10.0, 40, 0.030, 0.0);
        let r = judge(10.0, &obs, 20.0);
        assert!(!r.growing);
        assert!(!r.holds);
        assert_eq!(r.failed, 40, "every job missed the 20 ms limit");
    }

    #[test]
    fn refusal_counts_as_failure() {
        let mut obs = simulate(10.0, 30, 0.001, 0.0);
        obs[3].outcome = Outcome::Refused("daemon task budget exhausted".into());
        obs[3].done = None;
        let r = judge(10.0, &obs, 50.0);
        assert_eq!(r.failed, 1);
        assert!(!r.holds);
        assert!(obs[3].failed(50.0));
        let mut err = obs[4].clone();
        err.outcome = Outcome::Error("transport".into());
        assert!(err.failed(50.0));
        err.outcome = Outcome::Mismatch("op 0 task 1".into());
        assert!(err.failed(50.0));
    }
}
