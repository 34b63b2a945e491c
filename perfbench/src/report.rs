//! The benchmark's output: a human-readable table, then one JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No output differed from its reference by any bit.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that errored, were refused, missed the limit or differed.
    pub failed: usize,
    /// Measurements, by name.
    pub metrics: Vec<Metric>,
    /// Lines printed above the result (percentile choices, rungs,
    /// errors).
    pub notes: Vec<String>,
}

/// Every end-to-end metric: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_p50_ms", "ms"),
    ("max_rate_jobs_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric: (name, unit). A workload that does not
/// exercise a layer reports 0 for it. `job_tail_ms` is an end-to-end
/// number, measured on the traced run's untraced half; it is reported
/// here, without a regression bound, because its run-to-run spread on
/// a shared 2-core host is wider than any bound the benchmark may set.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("job_tail_ms", "ms"),
    ("lang.parse_us", "us"),
    ("lang.check_us", "us"),
    ("analysis.analyze_us", "us"),
    ("split.transform_us", "us"),
    ("core.graph_us", "us"),
    ("delirium.print_us", "us"),
    ("delirium.parse_us", "us"),
    ("delirium.text_bytes", "bytes"),
    ("runtime.plan_us", "us"),
    ("runtime.call_overhead_us", "us"),
    ("runtime.claim_ns_per_task", "ns"),
    ("runtime.chunks", "count"),
    ("runtime.tasks_per_chunk", "count"),
    ("runtime.streamed_inputs", "count"),
    ("runtime.watermark_pubs", "count"),
    ("runtime.kernel_ns_per_task", "ns"),
    ("runtime.seq_ms", "ms"),
    ("runtime.efficiency", "ratio"),
    ("runtime.busy_ratio", "ratio"),
    ("runtime.steals", "count"),
    ("runtime.exec_ratio", "ratio"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.attempts", "count"),
    ("checkpoint.overhead_ratio", "ratio"),
    ("daemon.submit_us", "us"),
    ("daemon.rtt_us", "us"),
    ("daemon.exec_us", "us"),
    ("daemon.tax_us", "us"),
    ("wire.request_encode_us", "us"),
    ("wire.response_encode_us", "us"),
    ("wire.response_decode_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("daemon.sched_us", "us"),
    ("daemon.jobs_retained", "count"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("self.compile_ms", "ms"),
    ("self.runtime_ms", "ms"),
    ("self.daemon_ms", "ms"),
    ("self.check_ms", "ms"),
    ("self.bench_ms", "ms"),
];

/// Lays `metrics` out in the declared order of `declared`, filling in
/// 0 for any the run did not measure.
///
/// # Panics
///
/// Panics if a metric is not declared or has the wrong unit: that is a
/// bug in the benchmark, not in the program under test.
pub fn conform(metrics: &[Metric], declared: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for m in metrics {
        let d = declared.iter().find(|d| d.0 == m.name);
        assert_eq!(d.map(|d| d.1), Some(m.unit), "undeclared metric {} [{}]", m.name, m.unit);
    }
    declared
        .iter()
        .map(|&(name, unit)| {
            metrics.iter().find(|m| m.name == name).cloned().unwrap_or(Metric::new(name, 0.0, unit))
        })
        .collect()
}

/// The human-readable `fail_ratio` line.
pub fn fail_line(failed: usize, attempted: usize) -> String {
    let ratio = if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 };
    format!("fail_ratio = {ratio} ({failed} of {attempted})")
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The human-readable lines and, last, the JSON result line.
pub fn render(workload: &str, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "workload {workload}");
    for n in &out.notes {
        let _ = writeln!(s, "  {n}");
    }
    for m in &out.metrics {
        let _ = writeln!(s, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|e| {
                    let field = |f: &str| {
                        let i = e.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        e[i..i + e[i..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn conform_fills_unmeasured_with_zero_in_declared_order() {
        let got = conform(&[Metric::new("pass_s", 1.5, "s")], &END_TO_END);
        assert_eq!(got.len(), END_TO_END.len());
        assert_eq!(got[0], Metric::new("setup_s", 0.0, "s"));
        assert_eq!(got[1], Metric::new("pass_s", 1.5, "s"));
    }

    #[test]
    fn json_line_is_last_and_complete() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: vec!["note".into()],
        };
        let s = render("apps", &out);
        let last = s.lines().last().expect("a line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
