//! Metric records, sample statistics, failure accounting and the one-line
//! JSON result.

use std::fmt::Write as _;

use crate::probe::Timed;

/// The end-to-end metrics every untraced run prints, as named in
/// `BENCHMARK.json`. Times are on the reference host (see `probe`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints, as named in
/// `BENCHMARK.json`. A layer the workload never enters, or one it has no
/// traced driver for, reads 0; every such metric is a count, a rate, a
/// ratio or a share, so each time printed is measured.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.verify_s", "s"),
    ("layer.op_ms", "ms"),
    ("netsim.trace_overhead_pct", "%"),
    ("netsim.setup_pct", "%"),
    ("netsim.sparse_pct", "%"),
    ("netsim.dense_pct", "%"),
    ("core.collect_pct", "%"),
    ("netsim.rounds", "count"),
    ("netsim.sparse_rounds", "count"),
    ("netsim.messages", "count"),
    ("netsim.words", "count"),
    ("netsim.msgs_per_us", "1/us"),
    ("netsim.t2_speedup", "x"),
    ("core.edges_per_node", "edges/node"),
    ("socket.pct", "%"),
    ("session.pct", "%"),
    ("protocol.parse_pct", "%"),
    ("server.exec_pct", "%"),
    ("server.nocache_ratio", "x"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("oracle.bunch_probes_per_query", "probes/query"),
    ("oracle.route_hops_per_route", "hops/route"),
    ("oracle.setup_pct", "%"),
    ("store.setup_pct", "%"),
    ("store.snapshot_bytes", "bytes"),
];

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything a run measured, in the order it was measured, plus free
/// text (e.g. a phase table) printed above the metric table.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: String,
}

impl Report {
    /// Records `name`; a value that is not finite is a bug in the
    /// benchmark, not a measurement.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The end-to-end metrics of a run's timed operations: median, the
    /// given tail (seconds) and operations per second on the reference
    /// host, and, for the table, the wall-time median and the host's
    /// slowness.
    pub fn add_ops(&mut self, ops: &Timed, tail: f64) {
        let n = ops.normalized.len();
        self.add("op_p50_ms", "ms", median(&ops.normalized) * 1e3, n);
        self.add("op_tail_ms", "ms", tail * 1e3, n);
        self.add(
            "ops_per_s",
            "1/s",
            n as f64 / ops.normalized.iter().sum::<f64>(),
            n,
        );
        self.add("op_p50_wall_ms", "ms", median(&ops.raw) * 1e3, n);
        self.add(
            "host.slowness",
            "x",
            median(&ops.slowness),
            ops.slowness.len(),
        );
    }

    pub fn note(&mut self, line: &str) {
        self.notes.push_str(line);
        self.notes.push('\n');
    }

    /// The notes, then the human-readable table: every metric with its
    /// unit and sample count, the `listed` ones (those of the JSON line)
    /// marked with `*`.
    pub fn table(&self, listed: &[(&str, &str)]) -> String {
        let mut out = self.notes.clone();
        let _ = writeln!(
            out,
            "  {:<34} {:>18} {:<12} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let mark = if listed.iter().any(|(n, _)| *n == m.name) {
                '*'
            } else {
                ' '
            };
            let _ = writeln!(
                out,
                "{mark} {:<34} {:>18.6} {:<12} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `listed` metrics. With `zero_fill`, a count, ratio or share the
    /// workload did not record reads 0 (its layer was not entered); a
    /// missing time, or any missing metric without `zero_fill`, is a bug.
    pub fn json_line(&self, listed: &[(&str, &str)], tally: &Tally, zero_fill: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, unit)) in listed.iter().enumerate() {
            let value = match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => {
                    assert_eq!(m.unit, *unit, "unit of {name}");
                    m.value
                }
                None if zero_fill && !matches!(*unit, "s" | "ms") => 0.0,
                None => panic!("metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Operations and checks attempted, and how many failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt (an operation or an output check); `Err` carries
    /// what went wrong.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(len: usize, p: f64) -> usize {
    ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len)
}

/// Whether percentile `p` of `len` samples leaves at least ten samples
/// beyond it, the least a reported tail needs.
pub fn tail_is_reportable(len: usize, p: f64) -> bool {
    len > 0 && len - nearest_rank(len, p) >= 10
}

/// Percentile `p` of `xs`, or `Err` when fewer than ten samples lie
/// beyond it.
pub fn tail(xs: &[f64], p: f64) -> Result<f64, String> {
    if !tail_is_reportable(xs.len(), p) {
        return Err(format!(
            "{} samples leave fewer than ten beyond p{p}",
            xs.len()
        ));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile(&sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../../../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn reported_tail_keeps_ten_samples_beyond_it() {
        assert!(tail_is_reportable(1000, 99.0));
        assert!(!tail_is_reportable(999, 99.0));
        assert!(tail_is_reportable(40, 75.0));
        assert!(!tail_is_reportable(39, 75.0));
        assert!(!tail_is_reportable(0, 50.0));
        for (len, p) in [(40usize, 75.0), (100, 90.0), (1000, 99.0), (123_457, 99.9)] {
            let sorted: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let value = percentile(&sorted, p);
            let beyond = sorted.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "len {len}: p{p} has {beyond} beyond");
        }
    }

    #[test]
    fn operation_metrics_need_a_reportable_tail() {
        let ops = |n: usize| Timed {
            raw: (1..=n).map(|i| i as f64 * 2e-3).collect(),
            normalized: (1..=n).map(|i| i as f64 * 1e-3).collect(),
            slowness: vec![2.0],
        };
        assert!(tail(&ops(39).normalized, 75.0).is_err());
        let forty = ops(40);
        let p75 = tail(&forty.normalized, 75.0).expect("ten beyond p75");
        let mut report = Report::default();
        report.add_ops(&forty, p75);
        let value = |name: &str| {
            let m = report.metrics.iter().find(|m| m.name == name);
            m.expect("recorded").value
        };
        assert_eq!(value("op_p50_ms"), 20.5);
        assert_eq!(value("op_tail_ms"), 30.0);
        assert_eq!(value("op_p50_wall_ms"), 41.0);
        assert_eq!(value("host.slowness"), 2.0);
        assert!((value("ops_per_s") - 40.0 / 0.82).abs() < 1e-9);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }

    #[test]
    fn failed_checks_count_against_attempts() {
        let mut tally = Tally::default();
        for _ in 0..3 {
            tally.record(Ok(()));
        }
        tally.record(Err("reply differs".to_string()));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert_eq!(tally.fail_frac(), 0.25);
        assert_eq!(tally.failures, vec!["reply differs".to_string()]);

        let mut report = Report::default();
        report.add("setup_s", "s", 0.5, 3);
        report.add("op_p50_ms", "ms", 1.25, 10);
        report.add("op_tail_ms", "ms", 2.5, 10);
        report.add("ops_per_s", "1/s", 700.0, 10);
        report.add("peak_rss_mib", "MiB", 12.0, 1);
        let line = report.json_line(END_TO_END, &tally, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));

        let clean = Tally {
            attempted: 2,
            ..Tally::default()
        };
        assert_eq!(clean.fail_frac(), 0.0);
        assert!(report
            .json_line(END_TO_END, &clean, false)
            .starts_with("{\"correct\": true"));
    }

    #[test]
    fn bypassed_layers_read_zero_but_times_must_be_measured() {
        let mut report = Report::default();
        report.add("graph.generate_s", "s", 0.01, 1);
        report.add("graph.verify_s", "s", 0.02, 1);
        let unmeasured_time =
            std::panic::catch_unwind(|| report.json_line(PER_LAYER, &Tally::default(), true));
        assert!(unmeasured_time.is_err(), "layer.op_ms must not read 0");
        report.add("layer.op_ms", "ms", 3.5, 4);
        let line = report.json_line(PER_LAYER, &Tally::default(), true);
        assert!(line.contains("\"cache.hits\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.contains("\"layer.op_ms\": {\"value\": 3.5, \"unit\": \"ms\"}"));
        let missing = std::panic::catch_unwind(|| {
            Report::default().json_line(END_TO_END, &Tally::default(), false)
        });
        assert!(missing.is_err());
    }
}
