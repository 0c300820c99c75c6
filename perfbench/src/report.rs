//! Metric names, units and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("probes_per_s", "1/s"),
    ("cpu_us_per_probe", "us"),
    ("rtt_p50_us", "us"),
    ("rtt_tail_us", "us"),
    ("tte_p50_ms", "ms"),
    ("tte_tail_ms", "ms"),
    ("queries_to_exact", "count"),
    ("campaigns_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not run reads 0 and is listed as not applicable on
/// the run's detail line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dns.encode_ns", "ns"),
    ("dns.decode_ns", "ns"),
    ("dns.peek_ns", "ns"),
    ("sysio.datagrams_per_batch", "count"),
    ("reactor.submit_ns_p50", "ns"),
    ("reactor.shard_cpu_us_per_probe", "us"),
    ("reactor.busy_frac", "ratio"),
    ("reactor.parks_per_probe", "count"),
    ("reactor.wake_latency_us", "us"),
    ("reactor.ring_depth_peak", "count"),
    ("reactor.wheel_pending_peak", "count"),
    ("reactor.phase.timers_ns", "ns"),
    ("reactor.phase.encode_ns", "ns"),
    ("reactor.phase.send_batch_ns", "ns"),
    ("reactor.phase.recv_batch_ns", "ns"),
    ("reactor.phase.decode_ns", "ns"),
    ("reactor.phase.correlate_ns", "ns"),
    ("reactor.added_rtt_us", "us"),
    ("reactor.rtt_p99_us", "us"),
    ("serving.cpu_us_per_probe", "us"),
    ("serving.floor_rtt_us", "us"),
    ("serving.upstream_per_campaign", "count"),
    ("rto.retransmits_per_campaign", "count"),
    ("rto.srtt_us", "us"),
    ("rto.rto_ms", "ms"),
    ("rto.backoffs", "count"),
    ("rto.useful_ratio", "ratio"),
    ("faults.query_dropped", "count"),
    ("core.self_ms_per_campaign", "ms"),
    ("core.planner_probes", "count"),
    ("core.undercount_frac", "ratio"),
    ("obs.events_per_probe", "count"),
    ("obs.events_dropped", "count"),
    ("obs.flight_shed", "count"),
    ("obs.drain_us_per_probe", "us"),
    ("obs.cost_us_per_probe", "us"),
    ("ledger.load_cpu_us_per_probe", "us"),
    ("ledger.other_cpu_us_per_probe", "us"),
    ("harness.gen_lag_ms", "ms"),
    ("harness.tracing_overhead_frac", "ratio"),
    ("harness.fail_frac", "ratio"),
];

/// What one run found: checks attempted and failed, metric values and
/// free-form detail fields for the line before the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    details: Vec<(String, String)>,
}

impl Report {
    /// Counts one correctness check; a failure is also logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets `setup_s` to the median of the run's set-ups and lists them
    /// all on the detail line.
    pub fn set_setups(&mut self, setups_s: &[f64]) {
        self.set("setup_s", crate::stats::median(setups_s));
        let all: Vec<String> = setups_s.iter().map(|s| format!("{s:.4}")).collect();
        self.detail("setups_s", format!("[{}]", all.join(", ")));
    }

    /// Adds a `"key": <json>` field to the detail line.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_owned(), json));
    }

    /// Fraction of attempted checks that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The detail line: seed, counts and every extra field.
    pub fn detail_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"fail_frac\": {}",
            u8::from(trace),
            self.attempted,
            self.failed,
            self.fail_frac()
        );
        for (k, v) in &self.details {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push('}');
        out
    }

    /// The result line: every metric of `set`, in table order. A metric
    /// the run did not produce, or produced as a non-finite number,
    /// reads 0; for an end-to-end metric that is a failed check.
    pub fn result_line(&mut self, set: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in set {
            let value = self.values.get(name).copied().filter(|v| v.is_finite());
            if value.is_none() && set == END_TO_END {
                self.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names of `set` this run left unmeasured.
    pub fn missing(&self, set: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        set.iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }
}

/// Renders a list of names as a JSON array.
pub fn json_names(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// `"name": "<value>"` pairs of one JSON array section of
    /// BENCHMARK.json, in order (the file is flat enough to scan).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry
                        .find(&format!("\"{f}\""))
                        .map(|i| &entry[i + f.len() + 2..])?;
                    let at = &at[at.find('"')? + 1..];
                    Some(at[..at.find('"')?].to_owned())
                };
                (field("name").expect("name"), field("unit").expect("unit"))
            })
            .collect()
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let owned = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_and_flags_gaps() {
        let mut r = Report::default();
        r.check(true, String::new);
        for (name, _) in END_TO_END.iter().skip(1) {
            r.set(name, 1.5);
        }
        let line = r.result_line(END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        // setup_s was never set: a failed check, and the result says so.
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(r.missing(END_TO_END), vec!["setup_s"]);
    }
}
