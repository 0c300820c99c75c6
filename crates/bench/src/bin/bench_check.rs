//! Bench-regression gate: compares a fresh `BENCH_engine.json` against
//! the committed baseline and fails when the engine regresses.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--max-regress 0.25] [--timing-only]
//! ```
//!
//! Every gated number is a ratio of two runs made in the same process,
//! so machine speed cancels. [`GATES`] holds one row per gated value:
//! the report array (`section`) it lives in, its key, the field that
//! pairs fresh lines with baseline lines, and the [`Rule`] it must meet.
//! A row is active once the committed baseline carries its section; the
//! `wire_floor` section (the reactor's throughput over the raw-socket
//! wire floor) must be present in both reports. The shard-scaling curve
//! has its own gate ([`gate_scaling`]) because it derives per-shard
//! efficiency from the curve rather than reading one key.
//! `--timing-only` runs just the `timing` rows (the dedicated CI lane).
//! Exit codes: 0 pass, 1 regression found, 2 unreadable/unparseable input.
//!
//! `engine_bench` writes one object per line; fields are read with
//! `cde-telemetry`'s flat-object reader.

use cde_telemetry::json::field_f64;
use std::process::ExitCode;

/// What a gated value must satisfy against its baseline.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Higher is better: at most `max_regress` below the baseline.
    Floor,
    /// Lower is better: at most `2 × max_regress` above the baseline (a
    /// timing ratio compounds two wall-clock measurements, so it gets
    /// double the throughput allowance), and never above
    /// [`MAX_TIMING_RATIO`] whatever the baseline says.
    Ceiling,
    /// A 0/1 flag that must read 1 — a faster wrong count is a failure,
    /// not a win.
    Exact,
}

/// One gated value of the report.
#[derive(Debug)]
struct Gate {
    /// The JSON array the value's lines live in.
    section: &'static str,
    /// The gated field.
    key: &'static str,
    /// The field pairing a fresh line with its baseline line.
    by: &'static str,
    rule: Rule,
}

const fn gate(section: &'static str, key: &'static str, by: &'static str, rule: Rule) -> Gate {
    Gate {
        section,
        key,
        by,
        rule,
    }
}

/// Every single-key gate. Throughput ratios pair lines by probe count;
/// the time-to-exact-count recipe pairs them by seed.
const GATES: &[Gate] = &[
    gate("wire_floor", "reactor_vs_wire_floor", "probes", Rule::Floor),
    gate("insight", "digests_on_vs_off", "probes", Rule::Floor),
    gate("pulse", "pulse_on_vs_off", "probes", Rule::Floor),
    gate("flight", "flight_on_vs_off", "probes", Rule::Floor),
    gate("timing", "exact", "seed", Rule::Exact),
    gate("timing", "adaptive_vs_static_time", "seed", Rule::Ceiling),
    gate(
        "timing",
        "adaptive_vs_static_retransmits",
        "seed",
        Rule::Ceiling,
    ),
];

/// Hard upper bound on both timing ratios: whatever the baseline says,
/// the adaptive loop must stay measurably cheaper than the static plan.
const MAX_TIMING_RATIO: f64 = 0.95;

/// The lines of the report array `"name": [ … ]` (empty if absent or
/// written inline as `[]`).
fn section<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let open = format!("\"{name}\": [");
    let mut lines = json.lines();
    match lines.find(|line| line.contains(&open)) {
        Some(line) if line.trim_end().ends_with('[') => lines
            .take_while(|line| !line.trim_start().starts_with(']'))
            .collect(),
        _ => Vec::new(),
    }
}

/// `(by, key)` pairs of one section, e.g. `(probes, ratio)`.
fn pairs(json: &str, section_name: &str, by: &str, key: &str) -> Vec<(u64, f64)> {
    section(json, section_name)
        .into_iter()
        .filter_map(|line| Some((field_f64(line, by)? as u64, field_f64(line, key)?)))
        .collect()
}

/// Holds the fresh values of one gate against the baseline's; prints a
/// verdict per line and returns whether any failed (or went missing).
fn check(gate: &Gate, base: &[(u64, f64)], fresh: &[(u64, f64)], max_regress: f64) -> bool {
    let mut failed = false;
    for &(at, was) in base {
        let what = format!("{} {} {at}: {}", gate.section, gate.by, gate.key);
        let Some(&(_, now)) = fresh.iter().find(|(f, _)| *f == at) else {
            eprintln!("FAIL {what}: in the baseline but missing from the fresh run");
            failed = true;
            continue;
        };
        let (ok, bound) = match gate.rule {
            Rule::Floor => {
                let floor = was * (1.0 - max_regress);
                (
                    now >= floor,
                    format!("floor {floor:.2} at -{:.0}%", max_regress * 100.0),
                )
            }
            Rule::Ceiling => {
                let ceiling = (was * (1.0 + 2.0 * max_regress)).min(MAX_TIMING_RATIO);
                (now <= ceiling, format!("ceiling {ceiling:.2}"))
            }
            Rule::Exact => (now == 1.0, "must be 1".to_string()),
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        eprintln!("{verdict} {what} {now:.2} vs baseline {was:.2} ({bound})");
        failed |= !ok;
    }
    failed
}

/// The core count `engine_bench` detected when it wrote the report.
fn detected_parallelism(json: &str) -> Option<u64> {
    json.lines()
        .find_map(|line| field_f64(line, "available_parallelism"))
        .map(|v| v as u64)
}

/// Shard-scaling gates, active once the committed baseline carries a
/// `"scaling"` curve:
///
/// * on a host with ≥ 2 cores, the fresh 2-shard run must reach at
///   least 1.6× the fresh single-shard run (compared within one report,
///   so machine speed cancels; single-core hosts skip this — there is
///   no parallelism for a second shard to claim);
/// * per-shard *efficiency* — per-shard throughput over the same
///   report's single-shard throughput — must not fall more than 10%
///   below the baseline's efficiency at the same shard count.
fn gate_scaling(baseline: &str, fresh: &str) -> bool {
    const MIN_TWO_SHARD_SPEEDUP: f64 = 1.6;
    const MAX_EFFICIENCY_REGRESS: f64 = 0.10;
    let base = pairs(baseline, "scaling", "shards", "probes_per_sec");
    if base.is_empty() {
        return false; // pre-sharding baseline: the scaling gates are off
    }
    let new = pairs(fresh, "scaling", "shards", "probes_per_sec");
    let single = |curve: &[(u64, f64)]| curve.iter().find(|(s, _)| *s == 1).map(|(_, p)| *p);
    let (Some(new_single), Some(base_single)) = (single(&new), single(&base)) else {
        eprintln!("FAIL scaling: baseline has a shard curve but fresh run lacks one");
        return true;
    };
    let mut failed = false;

    let cores = detected_parallelism(fresh).unwrap_or(1);
    if cores >= 2 {
        if let Some((_, two)) = new.iter().find(|(s, _)| *s == 2) {
            let need = new_single * MIN_TWO_SHARD_SPEEDUP;
            let verdict = if *two < need { "FAIL" } else { "ok  " };
            eprintln!(
                "{verdict} scaling: 2 shards {two:.0} probes/s vs 1 shard {new_single:.0} \
                 (need {MIN_TWO_SHARD_SPEEDUP}x = {need:.0} on a {cores}-core host)"
            );
            failed |= *two < need;
        } else {
            eprintln!("FAIL scaling: fresh curve has no 2-shard run");
            failed = true;
        }
    } else {
        eprintln!("ok   scaling: single-core host, the 2-shard speedup gate is skipped");
    }

    for (shards, base_pps) in &base {
        let Some((_, new_pps)) = new.iter().find(|(s, _)| s == shards) else {
            eprintln!("FAIL scaling: baseline has {shards} shard(s) but fresh run lacks it");
            failed = true;
            continue;
        };
        let base_eff = (base_pps / *shards as f64) / base_single;
        let new_eff = (new_pps / *shards as f64) / new_single;
        let floor = base_eff * (1.0 - MAX_EFFICIENCY_REGRESS);
        let verdict = if new_eff < floor { "FAIL" } else { "ok  " };
        eprintln!(
            "{verdict} scaling: {shards} shard(s) per-shard efficiency {new_eff:.2} vs \
             baseline {base_eff:.2} (floor {floor:.2} at -{:.0}%)",
            MAX_EFFICIENCY_REGRESS * 100.0
        );
        failed |= new_eff < floor;
    }
    failed
}

/// Runs every active gate (only the `timing` rows with `timing_only`);
/// returns whether any failed.
fn run_gates(baseline: &str, fresh: &str, max_regress: f64, timing_only: bool) -> bool {
    let mut failed = false;
    for gate in GATES
        .iter()
        .filter(|g| !timing_only || g.section == "timing")
    {
        let base = pairs(baseline, gate.section, gate.by, gate.key);
        if !base.is_empty() {
            let new = pairs(fresh, gate.section, gate.by, gate.key);
            failed |= check(gate, &base, &new, max_regress);
        }
    }
    if !timing_only {
        failed |= gate_scaling(baseline, fresh);
    }
    failed
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_check <baseline.json> <fresh.json> [--max-regress 0.25] [--timing-only]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress = 0.25f64;
    let mut timing_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-regress" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                max_regress = v;
            }
            "--timing-only" => timing_only = true,
            _ => paths.push(arg),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return usage();
    };
    if !(0.0..1.0).contains(&max_regress) {
        eprintln!("--max-regress must be in [0, 1), got {max_regress}");
        return ExitCode::from(2);
    }

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(err) => {
            eprintln!("bench_check: cannot read {path}: {err}");
            None
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::from(2);
    };

    // The section the requested pass cannot run without. Unlike the
    // baseline-activated rows, a missing one is an input error, not a
    // silent pass.
    let required = if timing_only { "timing" } else { "wire_floor" };
    for (path, json) in [(baseline_path, &baseline), (fresh_path, &fresh)] {
        if section(json, required).is_empty() {
            eprintln!("bench_check: {path} has no {required} lines");
            return ExitCode::from(2);
        }
    }

    if run_gates(&baseline, &fresh, max_regress, timing_only) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "seed": 11,
  "available_parallelism": 4,
  "runs": [
    {"backend": "wire_floor", "probes": 1000, "probes_per_sec": 120000.0, "latency_p50_us": 90},
    {"backend": "reactor", "probes": 1000, "probes_per_sec": 75976.2, "latency_p50_us": 690},
    {"backend": "wire_floor", "probes": 10000, "probes_per_sec": 130000.0, "latency_p50_us": 95},
    {"backend": "reactor", "probes": 10000, "probes_per_sec": 79818.3, "latency_p50_us": 839},
    {"backend": "reactor_insight", "probes": 10000, "probes_per_sec": 77424.1, "latency_p50_us": 845}
  ],
  "wire_floor": [
    {"probes": 1000, "reactor_vs_wire_floor": 0.63, "pairs": 5, "lowest": 0.55, "highest": 0.70},
    {"probes": 10000, "reactor_vs_wire_floor": 0.61, "pairs": 5, "lowest": 0.58, "highest": 0.66}
  ],
  "insight": [
    {"probes": 10000, "digests_on_vs_off": 0.97}
  ],
  "pulse": [
    {"probes": 10000, "pulse_on_vs_off": 0.98}
  ],
  "flight": [
    {"probes": 10000, "flight_on_vs_off": 0.97}
  ],
  "scaling": [
    {"shards": 1, "probes": 10000, "probes_per_sec": 80000.0, "per_shard_probes_per_sec": 80000.0},
    {"shards": 2, "probes": 10000, "probes_per_sec": 150000.0, "per_shard_probes_per_sec": 75000.0},
    {"shards": 4, "probes": 10000, "probes_per_sec": 260000.0, "per_shard_probes_per_sec": 65000.0}
  ],
  "timing": [
    {"seed": 17, "caches": 5, "static_elapsed_s": 6.5000, "static_retransmits": 66, "static_spent": 155, "adaptive_elapsed_s": 1.3000, "adaptive_retransmits": 24, "adaptive_spent": 52, "adaptive_vs_static_time": 0.20, "adaptive_vs_static_retransmits": 0.36, "exact": 1}
  ]
}"#;

    /// A report with no gated sections at all.
    const EMPTY: &str = r#"{"wire_floor": []}"#;

    fn row(section: &str, key: &str) -> &'static Gate {
        GATES
            .iter()
            .find(|g| g.section == section && g.key == key)
            .expect("gate row")
    }

    fn values(json: &str, gate: &Gate) -> Vec<(u64, f64)> {
        pairs(json, gate.section, gate.by, gate.key)
    }

    #[test]
    fn every_row_reads_its_own_section() {
        let expect = [
            (
                "wire_floor",
                "reactor_vs_wire_floor",
                vec![(1000, 0.63), (10000, 0.61)],
            ),
            ("insight", "digests_on_vs_off", vec![(10000, 0.97)]),
            ("pulse", "pulse_on_vs_off", vec![(10000, 0.98)]),
            ("flight", "flight_on_vs_off", vec![(10000, 0.97)]),
            ("timing", "exact", vec![(17, 1.0)]),
            ("timing", "adaptive_vs_static_time", vec![(17, 0.20)]),
            ("timing", "adaptive_vs_static_retransmits", vec![(17, 0.36)]),
        ];
        assert_eq!(expect.len(), GATES.len(), "one expectation per row");
        for (section_name, key, want) in expect {
            let gate = row(section_name, key);
            assert_eq!(values(REPORT, gate), want, "{section_name}.{key}");
            assert!(values(EMPTY, gate).is_empty(), "{section_name}.{key}");
        }
    }

    /// `probes_per_sec` appears in `runs` and `scaling`, `seed` at the
    /// top level and in `timing`: sections keep them apart.
    #[test]
    fn sections_do_not_leak_into_each_other() {
        assert_eq!(
            pairs(REPORT, "scaling", "shards", "probes_per_sec"),
            vec![(1, 80000.0), (2, 150000.0), (4, 260000.0)]
        );
        assert_eq!(section(REPORT, "timing").len(), 1);
        assert_eq!(section(REPORT, "runs").len(), 5);
        assert!(section(REPORT, "speedup").is_empty());
        assert!(section(r#"{"insight": []}"#, "insight").is_empty());
        assert_eq!(detected_parallelism(REPORT), Some(4));
    }

    #[test]
    fn identical_reports_pass_every_gate() {
        assert!(!run_gates(REPORT, REPORT, 0.25, false));
        assert!(!run_gates(REPORT, REPORT, 0.25, true));
    }

    #[test]
    fn rows_are_off_without_a_baseline_section() {
        assert!(!run_gates(EMPTY, REPORT, 0.25, false));
    }

    /// Each throughput ratio fails once it drops past the floor, and
    /// only that row fails.
    #[test]
    fn floor_rows_fail_past_max_regress() {
        for (was, regressed) in [
            (
                "\"reactor_vs_wire_floor\": 0.61",
                "\"reactor_vs_wire_floor\": 0.45",
            ),
            ("\"digests_on_vs_off\": 0.97", "\"digests_on_vs_off\": 0.70"),
            ("\"pulse_on_vs_off\": 0.98", "\"pulse_on_vs_off\": 0.60"),
            ("\"flight_on_vs_off\": 0.97", "\"flight_on_vs_off\": 0.50"),
        ] {
            let fresh = REPORT.replace(was, regressed);
            assert!(run_gates(REPORT, &fresh, 0.25, false), "{regressed}");
            let key = was.split('"').nth(1).unwrap();
            let gate = GATES.iter().find(|g| g.key == key).unwrap();
            assert!(check(
                gate,
                &values(REPORT, gate),
                &values(&fresh, gate),
                0.25
            ));
        }
        // The same ratio within the allowance passes.
        let drifted = REPORT.replace(
            "\"reactor_vs_wire_floor\": 0.61",
            "\"reactor_vs_wire_floor\": 0.50",
        );
        assert!(!run_gates(REPORT, &drifted, 0.25, false));
    }

    #[test]
    fn floor_rows_fail_when_the_fresh_run_drops_a_line() {
        let fresh = REPORT.replace(
            "\"probes\": 1000, \"reactor_vs_wire_floor\"",
            "\"probes\": 1000, \"x\"",
        );
        assert!(run_gates(REPORT, &fresh, 0.25, false));
    }

    #[test]
    fn scaling_gate_passes_on_identical_reports() {
        assert!(!gate_scaling(REPORT, REPORT));
    }

    #[test]
    fn scaling_gate_is_off_without_a_baseline_curve() {
        assert!(!gate_scaling(EMPTY, REPORT));
    }

    #[test]
    fn scaling_gate_fails_when_two_shards_stop_scaling() {
        // 2 shards at 1.1x single-shard on a 4-core host: below 1.6x.
        let fresh = REPORT.replace(
            "\"shards\": 2, \"probes\": 10000, \"probes_per_sec\": 150000.0",
            "\"shards\": 2, \"probes\": 10000, \"probes_per_sec\": 88000.0",
        );
        assert!(gate_scaling(REPORT, &fresh));
    }

    #[test]
    fn scaling_gate_skips_speedup_but_keeps_efficiency_on_one_core() {
        let single_core = REPORT.replace(
            "\"available_parallelism\": 4",
            "\"available_parallelism\": 1",
        );
        // Same curve: efficiency unchanged, speedup gate skipped — pass.
        assert!(!gate_scaling(REPORT, &single_core));
        // Collapsed 4-shard throughput: efficiency regresses past 10%
        // even though the speedup gate is off.
        let regressed = single_core.replace(
            "\"shards\": 4, \"probes\": 10000, \"probes_per_sec\": 260000.0",
            "\"shards\": 4, \"probes\": 10000, \"probes_per_sec\": 200000.0",
        );
        assert!(gate_scaling(REPORT, &regressed));
    }

    #[test]
    fn scaling_gate_fails_when_fresh_run_drops_the_curve() {
        assert!(gate_scaling(REPORT, EMPTY));
    }

    #[test]
    fn timing_gate_fails_when_a_run_misses_the_count() {
        let inexact = REPORT.replace("\"exact\": 1", "\"exact\": 0");
        assert!(run_gates(REPORT, &inexact, 0.25, true));
    }

    #[test]
    fn timing_gate_fails_when_adaptive_stops_beating_static() {
        // Even with an absurdly lax regression allowance, the hard
        // MAX_TIMING_RATIO ceiling keeps adaptive >= static a failure.
        let slow = REPORT.replace(
            "\"adaptive_vs_static_time\": 0.20",
            "\"adaptive_vs_static_time\": 0.97",
        );
        assert!(run_gates(REPORT, &slow, 10.0, true));
    }

    #[test]
    fn timing_gate_fails_on_ratio_regression() {
        // Baseline 0.20, allowance 2 x 25% -> ceiling 0.30; 0.36 fails.
        let regressed = REPORT.replace(
            "\"adaptive_vs_static_time\": 0.20",
            "\"adaptive_vs_static_time\": 0.36",
        );
        assert!(run_gates(REPORT, &regressed, 0.25, true));
        // The same drift within the allowance passes.
        let drifted = REPORT.replace(
            "\"adaptive_vs_static_time\": 0.20",
            "\"adaptive_vs_static_time\": 0.28",
        );
        assert!(!run_gates(REPORT, &drifted, 0.25, true));
    }

    #[test]
    fn timing_gate_fails_when_fresh_run_drops_the_line() {
        let fresh = REPORT.replace("\"seed\": 17", "\"seed\": 18");
        assert!(run_gates(REPORT, &fresh, 0.25, true));
    }

    /// `--timing-only` holds the timing rows alone: a regressed
    /// throughput ratio does not fail the timing lane.
    #[test]
    fn timing_only_ignores_the_throughput_rows() {
        let fresh = REPORT.replace(
            "\"reactor_vs_wire_floor\": 0.61",
            "\"reactor_vs_wire_floor\": 0.10",
        );
        assert!(!run_gates(REPORT, &fresh, 0.25, true));
        assert!(run_gates(REPORT, &fresh, 0.25, false));
    }
}
