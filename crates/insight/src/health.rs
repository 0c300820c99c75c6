//! Offline health replay: runs the `cde-pulse` SLO engine over a
//! telemetry JSONL trace, as `GET /v1/health` would have judged the run
//! live.
//!
//! The replay folds probe lifecycle events into cumulative
//! [`CounterSample`]s at a fixed bucket cadence and evaluates the
//! multi-window burn rates at every bucket, producing a verdict
//! timeline: when the run degraded, why, and whether it recovered. The
//! same [`SloSpec`] defaults the daemon uses apply, so an offline trace
//! and the live endpoint agree on what "unhealthy" means.

use cde_pulse::{evaluate, CounterSample, HealthStatus, HealthVerdict, SloSpec};
use cde_telemetry::json::{field_str, field_u64};

/// One point on the replayed verdict timeline.
#[derive(Debug)]
pub struct ReplayPoint {
    /// Bucket timestamp, milliseconds from the first event.
    pub at_ms: u64,
    /// The verdict the live endpoint would have served at this instant.
    pub verdict: HealthVerdict,
}

/// The full offline health replay of one trace.
#[derive(Debug, Default)]
pub struct HealthReplay {
    /// Cumulative counter samples, one per elapsed bucket.
    pub samples: Vec<CounterSample>,
    /// Verdicts evaluated at each sample after the first.
    pub timeline: Vec<ReplayPoint>,
}

impl HealthReplay {
    /// The worst status the run ever hit.
    pub fn worst(&self) -> HealthStatus {
        self.timeline
            .iter()
            .map(|p| p.verdict.status)
            .max()
            .unwrap_or(HealthStatus::Ok)
    }

    /// The final verdict — did the run recover?
    pub fn last(&self) -> Option<&ReplayPoint> {
        self.timeline.last()
    }

    /// Renders the timeline as an operator-readable report: one line per
    /// status change plus the worst/final summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health replay: {} sample(s), {} verdict(s)",
            self.samples.len(),
            self.timeline.len()
        );
        let mut previous = None;
        for point in &self.timeline {
            if previous == Some(point.verdict.status) {
                continue;
            }
            previous = Some(point.verdict.status);
            let causes: Vec<String> = point.verdict.causes.iter().map(|c| c.detail()).collect();
            let _ = writeln!(
                out,
                "  t={:>6.1}s  {:<8}  {}",
                point.at_ms as f64 / 1000.0,
                point.verdict.status.as_str(),
                if causes.is_empty() {
                    "-".to_owned()
                } else {
                    causes.join("; ")
                }
            );
        }
        let _ = writeln!(
            out,
            "worst: {}  final: {}",
            self.worst().as_str(),
            self.last()
                .map(|p| p.verdict.status.as_str())
                .unwrap_or("ok")
        );
        out
    }
}

/// Replays `jsonl` through the SLO engine with `bucket_ms` sampling.
///
/// Counter mapping, mirroring the live daemon's sampler: `sent` counts
/// every attempt (`probe_sent` + `probe_retried`), `received` counts
/// `probe_matched`, `strays` counts `reply_dropped`, `shed` sums
/// `events_dropped`, `emitted` counts parsed events, and `in_flight` is
/// probes started minus probes decided — so a burst of not-yet-decided
/// probes does not read as loss.
pub fn replay_health(jsonl: &str, spec: &SloSpec, bucket_ms: u64) -> HealthReplay {
    let bucket_ms = bucket_ms.max(1);
    let mut replay = HealthReplay::default();
    let mut current = CounterSample::default();
    let mut probes_started = 0u64;
    let mut probes_decided = 0u64;
    let mut origin_us: Option<u64> = None;
    let mut next_bucket_ms = bucket_ms;

    for line in jsonl.lines() {
        let (Some(kind), Some(at_us)) = (field_str(line, "kind"), field_u64(line, "at_us")) else {
            continue;
        };
        let at_ms = (at_us - *origin_us.get_or_insert(at_us)) / 1_000;
        while at_ms >= next_bucket_ms {
            current.at_ms = next_bucket_ms;
            current.in_flight = probes_started.saturating_sub(probes_decided);
            replay.samples.push(current);
            next_bucket_ms += bucket_ms;
        }
        current.emitted += 1;
        match kind {
            "probe_sent" => {
                current.sent += 1;
                probes_started += 1;
            }
            "probe_retried" => {
                current.sent += 1;
                current.retries += 1;
            }
            "probe_matched" => {
                current.received += 1;
                probes_decided += 1;
            }
            "probe_timed_out" => {
                current.timeouts += 1;
                probes_decided += 1;
            }
            "reply_dropped" => current.strays += 1,
            "events_dropped" => current.shed += field_u64(line, "count").unwrap_or(0),
            _ => {}
        }
    }
    if origin_us.is_some() {
        current.at_ms = next_bucket_ms;
        current.in_flight = probes_started.saturating_sub(probes_decided);
        replay.samples.push(current);
    }

    for end in 1..replay.samples.len() {
        let window = &replay.samples[..=end];
        replay.timeline.push(ReplayPoint {
            at_ms: window[end].at_ms,
            verdict: evaluate(window, spec, None),
        });
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    // token counts probes, not iterations, and u64::is_multiple_of
    // needs 1.87 (MSRV is 1.81).
    #[allow(clippy::explicit_counter_loop, clippy::manual_is_multiple_of)]
    fn lossy_trace(loss_every: u64) -> String {
        use std::fmt::Write;
        let mut t = String::new();
        // 100 probes/s for 30s; every `loss_every`-th probe times out
        // after a retry, the rest answer in 500us.
        let mut token = 0u64;
        for ms in (0..30_000u64).step_by(10) {
            let at = ms * 1_000;
            let _ = writeln!(
                t,
                "{{\"at_us\": {at}, \"campaign\": 0, \"kind\": \"probe_sent\", \"token\": {token}, \"attempt\": 0}}"
            );
            if loss_every > 0 && token % loss_every == 0 {
                let _ = writeln!(
                    t,
                    "{{\"at_us\": {}, \"campaign\": 0, \"kind\": \"probe_retried\", \"token\": {token}, \"attempt\": 1}}",
                    at + 150_000
                );
                let _ = writeln!(
                    t,
                    "{{\"at_us\": {}, \"campaign\": 0, \"kind\": \"probe_timed_out\", \"token\": {token}, \"attempts\": 2}}",
                    at + 300_000
                );
            } else {
                let _ = writeln!(
                    t,
                    "{{\"at_us\": {}, \"campaign\": 0, \"kind\": \"probe_matched\", \"token\": {token}, \"attempt\": 0, \"rtt_us\": 500}}",
                    at + 500
                );
            }
            token += 1;
        }
        t
    }

    #[test]
    fn clean_trace_replays_ok() {
        let replay = replay_health(&lossy_trace(0), &SloSpec::default(), 1_000);
        assert!(replay.samples.len() >= 29, "{}", replay.samples.len());
        assert_eq!(replay.worst(), HealthStatus::Ok);
        assert!(replay.render_text().contains("worst: ok"));
    }

    #[test]
    fn heavy_loss_replays_degraded_with_loss_cause() {
        // Every 3rd probe lost (plus its retry): ~50% attempt loss.
        let replay = replay_health(&lossy_trace(3), &SloSpec::default(), 1_000);
        assert_eq!(replay.worst(), HealthStatus::Critical);
        let worst = replay
            .timeline
            .iter()
            .find(|p| p.verdict.status == HealthStatus::Critical)
            .expect("critical point");
        assert!(
            worst
                .verdict
                .causes
                .iter()
                .any(|c| c.detail().contains("loss")),
            "{:?}",
            worst.verdict.causes
        );
        assert!(replay.render_text().contains("critical"));
    }

    #[test]
    fn empty_trace_is_ok() {
        let replay = replay_health("", &SloSpec::default(), 1_000);
        assert!(replay.samples.is_empty());
        assert_eq!(replay.worst(), HealthStatus::Ok);
    }
}
