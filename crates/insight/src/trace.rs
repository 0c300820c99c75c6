//! Offline analysis of telemetry JSONL traces.
//!
//! [`analyze`] reconstructs campaign spans and per-probe lifecycles
//! from the flat event stream `cde-telemetry` exports, then derives
//! the artifacts the `cde-analyze` binary renders: per-campaign
//! waterfalls, RTT percentile tables, health scorecards, and the
//! cached/uncached mode split that reproduces the live timing side
//! channel from the recorded trace alone.
//!
//! Probe lifecycle events are emitted by the engine with `campaign: 0`
//! (the engine does not know which span a probe serves); the analyzer
//! re-attributes them by timestamp to the innermost campaign span open
//! at that instant — exact for the sequential campaigns the toolkit
//! runs, and conservative (events stay unattributed) outside any span.
//!
//! Fields are read with `cde-telemetry`'s flat-object reader
//! ([`cde_telemetry::json`]), the same one the bench gate uses.

use crate::bimodal::{split_modes, ModeSplit};
use crate::scorecard::Scorecard;
use cde_analysis::stats::Cdf;
use cde_telemetry::json::{self, field_bool, field_str, field_u64};
use std::fmt::Write as _;

/// Everything the analyzer reconstructs for one campaign span.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// Span id from the trace (0 for the synthetic "outside any span"
    /// bucket).
    pub id: u64,
    /// Campaign name from `campaign_begin`.
    pub name: String,
    /// Span open timestamp, µs since the hub epoch.
    pub begin_us: u64,
    /// Span close timestamp; `None` when the trace ends mid-span.
    pub end_us: Option<u64>,
    /// Planned units from `campaign_begin`.
    pub planned: u64,
    /// Units completed, from `campaign_end`.
    pub completed: u64,
    /// Units answered, from `campaign_end`.
    pub answered: u64,
    /// Units timed out, from `campaign_end`.
    pub timeouts: u64,
    /// `campaign_note` annotations, in stream order.
    pub notes: Vec<(String, u64)>,
    /// Probe attempts sent while this span was innermost.
    pub sent: u64,
    /// Retransmissions scheduled.
    pub retried: u64,
    /// Replies matched.
    pub matched: u64,
    /// Probes that exhausted every attempt.
    pub timed_out: u64,
    /// Replies rejected by correlation (stray/spoofed/duplicate).
    pub replies_dropped: u64,
    /// Telemetry events shed by the ring while this span was open.
    pub events_shed: u64,
    /// Clean RTT samples (µs): matched on the first attempt.
    pub rtt_us: Vec<u64>,
    /// Retransmit-ambiguous RTT samples (µs), kept separate so the
    /// timing channel can ignore them.
    pub ambiguous_us: Vec<u64>,
    /// Match timestamps (µs since hub epoch), for the waterfall.
    pub match_at_us: Vec<u64>,
}

impl CampaignTrace {
    /// Whether the span closed and matched at least one reply.
    pub fn completed_ok(&self) -> bool {
        self.end_us.is_some() && self.matched > 0
    }

    /// Health scorecard for this campaign.
    pub fn scorecard(&self) -> Scorecard {
        let all: Vec<u64> = self
            .rtt_us
            .iter()
            .chain(&self.ambiguous_us)
            .copied()
            .collect();
        let cdf = (!all.is_empty()).then(|| Cdf::from_samples(all.iter().copied()));
        Scorecard {
            label: if self.name.is_empty() {
                "(outside spans)".to_string()
            } else {
                self.name.clone()
            },
            sent: self.sent,
            answered: self.matched,
            retries: self.retried,
            timeouts: self.timed_out,
            replies_dropped: self.replies_dropped,
            events_shed: self.events_shed,
            rtt_samples: all.len() as u64,
            ambiguous: self.ambiguous_us.len() as u64,
            p50_us: cdf.as_ref().map_or(0, |c| c.percentile(50.0)),
            p99_us: cdf.as_ref().map_or(0, |c| c.percentile(99.0)),
        }
    }

    /// Cached/uncached mode split over the *clean* RTT samples —
    /// retransmit-ambiguous samples are excluded, exactly as the live
    /// calibrator excludes them.
    pub fn mode_split(&self) -> Option<ModeSplit> {
        split_modes(&self.rtt_us)
    }

    /// `(percentile, value_us)` rows over the clean samples.
    pub fn percentile_table(&self) -> Vec<(f64, u64)> {
        if self.rtt_us.is_empty() {
            return Vec::new();
        }
        let cdf = Cdf::from_samples(self.rtt_us.iter().copied());
        [25.0, 50.0, 75.0, 90.0, 99.0, 100.0]
            .iter()
            .map(|&p| (p, cdf.percentile(p)))
            .collect()
    }

    /// A one-line match-arrival waterfall: `width` time columns from
    /// span begin to span end, shaded by match count.
    pub fn waterfall(&self, width: usize) -> String {
        const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let width = width.max(1);
        let end = self.end_us.unwrap_or_else(|| {
            self.match_at_us
                .iter()
                .copied()
                .max()
                .unwrap_or(self.begin_us)
        });
        let span = (end.saturating_sub(self.begin_us)).max(1);
        let mut cols = vec![0u64; width];
        for &at in &self.match_at_us {
            let off = at.saturating_sub(self.begin_us).min(span - 1);
            cols[(off as u128 * width as u128 / span as u128) as usize] += 1;
        }
        let peak = cols.iter().copied().max().unwrap_or(0).max(1);
        cols.iter()
            .map(|&n| {
                RAMP[(n as usize * (RAMP.len() - 1))
                    .div_ceil(peak as usize)
                    .min(RAMP.len() - 1)]
            })
            .collect()
    }
}

/// The full reconstruction of one telemetry trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Campaign spans in open order.
    pub campaigns: Vec<CampaignTrace>,
    /// Probe activity outside any open span.
    pub orphan: CampaignTrace,
    /// Total lines in the trace.
    pub lines: u64,
    /// Lines that were not recognized events (blank, truncated, alien).
    pub unparsed: u64,
}

impl TraceAnalysis {
    /// Whether at least one campaign closed with clean RTT samples —
    /// the `cde-analyze --check` criterion.
    pub fn check(&self) -> bool {
        self.campaigns
            .iter()
            .any(|c| c.completed_ok() && !c.rtt_us.is_empty())
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} lines ({} skipped as malformed), {} campaign span(s)",
            self.lines,
            self.unparsed,
            self.campaigns.len()
        );
        let _ = writeln!(out, "{}", Scorecard::header());
        for c in &self.campaigns {
            let _ = writeln!(out, "{}", c.scorecard().render_row());
        }
        if self.orphan.sent + self.orphan.matched > 0 {
            let _ = writeln!(out, "{}", self.orphan.scorecard().render_row());
        }
        for c in &self.campaigns {
            let dur_ms = c
                .end_us
                .map(|e| (e.saturating_sub(c.begin_us)) as f64 / 1e3);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "campaign {} {:?}: planned {}, completed {}, answered {}, timeouts {}{}",
                c.id,
                c.name,
                c.planned,
                c.completed,
                c.answered,
                c.timeouts,
                match dur_ms {
                    Some(ms) => format!(" ({ms:.1} ms)"),
                    None => " (still open)".to_string(),
                }
            );
            for (key, value) in &c.notes {
                let _ = writeln!(out, "  note {key} = {value}");
            }
            if !c.match_at_us.is_empty() {
                let _ = writeln!(out, "  waterfall |{}|", c.waterfall(48));
            }
            for (p, v) in c.percentile_table() {
                let _ = writeln!(out, "  p{p:<5} {v:>9} us");
            }
            if let Some(split) = c.mode_split() {
                let _ = writeln!(
                    out,
                    "  modes: cached {} @ ~{:.0} us | uncached {} @ ~{:.0} us \
                     (threshold {} us, separation {:.2}{})",
                    split.lower.count,
                    split.lower.mean_us,
                    split.upper.count,
                    split.upper.mean_us,
                    split.threshold_us,
                    split.separation,
                    if split.clearly_bimodal() {
                        ", bimodal"
                    } else {
                        ""
                    }
                );
            }
        }
        out
    }

    /// Machine-readable report: one flat JSON object per campaign under
    /// a `"campaigns"` array (line-oriented, greppable, parseable by
    /// the same field extraction this module uses).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"lines\": {}, \"lines_skipped\": {}, \"check\": {},\n  \"campaigns\": [\n",
            self.lines,
            self.unparsed,
            self.check()
        );
        for (i, c) in self.campaigns.iter().enumerate() {
            out.push_str("    {\"id\": ");
            let _ = write!(out, "{}", c.id);
            out.push_str(", \"name\": ");
            json::write_str(&mut out, &c.name);
            let _ = write!(
                out,
                ", \"completed_ok\": {}, \"planned\": {}, \"completed\": {}, \
                 \"answered\": {}, \"timeouts\": {}, \"scorecard\": ",
                c.completed_ok(),
                c.planned,
                c.completed,
                c.answered,
                c.timeouts
            );
            c.scorecard().write_json(&mut out);
            match c.mode_split() {
                Some(split) => {
                    let _ = write!(
                        out,
                        ", \"modes\": {{\"threshold_us\": {}, \"cached\": {}, \
                         \"uncached\": {}, \"separation\": ",
                        split.threshold_us, split.lower.count, split.upper.count
                    );
                    json::write_f64(&mut out, split.separation);
                    out.push_str("}}");
                }
                None => out.push_str(", \"modes\": null}"),
            }
            out.push_str(if i + 1 < self.campaigns.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Reconstructs campaigns and probe lifecycles from a JSONL trace.
pub fn analyze(jsonl: &str) -> TraceAnalysis {
    let mut analysis = TraceAnalysis::default();
    // Spans indexed by position in `analysis.campaigns`; `open` is the
    // stack of currently-open span positions (innermost last).
    let mut open: Vec<usize> = Vec::new();
    let mut by_id: Vec<(u64, usize)> = Vec::new();

    for line in jsonl.lines() {
        analysis.lines += 1;
        let (Some(kind), Some(at_us)) = (field_str(line, "kind"), field_u64(line, "at_us")) else {
            analysis.unparsed += u64::from(!line.trim().is_empty());
            continue;
        };
        let campaign_id = field_u64(line, "campaign").unwrap_or(0);
        match kind {
            "campaign_begin" => {
                let trace = CampaignTrace {
                    id: campaign_id,
                    name: field_str(line, "name").unwrap_or("").to_string(),
                    begin_us: at_us,
                    planned: field_u64(line, "planned").unwrap_or(0),
                    ..CampaignTrace::default()
                };
                let pos = analysis.campaigns.len();
                analysis.campaigns.push(trace);
                open.push(pos);
                by_id.push((campaign_id, pos));
            }
            "campaign_note" => {
                if let Some(&(_, pos)) = by_id.iter().rev().find(|(id, _)| *id == campaign_id) {
                    analysis.campaigns[pos].notes.push((
                        field_str(line, "key").unwrap_or("").to_string(),
                        field_u64(line, "value").unwrap_or(0),
                    ));
                }
            }
            "campaign_progress" => {}
            "campaign_end" => {
                if let Some(&(_, pos)) = by_id.iter().rev().find(|(id, _)| *id == campaign_id) {
                    let c = &mut analysis.campaigns[pos];
                    c.end_us = Some(at_us);
                    c.completed = field_u64(line, "completed").unwrap_or(0);
                    c.answered = field_u64(line, "answered").unwrap_or(0);
                    c.timeouts = field_u64(line, "timeouts").unwrap_or(0);
                    open.retain(|&p| p != pos);
                }
            }
            probe_kind => {
                // Engine-level events: attribute to the innermost open
                // span (they are emitted with campaign 0).
                let target = match open.last() {
                    Some(&pos) => &mut analysis.campaigns[pos],
                    None => &mut analysis.orphan,
                };
                match probe_kind {
                    "probe_planned" => {}
                    "probe_sent" => target.sent += 1,
                    "probe_retried" => {
                        target.retried += 1;
                        target.sent += 1;
                    }
                    "probe_matched" => {
                        target.matched += 1;
                        target.match_at_us.push(at_us);
                        let rtt = field_u64(line, "rtt_us").unwrap_or(0);
                        // Traces predating the flag have no field: treat
                        // their samples as clean, as they were then.
                        if field_bool(line, "retransmit_ambiguous").unwrap_or(false) {
                            target.ambiguous_us.push(rtt);
                        } else {
                            target.rtt_us.push(rtt);
                        }
                    }
                    "probe_timed_out" => target.timed_out += 1,
                    "reply_dropped" => target.replies_dropped += 1,
                    "events_dropped" => target.events_shed += field_u64(line, "count").unwrap_or(0),
                    _ => analysis.unparsed += 1,
                }
            }
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic trace: one enumeration campaign with a clean bimodal
    /// RTT population, one ambiguous sample, and some engine noise
    /// outside the span.
    fn trace() -> String {
        let mut t = String::new();
        let mut push = |line: &str| {
            t.push_str(line);
            t.push('\n');
        };
        push(r#"{"at_us": 50, "campaign": 0, "kind": "probe_sent", "token": 90, "attempt": 0}"#);
        push(
            r#"{"at_us": 100, "campaign": 1, "kind": "campaign_begin", "name": "enumerate_via_timing", "planned": 40}"#,
        );
        for i in 0..30u64 {
            let at = 200 + i * 10;
            push(&format!(
                r#"{{"at_us": {at}, "campaign": 0, "kind": "probe_sent", "token": {i}, "attempt": 0}}"#
            ));
            push(&format!(
                concat!(
                    r#"{{"at_us": {}, "campaign": 0, "kind": "probe_matched", "token": {}, "#,
                    r#""attempt": 0, "rtt_us": {}, "retransmit_ambiguous": false}}"#
                ),
                at + 400,
                i,
                400 + i * 3,
            ));
        }
        for i in 30..40u64 {
            let at = 600 + i * 10;
            push(&format!(
                r#"{{"at_us": {at}, "campaign": 0, "kind": "probe_sent", "token": {i}, "attempt": 0}}"#
            ));
            push(&format!(
                concat!(
                    r#"{{"at_us": {}, "campaign": 0, "kind": "probe_matched", "token": {}, "#,
                    r#""attempt": 0, "rtt_us": {}, "retransmit_ambiguous": false}}"#
                ),
                at + 40_000,
                i,
                40_000 + i * 17,
            ));
        }
        push(
            r#"{"at_us": 41000, "campaign": 0, "kind": "probe_retried", "token": 39, "attempt": 1}"#,
        );
        push(
            r#"{"at_us": 41500, "campaign": 0, "kind": "probe_matched", "token": 39, "attempt": 1, "rtt_us": 500, "retransmit_ambiguous": true}"#,
        );
        push(r#"{"at_us": 41600, "campaign": 0, "kind": "reply_dropped", "reason": "stray"}"#);
        push(
            r#"{"at_us": 41700, "campaign": 1, "kind": "campaign_note", "key": "slow_responses", "value": 10}"#,
        );
        push(
            r#"{"at_us": 42000, "campaign": 1, "kind": "campaign_end", "completed": 40, "answered": 41, "timeouts": 0}"#,
        );
        push(
            r#"{"at_us": 43000, "campaign": 0, "kind": "probe_timed_out", "token": 91, "attempts": 3}"#,
        );
        t
    }

    #[test]
    fn reconstructs_campaign_and_attributes_probes_by_time() {
        let a = analyze(&trace());
        assert_eq!(a.campaigns.len(), 1);
        let c = &a.campaigns[0];
        assert_eq!(c.name, "enumerate_via_timing");
        assert_eq!(c.planned, 40);
        assert_eq!(c.completed, 40);
        assert!(c.completed_ok());
        assert_eq!(c.sent, 41); // 40 firsts + 1 retry, inside the span
        assert_eq!(c.retried, 1);
        assert_eq!(c.matched, 41);
        assert_eq!(c.rtt_us.len(), 40);
        assert_eq!(c.ambiguous_us, vec![500]);
        assert_eq!(c.replies_dropped, 1);
        assert_eq!(c.notes, vec![("slow_responses".to_string(), 10)]);
        // Outside the span: the early send and the late timeout.
        assert_eq!(a.orphan.sent, 1);
        assert_eq!(a.orphan.timed_out, 1);
        assert!(a.check());
    }

    #[test]
    fn mode_split_excludes_ambiguous_and_finds_the_caches() {
        let a = analyze(&trace());
        let split = a.campaigns[0].mode_split().expect("bimodal");
        assert_eq!(split.lower.count, 30, "cached mode");
        assert_eq!(split.upper.count, 10, "uncached mode = cache count");
        assert!(split.clearly_bimodal());
    }

    #[test]
    fn renders_text_and_json() {
        let a = analyze(&trace());
        let text = a.render_text();
        assert!(text.contains("enumerate_via_timing"));
        assert!(text.contains("waterfall |"));
        assert!(text.contains("modes: cached 30"));
        let json = a.render_json();
        assert!(json.contains("\"check\": true"));
        assert!(json.contains("\"uncached\": 10"));
        // The JSON report is parseable by the same field extraction.
        let line = json
            .lines()
            .find(|l| l.contains("enumerate_via_timing"))
            .unwrap();
        assert_eq!(field_u64(line, "cached"), Some(30));
        assert_eq!(field_str(line, "name"), Some("enumerate_via_timing"));
    }

    #[test]
    fn unparsed_lines_are_counted_not_fatal() {
        let a = analyze("not json\n\n{\"at_us\": 5, \"campaign\": 0, \"kind\": \"probe_sent\", \"token\": 1, \"attempt\": 0}\n");
        assert_eq!(a.lines, 3);
        assert_eq!(a.unparsed, 1);
        assert_eq!(a.orphan.sent, 1);
        assert!(!a.check());
        assert!(a.render_text().contains("(1 skipped as malformed)"));
        assert!(a.render_json().contains("\"lines_skipped\": 1"));
    }

    #[test]
    fn traces_without_the_ambiguity_flag_stay_clean() {
        let line = "{\"at_us\": 9, \"campaign\": 0, \"kind\": \"probe_matched\", \"token\": 1, \"attempt\": 0, \"rtt_us\": 123}\n";
        let a = analyze(line);
        assert_eq!(a.orphan.rtt_us, vec![123]);
        assert!(a.orphan.ambiguous_us.is_empty());
    }

    #[test]
    fn waterfall_is_fixed_width_and_shaded() {
        let a = analyze(&trace());
        let w = a.campaigns[0].waterfall(48);
        assert_eq!(w.chars().count(), 48);
        assert!(w.chars().any(|c| c != ' '));
    }
}
