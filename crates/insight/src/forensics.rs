//! Loss forensics: reconcile a flight-recorder dump into per-probe
//! fates (`cde-analyze --forensics`).
//!
//! The paper's enumeration math reads `ω < q` two opposite ways: a
//! probe whose *query* died never touched the authority (the cache
//! stayed cold — the coupon was never drawn), while a probe whose
//! *reply* died warmed the cache invisibly (the coupon was drawn but
//! never observed). Aggregate loss counters cannot tell the two apart;
//! this module can, by joining the engine's probe lifecycle records
//! with the fault-layer wire observations the same flight rings carry:
//!
//! * A `query_dropped` wire record with a probe's token proves the
//!   query died outbound → **query-lost** (cold cache).
//! * A `reply_dropped` wire record (joined by token, or by query id
//!   when the drop could not be correlated) proves the serving chain
//!   answered → **reply-lost** (warm cache).
//! * A `stray_reply` whose query id matches a timed-out probe's last
//!   attempt proves the answer arrived *after* the deadline →
//!   **matched-late-as-stray** (warm, and nearly observed).
//!
//! Token joins are exact; query-id joins are 16-bit and therefore
//! heuristic — they rank below token joins and a stray must postdate
//! the probe's last send to count. Reply evidence outranks query
//! evidence: if any attempt's query reached the serving chain the
//! cache is warm, no matter how many earlier attempts died outbound.

use cde_telemetry::json::{self, field_str, field_u64};
use std::fmt::Write as _;

/// One parsed `flight_record` line.
#[derive(Debug, Clone)]
pub struct DumpRecord {
    /// Probe token; `None` for uncorrelated wire observations.
    pub token: Option<u64>,
    /// Target ingress (probe records) or reply source (wire records).
    pub ingress: String,
    /// Shard that wrote the record.
    pub shard: u64,
    /// Send attempts made when the record was written.
    pub attempts: u64,
    /// Disposition name as dumped (`answered`, `timed_out`, ...).
    pub disposition: String,
    /// Timestamps (µs since the recorder epoch; 0 = never happened).
    pub recorded_at_us: u64,
    /// When the last attempt hit the wire.
    pub sent_at_us: u64,
    /// When a matching reply correlated.
    pub matched_at_us: u64,
    /// When the final deadline gave up.
    pub expired_at_us: u64,
    /// Deadline armed for the last attempt, µs.
    pub rto_us: u64,
    /// Datagram size on the wire, bytes.
    pub wire_size: u64,
    /// DNS query id of the last attempt.
    pub qid: u64,
}

/// A parsed flight dump: header + records, with exact skip accounting.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// `flight_version` from the header (0 when the header is missing).
    pub version: u64,
    /// Shard rings merged into the dump.
    pub shards: u64,
    /// Slots per shard ring.
    pub capacity_per_shard: u64,
    /// Records ever written across shards.
    pub written: u64,
    /// Records overwritten unread (drop-oldest sheds) — probes older
    /// than the rings can ever be explained, and the header says
    /// exactly how many.
    pub shed: u64,
    /// Whether a `flight_header` line was present.
    pub has_header: bool,
    /// Total lines in the artifact.
    pub lines: u64,
    /// Non-empty lines that were not a parseable header or record.
    pub lines_skipped: u64,
    /// Every parsed record, in dump order.
    pub records: Vec<DumpRecord>,
}

/// Parses the versioned JSONL artifact `FlightRecorder::render_jsonl`
/// emits. Malformed lines are counted in
/// [`lines_skipped`](FlightDump::lines_skipped), never silently eaten.
pub fn parse_dump(jsonl: &str) -> FlightDump {
    let mut dump = FlightDump::default();
    for line in jsonl.lines() {
        dump.lines += 1;
        match field_str(line, "kind") {
            Some("flight_header") => {
                dump.has_header = true;
                dump.version = field_u64(line, "flight_version").unwrap_or(0);
                dump.shards = field_u64(line, "shards").unwrap_or(0);
                dump.capacity_per_shard = field_u64(line, "capacity_per_shard").unwrap_or(0);
                dump.written = field_u64(line, "written").unwrap_or(0);
                dump.shed = field_u64(line, "shed").unwrap_or(0);
            }
            Some("flight_record") => {
                let (Some(ingress), Some(disposition), Some(recorded_at_us)) = (
                    field_str(line, "ingress"),
                    field_str(line, "disposition"),
                    field_u64(line, "recorded_at_us"),
                ) else {
                    dump.lines_skipped += 1;
                    continue;
                };
                dump.records.push(DumpRecord {
                    token: field_u64(line, "token"),
                    ingress: ingress.to_string(),
                    shard: field_u64(line, "shard").unwrap_or(0),
                    attempts: field_u64(line, "attempts").unwrap_or(0),
                    disposition: disposition.to_string(),
                    recorded_at_us,
                    sent_at_us: field_u64(line, "sent_at_us").unwrap_or(0),
                    matched_at_us: field_u64(line, "matched_at_us").unwrap_or(0),
                    expired_at_us: field_u64(line, "expired_at_us").unwrap_or(0),
                    rto_us: field_u64(line, "rto_us").unwrap_or(0),
                    wire_size: field_u64(line, "wire_size").unwrap_or(0),
                    qid: field_u64(line, "qid").unwrap_or(0),
                });
            }
            _ => dump.lines_skipped += u64::from(!line.trim().is_empty()),
        }
    }
    dump
}

/// Per-ingress probe fates. `unanswered` counts timed-out probes; the
/// three loss classes partition however many of them the wire
/// observations could explain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FateRow {
    /// Target ingress the probes were aimed at.
    pub ingress: String,
    /// Probe lifecycle records (wire observations not included).
    pub probes: u64,
    /// Matched a reply with a useful rcode.
    pub answered: u64,
    /// Matched a reply carrying REFUSED.
    pub refused: u64,
    /// Exhausted every attempt with no matching reply.
    pub unanswered: u64,
    /// Unanswered, and the query provably died outbound (cold cache).
    pub query_lost: u64,
    /// Unanswered, and a reply provably died inbound (warm cache).
    pub reply_lost: u64,
    /// Unanswered, but the answer arrived after the deadline and
    /// landed as a stray (warm cache, nearly observed).
    pub late_stray: u64,
    /// Never sent: no socket route to the ingress.
    pub unroutable: u64,
    /// Unanswered with no wire evidence either way.
    pub unknown: u64,
}

impl FateRow {
    fn absorb(&mut self, other: &FateRow) {
        self.probes += other.probes;
        self.answered += other.answered;
        self.refused += other.refused;
        self.unanswered += other.unanswered;
        self.query_lost += other.query_lost;
        self.reply_lost += other.reply_lost;
        self.late_stray += other.late_stray;
        self.unroutable += other.unroutable;
        self.unknown += other.unknown;
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"ingress\": ");
        json::write_str(out, &self.ingress);
        let _ = write!(
            out,
            ", \"probes\": {}, \"answered\": {}, \"refused\": {}, \
             \"unanswered\": {}, \"query_lost\": {}, \"reply_lost\": {}, \
             \"late_stray\": {}, \"unroutable\": {}, \"unknown\": {}}}",
            self.probes,
            self.answered,
            self.refused,
            self.unanswered,
            self.query_lost,
            self.reply_lost,
            self.late_stray,
            self.unroutable,
            self.unknown,
        );
    }
}

/// The reconciled forensics report.
#[derive(Debug, Clone, Default)]
pub struct Forensics {
    /// The parsed dump header and skip accounting.
    pub dump_version: u64,
    /// Shard rings merged into the dump.
    pub shards: u64,
    /// Records ever written.
    pub written: u64,
    /// Records shed unread — unexplainable by construction.
    pub shed: u64,
    /// Whether the artifact carried its versioned header.
    pub has_header: bool,
    /// Malformed lines skipped during parsing.
    pub lines_skipped: u64,
    /// Per-ingress fate rows, sorted by ingress.
    pub rows: Vec<FateRow>,
    /// Sum over every row.
    pub totals: FateRow,
    /// `stray_reply` wire observations in the dump.
    pub strays: u64,
    /// `query_dropped` wire observations in the dump.
    pub wire_query_drops: u64,
    /// `reply_dropped` wire observations in the dump.
    pub wire_reply_drops: u64,
}

impl Forensics {
    /// Unanswered probes the wire evidence explained.
    pub fn classified(&self) -> u64 {
        self.totals.query_lost + self.totals.reply_lost + self.totals.late_stray
    }

    /// Fraction of unanswered probes explained (1.0 when none timed
    /// out) — the e2e acceptance criterion gates this at ≥ 0.95.
    pub fn coverage(&self) -> f64 {
        if self.totals.unanswered == 0 {
            return 1.0;
        }
        self.classified() as f64 / self.totals.unanswered as f64
    }

    /// The `--forensics --check` criterion: a versioned header, no
    /// skipped lines, and ≥95% of unanswered probes explained.
    pub fn check(&self) -> bool {
        self.has_header && self.lines_skipped == 0 && self.coverage() >= 0.95
    }

    /// Human-readable fate table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight dump: version {}, {} shard(s), {} written, {} shed, {} line(s) skipped",
            self.dump_version, self.shards, self.written, self.shed, self.lines_skipped
        );
        let _ = writeln!(
            out,
            "wire observations: {} query_dropped, {} reply_dropped, {} stray",
            self.wire_query_drops, self.wire_reply_drops, self.strays
        );
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8}",
            "ingress",
            "probes",
            "answered",
            "refused",
            "unanswered",
            "query_lost",
            "reply_lost",
            "late_stray",
            "unroutable",
            "unknown"
        );
        for row in self.rows.iter().chain(std::iter::once(&self.totals)) {
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>9} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8}",
                if row.ingress.is_empty() {
                    "TOTAL"
                } else {
                    &row.ingress
                },
                row.probes,
                row.answered,
                row.refused,
                row.unanswered,
                row.query_lost,
                row.reply_lost,
                row.late_stray,
                row.unroutable,
                row.unknown
            );
        }
        let _ = writeln!(
            out,
            "unanswered coverage: {}/{} classified ({:.1}%)",
            self.classified(),
            self.totals.unanswered,
            self.coverage() * 100.0
        );
        out
    }

    /// Machine-readable report (line-oriented, parseable by the same
    /// field extraction the analyzer uses).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"flight_version\": {}, \"shards\": {}, \"written\": {}, \"shed\": {}, \
             \"lines_skipped\": {},\n  \"query_lost\": {}, \"reply_lost\": {}, \
             \"late_stray\": {}, \"unknown\": {}, \"coverage\": ",
            self.dump_version,
            self.shards,
            self.written,
            self.shed,
            self.lines_skipped,
            self.totals.query_lost,
            self.totals.reply_lost,
            self.totals.late_stray,
            self.totals.unknown,
        );
        json::write_f64(&mut out, self.coverage());
        let _ = write!(out, ", \"check\": {},\n  \"rows\": [\n", self.check());
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    ");
            row.write_json(&mut out);
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"totals\": ");
        self.totals.write_json(&mut out);
        out.push_str("\n}\n");
        out
    }
}

/// Joins probe lifecycle records with wire observations and classifies
/// every unanswered probe. See the module docs for the evidence
/// ranking.
pub fn reconcile(dump: &FlightDump) -> Forensics {
    let mut forensics = Forensics {
        dump_version: dump.version,
        shards: dump.shards,
        written: dump.written,
        shed: dump.shed,
        has_header: dump.has_header,
        lines_skipped: dump.lines_skipped,
        ..Forensics::default()
    };

    // Index the wire observations.
    let mut query_drop_tokens: Vec<u64> = Vec::new();
    let mut reply_drop_tokens: Vec<u64> = Vec::new();
    let mut reply_drop_qids: Vec<u64> = Vec::new();
    let mut stray_qids: Vec<(u64, u64)> = Vec::new(); // (qid, recorded_at_us)
    for rec in &dump.records {
        match rec.disposition.as_str() {
            "query_dropped" => {
                forensics.wire_query_drops += 1;
                if let Some(token) = rec.token {
                    query_drop_tokens.push(token);
                }
            }
            "reply_dropped" => {
                forensics.wire_reply_drops += 1;
                match rec.token {
                    Some(token) => reply_drop_tokens.push(token),
                    None => reply_drop_qids.push(rec.qid),
                }
            }
            "stray_reply" => {
                forensics.strays += 1;
                stray_qids.push((rec.qid, rec.recorded_at_us));
            }
            _ => {}
        }
    }

    let mut rows: Vec<FateRow> = Vec::new();
    for rec in &dump.records {
        let fate = match rec.disposition.as_str() {
            "answered" => |row: &mut FateRow| row.answered += 1,
            "refused" => |row: &mut FateRow| row.refused += 1,
            "unroutable" => |row: &mut FateRow| row.unroutable += 1,
            "timed_out" => {
                let token = rec.token.unwrap_or(u64::MAX);
                // Evidence ranking: exact token joins first, reply
                // evidence over query evidence, heuristic qid joins
                // last.
                if reply_drop_tokens.contains(&token) {
                    |row: &mut FateRow| row.reply_lost += 1
                } else if stray_qids
                    .iter()
                    .any(|&(qid, at)| qid == rec.qid && at >= rec.sent_at_us)
                {
                    |row: &mut FateRow| row.late_stray += 1
                } else if reply_drop_qids.contains(&rec.qid) {
                    |row: &mut FateRow| row.reply_lost += 1
                } else if query_drop_tokens.contains(&token) {
                    |row: &mut FateRow| row.query_lost += 1
                } else {
                    |row: &mut FateRow| row.unknown += 1
                }
            }
            _ => continue, // wire observations are not probes
        };
        let row = match rows.iter_mut().find(|r| r.ingress == rec.ingress) {
            Some(row) => row,
            None => {
                rows.push(FateRow {
                    ingress: rec.ingress.clone(),
                    ..FateRow::default()
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.probes += 1;
        if rec.disposition == "timed_out" {
            row.unanswered += 1;
        }
        fate(row);
    }
    rows.sort_by(|a, b| a.ingress.cmp(&b.ingress));
    for row in &rows {
        forensics.totals.absorb(row);
    }
    forensics.rows = rows;
    forensics
}

/// Parse + reconcile in one call — what `cde-analyze --forensics` runs.
pub fn analyze_forensics(jsonl: &str) -> Forensics {
    reconcile(&parse_dump(jsonl))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(written: u64, shed: u64) -> String {
        format!(
            "{{\"kind\": \"flight_header\", \"flight_version\": 1, \"shards\": 1, \
             \"capacity_per_shard\": 64, \"written\": {written}, \"shed\": {shed}, \
             \"records\": {written}}}"
        )
    }

    fn probe(token: u64, disposition: &str, qid: u64) -> String {
        format!(
            "{{\"kind\": \"flight_record\", \"token\": {token}, \"ingress\": \"192.0.2.1\", \
             \"shard\": 0, \"attempts\": 1, \"disposition\": \"{disposition}\", \
             \"recorded_at_us\": 900, \"sent_at_us\": 100, \"matched_at_us\": 0, \
             \"expired_at_us\": 900, \"rto_us\": 150000, \"wire_size\": 33, \"qid\": {qid}}}"
        )
    }

    fn wire(token: Option<u64>, disposition: &str, qid: u64, at: u64) -> String {
        let token = token.map_or("null".to_string(), |t| t.to_string());
        format!(
            "{{\"kind\": \"flight_record\", \"token\": {token}, \"ingress\": \"127.0.0.1\", \
             \"shard\": 0, \"attempts\": 1, \"disposition\": \"{disposition}\", \
             \"recorded_at_us\": {at}, \"sent_at_us\": 0, \"matched_at_us\": 0, \
             \"expired_at_us\": 0, \"rto_us\": 0, \"wire_size\": 33, \"qid\": {qid}}}"
        )
    }

    #[test]
    fn parses_header_records_and_counts_malformed_lines() {
        let text = format!(
            "{}\n{}\ngarbage\n\n{}\n",
            header(2, 0),
            probe(1, "answered", 41),
            "{\"kind\": \"flight_record\", \"token\": 9}" // no disposition
        );
        let dump = parse_dump(&text);
        assert!(dump.has_header);
        assert_eq!(dump.version, 1);
        assert_eq!(dump.written, 2);
        assert_eq!(dump.records.len(), 1);
        assert_eq!(dump.lines, 5);
        assert_eq!(dump.lines_skipped, 2, "garbage + truncated record");
        assert_eq!(dump.records[0].token, Some(1));
    }

    #[test]
    fn null_token_parses_as_uncorrelated() {
        let dump = parse_dump(&format!("{}\n", wire(None, "stray_reply", 7, 950)));
        assert_eq!(dump.records[0].token, None);
    }

    #[test]
    fn classifies_by_evidence_ranking() {
        let text = [
            header(8, 0),
            probe(1, "answered", 10),
            probe(2, "timed_out", 20), // query_dropped by token
            wire(Some(2), "query_dropped", 20, 150),
            probe(3, "timed_out", 30), // reply_dropped by token
            wire(Some(3), "reply_dropped", 30, 400),
            probe(4, "timed_out", 40), // stray with same qid, late
            wire(None, "stray_reply", 40, 950),
            probe(5, "timed_out", 50), // nothing: unknown
            probe(6, "refused", 60),
            // Token 7: query dropped *and* reply dropped — warm wins.
            probe(7, "timed_out", 70),
            wire(Some(7), "query_dropped", 70, 100),
            wire(Some(7), "reply_dropped", 71, 600),
        ]
        .join("\n");
        let f = analyze_forensics(&text);
        assert_eq!(f.totals.probes, 7);
        assert_eq!(f.totals.answered, 1);
        assert_eq!(f.totals.refused, 1);
        assert_eq!(f.totals.unanswered, 5);
        assert_eq!(f.totals.query_lost, 1);
        assert_eq!(f.totals.reply_lost, 2, "token joins, incl. warm-wins");
        assert_eq!(f.totals.late_stray, 1);
        assert_eq!(f.totals.unknown, 1);
        assert_eq!(f.classified(), 4);
        assert!((f.coverage() - 0.8).abs() < 1e-9);
        assert!(!f.check(), "80% coverage is below the 95% bar");
        assert_eq!(f.wire_query_drops, 2);
        assert_eq!(f.wire_reply_drops, 2);
        assert_eq!(f.strays, 1);
    }

    #[test]
    fn full_coverage_passes_check_and_renders() {
        let text = [
            header(4, 0),
            probe(1, "answered", 10),
            probe(2, "timed_out", 20),
            wire(Some(2), "query_dropped", 20, 150),
            probe(3, "timed_out", 30),
            wire(Some(3), "reply_dropped", 30, 400),
        ]
        .join("\n");
        let f = analyze_forensics(&text);
        assert!(f.check());
        let rendered = f.render_text();
        assert!(rendered.contains("192.0.2.1"));
        assert!(rendered.contains("TOTAL"));
        assert!(rendered.contains("coverage: 2/2 classified (100.0%)"));
        let js = f.render_json();
        assert!(js.contains("\"check\": true"));
        assert!(js.contains("\"query_lost\": 1"));
        let row_line = js.lines().find(|l| l.contains("192.0.2.1")).unwrap();
        assert_eq!(field_u64(row_line, "reply_lost"), Some(1));
    }

    #[test]
    fn skipped_lines_fail_check() {
        let text = format!("{}\nnot json\n{}\n", header(1, 0), probe(1, "answered", 5));
        let f = analyze_forensics(&text);
        assert_eq!(f.lines_skipped, 1);
        assert!(!f.check());
    }

    #[test]
    fn missing_header_fails_check() {
        let f = analyze_forensics(&format!("{}\n", probe(1, "answered", 5)));
        assert!(!f.has_header);
        assert!(!f.check());
    }

    #[test]
    fn early_stray_does_not_count_as_late_match() {
        // A stray recorded *before* the probe's last send shares a qid
        // by collision, not causation.
        let text = [
            header(2, 0),
            probe(2, "timed_out", 20),
            wire(None, "stray_reply", 20, 50), // probe sent at 100
        ]
        .join("\n");
        let f = analyze_forensics(&text);
        assert_eq!(f.totals.late_stray, 0);
        assert_eq!(f.totals.unknown, 1);
    }
}
