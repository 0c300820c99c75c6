//! The probe observer: one record per probe transition, one
//! [`ProbeObserver::observe`] that fans it out to every per-probe view.
//!
//! The paper's count and loss handling read each probe's fate, so every
//! view must agree on it. The shard loop writes no view itself: each
//! transition is one [`ProbeRecord`], and the one `match` in `observe`
//! decides which view — counters, telemetry events, flight ring, RTT
//! digests, exemplars — sees it, encoded how (tabulated in DESIGN.md
//! §6d). Views that are not configured are skipped.

use crate::flight::{FlightDisposition, FlightRecord, FlightRing};
use crate::metrics::MetricsBlock;
use crate::transport::TransportReply;
use cde_dns::Rcode;
use cde_insight::RttDigestSet;
use cde_pulse::{ExemplarReservoir, ProbeExemplar};
use cde_telemetry::{DropReason, EventKind, TelemetryHub};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-probe fields the views read. A reactor probe keeps them in
/// its correlation slot and updates them as it goes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeFields {
    /// Caller-assigned correlation token.
    pub(crate) token: u64,
    /// Target ingress.
    pub(crate) ingress: Ipv4Addr,
    /// Zero-based index of the latest attempt.
    pub(crate) attempt: u32,
    /// When the probe was admitted (the exemplar lifetime base).
    pub(crate) admitted_at: Instant,
    /// When the latest attempt hit the wire; `None` until the first send.
    pub(crate) sent_at: Option<Instant>,
    /// Admission-to-first-send latency in microseconds (0 until then).
    pub(crate) queue_us: u64,
    /// Deadline armed for the latest attempt, microseconds.
    pub(crate) rto_us: u32,
    /// Encoded query size, bytes (0 until first encoded).
    pub(crate) wire_size: u16,
    /// Query id of the latest attempt.
    pub(crate) qid: u16,
}

impl ProbeFields {
    /// A probe admitted now and not yet sent.
    pub(crate) fn new(token: u64, ingress: Ipv4Addr) -> ProbeFields {
        ProbeFields {
            token,
            ingress,
            attempt: 0,
            admitted_at: Instant::now(),
            sent_at: None,
            queue_us: 0,
            rto_us: 0,
            wire_size: 0,
            qid: 0,
        }
    }

    /// A one-shot probe sent now: the transports outside the reactor.
    pub(crate) fn sent_once(token: u64, ingress: Ipv4Addr) -> ProbeFields {
        ProbeFields {
            sent_at: Some(Instant::now()),
            ..ProbeFields::new(token, ingress)
        }
    }

    /// Attempts that reached the socket (0 for a probe never sent).
    fn attempts(&self) -> u32 {
        self.sent_at.map_or(0, |_| self.attempt + 1)
    }
}

/// One probe lifecycle transition, or one datagram the correlation
/// checks turned away, with the fields the views need.
pub(crate) enum ProbeRecord<'a> {
    /// Admission found no route to the ingress: the probe completes as
    /// a timeout without ever being sent.
    Unroutable(ProbeFields),
    /// An attempt went out on the wire.
    Sent(ProbeFields),
    /// The latest attempt's deadline passed and attempt `attempt` is
    /// scheduled.
    Retried(ProbeFields),
    /// The fault layer dropped an outbound query.
    QueryDropped(ProbeFields),
    /// The fault layer dropped an inbound reply; the probe is the live
    /// one whose query id it carried, if any.
    ReplyDropped(Option<ProbeFields>, Datagram),
    /// A reply matched no live correlation entry: late, duplicated, or
    /// for a probe this shard never sent.
    Stray(Datagram),
    /// Right query id, wrong source address: off-path spoofing.
    Spoofed,
    /// Right id and source, wrong echoed question: an id collision.
    QnameMismatch,
    /// A datagram whose header or echoed question did not decode.
    Undecodable,
    /// The probe is done: a matching reply arrived, its last deadline
    /// expired, or the socket rejected its send outright.
    Completed {
        probe: ProbeFields,
        reply: &'a TransportReply,
    },
}

/// A reply datagram seen on the wire: its source, size and query id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Datagram {
    pub(crate) from: Ipv4Addr,
    pub(crate) wire_size: usize,
    pub(crate) qid: u16,
}

/// Every per-probe view one shard (or one transport) feeds.
#[derive(Debug)]
pub(crate) struct ProbeObserver {
    pub(crate) shard: u32,
    pub(crate) block: Arc<MetricsBlock>,
    pub(crate) telemetry: Arc<TelemetryHub>,
    pub(crate) flight: Option<Arc<FlightRing>>,
    pub(crate) digests: Option<Arc<RttDigestSet>>,
    pub(crate) exemplars: Option<Arc<ExemplarReservoir>>,
}

impl ProbeObserver {
    /// An observer with only the counters and the event stream attached.
    pub(crate) fn counters_and_events(
        block: Arc<MetricsBlock>,
        telemetry: Arc<TelemetryHub>,
    ) -> ProbeObserver {
        ProbeObserver {
            shard: 0,
            block,
            telemetry,
            flight: None,
            digests: None,
            exemplars: None,
        }
    }

    /// Fans one record out to every view that takes it.
    pub(crate) fn observe(&self, record: &ProbeRecord) {
        match *record {
            ProbeRecord::Unroutable(probe) => {
                self.block.record_timeout();
                self.emit(EventKind::ProbeTimedOut {
                    token: probe.token,
                    attempts: 0,
                });
                self.flight(FlightDisposition::Unroutable, |r, _| {
                    r.token = probe.token;
                    r.ingress = probe.ingress;
                    r.expired_at_us = r.recorded_at_us;
                });
            }
            ProbeRecord::Sent(probe) => {
                self.block.record_sent();
                self.emit(EventKind::ProbeSent {
                    token: probe.token,
                    attempt: probe.attempt,
                });
            }
            ProbeRecord::Retried(probe) => {
                self.block.record_retry();
                self.emit(EventKind::ProbeRetried {
                    token: probe.token,
                    attempt: probe.attempt,
                });
            }
            // The query died *outbound*: the cache behind the target
            // stayed cold. Forensics joins it back by token.
            ProbeRecord::QueryDropped(probe) => {
                self.flight(FlightDisposition::QueryDropped, |r, _| {
                    r.token = probe.token;
                    r.ingress = probe.ingress;
                    r.attempts = clamp_u8(probe.attempt + 1);
                    r.sent_at_us = r.recorded_at_us;
                    r.wire_size = probe.wire_size;
                    r.qid = probe.qid;
                });
            }
            // The reply existed and died *inbound*: the query reached
            // the serving chain, so the cache is warm.
            ProbeRecord::ReplyDropped(probe, reply) => {
                self.flight(FlightDisposition::ReplyDropped, |r, _| {
                    r.ingress = reply.from;
                    if let Some(probe) = probe {
                        r.token = probe.token;
                        r.ingress = probe.ingress;
                        r.attempts = clamp_u8(probe.attempt + 1);
                    }
                    r.wire_size = clamp_u16(reply.wire_size);
                    r.qid = reply.qid;
                });
            }
            ProbeRecord::Stray(reply) => {
                self.rejected(MetricsBlock::record_stray_reply, DropReason::Stray);
                self.flight(FlightDisposition::StrayReply, |r, _| {
                    r.ingress = reply.from;
                    r.wire_size = clamp_u16(reply.wire_size);
                    r.qid = reply.qid;
                });
            }
            ProbeRecord::Spoofed => {
                self.rejected(MetricsBlock::record_spoofed_reply, DropReason::Spoofed)
            }
            ProbeRecord::QnameMismatch => {
                self.rejected(MetricsBlock::record_qname_mismatch, DropReason::Duplicate)
            }
            ProbeRecord::Undecodable => self.block.record_decode_error(),
            ProbeRecord::Completed { probe, reply } => self.completed(probe, reply),
        }
    }

    fn completed(&self, probe: ProbeFields, reply: &TransportReply) {
        let (disposition, rtt_us) = match *reply {
            TransportReply::Answered { latency, rcode } => {
                let rtt_us = latency.map_or(0, |l| l.as_micros());
                // A reply after a retransmit can belong to *either*
                // attempt; its last-send RTT is untrustworthy for timing
                // analysis, so the digest and the event carry the flag.
                let retransmit_ambiguous = probe.attempt > 0;
                self.block.record_received(Duration::from_micros(rtt_us));
                if let Some(digests) = &self.digests {
                    digests.record(probe.ingress, rtt_us, retransmit_ambiguous);
                }
                self.emit(EventKind::ProbeMatched {
                    token: probe.token,
                    attempt: probe.attempt,
                    rtt_us,
                    retransmit_ambiguous,
                });
                let disposition = if rcode == Rcode::Refused {
                    FlightDisposition::Refused
                } else {
                    FlightDisposition::Answered
                };
                (disposition, rtt_us)
            }
            TransportReply::TimedOut => {
                self.block.record_timeout();
                self.emit(EventKind::ProbeTimedOut {
                    token: probe.token,
                    attempts: probe.attempts(),
                });
                (FlightDisposition::TimedOut, 0)
            }
        };
        self.flight(disposition, |r, ring| {
            r.token = probe.token;
            r.ingress = probe.ingress;
            r.attempts = clamp_u8(probe.attempts());
            r.sent_at_us = probe.sent_at.map_or(0, |at| ring.instant_us(at));
            if disposition == FlightDisposition::TimedOut {
                r.expired_at_us = r.recorded_at_us;
            } else {
                r.matched_at_us = r.recorded_at_us;
            }
            r.rto_us = probe.rto_us;
            r.wire_size = probe.wire_size;
            r.qid = probe.qid;
        });
        if let Some(reservoir) = &self.exemplars {
            reservoir.record(ProbeExemplar {
                token: probe.token,
                shard: self.shard,
                ingress: probe.ingress,
                attempts: probe.attempt + 1,
                rtt_us,
                queue_us: probe.queue_us,
                lifetime_us: micros(probe.admitted_at.elapsed()),
                answered: disposition != FlightDisposition::TimedOut,
            });
        }
    }

    fn emit(&self, kind: EventKind) {
        self.telemetry.emit(0, kind);
    }

    /// A reply the correlation checks turned away: its counter, and a
    /// `reply_dropped` event with the reason.
    fn rejected(&self, count: fn(&MetricsBlock), reason: DropReason) {
        count(&self.block);
        self.emit(EventKind::ReplyDropped { reason });
    }

    /// Writes one flight record when the recorder is on: `disposition`
    /// stamped now on this shard, every other field zero (token
    /// [`FlightRecord::NO_TOKEN`]) until `fill` sets it.
    fn flight(
        &self,
        disposition: FlightDisposition,
        fill: impl FnOnce(&mut FlightRecord, &FlightRing),
    ) {
        let Some(ring) = &self.flight else {
            return;
        };
        let mut rec = FlightRecord {
            token: FlightRecord::NO_TOKEN,
            ingress: Ipv4Addr::UNSPECIFIED,
            shard: self.shard as u16,
            attempts: 0,
            disposition,
            recorded_at_us: ring.now_us(),
            sent_at_us: 0,
            matched_at_us: 0,
            expired_at_us: 0,
            rto_us: 0,
            wire_size: 0,
            qid: 0,
        };
        fill(&mut rec, ring);
        if ring.record(&rec) {
            self.block.record_flight_shed();
        }
        self.block.record_flight_record();
    }
}

/// A duration in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

fn clamp_u8(v: u32) -> u8 {
    v.min(u32::from(u8::MAX)) as u8
}

pub(crate) fn clamp_u16(v: usize) -> u16 {
    v.min(usize::from(u16::MAX)) as u16
}
