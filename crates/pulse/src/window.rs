//! Rolling counter windows: a lock-free ring of timestamped cumulative
//! snapshots, and the window-delta arithmetic that turns them into
//! rates.
//!
//! The ring is a [`SeqlockRing`] (shared with the engine's flight
//! recorder): any number of writers, readers that never block them, and
//! a per-slot sequence that guards *cross-field* consistency, so a rate
//! can never mix the `sent` of one sample with the `received` of
//! another.

use cde_telemetry::SeqlockRing;

/// One cumulative counter snapshot, timestamped against the sampler's
/// epoch. All counters are totals-so-far (monotone non-decreasing
/// except `in_flight`); the window math takes deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Milliseconds since the sampler's epoch.
    pub at_ms: u64,
    /// Datagrams sent (attempts included).
    pub sent: u64,
    /// Matched responses received.
    pub received: u64,
    /// Probes that exhausted every attempt.
    pub timeouts: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Well-formed replies that matched no outstanding probe.
    pub strays: u64,
    /// Telemetry events shed by the hub's drop-oldest ring.
    pub shed: u64,
    /// Telemetry events successfully emitted.
    pub emitted: u64,
    /// Probes in flight at sample time (a gauge, not a total).
    pub in_flight: u64,
}

const FIELDS: usize = 9;

impl CounterSample {
    fn to_array(self) -> [u64; FIELDS] {
        [
            self.at_ms,
            self.sent,
            self.received,
            self.timeouts,
            self.retries,
            self.strays,
            self.shed,
            self.emitted,
            self.in_flight,
        ]
    }

    fn from_array(a: [u64; FIELDS]) -> CounterSample {
        CounterSample {
            at_ms: a[0],
            sent: a[1],
            received: a[2],
            timeouts: a[3],
            retries: a[4],
            strays: a[5],
            shed: a[6],
            emitted: a[7],
            in_flight: a[8],
        }
    }
}

/// Lock-free multi-producer, multi-reader ring of [`CounterSample`]s.
///
/// Writers never block (a wrap overwrites the oldest sample); readers
/// never block writers. Capacity is fixed at construction.
#[derive(Debug)]
pub struct SampleRing {
    ring: SeqlockRing<FIELDS>,
}

impl SampleRing {
    /// A ring holding the latest `capacity` samples (min 2).
    pub fn with_capacity(capacity: usize) -> SampleRing {
        SampleRing {
            ring: SeqlockRing::with_capacity(capacity.max(2)),
        }
    }

    /// Total samples ever pushed.
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Pushes one sample, overwriting the oldest on wrap.
    pub fn push(&self, sample: CounterSample) {
        self.ring.push(sample.to_array());
    }

    /// The most recent consistent sample, if any.
    pub fn latest(&self) -> Option<CounterSample> {
        let head = self.ring.pushed();
        // Walk back a few claims: the newest may still be mid-store.
        (0..8.min(head))
            .find_map(|back| self.ring.read(head - 1 - back))
            .map(CounterSample::from_array)
    }

    /// Every retained sample in chronological order, skipping slots a
    /// concurrent writer is touching.
    pub fn samples(&self) -> Vec<CounterSample> {
        self.ring
            .snapshot()
            .into_iter()
            .map(CounterSample::from_array)
            .collect()
    }
}

/// Rates derived from the delta between two samples roughly one window
/// apart. `span_ms` is the *actual* distance used — shorter than
/// `window_ms` while history is still filling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRates {
    /// The window that was asked for, in milliseconds.
    pub window_ms: u64,
    /// The distance between the two samples actually used.
    pub span_ms: u64,
    /// Attempts (sent datagrams) in the span.
    pub attempts: u64,
    /// Attempts per second.
    pub probes_per_sec: f64,
    /// Unanswered attempts over attempts, in `[0, 1]`, after deducting
    /// the probes still legitimately in flight at the anchor instant.
    /// Tracks wire loss: retransmissions count as attempts.
    pub timeout_ratio: f64,
    /// Stray replies over all replies (matched + stray).
    pub stray_ratio: f64,
    /// Telemetry events shed over events produced (emitted + shed).
    pub shed_ratio: f64,
}

/// Computes the rates over the trailing `window_ms` of `samples`
/// (chronological, as returned by [`SampleRing::samples`]): the anchor
/// is the *latest sample*, the baseline is the newest sample at least
/// `window_ms` older, clamped to the oldest available. `None` without
/// two distinct timestamps.
pub fn window_rates(samples: &[CounterSample], window_ms: u64) -> Option<WindowRates> {
    let anchor = *samples.last()?;
    let cutoff = anchor.at_ms.saturating_sub(window_ms);
    let base = samples
        .iter()
        .rev()
        .skip(1)
        .find(|s| s.at_ms <= cutoff)
        .copied()
        .or_else(|| samples.first().copied().filter(|s| s.at_ms < anchor.at_ms))?;
    let span_ms = anchor.at_ms - base.at_ms;
    if span_ms == 0 {
        return None;
    }
    let sent = anchor.sent.saturating_sub(base.sent);
    let received = anchor.received.saturating_sub(base.received);
    let strays = anchor.strays.saturating_sub(base.strays);
    let shed = anchor.shed.saturating_sub(base.shed);
    let emitted = anchor.emitted.saturating_sub(base.emitted);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            (num as f64 / den as f64).clamp(0.0, 1.0)
        }
    };
    // Unanswered = sent − received, minus what is still in flight at
    // the anchor instant — a healthy pipeline's outstanding probes must
    // not read as loss.
    let lost = sent
        .saturating_sub(received)
        .saturating_sub(anchor.in_flight);
    Some(WindowRates {
        window_ms,
        span_ms,
        attempts: sent,
        probes_per_sec: sent as f64 * 1000.0 / span_ms as f64,
        timeout_ratio: ratio(lost, sent),
        stray_ratio: ratio(strays, strays + received),
        shed_ratio: ratio(shed, shed + emitted),
    })
}

/// Human label for a window size: `"10s"`, `"1m"`, `"500ms"`.
#[allow(clippy::manual_is_multiple_of)] // u64::is_multiple_of needs 1.87, MSRV is 1.81
pub fn window_label(window_ms: u64) -> String {
    if window_ms >= 60_000 && window_ms % 60_000 == 0 {
        format!("{}m", window_ms / 60_000)
    } else if window_ms >= 1_000 && window_ms % 1_000 == 0 {
        format!("{}s", window_ms / 1_000)
    } else {
        format!("{window_ms}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample(at_ms: u64, sent: u64, received: u64) -> CounterSample {
        CounterSample {
            at_ms,
            sent,
            received,
            ..CounterSample::default()
        }
    }

    #[test]
    fn rates_use_the_requested_window() {
        let ring = SampleRing::with_capacity(64);
        // 100 attempts/s for 20s, all answered.
        for i in 0..=20u64 {
            ring.push(sample(i * 1000, i * 100, i * 100));
        }
        let samples = ring.samples();
        let fast = window_rates(&samples, 10_000).unwrap();
        assert_eq!(fast.span_ms, 10_000);
        assert_eq!(fast.attempts, 1000);
        assert!((fast.probes_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(fast.timeout_ratio, 0.0);
    }

    #[test]
    fn short_history_clamps_to_oldest() {
        let samples = vec![sample(0, 0, 0), sample(2_000, 500, 400)];
        let w = window_rates(&samples, 300_000).unwrap();
        assert_eq!(w.span_ms, 2_000);
        assert!((w.timeout_ratio - 0.2).abs() < 1e-9);
        assert!(window_rates(&samples[..1], 10_000).is_none());
        assert!(window_rates(&[], 10_000).is_none());
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let ring = SampleRing::with_capacity(8);
        for i in 0..20u64 {
            ring.push(sample(i, i, i));
        }
        let samples = ring.samples();
        assert_eq!(samples.len(), 8);
        assert_eq!(samples.first().unwrap().at_ms, 12);
        assert_eq!(samples.last().unwrap().at_ms, 19);
        assert_eq!(ring.latest().unwrap().at_ms, 19);
        assert_eq!(ring.pushed(), 20);
    }

    #[test]
    fn in_flight_probes_are_not_loss() {
        let samples = vec![
            sample(0, 0, 0),
            CounterSample {
                at_ms: 2_000,
                sent: 500,
                received: 480,
                in_flight: 20,
                ..CounterSample::default()
            },
        ];
        let w = window_rates(&samples, 10_000).unwrap();
        assert_eq!(w.timeout_ratio, 0.0);
    }

    #[test]
    fn stray_and_shed_ratios() {
        let samples = vec![
            CounterSample::default(),
            CounterSample {
                at_ms: 1000,
                sent: 100,
                received: 80,
                strays: 20,
                shed: 10,
                emitted: 90,
                ..CounterSample::default()
            },
        ];
        let w = window_rates(&samples, 10_000).unwrap();
        assert!((w.stray_ratio - 0.2).abs() < 1e-9);
        assert!((w.shed_ratio - 0.1).abs() < 1e-9);
    }

    /// The seqlock must never surface a torn sample: writers store
    /// samples whose fields are all equal, so any mixed-up read is
    /// detectable.
    #[test]
    fn concurrent_writers_never_tear_a_sample() {
        let ring = Arc::new(SampleRing::with_capacity(32));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let v = w * 1_000_000 + i;
                        ring.push(CounterSample {
                            at_ms: v,
                            sent: v,
                            received: v,
                            timeouts: v,
                            retries: v,
                            strays: v,
                            shed: v,
                            emitted: v,
                            in_flight: v,
                        });
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut read = 0u64;
                while read < 50_000 {
                    for s in ring.samples() {
                        assert_eq!(s.at_ms, s.sent);
                        assert_eq!(s.sent, s.received);
                        assert_eq!(s.received, s.in_flight);
                        read += 1;
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.pushed(), 20_000);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(window_label(10_000), "10s");
        assert_eq!(window_label(60_000), "1m");
        assert_eq!(window_label(300_000), "5m");
        assert_eq!(window_label(500), "500ms");
    }
}
