//! A hard send error fails one probe, never its whole send batch.
//!
//! `cde_sysio::send_batch` returns `Err` only when the *head* datagram
//! was rejected and nothing went out; the datagrams queued behind it are
//! still good. Here half the targets are unsendable — Linux rejects UDP
//! to port 0 with `EINVAL` before anything reaches the wire — and they
//! alternate with reachable ones, so nearly every batch starts with or
//! contains a bad datagram. Every reachable probe must still be answered,
//! and every view (completions, metrics, events, flight records) must
//! agree on each probe's single fate.

use cde_dns::{Message, Name, RecordType};
use cde_engine::reactor::{Reactor, ReactorConfig};
use cde_engine::{FlightDisposition, FlightOptions, RetryPolicy, TransportReply};
use cde_telemetry::{EventKind, TelemetryHub};
use crossbeam::channel::unbounded;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const GOOD: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const BAD: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 2);
const PROBES: u64 = 400;

#[test]
fn one_unsendable_target_fails_only_its_own_probes() {
    // A loopback echo authority behind the good ingress.
    let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    server
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let server_addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let echo = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::SeqCst) {
                if let Ok((len, peer)) = server.recv_from(&mut buf) {
                    if let Ok(query) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&query);
                        let _ = server.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        }
    });

    let mut targets = HashMap::new();
    targets.insert(GOOD, server_addr);
    targets.insert(BAD, SocketAddr::from((Ipv4Addr::LOCALHOST, 0)));
    let hub = TelemetryHub::new(16 * 1024);
    let mut reactor = Reactor::launch(
        targets,
        ReactorConfig {
            shards: 1,
            max_in_flight: 512,
            telemetry: Some(Arc::clone(&hub)),
            flight: Some(FlightOptions { per_shard: 4096 }),
            ..ReactorConfig::with_policy(
                RetryPolicy {
                    attempts: 2,
                    timeout: Duration::from_secs(2),
                    backoff: 1.0,
                    base_delay: Duration::from_millis(1),
                    jitter: 0.0,
                },
                31,
            )
        },
    )
    .unwrap();

    let (done_tx, done_rx) = unbounded();
    let handle = reactor.handle();
    for token in 0..PROBES {
        // Even tokens go to the unsendable target, odd ones to the echo.
        let ingress = if token % 2 == 0 { BAD } else { GOOD };
        let qname: Name = format!("batch-{token}.cache.example").parse().unwrap();
        assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
    }
    let mut answered = 0u64;
    let mut timed_out = 0u64;
    for _ in 0..PROBES {
        let done = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every probe completes");
        match done.reply {
            TransportReply::Answered { .. } => {
                assert_eq!(done.token % 2, 1, "token {} reached port 0", done.token);
                answered += 1;
            }
            TransportReply::TimedOut => {
                assert_eq!(done.token % 2, 0, "good token {} timed out", done.token);
                timed_out += 1;
            }
        }
    }
    assert_eq!((answered, timed_out), (PROBES / 2, PROBES / 2));

    assert!(reactor.shutdown_graceful(Duration::from_secs(5)));
    stop.store(true, Ordering::SeqCst);
    echo.join().unwrap();

    let snap = reactor.metrics().snapshot();
    assert_eq!(snap.received, PROBES / 2, "every good probe matched");
    assert_eq!(snap.timeouts, PROBES / 2, "every bad probe timed out");

    // One terminal event and one terminal flight record per token.
    let mut terminal_events: HashMap<u64, u32> = HashMap::new();
    for event in hub.drain() {
        if let EventKind::ProbeMatched { token, .. } | EventKind::ProbeTimedOut { token, .. } =
            event.kind
        {
            *terminal_events.entry(token).or_default() += 1;
        }
    }
    let recorder = reactor.flight().expect("flight configured");
    assert_eq!(recorder.shed(), 0, "ring sized to keep every record");
    let mut terminal_records: HashMap<u64, u32> = HashMap::new();
    for rec in recorder.snapshot() {
        if matches!(
            rec.disposition,
            FlightDisposition::Answered | FlightDisposition::Refused | FlightDisposition::TimedOut
        ) {
            *terminal_records.entry(rec.token).or_default() += 1;
        }
    }
    for token in 0..PROBES {
        assert_eq!(
            terminal_events.get(&token),
            Some(&1),
            "token {token}: terminal telemetry events"
        );
        assert_eq!(
            terminal_records.get(&token),
            Some(&1),
            "token {token}: terminal flight records"
        );
    }
}
