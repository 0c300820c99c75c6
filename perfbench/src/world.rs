//! Pieces every in-process workload shares: the planted world, the
//! loopback serving chain, the serving floor, the codec timings and the
//! engine counters read before and after a measured window.

use crate::procfs;
use crate::report::Report;
use crate::stats;
use cde_core::{CdeInfra, Session};
use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, RecordType};
use cde_engine::{LiveTestbed, MetricsSnapshot, ResolverConfig};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// First ingress address; workloads with more count up from here.
pub const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// `n` consecutive ingress addresses starting at [`INGRESS`].
pub fn ingresses(n: u8) -> Vec<Ipv4Addr> {
    (0..n).map(|i| Ipv4Addr::new(192, 0, 2, 1 + i)).collect()
}

/// A launched serving chain plus the world the measurement side keeps.
pub struct World {
    pub testbed: LiveTestbed,
    pub infra: CdeInfra,
    /// Threads that appeared while the resolver and authority launched.
    pub serving_tids: HashSet<u32>,
}

/// Plants `caches` caches behind `ingress` (random selection, three
/// egress addresses) and launches the loopback resolver and authority.
/// `session` installs a standing session first, for workloads whose
/// probes all ask for one honey record.
pub fn launch(
    seed: u64,
    ingress: Vec<Ipv4Addr>,
    caches: usize,
    session: bool,
) -> (World, Option<Session>) {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let session = session.then(|| infra.new_session(&mut net, 0));
    let platform = PlatformBuilder::new(seed)
        .ingress(ingress)
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(caches, SelectorKind::Random)
        .build();
    let (testbed, serving_tids) = new_threads(|| {
        LiveTestbed::launch(platform, net, ResolverConfig::default())
            .expect("loopback testbed launches")
    });
    (
        World {
            testbed,
            infra,
            serving_tids,
        },
        session,
    )
}

/// Runs `f`, returning its result and the threads of this process that
/// appeared meanwhile.
pub fn new_threads<T>(f: impl FnOnce() -> T) -> (T, HashSet<u32>) {
    let pid = std::process::id();
    let before: HashSet<u32> = procfs::threads(pid).into_keys().collect();
    let out = f();
    let after = procfs::threads(pid)
        .into_keys()
        .filter(|t| !before.contains(t))
        .collect();
    (out, after)
}

/// One encoded A query for `qname`.
pub fn query_bytes(id: u16, qname: &Name) -> Vec<u8> {
    let mut w = WireWriter::new();
    Message::encode_query_into(&mut w, id, qname, RecordType::A);
    w.as_slice().to_vec()
}

/// The serving floor: a raw UDP closed loop sending `qname` straight to
/// the resolver ingress, no engine involved. Returns the median RTT in
/// µs and the last reply's bytes.
pub fn floor_rtt(target: SocketAddr, qname: &Name, rounds: usize) -> (f64, Vec<u8>) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind floor socket");
    socket.connect(target).expect("connect floor socket");
    socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("floor read timeout");
    let mut buf = [0u8; 4096];
    let mut rtts = Vec::with_capacity(rounds);
    let mut reply = Vec::new();
    for i in 0..rounds {
        let q = query_bytes(i as u16, qname);
        let start = Instant::now();
        socket.send(&q).expect("floor send");
        // A reply for an earlier id (after a lost round) is skipped.
        loop {
            match socket.recv(&mut buf) {
                Ok(n) if MessagePeek::parse(&buf[..n]).is_ok_and(|p| p.id() == i as u16) => {
                    rtts.push(start.elapsed().as_secs_f64() * 1e6);
                    reply = buf[..n].to_vec();
                    break;
                }
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
    (stats::median(&rtts), reply)
}

/// Codec cost on the workload's own bytes, ns per call: encoding the
/// probe query, fully decoding the reply, and the header peek plus
/// question check the shard loop does per datagram.
pub fn codec_ns(qname: &Name, reply: &[u8], report: &mut Report) {
    const ROUNDS: u32 = 20_000;
    let mut w = WireWriter::new();
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            f();
        }
        start.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
    };
    let encode = time(&mut || {
        Message::encode_query_into(&mut w, black_box(0x1234), black_box(qname), RecordType::A);
        black_box(w.as_slice());
    });
    let decode = time(&mut || {
        let _ = black_box(Message::decode(black_box(reply)));
    });
    let peek = time(&mut || {
        let ok = MessagePeek::parse(black_box(reply))
            .and_then(|p| p.question_matches(qname, RecordType::A));
        let _ = black_box(ok);
    });
    report.check(Message::decode(reply).is_ok(), || {
        "workload reply decodes".into()
    });
    report.set("dns.encode_ns", encode);
    report.set("dns.decode_ns", decode);
    report.set("dns.peek_ns", peek);
}

/// Reactor-layer metrics from engine snapshots bracketing a window of
/// `wall_s` seconds in which `probes` probes completed.
pub fn reactor_layer(
    report: &mut Report,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    probes: f64,
    wall_s: f64,
    shards: usize,
) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let batches = d(after.batches_sent(), before.batches_sent());
    report.set(
        "sysio.datagrams_per_batch",
        d(after.batch_datagrams, before.batch_datagrams) / batches.max(1.0),
    );
    let parked_s = d(after.parked_us, before.parked_us) / 1e6;
    report.set(
        "reactor.busy_frac",
        1.0 - parked_s / (wall_s * shards as f64),
    );
    report.set(
        "reactor.parks_per_probe",
        d(after.parks, before.parks) / probes.max(1.0),
    );
    report.set(
        "reactor.wake_latency_us",
        d(after.wake_latency_us, before.wake_latency_us)
            / d(after.unparks, before.unparks).max(1.0),
    );
    report.set("reactor.ring_depth_peak", after.ring_depth_peak as f64);
    report.set(
        "reactor.wheel_pending_peak",
        after.wheel_pending_peak as f64,
    );
    report.set("obs.flight_shed", d(after.flight_shed, before.flight_shed));
}

/// The six sampled hot-path phase means, ns per call.
pub fn phase_layer(report: &mut Report, phases: &cde_insight::PhaseProfiler) {
    for stats in phases.snapshot() {
        let name = match stats.phase.as_str() {
            "timers" => "reactor.phase.timers_ns",
            "encode" => "reactor.phase.encode_ns",
            "send_batch" => "reactor.phase.send_batch_ns",
            "recv_batch" => "reactor.phase.recv_batch_ns",
            "decode" => "reactor.phase.decode_ns",
            _ => "reactor.phase.correlate_ns",
        };
        report.set(name, stats.mean().map_or(0.0, |d| d.as_nanos() as f64));
    }
}
