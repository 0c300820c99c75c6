//! Campaign throughput: the probe reactor against the wire floor.
//!
//! Launches one loopback resolver (real UDP, simulated cache platform
//! behind it), then pushes identical probe campaigns through two loops
//! and writes `BENCH_engine.json`:
//!
//! * **wire floor** — a bare loop over one non-blocking socket that keeps
//!   the same window of the same honey queries in flight with
//!   `cde_sysio::send_batch`/`recv_batch`: no correlation table, timer
//!   wheel, retries or shard hand-off. It is what this host's sockets and
//!   this resolver allow at best.
//! * **reactor** — [`run_campaign_pipelined`]: the single-shard event loop
//!   every caller uses, with its full per-probe bookkeeping.
//!
//! Each probe count runs [`FLOOR_PAIRS`] floor/reactor pairs, the floor
//! immediately before the reactor, in the same process, so
//! `reactor_vs_wire_floor` cancels machine speed and background load. The
//! pair with the median ratio is reported, with the range of all pairs.
//! At 10k probes each observability tier (insight, pulse, flight) also
//! runs [`FLOOR_PAIRS`] times; its gated on/off ratio is the median
//! tier throughput over the median reactor throughput of the pairs, with
//! the range of single-run ratios recorded next to it.
//! Usage: `engine_bench [output.json] [--metrics-out metrics.json]`.
//!
//! With `--metrics-out`, the final reactor run's metrics registry
//! (engine counters, reactor health gauges, buffer-pool and telemetry
//! stats) is written as a JSON snapshot alongside the bench results.
//!
//! A final `timing` section measures time-to-exact-count under a
//! fixed-seed 30% Gilbert–Elliott fault plan: the static fixed-budget
//! enumeration against the adaptive loop (per-ingress RTO table plus
//! the sequential stopping planner), both required to recover the
//! planted cache count exactly. `--timing-only` runs just that section
//! (the dedicated CI timing lane).
//!
//! Every run in the report shares one process-wide ephemeral port
//! range and warm platform state, so execution order is part of the
//! measurement. The order is fixed — runs/wire floor, the tiers
//! round-robin (insight, pulse, flight), scaling (1→2→4→8 shards,
//! stamped with an explicit `order`), timing — and the RNG seeds are
//! stamped into the JSON so a re-run is bit-comparable.

use cde_core::{
    enumerate_identical, enumerate_sequential, AccessProvider, CdeInfra, EnumerateOptions,
    ProbePlan,
};
use cde_dns::{Message, Name, Question, RecordType};
use cde_engine::scheduler::{run_campaign_pipelined, Probe};
use cde_engine::{
    AdaptiveRtoConfig, CampaignReport, EngineClock, FlightOptions, InsightOptions, LiveTestbed,
    LoopbackResolver, PulseOptions, Reactor, ReactorConfig, ResolverConfig, RetryPolicy, Transport,
};
use cde_faults::FaultPlan;
use cde_netsim::SimTime;
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_pulse::{CounterSample, Pulse, SloSpec};
use cde_sysio::{recv_batch, send_batch, RecvSlot, SendItem, MAX_BATCH};
use cde_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
/// Seed for the throughput runs (platform build, retry jitter).
const BENCH_SEED: u64 = 11;
/// Seed for the shard-scaling platform (distinct so its cache state
/// never aliases the throughput platform's).
const SCALING_SEED: u64 = 13;
/// Fixed seed of the time-to-exact-count recipe: platform, fault plan
/// and reactor RNG all derive from it, so the loss bursts land on the
/// same probes every run.
const TIMING_SEED: u64 = 17;
/// Caches actually planted behind the timing ingress.
const TIMING_CACHES: usize = 5;
/// The `n_max` upper bound the static plan must budget for — the
/// operator doesn't know the true count, which is what the sequential
/// planner exploits.
const TIMING_N_MAX: u64 = 16;
/// Gilbert–Elliott loss rate / mean burst length on the query path.
const TIMING_LOSS: f64 = 0.30;
const TIMING_BURST: f64 = 3.0;
/// Residual failure probability for the sequential stopping rule.
const TIMING_EPSILON: f64 = 0.001;
/// Probes the reactor keeps in flight. Enough to hide the resolver's
/// per-datagram service time, yet small enough that the resolver's
/// receive queue stays under the default kernel socket buffer
/// (~270 small datagrams) — deeper windows overflow it and turn the
/// measurement into a retransmission bench.
const REACTOR_WINDOW: usize = 128;
/// Wire-floor/reactor pairs per probe count, and runs per observability
/// tier. A 1k-probe campaign lasts about 10 ms, so one scheduler hiccup
/// moves a single pair's ratio by tens of percent; the median of five
/// does not move with it.
const FLOOR_PAIRS: usize = 5;

/// Loopback should be lossless, but a loaded burst can still shed the
/// odd datagram at a socket buffer; a short first timeout keeps any such
/// retransmission from dominating the tail of a run.
fn bench_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        timeout: Duration::from_millis(250),
        backoff: 2.0,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    }
}

struct RunStats {
    backend: &'static str,
    probes: usize,
    shards: usize,
    elapsed: Duration,
    answered: usize,
    retries: u64,
    p50_us: u64,
    p99_us: u64,
}

impl RunStats {
    fn probes_per_sec(&self) -> f64 {
        self.probes as f64 / self.elapsed.as_secs_f64()
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"backend\": \"{}\", \"probes\": {}, \"shards\": {}, ",
                "\"elapsed_s\": {:.4}, \"probes_per_sec\": {:.1}, ",
                "\"answered\": {}, \"retries\": {}, ",
                "\"latency_p50_us\": {}, \"latency_p99_us\": {}}}"
            ),
            self.backend,
            self.probes,
            self.shards,
            self.elapsed.as_secs_f64(),
            self.probes_per_sec(),
            self.answered,
            self.retries,
            self.p50_us,
            self.p99_us,
        )
    }
}

/// Nearest-rank percentile of sorted microsecond latencies (0 if empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)]
}

fn stats(
    backend: &'static str,
    shards: usize,
    probes: usize,
    elapsed: Duration,
    report: &CampaignReport,
) -> RunStats {
    let mut latencies: Vec<u64> = report
        .outcomes
        .iter()
        .filter_map(|o| match &o.reply {
            cde_engine::TransportReply::Answered { latency, .. } => latency.map(|l| l.as_micros()),
            cde_engine::TransportReply::TimedOut => None,
        })
        .collect();
    latencies.sort_unstable();
    RunStats {
        backend,
        probes,
        shards,
        elapsed,
        answered: report.answered(),
        retries: report.retries,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// The wire floor: `count` honey queries through one non-blocking
/// socket, [`REACTOR_WINDOW`] in flight, batched syscalls and nothing
/// else. Queries are encoded before the clock starts and replies are
/// matched by query id alone. The floor never retransmits: if nothing
/// arrives for one `bench_policy` timeout, whatever is still in flight
/// counts as lost and the run moves on.
fn wire_floor_run(target: SocketAddr, honey: &Name, count: usize) -> RunStats {
    let SocketAddr::V4(dest) = target else {
        panic!("the loopback resolver binds IPv4");
    };
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("wire-floor socket");
    socket.set_nonblocking(true).expect("non-blocking socket");
    let queries: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            let id = u16::try_from(i).expect("query ids fit the probe count");
            Message::query(id, Question::new(honey.clone(), RecordType::A))
                .encode()
                .expect("encode honey query")
        })
        .collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; count];
    let mut slots: Vec<RecvSlot> = (0..MAX_BATCH).map(|_| RecvSlot::new()).collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(count);
    let (mut next, mut in_flight, mut lost) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut last_reply = start;
    while latencies.len() + lost < count {
        while in_flight < REACTOR_WINDOW && next < count {
            let n = (REACTOR_WINDOW - in_flight).min(count - next);
            let items: Vec<SendItem<'_>> = queries[next..next + n]
                .iter()
                .map(|payload| SendItem { payload, dest })
                .collect();
            let sent = send_batch(&socket, &items).expect("send_batch");
            if sent == 0 {
                break;
            }
            let now = Instant::now();
            sent_at[next..next + sent].fill(Some(now));
            next += sent;
            in_flight += sent;
        }
        let got = recv_batch(&socket, &mut slots).expect("recv_batch");
        let now = Instant::now();
        for slot in &slots[..got] {
            let &[hi, lo, ..] = slot.bytes() else {
                continue;
            };
            let id = usize::from(u16::from_be_bytes([hi, lo]));
            if let Some(at) = sent_at.get_mut(id).and_then(Option::take) {
                latencies.push(now.duration_since(at).as_micros() as u64);
                in_flight -= 1;
                last_reply = now;
            }
        }
        if got == 0 {
            if now.duration_since(last_reply) > bench_policy().timeout {
                lost += in_flight;
                in_flight = 0;
                sent_at[..next].fill(None);
                last_reply = now;
            }
            std::thread::yield_now();
        }
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    RunStats {
        backend: "wire_floor",
        probes: count,
        shards: 0,
        elapsed,
        answered: latencies.len(),
        retries: 0,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// One single-shard reactor campaign of `count` honey probes on a fresh
/// reactor (and a fresh registry, so `--metrics-out` reflects the last
/// run). Pinned to one shard: this series is the single-core baseline
/// the scaling curve is measured against.
fn reactor_run(
    addrs: &HashMap<Ipv4Addr, SocketAddr>,
    honey: &Name,
    count: usize,
) -> (RunStats, Arc<MetricsRegistry>) {
    let registry = MetricsRegistry::new();
    let reactor = Reactor::launch(
        addrs.clone(),
        ReactorConfig {
            shards: 1,
            registry: Some(Arc::clone(&registry)),
            ..ReactorConfig::with_policy(bench_policy(), BENCH_SEED)
        },
    )
    .expect("reactor");
    let start = Instant::now();
    let report = run_campaign_pipelined(&reactor, probe_batch(honey, count), REACTOR_WINDOW);
    (
        stats("reactor", 1, count, start.elapsed(), &report),
        registry,
    )
}

/// The reactor-over-wire-floor ratio at one probe count: the median of
/// [`FLOOR_PAIRS`] pairs and the range they spanned.
struct FloorRatio {
    probes: usize,
    median: f64,
    lowest: f64,
    highest: f64,
}

/// An observability tier whose hot-path cost the report gates as an
/// on/off throughput ratio: RTT digests and phase timers, the health
/// engine's observation path (exemplars plus a sampler thread at the
/// daemon's cadence), or the flight ring.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Insight,
    Pulse,
    Flight,
}

impl Tier {
    const ALL: [Tier; 3] = [Tier::Insight, Tier::Pulse, Tier::Flight];

    /// Report section, gated key and run-line backend name.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Tier::Insight => ("insight", "digests_on_vs_off", "reactor_insight"),
            Tier::Pulse => ("pulse", "pulse_on_vs_off", "reactor_pulse"),
            Tier::Flight => ("flight", "flight_on_vs_off", "reactor_flight"),
        }
    }
}

/// The single-shard reactor campaign of [`reactor_run`] with one
/// observability tier on.
fn tier_run(
    addrs: &HashMap<Ipv4Addr, SocketAddr>,
    honey: &Name,
    count: usize,
    tier: Tier,
) -> RunStats {
    let base = ReactorConfig {
        shards: 1,
        ..ReactorConfig::with_policy(bench_policy(), BENCH_SEED)
    };
    let config = match tier {
        Tier::Insight => ReactorConfig {
            insight: Some(InsightOptions::default()),
            ..base
        },
        Tier::Pulse => ReactorConfig {
            pulse: Some(PulseOptions::default()),
            ..base
        },
        Tier::Flight => ReactorConfig {
            flight: Some(FlightOptions::default()),
            ..base
        },
    };
    let reactor = Reactor::launch(addrs.clone(), config).expect("tier reactor");
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = reactor.exemplars().map(|exemplars| {
        let pulse = Pulse::new(SloSpec::default()).with_exemplars(exemplars);
        let metrics = reactor.metrics();
        let stop = Arc::clone(&stop);
        let epoch = Instant::now();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let snap = metrics.snapshot();
                pulse.observe(CounterSample {
                    at_ms: epoch.elapsed().as_millis() as u64,
                    sent: snap.sent,
                    received: snap.received,
                    timeouts: snap.timeouts,
                    retries: snap.retries,
                    strays: snap.stray_replies,
                    in_flight: snap.in_flight,
                    ..CounterSample::default()
                });
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    });
    let start = Instant::now();
    let report = run_campaign_pipelined(&reactor, probe_batch(honey, count), REACTOR_WINDOW);
    let run = stats(tier.names().2, 1, count, start.elapsed(), &report);
    stop.store(true, Ordering::SeqCst);
    if let Some(sampler) = sampler {
        sampler.join().expect("pulse sampler");
    }
    run
}

fn probe_batch(honey: &Name, count: usize) -> Vec<Probe> {
    (0..count)
        .map(|_| Probe::a(INGRESS, honey.clone()))
        .collect()
}

/// Conservative static policy for the timing lane: the timeout an
/// operator would pick without RTT knowledge. The adaptive RTO table
/// can only tighten per-attempt deadlines below it, never past it.
fn timing_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        timeout: Duration::from_millis(100),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

struct TimingStats {
    elapsed: Duration,
    retransmits: u64,
    spent: u64,
    observed: u64,
}

/// One time-to-exact-count run: a fresh planted platform, real loopback
/// UDP, and the fixed-seed bursty fault plan in front of the reactor.
/// `adaptive` switches on both halves of the adaptive loop — the
/// per-ingress RTO table (retransmit deadlines learned from live RTT)
/// and the sequential stopping planner (the campaign ends the moment
/// the exact-count criterion holds instead of spending the full
/// worst-case budget). Both variants see identical platforms and fault
/// sequences because everything derives from `TIMING_SEED`.
fn timing_run(adaptive: bool) -> TimingStats {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let session = infra.new_session(&mut net, 0);
    let platform = PlatformBuilder::new(TIMING_SEED)
        .ingress(vec![INGRESS])
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(TIMING_CACHES, SelectorKind::Random)
        .build();
    let testbed =
        LiveTestbed::launch(platform, net, ResolverConfig::default()).expect("timing testbed");
    let config = ReactorConfig {
        faults: Some(FaultPlan::bursty(TIMING_SEED, TIMING_LOSS, TIMING_BURST)),
        adaptive: adaptive.then(AdaptiveRtoConfig::default),
        ..ReactorConfig::with_policy(timing_policy(), TIMING_SEED)
    };
    let mut transport = testbed.reactor_transport(config).expect("timing transport");
    // The plan an operator would run blind: budget for `n_max` caches
    // at the hinted loss, even though only `TIMING_CACHES` exist.
    let plan = ProbePlan::for_bursty_target(TIMING_N_MAX, TIMING_LOSS, TIMING_BURST);
    let opts = EnumerateOptions {
        probes: plan.probes,
        redundancy: plan.redundancy,
        ..EnumerateOptions::default()
    };
    let start = Instant::now();
    let (spent, observed) = {
        let mut access = transport.channel(INGRESS);
        if adaptive {
            let r = enumerate_sequential(
                &mut access,
                &infra,
                &session,
                opts,
                TIMING_EPSILON,
                SimTime::ZERO,
            );
            (r.enumeration.probes, r.enumeration.observed)
        } else {
            let e = enumerate_identical(&mut access, &infra, &session, opts, SimTime::ZERO);
            (e.probes, e.observed)
        }
    };
    TimingStats {
        elapsed: start.elapsed(),
        retransmits: transport.metrics().snapshot().retries,
        spent,
        observed,
    }
}

/// Runs the static baseline then the adaptive variant (order fixed:
/// the lane's two testbeds bind from the same ephemeral port range)
/// and renders the one-line `timing` JSON entry.
fn timing_section() -> String {
    let fixed = timing_run(false);
    let adaptive = timing_run(true);
    let time_ratio = adaptive.elapsed.as_secs_f64() / fixed.elapsed.as_secs_f64();
    let retx_ratio = adaptive.retransmits as f64 / fixed.retransmits.max(1) as f64;
    let exact = (fixed.observed == TIMING_CACHES as u64
        && adaptive.observed == TIMING_CACHES as u64) as u32;
    eprintln!(
        "timing    static    {:>6.2}s  {:>4} retransmits  {:>4} spent  observed {}",
        fixed.elapsed.as_secs_f64(),
        fixed.retransmits,
        fixed.spent,
        fixed.observed,
    );
    eprintln!(
        "timing    adaptive  {:>6.2}s  {:>4} retransmits  {:>4} spent  observed {}",
        adaptive.elapsed.as_secs_f64(),
        adaptive.retransmits,
        adaptive.spent,
        adaptive.observed,
    );
    eprintln!(
        "timing    adaptive/static  time {time_ratio:.2}x  retransmits {retx_ratio:.2}x  exact {exact}"
    );
    format!(
        concat!(
            "    {{\"seed\": {}, \"caches\": {}, \"n_max_hint\": {}, ",
            "\"loss\": {}, \"mean_burst\": {}, \"epsilon\": {}, ",
            "\"static_elapsed_s\": {:.4}, \"static_retransmits\": {}, \"static_spent\": {}, ",
            "\"adaptive_elapsed_s\": {:.4}, \"adaptive_retransmits\": {}, \"adaptive_spent\": {}, ",
            "\"adaptive_vs_static_time\": {:.4}, \"adaptive_vs_static_retransmits\": {:.4}, ",
            "\"exact\": {}}}"
        ),
        TIMING_SEED,
        TIMING_CACHES,
        TIMING_N_MAX,
        TIMING_LOSS,
        TIMING_BURST,
        TIMING_EPSILON,
        fixed.elapsed.as_secs_f64(),
        fixed.retransmits,
        fixed.spent,
        adaptive.elapsed.as_secs_f64(),
        adaptive.retransmits,
        adaptive.spent,
        time_ratio,
        retx_ratio,
        exact,
    )
}

fn main() {
    let mut out_path = "BENCH_engine.json".to_string();
    let mut metrics_out: Option<String> = None;
    let mut timing_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a path"));
            }
            "--timing-only" => timing_only = true,
            other => out_path = other.to_string(),
        }
    }

    // The dedicated CI timing lane: just the time-to-exact-count
    // comparison, written as a report `bench_check --timing-only` can
    // hold against the committed baseline's `timing` section.
    if timing_only {
        let timing_json = timing_section();
        let json = format!(
            "{{\n  \"bench\": \"engine_time_to_exact_count\",\n  \
             \"description\": \"static fixed-budget enumeration vs adaptive RTO + sequential stopping under bursty loss\",\n  \
             \"seed\": {TIMING_SEED},\n  \"timing\": [\n{timing_json}\n  ]\n}}\n",
        );
        std::fs::write(&out_path, &json).expect("write bench output");
        eprintln!("wrote {out_path}");
        return;
    }

    // One resolver serves every run: a platform with a couple of caches
    // and a standing session whose honey record all probes hit (cached
    // after the first, so throughput is front-end-bound, as in a real
    // enumeration burst).
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let session = infra.new_session(&mut net, 0);
    let platform = PlatformBuilder::new(BENCH_SEED)
        .ingress(vec![INGRESS])
        .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
        .cluster(2, SelectorKind::Random)
        .build();
    let resolver = LoopbackResolver::launch(
        platform,
        net.clone(),
        None,
        ResolverConfig::default(),
        EngineClock::start(),
    )
    .expect("loopback resolver");
    let addrs = resolver.ingress_addrs().clone();

    // Warmup: one short unmeasured reactor campaign so the resolver's
    // cache holds the honey record and both sides' page/branch state is
    // hot before anything is timed — otherwise the first measured run
    // pays the platform's cache-miss path that no later run sees.
    {
        let reactor = Reactor::launch(
            addrs.clone(),
            ReactorConfig {
                shards: 1,
                ..ReactorConfig::with_policy(bench_policy(), BENCH_SEED)
            },
        )
        .expect("warmup reactor");
        run_campaign_pipelined(&reactor, probe_batch(&session.honey, 2_000), REACTOR_WINDOW);
    }

    let target = *addrs.get(&INGRESS).expect("throughput ingress");
    let mut runs: Vec<RunStats> = Vec::new();
    let mut floor_ratios: Vec<FloorRatio> = Vec::new();
    // Each tier's gated report line, in `Tier::ALL` order.
    let mut tier_json: [String; 3] = Default::default();
    let mut last_registry: Option<Arc<MetricsRegistry>> = None;

    for count in [1_000usize, 10_000] {
        // Floor/reactor pairs, each floor right before the reactor run it
        // normalises. The pair with the median ratio is the one reported;
        // the range of all pairs is recorded next to it.
        let mut pairs: Vec<(f64, RunStats, RunStats)> = (0..FLOOR_PAIRS)
            .map(|_| {
                let floor = wire_floor_run(target, &session.honey, count);
                let (reactor_stats, registry) = reactor_run(&addrs, &session.honey, count);
                last_registry = Some(registry);
                let ratio = reactor_stats.probes_per_sec() / floor.probes_per_sec();
                (ratio, floor, reactor_stats)
            })
            .collect();
        // The on/off ratios below divide by the median reactor throughput
        // of the pairs, so one lucky-fast reactor run cannot sink them.
        let mut reactor_pps: Vec<f64> = pairs.iter().map(|p| p.2.probes_per_sec()).collect();
        reactor_pps.sort_by(f64::total_cmp);
        let reactor_pps = reactor_pps[reactor_pps.len() / 2];
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (lowest, highest) = (pairs[0].0, pairs[pairs.len() - 1].0);
        let (ratio, floor, reactor_stats) = pairs.swap_remove(pairs.len() / 2);
        for run in [&floor, &reactor_stats] {
            eprintln!(
                "{:<10}{:>6} probes  {:>10.0} probes/s  p50 {:>6} us  p99 {:>6} us  answered {}",
                run.backend,
                count,
                run.probes_per_sec(),
                run.p50_us,
                run.p99_us,
                run.answered,
            );
        }
        eprintln!(
            "          {count:>6} probes  reactor / wire floor {ratio:.2}x \
             (median of {FLOOR_PAIRS} pairs, range {lowest:.2}-{highest:.2})"
        );
        floor_ratios.push(FloorRatio {
            probes: count,
            median: ratio,
            lowest,
            highest,
        });

        runs.push(floor);
        runs.push(reactor_stats);

        // Observability overhead at the largest probe count: the same
        // campaign with each tier on, FLOOR_PAIRS runs per tier taken
        // round-robin. The median on-throughput over the median reactor
        // throughput above is the gated on/off ratio, so no single run
        // on either side of it can sink the gate.
        if count == 10_000 {
            let mut tier_runs: Vec<Vec<RunStats>> = Tier::ALL.iter().map(|_| Vec::new()).collect();
            for _ in 0..FLOOR_PAIRS {
                for (tier, runs_of_tier) in Tier::ALL.into_iter().zip(&mut tier_runs) {
                    runs_of_tier.push(tier_run(&addrs, &session.honey, count, tier));
                }
            }
            for (i, mut tier_runs) in tier_runs.into_iter().enumerate() {
                tier_runs.sort_by(|a, b| a.probes_per_sec().total_cmp(&b.probes_per_sec()));
                let ratio_of = |run: &RunStats| run.probes_per_sec() / reactor_pps;
                let lowest = ratio_of(&tier_runs[0]);
                let highest = ratio_of(&tier_runs[FLOOR_PAIRS - 1]);
                let median = tier_runs.swap_remove(FLOOR_PAIRS / 2);
                let ratio = ratio_of(&median);
                let (section, key, _) = Tier::ALL[i].names();
                eprintln!(
                    "{section:<10}{count:>6} probes  {:>10.0} probes/s  on/off {ratio:.2}x \
                     (median of {FLOOR_PAIRS} runs, range {lowest:.2}-{highest:.2})",
                    median.probes_per_sec(),
                );
                tier_json[i] = format!(
                    "    {{\"probes\": {count}, \"{key}\": {ratio:.2}, \"repeats\": {FLOOR_PAIRS}, \
                     \"lowest\": {lowest:.2}, \"highest\": {highest:.2}}}"
                );
                runs.push(median);
            }
        }
    }

    // Shard scaling curve: the same 10k-probe campaign through 1, 2, 4
    // and 8 shards. Eight ingresses (each its own resolver socket) give
    // the target-hash partition something to spread, and the pipeline
    // window grows with the shard count so no shard is starved by the
    // submitter. On a single-core host the curve is flat-to-declining —
    // `bench_check` reads the recorded `available_parallelism` and only
    // expects speedup where cores exist.
    let scaling_ingresses: Vec<Ipv4Addr> = (11..=18).map(|d| Ipv4Addr::new(192, 0, 2, d)).collect();
    let scaling_platform = PlatformBuilder::new(SCALING_SEED)
        .ingress(scaling_ingresses.clone())
        .egress(vec![Ipv4Addr::new(192, 0, 3, 2)])
        .cluster(2, SelectorKind::Random)
        .build();
    let scaling_resolver = LoopbackResolver::launch(
        scaling_platform,
        net.clone(),
        None,
        ResolverConfig::default(),
        EngineClock::start(),
    )
    .expect("scaling resolver");
    let scaling_addrs = scaling_resolver.ingress_addrs().clone();
    let scaling_count = 10_000usize;
    let scaling_probes = |count: usize| -> Vec<Probe> {
        (0..count)
            .map(|i| {
                Probe::a(
                    scaling_ingresses[i % scaling_ingresses.len()],
                    session.honey.clone(),
                )
            })
            .collect()
    };
    // Unmeasured warm pass for the second platform's caches.
    {
        let reactor = Reactor::launch(
            scaling_addrs.clone(),
            ReactorConfig {
                shards: 1,
                ..ReactorConfig::with_policy(bench_policy(), BENCH_SEED)
            },
        )
        .expect("scaling warmup reactor");
        run_campaign_pipelined(&reactor, scaling_probes(2_000), REACTOR_WINDOW);
    }
    let mut scaling: Vec<(usize, usize, f64)> = Vec::new();
    for (order, shards) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let reactor = Reactor::launch(
            scaling_addrs.clone(),
            ReactorConfig {
                shards,
                sockets: 2 * shards,
                max_in_flight: 256 * shards,
                ..ReactorConfig::with_policy(bench_policy(), BENCH_SEED)
            },
        )
        .expect("scaling reactor");
        let start = Instant::now();
        let report = run_campaign_pipelined(
            &reactor,
            scaling_probes(scaling_count),
            REACTOR_WINDOW * shards,
        );
        let elapsed = start.elapsed();
        let pps = scaling_count as f64 / elapsed.as_secs_f64();
        eprintln!(
            "scaling   {:>6} probes  {:>10.0} probes/s  {} shard(s)  \
             {:>10.0} probes/s/shard  answered {}",
            scaling_count,
            pps,
            shards,
            pps / shards as f64,
            report.answered(),
        );
        scaling.push((order, shards, pps));
    }

    // Time-to-exact-count lane, last: its testbeds draw from the same
    // process-wide port range as every run above, so its place in the
    // order is part of the recipe.
    let timing_json = timing_section();

    let runs_json: Vec<String> = runs
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let floor_json: Vec<String> = floor_ratios
        .iter()
        .map(|r| {
            format!(
                "    {{\"probes\": {}, \"reactor_vs_wire_floor\": {:.2}, \"pairs\": {FLOOR_PAIRS}, \
                 \"lowest\": {:.2}, \"highest\": {:.2}}}",
                r.probes, r.median, r.lowest, r.highest
            )
        })
        .collect();
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(order, shards, pps)| {
            format!(
                "    {{\"order\": {order}, \"shards\": {shards}, \"probes\": {scaling_count}, \
                 \"probes_per_sec\": {pps:.1}, \
                 \"per_shard_probes_per_sec\": {:.1}}}",
                pps / *shards as f64
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"engine_campaign_throughput\",\n  \
         \"description\": \"loopback probe campaigns, event-driven reactor vs a raw send_batch/recv_batch wire floor\",\n  \
         \"seed\": {},\n  \"available_parallelism\": {},\n  \"reactor_window\": {},\n  \
         \"runs\": [\n{}\n  ],\n  \"wire_floor\": [\n{}\n  ],\n  \"insight\": [\n{}\n  ],\n  \
         \"pulse\": [\n{}\n  ],\n  \"flight\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ],\n  \
         \"timing\": [\n{}\n  ]\n}}\n",
        BENCH_SEED,
        std::thread::available_parallelism().map_or(0, usize::from),
        REACTOR_WINDOW,
        runs_json.join(",\n"),
        floor_json.join(",\n"),
        tier_json[0],
        tier_json[1],
        tier_json[2],
        scaling_json.join(",\n"),
        timing_json,
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!("wrote {out_path}");

    if let Some(path) = metrics_out {
        let registry = last_registry.expect("at least one reactor run");
        std::fs::write(&path, registry.json_snapshot()).expect("write metrics output");
        eprintln!("wrote {path}");
    }
}
