//! `census_flood`: a closed loop keeping 256 A probes in flight through
//! the default sharded reactor against 8 ingresses whose honey record is
//! already cached, with the daemon's observability tiers on (telemetry
//! hub drained, pulse sampled, flight recorder writing).
//!
//! Probes go out in sweeps of [`SWEEP`]: a sweep is one census of the 8
//! ingresses and counts as a campaign for the time-to-exact-count
//! metrics. Every probe must complete exactly once, answered.

use crate::procfs::{self, ThreadLedger};
use crate::report::{json_names, Report};
use crate::stats::{self, Dist, Stream};
use crate::trace::{self, Tracer};
use crate::world::{self, World};
use crate::Config;
use cde_dns::{Name, RecordType};
use cde_engine::{
    FlightOptions, InsightOptions, MetricsSnapshot, ProbeCompletion, PulseOptions, Reactor,
    ReactorConfig, RetryPolicy,
};
use cde_pulse::{CounterSample, Pulse, ShardStat, SloSpec};
use cde_telemetry::{MetricsRegistry, TelemetryHub};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INGRESSES: u8 = 8;
const CACHES: usize = 2;
const WINDOW: usize = 256;
/// Probes per census sweep.
const SWEEP: usize = 4096;
/// Unmeasured probes that fill every cache with the honey record; about
/// 150 ms of them, so set-up time tracks work rather than launch jitter.
const WARM: usize = 16_384;
/// In a traced run, every this-many-th sweep records per-probe spans.
const TRACE_EVERY: u64 = 8;
/// Set-ups per untraced run: the measured one, then the rest after the
/// window; `setup_s` is their median.
const SETUPS: usize = 9;
/// Samples per window of the RTT tail (p99 with 10 beyond).
const RTT_WINDOW: usize = 1024;
/// Sweeps per window of the sweep-time tail (p75 with 10 beyond): about
/// a dozen windows a run, so a stall outside the program moves one.
const SWEEP_WINDOW: usize = 40;

/// Loopback should be lossless, but a loaded burst can still shed the
/// odd datagram at a socket buffer; a short first timeout keeps such a
/// retransmission from dominating a sweep.
fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        timeout: Duration::from_millis(250),
        backoff: 2.0,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    }
}

/// The daemon's observability set-up around one reactor: its hub and
/// registry, and a thread that every 100 ms feeds the pulse engine and
/// drains the hub, as `cde-serve`'s run loop does.
struct Tiers {
    hub: Arc<TelemetryHub>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
}

impl Tiers {
    fn start(reactor: &Reactor, hub: Arc<TelemetryHub>, registry: &Arc<MetricsRegistry>) -> Tiers {
        let mut pulse = Pulse::new(SloSpec::default());
        if let Some(exemplars) = reactor.exemplars() {
            pulse = pulse.with_exemplars(exemplars);
        }
        let pulse = Arc::new(pulse);
        registry.register(Arc::clone(&pulse) as Arc<dyn cde_telemetry::Collector>);
        let metrics = reactor.metrics();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("perfbench-obs".into())
                .spawn(move || {
                    let epoch = Instant::now();
                    let mut drain_ns = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(100));
                        let start = Instant::now();
                        let snap = metrics.snapshot();
                        pulse.observe(CounterSample {
                            at_ms: epoch.elapsed().as_millis() as u64,
                            sent: snap.sent,
                            received: snap.received,
                            timeouts: snap.timeouts,
                            retries: snap.retries,
                            strays: snap.stray_replies,
                            shed: hub.dropped(),
                            emitted: hub.emitted(),
                            in_flight: snap.in_flight,
                        });
                        let shards = (0..metrics.shards())
                            .map(|i| {
                                let s = metrics.shard_snapshot(i);
                                ShardStat {
                                    shard: i as u64,
                                    busy_us: s.loop_sum_us,
                                    parked_us: s.parked_us,
                                    ring_depth: s.ring_depth,
                                    ring_depth_peak: s.ring_depth_peak,
                                    in_flight: s.in_flight,
                                    parks: s.parks,
                                    unparks: s.unparks,
                                }
                            })
                            .collect();
                        pulse.observe_shards(shards);
                        hub.drain_jsonl(&mut std::io::sink())
                            .expect("sink never fails");
                        drain_ns += start.elapsed().as_nanos() as u64;
                    }
                    drain_ns
                })
                .expect("spawn observability thread")
        };
        Tiers {
            hub,
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the drain thread; returns its total time in ns.
    fn stop(&mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .map_or(0, |t| t.join().expect("observability thread"))
    }
}

impl Drop for Tiers {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One launched census: serving chain, reactor and (optionally) tiers.
struct Census {
    world: World,
    honey: Name,
    reactor: Reactor,
    tiers: Option<Tiers>,
}

fn setup(seed: u64, tiers: bool, insight: bool, report: &mut Report) -> Census {
    let (world, session) = world::launch(seed, world::ingresses(INGRESSES), CACHES, true);
    let honey = session.expect("standing session").honey;
    let addrs = world.testbed.resolver().ingress_addrs().clone();
    // Fill every cache through a plain reactor: the measured reactor's
    // telemetry and flight rings then hold only the measured window
    // (a warm-up burst between two hub drains made the resident set
    // swing by megabytes from run to run).
    {
        let plain = Reactor::launch(addrs.clone(), ReactorConfig::with_policy(policy(), seed))
            .expect("warm-up reactor launches");
        let mut warm = Loop::new();
        warm.sweep(&plain, &honey, WARM, &mut Tracer::new(false), false);
        report.check(warm.bad == 0, || {
            format!("{} warm-up probes failed", warm.bad)
        });
    }
    let hub = TelemetryHub::new(cde_telemetry::DEFAULT_RING_CAPACITY);
    let registry = MetricsRegistry::new();
    let config = ReactorConfig {
        telemetry: tiers.then(|| Arc::clone(&hub)),
        registry: tiers.then(|| Arc::clone(&registry)),
        pulse: tiers.then(PulseOptions::default),
        flight: tiers.then(FlightOptions::default),
        insight: insight.then(InsightOptions::default),
        ..ReactorConfig::with_policy(policy(), seed)
    };
    let reactor = Reactor::launch(addrs, config).expect("reactor launches");
    let tiers = tiers.then(|| Tiers::start(&reactor, hub, &registry));
    Census {
        world,
        honey,
        reactor,
        tiers,
    }
}

/// What one measured window produced.
struct Window {
    probes: u64,
    bad: u64,
    sweeps_ms: Vec<f64>,
    rtt_us: Stream,
    wall_s: f64,
    cpu: Cpu,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    emitted: u64,
    dropped: u64,
    upstream: u64,
}

/// CPU seconds of one window, by thread group.
#[derive(Debug, Default, Clone, Copy)]
struct Cpu {
    total: f64,
    reactor: f64,
    serving: f64,
    obs: f64,
    load: f64,
}

struct Loop {
    tx: Sender<ProbeCompletion>,
    rx: Receiver<ProbeCompletion>,
    next_token: u64,
    bad: u64,
    probes: u64,
    rtt_us: Stream,
}

impl Loop {
    fn new() -> Loop {
        let (tx, rx) = unbounded();
        Loop {
            tx,
            rx,
            next_token: 0,
            bad: 0,
            probes: 0,
            rtt_us: Stream::new(RTT_WINDOW),
        }
    }

    /// One sweep of `n` probes, `WINDOW` in flight, round-robin over the
    /// ingresses. Checks every probe completes once, answered, and that
    /// every ingress answered. Returns false if the reactor stalled or
    /// shut down; the sweep's outstanding probes then count as failed.
    fn sweep(
        &mut self,
        reactor: &Reactor,
        honey: &Name,
        n: usize,
        tr: &mut Tracer,
        keep_rtt: bool,
    ) -> bool {
        let handle = reactor.handle();
        let ingresses = world::ingresses(INGRESSES);
        let base = self.next_token;
        self.next_token += n as u64;
        let mut completed = vec![false; n];
        let mut answered_by = [false; INGRESSES as usize];
        let group = base / n as u64;
        let sweep_span = tr.begin("census.sweep", 0, group);
        let submit = |i: usize, tr: &mut Tracer| {
            let ingress: Ipv4Addr = ingresses[i % ingresses.len()];
            let span = tr.begin("reactor.submit", sweep_span.id(), group);
            let ok = handle.submit(
                base + i as u64,
                ingress,
                honey.clone(),
                RecordType::A,
                &self.tx,
            );
            tr.end(span);
            ok
        };
        let mut sent = 0;
        while sent < n.min(WINDOW) {
            if !submit(sent, tr) {
                self.bad += n as u64;
                return false;
            }
            sent += 1;
        }
        let mut done = 0;
        while done < n {
            let span = tr.begin("census.wait", sweep_span.id(), group);
            let completion = self.rx.recv_timeout(Duration::from_secs(5));
            tr.end(span);
            let Ok(c) = completion else {
                self.bad += (n - done) as u64;
                return false;
            };
            let idx = c.token.wrapping_sub(base) as usize;
            if idx >= n || completed[idx] {
                // A duplicate or foreign completion.
                self.bad += 1;
                continue;
            }
            completed[idx] = true;
            done += 1;
            match c.reply {
                cde_engine::TransportReply::Answered { latency, .. } => {
                    answered_by[idx % INGRESSES as usize] = true;
                    if keep_rtt {
                        if let Some(l) = latency {
                            self.rtt_us.push(l.as_micros() as f64);
                        }
                    }
                }
                cde_engine::TransportReply::TimedOut => self.bad += 1,
            }
            if sent < n {
                if !submit(sent, tr) {
                    self.bad += (n - done) as u64;
                    return false;
                }
                sent += 1;
            }
        }
        self.bad += answered_by.iter().filter(|a| !**a).count() as u64;
        self.probes += n as u64;
        tr.end(sweep_span);
        true
    }
}

/// Runs sweeps until `seconds` pass, bracketing the window with CPU and
/// counter readings.
fn measure(census: &Census, seconds: f64, tr: &mut Tracer) -> Window {
    let pid = std::process::id();
    let mut ledger = ThreadLedger::open(pid);
    let cpu0 = procfs::process_cpu_s(pid);
    let metrics = census.reactor.metrics();
    let before = metrics.snapshot();
    let hub = census.tiers.as_ref().map(|t| Arc::clone(&t.hub));
    let (emitted0, dropped0) = hub.as_ref().map_or((0, 0), |h| (h.emitted(), h.dropped()));
    let served0 = census.world.testbed.authority().queries_served();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut run = Loop::new();
    let mut sweeps_ms = Vec::new();
    let mut sweep = 0u64;
    while Instant::now() < deadline {
        let t = Instant::now();
        let mut quiet = Tracer::new(false);
        let tracer = if tr.enabled() && sweep.is_multiple_of(TRACE_EVERY) {
            &mut *tr
        } else {
            &mut quiet
        };
        if !run.sweep(&census.reactor, &census.honey, SWEEP, tracer, true) {
            break;
        }
        sweeps_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sweep += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = metrics.snapshot();
    ledger.sample();
    let serving = &census.world.serving_tids;
    let cpu = Cpu {
        total: procfs::process_cpu_s(pid) - cpu0,
        reactor: ledger.cpu_s(|_, comm| comm.starts_with("cde-reactor")),
        serving: ledger.cpu_s(|tid, _| serving.contains(&tid)),
        obs: ledger.cpu_s(|_, comm| comm == "perfbench-obs"),
        load: ledger.cpu_s(|tid, _| tid == pid),
    };
    let (emitted1, dropped1) = hub.as_ref().map_or((0, 0), |h| (h.emitted(), h.dropped()));
    Window {
        probes: run.probes,
        bad: run.bad,
        sweeps_ms,
        rtt_us: run.rtt_us,
        wall_s,
        cpu,
        before,
        after,
        emitted: emitted1 - emitted0,
        dropped: dropped1 - dropped0,
        upstream: census.world.testbed.authority().queries_served() - served0,
    }
}

fn checks(report: &mut Report, w: &Window) {
    report.attempted += w.probes;
    report.failed += w.bad;
    if w.bad > 0 {
        eprintln!(
            "perfbench: {} census probes failed the exactly-once answered check",
            w.bad
        );
    }
    report.check(!w.sweeps_ms.is_empty(), || {
        "no census sweep completed".into()
    });
}

pub fn run(cfg: &Config, report: &mut Report) {
    let start = Instant::now();
    let mut census = setup(cfg.seed, true, cfg.trace, report);
    let first_setup_s = start.elapsed().as_secs_f64();
    let mut tr = Tracer::new(cfg.trace);
    let share = if cfg.trace { 0.5 } else { 1.0 };
    let w = measure(&census, cfg.seconds * share, &mut tr);
    checks(report, &w);
    let probes = w.probes.max(1) as f64;
    let rtt = w.rtt_us.finish();
    let tte = Dist::of(&w.sweeps_ms, SWEEP_WINDOW);
    // Rates from the median sweep, so a stall from outside the program
    // moves one sweep, not the reported rate.
    let sweep_s = tte.p50 / 1e3;
    report.set("probes_per_s", SWEEP as f64 / sweep_s);
    report.set("cpu_us_per_probe", w.cpu.total * 1e6 / probes);
    report.set("rtt_p50_us", rtt.p50);
    report.set("rtt_tail_us", rtt.tail);
    report.set("tte_p50_ms", tte.p50);
    report.set("tte_tail_ms", tte.tail);
    report.set("queries_to_exact", SWEEP as f64);
    report.set("campaigns_per_s", 1.0 / sweep_s);
    report.set("peak_rss_mb", procfs::peak_rss_mb(std::process::id()));
    report.detail(
        "tails",
        format!(
            "{{\"rtt_tail_us\": {}, \"tte_tail_ms\": {}}}",
            rtt.tail_json(),
            tte.tail_json()
        ),
    );
    if !cfg.trace {
        // The other set-ups come after the window, away from whatever
        // the host ran just before this process.
        drop(census);
        let mut setups = vec![first_setup_s];
        for _ in 1..SETUPS {
            let start = Instant::now();
            let spare = setup(cfg.seed, true, false, report);
            setups.push(start.elapsed().as_secs_f64());
            drop(spare);
        }
        report.set_setups(&setups);
        return;
    }

    // Traced run: the layer ledger of the window above (tiers and phase
    // timers on, spans recorded), then tiers off and tiers on untraced
    // for the observability cost and the tracing overhead.
    let drain_ns = census.tiers.as_mut().map_or(0, Tiers::stop);
    if let Some(insight) = census.reactor.insight() {
        world::phase_layer(report, insight.phases());
    }
    world::reactor_layer(
        report,
        &w.before,
        &w.after,
        probes,
        w.wall_s,
        census.reactor.shards(),
    );
    let submit_ns: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "reactor.submit")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    report.set("reactor.submit_ns_p50", stats::median(&submit_ns));
    report.set(
        "reactor.shard_cpu_us_per_probe",
        w.cpu.reactor * 1e6 / probes,
    );
    report.set("serving.cpu_us_per_probe", w.cpu.serving * 1e6 / probes);
    report.set(
        "serving.upstream_per_campaign",
        w.upstream as f64 / w.sweeps_ms.len().max(1) as f64,
    );
    report.set("obs.events_per_probe", w.emitted as f64 / probes);
    report.set("obs.events_dropped", w.dropped as f64);
    report.set("obs.drain_us_per_probe", drain_ns as f64 / 1e3 / probes);
    let load = w.cpu.load * 1e6 / probes;
    let other =
        (w.cpu.total - w.cpu.reactor - w.cpu.serving - w.cpu.obs - w.cpu.load) * 1e6 / probes;
    report.set("ledger.load_cpu_us_per_probe", load);
    report.set("ledger.other_cpu_us_per_probe", other);
    let addr = census
        .world
        .testbed
        .resolver()
        .addr_of(world::INGRESS)
        .expect("ingress bound");
    let (floor, reply) = world::floor_rtt(addr, &census.honey, 2000);
    report.set("serving.floor_rtt_us", floor);
    report.set("reactor.added_rtt_us", rtt.p50 - floor);
    report.set("reactor.rtt_p99_us", rtt.p99);
    world::codec_ns(&census.honey, &reply, report);
    let seg = cfg.seconds * 0.25;
    let off = setup(cfg.seed, false, false, report);
    let w_off = measure(&off, seg, &mut Tracer::new(false));
    checks(report, &w_off);
    drop(off);
    let on = setup(cfg.seed, true, false, report);
    let w_on = measure(&on, seg, &mut Tracer::new(false));
    checks(report, &w_on);
    drop(on);
    let per_probe = |w: &Window| w.cpu.total * 1e6 / w.probes.max(1) as f64;
    let pps = |w: &Window| SWEEP as f64 * 1e3 / stats::median(&w.sweeps_ms);
    report.set(
        "obs.cost_us_per_probe",
        per_probe(&w_on) - per_probe(&w_off),
    );
    report.set("harness.tracing_overhead_frac", 1.0 - pps(&w) / pps(&w_on));
    report.set("harness.fail_frac", report.fail_frac());
    let ledger = format!(
        "{{\"cpu_us_per_probe\": {:.4}, \"reactor_shards\": {:.4}, \"serving_chain\": {:.4}, \"observability_thread\": {:.4}, \"load_thread\": {:.4}, \"other_threads\": {:.4}, \"phase_ns_per_probe\": {:.1}}}",
        w.cpu.total * 1e6 / probes,
        w.cpu.reactor * 1e6 / probes,
        w.cpu.serving * 1e6 / probes,
        w.cpu.obs * 1e6 / probes,
        load,
        other,
        census.reactor.insight().map_or(0.0, |i| phase_ns_per_probe(i.phases(), probes)),
    );
    report.detail("cpu_ledger", ledger);
    report.detail("span_self_ns", trace::self_times_json(tr.spans()));
    let missing = report.missing(crate::report::PER_LAYER);
    report.detail("not_applicable", json_names(&missing));
    let path = cfg
        .out_dir
        .join(format!("census_flood-{}-spans.jsonl", cfg.seed));
    tr.write_jsonl(&path).expect("write spans");
}

/// Sampled phase time summed over every call, per probe: the share of
/// shard CPU the six instrumented phases explain.
fn phase_ns_per_probe(phases: &cde_insight::PhaseProfiler, probes: f64) -> f64 {
    phases
        .snapshot()
        .iter()
        .map(|s| {
            s.mean()
                .map_or(0.0, |m| m.as_nanos() as f64 * s.calls as f64)
        })
        .sum::<f64>()
        / probes
}
