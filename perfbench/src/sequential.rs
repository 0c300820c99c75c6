//! `sequential_enum` and `lossy_exact`: back-to-back
//! `enumerate_sequential` campaigns (ε = 0.001, adaptive RTO, n_max
//! hint 16) over the live loopback testbed, one probe in flight. Each
//! campaign opens a fresh session, so every cache's first touch misses
//! upstream, and must count exactly the planted caches.
//!
//! `sequential_enum` runs a clean wire against 8 caches: the program
//! mostly waits, so shard park/wake and the RTT the engine adds set the
//! time. `lossy_exact` puts a 30% Gilbert–Elliott loss plan (mean burst
//! 3) on the query path in front of 5 caches: retransmit deadlines set
//! the time.

use crate::procfs::{self, ThreadLedger};
use crate::report::{json_names, Report};
use crate::stats::{self, Dist};
use crate::trace::{self, Tracer};
use crate::world::{self, World};
use crate::Config;
use cde_core::{
    enumerate_sequential, AccessChannel, AccessProvider, EnumerateOptions, ProbePlan,
    TriggerOutcome,
};
use cde_dns::Name;
use cde_engine::{
    AdaptiveRtoConfig, InsightOptions, ReactorConfig, ReactorTransport, RetryPolicy, Transport,
};
use cde_faults::FaultPlan;
use cde_netsim::SimTime;
use cde_platform::NameserverNet;
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Residual failure probability of the sequential stopping rule.
const EPSILON: f64 = 0.001;
/// The cache-count bound the operator budgets for.
const N_MAX: u64 = 16;
/// Gilbert–Elliott loss rate and mean burst of `lossy_exact`.
const LOSS: f64 = 0.30;
const BURST: f64 = 3.0;
/// The loss plan is part of the workload's definition, like its rate:
/// campaign `k` of loop `i` meets the plan seeded `LOSS_SEED + 1000 i +
/// k` whatever the run's seed, so runs differ in testbed and sessions,
/// not in which bursts the wire drops.
const LOSS_SEED: u64 = 17;
/// How long an undercounting campaign's late honey fetches may take to
/// reach the measurement side before the count is judged.
const SETTLE: Duration = Duration::from_millis(50);
/// Set-ups per untraced run: the warm-up's, the window's, then the rest
/// after the window; `setup_s` is their median.
const SETUPS: usize = 9;
/// Seconds of campaigns before the measured window, on chains that are
/// then set aside. Right after a busy stretch of the host (such as a
/// `census_flood` run just before), each idle wake-up of the shard and
/// resolver threads costs about half as much CPU again for several
/// seconds; the warm-up takes that in (see README.md).
const WARM_UP_S: f64 = 10.0;
/// Warm-up queries per set-up: about 50 ms on a clean wire, so set-up
/// time measures work rather than thread-spawn jitter.
const WARM_QUERIES: usize = 80;
/// Seed step between a loop's successive serving chains.
const RESEED: u64 = 1000;

/// The static retry schedule of the campaign workloads: the timeout an
/// operator would pick without RTT knowledge; the adaptive RTO table
/// only tightens below it.
fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        timeout: Duration::from_millis(100),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Clean,
    Lossy,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Clean => "sequential_enum",
            Kind::Lossy => "lossy_exact",
        }
    }

    fn caches(self) -> usize {
        match self {
            Kind::Clean => 8,
            Kind::Lossy => 5,
        }
    }

    /// Campaign loops run side by side, one load thread each: a lossy
    /// campaign takes seconds, so two loops halve the run length that a
    /// steady median needs.
    fn loops(self) -> usize {
        match self {
            Kind::Clean => 1,
            Kind::Lossy => 2,
        }
    }

    /// Campaigns one serving chain serves before a fresh one replaces
    /// it, outside the measured time. Every campaign leaves its session
    /// in the zone, and a new session's first probe ships a copy of
    /// every zone server to the serving threads, so CPU per campaign
    /// climbs with each campaign a chain has served: over a 60 s run on
    /// one chain the process's CPU per second more than triples (see
    /// README.md). A fixed quota makes every figure an average over the
    /// same campaigns, whatever number of them the host's speed fits
    /// into the run. `lossy_exact`'s loops serve about 25 campaigns a
    /// run each and keep their chains.
    fn bed_campaigns(self) -> Option<usize> {
        match self {
            Kind::Clean => Some(100),
            Kind::Lossy => None,
        }
    }

    fn plan(self) -> ProbePlan {
        match self {
            Kind::Clean => ProbePlan::for_target(N_MAX, 0.0),
            Kind::Lossy => ProbePlan::for_bursty_target(N_MAX, LOSS, BURST),
        }
    }
}

/// The engine's access channel with the benchmark's clock around each
/// trigger: counts queries, keeps the engine-measured RTT of answered
/// ones, and (traced) records one span per trigger under the campaign.
struct TimedAccess<'a, A> {
    inner: A,
    tr: &'a mut Tracer,
    parent: u32,
    group: u64,
    queries: u64,
    rtt_us: &'a mut Vec<f64>,
}

impl<A: AccessChannel> AccessChannel for TimedAccess<'_, A> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        let span = self.tr.begin("engine.trigger", self.parent, self.group);
        let out = self.inner.trigger(qname, now);
        self.tr.end(span);
        self.queries += 1;
        if let TriggerOutcome::Delivered { latency: Some(l) } = out {
            self.rtt_us.push(l.as_micros() as f64);
        }
        out
    }

    fn net(&self) -> &NameserverNet {
        self.inner.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.inner.net_mut()
    }

    fn measures_latency(&self) -> bool {
        self.inner.measures_latency()
    }
}

/// Samples per window of the RTT tail.
fn rtt_window(kind: Kind) -> usize {
    match kind {
        // ~1500 answered probes a second: p95 with 10 beyond. About 1–3%
        // of probes wait a millisecond or more for a sleeping thread to
        // wake (the shard's nap, the resolver's poll sleep) on the two
        // contended cores, and that share swings between runs, so any
        // p99 moves by half between runs; the whole-run p99 is the
        // traced run's `reactor.rtt_p99_us` (see README.md).
        Kind::Clean => 200,
        // ~60 a second: p90 with 12 beyond.
        Kind::Lossy => 128,
    }
}

/// Campaigns per window of the campaign-time tail.
fn tte_window(kind: Kind) -> usize {
    match kind {
        // About 400 campaigns a run: p90 with 10 beyond, four windows,
        // one per serving chain. A slow spell of the host lifts the tail
        // of every campaign it covers; a median over windows lets one
        // spell move one window.
        Kind::Clean => 100,
        // About 40 campaigns a run: two windows of 20, whose tail is
        // the p50 (the highest percentile with ten campaigns beyond). A
        // single window of the whole run would step from p50 to p75 at
        // 40 campaigns, between one run and the next.
        Kind::Lossy => 20,
    }
}

/// One campaign loop: a serving chain and the reactor transport over it.
struct Bed {
    kind: Kind,
    seed: u64,
    loop_index: usize,
    insight: bool,
    world: World,
    transport: ReactorTransport,
    /// The threads of `transport`'s reactor.
    reactor_tids: HashSet<u32>,
}

impl Bed {
    /// Launches the loop's serving chain, warms it with [`WARM_QUERIES`]
    /// queries over a clean reactor (first touches of every cache,
    /// resolver and authority paths), then starts the workload's reactor.
    fn new(kind: Kind, seed: u64, loop_index: usize, insight: bool) -> Bed {
        let bed_seed = seed.wrapping_add(loop_index as u64);
        let (mut world, _) = world::launch(bed_seed, vec![world::INGRESS], kind.caches(), false);
        {
            let (mut warm, _) = Bed::transport(&world, Kind::Clean, bed_seed, loop_index, 0, false);
            let session = world.infra.new_session(warm.net_mut(), 0);
            let mut access = warm.channel(world::INGRESS);
            for _ in 0..WARM_QUERIES {
                access.trigger(&session.honey, SimTime::ZERO);
            }
        }
        let (transport, reactor_tids) =
            Bed::transport(&world, kind, bed_seed, loop_index, 0, insight);
        Bed {
            kind,
            seed: bed_seed,
            loop_index,
            insight,
            world,
            transport,
            reactor_tids,
        }
    }

    /// A reactor transport over `world`. `lossy_exact` wears the loss
    /// plan of its loop and campaign number.
    fn transport(
        world: &World,
        kind: Kind,
        seed: u64,
        loop_index: usize,
        campaign: u64,
        insight: bool,
    ) -> (ReactorTransport, HashSet<u32>) {
        let plan_seed = LOSS_SEED + 1000 * loop_index as u64 + campaign;
        let config = ReactorConfig {
            adaptive: Some(AdaptiveRtoConfig::default()),
            faults: (kind == Kind::Lossy).then(|| FaultPlan::bursty(plan_seed, LOSS, BURST)),
            insight: insight.then(InsightOptions::default),
            ..ReactorConfig::with_policy(policy(), seed)
        };
        world::new_threads(|| {
            world
                .testbed
                .reactor_transport(config)
                .expect("reactor transport launches")
        })
    }

    /// Before campaign `campaign` of a `lossy_exact` loop: a fresh
    /// reactor, so the campaign meets its own loss plan from the start.
    /// Returns the outgoing reactor's final counters and the CPU its
    /// threads used.
    fn renew(&mut self, campaign: u64) -> Option<(cde_engine::MetricsSnapshot, f64)> {
        if self.kind != Kind::Lossy || campaign == 0 {
            return None;
        }
        let pid = std::process::id();
        let last = (
            self.transport.reactor().metrics().snapshot(),
            procfs::threads_cpu_s(pid, &self.reactor_tids),
        );
        let (transport, tids) = Bed::transport(
            &self.world,
            self.kind,
            self.seed,
            self.loop_index,
            campaign,
            self.insight,
        );
        self.transport = transport;
        self.reactor_tids = tids;
        Some(last)
    }
}

fn setup_all(kind: Kind, seed: u64, insight: bool) -> Vec<Bed> {
    (0..kind.loops())
        .map(|i| Bed::new(kind, seed, i, insight))
        .collect()
}

/// Folds the final counters of one more reactor into `acc`: counts add
/// up, peaks take the highest.
fn absorb_counters(acc: &mut cde_engine::MetricsSnapshot, other: &cde_engine::MetricsSnapshot) {
    let ring = acc.ring_depth_peak.max(other.ring_depth_peak);
    let wheel = acc.wheel_pending_peak.max(other.wheel_pending_peak);
    acc.merge_from(other);
    acc.ring_depth_peak = ring;
    acc.wheel_pending_peak = wheel;
}

/// One loop's campaigns over a window.
struct Window {
    tte_ms: Vec<f64>,
    queries: Vec<f64>,
    planner_probes: Vec<f64>,
    rtt_us: Vec<f64>,
    /// Engine counters over the window, over every reactor it used (each
    /// starts from zero).
    counters: cde_engine::MetricsSnapshot,
    reactor_cpu_s: f64,
    query_drops: u64,
    upstream: u64,
    undercounts: u64,
    last_honey: Option<Name>,
}

impl Window {
    /// Appends a later window of the same loop.
    fn absorb(&mut self, later: Window) {
        self.tte_ms.extend(later.tte_ms);
        self.queries.extend(later.queries);
        self.planner_probes.extend(later.planner_probes);
        self.rtt_us.extend(later.rtt_us);
        absorb_counters(&mut self.counters, &later.counters);
        self.reactor_cpu_s += later.reactor_cpu_s;
        self.query_drops += later.query_drops;
        self.upstream += later.upstream;
        self.undercounts += later.undercounts;
        self.last_honey = later.last_honey.or(self.last_honey.take());
    }
}

/// Every loop's campaigns plus the process-wide readings around them.
struct Run {
    loops: Vec<Window>,
    wall_s: f64,
    cpu_s: f64,
    serving_cpu_s: f64,
    /// CPU of this thread, which runs loop 0.
    lead_cpu_s: f64,
    /// CPU per probe (µs) of each segment, i.e. of each serving chain
    /// loop 0 used, in order.
    segment_cpu_us: Vec<f64>,
}

impl Run {
    fn all(&self, f: impl Fn(&Window) -> &Vec<f64>) -> Vec<f64> {
        self.loops
            .iter()
            .flat_map(|w| f(w).iter().copied())
            .collect()
    }

    fn queries(&self) -> f64 {
        self.all(|w| &w.queries).iter().sum()
    }

    /// Appends a later segment of the same loops.
    fn absorb(&mut self, later: Run) {
        for (w, l) in self.loops.iter_mut().zip(later.loops) {
            w.absorb(l);
        }
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
        self.serving_cpu_s += later.serving_cpu_s;
        self.lead_cpu_s += later.lead_cpu_s;
        self.segment_cpu_us.extend(later.segment_cpu_us);
    }
}

/// Campaigns back to back on one bed until `deadline` or the bed's
/// quota; the first is number `first` of its loop.
fn campaigns(
    bed: &mut Bed,
    deadline: Instant,
    first: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Window {
    let kind = bed.kind;
    let pid = std::process::id();
    let served0 = bed.world.testbed.authority().queries_served();
    let plan = kind.plan();
    let opts = EnumerateOptions {
        probes: plan.probes,
        redundancy: plan.redundancy,
        ..EnumerateOptions::default()
    };
    let zero = cde_engine::EngineMetrics::new().snapshot();
    let mut w = Window {
        tte_ms: Vec::new(),
        queries: Vec::new(),
        planner_probes: Vec::new(),
        rtt_us: Vec::new(),
        counters: zero,
        reactor_cpu_s: -procfs::threads_cpu_s(pid, &bed.reactor_tids),
        query_drops: 0,
        upstream: 0,
        undercounts: 0,
        last_honey: None,
    };
    let quota = kind.bed_campaigns().unwrap_or(usize::MAX) as u64;
    let mut campaign = 0u64;
    while Instant::now() < deadline && campaign < quota {
        if let Some((snap, cpu)) = bed.renew(campaign) {
            absorb_counters(&mut w.counters, &snap);
            w.reactor_cpu_s += cpu;
        }
        campaign += 1;
        let number = first + campaign;
        // The measurement side's query log only serves this campaign's
        // count; clearing it keeps each count's cost independent of how
        // many campaigns ran before.
        bed.world.infra.clear_observations(bed.transport.net_mut());
        let session = bed.world.infra.new_session(bed.transport.net_mut(), 0);
        let t0 = Instant::now();
        let span = tr.begin("core.campaign", 0, number);
        let (result, queries) = {
            let mut access = TimedAccess {
                inner: bed.transport.channel(world::INGRESS),
                tr: &mut *tr,
                parent: span.id(),
                group: number,
                queries: 0,
                rtt_us: &mut w.rtt_us,
            };
            let r = enumerate_sequential(
                &mut access,
                &bed.world.infra,
                &session,
                opts,
                EPSILON,
                SimTime::ZERO,
            );
            (r, access.queries)
        };
        tr.end(span);
        w.tte_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        w.queries.push(queries as f64);
        w.planner_probes.push(result.planner.probes() as f64);
        // The stopping rule returns the exact count with probability at
        // least 1 - ε: a cache it never touched is within its contract
        // (counted against the run's budget in `measure`); an overcount
        // never is.
        let observed = result.enumeration.observed;
        let planted = kind.caches() as u64;
        report.check(observed <= planted, || {
            format!(
                "{} campaign {number} counted {observed} caches, planted {planted}",
                kind.name()
            )
        });
        if observed < planted {
            // A honey fetch that reached the authority but not the count
            // is a lost observation, never an ε miss: it fails.
            std::thread::sleep(SETTLE);
            bed.transport.drain_serving_observations();
            let reached = bed
                .world
                .infra
                .count_honey_fetches(bed.transport.net(), &session.honey)
                as u64;
            eprintln!(
                "perfbench: {} campaign {number} counted {observed} of {planted} caches; {reached} honey fetches reached the authority",
                kind.name()
            );
            report.check(reached == observed, || {
                format!(
                    "{} campaign {number}: {reached} honey fetches reached the authority, the count saw {observed}",
                    kind.name()
                )
            });
            if reached == observed {
                w.undercounts += 1;
            }
        }
        w.last_honey = Some(session.honey);
        if kind == Kind::Lossy {
            w.query_drops += bed
                .transport
                .reactor()
                .fault_stats()
                .map_or(0, |f| f.query_drops());
        }
    }
    absorb_counters(
        &mut w.counters,
        &bed.transport.reactor().metrics().snapshot(),
    );
    w.reactor_cpu_s += procfs::threads_cpu_s(pid, &bed.reactor_tids);
    w.upstream = bed.world.testbed.authority().queries_served() - served0;
    w
}

/// Runs every loop for `seconds` of measured time: loop 0 on this
/// thread (traced when the tracer is on), the others on one thread
/// each. When loop 0 has served its bed's quota of campaigns, a fresh
/// bed replaces it outside the measured time (wall and CPU) and the
/// loop goes on. The undercount check's figures go on the detail line
/// under `label`.
fn measure(
    beds: &mut [Bed],
    seconds: f64,
    tr: &mut Tracer,
    report: &mut Report,
    label: &str,
) -> Run {
    let mut run = segment(beds, seconds, 0, tr, report);
    while run.wall_s < seconds {
        debug_assert_eq!(beds.len(), 1, "only a single loop has a bed quota");
        let old = &beds[0];
        beds[0] = Bed::new(old.kind, old.seed.wrapping_add(RESEED), 0, old.insight);
        let first = run.loops[0].tte_ms.len() as u64;
        let later = segment(beds, seconds - run.wall_s, first, tr, report);
        run.absorb(later);
    }
    let campaigns: u64 = run.loops.iter().map(|w| w.tte_ms.len() as u64).sum();
    let undercounts: u64 = run.loops.iter().map(|w| w.undercounts).sum();
    let budget = stats::miss_budget(campaigns, EPSILON, EPSILON);
    report.check(undercounts <= budget, || {
        format!(
            "{undercounts} of {campaigns} campaigns undercounted; ε = {EPSILON} allows {budget}"
        )
    });
    report.detail(
        label,
        format!(
            "{{\"campaigns\": {campaigns}, \"undercounts\": {undercounts}, \"epsilon\": {EPSILON}, \"undercount_budget\": {budget}}}"
        ),
    );
    run
}

/// One stretch of [`measure`]: every loop's campaigns on its current
/// bed, for at most `seconds`; loop 0 numbers its campaigns from `first`.
fn segment(
    beds: &mut [Bed],
    seconds: f64,
    first: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Run {
    let pid = std::process::id();
    let mut ledger = ThreadLedger::open(pid);
    let cpu0 = procfs::own_cpu_s();
    let serving: HashSet<u32> = beds
        .iter()
        .flat_map(|b| b.world.serving_tids.iter().copied())
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (lead, others) = beds.split_first_mut().expect("at least one loop");
    let loops = std::thread::scope(|s| {
        let handles: Vec<_> = others
            .iter_mut()
            .map(|bed| {
                s.spawn(move || {
                    let mut own = Report::default();
                    let w = campaigns(bed, deadline, 0, &mut Tracer::new(false), &mut own);
                    (w, own)
                })
            })
            .collect();
        let mut loops = vec![campaigns(lead, deadline, first, tr, report)];
        for h in handles {
            let (w, own) = h.join().expect("campaign loop");
            report.attempted += own.attempted;
            report.failed += own.failed;
            loops.push(w);
        }
        loops
    });
    let wall_s = start.elapsed().as_secs_f64();
    ledger.sample();
    let cpu_s = procfs::own_cpu_s() - cpu0;
    let queries: f64 = loops.iter().flat_map(|w| &w.queries).sum();
    Run {
        loops,
        wall_s,
        cpu_s,
        serving_cpu_s: ledger.cpu_s(|tid, _| serving.contains(&tid)),
        lead_cpu_s: ledger.cpu_s(|tid, _| tid == pid),
        segment_cpu_us: vec![cpu_s * 1e6 / queries.max(1.0)],
    }
}

pub fn run(cfg: &Config, report: &mut Report, kind: Kind) {
    let start = Instant::now();
    let mut beds = setup_all(kind, cfg.seed, false);
    let mut setups = vec![start.elapsed().as_secs_f64()];
    measure(
        &mut beds,
        WARM_UP_S,
        &mut Tracer::new(false),
        report,
        "warm_up",
    );
    drop(beds);
    let start = Instant::now();
    let mut beds = setup_all(kind, cfg.seed, cfg.trace);
    setups.push(start.elapsed().as_secs_f64());
    let mut tr = Tracer::new(cfg.trace);
    let share = if cfg.trace { 0.6 } else { 1.0 };
    let r = measure(
        &mut beds,
        cfg.seconds * share,
        &mut tr,
        report,
        "exact_count",
    );
    let tte_all = r.all(|w| &w.tte_ms);
    report.check(!tte_all.is_empty(), || "no campaign completed".into());
    let queries = r.queries().max(1.0);
    let rtt = Dist::of(&r.all(|w| &w.rtt_us), rtt_window(kind));
    let tte = Dist::of(&tte_all, tte_window(kind));
    report.set("probes_per_s", queries / r.wall_s);
    report.set("cpu_us_per_probe", r.cpu_s * 1e6 / queries);
    report.set("rtt_p50_us", rtt.p50);
    report.set("rtt_tail_us", rtt.tail);
    report.set("tte_p50_ms", tte.p50);
    report.set("tte_tail_ms", tte.tail);
    report.set("queries_to_exact", stats::median(&r.all(|w| &w.queries)));
    report.set("campaigns_per_s", tte_all.len() as f64 / r.wall_s);
    report.set("peak_rss_mb", procfs::peak_rss_mb(std::process::id()));
    let per_chain: Vec<String> = r.segment_cpu_us.iter().map(|c| format!("{c:.1}")).collect();
    report.detail(
        "cpu_us_per_probe_by_chain",
        format!("[{}]", per_chain.join(", ")),
    );
    let reactor_cpu_s: f64 = r.loops.iter().map(|w| w.reactor_cpu_s).sum();
    let us = |s: f64| s * 1e6 / queries;
    report.detail(
        "cpu_split_us_per_probe",
        format!(
            "{{\"lead_thread\": {:.2}, \"reactor\": {:.2}, \"serving\": {:.2}, \"other\": {:.2}}}",
            us(r.lead_cpu_s),
            us(reactor_cpu_s),
            us(r.serving_cpu_s),
            us(r.cpu_s - r.lead_cpu_s - reactor_cpu_s - r.serving_cpu_s)
        ),
    );
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
        drop(beds);
        while setups.len() < SETUPS {
            let start = Instant::now();
            let spare = setup_all(kind, cfg.seed, false);
            setups.push(start.elapsed().as_secs_f64());
            drop(spare);
        }
        report.set_setups(&setups);
        return;
    }

    // Per-layer figures come from loop 0, the traced one.
    let w = &r.loops[0];
    let bed = &beds[0];
    let reactor = bed.transport.reactor();
    let campaigns = w.tte_ms.len().max(1) as f64;
    let loop_queries = w.queries.iter().sum::<f64>().max(1.0);
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let before = &cde_engine::EngineMetrics::new().snapshot();
    let after = &w.counters;
    world::reactor_layer(
        report,
        before,
        after,
        loop_queries,
        r.wall_s,
        reactor.shards(),
    );
    if let Some(insight) = reactor.insight() {
        world::phase_layer(report, insight.phases());
    }
    report.set(
        "reactor.shard_cpu_us_per_probe",
        reactor_cpu_s * 1e6 / queries,
    );
    report.set("serving.cpu_us_per_probe", r.serving_cpu_s * 1e6 / queries);
    report.set(
        "serving.upstream_per_campaign",
        w.upstream as f64 / campaigns,
    );
    report.set(
        "rto.retransmits_per_campaign",
        d(after.retries, before.retries) / campaigns,
    );
    report.set(
        "rto.backoffs",
        d(after.rto_backoffs, before.rto_backoffs) / campaigns,
    );
    report.set(
        "rto.useful_ratio",
        d(after.received, before.received) / d(after.sent, before.sent).max(1.0),
    );
    if let Some((_, snap)) = reactor.rto().and_then(|t| t.snapshots().into_iter().next()) {
        report.set("rto.srtt_us", snap.srtt_us as f64);
        report.set("rto.rto_ms", snap.rto_us as f64 / 1e3);
    }
    if kind == Kind::Lossy {
        report.set("faults.query_dropped", w.query_drops as f64 / campaigns);
    }
    // Core self time: each campaign's span minus its triggers' spans.
    let mut per_group: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in tr.spans() {
        let e = per_group.entry(s.group).or_default();
        match s.name {
            "core.campaign" => e.0 += s.end_ns - s.start_ns,
            _ => e.1 += s.end_ns - s.start_ns,
        }
    }
    let self_ms: Vec<f64> = per_group
        .values()
        .map(|&(campaign, triggers)| campaign.saturating_sub(triggers) as f64 / 1e6)
        .collect();
    report.set("core.self_ms_per_campaign", stats::median(&self_ms));
    report.set("core.planner_probes", stats::median(&w.planner_probes));
    let undercounts: u64 = r.loops.iter().map(|w| w.undercounts).sum();
    report.set(
        "core.undercount_frac",
        undercounts as f64 / tte_all.len().max(1) as f64,
    );
    let honey = w.last_honey.clone().expect("a campaign ran");
    let addr = bed
        .world
        .testbed
        .resolver()
        .addr_of(world::INGRESS)
        .expect("ingress bound");
    let (floor, reply) = world::floor_rtt(addr, &honey, 2000);
    report.set("serving.floor_rtt_us", floor);
    report.set("reactor.added_rtt_us", rtt.p50 - floor);
    report.set("reactor.rtt_p99_us", rtt.p99);
    world::codec_ns(&honey, &reply, report);
    report.detail("span_self_ns", trace::self_times_json(tr.spans()));
    let path = cfg
        .out_dir
        .join(format!("{}-{}-spans.jsonl", kind.name(), cfg.seed));
    tr.write_jsonl(&path).expect("write spans");
    drop(beds);
    // The same loops untraced, phase timers off, for the tracing overhead.
    let mut plain = setup_all(kind, cfg.seed, false);
    let u = measure(
        &mut plain,
        cfg.seconds * (1.0 - share),
        &mut Tracer::new(false),
        report,
        "exact_count_untraced",
    );
    let rate = |r: &Run| r.queries() / r.wall_s;
    report.set("harness.tracing_overhead_frac", 1.0 - rate(&r) / rate(&u));
    report.set("harness.fail_frac", report.fail_frac());
    let missing = report.missing(crate::report::PER_LAYER);
    report.detail("not_applicable", json_names(&missing));
}
