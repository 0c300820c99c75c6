//! One reactor shard: an independent event loop owning its sockets,
//! correlation slab, timer wheel and buffer pool.
//!
//! The sharded reactor (see [`crate::reactor`]) runs N of these, one per
//! core. Nothing on a shard's hot path is shared with another shard:
//! probes arrive over a per-shard lock-free ring ([`cde_sysio::MpscRing`]),
//! partitioned by [`shard_for_target`] so every probe for a given target
//! ingress always lands on the same shard (and therefore the same socket
//! pool and correlation slab — replies can only match where the query
//! was sent from). The only cross-shard structures are intrinsically
//! mergeable: the per-shard [`MetricsBlock`], the shared telemetry hub,
//! the shared rate limiter (per-ingress buckets, each owned by exactly
//! one shard's targets), and the insight digest set (lock-free atomics).
//!
//! The loop writes no per-probe view itself. Each lifecycle transition
//! — admitted unroutable, sent, retried, dropped by the fault layer,
//! rejected by a correlation check, completed — is one
//! [`ProbeRecord`] handed to the shard's [`ProbeObserver`], which alone
//! decides what the counters, the event stream, the flight ring, the
//! RTT digests and the exemplar reservoir see (see `observe.rs`).

use crate::bufpool::BufferPool;
use crate::metrics::MetricsBlock;
use crate::observe::{clamp_u16, micros, Datagram, ProbeFields, ProbeObserver, ProbeRecord};
use crate::ratelimit::RateLimiter;
use crate::reactor::{ProbeCompletion, ReactorInsight};
use crate::retry::RetryPolicy;
use crate::rto::RtoTable;
use crate::timer::TimerWheel;
use crate::transport::TransportReply;
use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, RecordType};
use cde_faults::{refused_reply, Direction, FaultInjector, FaultPlan, Verdict};
use cde_insight::Phase;
use cde_netsim::{DetRng, SimDuration};
use cde_sysio::{MpscRing, RecvSlot, SendItem, MAX_BATCH};
use crossbeam::channel::Sender;
use rand::Rng;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Timer-wheel granularity. Deadlines and backoffs are millisecond-scale,
/// so a 1 ms tick wastes no precision the wire could deliver.
pub(crate) const TICK: Duration = Duration::from_millis(1);
/// Idle sleep while probes are in flight (lets the loopback serving
/// threads run on small machines; bounds added reply latency).
const BUSY_IDLE: Duration = Duration::from_micros(500);
/// Idle sleep with nothing in flight; bounds shutdown latency.
const DRAINED_IDLE: Duration = Duration::from_millis(20);

/// Picks the shard that owns `ingress`, out of `shards`.
///
/// The partition is a stable FNV-1a hash of the address octets: pure,
/// total (every ingress maps to exactly one shard below `shards`) and
/// independent of process state, so a submitter, a test and a resumed
/// campaign all agree on placement. Replies arrive on the socket that
/// sent the query, so partitioning by target keeps correlation entirely
/// shard-local.
pub fn shard_for_target(ingress: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in ingress.octets() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Wakes a parked shard loop when work arrives.
///
/// The submitter and the loop run the classic sleeping-consumer
/// handshake: the loop publishes `sleeping = true` (SeqCst), then
/// re-checks its ring before parking; a producer pushes, then checks
/// `sleeping` (SeqCst) and unparks. The SeqCst total order rules out
/// the lost-wakeup interleaving, and `unpark` before `park` leaves a
/// token, so even a race inside `park_timeout` costs nothing. Staleness
/// is additionally bounded by the loop's idle timeout.
#[derive(Debug)]
pub(crate) struct ShardWaker {
    sleeping: AtomicBool,
    thread: OnceLock<Thread>,
    /// Time base for the wake stamp below (`Instant` can't live in an
    /// atomic, so wakes are stamped as nanoseconds since this epoch).
    epoch: Instant,
    /// Nanoseconds-since-epoch of the last producer wake, 0 when none is
    /// outstanding. The woken loop swaps it back to 0 and the difference
    /// is the wake-to-first-poll latency.
    wake_at_nanos: AtomicU64,
}

impl Default for ShardWaker {
    fn default() -> ShardWaker {
        ShardWaker {
            sleeping: AtomicBool::new(false),
            thread: OnceLock::new(),
            epoch: Instant::now(),
            wake_at_nanos: AtomicU64::new(0),
        }
    }
}

/// What one [`ShardWaker::park`] call did, for the shard's runtime
/// telemetry.
pub(crate) struct ParkOutcome {
    /// How long the loop actually slept.
    pub(crate) slept: Duration,
    /// Unpark-to-resume latency, when a producer's wake ended the sleep
    /// (absent on plain timeouts).
    pub(crate) wake_latency: Option<Duration>,
}

impl ShardWaker {
    /// Binds the waker to the calling thread (the shard loop, once).
    fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    fn now_nanos(&self) -> u64 {
        // `max(1)`: 0 means "no wake outstanding".
        (self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64).max(1)
    }

    /// Producer side: unparks the loop if it is (or is about to be)
    /// parked. Cheap when the loop is running hot — one SeqCst load.
    pub(crate) fn wake(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.wake_at_nanos.store(self.now_nanos(), Ordering::SeqCst);
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Unconditional unpark — shutdown/drain use this so a parked loop
    /// notices the flag immediately instead of after its idle timeout.
    pub(crate) fn force_wake(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    /// Consumer side: parks for up to `timeout` unless `has_work`
    /// observes queued work after the sleep flag is published. `None`
    /// when the park was skipped.
    fn park(&self, has_work: impl Fn() -> bool, timeout: Duration) -> Option<ParkOutcome> {
        self.sleeping.store(true, Ordering::SeqCst);
        if has_work() {
            self.sleeping.store(false, Ordering::SeqCst);
            return None;
        }
        let parked_at = Instant::now();
        std::thread::park_timeout(timeout);
        self.sleeping.store(false, Ordering::SeqCst);
        let wake_latency = match self.wake_at_nanos.swap(0, Ordering::SeqCst) {
            0 => None,
            at => Some(Duration::from_nanos(self.now_nanos().saturating_sub(at))),
        };
        Some(ParkOutcome {
            slept: parked_at.elapsed(),
            wake_latency,
        })
    }
}

/// A probe handed to a shard.
pub(crate) struct Submission {
    pub(crate) token: u64,
    pub(crate) ingress: Ipv4Addr,
    pub(crate) qname: Name,
    pub(crate) qtype: RecordType,
    pub(crate) done: Sender<ProbeCompletion>,
}

/// Where one in-flight probe stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingState {
    /// Waiting to be (re)sent — rate-limit delay or retransmit backoff.
    Scheduled,
    /// On the wire, awaiting a reply until the deadline timer fires.
    Waiting,
}

/// One correlation-table entry.
pub(crate) struct Pending {
    generation: u64,
    /// Token, ingress, attempt, query id and timings: what the
    /// observer's views read at each transition.
    probe: ProbeFields,
    qname: Name,
    qtype: RecordType,
    target: SocketAddrV4,
    /// Cached wire encoding; retransmits patch bytes 0–1 (the id).
    bytes: Vec<u8>,
    socket: usize,
    state: PendingState,
    done: Sender<ProbeCompletion>,
}

/// What a timer firing means. Events are validated against the slot's
/// generation and attempt, so cancellation is free (stale events no-op);
/// the wheel additionally sheds stale events at cascade time via
/// [`TimerWheel::advance_filtered`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEvent {
    slot: usize,
    generation: u64,
    attempt: u32,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The attempt's read deadline passed: retransmit or give up.
    Deadline,
    /// A scheduled (delayed) send is now due.
    Send,
}

/// A datagram held back by the fault layer, ordered by due tick (ties
/// broken by injection order so replay is exact).
pub(crate) struct DelayedDatagram {
    due: u64,
    seq: u64,
    socket: usize,
    bytes: Vec<u8>,
    addr: SocketAddrV4,
}

impl PartialEq for DelayedDatagram {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedDatagram {}
impl PartialOrd for DelayedDatagram {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedDatagram {
    // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The reactor's chaos shim: a [`FaultInjector`] at the socket seam plus
/// the holding pens for delayed copies in both directions.
///
/// The injector's decision stream is stateful and must run in
/// transmission order, so a reactor with faults configured clamps to a
/// single shard (see [`crate::reactor::Reactor::launch`]).
pub(crate) struct FaultLayer {
    injector: FaultInjector,
    /// Outbound copies waiting for their injected delay.
    delayed_out: BinaryHeap<DelayedDatagram>,
    /// Inbound datagrams (delayed replies, synthesized REFUSED answers)
    /// waiting to re-enter correlation.
    delayed_in: BinaryHeap<DelayedDatagram>,
    seq: u64,
}

impl FaultLayer {
    pub(crate) fn new(plan: &FaultPlan) -> FaultLayer {
        FaultLayer {
            injector: FaultInjector::new(plan),
            delayed_out: BinaryHeap::new(),
            delayed_in: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn stats(&self) -> Arc<cde_faults::FaultStats> {
        self.injector.stats()
    }

    fn push_out(&mut self, due: u64, socket: usize, bytes: Vec<u8>, addr: SocketAddrV4) {
        self.seq += 1;
        let seq = self.seq;
        self.delayed_out.push(DelayedDatagram {
            due,
            seq,
            socket,
            bytes,
            addr,
        });
    }

    fn push_in(&mut self, due: u64, socket: usize, bytes: Vec<u8>, addr: SocketAddrV4) {
        self.seq += 1;
        let seq = self.seq;
        self.delayed_in.push(DelayedDatagram {
            due,
            seq,
            socket,
            bytes,
            addr,
        });
    }
}

/// One shard's event loop. Everything here is owned by the loop thread;
/// the `Arc`s cross threads only for submission (`ring`, `waker`),
/// control (`shutdown`, `drain`, `exited`) and mergeable observability.
pub(crate) struct ShardLoop {
    pub(crate) targets: HashMap<Ipv4Addr, SocketAddr>,
    pub(crate) sockets: Vec<UdpSocket>,
    pub(crate) next_socket: usize,
    pub(crate) ring: Arc<MpscRing<Submission>>,
    pub(crate) waker: Arc<ShardWaker>,
    pub(crate) exited: Arc<AtomicBool>,
    pub(crate) slots: Vec<Option<Pending>>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) occupied: usize,
    pub(crate) correlation: HashMap<(usize, u16), usize>,
    pub(crate) timers: TimerWheel<TimerEvent>,
    pub(crate) expired: Vec<TimerEvent>,
    pub(crate) ready: VecDeque<usize>,
    /// Slots (with their ingress) admitted this round.
    pub(crate) admitted: Vec<(usize, Ipv4Addr)>,
    pub(crate) pool: BufferPool,
    pub(crate) writer: WireWriter,
    pub(crate) recv_slots: Vec<RecvSlot>,
    pub(crate) policy: RetryPolicy,
    pub(crate) limiter: Option<Arc<RateLimiter>>,
    pub(crate) rng: DetRng,
    pub(crate) generation: u64,
    pub(crate) start: Instant,
    pub(crate) block: Arc<MetricsBlock>,
    /// Every per-probe view (counters, events, flight ring, RTT digests,
    /// exemplars): the loop reports each transition here and nowhere
    /// else.
    pub(crate) observer: ProbeObserver,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) drain: Arc<AtomicBool>,
    pub(crate) faults: Option<FaultLayer>,
    /// Phase timers only; the RTT digests are fed by the observer.
    pub(crate) insight: Option<Arc<ReactorInsight>>,
    /// Adaptive per-ingress RTO table, shared across shards (each
    /// ingress's cell is only ever written by the one shard that owns
    /// the ingress). `None` runs the static [`RetryPolicy`] schedule.
    pub(crate) rto: Option<Arc<RtoTable>>,
}

/// Builds a shard's pending-slot vector (the type is private to this
/// module, so the reactor's launch code sizes it through here).
pub(crate) fn empty_slots(max_in_flight: usize) -> Vec<Option<Pending>> {
    (0..max_in_flight).map(|_| None).collect()
}

impl ShardLoop {
    /// Starts a sampled phase timer; `None` when capture is off or this
    /// entry is not sampled. Zero-cost (no clock read) in both cases.
    #[inline]
    fn phase_begin(&self, phase: Phase) -> Option<Instant> {
        self.insight.as_ref().and_then(|i| i.phases().begin(phase))
    }

    /// Closes a sampled phase timer opened by [`Self::phase_begin`].
    #[inline]
    fn phase_end(&self, phase: Phase, started: Option<Instant>) {
        if let (Some(insight), Some(_)) = (&self.insight, started) {
            insight.phases().end(phase, started);
        }
    }

    pub(crate) fn run(mut self) {
        self.waker.register();
        while !self.shutdown.load(Ordering::SeqCst) {
            let iter_start = Instant::now();
            let mut progress = self.admit();
            progress |= self.fire_timers();
            progress |= self.send_ready();
            progress |= self.receive();
            progress |= self.release_delayed();
            self.block.set_wheel_pending(self.timers.len() as u64);
            self.block.set_ring_depth(self.ring.len() as u64);
            self.block.record_loop_iteration(iter_start.elapsed());
            // Graceful drain: once asked, exit as soon as the queued
            // backlog is admitted and every in-flight probe has answered
            // or timed out — all completions delivered, nothing dropped.
            if self.drain.load(Ordering::SeqCst) && self.occupied == 0 && self.ring.is_empty() {
                break;
            }
            if progress {
                // Busy: stay hot, but let serving threads run on small
                // machines.
                std::thread::yield_now();
            } else {
                self.idle_wait();
            }
        }
        // Final gauge flush so a post-shutdown scrape reflects the
        // drained state instead of the last mid-flight sample.
        self.block.set_in_flight(self.occupied as u64);
        self.block.set_wheel_pending(self.timers.len() as u64);
        self.block.set_ring_depth(self.ring.len() as u64);
        self.exited.store(true, Ordering::SeqCst);
    }

    fn now_tick(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn ticks(d: Duration) -> u64 {
        if d.is_zero() {
            0
        } else {
            (d.as_millis() as u64).max(1)
        }
    }

    /// Pulls submissions into free correlation slots; batch-debits the
    /// rate limiter for everything admitted this round.
    fn admit(&mut self) -> bool {
        debug_assert!(self.admitted.is_empty());
        while !self.free_slots.is_empty() {
            match self.ring.pop() {
                Some(sub) => self.admit_one(sub),
                None => break,
            }
        }
        if self.admitted.is_empty() {
            return false;
        }
        self.block.set_in_flight(self.occupied as u64);
        let admitted = std::mem::take(&mut self.admitted);
        if let Some(limiter) = self.limiter.clone() {
            // Batch-aware token take: one bucket update per distinct
            // ingress in the admitted burst, not one per probe.
            let mut groups: Vec<(Ipv4Addr, u32)> = Vec::new();
            for &(_, ingress) in &admitted {
                match groups.iter_mut().find(|(ip, _)| *ip == ingress) {
                    Some((_, n)) => *n += 1,
                    None => groups.push((ingress, 1)),
                }
            }
            let mut waits: Vec<(Ipv4Addr, Duration)> = Vec::with_capacity(groups.len());
            for (ingress, n) in groups {
                waits.push((ingress, limiter.debit_n(ingress, n)));
            }
            let now_tick = self.now_tick();
            for &(slot, ingress) in &admitted {
                let wait = waits
                    .iter()
                    .find(|(ip, _)| *ip == ingress)
                    .map(|(_, w)| *w)
                    .unwrap_or_default();
                if wait.is_zero() {
                    self.ready.push_back(slot);
                } else {
                    // Pay the limiter by scheduling, not sleeping.
                    self.block.record_rate_limit_stall(wait);
                    let p = self.slots[slot].as_ref().expect("admitted slot");
                    self.timers.schedule(
                        now_tick + Self::ticks(wait),
                        TimerEvent {
                            slot,
                            generation: p.generation,
                            attempt: 0,
                            kind: EventKind::Send,
                        },
                    );
                }
            }
        } else {
            self.ready.extend(admitted.iter().map(|&(slot, _)| slot));
        }
        self.admitted = admitted;
        self.admitted.clear();
        true
    }

    fn admit_one(&mut self, sub: Submission) {
        let target = match self.targets.get(&sub.ingress) {
            Some(SocketAddr::V4(v4)) => *v4,
            // No route to this ingress — indistinguishable from loss.
            _ => {
                self.observer
                    .observe(&ProbeRecord::Unroutable(ProbeFields::new(
                        sub.token,
                        sub.ingress,
                    )));
                let _ = sub.done.send(ProbeCompletion {
                    token: sub.token,
                    reply: TransportReply::TimedOut,
                });
                return;
            }
        };
        let slot = self.free_slots.pop().expect("admit checked free_slots");
        self.generation += 1;
        self.slots[slot] = Some(Pending {
            generation: self.generation,
            probe: ProbeFields::new(sub.token, sub.ingress),
            qname: sub.qname,
            qtype: sub.qtype,
            target,
            bytes: self.pool.take(),
            socket: usize::MAX,
            state: PendingState::Scheduled,
            done: sub.done,
        });
        self.occupied += 1;
        self.admitted.push((slot, sub.ingress));
    }

    /// Advances the wheel and acts on expired, still-valid events.
    ///
    /// Stale events (slot retired, superseded generation or attempt) are
    /// shed inside the wheel itself — at cascade as well as expiry — so
    /// a deep in-flight window's worth of cancelled deadlines never
    /// rides the cascade chain. The surviving events are re-validated
    /// here anyway: completing one expiry can invalidate the next one in
    /// the same batch.
    fn fire_timers(&mut self) -> bool {
        let now_tick = self.now_tick();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        let t_timers = self.phase_begin(Phase::Timers);
        {
            let slots = &self.slots;
            self.timers.advance_filtered(now_tick, &mut expired, |ev| {
                slots[ev.slot]
                    .as_ref()
                    .is_some_and(|p| p.generation == ev.generation && p.probe.attempt == ev.attempt)
            });
        }
        self.phase_end(Phase::Timers, t_timers);
        let mut progress = false;
        for ev in expired.drain(..) {
            let Some(p) = self.slots[ev.slot].as_ref() else {
                continue;
            };
            if p.generation != ev.generation || p.probe.attempt != ev.attempt {
                continue; // lazily cancelled
            }
            match ev.kind {
                EventKind::Send => {
                    if p.state == PendingState::Scheduled {
                        self.ready.push_back(ev.slot);
                        progress = true;
                    }
                }
                EventKind::Deadline => {
                    if p.state != PendingState::Waiting {
                        continue;
                    }
                    progress = true;
                    // The attempt is dead: late replies to its id must
                    // land as strays, never match.
                    self.correlation.remove(&(p.socket, p.probe.qid));
                    // A deadline expiry is an unambiguous loss signal
                    // (unlike replies after a retransmit): back the
                    // learned RTO off before deciding retry-vs-give-up.
                    if let Some(table) = &self.rto {
                        table.observe_timeout(p.probe.ingress);
                        self.block.record_rto_backoff();
                    }
                    if ev.attempt + 1 >= self.policy.attempts.max(1) {
                        self.complete(ev.slot, TransportReply::TimedOut);
                    } else {
                        let delay = self.policy.delay_before(ev.attempt + 1, &mut self.rng);
                        let p = self.slots[ev.slot].as_mut().expect("checked above");
                        p.probe.attempt += 1;
                        p.state = PendingState::Scheduled;
                        self.observer.observe(&ProbeRecord::Retried(p.probe));
                        self.timers.schedule(
                            now_tick + Self::ticks(delay),
                            TimerEvent {
                                slot: ev.slot,
                                generation: ev.generation,
                                attempt: ev.attempt + 1,
                                kind: EventKind::Send,
                            },
                        );
                    }
                }
            }
        }
        self.expired = expired;
        progress
    }

    /// Drains the ready queue in batches: one `sendmmsg` per socket per
    /// round, rotating sockets for source-port diversity.
    fn send_ready(&mut self) -> bool {
        if self.ready.is_empty() {
            return false;
        }
        let mut progress = false;
        for _ in 0..self.sockets.len() {
            if self.ready.is_empty() {
                break;
            }
            let socket_idx = self.next_socket;
            self.next_socket = (self.next_socket + 1) % self.sockets.len();
            let count = self.ready.len().min(MAX_BATCH);
            let mut batch = [0usize; MAX_BATCH];
            for b in batch.iter_mut().take(count) {
                *b = self.ready.pop_front().expect("counted");
            }
            let batch = &batch[..count];
            // Arm each probe: fresh id patched into the cached encoding
            // (first send encodes via the reusable writer — no per-probe
            // allocation either way).
            let t_encode = self.phase_begin(Phase::Encode);
            for &slot in batch {
                let id = fresh_id(&mut self.rng, &self.correlation, socket_idx);
                let p = self.slots[slot].as_mut().expect("ready slot occupied");
                p.socket = socket_idx;
                p.probe.qid = id;
                if p.bytes.is_empty() {
                    Message::encode_query_into(&mut self.writer, id, &p.qname, p.qtype);
                    p.bytes.extend_from_slice(self.writer.as_slice());
                    p.probe.wire_size = clamp_u16(p.bytes.len());
                } else {
                    p.bytes[0..2].copy_from_slice(&id.to_be_bytes());
                }
                self.correlation.insert((socket_idx, id), slot);
            }
            self.phase_end(Phase::Encode, t_encode);
            let outcome = if self.faults.is_some() {
                // Chaos path: every armed probe is "sent" from the
                // engine's point of view (deadlines, retries and loss
                // feedback behave), but each datagram runs the fault
                // gauntlet on its way to the wire.
                let mut layer = self.faults.take().expect("checked is_some");
                for &slot in batch {
                    self.emit_faulty(&mut layer, socket_idx, slot);
                }
                self.faults = Some(layer);
                Ok(count)
            } else {
                let empty: &[u8] = &[];
                let mut items = [SendItem {
                    payload: empty,
                    dest: SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
                }; MAX_BATCH];
                for (item, &slot) in items.iter_mut().zip(batch) {
                    let p = self.slots[slot].as_ref().expect("ready slot occupied");
                    *item = SendItem {
                        payload: &p.bytes,
                        dest: p.target,
                    };
                }
                let t_send = self.phase_begin(Phase::SendBatch);
                let sent = cde_sysio::send_batch(&self.sockets[socket_idx], &items[..count]);
                self.phase_end(Phase::SendBatch, t_send);
                sent
            };
            let now_tick = self.now_tick();
            // `Err` means the kernel rejected the head datagram outright
            // and nothing went out (a short count reports later ones).
            let (sent, head_rejected) = match outcome {
                Ok(sent) => (sent, false),
                Err(_) => (0, true),
            };
            if sent > 0 {
                progress = true;
                self.block.record_send_batch(sent);
            }
            for (i, &slot) in batch.iter().enumerate().rev() {
                if i < sent {
                    let p = self.slots[slot].as_mut().expect("ready slot occupied");
                    p.state = PendingState::Waiting;
                    if p.probe.sent_at.is_none() {
                        p.probe.queue_us = micros(p.probe.admitted_at.elapsed());
                    }
                    p.probe.sent_at = Some(Instant::now());
                    self.observer.observe(&ProbeRecord::Sent(p.probe));
                    // Adaptive deadlines never exceed the static
                    // schedule: `timeout_for` stays the upper bound, so
                    // graces derived from `RetryPolicy::worst_case`
                    // remain honest.
                    let attempt = p.probe.attempt;
                    let timeout = match &self.rto {
                        Some(table) => {
                            self.block.record_adaptive_deadline();
                            table
                                .deadline_for(p.probe.ingress, attempt)
                                .min(self.policy.timeout_for(attempt))
                        }
                        None => self.policy.timeout_for(attempt),
                    };
                    p.probe.rto_us = timeout.as_micros().min(u128::from(u32::MAX)) as u32;
                    self.timers.schedule(
                        now_tick + Self::ticks(timeout).max(1),
                        TimerEvent {
                            slot,
                            generation: p.generation,
                            attempt,
                            kind: EventKind::Deadline,
                        },
                    );
                } else if i == 0 && head_rejected {
                    // A hard error on this one datagram (e.g. an
                    // unsendable target): fail its probe alone.
                    progress = true;
                    self.complete(slot, TransportReply::TimedOut);
                } else {
                    // Kernel backpressure, or queued behind a rejected
                    // head: un-arm and retry next round (reverse order
                    // keeps FIFO).
                    let p = self.slots[slot].as_ref().expect("ready slot occupied");
                    self.correlation.remove(&(socket_idx, p.probe.qid));
                    self.ready.push_front(slot);
                }
            }
        }
        progress
    }

    /// Drains every socket's receive queue in batches and correlates.
    fn receive(&mut self) -> bool {
        let mut progress = false;
        let mut recv_slots = std::mem::take(&mut self.recv_slots);
        for socket_idx in 0..self.sockets.len() {
            loop {
                let t_recv = self.phase_begin(Phase::RecvBatch);
                let got =
                    cde_sysio::recv_batch(&self.sockets[socket_idx], &mut recv_slots).unwrap_or(0);
                self.phase_end(Phase::RecvBatch, t_recv);
                if got == 0 {
                    break;
                }
                progress = true;
                for rs in recv_slots.iter().take(got) {
                    let Some(from) = rs.from() else { continue };
                    if self.faults.is_some() {
                        self.receive_faulty(socket_idx, rs.bytes(), from);
                    } else {
                        self.process_datagram(socket_idx, rs.bytes(), from);
                    }
                }
                if got < recv_slots.len() {
                    break;
                }
            }
        }
        self.recv_slots = recv_slots;
        progress
    }

    /// Sends one armed probe through the fault layer: dropped, REFUSED
    /// (a synthesized answer queued inbound), or delivered — possibly
    /// delayed, duplicated or truncated.
    fn emit_faulty(&mut self, layer: &mut FaultLayer, socket_idx: usize, slot: usize) {
        let now = self.start.elapsed();
        let now_tick = self.now_tick();
        let p = self.slots[slot].as_ref().expect("ready slot occupied");
        match layer
            .injector
            .decide(Direction::ClientToServer, now, p.bytes.len())
        {
            Verdict::Refuse => {
                // The "resolver" answers REFUSED without resolving: the
                // synthesized reply re-enters through correlation (from
                // the probed target, so the anti-spoofing checks pass).
                if let Some(reply) = refused_reply(&p.bytes) {
                    layer.push_in(now_tick, socket_idx, reply, p.target);
                }
            }
            // Nothing reaches the wire; the deadline timer will fire.
            Verdict::Drop(_) => self.observer.observe(&ProbeRecord::QueryDropped(p.probe)),
            Verdict::Deliver(copies) => {
                for copy in copies {
                    let len = copy.truncate_to.unwrap_or(p.bytes.len()).min(p.bytes.len());
                    if copy.delay.is_zero() && len == p.bytes.len() {
                        let _ = self.sockets[socket_idx].send_to(&p.bytes, p.target);
                    } else {
                        layer.push_out(
                            now_tick + Self::ticks(copy.delay),
                            socket_idx,
                            p.bytes[..len].to_vec(),
                            p.target,
                        );
                    }
                }
            }
        }
    }

    /// Runs one received datagram through the reply-direction gauntlet
    /// before correlation: lost replies vanish, delayed/duplicated
    /// copies queue up (late duplicates then land as strays — exactly
    /// the taxonomy a chaotic wire produces).
    fn receive_faulty(&mut self, socket_idx: usize, bytes: &[u8], from: SocketAddrV4) {
        let now = self.start.elapsed();
        let now_tick = self.now_tick();
        let mut immediate = 0u32;
        {
            let layer = self.faults.as_mut().expect("faults enabled");
            match layer
                .injector
                .decide(Direction::ServerToClient, now, bytes.len())
            {
                // Joined back to its probe by the correlation entry,
                // which is still live — the deadline hasn't retired it.
                Verdict::Drop(_) => {
                    let qid = MessagePeek::parse(bytes).ok().map(|pk| pk.id());
                    let probe = qid
                        .and_then(|id| self.correlation.get(&(socket_idx, id)))
                        .and_then(|&slot| self.slots[slot].as_ref())
                        .map(|p| p.probe);
                    let reply = Datagram {
                        from: *from.ip(),
                        wire_size: bytes.len(),
                        qid: qid.unwrap_or(0),
                    };
                    self.observer
                        .observe(&ProbeRecord::ReplyDropped(probe, reply));
                }
                Verdict::Refuse => {}
                Verdict::Deliver(copies) => {
                    for copy in copies {
                        let len = copy.truncate_to.unwrap_or(bytes.len()).min(bytes.len());
                        if copy.delay.is_zero() && len == bytes.len() {
                            immediate += 1;
                        } else {
                            layer.push_in(
                                now_tick + Self::ticks(copy.delay),
                                socket_idx,
                                bytes[..len].to_vec(),
                                from,
                            );
                        }
                    }
                }
            }
        }
        for _ in 0..immediate {
            self.process_datagram(socket_idx, bytes, from);
        }
    }

    /// Flushes fault-layer datagrams whose injected delay has elapsed:
    /// outbound copies hit the wire, inbound ones re-enter correlation.
    fn release_delayed(&mut self) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let mut layer = self.faults.take().expect("checked is_none");
        let now_tick = self.now_tick();
        let mut progress = false;
        while layer.delayed_out.peek().is_some_and(|d| d.due <= now_tick) {
            let d = layer.delayed_out.pop().expect("peeked");
            let _ = self.sockets[d.socket].send_to(&d.bytes, d.addr);
            progress = true;
        }
        while layer.delayed_in.peek().is_some_and(|d| d.due <= now_tick) {
            let d = layer.delayed_in.pop().expect("peeked");
            self.process_datagram(d.socket, &d.bytes, d.addr);
            progress = true;
        }
        self.faults = Some(layer);
        progress
    }

    /// Correlates one inbound datagram, enforcing the anti-spoofing
    /// checks: id match, source address match, echoed-question match.
    fn process_datagram(&mut self, socket_idx: usize, bytes: &[u8], from: SocketAddrV4) {
        let t_decode = self.phase_begin(Phase::Decode);
        let parsed = MessagePeek::parse(bytes);
        self.phase_end(Phase::Decode, t_decode);
        let Ok(peek) = parsed else {
            self.observer.observe(&ProbeRecord::Undecodable);
            return;
        };
        if !peek.is_response() {
            return;
        }
        let t_correlate = self.phase_begin(Phase::Correlate);
        let correlated = match self.correlation.get(&(socket_idx, peek.id())) {
            // Wrong id, or a duplicate/late reply after the deadline
            // already retired the attempt — including a reply that
            // somehow landed on a socket whose shard never sent the
            // probe (correlation is strictly shard-local).
            None => Err(ProbeRecord::Stray(Datagram {
                from: *from.ip(),
                wire_size: bytes.len(),
                qid: peek.id(),
            })),
            Some(&slot) => {
                let p = self.slots[slot].as_ref().expect("correlated slot occupied");
                if from != p.target {
                    // Right id, wrong source: off-path spoofing. Keep
                    // waiting for the genuine answer.
                    Err(ProbeRecord::Spoofed)
                } else {
                    match peek.question_matches(&p.qname, p.qtype) {
                        Ok(true) => Ok((slot, p.probe)),
                        // Id collision: someone else's answer hashed
                        // onto our id.
                        Ok(false) => Err(ProbeRecord::QnameMismatch),
                        Err(_) => Err(ProbeRecord::Undecodable),
                    }
                }
            }
        };
        self.phase_end(Phase::Correlate, t_correlate);
        let (slot, probe) = match correlated {
            Ok(matched) => matched,
            Err(record) => return self.observer.observe(&record),
        };
        let rtt = probe.sent_at.map_or(Duration::ZERO, |at| at.elapsed());
        // Karn's rule at the one place attempt counts are known: only
        // first-attempt replies feed the estimator a sample; ambiguous
        // deliveries just clear its backoff.
        if let Some(table) = &self.rto {
            if probe.attempt > 0 {
                table.observe_delivery_ambiguous(probe.ingress);
            } else {
                table.observe_rtt(probe.ingress, micros(rtt));
            }
        }
        self.complete(
            slot,
            TransportReply::Answered {
                latency: Some(SimDuration::from_micros(micros(rtt))),
                rcode: peek.flags().rcode,
            },
        );
    }

    /// Retires a slot: frees the correlation entry, reports the
    /// completion to the observer, recycles the buffer, delivers the
    /// completion. Timers die by lazy cancellation.
    fn complete(&mut self, slot: usize, reply: TransportReply) {
        let p = self.slots[slot].take().expect("completing occupied slot");
        self.correlation.remove(&(p.socket, p.probe.qid));
        self.observer.observe(&ProbeRecord::Completed {
            probe: p.probe,
            reply: &reply,
        });
        self.pool.give(p.bytes);
        self.occupied -= 1;
        self.free_slots.push(slot);
        self.block.set_in_flight(self.occupied as u64);
        let _ = p.done.send(ProbeCompletion {
            token: p.probe.token,
            reply,
        });
    }

    /// Nothing to do right now: park until the next timer, a submission
    /// (the waker's unpark), or the idle bound — whichever comes first.
    fn idle_wait(&mut self) {
        let wait = if self.occupied == 0 && self.ready.is_empty() {
            DRAINED_IDLE
        } else if self.occupied > 0 {
            // A reply can land any microsecond and nothing wakes this
            // sleep for it, so its length is pure added RTT. Keep it at
            // BUSY_IDLE — the 4 ms timer-distance nap here used to
            // quantize every measured RTT to ~4 ms, drowning the
            // hit/miss contrast the timing side channel reads.
            BUSY_IDLE
        } else {
            // Only scheduled (unsent) probes: sleep toward their send
            // timers, nothing inbound can arrive yet.
            let now = self.now_tick();
            let ticks_away = self.timers.next_due().map_or(1, |t| t.saturating_sub(now));
            (TICK * ticks_away.clamp(1, 4) as u32)
                .min(Duration::from_millis(4))
                .max(BUSY_IDLE)
        };
        let ring = &self.ring;
        if let Some(outcome) = self.waker.park(|| !ring.is_empty(), wait) {
            self.block.record_park(outcome.slept);
            if let Some(latency) = outcome.wake_latency {
                self.block.record_wake_latency(latency);
            }
        }
    }
}

/// Picks a query id unused on `socket`, preferring a random draw and
/// linearly probing on collision.
fn fresh_id(rng: &mut DetRng, correlation: &HashMap<(usize, u16), usize>, socket: usize) -> u16 {
    let mut id: u16 = rng.gen();
    for _ in 0..=u16::MAX {
        if !correlation.contains_key(&(socket, id)) {
            return id;
        }
        id = id.wrapping_add(1);
    }
    id // unreachable: the table can never hold 65 536 entries per socket
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_stable() {
        for shards in 1..=9usize {
            for a in 0..=255u8 {
                let ip = Ipv4Addr::new(10, 0, a, a.wrapping_mul(7));
                let s = shard_for_target(ip, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_target(ip, shards), "must be deterministic");
            }
        }
    }

    #[test]
    fn partition_spreads_across_shards() {
        // Not a uniformity proof — just that FNV over last-octet-varying
        // addresses doesn't collapse onto one shard.
        let shards = 4;
        let mut seen = vec![0usize; shards];
        for d in 1..=64u8 {
            seen[shard_for_target(Ipv4Addr::new(192, 0, 2, d), shards)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "64 consecutive addresses left a shard empty: {seen:?}"
        );
    }

    #[test]
    fn waker_roundtrip_wakes_parked_thread() {
        let waker = Arc::new(ShardWaker::default());
        let ready = Arc::new(AtomicBool::new(false));
        let handle = std::thread::spawn({
            let waker = Arc::clone(&waker);
            let ready = Arc::clone(&ready);
            move || {
                waker.register();
                // Park with no work: only the producer's wake (or the
                // generous timeout) ends this.
                waker.park(|| ready.load(Ordering::SeqCst), Duration::from_secs(5));
                ready.load(Ordering::SeqCst)
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        ready.store(true, Ordering::SeqCst);
        waker.wake();
        assert!(handle.join().unwrap(), "parked thread saw the work");
    }

    #[test]
    fn waker_skips_park_when_work_arrives_first() {
        let waker = ShardWaker::default();
        waker.register();
        let start = Instant::now();
        let outcome = waker.park(|| true, Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(outcome.is_none(), "skipped park reports no outcome");
    }

    #[test]
    fn park_outcome_carries_wake_latency() {
        let waker = Arc::new(ShardWaker::default());
        let handle = std::thread::spawn({
            let waker = Arc::clone(&waker);
            move || {
                waker.register();
                waker.park(|| false, Duration::from_secs(5))
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        waker.wake();
        let outcome = handle.join().unwrap().expect("the loop really parked");
        assert!(outcome.slept >= Duration::from_millis(10));
        let latency = outcome
            .wake_latency
            .expect("ended by a wake, not a timeout");
        assert!(latency < Duration::from_secs(1), "latency {latency:?}");
    }

    #[test]
    fn timeout_park_has_no_wake_latency() {
        let waker = ShardWaker::default();
        waker.register();
        let outcome = waker
            .park(|| false, Duration::from_millis(20))
            .expect("parked");
        assert!(outcome.slept >= Duration::from_millis(10));
        assert!(outcome.wake_latency.is_none());
    }
}
