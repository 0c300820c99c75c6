//! The seqlock ring: a bounded, drop-oldest ring of `W`-word records
//! that readers copy without ever blocking a writer. The pulse
//! sampler's counter windows (many writers) and the engine's flight
//! recorder (one writer per shard) both pack their records into it.
//!
//! A writer claims a unique index with `fetch_add` (`claim % capacity`
//! is its slot), sets the slot's sequence odd (`2 * claim + 1`), issues
//! a `Release` fence, stores the words relaxed and publishes the even
//! sequence `2 * claim + 2` with `Release`. A reader loads the sequence
//! with `Acquire`, copies the words, runs an `Acquire` fence and
//! re-checks: sequences are unique per claim, so any intervening write
//! is detected. A writer enters its slot by compare-exchange, and only
//! from an older even sequence; one that finds the slot mid-write or
//! already taken by a later lap drops its record rather than wait or
//! tear. A single writer never meets either case.

use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot<const W: usize> {
    /// `2 * claim + 1` while that claim writes, `2 * claim + 2` once it
    /// is published, 0 when never written.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// Lock-free ring of `W`-word records. See the module docs.
pub struct SeqlockRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    /// Next claim index; claims ever made.
    head: AtomicU64,
}

impl<const W: usize> std::fmt::Debug for SeqlockRing<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqlockRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.pushed())
            .finish()
    }
}

impl<const W: usize> SeqlockRing<W> {
    /// A ring retaining the latest `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> SeqlockRing<W> {
        SeqlockRing {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed (claims made).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn slot(&self, claim: u64) -> &Slot<W> {
        &self.slots[(claim % self.slots.len() as u64) as usize]
    }

    /// Appends one record, overwriting the oldest once full, and returns
    /// its claim index (`claim >= capacity` means a record was shed).
    pub fn push(&self, words: [u64; W]) -> u64 {
        // Claims only: the slot's sequence publishes the record.
        let claim = self.head.fetch_add(1, Ordering::AcqRel);
        self.write(claim, words);
        claim
    }

    fn write(&self, claim: u64, words: [u64; W]) {
        let slot = self.slot(claim);
        let odd = 2 * claim + 1;
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq % 2 == 1 || seq > odd {
                return; // lapped: see the module docs
            }
            // `Acquire`: the previous writer's word stores precede ours.
            match slot
                .seq
                .compare_exchange_weak(seq, odd, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seq = now,
            }
        }
        fence(Ordering::Release);
        for (dst, src) in slot.words.iter().zip(words) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(odd + 1, Ordering::Release);
    }

    /// The record written by `claim`, if it is published and has not
    /// been overwritten since.
    pub fn read(&self, claim: u64) -> Option<[u64; W]> {
        let slot = self.slot(claim);
        let want = 2 * claim + 2;
        if slot.seq.load(Ordering::Acquire) != want {
            return None;
        }
        let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        (slot.seq.load(Ordering::Relaxed) == want).then_some(words)
    }

    /// Every retained record, oldest first, skipping slots a writer is
    /// touching.
    pub fn snapshot(&self) -> Vec<[u64; W]> {
        let head = self.pushed();
        let start = head.saturating_sub(self.slots.len() as u64);
        (start..head).filter_map(|claim| self.read(claim)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wraps_keeping_the_newest_in_claim_order() {
        let ring = SeqlockRing::<2>::with_capacity(4);
        for i in 0..10u64 {
            assert_eq!(ring.push([i, i * 10]), i);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.snapshot(), vec![[6, 60], [7, 70], [8, 80], [9, 90]]);
        assert_eq!(ring.read(9), Some([9, 90]));
        assert_eq!(ring.read(5), None, "overwritten by claim 9");
        assert_eq!(ring.read(10), None, "not yet written");
    }

    #[test]
    fn a_stale_writer_never_overwrites_a_later_lap() {
        let ring = SeqlockRing::<1>::with_capacity(2);
        ring.push([0]);
        ring.push([1]);
        ring.push([2]); // slot 0 now holds claim 2
                        // Claim 0's writer arriving a lap late must leave claim 2 alone.
        ring.write(0, [99]);
        assert_eq!(ring.read(2), Some([2]));
        assert_eq!(ring.read(0), None);
        // Nor may a writer enter a slot another writer holds odd.
        ring.slot(1).seq.store(2 * 3 + 1, Ordering::Relaxed);
        ring.write(5, [55]);
        assert_eq!(ring.slot(1).seq.load(Ordering::Relaxed), 2 * 3 + 1);
    }

    /// Writers that all store one value per record: a read mixing two
    /// writes would show unequal words.
    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        let ring = Arc::new(SeqlockRing::<6>::with_capacity(8));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        ring.push([w << 32 | i; 6]);
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while seen < 20_000 {
                    for words in ring.snapshot() {
                        assert!(words.iter().all(|&v| v == words[0]), "torn: {words:?}");
                        seen += 1;
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.pushed(), 12_000);
    }
}
