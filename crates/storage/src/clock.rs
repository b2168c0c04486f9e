//! Lock-striped CLOCK (second-chance) cache.
//!
//! The one cache ring of the stack. Two memo layers sit on it, and both
//! must leave the paper's page-access count untouched:
//!
//! * the decoded-node cache (`nnq-rtree`'s `PagedStore`, keyed by
//!   [`PageId`]) spares a decode *after* the pool fetch has been counted;
//! * the result cache (`nnq-core`'s `ResultCache`, keyed by canonical
//!   query bytes) replays a whole answer recorded at a tree version.
//!
//! The cache is split into `S` stripes (`S` a power of two, sized from the
//! machine's parallelism and clamped so every stripe owns at least one
//! slot). A key lives in the stripe picked by [`ClockKey::stripe_bits`],
//! so readers of different stripes never touch the same lock, and a hit
//! takes only a stripe *read* lock: the CLOCK reference bit is an atomic,
//! set without write access.
//!
//! Each stripe is a ring of slots swept by a second-chance hand: a hit
//! sets the slot's reference bit, the hand clears bits as it sweeps and
//! evicts the first unreferenced slot, so hot entries stay as long as
//! they keep being read. [`ClockCache::invalidate`] empties the slot in
//! place (map entry and ring slot go together), so insert/invalidate
//! churn leaves no residue. A ring's length changes only through
//! [`ClockCache::resize`]: the stripe count (and so the key → stripe
//! mapping) is fixed at construction, rings grow by appending empty
//! slots and shrink by popping tail slots, evicting their occupants.
//! Counters live outside the locks so concurrent readers don't serialize
//! on stats.

use crate::PageId;
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A key type a [`ClockCache`] can stripe and store (the ring keeps its
/// [`ToOwned`] form).
pub trait ClockKey: Hash + Eq + ToOwned<Owned: Hash + Eq + Clone> {
    /// Bits that pick the key's stripe (masked by the stripe count).
    fn stripe_bits(&self) -> u64;
}

/// Page ids pick their stripe by their low bits, so the node-read hot
/// path does no hashing.
impl ClockKey for PageId {
    #[inline]
    fn stripe_bits(&self) -> u64 {
        self.0
    }
}

/// Byte keys pick their stripe by a per-process hash; equality is still
/// decided on the full bytes.
impl ClockKey for [u8] {
    fn stripe_bits(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Counters of a [`ClockCache`], snapshot by [`ClockCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from an entry the probe accepted.
    pub hits: u64,
    /// Probes that found no entry for the key.
    pub misses: u64,
    /// Probes that found an entry but rejected it (for the result cache:
    /// an answer recorded at another tree version). Counted apart from
    /// misses because it measures write-driven churn, not capacity
    /// pressure. Always `0` for a cache that accepts every entry.
    pub stale: u64,
    /// Entries stored, in-place refreshes of an existing key included.
    pub inserts: u64,
    /// Live entries dropped by the CLOCK hand or a shrinking resize.
    pub evictions: u64,
    /// Entries dropped by [`ClockCache::invalidate`].
    pub invalidations: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries the cache will hold (`0` disables it).
    pub capacity: usize,
    /// Number of lock stripes the cache is split across.
    pub stripes: usize,
}

impl CacheStats {
    /// Fraction of probes that hit, `hits / (hits + misses + stale)`;
    /// `0.0` when nothing was probed (the zero-reads convention of
    /// [`PoolStats::hit_rate`](crate::PoolStats::hit_rate)).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot<K: ClockKey + ?Sized, V> {
    /// The occupant, `None` when the slot is empty.
    entry: Option<(K::Owned, V)>,
    /// Second-chance bit; set on every hit (under the stripe's *read*
    /// lock, hence atomic), cleared by the sweeping hand.
    referenced: AtomicBool,
}

impl<K: ClockKey + ?Sized, V> Slot<K, V> {
    fn empty() -> Self {
        Self {
            entry: None,
            referenced: AtomicBool::new(false),
        }
    }
}

struct Stripe<K: ClockKey + ?Sized, V> {
    /// key → index into `slots`. Always mirrors the ring: a key is mapped
    /// iff its slot holds an entry, one slot per key.
    map: HashMap<K::Owned, usize>,
    /// The CLOCK ring: the stripe's share of the capacity.
    slots: Vec<Slot<K, V>>,
    /// The CLOCK hand: next ring position to inspect for eviction.
    hand: usize,
}

/// Power-of-two stripe count for a cache of `capacity` entries: the
/// machine's parallelism rounded up, clamped to 64 and halved until every
/// stripe owns at least one slot.
fn stripe_count_for(capacity: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut stripes = hw.next_power_of_two().min(64);
    while stripes > capacity.max(1) {
        stripes /= 2;
    }
    stripes
}

/// Lock-striped, CLOCK-evicted map from `K` to `V`; see the module docs.
pub struct ClockCache<K: ClockKey + ?Sized, V> {
    /// Total slots across stripes. Atomic so [`ClockCache::resize`] can
    /// retune it through `&self` while readers are active.
    capacity: AtomicUsize,
    stripe_mask: u64,
    stripes: Vec<RwLock<Stripe<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K: ClockKey + ?Sized, V> ClockCache<K, V> {
    /// A cache holding at most `capacity` entries (`0` disables it: every
    /// probe misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        let stripes = stripe_count_for(capacity);
        let base = capacity / stripes;
        let rem = capacity % stripes;
        let stripe_vec = (0..stripes)
            .map(|i| {
                let slots = base + usize::from(i < rem);
                RwLock::new(Stripe {
                    map: HashMap::with_capacity(slots),
                    slots: (0..slots).map(|_| Slot::empty()).collect(),
                    hand: 0,
                })
            })
            .collect();
        Self {
            capacity: AtomicUsize::new(capacity),
            stripe_mask: (stripes - 1) as u64,
            stripes: stripe_vec,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The current capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    #[inline]
    fn stripe(&self, key: &K) -> &RwLock<Stripe<K, V>> {
        &self.stripes[(key.stripe_bits() & self.stripe_mask) as usize]
    }

    /// Probes for `key`. An entry that `accept` takes is a hit: its
    /// reference bit is set and a clone of the value returned. An entry
    /// `accept` refuses counts as `stale`, no entry as a miss; both
    /// return `None`.
    pub fn get(&self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V>
    where
        V: Clone,
    {
        if self.capacity() == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let inner = self.stripe(key).read();
        let found = inner.map.get(key).map(|&idx| {
            let slot = &inner.slots[idx];
            let (_, value) = slot.entry.as_ref().expect("mapped slot holds an entry");
            if accept(value) {
                slot.referenced.store(true, Ordering::Relaxed);
                Some(value.clone())
            } else {
                None
            }
        });
        drop(inner);
        let counter = match found {
            Some(Some(_)) => &self.hits,
            Some(None) => &self.stale,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found.flatten()
    }

    /// Stores `value` under `key`. An existing entry for the key is
    /// refreshed in place; otherwise the stripe's CLOCK hand picks a slot,
    /// evicting the first unreferenced occupant.
    pub fn insert(&self, key: &K, value: V) {
        if self.capacity() == 0 {
            return;
        }
        let mut inner = self.stripe(key).write();
        if let Some(&idx) = inner.map.get(key) {
            let slot = &mut inner.slots[idx];
            slot.entry.as_mut().expect("mapped slot holds an entry").1 = value;
            slot.referenced.store(true, Ordering::Relaxed);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = inner.slots.len();
        if n == 0 {
            // This stripe's ring shrank to nothing (tiny capacity spread
            // over fixed stripes): nothing to cache here.
            return;
        }
        // CLOCK sweep: take the first empty slot or the first occupied
        // slot whose reference bit is already clear, clearing bits as the
        // hand passes. Terminates within two sweeps (after one full pass
        // every bit is clear).
        let idx = loop {
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let slot = &mut inner.slots[idx];
            if slot.entry.is_none() {
                break idx;
            }
            if *slot.referenced.get_mut() {
                *slot.referenced.get_mut() = false;
                continue;
            }
            let (old, _) = slot.entry.take().expect("occupied slot");
            inner.map.remove(old.borrow());
            self.evictions.fetch_add(1, Ordering::Relaxed);
            break idx;
        };
        let owned = key.to_owned();
        let slot = &mut inner.slots[idx];
        slot.entry = Some((owned.clone(), value));
        // Arrives with its bit set: a fresh entry gets one full sweep of
        // grace before it is eviction-eligible.
        slot.referenced.store(true, Ordering::Relaxed);
        inner.map.insert(owned, idx);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the entry for `key`, if any, emptying its slot in place.
    pub fn invalidate(&self, key: &K) {
        if self.capacity() == 0 {
            return;
        }
        let mut inner = self.stripe(key).write();
        if let Some(idx) = inner.map.remove(key) {
            let slot = &mut inner.slots[idx];
            slot.entry = None;
            *slot.referenced.get_mut() = false;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut inner = stripe.write();
            inner.map.clear();
            for slot in &mut inner.slots {
                *slot = Slot::empty();
            }
            inner.hand = 0;
        }
    }

    /// Retunes the cache to hold `new_capacity` entries, in place and
    /// under `&self`: each stripe's ring grows by appending empty slots or
    /// shrinks by popping tail slots, evicting any occupants (counted as
    /// evictions) and clamping the hand. The map always mirrors the ring,
    /// so a key is mapped iff its slot holds an entry across any resize,
    /// including one racing probes. Resizes are expected from one thread
    /// at a time (the tuner). Returns the capacity installed.
    pub fn resize(&self, new_capacity: usize) -> usize {
        let stripes = self.stripes.len();
        let base = new_capacity / stripes;
        let rem = new_capacity % stripes;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let target = base + usize::from(i < rem);
            let mut inner = stripe.write();
            while inner.slots.len() > target {
                let slot = inner.slots.pop().expect("len > target >= 0");
                if let Some((key, _)) = slot.entry {
                    inner.map.remove(key.borrow());
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            while inner.slots.len() < target {
                inner.slots.push(Slot::empty());
            }
            if inner.hand >= inner.slots.len() {
                inner.hand = 0;
            }
        }
        self.capacity.store(new_capacity, Ordering::Relaxed);
        new_capacity
    }

    /// Total ring slots across stripes. Only [`ClockCache::resize`]
    /// changes it, so outside a resize it equals the capacity.
    pub fn ring_len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().slots.len()).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: self.stripes.iter().map(|s| s.read().map.len()).sum(),
            capacity: self.capacity(),
            stripes: self.stripes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;
    use std::sync::Barrier;

    const PROBERS: u64 = 2;
    const PROBES_PER_THREAD: u64 = 20_000;
    const KEYS: u64 = 200;
    const FINAL_CAPACITY: usize = 48;
    /// Probers keep going until the writer and resizer did at least this
    /// much, so the four kinds of operation always overlap.
    const MIN_WRITES: u64 = 4_096;
    const MIN_RESIZES: u64 = 256;

    /// Counts a finished prober even when it panics, so the writer and
    /// resizer loops always end.
    struct Finished<'a>(&'a AtomicUsize);

    impl Drop for Finished<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Drives one ring from several threads at once: probers probe a
    /// pseudo-random key and fill it on a miss, a writer invalidates keys
    /// (and, when `gated`, bumps the version the probes accept), and one
    /// resizer cycles the capacity until the probers finish. Every value
    /// is `(version, its own key)`, so a hit carrying another key's value
    /// fails the test.
    fn hammer<K>(key: impl Fn(u64) -> K::Owned + Sync, gated: bool) -> CacheStats
    where
        K: ClockKey + ?Sized,
        K::Owned: Send + Sync + Debug,
    {
        let cache = ClockCache::<K, (u64, K::Owned)>::new(64);
        let version = AtomicU64::new(0);
        let (writes, resizes) = (AtomicU64::new(0), AtomicU64::new(0));
        let finished = AtomicUsize::new(0);
        let probes = AtomicU64::new(0);
        let start = Barrier::new(PROBERS as usize + 2);
        let running = || finished.load(Ordering::SeqCst) < PROBERS as usize;
        std::thread::scope(|s| {
            for t in 0..PROBERS {
                let (cache, version, writes, resizes) = (&cache, &version, &writes, &resizes);
                let (finished, probes, key, start) = (&finished, &probes, &key, &start);
                s.spawn(move || {
                    let _done = Finished(finished);
                    start.wait();
                    let mut x = 0x9E37_79B9_7F4A_7C15 ^ t;
                    let mut n = 0;
                    while n < PROBES_PER_THREAD
                        || writes.load(Ordering::SeqCst) < MIN_WRITES
                        || resizes.load(Ordering::SeqCst) < MIN_RESIZES
                    {
                        n += 1;
                        let i = next(&mut x) % KEYS;
                        let k = key(i);
                        let at = version.load(Ordering::SeqCst);
                        let hit = cache.get(k.borrow(), |(v, _)| !gated || *v == at);
                        probes.fetch_add(1, Ordering::Relaxed);
                        match hit {
                            Some((v, owner)) => {
                                assert_eq!(owner, k, "hit returned another key's value");
                                assert!(!gated || v == at, "hit crossed the version gate");
                            }
                            None => cache.insert(k.borrow(), (at, key(i))),
                        }
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                let mut x = 0xD1B5_4A32_D192_ED03;
                while running() {
                    cache.invalidate(key(next(&mut x) % KEYS).borrow());
                    let ops = writes.fetch_add(1, Ordering::SeqCst) + 1;
                    if gated && ops % 256 == 0 {
                        version.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            s.spawn(|| {
                start.wait();
                let caps = [0usize, 7, 300, 33, 1, 128, 64];
                let mut j = 0;
                while running() {
                    cache.resize(caps[j % caps.len()]);
                    j += 1;
                    resizes.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }
                cache.resize(FINAL_CAPACITY);
            });
        });
        let s = cache.stats();
        assert_eq!(
            s.hits + s.misses + s.stale,
            probes.load(Ordering::Relaxed),
            "every probe is exactly one of hit, miss or stale"
        );
        assert!(s.len <= s.capacity, "{s:?}");
        assert_eq!(s.capacity, FINAL_CAPACITY);
        assert_eq!(
            cache.ring_len(),
            FINAL_CAPACITY,
            "ring drifted from capacity"
        );
        assert!(
            s.hits > 0 && s.invalidations > 0 && s.evictions > 0,
            "{s:?}"
        );
        // What survived the hammer is still each key's own value.
        for i in 0..KEYS {
            let k = key(i);
            if let Some((_, owner)) = cache.get(k.borrow(), |_| true) {
                assert_eq!(owner, k);
            }
        }
        s
    }

    #[test]
    fn hammer_page_ids_always_accept() {
        let s = hammer::<PageId>(PageId, false);
        assert_eq!(s.stale, 0, "an always-accept cache never counts stale");
    }

    #[test]
    fn hammer_byte_keys_version_gate() {
        let s = hammer::<[u8]>(|i| format!("query-{i}").into_bytes(), true);
        assert!(s.stale > 0, "version bumps must surface as stale probes");
    }

    #[test]
    fn probe_counts_hit_stale_and_miss_and_invalidate_empties() {
        let cache = ClockCache::<[u8], u64>::new(4);
        cache.insert(b"a", 1);
        assert_eq!(cache.get(b"a", |&v| v == 1), Some(1));
        assert_eq!(cache.get(b"a", |&v| v == 2), None);
        assert_eq!(cache.get(b"b", |_| true), None);
        // Refresh in place: same slot, one entry, counted as an insert.
        cache.insert(b"a", 2);
        cache.invalidate(b"a");
        cache.invalidate(b"missing");
        let s = cache.stats();
        assert_eq!((s.hits, s.stale, s.misses), (1, 1, 1));
        assert_eq!((s.inserts, s.invalidations, s.len), (2, 1, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.get(b"a", |_| true), None);
        assert_eq!(cache.ring_len(), 4);
    }
}
