//! Lock-free snapshot publication: an atomic-pointer-swap cell in the
//! arc-swap / RCU style, hand-rolled over `std::sync::atomic` (the build
//! environment vendors its dependencies, so there is no `arc-swap` crate).
//!
//! The serving hot path must never take a lock: a reader calls
//! [`SnapshotCell::load`] and gets an [`Arc`] to an immutable snapshot in a
//! handful of atomic operations — no mutex, no rwlock, wait-free. Writers
//! build the *next* snapshot off-path (clone, mutate, publish) and swap it
//! in with a single atomic pointer exchange; concurrent readers keep using
//! whichever snapshot they already loaded.
//!
//! Every published snapshot carries a monotonically increasing
//! **generation** number. Consumers key derived state (e.g. the result
//! cache) on the generation, so publishing a new snapshot implicitly
//! invalidates everything computed against the old one.
//!
//! # Reclamation
//!
//! The classic hazard of a hand-rolled arc-swap is the window between a
//! reader loading the raw pointer and incrementing the strong count: a
//! writer that swaps and immediately drops the old `Arc` in that window
//! frees memory the reader is about to touch. The cell closes the window
//! with *striped reader counters* (a minimal quiescent-state scheme):
//!
//! * a reader increments one of [`STRIPES`] counters, loads the pointer,
//!   clones the `Arc`, and decrements the counter;
//! * a writer never frees a replaced snapshot directly — it *retires* the
//!   pointer, and frees the retired list only at a moment when every reader
//!   counter is observed at zero (all `SeqCst`, so a reader that starts
//!   after that observation is guaranteed to load the *new* pointer).
//!
//! Readers therefore pay two uncontended atomic increments per load
//! (striped to keep them uncontended); writers pay the deep-copy and a
//! short retired-list lock, which is fine because publications are rare
//! (online learning) while loads are the per-request hot path.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Number of reader-counter stripes; a small power of two keeps the array
/// compact while spreading unrelated threads across cache lines.
pub const STRIPES: usize = 8;

/// An immutable published snapshot: the payload plus the generation under
/// which it was published.
#[derive(Debug)]
pub struct Snapshot<T> {
    generation: u64,
    data: T,
}

impl<T> Snapshot<T> {
    /// The generation this snapshot was published at (the initial snapshot
    /// is generation 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot payload.
    pub fn data(&self) -> &T {
        &self.data
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.data
    }
}

/// Pad each stripe to its own cache line so reader increments on different
/// stripes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicUsize);

/// A cell holding the current [`Snapshot`], swappable atomically.
pub struct SnapshotCell<T> {
    /// `Arc::into_raw` of the current snapshot.
    current: AtomicPtr<Snapshot<T>>,
    /// Mirror of the current generation for cheap stats reads (the
    /// authoritative value lives inside the snapshot itself, so a loaded
    /// snapshot and its generation are always coherent).
    generation: AtomicU64,
    /// Striped active-reader counters (see module docs).
    readers: [PaddedCounter; STRIPES],
    /// Retired (replaced but not yet freed) snapshots. The lock also
    /// serializes writers; readers never touch it.
    retired: Mutex<Vec<*mut Snapshot<T>>>,
}

// Raw pointers poison auto-traits; the cell is exactly as thread-safe as an
// `Arc<Snapshot<T>>` handed across threads, hence the `Send + Sync` bounds.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

/// Each thread gets a sticky stripe assignment round-robin; a thread always
/// increments the same counter, so the per-load cost is an uncontended RMW.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, SeqCst) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl<T> SnapshotCell<T> {
    /// Creates a cell whose initial snapshot (generation 0) holds `data`.
    pub fn new(data: T) -> Self {
        let first = Arc::into_raw(Arc::new(Snapshot { generation: 0, data })) as *mut Snapshot<T>;
        SnapshotCell {
            current: AtomicPtr::new(first),
            generation: AtomicU64::new(0),
            readers: Default::default(),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Loads the current snapshot. Wait-free: two striped atomic increments
    /// and one pointer load; never blocks on writers.
    pub fn load(&self) -> Arc<Snapshot<T>> {
        let slot = &self.readers[stripe()].0;
        slot.fetch_add(1, SeqCst);
        let ptr = self.current.load(SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and cannot have been freed:
        // writers only free retired pointers after observing every reader
        // counter at zero, and our counter is non-zero for the whole window
        // between the load above and the strong-count increment here (the
        // SeqCst total order makes the two observations mutually exclusive).
        let arc = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        slot.fetch_sub(1, SeqCst);
        arc
    }

    /// The current generation (0 until the first [`SnapshotCell::publish`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }

    /// Publishes `data` as the next snapshot and returns its generation.
    /// Readers switch over atomically; in-flight readers keep the snapshot
    /// they already hold. Writers are serialized against each other but
    /// never block readers.
    pub fn publish(&self, data: T) -> u64 {
        let mut retired = self.retired.lock().expect("snapshot writer lock poisoned");
        let generation = self.generation.load(SeqCst) + 1;
        let next = Arc::into_raw(Arc::new(Snapshot { generation, data })) as *mut Snapshot<T>;
        let old = self.current.swap(next, SeqCst);
        self.generation.store(generation, SeqCst);
        retired.push(old);
        Self::reclaim_locked(&mut retired, &self.readers);
        generation
    }

    /// Frees retired snapshots if no reader is currently in its load
    /// window. Called opportunistically by `publish`; also available to
    /// periodic maintenance. Returns how many snapshots were freed.
    pub fn reclaim(&self) -> usize {
        let mut retired = self.retired.lock().expect("snapshot writer lock poisoned");
        Self::reclaim_locked(&mut retired, &self.readers)
    }

    /// Number of replaced snapshots awaiting reclamation (0 in quiescence).
    pub fn retired_count(&self) -> usize {
        self.retired.lock().expect("snapshot writer lock poisoned").len()
    }

    fn reclaim_locked(retired: &mut Vec<*mut Snapshot<T>>, readers: &[PaddedCounter; STRIPES]) -> usize {
        if retired.is_empty() {
            return 0;
        }
        // SeqCst: if every stripe reads zero *after* the pointer swap, then
        // any reader still holding a retired pointer has already cloned its
        // Arc (its decrement is ordered before our read), and any reader
        // that increments after our read will load the new pointer. Either
        // way, dropping the cell's reference to the retired snapshots below
        // cannot free memory a reader is about to touch.
        if readers.iter().any(|slot| slot.0.load(SeqCst) != 0) {
            return 0;
        }
        let freed = retired.len();
        for ptr in retired.drain(..) {
            // SAFETY: each retired pointer is a unique `Arc::into_raw` whose
            // cell-owned reference has not been dropped yet.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
        freed
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no readers can exist, every pointer is safe to free.
        let retired = self.retired.get_mut().map(std::mem::take).unwrap_or_default();
        for ptr in retired {
            unsafe { drop(Arc::from_raw(ptr)) };
        }
        let current = *self.current.get_mut();
        unsafe { drop(Arc::from_raw(current)) };
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("generation", &self.generation())
            .field("retired", &self.retired_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn load_returns_the_published_snapshot_with_its_generation() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let first = cell.load();
        assert_eq!(first.generation(), 0);
        assert_eq!(**first, vec![1, 2, 3]);
        assert_eq!(cell.publish(vec![4]), 1);
        assert_eq!(cell.generation(), 1);
        let second = cell.load();
        assert_eq!(second.generation(), 1);
        assert_eq!(**second, vec![4]);
        // The old snapshot stays valid for holders.
        assert_eq!(**first, vec![1, 2, 3]);
    }

    /// A payload that counts its drops, to observe reclamation.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn replaced_snapshots_are_reclaimed_in_quiescence() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(DropCounter(Arc::clone(&drops)));
        for _ in 0..10 {
            cell.publish(DropCounter(Arc::clone(&drops)));
        }
        // No readers: every publish reclaims the snapshot it replaced.
        assert_eq!(drops.load(SeqCst), 10);
        assert_eq!(cell.retired_count(), 0);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 11, "the final snapshot is freed on drop");
    }

    #[test]
    fn holders_keep_old_snapshots_alive_until_dropped() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(DropCounter(Arc::clone(&drops)));
        let held = cell.load();
        cell.publish(DropCounter(Arc::clone(&drops)));
        // The cell's reference was reclaimed (no reader is mid-load), but
        // the holder's Arc keeps the payload alive.
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(drops.load(SeqCst), 0);
        drop(held);
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn readers_never_observe_a_half_published_snapshot() {
        // The interleaving stress test of the publication protocol: the
        // payload carries a checksum derived from its generation, and every
        // reader verifies the invariant. A torn or half-published snapshot
        // (pointer swapped before the payload is complete, or a freed
        // payload read after reclamation) would break the checksum or crash.
        #[derive(Debug)]
        struct Checked {
            tag: u64,
            words: Vec<u64>,
        }
        impl Checked {
            fn new(tag: u64) -> Self {
                Checked { tag, words: (0..64).map(|i| tag.wrapping_mul(31).wrapping_add(i)).collect() }
            }
            fn verify(&self) {
                for (i, word) in self.words.iter().enumerate() {
                    assert_eq!(*word, self.tag.wrapping_mul(31).wrapping_add(i as u64), "torn snapshot");
                }
            }
        }

        const READERS: usize = 4;
        let cell = Arc::new(SnapshotCell::new(Checked::new(0)));
        let stop = Arc::new(AtomicUsize::new(0));
        // Every reader is running before the first publish: on a small
        // machine the writer could otherwise finish before any reader is
        // scheduled, and the test would check nothing.
        let running = Arc::new(Barrier::new(READERS + 1));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let running = Arc::clone(&running);
                std::thread::spawn(move || {
                    let mut last_generation = 0;
                    let mut loads = 0u64;
                    running.wait();
                    // At least one load per reader, however late the
                    // `stop` flag is observed.
                    loop {
                        let snapshot = cell.load();
                        snapshot.verify();
                        // Generations are monotone from any reader's view.
                        assert!(snapshot.generation() >= last_generation, "generation went backwards");
                        // The payload matches the generation it was
                        // published under (publication is atomic).
                        assert_eq!(snapshot.tag, snapshot.generation(), "payload from another generation");
                        last_generation = snapshot.generation();
                        loads += 1;
                        if stop.load(SeqCst) != 0 {
                            break;
                        }
                    }
                    loads
                })
            })
            .collect();

        running.wait();
        let mut generation = 0;
        for _ in 0..2_000 {
            generation = cell.publish(Checked::new(generation + 1));
        }
        stop.store(1, SeqCst);
        let total_loads: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        assert!(total_loads > 0);
        assert_eq!(cell.generation(), 2_000);
        // With all readers stopped, one more publish reclaims everything.
        cell.publish(Checked::new(2_001));
        cell.reclaim();
        assert_eq!(cell.retired_count(), 0, "quiescent reclamation must drain the retired list");
    }

    #[test]
    fn concurrent_writers_serialize_and_never_lose_generations() {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        cell.publish(0);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer panicked");
        }
        assert_eq!(cell.generation(), 1_000);
    }
}
