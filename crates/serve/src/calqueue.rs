//! A bucketed calendar queue over integer virtual microseconds.
//!
//! The serving runtime orders future events (batch folds awaiting the
//! controller's watermark) by `(timestamp, insertion order)`. A
//! comparison-based heap pays `O(log n)` pointer-chasing per operation
//! and — more importantly for determinism — leaves same-timestamp
//! ordering up to heap internals. The calendar queue instead hashes each
//! event into the bucket covering its timestamp
//! (`key_us / bucket_width_us`), so a push is an append and a pop scans
//! exactly one bucket. Ties on `key_us` pop in FIFO insertion order via
//! a monotone sequence number, which makes the drain order a pure
//! function of the push sequence — the property the runtime's goldens
//! and the `BinaryHeap`-equivalence property test pin.
//!
//! Bucket sizing: a pop is a linear min-scan of its bucket, so the width
//! should keep expected occupancy small — a few events per bucket. The
//! runtime's event rates are bounded by the request rate (at most one
//! batch dispatch per request), so [`EVENT_BUCKET_US`] (256 µs) holds
//! buckets to tens of entries even at the 200k-rps stress leg while
//! keeping the bucket array proportional to run duration (~20k buckets
//! per simulated 5 s). Degenerate key
//! distributions (everything in one bucket) degrade to the `O(n)` scan of
//! an unsorted list but stay correct.
//!
//! Everything is integer arithmetic on caller-supplied virtual time — no
//! wall clock, no hashing, no unordered collections — so the structure is
//! safe inside the determinism-linted serve crate.

/// Bucket width the serving runtime uses for its event queues, µs of
/// virtual time (see the module docs for the sizing argument).
pub const EVENT_BUCKET_US: u64 = 256;

/// One queued event: its key, its FIFO tie-breaker, its payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    key_us: u64,
    seq: u64,
    value: T,
}

/// A bucketed priority queue keyed on integer virtual microseconds,
/// popping in `(key_us, insertion order)` order.
///
/// ```
/// use netcut_serve::CalendarQueue;
/// let mut q = CalendarQueue::new(256);
/// q.push(900, "late");
/// q.push(100, "early");
/// q.push(100, "early-tie");
/// assert_eq!(q.pop_min(), Some((100, "early")));
/// assert_eq!(q.pop_min(), Some((100, "early-tie")));
/// assert_eq!(q.pop_min(), Some((900, "late")));
/// assert_eq!(q.pop_min(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    bucket_width_us: u64,
    buckets: Vec<Vec<Entry<T>>>,
    /// Index of the first bucket that may hold an entry; only scans
    /// forward in pops, only jumps backward on an earlier-keyed push.
    cursor: usize,
    len: usize,
    seq: u64,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket_width_us` is zero.
    pub fn new(bucket_width_us: u64) -> Self {
        assert!(bucket_width_us > 0, "bucket width must be positive");
        CalendarQueue {
            bucket_width_us,
            buckets: Vec::new(),
            cursor: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `value` at virtual time `key_us`.
    pub fn push(&mut self, key_us: u64, value: T) {
        let idx = usize::try_from(key_us / self.bucket_width_us)
            .expect("virtual time fits the bucket index");
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        self.buckets[idx].push(Entry {
            key_us,
            seq: self.seq,
            value,
        });
        self.seq += 1;
        if self.len == 0 || idx < self.cursor {
            self.cursor = idx;
        }
        self.len += 1;
    }

    /// Advances the cursor to the first non-empty bucket.
    fn settle(&mut self) {
        while self.cursor < self.buckets.len() && self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
    }

    /// Position of the minimal `(key_us, seq)` entry in the cursor bucket.
    fn min_pos(bucket: &[Entry<T>]) -> usize {
        let mut best = 0;
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let b = &bucket[best];
            if (e.key_us, e.seq) < (b.key_us, b.seq) {
                best = i;
            }
        }
        best
    }

    /// The smallest queued key, without removing it.
    pub fn peek_min_key(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let bucket = &self.buckets[self.cursor];
        Some(bucket[Self::min_pos(bucket)].key_us)
    }

    /// Removes and returns the earliest event, FIFO on key ties.
    pub fn pop_min(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let bucket = &mut self.buckets[self.cursor];
        let pos = Self::min_pos(bucket);
        // Buckets partition the key space in order, so the cursor bucket's
        // minimum is the global minimum; within the bucket the scan picks
        // by (key, seq), so swap_remove's reordering is invisible.
        let entry = bucket.swap_remove(pos);
        self.len -= 1;
        Some((entry.key_us, entry.value))
    }

    /// Removes and returns the earliest event if its key is at or before
    /// `watermark_us` — the controller-fold drain primitive.
    pub fn pop_at_or_before(&mut self, watermark_us: u64) -> Option<(u64, T)> {
        if self.peek_min_key()? > watermark_us {
            return None;
        }
        self.pop_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// splitmix64 — the repo's stock seeded generator for tests.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_key_then_fifo_order() {
        let mut q = CalendarQueue::new(100);
        q.push(500, 'a');
        q.push(5, 'b');
        q.push(500, 'c');
        q.push(5, 'd');
        q.push(0, 'e');
        let drained: Vec<(u64, char)> = std::iter::from_fn(|| q.pop_min()).collect();
        assert_eq!(
            drained,
            vec![(0, 'e'), (5, 'b'), (5, 'd'), (500, 'a'), (500, 'c')]
        );
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn watermark_drain_stops_at_the_boundary() {
        let mut q = CalendarQueue::new(EVENT_BUCKET_US);
        for key in [300u64, 100, 200, 100_000] {
            q.push(key, key);
        }
        let mut due = Vec::new();
        while let Some((k, v)) = q.pop_at_or_before(300) {
            due.push((k, v));
        }
        assert_eq!(due, vec![(100, 100), (200, 200), (300, 300)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_min_key(), Some(100_000));
    }

    #[test]
    fn interleaved_pushes_behind_the_cursor_still_pop_first() {
        let mut q = CalendarQueue::new(10);
        q.push(1_000, 0u64);
        assert_eq!(q.peek_min_key(), Some(1_000));
        // The cursor settled far right; an earlier push must rewind it.
        q.push(3, 1u64);
        assert_eq!(q.pop_min(), Some((3, 1)));
        assert_eq!(q.pop_min(), Some((1_000, 0)));
    }

    /// The ordering contract, against the reference semantics: a binary
    /// heap over `Reverse((key, seq))` — including same-key FIFO ties —
    /// across seeded random interleavings of pushes and pops. (The
    /// proptest-based version with shrinking lives in
    /// `tests/properties.rs`; this one keeps the contract pinned in the
    /// unit suite.)
    #[test]
    fn matches_binary_heap_order_on_seeded_random_interleavings() {
        for seed in 0..32u64 {
            let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            let mut q = CalendarQueue::new(64);
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..400 {
                let r = splitmix64(&mut state);
                if !r.is_multiple_of(3) {
                    // Narrow key range so same-key ties are common.
                    let key = splitmix64(&mut state) % 97;
                    q.push(key, seq);
                    heap.push(Reverse((key, seq, seq)));
                    seq += 1;
                } else {
                    let got = q.pop_min();
                    let want = heap.pop().map(|Reverse((k, _, v))| (k, v));
                    assert_eq!(got, want, "seed {seed}");
                }
            }
            loop {
                let got = q.pop_min();
                let want = heap.pop().map(|Reverse((k, _, v))| (k, v));
                assert_eq!(got, want, "seed {seed} drain");
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
