//! The shared evaluation core: memoized measurement, retraining and
//! profiling behind an [`EvalContext`], plus a deterministic scoped-thread
//! executor.
//!
//! Every layer of the pipeline — the exhaustive sweep, Algorithm 1, the
//! deadline sweep, the bench harness and the CLI — evaluates candidates
//! through a context instead of calling [`Session`] / [`Retrainer`]
//! directly. The context owns a sharded concurrent memo cache keyed by
//! `(session fingerprint, network identity, network name, seed)`:
//! measurement, retraining and profiling live in *separate* sub-caches, so
//! an estimator-only probe (which needs a profile or a measurement) never
//! pays for retraining.
//!
//! A network's identity ([`NetId`]) names its structure in one of two
//! ways. Most networks are named by their structural fingerprint, one FNV
//! pass over the whole graph ([`NetId::of`]). A blockwise cut is named by
//! its derivation instead: the structural fingerprint of its source, its
//! cutpoint and its head ([`CutOrigin::cut`]). The source is hashed once
//! for all of its cuts, and no cut is hashed. Every blockwise cut the
//! workspace evaluates is named by its derivation, so two evaluations
//! share an entry exactly when their networks have the same structure and
//! name, as when every network was named by its fingerprint.
//!
//! The network *name* is part of the key on purpose: the simulator seeds
//! its jitter RNG from the name, so two structurally identical networks
//! with different names measure differently, and a cache hit returns
//! bit-identically what a fresh evaluation would.
//!
//! # Determinism
//!
//! `--jobs 1` and `--jobs N` produce identical results: every task carries
//! its own fixed seed, evaluation of one candidate never depends on another
//! candidate's result, and [`EvalContext::par_map`] writes results into
//! index-ordered chunks, so only *wall-clock interleaving* varies with the
//! worker count. When two workers race to fill the same cache key they
//! compute the same value twice and the second insert is a no-op
//! semantically. With `jobs <= 1` no thread is spawned at all — work runs
//! inline on the caller's thread, preserving strict span nesting for
//! single-threaded trace consumers.

use crate::report::CandidatePoint;
use netcut_graph::{Fnv1a, HeadSpec, Network};
use netcut_obs as obs;
use netcut_sim::{LatencyTable, Measurement, Session};
use netcut_train::{Retrainer, TrainedTrn};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked shards per sub-cache. A small power of
/// two: contention is per-candidate (coarse work units), not per-lookup.
const SHARDS: usize = 16;

/// Chunks [`par_map_with_jobs`] cuts per worker: enough that a worker
/// finishing early claims more, few enough that a million cheap items
/// take a handful of locks.
const CHUNKS_PER_WORKER: usize = 16;

/// How a memo key names a network's structure: by the network's
/// structural fingerprint ([`NetId::of`]) or, for a blockwise cut, by its
/// derivation ([`CutOrigin::cut`]). An identity must determine the
/// structure it names: a wrong one serves another network's entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NetId(Named);

/// The two ways a [`NetId`] names a structure; they never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Named {
    /// A [`Network::structural_fingerprint`].
    Structure(u64),
    /// Blockwise cut `cutpoint` of the source and head a [`CutOrigin`]
    /// fingerprints.
    Cut { origin: u64, cutpoint: u32 },
}

impl NetId {
    /// Names `net` by its structural fingerprint: one pass over the graph.
    pub fn of(net: &Network) -> Self {
        NetId(Named::Structure(net.structural_fingerprint()))
    }
}

/// What a blockwise cut derives from: the structural fingerprint of its
/// source with the transfer head it carries folded in. Build one per
/// source and head, then name each cut with [`CutOrigin::cut`], so the
/// source is hashed once for all of its cuts.
///
/// A source's own head is part of its fingerprint, so a cut of a headed
/// source and the same cut of its backbone are named apart and share no
/// entry. Every caller in this workspace cuts headless sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CutOrigin(u64);

impl CutOrigin {
    /// Fingerprints `source` and feeds `head` after it. Two sources under
    /// one head never share an origin: FNV-1a takes distinct start states
    /// through the same bytes to distinct results.
    pub fn new(source: &Network, head: &HeadSpec) -> Self {
        let mut h = Fnv1a::seeded(source.structural_fingerprint());
        h.u64(head.classes as u64);
        h.u64(head.hidden.len() as u64);
        for &units in &head.hidden {
            h.u64(units as u64);
        }
        CutOrigin(h.finish())
    }

    /// Names this origin's blockwise cut at `cutpoint`,
    /// `source.cut_blocks(cutpoint)?.with_head(head)`.
    ///
    /// # Panics
    ///
    /// Panics if `cutpoint` exceeds `u32::MAX`.
    pub fn cut(self, cutpoint: usize) -> NetId {
        let cutpoint = u32::try_from(cutpoint).expect("cutpoint fits in u32");
        NetId(Named::Cut {
            origin: self.0,
            cutpoint,
        })
    }
}

/// Full memo key: which session, which structure, which name, which seed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    session: u64,
    net: NetId,
    name: String,
    seed: u64,
}

impl Key {
    /// Shard index, derived from the cheap numeric key components (a
    /// structural fingerprint mixes the whole graph, a cut origin its
    /// source's, and a cutpoint tells the cuts of one origin apart).
    fn shard(&self) -> usize {
        let net = match self.net.0 {
            Named::Structure(fp) => fp,
            Named::Cut { origin, cutpoint } => origin.wrapping_add(u64::from(cutpoint)),
        };
        (net.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.seed)
            >> 32) as usize
            % SHARDS
    }
}

/// A cached value together with the wall-clock its first computation cost,
/// so hits can report how much work the cache absorbed.
struct Entry<V> {
    value: V,
    cost_s: f64,
}

/// How [`EvalContext::lookup`] answered.
enum Answer {
    /// Served from the cache.
    Hit,
    /// Computed and stored.
    Fresh,
    /// Computed, but a racing thread stored the key first: a miss, neither
    /// fresh nor saved.
    Raced,
}

/// One sharded `key -> value` memo table.
struct SubCache<V> {
    shards: Vec<Mutex<HashMap<Key, Entry<V>>>>,
}

impl<V: Clone> SubCache<V> {
    fn new() -> Self {
        SubCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn get(&self, key: &Key) -> Option<(V, f64)> {
        let shard = self.shards[key.shard()].lock().expect("eval cache shard");
        shard.get(key).map(|e| (e.value.clone(), e.cost_s))
    }

    /// Stores `value` unless a racing thread stored `key` first; `true`
    /// when this call created the entry.
    fn insert(&self, key: Key, value: V, cost_s: f64) -> bool {
        let mut shard = self.shards[key.shard()].lock().expect("eval cache shard");
        let mut created = false;
        shard.entry(key).or_insert_with(|| {
            created = true;
            Entry { value, cost_s }
        });
        created
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("eval cache shard").len())
            .sum()
    }
}

/// Mutable accounting behind one mutex (touched once per evaluation, not
/// per lookup-probe, so contention is negligible).
#[derive(Default)]
struct Totals {
    hits: u64,
    misses: u64,
    eval_wall_s: f64,
    saved_wall_s: f64,
    fresh_train_hours: f64,
    saved_train_hours: f64,
    distinct_retrains: u64,
}

/// The shared memo state: three sub-caches plus hit/miss and wall-clock
/// accounting. Wrap in an [`Arc`] and hand to several [`EvalContext`]s
/// (e.g. one per phase of a benchmark suite) to share work across them.
pub struct EvalCaches {
    measure: SubCache<Measurement>,
    retrain: SubCache<TrainedTrn>,
    profile: SubCache<LatencyTable>,
    totals: Mutex<Totals>,
}

impl EvalCaches {
    /// Creates an empty cache set.
    pub fn new() -> Self {
        EvalCaches {
            measure: SubCache::new(),
            retrain: SubCache::new(),
            profile: SubCache::new(),
            totals: Mutex::new(Totals::default()),
        }
    }

    /// A snapshot of the accumulated cache statistics.
    pub fn stats(&self) -> EvalStats {
        let t = self.totals.lock().expect("eval totals");
        EvalStats {
            hits: t.hits,
            misses: t.misses,
            eval_wall_s: t.eval_wall_s,
            saved_wall_s: t.saved_wall_s,
            fresh_train_hours: t.fresh_train_hours,
            saved_train_hours: t.saved_train_hours,
            distinct_retrains: t.distinct_retrains,
            entries: self.measure.len() + self.retrain.len() + self.profile.len(),
        }
    }
}

impl Default for EvalCaches {
    fn default() -> Self {
        EvalCaches::new()
    }
}

impl std::fmt::Debug for EvalCaches {
    /// Summarizes the accounting rather than dumping cached networks —
    /// holders (e.g. a serve `Scenario`) stay debug-printable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EvalCaches")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

/// Point-in-time cache statistics, embeddable in benchmark summaries.
#[derive(Debug, Clone, Serialize)]
pub struct EvalStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Wall-clock spent actually computing, seconds.
    pub eval_wall_s: f64,
    /// Wall-clock the hits would have cost if recomputed, seconds.
    pub saved_wall_s: f64,
    /// Simulated retraining hours billed for fresh (uncached) retrains.
    pub fresh_train_hours: f64,
    /// Simulated retraining hours avoided by retrain-cache hits.
    pub saved_train_hours: f64,
    /// Number of fresh retrains: the number of *distinct* TRNs retrained.
    pub distinct_retrains: u64,
    /// Total entries currently cached across all sub-caches.
    pub entries: usize,
}

impl EvalStats {
    /// Fraction of lookups answered from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A handle combining a measurement [`Session`], a [`Retrainer`], shared
/// [`EvalCaches`] and an executor configuration. Cheap to construct;
/// borrow-based, so one `Lab`-style owner can mint contexts on demand.
///
/// # Example
///
/// ```no_run
/// use netcut::eval::EvalContext;
/// use netcut_graph::{zoo, HeadSpec};
/// use netcut_sim::{DeviceModel, Precision, Session};
/// use netcut_train::SurrogateRetrainer;
///
/// let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
/// let retrainer = SurrogateRetrainer::paper();
/// let ctx = EvalContext::new(&session, &retrainer).with_jobs(4);
/// let source = zoo::resnet50();
/// let trn = source.cut_blocks(3).unwrap().with_head(&HeadSpec::default());
/// let first = ctx.evaluate(&trn, &source, 13);
/// let cached = ctx.evaluate(&trn, &source, 13); // no re-measure, no re-train
/// assert_eq!(first, cached);
/// ```
pub struct EvalContext<'a, R: Retrainer> {
    session: &'a Session,
    retrainer: &'a R,
    caches: Arc<EvalCaches>,
    session_fp: u64,
    jobs: usize,
    strict: bool,
}

impl<'a, R: Retrainer> EvalContext<'a, R> {
    /// Creates a sequential (`jobs = 1`) context with fresh private
    /// caches.
    pub fn new(session: &'a Session, retrainer: &'a R) -> Self {
        EvalContext {
            session,
            retrainer,
            caches: Arc::new(EvalCaches::new()),
            session_fp: session.fingerprint(),
            jobs: 1,
            strict: false,
        }
    }

    /// Sets the worker count. `0` means one worker per available CPU;
    /// `1` (the default) runs inline on the caller's thread with no
    /// spawning at all.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        self
    }

    /// Replaces the private caches with a shared set, so several contexts
    /// (or several phases of one process) reuse each other's work.
    pub fn with_shared_caches(mut self, caches: Arc<EvalCaches>) -> Self {
        self.caches = caches;
        self
    }

    /// Enables strict verification: every network is run through the
    /// `netcut-verify` analyzer before a *fresh* evaluation (cache hits
    /// skip it — the entry was verified when it was computed). Debug builds
    /// always verify; this flag extends the check to release builds (the
    /// CLI's `--strict`).
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// The underlying measurement session.
    pub fn session(&self) -> &Session {
        self.session
    }

    /// The underlying retrainer.
    pub fn retrainer(&self) -> &R {
        self.retrainer
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache set this context reads and writes.
    pub fn caches(&self) -> Arc<EvalCaches> {
        self.caches.clone()
    }

    /// Snapshot of the cache statistics.
    pub fn stats(&self) -> EvalStats {
        self.caches.stats()
    }

    /// Transformation-boundary check: refuses to spend evaluation work on a
    /// structurally broken network. Runs inside the cache-miss path only,
    /// in debug builds always and in release builds under
    /// [`with_strict`](Self::with_strict).
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnostic when the analyzer reports an
    /// Error-severity finding. Warnings and notes never panic.
    fn verify_boundary(&self, net: &Network) {
        if self.strict || cfg!(debug_assertions) {
            if let Err(diag) = netcut_verify::validate(net) {
                panic!(
                    "refusing to evaluate structurally broken network `{}`: {diag}",
                    net.name()
                );
            }
        }
    }

    fn key(&self, net: &Network, id: NetId, seed: u64) -> Key {
        if let Named::Cut { cutpoint, .. } = id.0 {
            debug_assert_eq!(
                net.cutpoint(),
                cutpoint as usize,
                "`{}` is not the cut {id:?} names",
                net.name()
            );
        }
        Key {
            session: self.session_fp,
            net: id,
            name: net.name().to_owned(),
            seed,
        }
    }

    /// Memoized lookup: returns the cached value, or computes, stores and
    /// returns a fresh one, saying which. Two threads that miss the same
    /// key both compute; the one whose insert loses reports
    /// [`Answer::Raced`].
    fn lookup<V: Clone>(
        &self,
        sub: &SubCache<V>,
        key: Key,
        compute: impl FnOnce() -> V,
    ) -> (V, Answer) {
        if let Some((value, cost_s)) = sub.get(&key) {
            obs::counter_add("eval.cache_hit", 1);
            let mut t = self.caches.totals.lock().expect("eval totals");
            t.hits += 1;
            t.saved_wall_s += cost_s;
            return (value, Answer::Hit);
        }
        let start = Instant::now();
        let value = compute();
        let cost_s = start.elapsed().as_secs_f64();
        obs::counter_add("eval.cache_miss", 1);
        let answer = if sub.insert(key, value.clone(), cost_s) {
            Answer::Fresh
        } else {
            Answer::Raced
        };
        let mut t = self.caches.totals.lock().expect("eval totals");
        t.misses += 1;
        t.eval_wall_s += cost_s;
        (value, answer)
    }

    /// Memoized [`Session::measure`].
    pub fn measure(&self, net: &Network, seed: u64) -> Measurement {
        self.measure_as(net, NetId::of(net), seed)
    }

    /// [`Self::measure`] with `net` named by `id`: [`NetId::of`]`(net)`,
    /// or the [`CutOrigin::cut`] that names the blockwise cut `net` is.
    pub fn measure_as(&self, net: &Network, id: NetId, seed: u64) -> Measurement {
        self.measure_keyed(net, self.key(net, id, seed))
    }

    /// [`Self::measure`] under a key the caller already built; the
    /// measurement seed is the key's.
    fn measure_keyed(&self, net: &Network, key: Key) -> Measurement {
        let seed = key.seed;
        self.lookup(&self.caches.measure, key, || {
            self.verify_boundary(net);
            self.session.measure(net, seed)
        })
        .0
    }

    /// Memoized [`Session::profile`].
    pub fn profile(&self, net: &Network, seed: u64) -> LatencyTable {
        let key = self.key(net, NetId::of(net), seed);
        self.lookup(&self.caches.profile, key, || {
            self.verify_boundary(net);
            self.session.profile(net, seed)
        })
        .0
    }

    /// Memoized [`Retrainer::retrain`]. Retraining is seed-independent, so
    /// the key uses a fixed seed component and a hit is shared by every
    /// measurement seed probing the same TRN.
    pub fn retrain(&self, trn: &Network) -> TrainedTrn {
        self.retrain_as(trn, NetId::of(trn))
    }

    /// [`Self::retrain`] with `trn` named by `id`, as in
    /// [`Self::measure_as`].
    pub fn retrain_as(&self, trn: &Network, id: NetId) -> TrainedTrn {
        self.retrain_keyed(trn, self.key(trn, id, 0))
    }

    /// [`Self::retrain`] under a key the caller already built (seed 0).
    fn retrain_keyed(&self, trn: &Network, key: Key) -> TrainedTrn {
        let (trained, answer) = self.lookup(&self.caches.retrain, key, || {
            self.verify_boundary(trn);
            self.retrainer.retrain(trn)
        });
        let mut t = self.caches.totals.lock().expect("eval totals");
        match answer {
            Answer::Hit => t.saved_train_hours += trained.train_hours,
            Answer::Fresh => {
                t.fresh_train_hours += trained.train_hours;
                t.distinct_retrains += 1;
            }
            // A racing thread created the entry and billed this TRN.
            Answer::Raced => {}
        }
        drop(t);
        trained
    }

    /// Measures and retrains one TRN into a [`CandidatePoint`], serving
    /// both steps from the cache when possible.
    pub fn evaluate(&self, trn: &Network, source: &Network, seed: u64) -> CandidatePoint {
        self.evaluate_as(trn, NetId::of(trn), source, seed)
    }

    /// [`Self::evaluate`] with `trn` named by `id`, as in
    /// [`Self::measure_as`].
    pub fn evaluate_as(
        &self,
        trn: &Network,
        id: NetId,
        source: &Network,
        seed: u64,
    ) -> CandidatePoint {
        let mut span = obs::span("explore.candidate");
        if span.is_recording() {
            span.field("candidate", trn.name());
            span.field("family", trn.base_name());
            span.field("cutpoint", trn.cutpoint());
        }
        // One identity serves both lookups: retrain entries are the
        // measurement key at seed 0.
        let key = self.key(trn, id, seed);
        let retrain_key = Key {
            seed: 0,
            ..key.clone()
        };
        let measurement = self.measure_keyed(trn, key);
        let trained = self.retrain_keyed(trn, retrain_key);
        // Layer counts in the framework sense (BN/activation/pool nodes
        // included), matching the paper's `ResNet/94`-style labels.
        let kept = trn.backbone_layer_count();
        obs::counter_add("explore.candidates", 1);
        let train_s = (trained.train_hours * 3600.0).round() as u64;
        obs::observe("explore.train_s", train_s);
        if span.is_recording() {
            span.field("measured_ms", measurement.mean_ms);
            span.field("accuracy", trained.accuracy);
            span.field("train_hours", trained.train_hours);
        }
        CandidatePoint {
            name: trn.name().to_owned(),
            family: trn.base_name().to_owned(),
            cutpoint: trn.cutpoint(),
            kept_layers: kept,
            layers_removed: source.backbone_layer_count().saturating_sub(kept),
            latency_ms: measurement.mean_ms,
            estimated_ms: None,
            accuracy: trained.accuracy,
            train_hours: trained.train_hours,
        }
    }

    /// Runs `f` over `items` on a scoped-thread work queue with this
    /// context's worker count, returning outputs in input order.
    ///
    /// With `jobs <= 1` (or a single item) everything runs inline on the
    /// caller's thread — no spawn, no span re-parenting — so sequential
    /// callers keep their exact trace shape. Otherwise workers claim
    /// contiguous chunks of items from a shared atomic counter and fill
    /// each chunk's outputs in place; each worker runs under an
    /// `eval.worker` span parented to the caller's innermost span.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        par_map_with_jobs(self.jobs, items, f)
    }
}

/// Runs `f` over `items` on a scoped-thread work queue with `jobs` workers,
/// returning outputs in input order — the standalone form of
/// [`EvalContext::par_map`] for callers with no evaluation context.
/// `jobs == 0` means one worker per available CPU; `jobs <= 1` (or a
/// single item) runs inline on the caller's thread with no spawning,
/// preserving the caller's exact trace shape. Output order never depends
/// on scheduling, so any `jobs` value yields identical results.
pub fn par_map_with_jobs<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Chunk `c` holds items `c * size..`: its inputs until a worker claims
    // it, then its outputs, so a chunk takes one lock, not two per item.
    let n = items.len();
    let size = n.div_ceil(workers * CHUNKS_PER_WORKER);
    let mut items = items.into_iter();
    let chunks: Vec<Mutex<(Vec<T>, Vec<U>)>> = (0..n.div_ceil(size))
        .map(|_| Mutex::new((items.by_ref().take(size).collect(), Vec::new())))
        .collect();
    let next = AtomicUsize::new(0);
    let parent = obs::current_span_id();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let chunks = &chunks;
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                let mut span = obs::span_with_parent("eval.worker", parent);
                if span.is_recording() {
                    span.field("worker", worker as u64);
                }
                let mut done = 0u64;
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let Some(chunk) = chunks.get(c) else {
                        break;
                    };
                    let mut chunk = chunk.lock().expect("eval chunk");
                    let todo = std::mem::take(&mut chunk.0);
                    done += todo.len() as u64;
                    chunk.1 = todo
                        .into_iter()
                        .enumerate()
                        .map(|(k, t)| f(c * size + k, t))
                        .collect();
                }
                span.field("tasks", done);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.append(&mut chunk.into_inner().expect("eval chunk").1);
    }
    out
}

impl<'a, R: Retrainer> netcut_estimate::ProfileProvider for EvalContext<'a, R> {
    fn profile_table(&self, net: &Network, seed: u64) -> LatencyTable {
        self.profile(net, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{exhaustive_blockwise_with, Exploration};
    use crate::removal::blockwise_trn;
    use netcut_graph::zoo;
    use netcut_sim::{DeviceModel, Precision};
    use netcut_train::SurrogateRetrainer;

    fn session() -> Session {
        Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
    }

    #[test]
    fn cache_hit_is_identical_to_fresh_evaluation() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let source = zoo::mobilenet_v1(0.25);
        let trn = source
            .cut_blocks(2)
            .unwrap()
            .with_head(&HeadSpec::default());

        let cached_ctx = EvalContext::new(&s, &r);
        let first = cached_ctx.evaluate(&trn, &source, 13);
        let hit = cached_ctx.evaluate(&trn, &source, 13);
        assert_eq!(first, hit, "cache hit must be bit-identical");

        let fresh = EvalContext::new(&s, &r).evaluate(&trn, &source, 13);
        assert_eq!(first, fresh, "cached result must match a fresh one");
        // And both match the session and retrainer called directly.
        let trained = r.retrain(&trn);
        assert_eq!(hit.latency_ms, s.measure(&trn, 13).mean_ms);
        assert_eq!(hit.accuracy, trained.accuracy);
        assert_eq!(hit.train_hours, trained.train_hours);

        let stats = cached_ctx.stats();
        assert_eq!(stats.hits, 2, "second evaluate hits measure and retrain");
        assert_eq!(stats.misses, 2);
        assert!(stats.saved_wall_s > 0.0);
        assert_eq!(stats.distinct_retrains, 1);
    }

    /// Holds each caller until two have arrived, so both threads of a
    /// test miss the cache before either stores its result.
    struct BarrierRetrainer {
        inner: SurrogateRetrainer,
        barrier: std::sync::Barrier,
    }

    impl Retrainer for BarrierRetrainer {
        fn retrain(&self, trn: &Network) -> TrainedTrn {
            self.barrier.wait();
            self.inner.retrain(trn)
        }
    }

    #[test]
    fn racing_misses_bill_one_retrain() {
        let s = session();
        let r = BarrierRetrainer {
            inner: SurrogateRetrainer::paper(),
            barrier: std::sync::Barrier::new(2),
        };
        let trn = zoo::mobilenet_v1(0.25)
            .cut_blocks(1)
            .unwrap()
            .with_head(&HeadSpec::default());
        let ctx = EvalContext::new(&s, &r);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| ctx.retrain(&trn));
            }
        });
        let stats = ctx.stats();
        assert_eq!(stats.misses, 2, "both threads computed");
        assert_eq!(stats.distinct_retrains, 1);
        assert_eq!(stats.fresh_train_hours, r.inner.retrain(&trn).train_hours);
        assert_eq!(stats.saved_train_hours, 0.0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn retrain_cache_is_shared_across_measurement_seeds() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let source = zoo::mobilenet_v1(0.25);
        let trn = source
            .cut_blocks(1)
            .unwrap()
            .with_head(&HeadSpec::default());
        let ctx = EvalContext::new(&s, &r);
        let a = ctx.evaluate(&trn, &source, 13);
        let b = ctx.evaluate(&trn, &source, 14);
        // Different seeds measure differently but retrain once.
        assert_ne!(a.latency_ms, b.latency_ms);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(ctx.stats().distinct_retrains, 1);
    }

    #[test]
    fn estimator_probe_never_pays_for_retraining() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let net = zoo::mobilenet_v1(0.25);
        let ctx = EvalContext::new(&s, &r);
        ctx.measure(&net, 7);
        ctx.profile(&net, 7);
        let stats = ctx.stats();
        assert_eq!(stats.distinct_retrains, 0);
        assert_eq!(stats.fresh_train_hours, 0.0);
    }

    #[test]
    fn shared_caches_carry_work_across_contexts() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let caches = Arc::new(EvalCaches::new());
        let net = zoo::mobilenet_v1(0.25);
        let a = EvalContext::new(&s, &r).with_shared_caches(caches.clone());
        let first = a.measure(&net, 3);
        let b = EvalContext::new(&s, &r).with_shared_caches(caches.clone());
        let second = b.measure(&net, 3);
        assert_eq!(first, second);
        assert_eq!(caches.stats().hits, 1);
    }

    #[test]
    fn different_sessions_never_share_entries() {
        let xavier = session();
        let nano = Session::new(DeviceModel::jetson_nano(), Precision::Int8);
        let r = SurrogateRetrainer::paper();
        let caches = Arc::new(EvalCaches::new());
        let net = zoo::mobilenet_v1(0.25);
        let a = EvalContext::new(&xavier, &r).with_shared_caches(caches.clone());
        let b = EvalContext::new(&nano, &r).with_shared_caches(caches.clone());
        let ma = a.measure(&net, 3);
        let mb = b.measure(&net, 3);
        assert_ne!(ma.mean_ms, mb.mean_ms);
        assert_eq!(caches.stats().hits, 0, "distinct sessions must not alias");
    }

    /// Every blockwise cut of the paper and extended zoos (the extended zoo
    /// rebuilds the paper's seven) under three heads: cut identities and
    /// `(structural fingerprint, name)` pairs are in one-to-one
    /// correspondence, and evaluating through either gives the same point
    /// and shares the same entries. A MobileNetV1 ×0.5 under ×0.25's name
    /// makes cuts that only the source fingerprint tells apart.
    #[test]
    fn cut_identities_name_exactly_the_structures_they_cut() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let heads = [
            HeadSpec::default(),
            HeadSpec::with_classes(10),
            HeadSpec {
                hidden: vec![512],
                ..HeadSpec::default()
            },
        ];
        let mut impostor = zoo::mobilenet_v1(0.5);
        impostor.rename("mobilenet_v1_0.25");
        let sources: Vec<Network> = zoo::paper_networks()
            .into_iter()
            .chain(zoo::extended_networks())
            .chain([impostor])
            .collect();
        let by_id = EvalContext::new(&s, &r);
        let by_structure = EvalContext::new(&s, &r);
        let mut structure_of: HashMap<Key, (u64, String)> = HashMap::new();
        let mut key_of: HashMap<(u64, String), Key> = HashMap::new();
        let mut cuts = 0;
        for head in &heads {
            for source in &sources {
                let origin = CutOrigin::new(source, head);
                for k in 0..source.num_blocks() {
                    let trn = blockwise_trn(source, k, head);
                    let key = by_id.key(&trn, origin.cut(k), 0);
                    let structure = (trn.structural_fingerprint(), trn.name().to_owned());
                    let named = structure_of
                        .entry(key.clone())
                        .or_insert_with(|| structure.clone());
                    assert_eq!(*named, structure, "one identity, two structures");
                    let keyed = key_of.entry(structure).or_insert_with(|| key.clone());
                    assert_eq!(*keyed, key, "one structure, two identities");
                    assert_eq!(
                        by_id.evaluate_as(&trn, origin.cut(k), source, 13),
                        by_structure.evaluate(&trn, source, 13),
                        "{}",
                        trn.name()
                    );
                    cuts += 1;
                }
            }
        }
        assert_eq!(cuts, heads.len() * (145 + 163 + 13));
        assert_eq!(structure_of.len(), heads.len() * (163 + 13));
        let (a, b) = (by_id.stats(), by_structure.stats());
        assert_eq!(
            (a.hits, a.misses, a.distinct_retrains, a.entries),
            (b.hits, b.misses, b.distinct_retrains, b.entries)
        );
        assert_eq!(a.hits, 2 * heads.len() as u64 * 145);
    }

    fn exploration(jobs: usize) -> Exploration {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &r).with_jobs(jobs);
        let sources = [zoo::mobilenet_v1(0.25), zoo::mobilenet_v2(1.0)];
        exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), 1)
    }

    #[test]
    fn parallel_exploration_is_bit_identical_to_sequential() {
        let sequential = exploration(1);
        let parallel = exploration(8);
        assert_eq!(sequential.points, parallel.points);
        assert_eq!(sequential.total_train_hours, parallel.total_train_hours);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &r).with_jobs(4);
        let out = ctx.par_map((0..100).collect(), |i, v: usize| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        let s = session();
        let r = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &r).with_jobs(0);
        assert!(ctx.jobs() >= 1);
    }
}
