//! The shared evaluation core: memoized measurement, retraining and
//! profiling behind an [`EvalContext`], plus a deterministic scoped-thread
//! executor.
//!
//! Every layer of the pipeline — the exhaustive sweep, Algorithm 1, the
//! deadline sweep, the bench harness and the CLI — evaluates candidates
//! through a context instead of calling [`Session`] / [`Retrainer`]
//! directly. The context owns a sharded concurrent memo cache keyed by
//! `(session fingerprint, structural fingerprint, network name, seed)`:
//! measurement, retraining and profiling live in *separate* sub-caches, so
//! an estimator-only probe (which needs a profile or a measurement) never
//! pays for retraining.
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
//! index-ordered slots, so only *wall-clock interleaving* varies with the
//! worker count. When two workers race to fill the same cache key they
//! compute the same value twice and the second insert is a no-op
//! semantically. With `jobs <= 1` no thread is spawned at all — work runs
//! inline on the caller's thread, preserving strict span nesting for
//! single-threaded trace consumers.

use crate::report::CandidatePoint;
use netcut_graph::Network;
use netcut_obs as obs;
use netcut_sim::{LatencyTable, Measurement, Session};
use netcut_train::{Retrainer, TrainedTrn};
use serde::Serialize;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked shards per sub-cache. A small power of
/// two: contention is per-candidate (coarse work units), not per-lookup.
const SHARDS: usize = 16;

/// Full memo key: which session, which structure, which name, which seed.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    session: u64,
    net: u64,
    name: String,
    seed: u64,
}

impl Key {
    /// Shard index, derived from the cheap numeric key components (the
    /// structural fingerprint already mixes the whole graph).
    fn shard(&self) -> usize {
        (self
            .net
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
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

/// One evaluation request for [`EvalContext::evaluate_many`]. The task
/// owns its TRN by default, so the network is freed once evaluated; an
/// `EvalTask<&Network>` borrows it instead, for a caller that goes on
/// using the networks it explored.
pub struct EvalTask<N = Network> {
    /// The TRN to measure and retrain (head attached).
    pub trn: N,
    /// Backbone layer count of the TRN's *source* network, for the
    /// `layers_removed` accounting.
    pub source_layers: usize,
    /// Measurement seed for this candidate. Fixed per task — never derived
    /// from execution order — so parallel runs stay bit-identical.
    pub seed: u64,
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

    fn key(&self, net: &Network, seed: u64) -> Key {
        Key {
            session: self.session_fp,
            net: net.structural_fingerprint(),
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
        self.measure_keyed(net, self.key(net, seed))
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
        self.lookup(&self.caches.profile, self.key(net, seed), || {
            self.verify_boundary(net);
            self.session.profile(net, seed)
        })
        .0
    }

    /// Memoized [`Retrainer::retrain`]. Retraining is seed-independent, so
    /// the key uses a fixed seed component and a hit is shared by every
    /// measurement seed probing the same TRN.
    pub fn retrain(&self, trn: &Network) -> TrainedTrn {
        self.retrain_keyed(trn, self.key(trn, 0))
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
        self.evaluate_inner(trn, source.backbone_layer_count(), seed)
    }

    fn evaluate_inner(&self, trn: &Network, source_layers: usize, seed: u64) -> CandidatePoint {
        let mut span = obs::span("explore.candidate");
        if span.is_recording() {
            span.field("candidate", trn.name());
            span.field("family", trn.base_name());
            span.field("cutpoint", trn.cutpoint());
        }
        // One structural fingerprint serves both lookups: retrain entries
        // are the measurement key at seed 0.
        let key = self.key(trn, seed);
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
            layers_removed: source_layers.saturating_sub(kept),
            latency_ms: measurement.mean_ms,
            estimated_ms: None,
            accuracy: trained.accuracy,
            train_hours: trained.train_hours,
        }
    }

    /// Evaluates a batch of tasks across the configured workers, returning
    /// points in task order regardless of completion order.
    pub fn evaluate_many<N: Borrow<Network> + Send>(
        &self,
        tasks: Vec<EvalTask<N>>,
    ) -> Vec<CandidatePoint> {
        self.par_map(tasks, |_, task| {
            self.evaluate_inner(task.trn.borrow(), task.source_layers, task.seed)
        })
    }

    /// Runs `f` over `items` on a scoped-thread work queue with this
    /// context's worker count, returning outputs in input order.
    ///
    /// With `jobs <= 1` (or a single item) everything runs inline on the
    /// caller's thread — no spawn, no span re-parenting — so sequential
    /// callers keep their exact trace shape. Otherwise workers pull item
    /// indices from a shared atomic counter and write results into
    /// per-index slots; each worker runs under an `eval.worker` span
    /// parented to the caller's innermost span.
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
/// [`EvalContext::par_map`] for callers with no evaluation context (e.g.
/// the serve scenario's per-request noise precompute). `jobs == 0` means one
/// worker per available CPU; `jobs <= 1` (or a single item) runs inline on
/// the caller's thread with no spawning, preserving the caller's exact
/// trace shape. Output order never depends on scheduling, so any `jobs`
/// value yields identical results.
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
    let n = items.len();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let parent = obs::current_span_id();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let items = &items;
            let slots = &slots;
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                let mut span = obs::span_with_parent("eval.worker", parent);
                if span.is_recording() {
                    span.field("worker", worker as u64);
                }
                let mut done = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = items[i]
                        .lock()
                        .expect("eval work item")
                        .take()
                        .expect("each item is claimed exactly once");
                    let out = f(i, item);
                    *slots[i].lock().expect("eval result slot") = Some(out);
                    done += 1;
                }
                span.field("tasks", done);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("eval result slot")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
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
    use netcut_graph::{zoo, HeadSpec};
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
