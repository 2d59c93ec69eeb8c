//! **Algorithm 1 — NetCut**: deadline-aware exploration.
//!
//! For each trained source network, increment the blockwise cutpoint until
//! the latency *estimator* predicts the TRN meets the deadline; retrain
//! only that first real-time TRN. One proposal per family (7 for the
//! paper's study, versus the 145 blockwise candidates this reproduction
//! sweeps — the paper counts 148 — a 95 % reduction), then pick the
//! retrained proposal with the highest accuracy.
//!
//! Each step asks [`LatencyEstimator::estimate_cut_ms`] about a cutpoint,
//! so an estimator that answers from per-source tables (the profiler)
//! never builds the cuts it rejects; only the proposal is built, and the
//! evaluation cache names it by derivation ([`CutOrigin::cut`]).

use crate::eval::{CutOrigin, EvalContext, NetId};
use crate::removal::blockwise_trn;
use crate::report::CandidatePoint;
use netcut_estimate::LatencyEstimator;
use netcut_graph::{HeadSpec, Network};
use netcut_obs as obs;
use netcut_train::Retrainer;
use std::marker::PhantomData;

/// Outcome of one NetCut run.
#[derive(Debug, Clone)]
pub struct NetCutOutcome {
    /// One evaluated proposal per source family, in source order. Each
    /// carries the estimator's latency prediction in
    /// [`CandidatePoint::estimated_ms`] and the measured ground truth in
    /// [`CandidatePoint::latency_ms`].
    pub proposals: Vec<CandidatePoint>,
    /// The deadline used, milliseconds.
    pub deadline_ms: f64,
    /// Total retraining cost of the proposals, hours.
    pub exploration_hours: f64,
}

impl NetCutOutcome {
    /// The algorithm's final selection: the most accurate proposal whose
    /// *estimated* latency meets the deadline (the quantity the algorithm
    /// acts on), or `None` if no family could be cut under the deadline.
    pub fn selected(&self) -> Option<&CandidatePoint> {
        self.proposals
            .iter()
            .filter(|p| p.estimated_ms.is_some_and(|e| e <= self.deadline_ms))
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
    }

    /// Proposals whose measured latency violates the deadline even though
    /// the estimator predicted otherwise — estimator failures.
    pub fn missed_deadline(&self) -> Vec<&CandidatePoint> {
        self.proposals
            .iter()
            .filter(|p| {
                p.estimated_ms.is_some_and(|e| e <= self.deadline_ms)
                    && p.latency_ms > self.deadline_ms
            })
            .collect()
    }
}

/// The NetCut explorer: a latency estimator plus the type of retrainer
/// its evaluation context trains with.
///
/// See the [crate-level example](crate) for an end-to-end run.
pub struct NetCut<'a, E: LatencyEstimator, R: Retrainer> {
    estimator: &'a E,
    retrainer: PhantomData<&'a R>,
    head: HeadSpec,
    source_seed: u64,
    eval_seed: u64,
}

impl<'a, E: LatencyEstimator, R: Retrainer> NetCut<'a, E, R> {
    /// Creates an explorer with the default transfer head and the paper
    /// runs' measurement seeds (`11` for source networks, `13` for
    /// proposal validation).
    ///
    /// `retrainer` fixes only the retrainer *type*: the proposals are
    /// trained by the retrainer of the [`EvalContext`] each run goes
    /// through.
    pub fn new(estimator: &'a E, _retrainer: &'a R) -> Self {
        NetCut {
            estimator,
            retrainer: PhantomData,
            head: HeadSpec::default(),
            source_seed: 11,
            eval_seed: 13,
        }
    }

    /// Overrides the transfer head attached to every TRN.
    pub fn with_head(mut self, head: HeadSpec) -> Self {
        self.head = head;
        self
    }

    /// Overrides the measurement seeds: `source_seed` times the unmodified
    /// source networks (an algorithm input), `eval_seed` validates the
    /// proposed TRNs.
    pub fn with_seeds(mut self, source_seed: u64, eval_seed: u64) -> Self {
        self.source_seed = source_seed;
        self.eval_seed = eval_seed;
        self
    }

    /// Runs Algorithm 1 over `sources` for the given deadline through
    /// `ctx`. The context's session provides the measured latency of each
    /// *source* network (an algorithm input) and the ground-truth
    /// validation of each proposal; its retrainer trains the proposals.
    /// Families explore on the context's worker pool, and source
    /// measurements / proposal evaluations hit its memo caches (so a second
    /// run at a nearby deadline pays only for newly proposed TRNs).
    /// Proposal order matches the sequential run regardless of worker
    /// count.
    pub fn run_with(
        &self,
        sources: &[Network],
        deadline_ms: f64,
        ctx: &EvalContext<'_, R>,
    ) -> NetCutOutcome {
        self.run_adapted(&self.adapt(sources), deadline_ms, ctx)
    }

    /// Pairs each source with its trained network (the backbone with this
    /// explorer's transfer head, under the source's name) and names both
    /// for the evaluation cache, fingerprinting each once.
    fn adapt<'s>(&self, sources: &'s [Network]) -> Vec<Family<'s>> {
        sources
            .iter()
            .map(|source| {
                let mut adapted = source.backbone().with_head(&self.head);
                adapted.rename(source.name());
                Family {
                    source,
                    adapted_id: NetId::of(&adapted),
                    adapted,
                    cuts: CutOrigin::new(source, &self.head),
                }
            })
            .collect()
    }

    fn run_adapted(
        &self,
        families: &[Family<'_>],
        deadline_ms: f64,
        ctx: &EvalContext<'_, R>,
    ) -> NetCutOutcome {
        let mut run_span = obs::span("netcut.run");
        run_span.field("deadline_ms", deadline_ms);
        run_span.field("sources", families.len());
        let proposals = ctx.par_map(families.iter().collect(), |_, family| {
            self.propose(family, deadline_ms, ctx)
        });
        let exploration_hours = proposals.iter().map(|p| p.train_hours).sum();
        run_span.field("proposals", proposals.len());
        run_span.field("exploration_hours", exploration_hours);
        NetCutOutcome {
            proposals,
            deadline_ms,
            exploration_hours,
        }
    }

    /// Algorithm 1 for a single source family.
    fn propose(
        &self,
        family: &Family<'_>,
        deadline_ms: f64,
        ctx: &EvalContext<'_, R>,
    ) -> CandidatePoint {
        let source = family.source;
        let mut family_span = obs::span("netcut.family");
        if family_span.is_recording() {
            family_span.field("family", source.name());
        }
        // Algorithm 1 lines 2–4: start from the full network with its
        // *measured* latency.
        let mut est_latency = ctx
            .measure_as(&family.adapted, family.adapted_id, self.source_seed)
            .mean_ms;
        let mut cutpoint = 0usize;
        // Lines 5–9: cut until the estimate meets the deadline (or the
        // family runs out of blocks).
        while est_latency > deadline_ms && cutpoint + 1 < source.num_blocks() {
            cutpoint += 1;
            est_latency = self.estimator.estimate_cut_ms(source, cutpoint, &self.head);
            obs::counter_add("netcut.steps", 1);
            if obs::enabled() {
                obs::instant(
                    "netcut.step",
                    &[
                        ("family", source.name().into()),
                        ("cutpoint", cutpoint.into()),
                        ("predicted_ms", est_latency.into()),
                        ("deadline_ms", deadline_ms.into()),
                    ],
                );
            }
        }
        // Line 10: retrain the proposed TRN; also deploy it to record
        // ground truth.
        let mut point = if cutpoint == 0 {
            ctx.evaluate_as(&family.adapted, family.adapted_id, source, self.eval_seed)
        } else {
            let trn = blockwise_trn(source, cutpoint, &self.head);
            ctx.evaluate_as(&trn, family.cuts.cut(cutpoint), source, self.eval_seed)
        };
        point.estimated_ms = Some(est_latency);
        let accept = est_latency <= deadline_ms;
        if accept {
            obs::counter_add("netcut.proposals_accepted", 1);
        } else {
            obs::counter_add("netcut.proposals_rejected", 1);
        }
        let residual_ms = (est_latency - point.latency_ms).abs();
        obs::observe("netcut.residual_us", (residual_ms * 1e3).round() as u64);
        if family_span.is_recording() {
            family_span.field("cutpoint", cutpoint);
            family_span.field("predicted_ms", est_latency);
            family_span.field("measured_ms", point.latency_ms);
            family_span.field("accept", accept);
            family_span.field(
                "reason",
                if !accept {
                    "blocks_exhausted_above_deadline"
                } else if cutpoint == 0 {
                    "source_already_meets_deadline"
                } else {
                    "first_trn_predicted_under_deadline"
                },
            );
        }
        point
    }
}

/// One source family as Algorithm 1 explores it: the source, its trained
/// network and the cache identities of both, computed once per call.
struct Family<'s> {
    source: &'s Network,
    /// The backbone with the explorer's head, under the source's name.
    adapted: Network,
    adapted_id: NetId,
    /// Names the source's blockwise cuts under the explorer's head.
    cuts: CutOrigin,
}

/// Outcome of exploring several deadlines with shared retraining.
#[derive(Debug, Clone)]
pub struct DeadlineSweep {
    /// Per-deadline outcomes, in input order.
    pub outcomes: Vec<(f64, NetCutOutcome)>,
    /// Total retraining cost with each distinct TRN billed once, hours.
    pub total_hours: f64,
    /// Number of distinct TRNs retrained across the sweep.
    pub distinct_trained: usize,
}

impl<'a, E: LatencyEstimator, R: Retrainer> NetCut<'a, E, R> {
    /// Runs Algorithm 1 for several deadlines, billing each distinct TRN's
    /// retraining once: adjacent deadlines usually propose overlapping
    /// TRNs, so a product line with several latency tiers pays far less
    /// than `deadlines.len()` full explorations. The sharing comes from the
    /// evaluation cache — overlapping proposals hit the retrain sub-cache
    /// of `ctx` instead of being billed again. The sweep's cost accounting
    /// is the change in the context's cache statistics over the sweep.
    /// Each adapted source is built and fingerprinted once per sweep.
    pub fn run_deadlines_with(
        &self,
        sources: &[Network],
        deadlines_ms: &[f64],
        ctx: &EvalContext<'_, R>,
    ) -> DeadlineSweep {
        let before = ctx.stats();
        let families = self.adapt(sources);
        let mut outcomes = Vec::with_capacity(deadlines_ms.len());
        for &deadline in deadlines_ms {
            outcomes.push((deadline, self.run_adapted(&families, deadline, ctx)));
        }
        let after = ctx.stats();
        DeadlineSweep {
            outcomes,
            total_hours: after.fresh_train_hours - before.fresh_train_hours,
            distinct_trained: (after.distinct_retrains - before.distinct_retrains) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_estimate::ProfilerEstimator;
    use netcut_graph::zoo;
    use netcut_sim::{DeviceModel, Precision, Session};
    use netcut_train::SurrogateRetrainer;

    /// The deadlines of the benchmark's `pipeline` workload, milliseconds.
    const PIPELINE_DEADLINES_MS: [f64; 7] = [0.5, 0.7, 0.9, 1.2, 1.5, 2.0, 3.0];

    /// The `pipeline` workload's evaluations at seed 11 through one
    /// context share exactly these cache entries: a change to how the
    /// memo key names a network must keep every hit a hit and every miss
    /// a miss.
    #[test]
    fn pipeline_evaluations_share_the_pinned_entries() {
        let s = session();
        let retrainer = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &retrainer).with_jobs(1);
        let sources = zoo::paper_networks();
        let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 11);
        NetCut::new(&estimator, &retrainer)
            .with_seeds(11, 13)
            .run_deadlines_with(&sources, &PIPELINE_DEADLINES_MS, &ctx);
        crate::explore::exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), 11);
        let stats = ctx.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.distinct_retrains),
            (106, 338, 150)
        );
    }

    fn session() -> Session {
        Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
    }

    fn run(deadline: f64) -> NetCutOutcome {
        let s = session();
        let retrainer = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &retrainer);
        let sources = zoo::paper_networks();
        let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
        NetCut::new(&estimator, &retrainer).run_with(&sources, deadline, &ctx)
    }

    #[test]
    fn one_proposal_per_family() {
        let outcome = run(0.9);
        assert_eq!(outcome.proposals.len(), 7);
        let families: std::collections::HashSet<&str> = outcome
            .proposals
            .iter()
            .map(|p| p.family.as_str())
            .collect();
        assert_eq!(families.len(), 7);
    }

    #[test]
    fn fast_families_are_not_cut() {
        let outcome = run(0.9);
        let mnv1 = outcome
            .proposals
            .iter()
            .find(|p| p.family == "mobilenet_v1_0.50")
            .unwrap();
        assert_eq!(mnv1.cutpoint, 0, "MobileNetV1 0.5 already meets 0.9 ms");
    }

    #[test]
    fn slow_families_are_cut_to_the_deadline() {
        let outcome = run(0.9);
        let resnet = outcome
            .proposals
            .iter()
            .find(|p| p.family == "resnet50")
            .unwrap();
        assert!(resnet.cutpoint > 0, "ResNet-50 must be trimmed for 0.9 ms");
        let est = resnet.estimated_ms.unwrap();
        assert!(est <= 0.9, "estimate {est} must meet the deadline");
        assert!(
            resnet.latency_ms <= 0.9 * 1.1,
            "measured latency {} should be near or under the deadline",
            resnet.latency_ms
        );
        // The proposal is the *first* real-time TRN: one block less removed
        // must violate the deadline (estimated). At cutpoint 0 the
        // algorithm's estimate is the source's measured latency.
        let s = session();
        let retrainer = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &retrainer);
        let sources = zoo::paper_networks();
        let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
        let head = HeadSpec::default();
        let nc = NetCut::new(&estimator, &retrainer);
        let mut cut = 0;
        for deadline in PIPELINE_DEADLINES_MS {
            let outcome = nc.run_with(&sources, deadline, &ctx);
            for (source, p) in sources.iter().zip(&outcome.proposals) {
                if p.cutpoint == 0 {
                    continue;
                }
                cut += 1;
                let previous = if p.cutpoint == 1 {
                    let mut adapted = source.backbone().with_head(&head);
                    adapted.rename(source.name());
                    ctx.measure(&adapted, 11).mean_ms
                } else {
                    let trn = source.cut_blocks(p.cutpoint - 1).unwrap().with_head(&head);
                    estimator.estimate_ms(&trn)
                };
                assert!(
                    previous > deadline,
                    "{} at {deadline} ms: one block less reads {previous} ms",
                    p.name
                );
            }
        }
        assert!(cut > 0, "no family was cut at any deadline");
    }

    #[test]
    fn selection_is_most_accurate_real_time_proposal() {
        let outcome = run(0.9);
        let selected = outcome.selected().expect("some family meets 0.9 ms");
        for p in &outcome.proposals {
            if p.estimated_ms.is_some_and(|e| e <= 0.9) {
                assert!(selected.accuracy >= p.accuracy);
            }
        }
    }

    #[test]
    fn loose_deadline_selects_best_full_network() {
        let outcome = run(10.0);
        for p in &outcome.proposals {
            assert_eq!(p.cutpoint, 0, "{} should be uncut at 10 ms", p.name);
        }
        let selected = outcome.selected().unwrap();
        assert_eq!(selected.family, "densenet121");
    }

    #[test]
    fn deadline_sweep_shares_retraining() {
        let s = session();
        let retrainer = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &retrainer);
        let sources = zoo::paper_networks();
        let estimator = ProfilerEstimator::profile_with(&ctx, &sources, 3);
        let nc = NetCut::new(&estimator, &retrainer);
        let deadlines = [0.8, 0.9, 1.0, 1.2];
        let sweep = nc.run_deadlines_with(&sources, &deadlines, &ctx);
        assert_eq!(sweep.outcomes.len(), 4);
        // Naive cost: every run billed independently.
        let naive: f64 = sweep
            .outcomes
            .iter()
            .map(|(_, o)| o.exploration_hours)
            .sum();
        assert!(
            sweep.total_hours < naive * 0.85,
            "sharing saved too little: {} vs naive {}",
            sweep.total_hours,
            naive
        );
        // Distinct TRNs are far fewer than 4 × 7 proposals.
        assert!(sweep.distinct_trained < 4 * sources.len());
        // Tighter deadlines never select a *more* accurate network.
        let accs: Vec<f64> = sweep
            .outcomes
            .iter()
            .map(|(_, o)| o.selected().map_or(0.0, |p| p.accuracy))
            .collect();
        for w in accs.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "accuracy decreased with looser deadline: {accs:?}"
            );
        }
    }

    /// Implements only `estimate_ms`, so Algorithm 1 takes the trait's
    /// default per-cut method and builds every TRN it steps through.
    struct BuildEveryCut<'a>(&'a ProfilerEstimator);

    impl LatencyEstimator for BuildEveryCut<'_> {
        fn estimate_ms(&self, trn: &Network) -> f64 {
            self.0.estimate_ms(trn)
        }

        fn name(&self) -> &str {
            "build-every-cut"
        }
    }

    #[test]
    fn per_cut_estimates_propose_what_building_every_cut_proposes() {
        let s = session();
        let retrainer = SurrogateRetrainer::paper();
        let ctx = EvalContext::new(&s, &retrainer);
        let sources = zoo::paper_networks();
        let profiler = ProfilerEstimator::profile_with(&ctx, &sources, 3);
        let built = BuildEveryCut(&profiler);
        let mut deadlines = vec![0.001, 10.0];
        deadlines.extend(PIPELINE_DEADLINES_MS);
        let per_cut =
            NetCut::new(&profiler, &retrainer).run_deadlines_with(&sources, &deadlines, &ctx);
        let every = NetCut::new(&built, &retrainer).run_deadlines_with(&sources, &deadlines, &ctx);
        for ((deadline, a), (_, b)) in per_cut.outcomes.iter().zip(&every.outcomes) {
            assert_eq!(a.proposals, b.proposals, "at {deadline} ms");
        }
    }

    #[test]
    fn exploration_cost_is_far_below_exhaustive() {
        let outcome = run(0.9);
        // 7 retrained networks vs 145 — and the hours must reflect that.
        let (s, r) = (session(), SurrogateRetrainer::paper());
        let exhaustive = crate::explore::exhaustive_blockwise_with(
            &EvalContext::new(&s, &r),
            &zoo::paper_networks(),
            &HeadSpec::default(),
            1,
        );
        assert!(outcome.exploration_hours < exhaustive.total_train_hours / 10.0);
    }
}
