//! The exhaustive blockwise exploration baseline (§IV-B): construct every
//! blockwise TRN of every source network, deploy and measure each one, and
//! retrain each one — the sweep that NetCut's deadline-aware exploration
//! avoids: 145 candidates here, 148 and 183 hours in the paper.

use crate::eval::{CutOrigin, EvalContext};
use crate::removal::blockwise_trn;
use crate::report::CandidatePoint;
use netcut_graph::{HeadSpec, Network};
use netcut_obs as obs;
use netcut_train::Retrainer;
use std::borrow::Borrow;

/// Result of an exploration run (exhaustive or otherwise): the evaluated
/// candidates and the retraining bill.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every evaluated candidate.
    pub points: Vec<CandidatePoint>,
    /// Total retraining cost, hours.
    pub total_train_hours: f64,
}

impl Exploration {
    /// Number of networks retrained.
    pub fn networks_trained(&self) -> usize {
        self.points.len()
    }

    /// Points belonging to one family, in cutpoint order.
    pub fn family(&self, family: &str) -> Vec<&CandidatePoint> {
        let mut pts: Vec<&CandidatePoint> =
            self.points.iter().filter(|p| p.family == family).collect();
        pts.sort_by_key(|p| p.cutpoint);
        pts
    }

    /// The Pareto-optimal candidates in ascending-latency order — the TRN
    /// ladder a serving runtime degrades along (fastest/most-trimmed first,
    /// most accurate last).
    pub fn pareto_points(&self) -> Vec<&CandidatePoint> {
        crate::pareto::pareto_frontier(&self.points)
            .into_iter()
            .map(|i| &self.points[i])
            .collect()
    }
}

/// Runs the exhaustive blockwise exploration over `sources` through `ctx`:
/// every TRN of every family is measured on the context's session and
/// retrained by its retrainer. Each TRN is cut inside its own task on the
/// context's worker pool and freed once evaluated, so the sweep holds one
/// TRN per worker; candidates hit the context's memo caches under their
/// derivation ([`CutOrigin::cut`]), and point order matches the
/// sequential sweep regardless of worker count.
///
/// # Example
///
/// ```no_run
/// use netcut::eval::EvalContext;
/// use netcut::explore::exhaustive_blockwise_with;
/// use netcut_graph::{zoo, HeadSpec};
/// use netcut_sim::{DeviceModel, Precision, Session};
/// use netcut_train::SurrogateRetrainer;
///
/// let session = Session::new(DeviceModel::jetson_xavier(), Precision::Int8);
/// let retrainer = SurrogateRetrainer::paper();
/// let ctx = EvalContext::new(&session, &retrainer);
/// let sources = zoo::paper_networks();
/// let result = exhaustive_blockwise_with(&ctx, &sources, &HeadSpec::default(), 42);
/// assert_eq!(result.networks_trained(), 145);
/// ```
pub fn exhaustive_blockwise_with<R: Retrainer>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    head: &HeadSpec,
    seed: u64,
) -> Exploration {
    let cuts = sources.iter().map(Network::num_blocks);
    explore_cuts(ctx, sources, head, cuts, seed, |i, k| {
        blockwise_trn(&sources[i], k, head)
    })
}

/// [`exhaustive_blockwise_with`] over TRNs the caller already cut:
/// `trns[i]` holds the [`blockwise_trns`](crate::removal::blockwise_trns)
/// of `sources[i]` under `head`. A caller that uses the TRNs after
/// exploring them (the serve scenario sizes its exit tables from them)
/// cuts each source once and keeps the networks.
pub fn exhaustive_blockwise_of<R: Retrainer>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    trns: &[Vec<Network>],
    head: &HeadSpec,
    seed: u64,
) -> Exploration {
    let cuts = trns.iter().map(Vec::len);
    explore_cuts(ctx, sources, head, cuts, seed, |i, k| &trns[i][k])
}

/// The evaluation loop of both exhaustive sweeps: one task per
/// `(source, cutpoint)` pair, where `cuts` yields each source's number of
/// cutpoints in order and `trn(i, k)` yields TRN `k` of `sources[i]`
/// under `head` inside the task, owned (cut there, freed once evaluated)
/// or borrowed (kept by the caller). Each source is fingerprinted once;
/// its TRNs are keyed by derivation.
fn explore_cuts<R, N>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    head: &HeadSpec,
    cuts: impl Iterator<Item = usize>,
    seed: u64,
    trn: impl Fn(usize, usize) -> N + Sync,
) -> Exploration
where
    R: Retrainer,
    N: Borrow<Network>,
{
    let mut span = obs::span("explore.exhaustive");
    span.field("sources", sources.len());
    let origins: Vec<CutOrigin> = sources.iter().map(|s| CutOrigin::new(s, head)).collect();
    let pairs: Vec<(usize, usize)> = cuts
        .enumerate()
        .flat_map(|(i, n)| (0..n).map(move |k| (i, k)))
        .collect();
    let points = ctx.par_map(pairs, |_, (i, k)| {
        ctx.evaluate_as(trn(i, k).borrow(), origins[i].cut(k), &sources[i], seed)
    });
    let total_train_hours = points.iter().map(|p| p.train_hours).sum();
    span.field("candidates", points.len());
    span.field("total_train_hours", total_train_hours);
    Exploration {
        points,
        total_train_hours,
    }
}

/// Evaluates only the *unmodified* source networks (with transfer heads)
/// through `ctx` — the off-the-shelf baseline of Fig. 1.
pub fn off_the_shelf_with<R: Retrainer>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    head: &HeadSpec,
    seed: u64,
) -> Exploration {
    let points = ctx.par_map(sources.iter().collect(), |_, source| {
        let mut adapted = source.backbone().with_head(head);
        adapted.rename(source.name());
        ctx.evaluate(&adapted, source, seed)
    });
    let total_train_hours = points.iter().map(|p| p.train_hours).sum();
    Exploration {
        points,
        total_train_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::zoo;
    use netcut_sim::{DeviceModel, Precision, Session};
    use netcut_train::SurrogateRetrainer;

    fn session() -> Session {
        Session::new(DeviceModel::jetson_xavier(), Precision::Int8)
    }

    /// The sweep over `sources` through a fresh context at seed 1.
    fn sweep(sources: &[Network]) -> Exploration {
        let (s, r) = (session(), SurrogateRetrainer::paper());
        exhaustive_blockwise_with(&EvalContext::new(&s, &r), sources, &HeadSpec::default(), 1)
    }

    #[test]
    fn exhaustive_covers_every_blockwise_trn() {
        let result = sweep(&[zoo::mobilenet_v1(0.25), zoo::mobilenet_v1(0.5)]);
        assert_eq!(result.networks_trained(), 26);
        assert!(result.total_train_hours > 0.0);
        // Points are measured and trained.
        for p in &result.points {
            assert!(p.latency_ms > 0.0);
            assert!(p.accuracy > 0.2);
        }
    }

    #[test]
    fn family_accessor_sorts_by_cutpoint() {
        let result = sweep(&[zoo::mobilenet_v1(0.25)]);
        let fam = result.family("mobilenet_v1_0.25");
        assert_eq!(fam.len(), 13);
        for (k, p) in fam.iter().enumerate() {
            assert_eq!(p.cutpoint, k);
        }
    }

    #[test]
    fn off_the_shelf_is_one_point_per_source() {
        let (s, r) = (session(), SurrogateRetrainer::paper());
        let result = off_the_shelf_with(
            &EvalContext::new(&s, &r),
            &zoo::paper_networks(),
            &HeadSpec::default(),
            1,
        );
        assert_eq!(result.networks_trained(), 7);
        let names: Vec<&str> = result.points.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"mobilenet_v1_0.50"));
    }

    #[test]
    fn deeper_cuts_are_faster_within_family() {
        let result = sweep(&[zoo::resnet50()]);
        let fam = result.family("resnet50");
        for w in fam.windows(2) {
            assert!(w[1].latency_ms < w[0].latency_ms);
        }
    }

    #[test]
    fn cutting_inside_tasks_matches_exploring_cut_trns() {
        let sources = zoo::paper_networks();
        let head = HeadSpec::default();
        let trns: Vec<Vec<Network>> = sources
            .iter()
            .map(|s| crate::removal::blockwise_trns(s, &head))
            .collect();
        let (s, r) = (session(), SurrogateRetrainer::paper());
        for jobs in [1, 4] {
            let cut_ctx = EvalContext::new(&s, &r).with_jobs(jobs);
            let cut = exhaustive_blockwise_with(&cut_ctx, &sources, &head, 7);
            let kept_ctx = EvalContext::new(&s, &r).with_jobs(jobs);
            let kept = exhaustive_blockwise_of(&kept_ctx, &sources, &trns, &head, 7);
            assert_eq!(cut.points, kept.points, "jobs {jobs}");
            assert_eq!(cut.total_train_hours, kept.total_train_hours);
            let (a, b) = (cut_ctx.stats(), kept_ctx.stats());
            assert_eq!(
                (a.hits, a.misses, a.distinct_retrains, a.entries),
                (b.hits, b.misses, b.distinct_retrains, b.entries),
                "jobs {jobs}"
            );
            assert_eq!(a.misses, 2 * 145);
        }
    }
}
