//! The exhaustive blockwise exploration baseline (§IV-B): construct every
//! blockwise TRN of every source network, deploy and measure each one, and
//! retrain each one — the 148-candidate, 183-hour sweep that NetCut's
//! deadline-aware exploration avoids.

use crate::eval::{EvalContext, EvalTask};
use crate::removal::blockwise_trns;
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
/// retrained by its retrainer. Candidates run on the context's worker pool
/// and hit its memo caches; point order matches the sequential sweep
/// regardless of worker count.
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
    explore_cuts(ctx, sources, seed, |_, source| blockwise_trns(source, head))
}

/// [`exhaustive_blockwise_with`] over TRNs the caller already cut:
/// `trns[i]` holds the [`blockwise_trns`] of `sources[i]`. A caller that
/// uses the TRNs after exploring them (the serve scenario sizes its exit
/// tables from them) cuts each source once and keeps the networks.
pub fn exhaustive_blockwise_of<R: Retrainer>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    trns: &[Vec<Network>],
    seed: u64,
) -> Exploration {
    explore_cuts(ctx, sources, seed, |i, _| &trns[i])
}

/// The evaluation loop of both exhaustive sweeps: `cut(i, source)` yields
/// the TRNs of `sources[i]`, owned (each freed once evaluated) or borrowed
/// (kept by the caller).
fn explore_cuts<R, T, C>(
    ctx: &EvalContext<'_, R>,
    sources: &[Network],
    seed: u64,
    cut: C,
) -> Exploration
where
    R: Retrainer,
    T: IntoIterator,
    T::Item: Borrow<Network> + Send,
    C: Fn(usize, &Network) -> T,
{
    let mut span = obs::span("explore.exhaustive");
    span.field("sources", sources.len());
    let tasks: Vec<EvalTask<T::Item>> = sources
        .iter()
        .enumerate()
        .flat_map(|(i, source)| {
            let source_layers = source.backbone_layer_count();
            cut(i, source).into_iter().map(move |trn| EvalTask {
                trn,
                source_layers,
                seed,
            })
        })
        .collect();
    let points = ctx.evaluate_many(tasks);
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
    let tasks: Vec<EvalTask> = sources
        .iter()
        .map(|source| {
            let mut adapted = source.backbone().with_head(head);
            adapted.rename(source.name());
            EvalTask {
                trn: adapted,
                source_layers: source.backbone_layer_count(),
                seed,
            }
        })
        .collect();
    let points = ctx.evaluate_many(tasks);
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
}
