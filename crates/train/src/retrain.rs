//! The `Retrain(TRN)` step of Algorithm 1, abstracted so the exploration
//! code can run against the surrogate (paper-scale networks) or, in the
//! mini-scale demonstrations, against real gradient descent.

use crate::cost::TrainingCostModel;
use crate::surrogate::TransferModel;
use netcut_graph::Network;
use serde::{Deserialize, Serialize};

/// Result of retraining one TRN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedTrn {
    /// Network name (`family/cutN`).
    pub name: String,
    /// Deployed angular-similarity accuracy after fine-tuning.
    pub accuracy: f64,
    /// Wall-clock training cost charged, hours.
    pub train_hours: f64,
}

/// Anything that can fine-tune a TRN and report its deployed accuracy plus
/// the training time spent.
///
/// Retrainers are `Send + Sync` so the evaluation core can share one
/// instance across worker threads; implementations must be internally
/// thread-safe (the surrogate is plain data and trivially so).
pub trait Retrainer: Send + Sync {
    /// Fine-tunes `trn` and returns its evaluation.
    fn retrain(&self, trn: &Network) -> TrainedTrn;
}

/// The paper-scale retrainer: surrogate accuracy + cost-model hours.
///
/// # Example
///
/// ```
/// use netcut_graph::{zoo, HeadSpec};
/// use netcut_train::{Retrainer, SurrogateRetrainer};
///
/// let retrainer = SurrogateRetrainer::paper();
/// let trn = zoo::mobilenet_v1(0.5).cut_blocks(1)?.with_head(&HeadSpec::default());
/// let trained = retrainer.retrain(&trn);
/// assert!(trained.accuracy > 0.7);
/// assert!(trained.train_hours > 0.0);
/// # Ok::<(), netcut_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SurrogateRetrainer {
    accuracy_model: TransferModel,
    cost_model: TrainingCostModel,
}

impl SurrogateRetrainer {
    /// The configuration used for all paper-scale experiments.
    pub fn paper() -> Self {
        SurrogateRetrainer {
            accuracy_model: TransferModel::paper(),
            cost_model: TrainingCostModel::paper(),
        }
    }

    /// Builds a retrainer from explicit models.
    pub fn new(accuracy_model: TransferModel, cost_model: TrainingCostModel) -> Self {
        SurrogateRetrainer {
            accuracy_model,
            cost_model,
        }
    }

    /// The underlying accuracy surrogate.
    pub fn accuracy_model(&self) -> &TransferModel {
        &self.accuracy_model
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &TrainingCostModel {
        &self.cost_model
    }
}

impl Retrainer for SurrogateRetrainer {
    fn retrain(&self, trn: &Network) -> TrainedTrn {
        let mut span = netcut_obs::span("train.retrain");
        if span.is_recording() {
            span.field("candidate", trn.name());
        }
        let trained = TrainedTrn {
            name: trn.name().to_owned(),
            accuracy: self.accuracy_model.accuracy(trn),
            train_hours: self.cost_model.train_hours(trn),
        };
        netcut_obs::counter_add("train.retrains", 1);
        let train_s = (trained.train_hours * 3600.0).round() as u64;
        netcut_obs::observe("train.retrain_s", train_s);
        span.field("accuracy", trained.accuracy);
        span.field("train_hours", trained.train_hours);
        trained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::{zoo, HeadSpec};

    #[test]
    fn retrain_reports_name_accuracy_hours() {
        let r = SurrogateRetrainer::paper();
        let trn = zoo::resnet50()
            .cut_blocks(3)
            .unwrap()
            .with_head(&HeadSpec::default());
        let t = r.retrain(&trn);
        assert_eq!(t.name, "resnet50/cut3");
        assert!(t.accuracy > 0.5);
        assert!(t.train_hours > 0.1);
    }

    #[test]
    fn retraining_is_reproducible() {
        let r = SurrogateRetrainer::paper();
        let trn = zoo::densenet121()
            .cut_blocks(10)
            .unwrap()
            .with_head(&HeadSpec::default());
        assert_eq!(r.retrain(&trn), r.retrain(&trn));
    }
}
