//! Network intermediate representation for the NetCut reproduction.
//!
//! This crate provides everything NetCut needs to know about a convolutional
//! network *statically*: the layer graph, inferred activation shapes, FLOPs /
//! parameter / memory accounting, the **block** structure that drives
//! blockwise layer removal, and a zoo of the seven ImageNet architectures the
//! paper studies (MobileNetV1 0.25/0.5, MobileNetV2 1.0/1.4, InceptionV3,
//! ResNet-50, DenseNet-121), all constructed programmatically.
//!
//! # Example
//!
//! ```
//! use netcut_graph::zoo;
//!
//! let net = zoo::mobilenet_v1(0.5);
//! let stats = net.stats();
//! assert!(stats.total_params > 100_000);
//! assert_eq!(net.num_blocks(), 13);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod export;
mod fingerprint;
mod layer;
mod network;
mod shape;
mod stats;
mod trim;

pub mod zoo;

pub use error::GraphError;
pub use fingerprint::Fnv1a;
pub use layer::{Activation, LayerKind, Padding};
pub use network::{infer_shape, Block, ExitPoint, Network, NetworkBuilder, Node, NodeId};
pub use shape::Shape;
pub use stats::{layer_stats, LayerStats, NetworkStats};
pub use trim::HeadSpec;
