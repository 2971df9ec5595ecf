//! # cap-pruning
//!
//! Pruning is the paper's accuracy-tuning knob (§3.2.1): selected CNN
//! weights are set to zero, producing sparse layers that execute faster
//! through sparse kernels, at some cost in inference accuracy.
//!
//! This crate provides:
//!
//! * Three pruning algorithms operating on real weight matrices —
//!   element [`magnitude`] pruning, [`filter`] (L1-norm, Li et al. \[17\])
//!   pruning, and [`structured`] scored pruning (Anwar et al. \[3\] style).
//! * [`spec::PruneSpec`] — a *degree of pruning*: per-layer prune ratios,
//!   the unit the paper's configuration space is built from.
//! * [`apply`] — applying a spec to a [`cap_cnn::Network`].
//! * [`sensitivity`] — per-layer ratio sweeps (Figures 6 and 7).
//! * [`sweetspot`] — detecting the prune range where accuracy is flat
//!   while time falls (Observation 1).
//! * [`profile`] — calibrated accuracy/time profiles for paper-scale
//!   Caffenet and Googlenet (substituting for the authors' trained
//!   models; anchors in DESIGN.md §5).

#![warn(missing_docs)]

pub mod apply;
pub mod filter;
pub mod magnitude;
pub mod profile;
pub mod quantize;
pub mod sensitivity;
pub mod spec;
pub mod structured;
pub mod sweetspot;
pub mod weight_sharing;

pub use apply::{apply_to_network, PruneAlgorithm};
pub use filter::prune_filters_l1;
pub use magnitude::prune_magnitude;
pub use profile::{caffenet_profile, googlenet_profile, AppProfile, LayerProfile};
pub use quantize::{quantization_damage, quantize_uniform, QuantizationReport};
pub use spec::PruneSpec;
pub use structured::prune_structured;
pub use sweetspot::{sweet_spot, SweetSpot};
pub use weight_sharing::{share_weights, WeightSharingReport};
