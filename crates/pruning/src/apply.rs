//! Applying a [`PruneSpec`] to a real [`Network`].

use crate::filter::prune_filters_l1;
use crate::magnitude::prune_magnitude;
use crate::spec::PruneSpec;
use crate::structured::prune_structured;
use cap_cnn::Network;
use cap_tensor::TensorResult;
use serde::{Deserialize, Serialize};

/// Which pruning algorithm to run on each layer's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneAlgorithm {
    /// Element-wise smallest-magnitude pruning.
    Magnitude,
    /// L1-norm filter pruning (Li et al. \[17\]) — the paper's choice.
    FilterL1,
    /// Structured scored pruning (Anwar et al. \[3\] style).
    Structured,
}

/// Prune the named layers of `net` in place according to `spec`.
///
/// Returns the achieved weight sparsity per layer, in spec order, as
/// pruning left each layer's weights. Under [`PruneAlgorithm::FilterL1`]
/// the pruned version is then narrowed ([`Network::narrow`]): every
/// pruned filter whose output is `+0` on every input is removed, with
/// its channel in each consumer, as Li et al. remove a pruned filter's
/// feature map and the next layer's kernels for it. The network is then
/// smaller and faster to run, and computes the same values. Errors if
/// a spec'd layer does not exist or carries no weights, or is a grouped
/// conv an earlier narrowing left with groups of uneven widths
/// ([`Network::layer_weights`]): prune the full-width network instead.
pub fn apply_to_network(
    net: &mut Network,
    spec: &PruneSpec,
    algorithm: PruneAlgorithm,
) -> TensorResult<Vec<(String, f64)>> {
    let mut achieved = Vec::with_capacity(spec.pruned_layer_count());
    for (layer_name, ratio) in spec.iter() {
        let mut weights = net.layer_weights(layer_name)?.clone();
        match algorithm {
            PruneAlgorithm::Magnitude => {
                prune_magnitude(&mut weights, ratio)?;
            }
            PruneAlgorithm::FilterL1 => {
                prune_filters_l1(&mut weights, ratio)?;
            }
            PruneAlgorithm::Structured => {
                prune_structured(&mut weights, ratio)?;
            }
        }
        let sparsity = weights.sparsity(0.0);
        net.set_layer_weights(layer_name, weights)?;
        achieved.push((layer_name.to_string(), sparsity));
    }
    if algorithm == PruneAlgorithm::FilterL1 {
        net.narrow()?;
    }
    Ok(achieved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_cnn::layer::{ConvLayer, ReluLayer};
    use cap_tensor::{init::xavier_uniform, Conv2dParams};

    fn net() -> Network {
        let mut n = Network::new("t", (3, 8, 8));
        let p = Conv2dParams::new(3, 8, 3, 1, 1);
        n.add_sequential(Box::new(
            ConvLayer::new("conv1", p, xavier_uniform(8, 27, 5), vec![0.0; 8]).unwrap(),
        ))
        .unwrap();
        n.add_sequential(Box::new(ReluLayer::new("relu1"))).unwrap();
        let p2 = Conv2dParams::new(8, 8, 3, 1, 1);
        n.add_sequential(Box::new(
            ConvLayer::new("conv2", p2, xavier_uniform(8, 72, 6), vec![0.0; 8]).unwrap(),
        ))
        .unwrap();
        n
    }

    #[test]
    fn magnitude_spec_applies_per_layer() {
        let mut n = net();
        let spec = PruneSpec::single("conv1", 0.5).with("conv2", 0.25);
        let achieved = apply_to_network(&mut n, &spec, PruneAlgorithm::Magnitude).unwrap();
        assert_eq!(achieved.len(), 2);
        assert!((n.layer("conv1").unwrap().weight_sparsity() - 0.5).abs() < 0.02);
        assert!((n.layer("conv2").unwrap().weight_sparsity() - 0.25).abs() < 0.02);
    }

    #[test]
    fn filter_pruning_zeroes_whole_rows() {
        // conv2 is the network's output, whose channels stay: its
        // pruned filters remain as zero rows.
        let mut n = net();
        let spec = PruneSpec::single("conv2", 0.5);
        apply_to_network(&mut n, &spec, PruneAlgorithm::FilterL1).unwrap();
        let w = n.layer("conv2").unwrap().weights().unwrap().clone();
        let zero_rows = (0..w.rows())
            .filter(|&r| w.row(r).iter().all(|&v| v == 0.0))
            .count();
        assert_eq!(zero_rows, 4);
    }

    #[test]
    fn filter_pruning_narrows_the_network() {
        // conv1's four pruned filters (zero bias, ReLU) are gone, with
        // conv2's columns for them; the sparsity pruning gave conv1 is
        // still what it reports.
        let mut n = net();
        let spec = PruneSpec::single("conv1", 0.5);
        let achieved = apply_to_network(&mut n, &spec, PruneAlgorithm::FilterL1).unwrap();
        assert_eq!(achieved, vec![("conv1".to_string(), 0.5)]);
        let conv1 = n.layer("conv1").unwrap();
        assert_eq!(conv1.weights().unwrap().shape(), (4, 27));
        assert_eq!(conv1.weight_sparsity(), 0.5);
        assert_eq!(
            n.layer("conv2").unwrap().weights().unwrap().shape(),
            (8, 36)
        );
        assert_eq!(n.shape_of(n.node_id("relu1").unwrap()).unwrap(), (4, 8, 8));
    }

    #[test]
    fn structured_runs_and_sparsifies() {
        let mut n = net();
        apply_to_network(
            &mut n,
            &PruneSpec::single("conv2", 0.5),
            PruneAlgorithm::Structured,
        )
        .unwrap();
        assert!((n.layer("conv2").unwrap().weight_sparsity() - 0.5).abs() < 0.02);
    }

    #[test]
    fn unknown_or_weightless_layer_errors() {
        let mut n = net();
        assert!(apply_to_network(
            &mut n,
            &PruneSpec::single("nope", 0.5),
            PruneAlgorithm::Magnitude
        )
        .is_err());
        assert!(apply_to_network(
            &mut n,
            &PruneSpec::single("relu1", 0.5),
            PruneAlgorithm::Magnitude
        )
        .is_err());
    }

    #[test]
    fn re_pruning_a_conv_narrowed_into_uneven_groups_says_why() {
        // conv1's filters 0-2 are dead, all in the first of conv2's two
        // input groups: narrowing leaves conv2's groups 1 and 4 wide.
        let mut n = Network::new("t", (3, 8, 8));
        let mut w1 = xavier_uniform(8, 27, 5);
        (0..3).for_each(|r| w1.row_mut(r).fill(0.0));
        let p1 = Conv2dParams::new(3, 8, 3, 1, 1);
        let conv1 = ConvLayer::new("conv1", p1, w1, vec![0.0; 8]).unwrap();
        n.add_sequential(Box::new(conv1)).unwrap();
        n.add_sequential(Box::new(ReluLayer::new("relu1"))).unwrap();
        let p2 = Conv2dParams::grouped(8, 4, 3, 1, 1, 2);
        let conv2 = ConvLayer::new("conv2", p2, xavier_uniform(4, 36, 6), vec![0.0; 4]);
        n.add_sequential(Box::new(conv2.unwrap())).unwrap();
        assert!(n.narrow().unwrap() > 0);
        let spec = PruneSpec::single("conv2", 0.5);
        let err = apply_to_network(&mut n, &spec, PruneAlgorithm::FilterL1).unwrap_err();
        let err = err.to_string();
        for says in ["conv2", "uneven widths", "prune the full-width network"] {
            assert!(err.contains(says), "{err}");
        }
    }

    #[test]
    fn empty_spec_is_noop() {
        let mut n = net();
        let before = n.layer("conv1").unwrap().weights().unwrap().clone();
        let achieved =
            apply_to_network(&mut n, &PruneSpec::none(), PruneAlgorithm::FilterL1).unwrap();
        assert!(achieved.is_empty());
        assert_eq!(n.layer("conv1").unwrap().weights().unwrap(), &before);
    }
}
