//! Helpers shared by the integration suites (each includes this file
//! with `mod common;` and uses what it needs).
#![allow(dead_code)]

use cap_cnn::layer::{
    ConcatLayer, ConvLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use cap_cnn::network::{Network, NodeId, INPUT};
use cap_tensor::init::xavier_uniform;
use cap_tensor::{Conv2dParams, Matrix};
use std::collections::HashSet;

/// `w` with all but one weight in 32 zeroed — unstructured zeros, as
/// magnitude pruning leaves them, which a conv layer multiplies like
/// any other weight.
pub fn unstructured_zeros(mut w: Matrix) -> Matrix {
    for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
        if i % 32 != 0 {
            *v = 0.0;
        }
    }
    w
}

/// `w` with every third filter (row) zeroed — what L1 filter pruning
/// leaves, which a conv layer multiplies densely until the network is
/// narrowed.
pub fn filter_pruned_weights(mut w: Matrix) -> Matrix {
    for r in (0..w.rows()).filter(|r| r % 3 == 1) {
        w.row_mut(r).fill(0.0);
    }
    w
}

/// A conv bias for `w`: `0` on each all-zero filter, so pruned filters
/// are `+0` after ReLU and a narrowed network drops them
/// ([`Network::narrow`]), else `step · r + at` for filter `r`.
pub fn bias_for(w: &Matrix, step: f32, at: f32) -> Vec<f32> {
    (0..w.rows())
        .map(|r| {
            if w.row(r).iter().all(|&v| v == 0.0) {
                0.0
            } else {
                step * r as f32 + at
            }
        })
        .collect()
}

/// An inception-shaped net on a 3×16×16 input, every conv's weights
/// `conv_weights(filters, taps, seed)` and its biases [`bias_for`] them: a stem (conv 3→24, 3×3 → ReLU
/// → LRN → 3×3/2 max pool), two four-branch modules (1×1; 1×1 → 3×3;
/// 1×1 → 5×5; 3×3 max pool → 1×1 projection — every conv followed by a
/// ReLU — joined by a four-input concat) with a 3×3/2 max pool between
/// them, and an fc head (512 → 70 → softmax).
pub fn inception_shaped(mut conv_weights: impl FnMut(usize, usize, u64) -> Matrix) -> Network {
    let mut net = Network::new("mini-inception", (3, 16, 16));
    let mut seed = 60;
    let mut conv = |net: &mut Network, name: String, from: NodeId, p: Conv2dParams| {
        seed += 1;
        let w = conv_weights(p.out_channels, p.col_rows(), seed);
        let bias = bias_for(&w, 0.01, -0.05);
        let c = net
            .add_layer(
                Box::new(ConvLayer::new(name.clone(), p, w, bias).unwrap()),
                &[from],
            )
            .unwrap();
        net.add_layer(Box::new(ReluLayer::new(format!("{name}-relu"))), &[c])
            .unwrap()
    };
    let stem = conv(
        &mut net,
        "stem".into(),
        INPUT,
        Conv2dParams::new(3, 24, 3, 1, 1),
    );
    let norm = net
        .add_layer(Box::new(LrnLayer::alexnet("stem-norm")), &[stem])
        .unwrap();
    let pool = PoolLayer::new("stem-pool", PoolMode::Max, 3, 0, 2);
    let mut from = net.add_layer(Box::new(pool), &[norm]).unwrap();
    // (tag, input channels, #1×1, #3×3 reduce, #3×3, #5×5 reduce, #5×5, #pool proj)
    for (m, cin, n1, n3r, n3, n5r, n5, np) in
        [("a", 24, 8, 6, 10, 4, 6, 6), ("b", 30, 8, 6, 12, 4, 6, 6)]
    {
        if m == "b" {
            let cut = PoolLayer::new("cut-pool", PoolMode::Max, 3, 0, 2);
            from = net.add_layer(Box::new(cut), &[from]).unwrap();
        }
        let b1 = conv(
            &mut net,
            format!("{m}-1x1"),
            from,
            Conv2dParams::new(cin, n1, 1, 0, 1),
        );
        let r3 = conv(
            &mut net,
            format!("{m}-3x3r"),
            from,
            Conv2dParams::new(cin, n3r, 1, 0, 1),
        );
        let b3 = conv(
            &mut net,
            format!("{m}-3x3"),
            r3,
            Conv2dParams::new(n3r, n3, 3, 1, 1),
        );
        let r5 = conv(
            &mut net,
            format!("{m}-5x5r"),
            from,
            Conv2dParams::new(cin, n5r, 1, 0, 1),
        );
        let b5 = conv(
            &mut net,
            format!("{m}-5x5"),
            r5,
            Conv2dParams::new(n5r, n5, 5, 2, 1),
        );
        let pool = PoolLayer::new(format!("{m}-pool"), PoolMode::Max, 3, 1, 1);
        let pl = net.add_layer(Box::new(pool), &[from]).unwrap();
        let bp = conv(
            &mut net,
            format!("{m}-proj"),
            pl,
            Conv2dParams::new(cin, np, 1, 0, 1),
        );
        let cat = ConcatLayer::new(format!("{m}-out"));
        from = net.add_layer(Box::new(cat), &[b1, b3, b5, bp]).unwrap();
    }
    assert_eq!(net.shape_of(from).unwrap(), (32, 4, 4));
    let fc = InnerProductLayer::new("fc", xavier_uniform(70, 512, 69), vec![0.01; 70]);
    net.add_layer(Box::new(fc.unwrap()), &[from]).unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// What [`check_slot_plan`] measured of a plan, in per-image f32
/// elements.
#[derive(Debug, Clone, Copy)]
pub struct SlotPlan {
    /// Slots the plan uses.
    pub slots: usize,
    /// Each slot's largest value, summed: what the arena's activation
    /// buffers hold per image once every slot has carried its largest.
    pub reserved: usize,
    /// The most values live at once — a step's output and every value
    /// it or a later step reads — summed: no slot assignment can hold
    /// less.
    pub peak_live: usize,
}

/// Check `net`'s arena slot plan ([`Network::plan_slots`], fused or
/// not) by simulation, independently of how it was built: walking the
/// steps in order with each slot's current value, every step must read
/// each input from a slot that still holds that input's value (so no
/// step wrote a slot whose value a later step reads), write none of the
/// slots it reads, and the network output must still be in its slot
/// at the end (so it was never reused). Panics naming the step that
/// breaks a rule; returns the plan's sizes.
pub fn check_slot_plan(net: &Network, fused: bool) -> SlotPlan {
    let steps = net.plan_slots(fused);
    let slots = steps.iter().map(|s| s.writes + 1).max().unwrap_or(0);
    let elems = |id: NodeId| {
        let (c, h, w) = net.shape_of(id).unwrap();
        c * h * w
    };
    let mut holds: Vec<Option<NodeId>> = vec![None; slots];
    let mut largest = vec![0usize; slots];
    let mut peak_live = 0;
    for (s, step) in steps.iter().enumerate() {
        for &(id, slot) in &step.reads {
            match slot {
                None => assert_eq!(id, INPUT, "step {s}: node {id:?} read without a slot"),
                Some(k) => {
                    assert_eq!(holds[k], Some(id), "step {s}: slot {k} lost {id:?}");
                    assert_ne!(k, step.writes, "step {s} writes its own input's slot {k}");
                }
            }
        }
        holds[step.writes] = Some(step.value);
        largest[step.writes] = largest[step.writes].max(elems(step.value));
        // Live while step `s` runs: its output, and every held value
        // this step or a later one reads.
        let read: HashSet<NodeId> = steps[s..]
            .iter()
            .flat_map(|t| t.reads.iter().map(|&(id, _)| id))
            .collect();
        let live: usize = holds
            .iter()
            .flatten()
            .filter(|&&id| read.contains(&id) || id == step.value)
            .map(|&id| elems(id))
            .sum();
        peak_live = peak_live.max(live);
    }
    if let Some(last) = steps.last() {
        let output = NodeId(net.len() - 1);
        assert_eq!(last.value, output, "the last step leaves the output");
        assert_eq!(holds[last.writes], Some(output), "output slot reused");
    }
    SlotPlan {
        slots,
        reserved: largest.iter().sum(),
        peak_live,
    }
}
