//! Split parity: a forward pass whose kernels are cut across a worker
//! team — a convolution by output bands (groups, images) or by rows of
//! `A`, a batch-1 fc GEMV by column ranges — is **bitwise identical**
//! to the same pass on one thread, for every conv weight form, batch
//! size and team size, on every kernel path.
//!
//! Team size is chosen explicitly (`ForwardArena::with_team`). The
//! parity teams split from the first unit of work (the test seam
//! `with_min_part_macs(0)`), so the tiny, awkward shapes below are
//! actually cut; the split count of a Caffenet-shaped pass is taken on
//! the measured per-part minimum. `kernels::force` and
//! `precision::force` are process-global and the `intra_op_splits`
//! counter is shared, so the tests serialize on one mutex.

use cap_cnn::layer::{
    ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network};
use cap_cnn::ParallelEngine;
use cap_tensor::init::xavier_uniform;
use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{precision, CalibrationMethod, Conv2dParams, Matrix, Precision, Team, Tensor4};
use std::sync::{Mutex, MutexGuard};

mod common;

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The five stored forms a conv layer can multiply with.
#[derive(Debug, Clone, Copy)]
enum Form {
    Dense,
    DenseRows,
    Csr,
    DenseI8,
    CsrI8,
}

impl Form {
    const ALL: [Form; 5] = [
        Form::Dense,
        Form::DenseRows,
        Form::Csr,
        Form::DenseI8,
        Form::CsrI8,
    ];

    /// `ConvLayer::weight_form_name` of a layer in this form.
    fn name(self) -> &'static str {
        match self {
            Form::Dense => "dense",
            Form::DenseRows => "dense-rows",
            Form::Csr => "csr",
            Form::DenseI8 => "dense-i8",
            Form::CsrI8 => "csr-i8",
        }
    }

    fn precision(self) -> Precision {
        match self {
            Form::Dense | Form::DenseRows | Form::Csr => Precision::F32,
            Form::DenseI8 | Form::CsrI8 => Precision::Int8,
        }
    }

    /// Xavier weights reshaped into this form's zero pattern.
    fn weights(self, rows: usize, cols: usize, seed: u64) -> Matrix {
        let w = xavier_uniform(rows, cols, seed);
        match self {
            Form::Dense | Form::DenseI8 => w,
            Form::DenseRows => common::filter_pruned_weights(w),
            Form::Csr | Form::CsrI8 => common::csr_weights(w),
        }
    }
}

/// conv 3→14 (3×3, pad 1) → relu → grouped conv 14→22 (two groups of
/// 11, stride 2) → relu → fc 660→37 → relu → fc 37→70 → softmax, on an
/// 11×9 input. Filter counts of 14 and 11 per group are multiples of
/// neither 4, 6 nor a row band; 99 and 30 output pixels are not whole
/// panels; 37 and 70 fc columns are not whole 4-panel GEMV steps. Both
/// convs are in `form` (asserted); the fc layers are dense.
fn awkward_net(form: Form) -> Network {
    let mut net = Network::new("awkward", (3, 11, 9));
    let c1 = Conv2dParams::new(3, 14, 3, 1, 1);
    let c2 = Conv2dParams::grouped(14, 22, 3, 1, 2, 2);
    for (name, p, seed) in [("conv1", c1, 1), ("conv2", c2, 2)] {
        let w = form.weights(p.out_channels, p.col_rows(), seed);
        assert_eq!(ConvLayer::weight_form_name(&w), form.name(), "{name}");
        let bias = (0..p.out_channels).map(|i| 0.02 * i as f32 - 0.1).collect();
        net.add_sequential(Box::new(ConvLayer::new(name, p, w, bias).unwrap()))
            .unwrap();
        net.add_sequential(Box::new(ReluLayer::new(format!("{name}-relu"))))
            .unwrap();
    }
    let fc1 = InnerProductLayer::new("fc1", xavier_uniform(37, 22 * 6 * 5, 3), vec![0.01; 37]);
    net.add_sequential(Box::new(fc1.unwrap())).unwrap();
    net.add_sequential(Box::new(ReluLayer::new("fc1-relu")))
        .unwrap();
    let fc2 = InnerProductLayer::new("fc2", xavier_uniform(70, 37, 4), vec![-0.01; 70]);
    net.add_sequential(Box::new(fc2.unwrap())).unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

fn images(n: usize, salt: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 11, 9, |i, c, h, w| {
        (((i * 37 + c * 11 + h * 5 + w + salt) % 23) as f32 - 11.0) / 9.0
    })
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn splits() -> u64 {
    cap_obs::metrics().intra_op_splits.get()
}

/// An arena on a team of `threads` that splits whatever has two units.
fn eager_arena(threads: usize) -> ForwardArena {
    ForwardArena::with_team(Team::new(threads).with_min_part_macs(0))
}

/// `form`'s net under its precision, int8 scales calibrated in f32 on
/// `calib` (so a batch-1 pass and a batched pass quantize alike).
fn net_for(form: Form, calib: &Tensor4) -> Network {
    precision::force(Some(form.precision()));
    let net = awkward_net(form);
    precision::force(Some(Precision::F32));
    net.calibrate(calib, CalibrationMethod::MaxAbs).unwrap();
    precision::force(Some(form.precision()));
    net
}

#[test]
fn every_form_batch_and_team_size_matches_one_thread_bitwise() {
    let _g = force_lock();
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for form in Form::ALL {
            let net = net_for(form, &images(8, 0));
            for batch in [1, 2, 3, 8] {
                let x = images(batch, batch);
                let want = bits(
                    net.forward_into(&x, &mut eager_arena(1))
                        .unwrap()
                        .as_slice(),
                );
                for threads in [2, 3] {
                    let mut arena = eager_arena(threads);
                    // Twice through one arena: the second pass reuses
                    // every helper's grown workspace.
                    for pass in 0..2 {
                        let before = splits();
                        let got = bits(net.forward_into(&x, &mut arena).unwrap().as_slice());
                        let what = format!(
                            "{} {} batch {batch} team {threads} pass {pass}",
                            path.name(),
                            form.name()
                        );
                        assert!(splits() > before, "no kernel split: {what}");
                        assert!(got == want, "split output differs: {what}");
                    }
                }
            }
        }
    }
    precision::force(None);
    kernels::force(None);
}

/// Batching invariance across the split: each image run alone, with
/// its kernels cut across two threads, equals its row of one
/// unsplit batched run (`ParallelEngine::new(1)`).
#[test]
fn batch1_split_output_equals_the_run_batched_row() {
    let _g = force_lock();
    kernels::force(Some(KernelPath::Scalar));
    for form in Form::ALL {
        let x = images(5, 7);
        let net = net_for(form, &x);
        let (rows, _) = ParallelEngine::new(1).run_batched(&net, &x, 5).unwrap();
        let mut arena = eager_arena(2);
        for (i, row) in rows.iter().enumerate() {
            let single = Tensor4::from_vec(1, 3, 11, 9, x.image(i).to_vec()).unwrap();
            let before = splits();
            let out = net.forward_into(&single, &mut arena).unwrap();
            assert!(
                splits() > before,
                "{}: image {i} did not split",
                form.name()
            );
            assert_eq!(
                bits(out.as_slice()),
                bits(row),
                "{}: image {i} alone != its run_batched row",
                form.name()
            );
        }
    }
    precision::force(None);
    kernels::force(None);
}

/// Caffenet's layer sequence at a fraction of its size: conv1, pool,
/// LRN, grouped conv2, LRN, conv3, grouped conv4 and conv5, pool,
/// fc6 / fc7 / fc8 with dropout between. Every conv, every group of a
/// grouped one and every fc carries at least twice the measured
/// per-part minimum (2²⁰ multiply-accumulates) at batch 1 — as every
/// layer of the real Caffenet does, many times over — so each splits
/// on two threads without the test seam.
fn caffenet_shaped() -> Network {
    let mut net = Network::new("caffenet-shaped", (8, 32, 32));
    let convs = [
        ("conv1", Conv2dParams::new(8, 32, 3, 1, 1)),
        ("conv2", Conv2dParams::grouped(32, 48, 5, 2, 1, 2)),
        ("conv3", Conv2dParams::new(48, 64, 3, 1, 1)),
        ("conv4", Conv2dParams::grouped(64, 64, 3, 1, 1, 2)),
        ("conv5", Conv2dParams::grouped(64, 64, 3, 1, 1, 2)),
    ];
    for (seed, (name, p)) in convs.into_iter().enumerate() {
        let w = xavier_uniform(p.out_channels, p.col_rows(), seed as u64 + 1);
        let conv = ConvLayer::new(name, p, w, vec![0.01; p.out_channels]).unwrap();
        net.add_sequential(Box::new(conv)).unwrap();
        net.add_sequential(Box::new(ReluLayer::new(format!("{name}-relu"))))
            .unwrap();
        match name {
            "conv1" => {
                let pool = PoolLayer::new("pool1", PoolMode::Max, 2, 0, 2);
                net.add_sequential(Box::new(pool)).unwrap();
                net.add_sequential(Box::new(LrnLayer::alexnet("norm1")))
                    .unwrap();
            }
            "conv2" => {
                net.add_sequential(Box::new(LrnLayer::alexnet("norm2")))
                    .unwrap();
            }
            "conv5" => {
                let pool = PoolLayer::new("pool5", PoolMode::Max, 2, 0, 2);
                net.add_sequential(Box::new(pool)).unwrap();
            }
            _ => {}
        }
    }
    let fcs = [
        ("fc6", 64 * 8 * 8, 640),
        ("fc7", 640, 3500),
        ("fc8", 3500, 640),
    ];
    for (seed, (name, inputs, outputs)) in fcs.into_iter().enumerate() {
        let w = xavier_uniform(outputs, inputs, seed as u64 + 10);
        let fc = InnerProductLayer::new(name, w, vec![0.01; outputs]).unwrap();
        net.add_sequential(Box::new(fc)).unwrap();
        if name != "fc8" {
            net.add_sequential(Box::new(ReluLayer::new(format!("{name}-relu"))))
                .unwrap();
            net.add_sequential(Box::new(DropoutLayer::new(format!("{name}-drop"), 0.5)))
                .unwrap();
        }
    }
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// What one batch-1 Caffenet pass adds to `intra_op_splits`. On two
/// threads, 8: conv1 and conv3 by rows, conv2/4/5 by their two groups
/// (two bands fill two threads), fc6/7/8 by columns. On three, 11: two
/// bands are too few for three threads, so each group's multiply splits
/// by rows instead. The output stays the one-thread pass's bits.
#[test]
fn batch1_caffenet_shaped_pass_splits_each_multiply_once_per_band() {
    let _g = force_lock();
    precision::force(Some(Precision::F32));
    let net = caffenet_shaped();
    let x = Tensor4::from_fn(1, 8, 32, 32, |_, c, h, w| {
        (((c * 11 + h * 5 + w) % 19) as f32 - 9.0) / 9.0
    });
    let mut one = ForwardArena::with_team(Team::new(1));
    let want = bits(net.forward_into(&x, &mut one).unwrap().as_slice());
    for (threads, per_pass) in [(2, 8), (3, 11)] {
        let mut arena = ForwardArena::with_team(Team::new(threads));
        for pass in 0..2 {
            let before = splits();
            let got = bits(net.forward_into(&x, &mut arena).unwrap().as_slice());
            let what = format!("team {threads} pass {pass}");
            assert_eq!(splits() - before, per_pass, "splits per pass: {what}");
            assert!(got == want, "split output differs: {what}");
        }
    }
    precision::force(None);
}
