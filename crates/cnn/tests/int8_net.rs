//! Whole-network int8 accuracy: running a full forward pass with
//! `CAP_TENSOR_PRECISION=int8` (forced via `precision::force`) must
//! produce logits close to the f32 pass and agree on almost every
//! top-1 prediction. This bounds the end-to-end accuracy delta of the
//! quantized path the same way `kernel_parity_net.rs` closes the
//! bitwise contract of the f32 kernels — int8 is *approximate* by
//! design (symmetric per-tensor weights + activations), so the bound
//! here is numeric, not bitwise.
//!
//! Also covered: `Network::calibrate` (max-abs and percentile
//! activation ranges) keeps the int8 pass inside the same bound, a
//! 97 %-pruned conv (CSR in f32, dense int8 under int8) tracks f32, and
//! a 90 %-zero fc runs the int8 GEMM under int8, bit for bit.

use cap_cnn::layer::{ConvLayer, InnerProductLayer, Layer, PoolLayer, PoolMode, ReluLayer};
use cap_cnn::network::{Network, INPUT};
use cap_cnn::run_batched;
use cap_tensor::init::xavier_uniform;
use cap_tensor::{
    gemm_i8, precision, quantize_rows_into, symmetric_scale, CalibrationMethod, Conv2dParams,
    EpiBias, Epilogue, Matrix, PackedBI8, Precision, Tensor4, Workspace,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

mod common;

/// `precision::force` is process-global; every test in this binary
/// serializes on one mutex so a parallel test never observes int8.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// conv → relu → pool → conv (optionally pruned onto the f32 CSR path) →
/// relu → fc: every layer family the int8 path quantizes, ending on
/// raw logits so the comparison is not flattened by softmax.
fn build_net(seed: u64, prune: bool) -> Network {
    let mut net = Network::new("int8-net", (3, 13, 13));
    let p1 = Conv2dParams::new(3, 8, 3, 1, 1);
    let c1 = net
        .add_layer(
            Box::new(ConvLayer::new("c1", p1, xavier_uniform(8, 27, seed), vec![0.05; 8]).unwrap()),
            &[INPUT],
        )
        .unwrap();
    let r1 = net
        .add_layer(Box::new(ReluLayer::new("r1")), &[c1])
        .unwrap();
    let pool = net
        .add_layer(
            Box::new(PoolLayer::new("p1", PoolMode::Max, 3, 0, 2)),
            &[r1],
        )
        .unwrap();
    let mut w2 = xavier_uniform(6, 8 * 9, seed + 1);
    if prune {
        w2 = common::csr_weights(w2);
    }
    let p2 = Conv2dParams::new(8, 6, 3, 1, 1);
    let c2 = net
        .add_layer(
            Box::new(ConvLayer::new("c2", p2, w2, vec![0.0; 6]).unwrap()),
            &[pool],
        )
        .unwrap();
    let r2 = net
        .add_layer(Box::new(ReluLayer::new("r2")), &[c2])
        .unwrap();
    net.add_layer(
        Box::new(
            InnerProductLayer::new("fc", xavier_uniform(10, 6 * 36, seed + 2), vec![0.01; 10])
                .unwrap(),
        ),
        &[r2],
    )
    .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 13, 13, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

fn forward_under(
    p: Option<Precision>,
    net: &Network,
    imgs: &Tensor4,
    batch: usize,
) -> Vec<Vec<f32>> {
    precision::force(p);
    let (out, _) = run_batched(net, imgs, batch).unwrap();
    precision::force(None);
    out
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

/// (max |Δlogit| across all images, fraction of images whose top-1
/// prediction agrees).
fn compare(f32_out: &[Vec<f32>], i8_out: &[Vec<f32>]) -> (f32, f64) {
    assert_eq!(f32_out.len(), i8_out.len());
    let mut max_diff = 0.0f32;
    let mut agree = 0usize;
    for (a, b) in f32_out.iter().zip(i8_out.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            max_diff = max_diff.max((x - y).abs());
        }
        if argmax(a) == argmax(b) {
            agree += 1;
        }
    }
    (max_diff, agree as f64 / f32_out.len() as f64)
}

/// Scale of the f32 logits, so the Δ bound is relative, not absolute.
fn logit_scale(out: &[Vec<f32>]) -> f32 {
    out.iter()
        .flat_map(|v| v.iter())
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(1e-6)
}

#[test]
fn int8_logits_track_f32_within_bound() {
    let _guard = force_lock();
    let net = build_net(7, false);
    let imgs = images(12, 3);
    let f = forward_under(None, &net, &imgs, 4);
    let q = forward_under(Some(Precision::Int8), &net, &imgs, 4);
    let (max_diff, agreement) = compare(&f, &q);
    let bound = 0.10 * logit_scale(&f);
    assert!(
        max_diff <= bound,
        "int8 logits drifted {max_diff} (> {bound})"
    );
    assert!(
        agreement >= 0.9,
        "top-1 agreement {agreement} below 0.9 (Δmax {max_diff})"
    );
}

#[test]
fn pruned_int8_tracks_f32() {
    // 97% pruned conv2 runs CSR in f32 and the dense int8 GEMM under
    // int8, like every other layer of the pass.
    let _guard = force_lock();
    let net = build_net(11, true);
    let imgs = images(10, 9);
    let f = forward_under(None, &net, &imgs, 2);
    let q = forward_under(Some(Precision::Int8), &net, &imgs, 2);
    let (max_diff, agreement) = compare(&f, &q);
    let bound = 0.10 * logit_scale(&f);
    assert!(
        max_diff <= bound,
        "pruned int8 logits drifted {max_diff} (> {bound})"
    );
    assert!(agreement >= 0.9, "top-1 agreement {agreement} below 0.9");
}

#[test]
fn calibration_keeps_int8_inside_bound() {
    let _guard = force_lock();
    let net = build_net(13, false);
    let cal = images(16, 21);
    let imgs = images(12, 5);

    // Calibrate runs a plain f32 forward internally: its output must
    // be bitwise identical to the uncalibrated f32 pass.
    precision::force(None);
    let cal_out = net.calibrate(&cal, CalibrationMethod::MaxAbs).unwrap();
    let (plain, _) = run_batched(&net, &cal, cal.shape().0).unwrap();
    for (i, row) in plain.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                cal_out.get(i, c, 0, 0).to_bits(),
                "calibrate() changed the f32 forward at image {i} class {c}"
            );
        }
    }

    let f = forward_under(None, &net, &imgs, 4);
    for method in [
        CalibrationMethod::MaxAbs,
        CalibrationMethod::Percentile(99.9),
    ] {
        net.calibrate(&cal, method).unwrap();
        let q = forward_under(Some(Precision::Int8), &net, &imgs, 4);
        let (max_diff, agreement) = compare(&f, &q);
        let bound = 0.12 * logit_scale(&f);
        assert!(
            max_diff <= bound,
            "{method:?}: calibrated int8 drifted {max_diff} (> {bound})"
        );
        assert!(
            agreement >= 0.9,
            "{method:?}: top-1 agreement {agreement} below 0.9"
        );
    }
}

#[test]
fn int8_batch_splits_agree_with_full_batch() {
    // Batched execution under int8 must not depend on the split: the
    // activation scale comes from per-call max-abs (or the calibrated
    // range), computed per forward — so per-image inference and a full
    // batch see the same weights but possibly different activation
    // ranges. Both must stay inside the f32 bound.
    let _guard = force_lock();
    let net = build_net(17, false);
    let imgs = images(8, 7);
    let f = forward_under(None, &net, &imgs, 8);
    for batch in [1usize, 3, 8] {
        let q = forward_under(Some(Precision::Int8), &net, &imgs, batch);
        let (max_diff, agreement) = compare(&f, &q);
        let bound = 0.12 * logit_scale(&f);
        assert!(
            max_diff <= bound,
            "batch {batch}: int8 drifted {max_diff} (> {bound})"
        );
        assert!(agreement >= 0.85, "batch {batch}: agreement {agreement}");
    }
}

#[test]
fn sparse_fc_runs_int8_under_int8() {
    // 90 % of the weights zero, a calibrated activation scale: under
    // int8 the fc quantizes like any other — bitwise the integer GEMM
    // over the quantized input and the whole matrix's quantized `Wᵀ`,
    // dequantized by the two scales with bias and ReLU in the store.
    let _guard = force_lock();
    let (out_f, in_f) = (24, 70);
    let dense = xavier_uniform(out_f, in_f, 61);
    let w = Matrix::from_fn(out_f, in_f, |r, c| {
        if (r * in_f + c) % 10 == 0 {
            dense.get(r, c)
        } else {
            0.0
        }
    });
    let bias: Vec<f32> = (0..out_f).map(|o| o as f32 / 16.0 - 0.7).collect();
    let fc = InnerProductLayer::new("fc_sparse", w.clone(), bias.clone()).unwrap();
    assert!(fc.weight_sparsity() > 0.8);
    // Calibrated on a wider range than any forward input below, so the
    // stored scale, not the per-call max-abs, is the one that matches.
    let calibration = Tensor4::from_fn(4, in_f, 1, 1, |n, c, _, _| (n * in_f + c) as f32 / 50.0);
    fc.observe_input(&[&calibration], CalibrationMethod::MaxAbs);
    let act_scale = symmetric_scale(calibration.as_slice());
    let all = 0..in_f;
    let qw = PackedBI8::pack_transposed(
        &w,
        std::slice::from_ref(&all),
        symmetric_scale(w.as_slice()),
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    precision::force(Some(Precision::Int8));
    for batch in [1, 8] {
        let x = Tensor4::from_fn(batch, in_f, 1, 1, |n, c, _, _| {
            ((n * 7 + c * 3) % 17) as f32 / 8.0 - 1.0
        });
        let mut qx: Vec<i8> = Vec::new();
        let kp = quantize_rows_into(x.as_slice(), batch, in_f, 1.0 / act_scale, &mut qx);
        assert_eq!(kp, qw.kp());
        for relu in [false, true] {
            let mut want = vec![f32::NAN; batch * out_f];
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(&bias)),
                relu,
            };
            let scale = qw.scale() * act_scale;
            gemm_i8(&qx, batch, kp, out_f, qw.data(), &mut want, scale, epi).unwrap();
            let (mut got, ws) = (Tensor4::zeros(0, 0, 0, 0), &mut Workspace::new());
            if relu {
                fc.forward_into_fused(&[&x], ws, &mut got).unwrap();
            } else {
                fc.forward_into(&[&x], ws, &mut got).unwrap();
            }
            assert_eq!(
                bits(got.as_slice()),
                bits(&want),
                "batch {batch}, relu {relu}"
            );
        }
    }
    precision::force(None);
}
