//! Split parity: a forward pass whose kernels are cut across a worker
//! team — a convolution by output bands (groups, images) or by rows of
//! `A`, an fc multiply by column ranges, a pool or LRN by images or
//! planes — is **bitwise identical** to the same pass on one thread,
//! for every conv weight form, batch size and team size, on every
//! kernel path, branchy nets included — narrowed nets too, whose
//! grouped convs have groups of uneven widths. A narrowed net is also
//! held to the same layers before narrowing, run one by one outside a
//! network, where every channel is multiplied.
//!
//! Team size is chosen explicitly (`ForwardArena::with_team`). The
//! parity teams split from the first unit of work (the test seam
//! `with_min_part_macs(0)`), so the tiny, awkward shapes below are
//! actually cut; the split count of a Caffenet-shaped pass is taken on
//! the measured per-part minimum. `kernels::force` and
//! `precision::force` are process-global and the `intra_op_splits`
//! counter is shared, so the tests serialize on one mutex.

use cap_cnn::layer::{
    ConvLayer, DropoutLayer, InnerProductLayer, Layer, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network};
use cap_cnn::LayerKind;
use cap_cnn::ParallelEngine;
use cap_tensor::init::xavier_uniform;
use cap_tensor::kernels::{self, KernelPath, ROW_BLOCK};
use cap_tensor::{precision, CalibrationMethod, Conv2dParams, Matrix, Precision, Team, Tensor4};
use std::sync::{Mutex, MutexGuard};

mod common;

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The im2col stored forms a conv layer can multiply with (the
/// Winograd one has its own suite), and a narrowed net: filter-pruned,
/// then [`Network::narrow`]ed, its convs dense at their new widths.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Dense,
    Narrowed,
    DenseI8,
}

impl Form {
    const ALL: [Form; 3] = [Form::Dense, Form::Narrowed, Form::DenseI8];

    /// `ConvLayer::weight_form_name` of a layer in this form.
    fn name(self) -> &'static str {
        match self {
            Form::Dense | Form::Narrowed => "dense",
            Form::DenseI8 => "dense-i8",
        }
    }

    fn precision(self) -> Precision {
        match self {
            Form::Dense | Form::Narrowed => Precision::F32,
            Form::DenseI8 => Precision::Int8,
        }
    }

    /// Xavier weights reshaped into this form's zero pattern.
    fn weights(self, rows: usize, cols: usize, seed: u64) -> Matrix {
        let w = xavier_uniform(rows, cols, seed);
        match self {
            Form::Dense | Form::DenseI8 => w,
            Form::Narrowed => common::filter_pruned_weights(w),
        }
    }
}

/// conv 3→14 (3×3, pad 1) → relu → grouped conv 14→22 (two groups of
/// 11, stride 2) → relu → fc 660→37 → relu → fc 37→70 → softmax, on an
/// 11×9 input. Filter counts of 14 and 11 per group are multiples of
/// neither 4, 6 nor a row band; 99 and 30 output pixels are not whole
/// panels; 37 and 70 fc columns are not whole 4-panel GEMV steps. Both
/// convs are in `form` (asserted); the fc layers are dense. Narrowed,
/// conv1 keeps 9 filters and conv2 groups of 5 and 4 inputs into 7 and
/// 8 filters.
fn awkward_net(form: Form) -> Network {
    let mut net = Network::new("awkward", (3, 11, 9));
    let c1 = Conv2dParams::new(3, 14, 3, 1, 1);
    let c2 = Conv2dParams::grouped(14, 22, 3, 1, 2, 2);
    for (name, p, seed) in [("conv1", c1, 1), ("conv2", c2, 2)] {
        let w = form.weights(p.out_channels, p.col_rows(), seed);
        assert_eq!(
            ConvLayer::weight_form_name(&p, (11, 9)),
            form.name(),
            "{name}"
        );
        let bias = common::bias_for(&w, 0.02, -0.1);
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
    if form == Form::Narrowed {
        assert_eq!(net.narrow().unwrap(), 2 * (5 + 7));
        let conv2 = net.layer("conv2").unwrap();
        assert!(conv2.weights().is_none(), "conv2's groups are uneven");
    }
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

/// `build(form)` under `form`'s precision, int8 scales calibrated in
/// f32 on `calib` (so a batch-1 pass and a batched pass quantize alike).
fn net_for(form: Form, calib: &Tensor4, build: fn(Form) -> Network) -> Network {
    precision::force(Some(form.precision()));
    let net = build(form);
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
            let net = net_for(form, &images(8, 0), awkward_net);
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
        let net = net_for(form, &x, awkward_net);
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

/// The images [`common::inception_shaped`] takes.
fn inception_images(n: usize, salt: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 16, 16, |i, c, h, w| {
        (((i * 41 + c * 13 + h * 7 + w + salt) % 29) as f32 - 14.0) / 10.0
    })
}

/// The inception-shaped net with every conv in `form`.
fn inception_net(form: Form) -> Network {
    let mut net = common::inception_shaped(|filters, taps, seed| form.weights(filters, taps, seed));
    if form == Form::Narrowed {
        assert!(net.narrow().unwrap() > 0);
    }
    net
}

/// What one pass of the inception-shaped `net` adds to
/// `intra_op_splits` on a team of `threads` ≥ 2 splitting from the
/// first unit, at `batch`. Every step runs in order on the caller, so
/// the modules' steps split like the stem's:
///
/// * each conv once by images when the batch fills the team; with
///   fewer images than threads, each image's multiply by rows where it
///   has more than one [`ROW_BLOCK`] of rows to multiply (a narrowed
///   layer has only its kept rows),
///   after its lowering by panels: two splits an image;
/// * the LRN and the four max pools (stem, cut and one per module)
///   once each, by images or planes;
/// * the fc once, by columns, at every batch.
fn inception_splits(net: &Network, batch: usize, threads: usize) -> u64 {
    let conv = |name: &String| -> u64 {
        if batch >= threads {
            return 1;
        }
        let filters = net.shape_of(net.node_id(name).unwrap()).unwrap().0;
        if filters > ROW_BLOCK {
            2 * batch as u64
        } else {
            0
        }
    };
    let convs: u64 = net
        .layers_of_kind(LayerKind::Convolution)
        .iter()
        .map(conv)
        .sum();
    let windows =
        net.layers_of_kind(LayerKind::Pooling).len() + net.layers_of_kind(LayerKind::Lrn).len();
    convs + windows as u64 + 1
}

/// The inception-shaped net on teams of one to three threads: its
/// steps in order, every kernel split where it can be, modules
/// included — bitwise the one-thread pass for every form, batch and
/// team size, with exactly [`inception_splits`] splits a pass.
#[test]
fn inception_pass_on_a_team_matches_one_thread_bitwise() {
    let _g = force_lock();
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for form in Form::ALL {
            let net = net_for(form, &inception_images(8, 0), inception_net);
            for batch in [1, 2, 3, 8] {
                let x = inception_images(batch, batch);
                let want = bits(
                    net.forward_into(&x, &mut eager_arena(1))
                        .unwrap()
                        .as_slice(),
                );
                for threads in [1, 2, 3] {
                    let per_pass = match threads {
                        1 => 0,
                        _ => inception_splits(&net, batch, threads),
                    };
                    let mut arena = eager_arena(threads);
                    for pass in 0..2 {
                        let before = splits();
                        let got = bits(net.forward_into(&x, &mut arena).unwrap().as_slice());
                        let what = format!(
                            "{} {} batch {batch} team {threads} pass {pass}",
                            path.name(),
                            form.name()
                        );
                        assert_eq!(splits() - before, per_pass, "splits: {what}");
                        assert!(got == want, "split output differs: {what}");
                    }
                }
            }
        }
    }
    precision::force(None);
    kernels::force(None);
}

/// Caffenet's layer sequence at a fraction of its size: conv1, pool1,
/// norm1, grouped conv2, pool2, norm2, conv3, grouped conv4 and conv5,
/// pool5, fc6 / fc7 / fc8 with dropout between. conv3 is a 3×3 wide
/// enough for the Winograd form (asserted); conv1 (8 input channels),
/// conv2 (5×5) and conv4 / conv5 (48 channels per group) run im2col.
/// Every conv, every group of a grouped one and every fc carries at
/// least twice the measured per-part minimum (2²⁰ multiply-accumulates,
/// or Winograd multiplies) at batch 1, so each splits on two threads
/// without the test seam. The pools and LRNs
/// (48 and 192 planes of 24×24 and 12×12) carry less in
/// multiply-accumulate equivalents and stay whole, as the real
/// Caffenet's pool2, norm2 and pool5 do; their splits are
/// `cap-tensor`'s `window_split_parity`.
fn caffenet_shaped() -> Network {
    let mut net = Network::new("caffenet-shaped", (8, 48, 48));
    let convs = [
        ("conv1", Conv2dParams::new(8, 48, 3, 1, 1)),
        ("conv2", Conv2dParams::grouped(48, 192, 5, 2, 1, 2)),
        ("conv3", Conv2dParams::new(192, 96, 3, 1, 1)),
        ("conv4", Conv2dParams::grouped(96, 96, 3, 1, 1, 2)),
        ("conv5", Conv2dParams::grouped(96, 96, 3, 1, 1, 2)),
    ];
    let mut map = 48;
    for (seed, (name, p)) in convs.into_iter().enumerate() {
        let w = xavier_uniform(p.out_channels, p.col_rows(), seed as u64 + 1);
        let winograd = name == "conv3";
        let form = ConvLayer::weight_form_name(&p, (map, map));
        assert_eq!(form == "winograd", winograd, "{name} runs {form}");
        let conv = ConvLayer::new(name, p, w, vec![0.01; p.out_channels]).unwrap();
        net.add_sequential(Box::new(conv)).unwrap();
        net.add_sequential(Box::new(ReluLayer::new(format!("{name}-relu"))))
            .unwrap();
        let stage = match name {
            "conv1" => "1",
            "conv2" => "2",
            "conv5" => "5",
            _ => continue,
        };
        let pool = PoolLayer::new(format!("pool{stage}"), PoolMode::Max, 3, 0, 2);
        net.add_sequential(Box::new(pool)).unwrap();
        map /= 2;
        if stage != "5" {
            net.add_sequential(Box::new(LrnLayer::alexnet(format!("norm{stage}"))))
                .unwrap();
        }
    }
    let fcs = [
        ("fc6", 96 * 6 * 6, 700),
        ("fc7", 700, 3500),
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

/// The input of a batch-1 [`caffenet_shaped`] pass.
fn caffenet_shaped_image() -> Tensor4 {
    Tensor4::from_fn(1, 8, 48, 48, |_, c, h, w| {
        (((c * 11 + h * 5 + w) % 19) as f32 - 9.0) / 9.0
    })
}

/// `net`'s pass over `x` on teams of each `(threads, per_pass)`: two
/// passes through one arena each add `per_pass` to `intra_op_splits`
/// and match the one-thread pass bit for bit.
fn assert_splits_per_pass(net: &Network, x: &Tensor4, teams: [(usize, u64); 2]) {
    let mut one = ForwardArena::with_team(Team::new(1));
    let want = bits(net.forward_into(x, &mut one).unwrap().as_slice());
    for (threads, per_pass) in teams {
        let mut arena = ForwardArena::with_team(Team::new(threads));
        for pass in 0..2 {
            let before = splits();
            let got = bits(net.forward_into(x, &mut arena).unwrap().as_slice());
            let what = format!("team {threads} pass {pass}");
            assert_eq!(splits() - before, per_pass, "splits per pass: {what}");
            assert!(got == want, "split output differs: {what}");
        }
    }
}

/// What one batch-1 Caffenet pass adds to `intra_op_splits`. On two
/// threads, 10: conv1 and conv3 twice each — conv1's lowering by panels
/// then its multiply by rows, conv3's Winograd input transform by tile
/// panels then its products by rows — conv2/4/5 by their two groups
/// (two bands fill two threads) and fc6/7/8 by columns; the pools and
/// LRNs stay whole. On three, 19: two bands are too few for three
/// threads, so each group's lowering and multiply split instead, by
/// panels and by rows. The output stays the one-thread pass's bits.
#[test]
fn batch1_caffenet_shaped_pass_splits_each_kernel_once_per_band() {
    let _g = force_lock();
    precision::force(Some(Precision::F32));
    assert_splits_per_pass(
        &caffenet_shaped(),
        &caffenet_shaped_image(),
        [(2, 10), (3, 19)],
    );
    precision::force(None);
}

/// The int8 twin: the same net, its activation scales calibrated in
/// f32, every conv on the dense int8 form. Its quad lowerings split by
/// panel ranges wherever the multiply they feed splits by rows, so the
/// pass splits as the f32 one does — 10 on two threads (conv1 and
/// conv3 each by quad panels, then by rows), 19 on three (every group
/// of conv2/4/5 so too) — where an int8 lowering on the caller left 8
/// and 11. The output stays the one-thread pass's bits.
#[test]
fn batch1_caffenet_shaped_int8_pass_splits_each_kernel_once_per_band() {
    let _g = force_lock();
    precision::force(Some(Precision::F32));
    let (net, x) = (caffenet_shaped(), caffenet_shaped_image());
    net.calibrate(&x, CalibrationMethod::MaxAbs).unwrap();
    precision::force(Some(Precision::Int8));
    assert_splits_per_pass(&net, &x, [(2, 10), (3, 19)]);
    precision::force(None);
}

/// conv1 3→14 (3×3) → ReLU → grouped conv2 14→22 (two groups of 7
/// inputs, stride 2) → ReLU → fc 660→37, on an 11×9 input, with every
/// third filter of both convs pruned and zero conv biases: narrowed,
/// conv1's dead channels 1, 4 | 7, 10, 13 leave conv2's groups 5 and 4
/// inputs, and conv2's leave the fc 15 of 22 maps.
fn pruned_layers() -> Vec<Box<dyn Layer>> {
    let c1 = Conv2dParams::new(3, 14, 3, 1, 1);
    let c2 = Conv2dParams::grouped(14, 22, 3, 1, 2, 2);
    let conv = |name: &str, p: Conv2dParams, seed| -> Box<dyn Layer> {
        let w = common::filter_pruned_weights(xavier_uniform(p.out_channels, p.col_rows(), seed));
        Box::new(ConvLayer::new(name, p, w, vec![0.0; p.out_channels]).unwrap())
    };
    let fc = InnerProductLayer::new("fc1", xavier_uniform(37, 22 * 6 * 5, 3), vec![0.01; 37]);
    vec![
        conv("conv1", c1, 1),
        Box::new(ReluLayer::new("conv1-relu")),
        conv("conv2", c2, 2),
        Box::new(ReluLayer::new("conv2-relu")),
        Box::new(fc.unwrap()),
    ]
}

/// The narrowed net (conv2 over its groups' kept inputs, the fc over
/// its kept features) against the same layers before narrowing, run
/// one at a time outside a network — where each multiplies every
/// channel, the pruned ones being zero planes — bitwise, under f32 and
/// int8, on every kernel path, at batch 1 and 8, on teams of one to
/// three threads.
#[test]
fn narrowed_net_matches_full_width_layers_on_zero_planes() {
    let _g = force_lock();
    let mut net = Network::new("narrowed", (3, 11, 9));
    for layer in pruned_layers() {
        net.add_sequential(layer).unwrap();
    }
    assert_eq!(net.narrow().unwrap(), 2 * (5 + 7));
    let channels = |name: &str| net.shape_of(net.node_id(name).unwrap()).unwrap().0;
    assert_eq!((channels("conv1-relu"), channels("conv2-relu")), (9, 15));
    let standalone = pruned_layers();
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for precision in [Precision::F32, Precision::Int8] {
            precision::force(Some(precision));
            for batch in [1, 8] {
                let x = images(batch, 3);
                let mut want = x.clone();
                for layer in &standalone {
                    want = layer.forward(&[&want]).unwrap();
                }
                for threads in [1, 2, 3] {
                    let mut arena = eager_arena(threads);
                    let got = net.forward_into(&x, &mut arena).unwrap();
                    let what =
                        format!("{} {precision:?} batch {batch} team {threads}", path.name());
                    assert!(bits(got.as_slice()) == bits(want.as_slice()), "{what}");
                }
            }
        }
    }
    precision::force(None);
    kernels::force(None);
}
