//! The Winograd F(2×2, 3×3) form against the f64 oracle
//! (`reference::conv2d_f64`), next to the im2col form it replaces, on
//! every 3×3 stride-1 conv shape of Googlenet and Caffenet (grouped
//! conv4/conv5 included), odd maps whose last tile row and column
//! overhang the map (7×7, 13×13, 9×5), a 1×1 map, and NaN / ±0 inputs.
//! Its error must stay within twice im2col's. Then the bits: every
//! kernel path, team size and batch size gives the same output, bit
//! for bit.
//!
//! `kernels::force` is process-global, so the tests serialize on one
//! mutex.

use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::reference::conv2d_f64;
use cap_tensor::{conv2d, Conv2dParams, ConvWeights, Matrix, Team, Tensor4, Workspace};
use std::sync::{Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(name, in channels, out channels, groups, map side)`: the ten
/// Googlenet 3×3s (conv2 and the nine inception modules' 3×3 branch)
/// and Caffenet conv3–conv5.
const MODEL_SHAPES: [(&str, usize, usize, usize, usize); 13] = [
    ("googlenet conv2/3x3", 64, 192, 1, 56),
    ("googlenet 3a/3x3", 96, 128, 1, 28),
    ("googlenet 3b/3x3", 128, 192, 1, 28),
    ("googlenet 4a/3x3", 96, 208, 1, 14),
    ("googlenet 4b/3x3", 112, 224, 1, 14),
    ("googlenet 4c/3x3", 128, 256, 1, 14),
    ("googlenet 4d/3x3", 144, 288, 1, 14),
    ("googlenet 4e/3x3", 160, 320, 1, 14),
    ("googlenet 5a/3x3", 160, 320, 1, 7),
    ("googlenet 5b/3x3", 192, 384, 1, 7),
    ("caffenet conv3", 256, 384, 1, 13),
    ("caffenet conv4", 384, 384, 2, 13),
    ("caffenet conv5", 384, 256, 2, 13),
];

/// Deterministic values in `[-0.5, 0.5)` (xorshift).
fn values(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

struct Case {
    params: Conv2dParams,
    weights: Matrix,
    bias: Vec<f32>,
    input: Tensor4,
}

impl Case {
    fn new(cin: usize, cout: usize, groups: usize, h: usize, w: usize, n: usize) -> Self {
        let params = Conv2dParams::grouped(cin, cout, 3, 1, 1, groups);
        let taps = params.col_rows();
        let scale = (1.0 / taps as f32).sqrt();
        let weights = values(cout * taps, 1).iter().map(|v| v * scale).collect();
        Self {
            params,
            weights: Matrix::from_vec(cout, taps, weights).unwrap(),
            bias: values(cout, 2),
            input: Tensor4::from_vec(n, cin, h, w, values(n * cin * h * w, 3)).unwrap(),
        }
    }

    fn run(&self, form: ConvWeights<'_>, relu: bool, ws: &mut Workspace) -> Tensor4 {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        conv2d(
            &self.input,
            form,
            Some(&self.bias),
            relu,
            &self.params,
            ws,
            &mut out,
        )
        .unwrap();
        out
    }

    fn winograd(&self, relu: bool, ws: &mut Workspace) -> Tensor4 {
        let bands = ConvWeights::winograd_bands(&self.weights, &self.params).unwrap();
        self.run(ConvWeights::Winograd(&bands), relu, ws)
    }

    fn im2col(&self, relu: bool) -> Tensor4 {
        self.run(
            ConvWeights::Dense(&self.weights),
            relu,
            &mut Workspace::new(),
        )
    }

    /// The first `k` output channels of every group: the sub-conv the
    /// oracle checks (output channels are independent), and which
    /// channels of the full output they are.
    fn sample(&self, k: usize) -> (Conv2dParams, Matrix, Vec<f32>, Vec<usize>) {
        let p = self.params;
        let k = k.min(p.out_per_group());
        let channels: Vec<usize> = (0..p.groups)
            .flat_map(|g| (0..k).map(move |r| g * p.out_per_group() + r))
            .collect();
        let rows = Matrix::from_fn(channels.len(), p.col_rows(), |r, c| {
            self.weights.get(channels[r], c)
        });
        let bias = channels.iter().map(|&c| self.bias[c]).collect();
        let sub = Conv2dParams::grouped(p.in_channels, channels.len(), 3, 1, 1, p.groups);
        (sub, rows, bias, channels)
    }
}

/// Largest `|got − want|` over the sampled channels, relative to the
/// largest `|want|`: the error of a form against the f64 oracle.
fn relative_error(got: &Tensor4, want: &[f64], channels: &[usize]) -> f64 {
    let (n, _, h, w) = got.shape();
    let plane = h * w;
    let mut worst = 0.0f64;
    let mut scale = 0.0f64;
    for i in 0..n {
        let image = got.image(i);
        for (s, &c) in channels.iter().enumerate() {
            let at = (i * channels.len() + s) * plane;
            for (g, r) in image[c * plane..(c + 1) * plane]
                .iter()
                .zip(&want[at..at + plane])
            {
                worst = worst.max((f64::from(*g) - r).abs());
                scale = scale.max(r.abs());
            }
        }
    }
    worst / scale.max(f64::MIN_POSITIVE)
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Output channels per group the f64 oracle sums (it is a naive loop).
const SAMPLED: usize = 6;

#[test]
fn winograd_error_is_within_twice_im2cols_on_every_model_shape() {
    let _g = force_lock();
    let odd = [
        ("odd 9x5 map", 64, 64, 1, 9, 5),
        ("1x1 map", 64, 96, 1, 1, 1),
        ("2x3 map", 48, 40, 2, 2, 3),
    ];
    let cases = MODEL_SHAPES
        .iter()
        .map(|&(name, cin, cout, groups, hw)| (name, cin, cout, groups, hw, hw))
        .chain(odd);
    for (name, cin, cout, groups, h, w) in cases {
        let case = Case::new(cin, cout, groups, h, w, 1);
        let (sub, rows, bias, channels) = case.sample(SAMPLED);
        for relu in [false, true] {
            let want = conv2d_f64(&case.input, &rows, Some(&bias), relu, &sub).unwrap();
            let winograd = relative_error(
                &case.winograd(relu, &mut Workspace::new()),
                &want,
                &channels,
            );
            let im2col = relative_error(&case.im2col(relu), &want, &channels);
            // Half an f32 ulp of relative error: below it, twice im2col's
            // would ask for more than f32 can hold.
            let floor = f64::from(f32::EPSILON) / 2.0;
            assert!(
                winograd <= 2.0 * im2col.max(floor),
                "{name} relu {relu}: winograd {winograd:.2e} > 2 × im2col {im2col:.2e}"
            );
            assert!(
                winograd < 1e-5,
                "{name} relu {relu}: winograd {winograd:.2e}"
            );
        }
    }
}

/// NaN inputs poison exactly the outputs whose window reads them —
/// the transforms' cancellations do not spread a NaN to a neighbour
/// the direct sum never touches — and a ±0 input gives the bias.
#[test]
fn nan_and_signed_zero_inputs_match_the_oracle() {
    let _g = force_lock();
    let mut case = Case::new(32, 32, 1, 7, 7, 1);
    let plane = 49;
    for (i, v) in case.input.as_mut_slice().iter_mut().enumerate() {
        // A NaN in one channel at a tile's corner, edge and centre, and
        // on the overhanging last row; -0.0 and +0.0 elsewhere in it.
        if i / plane == 3 {
            *v = match i % plane {
                0 | 9 | 24 | 45 => f32::NAN,
                k if k % 2 == 0 => -0.0,
                _ => 0.0,
            };
        }
    }
    let (sub, rows, bias, channels) = case.sample(case.params.out_channels);
    let want = conv2d_f64(&case.input, &rows, Some(&bias), false, &sub).unwrap();
    let got = case.winograd(false, &mut Workspace::new());
    let scale = want
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f64, |a, v| a.max(v.abs()));
    for (k, (g, r)) in got.as_slice().iter().zip(&want).enumerate() {
        assert_eq!(g.is_nan(), r.is_nan(), "output {k}: {g} vs {r}");
        if r.is_finite() {
            assert!(
                (f64::from(*g) - r).abs() <= 1e-5 * scale,
                "output {k}: {g} vs {r}"
            );
        }
    }
    assert_eq!(channels.len(), 32);

    // All-±0 input: every output is exactly its bias.
    let mut zeros = Case::new(32, 32, 1, 7, 7, 1);
    for (i, v) in zeros.input.as_mut_slice().iter_mut().enumerate() {
        *v = if i % 3 == 0 { -0.0 } else { 0.0 };
    }
    let got = zeros.winograd(false, &mut Workspace::new());
    for (c, out) in got.as_slice().chunks(plane).enumerate() {
        assert!(out.iter().all(|&v| v == zeros.bias[c]), "channel {c}");
    }
}

/// Every kernel path gives the Winograd form the same bits: the
/// transforms are one plain-Rust source, the products `gemm_packed`.
#[test]
fn every_kernel_path_gives_the_same_bits() {
    let _g = force_lock();
    for &(name, cin, cout, groups, hw) in &MODEL_SHAPES[8..] {
        let case = Case::new(cin, cout, groups, hw, hw, 1);
        kernels::force(Some(KernelPath::Scalar));
        let scalar = bits(&case.winograd(true, &mut Workspace::new()));
        for path in kernels::available_paths() {
            kernels::force(Some(path));
            let got = bits(&case.winograd(true, &mut Workspace::new()));
            assert!(got == scalar, "{name}: {} != scalar", path.name());
        }
        kernels::force(None);
    }
}

/// Teams of one, two and three threads, splitting from the first unit
/// of work (tile panels for the input transform, output-channel rows
/// for the products and the output transform), give the one-thread
/// bits; so do batch-3 rows against batch-1 runs, and a workspace
/// warm from a larger shape.
#[test]
fn team_and_batch_sizes_give_the_same_bits() {
    let _g = force_lock();
    let shapes = [
        ("googlenet 4a/3x3", 96, 208, 1, 14, 14),
        ("caffenet conv4", 384, 384, 2, 13, 13),
        ("odd 9x5 map", 64, 68, 1, 9, 5),
        ("1x1 map", 64, 96, 1, 1, 1),
    ];
    let mut warm = Workspace::new();
    for (name, cin, cout, groups, h, w) in shapes {
        let batch = Case::new(cin, cout, groups, h, w, 3);
        let alone = bits(&batch.winograd(true, &mut Workspace::new()));
        assert!(
            bits(&batch.winograd(true, &mut warm)) == alone,
            "{name}: warm workspace"
        );
        for threads in [1, 2, 3] {
            let mut ws = Workspace::new();
            ws.team = Some(Team::new(threads).with_min_part_macs(0));
            let got = bits(&batch.winograd(true, &mut ws));
            assert!(got == alone, "{name}: team of {threads}");
        }
        let image_len = batch.input.image_len();
        let out_len = alone.len() / 3;
        for i in 0..3 {
            let single = Case {
                input: Tensor4::from_vec(1, cin, h, w, batch.input.image(i).to_vec()).unwrap(),
                params: batch.params,
                weights: batch.weights.clone(),
                bias: batch.bias.clone(),
            };
            assert_eq!(single.input.len(), image_len);
            for threads in [1, 2, 3] {
                let mut ws = Workspace::new();
                ws.team = Some(Team::new(threads).with_min_part_macs(0));
                let got = bits(&single.winograd(true, &mut ws));
                let row = &alone[i * out_len..(i + 1) * out_len];
                assert!(
                    got == row,
                    "{name}: image {i} alone on {threads} != its batch-3 row"
                );
            }
        }
    }
}

/// The form refuses geometry it does not compute.
#[test]
fn only_3x3_stride_1_pad_1_has_a_winograd_form() {
    let w = Matrix::zeros(8, 4 * 9);
    for p in [
        Conv2dParams::new(4, 8, 3, 0, 1),
        Conv2dParams::new(4, 8, 3, 1, 2),
    ] {
        assert!(ConvWeights::winograd_bands(&w, &p).is_err(), "{p:?}");
    }
    let p = Conv2dParams::new(4, 8, 3, 1, 1);
    let bands = ConvWeights::winograd_bands(&w, &p).unwrap();
    let strided = Conv2dParams::new(4, 8, 3, 1, 2);
    let x = Tensor4::zeros(1, 4, 6, 6);
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let form = ConvWeights::Winograd(&bands);
    assert!(conv2d(
        &x,
        form,
        None,
        false,
        &strided,
        &mut Workspace::new(),
        &mut out
    )
    .is_err());
}
