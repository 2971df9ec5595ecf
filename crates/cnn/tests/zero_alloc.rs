//! Steady-state allocation audit: after a warm-up pass has grown every
//! buffer to its high-water mark, repeated batched inference through a
//! [`ForwardArena`] must perform **zero** heap allocations, on every
//! schedule: one thread, or every step's kernels split across the
//! arena's team.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this
//! file holds exactly one test so no sibling test can allocate
//! concurrently and pollute the count.

use cap_cnn::dag::{self, DagMode};
use cap_cnn::layer::{
    ConcatLayer, ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network, NodeId, INPUT};
use cap_cnn::{NoopTracer, Tracer};
use cap_obs::{SpanInfo, SpanScope, TimingGuard};
use cap_tensor::{
    conv2d, init::xavier_uniform, precision, CalibrationMethod, Conv2dParams, ConvWeights, Matrix,
    Precision, Team, Tensor4, Workspace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

mod common;

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count allocations over `passes` runs of `body`, retrying the window
/// up to `attempts` times and returning the **minimum** count observed.
///
/// Why a minimum instead of a single window: the pipeline's own
/// steady-state allocations are deterministic — a buffer grown per
/// pass would show up in *every* window — but rayon's work-stealing
/// deques (crossbeam-epoch) reclaim memory at arbitrary points,
/// injecting rare allocations this test does not own. Requiring one
/// silent window out of several keeps the zero-alloc contract sharp
/// without flaking on scheduler noise.
fn min_allocs_over(attempts: usize, passes: usize, mut body: impl FnMut()) -> usize {
    let mut min = usize::MAX;
    for _ in 0..attempts {
        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        for _ in 0..passes {
            body();
        }
        let after = ALLOC_CALLS.load(Ordering::SeqCst);
        min = min.min(after - before);
        if min == 0 {
            break;
        }
    }
    min
}

/// An enabled tracer whose whole record path is one relaxed atomic add:
/// what any attached tracer costs the executor at least — the clock
/// reads and `SpanInfo` building of the enabled path — with nothing of
/// its own that could allocate.
#[derive(Default)]
struct LayerSpanCounter(AtomicU64);

impl Tracer for LayerSpanCounter {
    fn span_exit(&self, info: &SpanInfo<'_>, _elapsed: Duration) {
        if info.scope == SpanScope::Layer {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A Caffenet-shaped (grouped conv, LRN, overlapping pool, FC head)
/// sequential model, scaled down so the test runs in milliseconds.
fn caffenet_shaped() -> Network {
    let mut net = Network::new("mini-caffenet", (3, 19, 19));
    net.add_sequential(Box::new(
        ConvLayer::new(
            "conv1",
            Conv2dParams::new(3, 8, 3, 0, 2),
            xavier_uniform(8, 27, 11),
            vec![0.0; 8],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu1")))
        .unwrap();
    net.add_sequential(Box::new(LrnLayer::alexnet("norm1")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 3, 0, 2)))
        .unwrap();
    net.add_sequential(Box::new(
        ConvLayer::new(
            "conv2",
            Conv2dParams::grouped(8, 12, 3, 1, 1, 2),
            xavier_uniform(12, 4 * 9, 12),
            vec![0.1; 12],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu2")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool2", PoolMode::Max, 2, 0, 2)))
        .unwrap();
    net.add_sequential(Box::new(DropoutLayer::new("drop2", 0.5)))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc3", xavier_uniform(10, 12 * 2 * 2, 13), vec![0.0; 10]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// Geometry of [`int8_shaped`]'s second conv: two groups of 64 input
/// channels, a patch depth of 576 and 16 filters per group — two full
/// six-row tiles and a four-row one per band.
const INT8_CONV2: Conv2dParams = Conv2dParams {
    in_channels: 128,
    out_channels: 32,
    kh: 3,
    kw: 3,
    pad: 1,
    stride: 1,
    groups: 2,
};

/// Grouped conv → pool → deep grouped conv → fc over 800 features: at
/// batch 8 both the convs and the fc run the int8 band kernel, at
/// batch 1 the fc runs the GEMV. What scratch those use beyond the
/// arena depends on the integer kernel the host resolves to: `vnni`
/// reads `A` in place and keeps its row sums on the stack; `avx2`
/// widens each `A` band into a thread-local (grown during warm-up);
/// scalar has none.
fn int8_shaped() -> Network {
    let mut net = Network::new("mini-int8", (8, 10, 10));
    let conv1 = Conv2dParams::grouped(8, 128, 3, 1, 1, 2);
    net.add_sequential(Box::new(
        ConvLayer::new("conv1", conv1, xavier_uniform(128, 36, 31), vec![0.05; 128]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu1")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 2, 0, 2)))
        .unwrap();
    let w2 = xavier_uniform(32, INT8_CONV2.col_rows(), 32);
    net.add_sequential(Box::new(
        ConvLayer::new("conv2", INT8_CONV2, w2, vec![0.1; 32]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu2")))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc3", xavier_uniform(10, 32 * 5 * 5, 33), vec![0.0; 10]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// Two inception-shaped modules back to back with no stem: the first
/// forks the network input itself into four branches (1×1; 1×1 → 3×3;
/// 1×1 → 5×5; pool → 1×1), every conv followed by a ReLU, and joins
/// them in a four-input concat. So four steps read the network input,
/// and the only kernels to split are inside the modules.
fn inception_from_input() -> Network {
    let mut net = Network::new("input-inception", (8, 9, 9));
    let mut seed = 40;
    let mut conv = |net: &mut Network, name: String, from: NodeId, cin, cout, k, pad| {
        seed += 1;
        let p = Conv2dParams::new(cin, cout, k, pad, 1);
        let w = xavier_uniform(cout, p.col_rows(), seed);
        let layer = ConvLayer::new(name.clone(), p, w, vec![0.05; cout]).unwrap();
        let c = net.add_layer(Box::new(layer), &[from]).unwrap();
        net.add_layer(Box::new(ReluLayer::new(format!("{name}-relu"))), &[c])
            .unwrap()
    };
    let mut from = INPUT;
    for (m, cin) in [("a", 8), ("b", 16)] {
        let b1 = conv(&mut net, format!("{m}-1x1"), from, cin, 4, 1, 0);
        let r3 = conv(&mut net, format!("{m}-3x3r"), from, cin, 3, 1, 0);
        let b3 = conv(&mut net, format!("{m}-3x3"), r3, 3, 6, 3, 1);
        let r5 = conv(&mut net, format!("{m}-5x5r"), from, cin, 2, 1, 0);
        let b5 = conv(&mut net, format!("{m}-5x5"), r5, 2, 3, 5, 2);
        let pool = PoolLayer::new(format!("{m}-pool"), PoolMode::Max, 3, 1, 1);
        let pl = net.add_layer(Box::new(pool), &[from]).unwrap();
        let bp = conv(&mut net, format!("{m}-proj"), pl, cin, 3, 1, 0);
        let cat = ConcatLayer::new(format!("{m}-out"));
        from = net.add_layer(Box::new(cat), &[b1, b3, b5, bp]).unwrap();
    }
    net
}

/// A Caffenet-shaped net whose 3×3s run the Winograd form (asserted):
/// a strided stem (im2col), LRN and pool, then a grouped 3×3 (two
/// groups of 64 channels) and a 3×3 128 → 96 on 8×8 maps, a pool and
/// an fc head.
fn caffenet_winograd() -> Network {
    let mut net = Network::new("caffenet-winograd", (3, 31, 31));
    let convs = [
        ("conv1", Conv2dParams::new(3, 128, 3, 1, 2), 31),
        ("conv2", Conv2dParams::grouped(128, 128, 3, 1, 1, 2), 8),
        ("conv3", Conv2dParams::new(128, 96, 3, 1, 1), 8),
    ];
    for (seed, (name, p, map)) in convs.into_iter().enumerate() {
        let w = xavier_uniform(p.out_channels, p.col_rows(), 70 + seed as u64);
        let form = ConvLayer::weight_form_name(&w, &p, (map, map));
        assert_eq!(form == "winograd", name != "conv1", "{name} runs {form}");
        let conv = ConvLayer::new(name, p, w, vec![0.02; p.out_channels]).unwrap();
        net.add_sequential(Box::new(conv)).unwrap();
        net.add_sequential(Box::new(ReluLayer::new(format!("{name}-relu"))))
            .unwrap();
        if name == "conv1" {
            net.add_sequential(Box::new(LrnLayer::alexnet("norm1")))
                .unwrap();
            let pool = PoolLayer::new("pool1", PoolMode::Max, 3, 0, 2);
            net.add_sequential(Box::new(pool)).unwrap();
        }
    }
    let pool = PoolLayer::new("pool3", PoolMode::Max, 2, 0, 2);
    net.add_sequential(Box::new(pool)).unwrap();
    let fc = InnerProductLayer::new("fc", xavier_uniform(10, 96 * 16, 73), vec![0.0; 10]);
    net.add_sequential(Box::new(fc.unwrap())).unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// Two inception-shaped modules on a 32×8×8 input whose 3×3 branches
/// (64 → 64 after a 1×1 reduce) run the Winograd form (asserted), the
/// other branches im2col, joined by four-input concats, and an fc head.
fn inception_winograd() -> Network {
    let mut net = Network::new("inception-winograd", (32, 8, 8));
    let mut seed = 80;
    let mut conv = |net: &mut Network, name: String, from: NodeId, p: Conv2dParams| {
        seed += 1;
        let w = xavier_uniform(p.out_channels, p.col_rows(), seed);
        let form = ConvLayer::weight_form_name(&w, &p, (8, 8));
        assert_eq!(
            form == "winograd",
            name.ends_with("-3x3"),
            "{name} runs {form}"
        );
        let layer = ConvLayer::new(name.clone(), p, w, vec![0.05; p.out_channels]).unwrap();
        let c = net.add_layer(Box::new(layer), &[from]).unwrap();
        net.add_layer(Box::new(ReluLayer::new(format!("{name}-relu"))), &[c])
            .unwrap()
    };
    let mut from = INPUT;
    for (m, cin) in [("a", 32), ("b", 96)] {
        let b1 = conv(
            &mut net,
            format!("{m}-1x1"),
            from,
            Conv2dParams::new(cin, 16, 1, 0, 1),
        );
        let r3 = conv(
            &mut net,
            format!("{m}-3x3r"),
            from,
            Conv2dParams::new(cin, 64, 1, 0, 1),
        );
        let b3 = conv(
            &mut net,
            format!("{m}-3x3"),
            r3,
            Conv2dParams::new(64, 64, 3, 1, 1),
        );
        let r5 = conv(
            &mut net,
            format!("{m}-5x5r"),
            from,
            Conv2dParams::new(cin, 8, 1, 0, 1),
        );
        let b5 = conv(
            &mut net,
            format!("{m}-5x5"),
            r5,
            Conv2dParams::new(8, 8, 5, 2, 1),
        );
        let pool = PoolLayer::new(format!("{m}-pool"), PoolMode::Max, 3, 1, 1);
        let pl = net.add_layer(Box::new(pool), &[from]).unwrap();
        let bp = conv(
            &mut net,
            format!("{m}-proj"),
            pl,
            Conv2dParams::new(cin, 8, 1, 0, 1),
        );
        let cat = ConcatLayer::new(format!("{m}-out"));
        from = net.add_layer(Box::new(cat), &[b1, b3, b5, bp]).unwrap();
    }
    let fc = InnerProductLayer::new("fc", xavier_uniform(10, 96 * 64, 99), vec![0.0; 10]);
    net.add_layer(Box::new(fc.unwrap()), &[from]).unwrap();
    net
}

#[test]
fn steady_state_inference_allocates_nothing() {
    // Every schedule `CAP_CNN_DAG` can pick — one thread, or kernel
    // splits on the host's cores — is allocation-free once warm, so
    // the passes below run under whatever the environment says.
    let net = caffenet_shaped();
    let batch = 4;
    let images = Tensor4::from_fn(batch, 3, 19, 19, |n, c, h, w| {
        (((n * 53 + c * 17 + h * 5 + w) % 13) as f32 - 6.0) / 5.0
    });
    let mut arena = ForwardArena::new();

    // Warm-up: grows the arena's workspace, packed-weight caches, and
    // arena slots to their steady-state high-water marks.
    for _ in 0..3 {
        net.forward_into(&images, &mut arena).unwrap();
    }

    let mut checksum = 0.0f32;
    let allocs = min_allocs_over(5, 10, || {
        let out = net.forward_into(&images, &mut arena).unwrap();
        checksum += out.as_slice()[0];
    });
    assert!(checksum.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state forward passes must not allocate (got {allocs} allocations over 10 passes)",
    );

    // The observability layer must not erode the guarantee: the
    // explicitly no-op-traced path (what `forward_into` delegates to)
    // stays allocation-free, spans and all. The always-on metrics
    // counters are relaxed atomics — no heap traffic.
    let allocs = min_allocs_over(5, 10, || {
        let out = net
            .forward_into_traced(&images, &mut arena, &NoopTracer)
            .unwrap();
        checksum += out.as_slice()[0];
    });
    assert!(checksum.is_finite());
    assert_eq!(
        allocs, 0,
        "NoopTracer-instrumented forward passes must not allocate (got {allocs})",
    );

    // Even with timed metrics enabled (clock reads + histogram
    // records), recording is atomic-only: still zero allocations.
    {
        let _timing = TimingGuard::enable();
        let allocs = min_allocs_over(5, 5, || {
            net.forward_into_traced(&images, &mut arena, &NoopTracer)
                .unwrap();
        });
        assert_eq!(
            allocs, 0,
            "timed-metrics forward passes must not allocate (got {allocs})",
        );
    }

    // The enabled-tracer path (clock reads, span info per step) is
    // allocation-free too, and reports one layer span per executed
    // step of every pass.
    {
        let tracer = LayerSpanCounter::default();
        net.forward_into_traced(&images, &mut arena, &tracer)
            .unwrap();
        let per_pass = tracer.0.swap(0, Ordering::Relaxed);
        let steps = net.len() as u64 - cap_obs::metrics().fused_layers.get();
        assert_eq!(per_pass, steps, "one layer span per executed step");
        let mut passes = 0;
        let allocs = min_allocs_over(5, 5, || {
            net.forward_into_traced(&images, &mut arena, &tracer)
                .unwrap();
            passes += 1;
        });
        assert_eq!(
            allocs, 0,
            "traced forward passes must not allocate (got {allocs})",
        );
        assert_eq!(tracer.0.load(Ordering::Relaxed), per_pass * passes);
    }

    // Changing batch size grows buffers once, then goes quiet again.
    let smaller = Tensor4::from_fn(2, 3, 19, 19, |n, c, h, w| {
        (((n * 7 + c * 3 + h + w) % 11) as f32 - 5.0) / 4.0
    });
    for _ in 0..2 {
        net.forward_into(&smaller, &mut arena).unwrap();
    }
    let allocs = min_allocs_over(5, 5, || {
        net.forward_into(&smaller, &mut arena).unwrap();
    });
    assert_eq!(allocs, 0, "shrunken batch must reuse grown buffers");

    // The filter-pruned conv route: whole filters zeroed, as L1 filter
    // pruning leaves them, so both convs multiply their kept rows only
    // and move them into place inside the output band. Warm-up absorbs
    // the lazy kept-row copy; steady state must stay silent, and the
    // arena — activations and kernel scratch — must be no larger than
    // the dense net's.
    {
        let mut pruned_net = caffenet_shaped();
        for name in ["conv1", "conv2"] {
            let mut w = pruned_net.layer(name).unwrap().weights().unwrap().clone();
            for r in (0..w.rows()).filter(|r| r % 3 != 1) {
                w.row_mut(r).fill(0.0);
            }
            pruned_net.set_layer_weights(name, w).unwrap();
        }
        let mut pruned_arena = ForwardArena::new();
        for _ in 0..3 {
            pruned_net.forward_into(&images, &mut pruned_arena).unwrap();
        }
        let allocs = min_allocs_over(5, 10, || {
            pruned_net.forward_into(&images, &mut pruned_arena).unwrap();
        });
        assert_eq!(
            allocs, 0,
            "filter-pruned conv (kept rows) must not allocate (got {allocs})",
        );
        net.forward_into(&images, &mut arena).unwrap();
        assert!(pruned_arena.reserved_bytes() <= arena.reserved_bytes());
        assert!(pruned_arena.scratch_bytes() > 0);
        assert!(pruned_arena.scratch_bytes() <= arena.scratch_bytes());
    }

    // The int8 route, calibrated: the image quantize, the i8 lowering
    // and the integer GEMMs draw every buffer from the arena or a
    // thread-local, at batch 8 and at batch 1.
    {
        let int8_net = int8_shaped();
        let eight = Tensor4::from_fn(8, 8, 10, 10, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w) % 17) as f32 - 8.0) / 8.0
        });
        let one = Tensor4::from_fn(1, 8, 10, 10, |_, c, h, w| {
            (((c * 11 + h * 5 + w) % 13) as f32 - 6.0) / 6.0
        });
        precision::force(Some(Precision::F32));
        int8_net
            .calibrate(&eight, CalibrationMethod::MaxAbs)
            .unwrap();
        precision::force(Some(Precision::Int8));
        let mut int8_arena = ForwardArena::new();
        for images in [&eight, &one] {
            for _ in 0..3 {
                int8_net.forward_into(images, &mut int8_arena).unwrap();
            }
            let allocs = min_allocs_over(5, 10, || {
                int8_net.forward_into(images, &mut int8_arena).unwrap();
            });
            assert_eq!(
                allocs,
                0,
                "int8 forward passes at batch {} must not allocate (got {allocs})",
                images.n(),
            );
        }
        precision::force(None);

        // What that costs in scratch, on the deep conv: one group's 64
        // channels quantized straight into their padded 7×7 planes, four
        // patch rows and the packed i8 patch matrix — where lowering in
        // f32 first held the f32 patch matrix besides the packed one, a
        // slot the int8 forms leave empty, as they leave the f32 padded
        // image.
        let p = INT8_CONV2;
        let w2 = xavier_uniform(32, p.col_rows(), 32);
        let bands = ConvWeights::i8_bands(&w2, &p, &[]).unwrap();
        let x = Tensor4::from_fn(1, 128, 5, 5, |_, c, h, w| {
            ((c + h * 3 + w) % 9) as f32 / 9.0
        });
        let mut ws = Workspace::new();
        let form = ConvWeights::DenseI8 {
            bands: &bands,
            act_scale: 1.0 / 127.0,
        };
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        conv2d(&x, form, None, true, &p, &mut ws, &mut out).unwrap();
        let packed_i8 = 25usize.div_ceil(8) * p.col_rows() * 8;
        let via_f32_patch_matrix = p.col_rows() * 25 * 4 + packed_i8;
        assert_eq!(ws.cols.len(), 0);
        assert_eq!(ws.padded.len(), 0);
        assert_eq!(ws.qimage.len(), 64 * 7 * 7);
        assert_eq!(ws.qlines.len(), 4 * 25usize.next_multiple_of(8));
        assert_eq!(ws.qbuf.len(), packed_i8);
        assert!(ws.reserved_bytes() <= via_f32_patch_matrix / 3);
    }

    // A pruned FC (5/6 zeros) runs the dense form like any other: the
    // fused GEMV at batch 1 and GEMM at batch 8, straight from the input
    // into the arena slot — nothing staged in the workspace, so its
    // scratch does not grow at batch 8 either. Warm-up absorbs the
    // lazy `Wᵀ` pack and the fusion plan; steady state must stay
    // silent.
    {
        let dense = xavier_uniform(10, 48, 21);
        let (rows, cols) = dense.shape();
        let pruned = Matrix::from_fn(rows, cols, |r, c| {
            if (r * cols + c) % 6 == 0 {
                dense.get(r, c)
            } else {
                0.0
            }
        });
        assert!(pruned.sparsity(0.0) > 0.8);
        let mut sparse_net = Network::new("sparse-fc", (48, 1, 1));
        sparse_net
            .add_sequential(Box::new(
                InnerProductLayer::new("fc_s", pruned, vec![0.02; 10]).unwrap(),
            ))
            .unwrap();
        sparse_net
            .add_sequential(Box::new(ReluLayer::new("relu_s")))
            .unwrap();
        sparse_net
            .add_sequential(Box::new(SoftmaxLayer::new("prob_s")))
            .unwrap();
        let mut sparse_arena = ForwardArena::new();
        for batch in [1, 8] {
            let x = Tensor4::from_fn(batch, 48, 1, 1, |n, c, _, _| {
                ((n * 5 + c) as f32 - 24.0) / 25.0
            });
            let scratch = sparse_arena.scratch_bytes();
            for _ in 0..3 {
                sparse_net.forward_into(&x, &mut sparse_arena).unwrap();
            }
            let allocs = min_allocs_over(5, 5, || {
                sparse_net.forward_into(&x, &mut sparse_arena).unwrap();
            });
            assert_eq!(
                allocs, 0,
                "pruned FC at batch {batch} must not allocate (got {allocs})",
            );
            assert_eq!(
                sparse_arena.scratch_bytes(),
                scratch,
                "pruned FC at batch {batch} staged in the workspace",
            );
        }
    }

    // Branches and joins: a concat's input refs gathered on the stack,
    // the workers the arena's team. Two nets: the shared
    // inception-shaped one (a stem, a pool cut and a head around two
    // modules), and `inception_from_input`, whose first module reads
    // the input itself. Each runs sequentially, then on a two- and a
    // three-thread team, where every step runs in order on the caller
    // and the kernels inside the modules split like every other step's
    // (the LRN's sums plane and the convs' scratch each helper's own).
    // This binary's only test, so no other `force` user can interleave.
    let branchy = [
        (
            common::inception_shaped(xavier_uniform),
            Tensor4::from_fn(2, 3, 16, 16, |n, c, h, w| {
                (((n * 31 + c * 11 + h * 3 + w) % 15) as f32 - 7.0) / 7.0
            }),
        ),
        (
            inception_from_input(),
            Tensor4::from_fn(2, 8, 9, 9, |n, c, h, w| {
                (((n * 31 + c * 11 + h * 3 + w) % 15) as f32 - 7.0) / 7.0
            }),
        ),
    ];
    let metrics = cap_obs::metrics();
    for (net, x) in &branchy {
        let name = net.name();
        dag::force(Some(DagMode::Off));
        let mut arena = ForwardArena::new();
        for _ in 0..3 {
            net.forward_into(x, &mut arena).unwrap();
        }
        let allocs = min_allocs_over(5, 10, || {
            net.forward_into(x, &mut arena).unwrap();
        });
        dag::force(None);
        assert_eq!(
            allocs, 0,
            "sequential passes over {name} must not allocate (got {allocs})",
        );

        for threads in [2, 3] {
            let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
            for _ in 0..3 {
                net.forward_into(x, &mut arena).unwrap();
            }
            let splits = metrics.intra_op_splits.get();
            let allocs = min_allocs_over(5, 10, || {
                net.forward_into(x, &mut arena).unwrap();
            });
            assert!(
                metrics.intra_op_splits.get() > splits,
                "passes over {name} on a {threads}-thread team must split",
            );
            assert_eq!(
                allocs, 0,
                "split passes over {name} on a {threads}-thread team must not allocate \
                 (got {allocs})",
            );
        }
    }

    // A chain whose kernels split: every conv multiply, band and fc
    // GEMV of the Caffenet-shaped net cut across three threads, at
    // batch 1 (rows and columns) and batch 4 (bands). The helpers'
    // workspaces grow during warm-up like the caller's.
    {
        let mut arena = ForwardArena::with_team(Team::new(3).with_min_part_macs(0));
        let one = Tensor4::from_fn(1, 3, 19, 19, |_, c, h, w| {
            (((c * 17 + h * 5 + w) % 13) as f32 - 6.0) / 5.0
        });
        for x in [&one, &images] {
            for _ in 0..3 {
                net.forward_into(x, &mut arena).unwrap();
            }
            let splits = cap_obs::metrics().intra_op_splits.get();
            let allocs = min_allocs_over(5, 10, || {
                net.forward_into(x, &mut arena).unwrap();
            });
            assert!(cap_obs::metrics().intra_op_splits.get() > splits);
            assert_eq!(
                allocs,
                0,
                "split passes at batch {} must not allocate (got {allocs})",
                x.n()
            );
        }
        assert!(arena.scratch_bytes() > 0);

        // The same arena alternating the chain with a two-branch plan:
        // the three-thread team serves both and is never rebuilt, which
        // would spawn.
        let mut pair = Network::new("two-branches", (3, 19, 19));
        for (name, k, pad, seed) in [("a", 3, 1, 51), ("b", 1, 0, 52)] {
            let p = Conv2dParams::new(3, 4, k, pad, 1);
            let conv = ConvLayer::new(name, p, xavier_uniform(4, p.col_rows(), seed), vec![0.0; 4]);
            pair.add_layer(Box::new(conv.unwrap()), &[INPUT]).unwrap();
        }
        pair.add_layer(Box::new(ConcatLayer::new("cat")), &[NodeId(0), NodeId(1)])
            .unwrap();
        let mut both = || {
            pair.forward_into(&one, &mut arena).unwrap();
            net.forward_into(&one, &mut arena).unwrap();
        };
        for _ in 0..3 {
            both();
        }
        let allocs = min_allocs_over(5, 10, both);
        assert_eq!(
            allocs, 0,
            "alternating a two-wide plan and a chain must not allocate (got {allocs})",
        );
    }

    // The lowering split: a batch-1 dense conv whose multiply is cut by
    // rows first has its lowering cut by panels into as many parts —
    // pieces that read the caller's padded image (the workspace's
    // `padded`, or `qimage` for int8) and write their panels of the
    // caller's packed `B`. On the Caffenet-, int8- and inception-shaped
    // nets at batch 1, on two and three pinned threads, steady state
    // still allocates nothing. (The int8-shaped net's convs have two
    // groups: on two threads each helper lowers a whole group into its
    // own workspace, on three each group's multiply splits by rows
    // after the caller lowers it; int8 lowerings never split.)
    {
        let int8_net = int8_shaped();
        precision::force(Some(Precision::F32));
        let calib = Tensor4::from_fn(4, 8, 10, 10, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w) % 17) as f32 - 8.0) / 8.0
        });
        int8_net
            .calibrate(&calib, CalibrationMethod::MaxAbs)
            .unwrap();
        let inception = common::inception_shaped(xavier_uniform);
        let image = |c, hw| {
            Tensor4::from_fn(1, c, hw, hw, |_, c, h, w| {
                (((c * 17 + h * 5 + w) % 13) as f32 - 6.0) / 5.0
            })
        };
        let nets = [
            ("caffenet-shaped", &net, image(3, 19), Precision::F32),
            ("int8-shaped", &int8_net, image(8, 10), Precision::Int8),
            ("inception-shaped", &inception, image(3, 16), Precision::F32),
        ];
        for threads in [2, 3] {
            for (name, net, x, precision) in &nets {
                precision::force(Some(*precision));
                let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
                for _ in 0..3 {
                    net.forward_into(x, &mut arena).unwrap();
                }
                let splits = cap_obs::metrics().intra_op_splits.get();
                let allocs = min_allocs_over(5, 10, || {
                    net.forward_into(x, &mut arena).unwrap();
                });
                assert!(cap_obs::metrics().intra_op_splits.get() > splits, "{name}");
                assert_eq!(
                    allocs, 0,
                    "batch-1 passes over {name} with split lowerings on a {threads}-thread \
                     team must not allocate (got {allocs})",
                );
            }
        }
        precision::force(None);
    }

    // The Winograd form: batch-1 passes on a Caffenet-shaped and an
    // inception-shaped net whose 3×3s run it — the input transform into
    // the caller's packed `B` (split by tile panels), the products and
    // the output transform into each part's own `M` chunk (split by
    // rows) — allocate nothing once warm, on one, two and three pinned
    // threads (the teams splitting from the first unit of work). And
    // the activation slots hold exactly what the plan's liveness slots
    // need: each slot's largest value, no more, and never less than
    // the values live at once. The form is f32's, whatever the
    // environment's precision.
    {
        precision::force(Some(Precision::F32));
        let fused = cap_cnn::fusion::selected().enabled();
        let nets = [
            (
                caffenet_winograd(),
                Tensor4::from_fn(1, 3, 31, 31, |_, c, h, w| {
                    (((c * 17 + h * 5 + w) % 13) as f32 - 6.0) / 5.0
                }),
            ),
            (
                inception_winograd(),
                Tensor4::from_fn(1, 32, 8, 8, |_, c, h, w| {
                    (((c * 7 + h * 3 + w) % 11) as f32 - 5.0) / 5.0
                }),
            ),
        ];
        for (net, x) in &nets {
            let name = net.name();
            let plan = common::check_slot_plan(net, fused);
            for threads in [1, 2, 3] {
                let team = match threads {
                    1 => Team::new(1),
                    _ => Team::new(threads).with_min_part_macs(0),
                };
                let mut arena = ForwardArena::with_team(team);
                for _ in 0..3 {
                    net.forward_into(x, &mut arena).unwrap();
                }
                let splits = cap_obs::metrics().intra_op_splits.get();
                let allocs = min_allocs_over(5, 10, || {
                    net.forward_into(x, &mut arena).unwrap();
                });
                assert_eq!(
                    allocs, 0,
                    "Winograd passes over {name} on {threads} threads must not allocate \
                     (got {allocs})",
                );
                assert_eq!(
                    cap_obs::metrics().intra_op_splits.get() > splits,
                    threads > 1
                );
                let bytes = |elems: usize| elems * std::mem::size_of::<f32>();
                assert_eq!(arena.reserved_bytes(), bytes(plan.reserved), "{name}");
                assert!(bytes(plan.peak_live) <= arena.reserved_bytes(), "{name}");
            }
        }
        precision::force(None);
    }
}
