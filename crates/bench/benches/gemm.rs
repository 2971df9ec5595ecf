//! Dense vs CSR-sparse GEMM across sparsity levels — the break-even
//! point of the sparse-Caffe substrate (DESIGN.md §9 ablation), which
//! no layer runs — the packed GEMM on the real conv layer
//! shapes, the record behind `gemm.rs`'s `STRIP_BYTES`, and the
//! batch-1 Caffenet multiplies and Googlenet stem pools and LRNs split
//! across a two-thread worker team (and the fc row GEMV against the
//! packed GEMV), every Caffenet and Googlenet max pool and LRN on one
//! thread, and the f32 GEMM's ymm and zmm register tiles against each
//! other.

use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::team::{self, Team};
use cap_tensor::{
    gemm, gemm_packed, gemm_packed_with, gemm_prepacked, lrn_into, max_pool2d_into, CsrMatrix,
    Epilogue, F32Tile, LrnParams, Matrix, PackedB, Pool2dParams, Tensor4, Workspace,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

fn weight_matrix(rows: usize, cols: usize, sparsity_pct: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r * 31 + c * 17) % 100;
        if h < sparsity_pct {
            0.0
        } else {
            (h as f32 - 50.0) / 50.0
        }
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256x1200_x_729");
    // Caffenet conv2-like dimensions: 256 filters, 1200 taps, 27x27 output.
    let activations = Matrix::from_fn(1200, 729, |r, q| ((r + q) % 13) as f32 / 13.0 - 0.5);
    for sparsity in [0usize, 30, 50, 70, 90] {
        let w = weight_matrix(256, 1200, sparsity);
        group.bench_with_input(BenchmarkId::new("dense", sparsity), &w, |b, w| {
            b.iter(|| gemm(w, &activations).unwrap())
        });
        let csr = CsrMatrix::from_dense(&w, 0.0);
        group.bench_with_input(BenchmarkId::new("sparse_csr", sparsity), &csr, |b, csr| {
            b.iter(|| csr.matmul_dense(&activations).unwrap())
        });
        // Pack-once/run-many: the B panels are packed outside the loop
        // and the output buffer is reused, so the steady state is
        // allocation-free.
        let packed = PackedB::pack(&activations);
        let mut out = Matrix::zeros(w.rows(), activations.cols());
        group.bench_with_input(BenchmarkId::new("dense_prepacked", sparsity), &w, |b, w| {
            b.iter(|| gemm_prepacked(w, &packed, &mut out).unwrap())
        });
    }
    group.finish();
}

/// The packed f32 GEMM on the batch-1 conv multiplies of Caffenet and
/// Googlenet (`m` filters × `k` taps × `n` output pixels; grouped
/// layers are one group's multiply). Patch matrices of 1.2–7.4 MB on
/// every row but the last, which fits one strip — so this group is
/// what moves when the driver's column-strip budget (`STRIP_BYTES`)
/// does; the sweep it was chosen from is in EXPERIMENTS.md "PR 16".
/// Ends with one `gemm_layer_shapes:` line (min / max GFLOP/s over the
/// shapes, each from its fastest call) for the CI job summary.
fn bench_layer_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_layer_shapes");
    let mut rates: Vec<(f64, &str)> = Vec::new();
    for (name, m, k, n) in LAYER_SHAPES {
        let a = Matrix::from_fn(m, k, |r, q| ((r * 7 + q * 3) % 17) as f32 / 17.0 - 0.5);
        let packed = PackedB::pack(&Matrix::from_fn(k, n, |r, q| {
            ((r + q * 5) % 13) as f32 / 13.0 - 0.5
        }));
        let mut out = Matrix::zeros(m, n);
        let best = fastest(
            &mut group,
            BenchmarkId::new(name, format!("{m}x{k}x{n}")),
            || gemm_prepacked(&a, &packed, &mut out).unwrap(),
        );
        if best < Duration::MAX {
            let gflops = 2.0 * (m * k * n) as f64 / best.as_nanos() as f64;
            println!("gemm_layer_shapes/{name}: {gflops:.1} GFLOP/s");
            rates.push((gflops, name));
        }
    }
    group.finish();
    rates.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
        println!(
            "gemm_layer_shapes: min {:.1} GFLOP/s ({}), max {:.1} GFLOP/s ({}) over {} shapes on {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            rates.len(),
            cap_tensor::kernels::selected().name()
        );
    }
}

/// The f32 GEMM's two SIMD register tiles against each other: the
/// 256-bit ymm tile and the 512-bit zmm tile (`F32Tile`), each through
/// `gemm_packed`'s own loop nest (`gemm_packed_with`), on the
/// [`LAYER_SHAPES`] and one Winograd position product (inception 3a's
/// 3×3: 128 filters × 96 channels × 196 tiles, whose `n` leaves an odd
/// last panel). The two outputs of every shape are compared bit for
/// bit. Ends with one `gemm_tiles:` line — the zmm/ymm speed ratio, min
/// and max over the shapes, each arm from its fastest call — or, on a
/// host without AVX-512F (or AVX2), a note that it has nothing to
/// compare, for the CI job summary.
fn bench_tiles(c: &mut Criterion) {
    if !(F32Tile::Ymm.is_available() && F32Tile::Zmm.is_available()) {
        println!(
            "gemm_tiles: note: this host has no AVX-512F (or no AVX2); no zmm tile to compare"
        );
        return;
    }
    let wino = ("incep3a_3x3_wino_position", 128, 96, 196);
    let mut group = c.benchmark_group("gemm_tiles");
    let mut ratios: Vec<(f64, &str)> = Vec::new();
    for (name, m, k, n) in LAYER_SHAPES.into_iter().chain([wino]) {
        let a = Matrix::from_fn(m, k, |r, q| ((r * 7 + q * 3) % 17) as f32 / 17.0 - 0.5);
        let packed = PackedB::pack(&Matrix::from_fn(k, n, |r, q| {
            ((r + q * 5) % 13) as f32 / 13.0 - 0.5
        }));
        let mut outs = [vec![0.0f32; m * n], vec![0.0f32; m * n]];
        let mut best = [Duration::MAX; 2];
        for ((tile, out), best) in [F32Tile::Ymm, F32Tile::Zmm]
            .into_iter()
            .zip(&mut outs)
            .zip(&mut best)
        {
            *best = fastest(&mut group, BenchmarkId::new(name, tile.name()), || {
                gemm_packed_with(
                    tile,
                    a.as_slice(),
                    m,
                    k,
                    n,
                    packed.as_slice(),
                    out,
                    Epilogue::NONE,
                )
                .unwrap()
            });
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&outs[0]) == bits(&outs[1]),
            "gemm_tiles/{name}: zmm output differs from ymm"
        );
        if best.iter().all(|&t| t < Duration::MAX) {
            let ratio = best[0].as_secs_f64() / best[1].as_secs_f64();
            let gflops = 2.0 * (m * k * n) as f64 / best[1].as_nanos() as f64;
            println!("gemm_tiles/{name}: zmm {gflops:.1} GFLOP/s, zmm/ymm {ratio:.2}x");
            ratios.push((ratio, name));
        }
    }
    group.finish();
    ratios.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (ratios.first(), ratios.last()) {
        println!(
            "gemm_tiles: zmm/ymm min {:.2}x ({}) max {:.2}x ({}) over {} shapes",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            ratios.len()
        );
    }
}

/// The batch-1 conv multiplies of Caffenet and Googlenet (`m` filters ×
/// `k` taps × `n` output pixels; grouped layers are one group's
/// multiply), shared by `gemm_layer_shapes` and `gemm_tiles`.
const LAYER_SHAPES: [(&str, usize, usize, usize); 11] = [
    ("googlenet_conv1", 64, 147, 12544),
    ("googlenet_conv2_3x3", 192, 576, 3136),
    ("incep3a_3x3", 128, 864, 784),
    ("incep3b_3x3", 192, 1152, 784),
    ("incep3b_5x5", 96, 800, 784),
    ("incep4e_3x3", 320, 1440, 196),
    ("caffenet_conv1", 96, 363, 3025),
    ("caffenet_conv2_group", 128, 1200, 729),
    ("caffenet_conv3", 384, 2304, 169),
    ("caffenet_conv4_group", 192, 1728, 169),
    ("incep3a_1x1", 64, 192, 784),
];

/// Fastest call of `run` over the group's samples, as `id`.
fn fastest(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    mut run: impl FnMut(),
) -> Duration {
    let mut best = Duration::MAX;
    group.bench_function(id, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed());
        })
    });
    best
}

/// The multiplies of a batch-1 Caffenet pass, and the pools and LRNs of
/// Googlenet's stem, on one thread and split across a two-thread
/// [`Team`]: the eight conv multiplies (conv2, conv4 and conv5 are two
/// groups each) cut by rows of `A` (`team::split_rows`), the
/// fc6/fc7/fc8 row GEMVs on their row-major `W` cut by rows of `W`
/// (`team::split_columns` of the one output row), and pool1, norm1,
/// norm2 and pool2 cut by channel planes (a workspace carrying the
/// team). The network cuts conv1, conv3 and the GEMVs this way; on two
/// threads it runs a grouped layer's two groups one per thread instead,
/// and cuts each group by rows only on three or more. The two outputs
/// of every kernel are compared bit for bit. Then each fc's row GEMV
/// against the packed GEMV on a packed `Wᵀ` (what `gemm_packed` runs at
/// `m = 1`) and, on a zmm host, against the row GEMV on ymm, at 1 and 2
/// workers, the arms alternating call by call, printed as GB/s of `W`
/// with the rows/packed and ymm/zmm ratios. Ends with one
/// `gemm_split: fc rows/packed` line (min and max of that ratio) and
/// one `gemm_split:` line — the 2-worker speed-up over 1 worker, min
/// and max over the kernels, each arm from its fastest call — for the
/// CI job summary.
fn bench_split(c: &mut Criterion) {
    const CONV: [(&str, usize, usize, usize); 8] = [
        ("conv1", 96, 363, 3025),
        ("conv2_g1", 128, 1200, 729),
        ("conv2_g2", 128, 1200, 729),
        ("conv3", 384, 2304, 169),
        ("conv4_g1", 192, 1728, 169),
        ("conv4_g2", 192, 1728, 169),
        ("conv5_g1", 128, 1728, 169),
        ("conv5_g2", 128, 1728, 169),
    ];
    const FC: [(&str, usize, usize); 3] = [
        ("fc6", 9216, 4096),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ];
    let mut group = c.benchmark_group("gemm_split");
    let mut one_ws = Workspace::new();
    let mut two_ws = Workspace::new();
    two_ws.team = Some(Team::new(2));
    let mut speedups: Vec<(f64, &str)> = Vec::new();
    let mut measure =
        |name: &'static str, len: usize, run: &dyn Fn(&mut Workspace, &mut Tensor4)| {
            let mut outs = [Tensor4::zeros(1, 1, 1, len), Tensor4::zeros(1, 1, 1, len)];
            let [one_out, two_out] = &mut outs;
            let one = fastest(&mut group, BenchmarkId::new(name, "1w"), || {
                run(&mut one_ws, one_out)
            });
            let split = fastest(&mut group, BenchmarkId::new(name, "2w"), || {
                run(&mut two_ws, two_out)
            });
            let bits = |t: &Tensor4| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(one_out) == bits(two_out),
                "gemm_split/{name}: split output differs"
            );
            if split < Duration::MAX {
                let speedup = one.as_secs_f64() / split.as_secs_f64();
                println!("gemm_split/{name}: 2w/1w {speedup:.2}x");
                speedups.push((speedup, name));
            }
        };
    for (seed, (name, m, k, n)) in CONV.into_iter().enumerate() {
        let a = Matrix::from_fn(m, k, |r, q| {
            ((r * 7 + q * 3 + seed) % 17) as f32 / 17.0 - 0.5
        });
        let packed = PackedB::pack(&Matrix::from_fn(k, n, |r, q| {
            ((r + q * 5 + seed) % 13) as f32 / 13.0 - 0.5
        }));
        let (a, b) = (a.as_slice(), packed.as_slice());
        measure(name, m * n, &|ws, out| {
            team::split_rows(ws.team.as_mut(), k, n, out.as_mut_slice(), &|rows, part| {
                let a = &a[rows.start * k..rows.end * k];
                gemm_packed(a, rows.len(), k, n, b, part, Epilogue::NONE)
            })
            .unwrap()
        });
    }
    let tile = F32Tile::for_path(kernels::selected());
    let fc_operands = |k: usize, n: usize| {
        let x = Matrix::from_fn(1, k, |_, q| (q % 19) as f32 / 19.0 - 0.5);
        let w = Matrix::from_fn(n, k, |r, q| ((r * 3 + q * 11) % 23) as f32 / 23.0 - 0.5);
        (x, w)
    };
    // The row GEMV on `W` in place, cut by rows of `W` as the layer
    // cuts it.
    let fc_rows_on = |tile: F32Tile, ws: &mut Workspace, w: &[f32], x: &[f32], out: &mut [f32]| {
        let k = x.len();
        team::split_columns(
            ws.team.as_mut(),
            k,
            1,
            out,
            &mut Vec::new(),
            &|rows, part| {
                let w = &w[rows.start * k..rows.end * k];
                kernels::gemv_rows_with(tile, w, x, part, Epilogue::NONE);
                Ok(())
            },
        )
        .unwrap()
    };
    let fc_rows =
        |ws: &mut Workspace, w: &[f32], x: &[f32], out: &mut [f32]| fc_rows_on(tile, ws, w, x, out);
    for (name, k, n) in FC {
        let (x, w) = fc_operands(k, n);
        measure(name, n, &|ws, out| {
            fc_rows(ws, w.as_slice(), x.as_slice(), out.as_mut_slice())
        });
    }
    // Googlenet's stem at batch 1: the window kernels between conv1,
    // conv2-3x3 and inception 3a.
    let activations = |c: usize, hw: usize| {
        Tensor4::from_fn(1, c, hw, hw, |_, ch, y, x| {
            ((ch * 7 + y * 3 + x) % 23) as f32 / 23.0 - 0.5
        })
    };
    let pool = Pool2dParams::new(3, 0, 2);
    let lrn = LrnParams {
        local_size: 5,
        alpha: 1e-4,
        beta: 0.75,
        k: 2.0,
    };
    let (conv1, conv2) = (activations(64, 112), activations(192, 56));
    let (pool1, norm2) = (activations(64, 56), activations(192, 56));
    measure("pool1", 0, &|ws, out| {
        max_pool2d_into(&conv1, &pool, ws, out).unwrap()
    });
    measure("norm1", 0, &|ws, out| {
        lrn_into(&pool1, &lrn, ws, out).unwrap()
    });
    measure("norm2", 0, &|ws, out| {
        lrn_into(&conv2, &lrn, ws, out).unwrap()
    });
    measure("pool2", 0, &|ws, out| {
        max_pool2d_into(&norm2, &pool, ws, out).unwrap()
    });
    // The row GEMV against the packed GEMV on `Wᵀ` (what `gemm_packed`
    // still runs at `m = 1`, cut by column panels) and, on a zmm host,
    // against the row GEMV on ymm, the arms alternating call by call in
    // one sample — separate runs on this kind of host disagree by more
    // than the kernels do — each arm's fastest call over the samples,
    // as GB/s of `W`.
    let narrow = (tile == F32Tile::Zmm).then_some(F32Tile::Ymm);
    let mut fc_ratios: Vec<(f64, String)> = Vec::new();
    for (name, k, n) in FC {
        let (x, w) = fc_operands(k, n);
        let w_t = PackedB::pack(&w.transpose());
        let (x, w, b) = (x.as_slice(), w.as_slice(), w_t.as_slice());
        let packed = |ws: &mut Workspace, out: &mut [f32]| {
            team::split_columns(
                ws.team.as_mut(),
                k,
                1,
                out,
                &mut Vec::new(),
                &|cols, part| {
                    let b = &b[cols.start * k..];
                    gemm_packed(x, 1, k, cols.len(), b, part, Epilogue::NONE)
                },
            )
            .unwrap()
        };
        // Arms `3j + i` on `j + 1` workers: the row GEMV, the packed
        // GEMV, the row GEMV on ymm (skipped, left at `MAX`, off zmm).
        let mut best = [Duration::MAX; 6];
        let mut outs = vec![vec![0.0f32; n]; 6];
        let id = BenchmarkId::new(name, "rows_vs_packed");
        group.bench_function(id, |b| {
            b.iter(|| {
                for (arm, out) in outs.iter_mut().enumerate() {
                    let ws = if arm < 3 { &mut one_ws } else { &mut two_ws };
                    let t0 = Instant::now();
                    match (arm % 3, narrow) {
                        (0, _) => fc_rows(ws, w, x, out),
                        (1, _) => packed(ws, out),
                        (_, Some(ymm)) => fc_rows_on(ymm, ws, w, x, out),
                        (_, None) => continue,
                    }
                    best[arm] = best[arm].min(t0.elapsed());
                }
            })
        });
        if best[0] == Duration::MAX {
            continue;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ran = outs.iter().zip(best).filter(|(_, t)| *t < Duration::MAX);
        assert!(
            ran.map(|(o, _)| o).all(|o| bits(o) == bits(&outs[0])),
            "gemm_split/{name}: the GEMV arms differ"
        );
        let gbs = |t: Duration| (n * k * 4) as f64 / t.as_nanos() as f64;
        let [r1, p1, y1, r2, p2, y2] = best.map(gbs);
        println!(
            "gemm_split/{name}: GB/s rows 1w {r1:.1} packed 1w {p1:.1} ({:.2}x), \
             rows 2w {r2:.1} packed 2w {p2:.1} ({:.2}x)",
            r1 / p1,
            r2 / p2
        );
        if narrow.is_some() {
            println!(
                "gemm_split/{name}: GB/s rows on ymm 1w {y1:.1} ({:.2}x zmm), 2w {y2:.1} ({:.2}x zmm)",
                y1 / r1,
                y2 / r2
            );
        }
        fc_ratios.push((r1 / p1, format!("{name} 1w")));
        fc_ratios.push((r2 / p2, format!("{name} 2w")));
    }
    group.finish();
    fc_ratios.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (fc_ratios.first(), fc_ratios.last()) {
        println!(
            "gemm_split: fc rows/packed min {:.2}x ({}) max {:.2}x ({}) on tile {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            tile.name()
        );
    }
    speedups.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (speedups.first(), speedups.last()) {
        println!(
            "gemm_split: 2w/1w min {:.2}x ({}) max {:.2}x ({}) over {} kernels on {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            speedups.len(),
            cap_tensor::kernels::selected().name()
        );
    }
}

/// Every max pool and LRN shape of Caffenet and Googlenet at batch 1
/// on one thread (a workspace without a team), each output compared
/// bit for bit with the scalar path's. Prints each kernel's rate — the
/// bytes it reads and writes once over its fastest call — and its cost
/// per window tap (pools) or per element (LRN), the unit of
/// `POOL_TAP_MACS` / `LRN_ELEMENT_MACS` in `pool.rs`; ends with one
/// `window:` line, min and max GB/s, for the CI job summary.
fn bench_window(c: &mut Criterion) {
    // (name, channels, input side, window, pad, stride); Googlenet's
    // inception 4b, 4c and 4d pools share one shape.
    const POOLS: [(&str, usize, usize, usize, usize, usize); 14] = [
        ("caffenet_pool1", 96, 55, 3, 0, 2),
        ("caffenet_pool2", 256, 27, 3, 0, 2),
        ("caffenet_pool5", 256, 13, 3, 0, 2),
        ("googlenet_pool1", 64, 112, 3, 0, 2),
        ("googlenet_pool2", 192, 56, 3, 0, 2),
        ("incep3a_pool", 192, 28, 3, 1, 1),
        ("incep3b_pool", 256, 28, 3, 1, 1),
        ("googlenet_pool3", 480, 28, 3, 0, 2),
        ("incep4a_pool", 480, 14, 3, 1, 1),
        ("incep4b_pool", 512, 14, 3, 1, 1),
        ("incep4e_pool", 528, 14, 3, 1, 1),
        ("googlenet_pool4", 832, 14, 3, 0, 2),
        ("incep5a_pool", 832, 7, 3, 1, 1),
        ("incep5b_pool", 832, 7, 3, 1, 1),
    ];
    // (name, channels, side); every one is `LrnLayer::alexnet`'s.
    const LRNS: [(&str, usize, usize); 4] = [
        ("caffenet_norm1", 96, 27),
        ("caffenet_norm2", 256, 13),
        ("googlenet_norm1", 64, 56),
        ("googlenet_norm2", 192, 56),
    ];
    let lrn = LrnParams {
        local_size: 5,
        alpha: 1e-4,
        beta: 0.75,
        k: 2.0,
    };
    let mut group = c.benchmark_group("window");
    let mut ws = Workspace::new();
    let mut rates: Vec<(f64, &str)> = Vec::new();
    let mut measure = |name: &'static str,
                       input: &Tensor4,
                       units: (usize, &str),
                       run: &dyn Fn(&Tensor4, &mut Workspace, &mut Tensor4)| {
        let mut want = Tensor4::zeros(0, 0, 0, 0);
        kernels::force(Some(KernelPath::Scalar));
        run(input, &mut Workspace::new(), &mut want);
        kernels::force(None);
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        let best = fastest(&mut group, BenchmarkId::new(name, "1w"), || {
            run(input, &mut ws, &mut out)
        });
        if best < Duration::MAX {
            let bits = |t: &Tensor4| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&out) == bits(&want),
                "window/{name}: differs from scalar"
            );
            let ns = best.as_nanos() as f64;
            let gbs = (4 * (input.len() + out.len())) as f64 / ns;
            let per = ns / units.0 as f64;
            println!("window/{name}: {gbs:.1} GB/s, {per:.3} ns per {}", units.1);
            rates.push((gbs, name));
        }
    };
    let activations = |c: usize, hw: usize| {
        Tensor4::from_fn(1, c, hw, hw, |_, ch, y, x| {
            ((ch * 7 + y * 3 + x) % 23) as f32 / 23.0 - 0.5
        })
    };
    for (name, ch, hw, k, pad, stride) in POOLS {
        let p = Pool2dParams::new(k, pad, stride);
        let (oh, ow) = p.out_shape(hw, hw).unwrap();
        measure(
            name,
            &activations(ch, hw),
            (ch * oh * ow * k * k, "tap"),
            &|x, ws, out| max_pool2d_into(x, &p, ws, out).unwrap(),
        );
    }
    for (name, ch, hw) in LRNS {
        measure(
            name,
            &activations(ch, hw),
            (ch * hw * hw, "element"),
            &|x, ws, out| lrn_into(x, &lrn, ws, out).unwrap(),
        );
    }
    group.finish();
    rates.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
        println!(
            "window: min {:.1} GB/s ({}) max {:.1} GB/s ({}) over {} kernels on {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            rates.len(),
            kernels::selected().name()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_layer_shapes, bench_tiles, bench_split, bench_window
}
criterion_main!(benches);
