//! Fixed checksums of whole-network outputs, so a change that means to
//! keep every output bit can show it against numbers recorded before
//! it: FNV-1a over every output bit of full-size Caffenet and Googlenet,
//! Xavier seed 7, on fixed images.
//!
//! Every kernel path, fusion mode and thread count is bitwise the
//! scalar one-thread pass, so one table holds under every
//! `CAP_TENSOR_KERNEL`, `CAP_TENSOR_FUSION` and `CAP_CNN_DAG` setting
//! (precision is forced per row). Each row is checked three ways: one
//! thread, a two-thread arena team (stages, kernel splits and the ready
//! queue where the plan branches), and a three-thread team that splits
//! every kernel with two units of work into uneven parts. A row that
//! changes means some output bit changed; a change that alters outputs
//! on purpose updates the table.
//!
//! The table was recorded under the FMA contract of
//! `cap_tensor::kernels` (every f32 multiply-accumulate step one fused
//! multiply-add), with LRN's β = 0.75 power taken as two square roots
//! (every row passes through an LRN), and with the dense f32 3×3s that
//! qualify on the Winograd F(2×2, 3×3) form (Caffenet conv3–conv5,
//! Googlenet's 3×3s on maps of 14 and more; the int8 rows' activation
//! scales are calibrated by an f32 pass, so they run through it too);
//! it moves only when some output bit is meant to.
//!
//! `#[ignore]`d because the full-size nets take seconds in release and
//! minutes in debug. Every CI test leg runs it as its own step; by hand,
//! `cargo test --release -p cap-bench --test output_checksums -- --ignored`.

use cap_cnn::dag::{self, DagMode};
use cap_cnn::models::{caffenet, googlenet, WeightInit, CAFFENET_CONV_LAYERS};
use cap_cnn::network::{ForwardArena, Network};
use cap_pruning::{apply_to_network, caffenet_profile, PruneAlgorithm};
use cap_tensor::{precision, CalibrationMethod, Matrix, Precision, Team, Tensor4};

const INIT: WeightInit = WeightInit::Xavier { seed: 7 };

/// `(row, checksum)`, in the order [`output_checksums_are_pinned`]
/// computes them.
const TABLE: [(&str, u64); 9] = [
    ("caffenet f32 b1", 0x9df2_c673_1530_ed70),
    ("caffenet f32 b8", 0xcc35_e0b2_f313_f2ad),
    ("caffenet filter-l1 knees b1", 0x5545_2bd0_610a_0770),
    ("caffenet filter-l1 knees b8", 0xc563_bdfe_04e4_9d5e),
    ("caffenet csr b1", 0x4801_39f4_f2bc_6ca2),
    ("caffenet csr b8", 0x09ca_2d9b_4c23_2425),
    ("caffenet int8 b8", 0xff2b_d266_138e_069f),
    ("caffenet int8 b1", 0xfee8_bed4_d42a_5269),
    ("googlenet f32 b1", 0xb3f0_683a_6911_f2cd),
];

/// FNV-1a over the little-endian bytes of every value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn images(batch: usize) -> Tensor4 {
    Tensor4::from_fn(batch, 3, 224, 224, |n, c, h, w| {
        (((n * 131 + c * 71 + h * 13 + w * 7) % 251) as f32 - 125.0) / 125.0
    })
}

/// The checksum of `net` on `x`, after asserting that one thread, a
/// two-thread team and an eager three-thread team agree on it. The
/// second pass through each arena is the one hashed, so warm state
/// (packed weights, grown scratch) is covered too.
fn checksum(net: &Network, x: &Tensor4) -> u64 {
    let hash = |mut arena: ForwardArena| {
        net.forward_into(x, &mut arena).unwrap();
        fnv1a(net.forward_into(x, &mut arena).unwrap().as_slice())
    };
    dag::force(Some(DagMode::Off));
    let sequential = hash(ForwardArena::new());
    dag::force(None);
    let split = hash(ForwardArena::with_team(Team::new(2)));
    let eager = hash(ForwardArena::with_team(Team::new(3).with_min_part_macs(0)));

    assert_eq!(split, sequential, "{}: two-thread team", net.name());
    assert_eq!(eager, sequential, "{}: eager three-thread team", net.name());
    sequential
}

/// Every conv keeps one weight in six: 83.3 % zeros, past the dense/CSR
/// crossover, so each multiplies through CSR.
fn sparsify_convs(net: &mut Network) {
    for name in CAFFENET_CONV_LAYERS {
        let w = net.layer(name).unwrap().weights().unwrap();
        let cols = w.cols();
        let sparse = Matrix::from_fn(w.rows(), cols, |r, c| {
            if (r * cols + c).is_multiple_of(6) {
                w.get(r, c)
            } else {
                0.0
            }
        });
        net.set_layer_weights(name, sparse).unwrap();
    }
}

#[test]
#[ignore = "full-size nets; run with --release -- --ignored"]
fn output_checksums_are_pinned() {
    let (b1, b8) = (images(1), images(8));
    let mut got = Vec::new();

    precision::force(Some(Precision::F32));
    let dense = caffenet(INIT).unwrap();
    got.push(checksum(&dense, &b1));
    got.push(checksum(&dense, &b8));

    let mut pruned = caffenet(INIT).unwrap();
    let knees = caffenet_profile().all_knees_spec();
    apply_to_network(&mut pruned, &knees, PruneAlgorithm::FilterL1).unwrap();
    got.push(checksum(&pruned, &b1));
    got.push(checksum(&pruned, &b8));

    let mut csr = caffenet(INIT).unwrap();
    sparsify_convs(&mut csr);
    got.push(checksum(&csr, &b1));
    got.push(checksum(&csr, &b8));

    dense.calibrate(&b8, CalibrationMethod::MaxAbs).unwrap();
    precision::force(Some(Precision::Int8));
    got.push(checksum(&dense, &b8));
    got.push(checksum(&dense, &b1));

    precision::force(Some(Precision::F32));
    got.push(checksum(&googlenet(INIT).unwrap(), &b1));
    precision::force(None);

    for ((row, _), got) in TABLE.iter().zip(&got) {
        println!("{row:<28} {got:016x}");
    }
    let want: Vec<u64> = TABLE.iter().map(|&(_, c)| c).collect();
    assert_eq!(got, want, "output checksums moved (rows as printed above)");
}
