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
//! queue where the plan branches), and the whole plan on the ready
//! queue with two workers. A row that changes means some output bit
//! changed; a change that alters outputs on purpose updates the table.
//!
//! `#[ignore]`d because the full-size nets take seconds in release and
//! minutes in debug. Run it with
//! `cargo test --release -p cap-bench --test output_checksums -- --ignored`.

use cap_cnn::dag::{self, DagExecutor, DagMode};
use cap_cnn::models::{caffenet, googlenet, WeightInit, CAFFENET_CONV_LAYERS};
use cap_cnn::network::{ForwardArena, Network};
use cap_pruning::{apply_to_network, caffenet_profile, PruneAlgorithm};
use cap_tensor::{precision, CalibrationMethod, Matrix, Precision, Team, Tensor4};

const INIT: WeightInit = WeightInit::Xavier { seed: 7 };

/// `(row, checksum)`, in the order [`output_checksums_are_pinned`]
/// computes them.
const TABLE: [(&str, u64); 9] = [
    ("caffenet f32 b1", 0xd821_966c_0a84_0427),
    ("caffenet f32 b8", 0x659e_90a9_8494_2261),
    ("caffenet filter-l1 knees b1", 0x57ef_edd5_6084_7010),
    ("caffenet filter-l1 knees b8", 0xb2b8_a2b0_70bb_871f),
    ("caffenet csr b1", 0x2bdf_ecba_5bbe_21e9),
    ("caffenet csr b8", 0xf921_22db_66ee_1fcd),
    ("caffenet int8 b8", 0xd358_6fc9_791f_81c0),
    ("caffenet int8 b1", 0x3bdb_a859_3206_cbc9),
    ("googlenet f32 b1", 0xba88_0f91_2a73_4b25),
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
/// two-thread team and a two-worker whole-plan queue agree on it. The
/// second pass through each arena is the one hashed, so warm state
/// (packed weights, grown scratch) is covered too.
fn checksum(net: &Network, x: &Tensor4) -> u64 {
    dag::force(Some(DagMode::Off));
    let mut one = ForwardArena::new();
    net.forward_into(x, &mut one).unwrap();
    let sequential = fnv1a(net.forward_into(x, &mut one).unwrap().as_slice());
    dag::force(None);

    let mut team = ForwardArena::with_team(Team::new(2));
    net.forward_into(x, &mut team).unwrap();
    let split = fnv1a(net.forward_into(x, &mut team).unwrap().as_slice());

    let exec = DagExecutor::new(2);
    let mut queue = ForwardArena::new();
    exec.run(net, x, &mut queue).unwrap();
    let queued = fnv1a(exec.run(net, x, &mut queue).unwrap().as_slice());

    assert_eq!(split, sequential, "{}: two-thread team", net.name());
    assert_eq!(queued, sequential, "{}: whole-plan queue", net.name());
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
