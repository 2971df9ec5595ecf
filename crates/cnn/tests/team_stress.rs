//! Adversarial tests for the arena's worker team at the pass level: a
//! panic on a helper thread, a failing layer under a split, where a
//! split must happen (inside the branches of a branchy plan) and where
//! it must not (inside a data-parallel engine worker), and many short
//! passes of both kinds through one arena. The team's own primitives —
//! every `unsafe` block and atomic handoff in `cap_tensor::team` — are
//! tested next to them, in that module.
//!
//! `dag::force` is process-global and the `intra_op_splits` counter is
//! shared, so the tests serialize on one mutex.

use cap_cnn::dag::{self, DagMode};
use cap_cnn::layer::{
    ChwShape, ConcatLayer, ConvLayer, InnerProductLayer, Layer, LayerKind, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_cnn::ParallelEngine;
use cap_tensor::init::xavier_uniform;
use cap_tensor::{team, Conv2dParams, Team, Tensor4, TensorResult, Workspace};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn splits() -> u64 {
    cap_obs::metrics().intra_op_splits.get()
}

fn eager_arena(threads: usize) -> ForwardArena {
    ForwardArena::with_team(Team::new(threads).with_min_part_macs(0))
}

fn conv(name: &str, p: Conv2dParams, seed: u64) -> Box<dyn Layer> {
    let w = xavier_uniform(p.out_channels, p.col_rows(), seed);
    Box::new(ConvLayer::new(name, p, w, vec![0.03; p.out_channels]).unwrap())
}

/// conv → relu → pool → conv → relu → fc: a chain, `cin` input
/// channels on `hw × hw`.
fn chain(cin: usize, cout: usize, hw: usize) -> Network {
    let mut net = Network::new("chain", (cin, hw, hw));
    net.add_sequential(conv("c1", Conv2dParams::new(cin, cout, 3, 1, 1), 1))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("r1"))).unwrap();
    net.add_sequential(Box::new(PoolLayer::new("p1", PoolMode::Max, 2, 0, 2)))
        .unwrap();
    net.add_sequential(conv("c2", Conv2dParams::grouped(cout, cout, 3, 1, 1, 2), 2))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("r2"))).unwrap();
    let features = cout * (hw / 2) * (hw / 2);
    let fc = InnerProductLayer::new("fc", xavier_uniform(40, features, 3), vec![0.0; 40]);
    net.add_sequential(Box::new(fc.unwrap())).unwrap();
    net
}

/// input → {conv → relu, conv, pool} → concat: three branches.
fn branchy() -> Network {
    let mut net = Network::new("branchy", (4, 8, 8));
    let a = net
        .add_layer(conv("a", Conv2dParams::new(4, 6, 3, 1, 1), 4), &[INPUT])
        .unwrap();
    let ar = net.add_layer(Box::new(ReluLayer::new("ar")), &[a]).unwrap();
    let b = net
        .add_layer(conv("b", Conv2dParams::new(4, 5, 1, 0, 1), 5), &[INPUT])
        .unwrap();
    let pool = PoolLayer::new("c", PoolMode::Max, 3, 1, 1);
    let c = net.add_layer(Box::new(pool), &[INPUT]).unwrap();
    net.add_layer(Box::new(ConcatLayer::new("cat")), &[ar, b, c])
        .unwrap();
    net
}

fn images(n: usize, c: usize, hw: usize, salt: usize) -> Tensor4 {
    Tensor4::from_fn(n, c, hw, hw, |i, ch, h, w| {
        (((i * 13 + ch * 7 + h * 3 + w + salt) % 17) as f32 - 8.0) / 8.0
    })
}

/// An identity layer that copies its input row by row as a kernel
/// split across the workspace's team, and panics once, when armed, in
/// the piece a team helper runs.
struct PanicOnHelper {
    name: String,
    armed: Arc<AtomicBool>,
}

impl Layer for PanicOnHelper {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dropout
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let (n, c, h, w) = inputs[0].shape();
        out.resize(n, c, h, w);
        let input = inputs[0].as_slice();
        team::split_rows(
            ws.team.as_mut(),
            1,
            w,
            out.as_mut_slice(),
            &|rows, piece| {
                let on_helper = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("cap-team"));
                if on_helper && self.armed.swap(false, Ordering::Relaxed) {
                    panic!("layer {} on a helper", self.name);
                }
                piece.copy_from_slice(&input[rows.start * w..rows.end * w]);
                Ok(())
            },
        )
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        Ok(in_shapes[0])
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }
}

#[test]
fn helper_panic_resurfaces_and_the_arena_stays_usable() {
    let _g = force_lock();
    let mut net = Network::new("panicky", (2, 4, 4));
    let armed = Arc::new(AtomicBool::new(false));
    let layer = PanicOnHelper {
        name: "a".into(),
        armed: Arc::clone(&armed),
    };
    let a = net.add_layer(Box::new(layer), &[INPUT]).unwrap();
    let b = net
        .add_layer(Box::new(ReluLayer::new("b")), &[INPUT])
        .unwrap();
    net.add_layer(Box::new(ConcatLayer::new("cat")), &[a, b])
        .unwrap();
    let x = images(1, 2, 4, 0);
    let want = bits(net.forward_into(&x, &mut eager_arena(1)).unwrap());

    // Eight rows of four on two threads: the helper copies the second
    // half and panics once. The panic must reach this thread (not hang
    // the caller waiting for its helper), and the same arena must
    // serve the next passes.
    let mut arena = eager_arena(2);
    armed.store(true, Ordering::Relaxed);
    let mut panicked = 0;
    for _ in 0..5 {
        match panic::catch_unwind(AssertUnwindSafe(|| {
            net.forward_into(&x, &mut arena).map(bits)
        })) {
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(message.ends_with("on a helper"), "{message}");
                panicked += 1;
            }
            Ok(out) => assert_eq!(out.unwrap(), want),
        }
    }
    assert_eq!(panicked, 1, "the armed piece runs on the helper once");
    for _ in 0..3 {
        assert_eq!(bits(net.forward_into(&x, &mut arena).unwrap()), want);
    }
}

#[test]
fn a_failing_layer_returns_the_one_thread_error() {
    let _g = force_lock();
    // A softmax over a spatial input fails at forward time, after a
    // split conv has run.
    let net = chain(4, 8, 8);
    let mut bad = Network::new("bad", (4, 8, 8));
    bad.add_sequential(conv("c1", Conv2dParams::new(4, 8, 3, 1, 1), 1))
        .unwrap();
    bad.add_sequential(Box::new(SoftmaxLayer::new("boom")))
        .unwrap();
    let x = images(1, 4, 8, 1);
    let one = bad.forward_into(&x, &mut eager_arena(1)).unwrap_err();
    for threads in [2, 3] {
        let mut arena = eager_arena(threads);
        let before = splits();
        let split = bad.forward_into(&x, &mut arena).unwrap_err();
        assert!(splits() > before, "the conv must have split");
        assert_eq!(split, one, "team {threads}");
        // And the arena is fine afterwards.
        let want = bits(net.forward_into(&x, &mut eager_arena(1)).unwrap());
        assert_eq!(bits(net.forward_into(&x, &mut arena).unwrap()), want);
    }
}

#[test]
fn branches_split_and_engine_workers_do_not() {
    let _g = force_lock();

    // A branchy plan on a team that would split anything: the branches
    // run one after another on the caller, each splitting its kernels
    // (the conv by rows, the pool by planes; the concat never splits).
    let net = branchy();
    let x = images(1, 4, 8, 2);
    let want = bits(net.forward_into(&x, &mut eager_arena(1)).unwrap());
    let before = splits();
    let got = bits(net.forward_into(&x, &mut eager_arena(2)).unwrap());
    assert_eq!(got, want);
    assert!(splits() - before >= 3, "every branch's kernel splits");

    // A chain whose first conv (2.65 M MACs per image) clears the
    // default per-part minimum twice over: on its own it splits (given
    // a second core), inside engine workers it must not.
    let net = chain(16, 32, 24);
    let x = images(4, 16, 24, 3);
    dag::force(Some(DagMode::Auto));
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        let before = splits();
        net.forward_into(&images(1, 16, 24, 3), &mut ForwardArena::new())
            .unwrap();
        assert!(splits() > before, "auto on a multi-core host must split");
    }
    let before = splits();
    ParallelEngine::new(2).run_batched(&net, &x, 1).unwrap();
    assert_eq!(splits(), before, "an engine worker split under auto");
    dag::force(Some(DagMode::Off));
    let before = splits();
    net.forward_into(&x, &mut ForwardArena::new()).unwrap();
    assert_eq!(splits(), before, "dag=off is one thread per pass");
    dag::force(None);
}

#[test]
fn short_branchy_passes_alternate_with_chain_passes_on_one_arena() {
    let _g = force_lock();
    let nets = [branchy(), chain(4, 10, 8)];
    let inputs: Vec<Tensor4> = (1..=3).map(|n| images(n, 4, 8, n)).collect();
    let want: Vec<Vec<Vec<u32>>> = nets
        .iter()
        .map(|net| {
            inputs
                .iter()
                .map(|x| bits(net.forward_into(x, &mut eager_arena(1)).unwrap()))
                .collect()
        })
        .collect();
    let splits0 = splits();
    let mut arena = eager_arena(3);
    for pass in 0..600 {
        let (which, variant) = (pass % 2, (pass / 2) % 3);
        let got = bits(
            nets[which]
                .forward_into(&inputs[variant], &mut arena)
                .unwrap(),
        );
        assert!(
            got == want[which][variant],
            "pass {pass}: net {which} batch {}",
            variant + 1
        );
    }
    assert!(splits() - splits0 >= 600, "every pass splits");
}
