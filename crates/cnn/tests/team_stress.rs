//! Adversarial tests for the arena's worker team at the pass level: a
//! panic on a helper thread, a failing layer under a split, the places
//! a split must not happen (inside a DAG worker, inside a data-parallel
//! engine worker), and many short passes of both kinds through one
//! arena. The team's own primitives — every `unsafe` block and atomic
//! handoff in `cap_tensor::team` — are tested next to them, in that
//! module.
//!
//! `dag::force` is process-global and the `intra_op_splits` /
//! `dag_parallel_passes` counters are shared, so the tests serialize on
//! one mutex.

use cap_cnn::dag::{self, DagMode};
use cap_cnn::layer::{
    ChwShape, ConcatLayer, ConvLayer, InnerProductLayer, Layer, LayerKind, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_cnn::ParallelEngine;
use cap_tensor::init::xavier_uniform;
use cap_tensor::{Conv2dParams, Team, Tensor4, TensorResult, Workspace};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// An identity layer that panics once, when armed and run on a team
/// helper; on the calling thread it first waits a little, so with two
/// such branches ready the helper takes the other one.
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
        _ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let on_helper = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cap-team"));
        if on_helper && self.armed.swap(false, Ordering::Relaxed) {
            panic!("layer {} on a helper", self.name);
        }
        if !on_helper {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (n, c, h, w) = inputs[0].shape();
        out.resize(n, c, h, w);
        out.as_mut_slice().copy_from_slice(inputs[0].as_slice());
        Ok(())
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
    let triggers = [
        Arc::new(AtomicBool::new(true)),
        Arc::new(AtomicBool::new(true)),
    ];
    let arm = |name: &str, armed: &Arc<AtomicBool>| {
        Box::new(PanicOnHelper {
            name: name.into(),
            armed: Arc::clone(armed),
        })
    };
    let a = net.add_layer(arm("a", &triggers[0]), &[INPUT]).unwrap();
    let b = net.add_layer(arm("b", &triggers[1]), &[INPUT]).unwrap();
    net.add_layer(Box::new(ConcatLayer::new("cat")), &[a, b])
        .unwrap();
    let x = images(1, 2, 4, 0);
    let want = bits(net.forward_into(&x, &mut eager_arena(1)).unwrap());

    // Two branches on two threads: the helper runs one and panics. The
    // panic must reach this thread (not hang the caller's worker on the
    // ready queue), and the same arena must serve the next passes.
    let mut arena = eager_arena(2);
    let mut panicked = 0;
    for _ in 0..20 {
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
    assert!(panicked >= 1, "no branch ever ran on the helper");
    // Which branch the helper takes is a race, so one may still be
    // armed; disarm it, or a check below could meet its panic.
    for armed in &triggers {
        armed.store(false, Ordering::Relaxed);
    }
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
fn no_split_inside_a_dag_worker_or_an_engine_worker() {
    let _g = force_lock();
    let metrics = cap_obs::metrics();

    // A branchy plan on a team that would split anything: the team runs
    // the ready queue, and every step's kernels run inline.
    let net = branchy();
    let x = images(1, 4, 8, 2);
    let want = bits(net.forward_into(&x, &mut eager_arena(1)).unwrap());
    let (splits0, dag0) = (splits(), metrics.dag_parallel_passes.get());
    let got = bits(net.forward_into(&x, &mut eager_arena(2)).unwrap());
    assert_eq!(got, want);
    assert_eq!(metrics.dag_parallel_passes.get(), dag0 + 1);
    assert_eq!(splits(), splits0, "a DAG worker split a kernel");

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
    let metrics = cap_obs::metrics();
    let (splits0, dag0) = (splits(), metrics.dag_parallel_passes.get());
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
    assert_eq!(metrics.dag_parallel_passes.get() - dag0, 300);
    assert!(splits() - splits0 >= 300, "every chain pass splits");
}
