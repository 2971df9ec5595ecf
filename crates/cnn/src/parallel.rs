//! Data-parallel inference engine — measured multi-worker execution.
//!
//! The paper's cost model (Eqs. 1–4) assumes a batched workload divides
//! cleanly across GPUs and instances; [`crate::inference::run_batched`]
//! gave us the single-worker measurement. This module adds the parallel
//! counterpart: a [`ParallelEngine`] shards the *chunk sequence* of a
//! batched workload across one scoped OS thread per worker
//! (`std::thread::scope`), so strong-scaling efficiency can be measured
//! rather than assumed, and fed back into `cap-cloud`'s execution
//! simulator as a calibrated efficiency curve.
//!
//! # Determinism
//!
//! Output ordering and *values* are bitwise-identical to the sequential
//! path: `run_batched` is this module's chunk loop (`run_chunk_range`)
//! over every chunk on the calling thread, so both cut the same
//! `batch`-sized chunks (trailing partial chunk as-is). The engine
//! assigns each worker a contiguous run of chunks, and every output
//! image is written by exactly one worker into its own disjoint slice
//! of the result. Per-worker state — the staging chunk tensor and
//! the [`ForwardArena`] — is checked out of an engine-owned pool, so
//! workers share no mutable state and repeat runs reuse the grown
//! buffers (the zero-allocation steady state of the sequential path,
//! times the worker count).
//!
//! The bitwise-equality claim is demonstrated in the
//! [`ParallelEngine::run_batched`] doctest and verified property-based
//! in `crates/cnn/tests/parallel_parity.rs`, with the sequential
//! arena-vs-allocating half covered by `crates/cnn/tests/arena_parity.rs`.

use crate::inference::ThroughputReport;
use crate::network::{ForwardArena, Network};
use cap_obs::{NoopTracer, SpanInfo, SpanScope, Tracer};
use cap_tensor::{Tensor4, TensorResult};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Wall-clock account of one worker's share of a parallel run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker index in `0..engine.workers()`.
    pub worker: usize,
    /// Chunks (forward passes) this worker executed.
    pub chunks: usize,
    /// Images this worker produced outputs for.
    pub images: usize,
    /// Seconds the worker spent inside its chunk loop.
    pub busy_s: f64,
}

/// Merged result of a parallel batched run: the overall throughput plus
/// the per-worker breakdown it was assembled from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Whole-run throughput, directly comparable with the report
    /// returned by [`crate::inference::run_batched`].
    pub throughput: ThroughputReport,
    /// One entry per engine worker, including idle workers (zero chunks)
    /// when there were more workers than chunks.
    pub workers: Vec<WorkerReport>,
}

impl InferenceReport {
    /// Fraction of total worker-seconds actually spent computing:
    /// `Σ busy / (wall · workers)`. 1.0 is perfect strong scaling; the
    /// gap to 1.0 is load imbalance plus spawn/join overhead.
    pub fn parallel_efficiency(&self) -> f64 {
        let wall = self.throughput.wall_s;
        if wall <= 0.0 || self.workers.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_s).sum();
        (busy / (wall * self.workers.len() as f64)).min(1.0)
    }

    /// The critical-path worker time (slowest worker's busy seconds).
    pub fn critical_path_s(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_s).fold(0.0, f64::max)
    }
}

/// Per-worker reusable state: the staging chunk and the arena
/// (activations and kernel scratch).
pub(crate) struct WorkerState {
    chunk: Tensor4,
    arena: ForwardArena,
}

impl Default for WorkerState {
    fn default() -> Self {
        Self {
            chunk: Tensor4::zeros(0, 0, 0, 0),
            arena: ForwardArena::new(),
        }
    }
}

/// A fixed-width data-parallel executor for batched inference.
///
/// The engine owns no network — it is a reusable harness that runs any
/// [`Network`] over any image set. Worker state (chunk buffers and
/// [`ForwardArena`]s) is pooled inside the engine, so a long-lived
/// engine reaches the same zero-allocation steady state per worker that
/// the sequential driver reaches globally.
///
/// ```
/// use cap_cnn::layer::ReluLayer;
/// use cap_cnn::{run_batched, Network, ParallelEngine};
/// use cap_tensor::Tensor4;
///
/// let mut net = Network::new("id", (2, 4, 4));
/// net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
/// let images = Tensor4::from_fn(5, 2, 4, 4, |n, c, h, w| (n + c + h + w) as f32 - 4.0);
///
/// let engine = ParallelEngine::new(2);
/// let (par, report) = engine.run_batched(&net, &images, 2).unwrap();
/// let (seq, _) = run_batched(&net, &images, 2).unwrap();
/// assert_eq!(par, seq); // bitwise-identical, in order
/// assert_eq!(report.workers.len(), 2);
/// ```
pub struct ParallelEngine {
    workers: usize,
    pool: Mutex<Vec<WorkerState>>,
}

impl ParallelEngine {
    /// An engine with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// An engine sized to the host's available hardware parallelism.
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn pool(&self) -> MutexGuard<'_, Vec<WorkerState>> {
        // A `WorkerState` is buffers a pass overwrites from the start;
        // no panic can leave the list itself half-updated.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run inference over `images` in batches of `batch`, sharded across
    /// the engine's workers.
    ///
    /// Returns per-image outputs in input order — bitwise-identical to
    /// [`crate::inference::run_batched`] on the same network, images and
    /// batch size — plus an [`InferenceReport`] merging the whole-run
    /// throughput with per-worker timing. The doctest below demonstrates
    /// the bitwise equality; the property-based suites in
    /// `crates/cnn/tests/parallel_parity.rs` (engine vs sequential
    /// driver, arbitrary shapes/batches/worker counts) and
    /// `crates/cnn/tests/arena_parity.rs` (arena path vs the allocating
    /// path) pin it down across the input space.
    ///
    /// ```
    /// use cap_cnn::layer::ReluLayer;
    /// use cap_cnn::{run_batched, Network, ParallelEngine};
    /// use cap_tensor::Tensor4;
    ///
    /// let mut net = Network::new("id", (1, 3, 3));
    /// net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
    /// let images = Tensor4::from_fn(7, 1, 3, 3, |n, _, h, w| (n + h * w) as f32 - 3.5);
    ///
    /// let (seq, _) = run_batched(&net, &images, 3).unwrap();
    /// for workers in 1..=4 {
    ///     let (par, _) = ParallelEngine::new(workers).run_batched(&net, &images, 3).unwrap();
    ///     assert_eq!(par, seq); // bitwise equal, not approximately equal
    /// }
    /// ```
    pub fn run_batched(
        &self,
        net: &Network,
        images: &Tensor4,
        batch: usize,
    ) -> TensorResult<(Vec<Vec<f32>>, InferenceReport)> {
        self.run_batched_traced(net, images, batch, &NoopTracer)
    }

    /// [`ParallelEngine::run_batched`] with observability hooks: every
    /// worker reports one [`SpanScope::Worker`] span covering its chunk
    /// loop (`index` = worker id, `shape` = `[images, chunks, batch, 0]`),
    /// and each forward pass inside the worker emits the usual per-layer
    /// spans via [`Network::forward_into_traced`] — all into the shared
    /// `tracer`, which therefore must tolerate concurrent reporting (a
    /// [`cap_obs::CollectingTracer`] does).
    ///
    /// Workers run on fresh OS threads (one scoped thread per worker),
    /// and recording tracers stamp each span with the
    /// reporting thread's [`cap_obs::current_tid`] — so in a collected
    /// trace every worker's spans land on their own thread track, with
    /// the per-layer spans nested inside that worker's
    /// [`SpanScope::Worker`] span by time containment.
    ///
    /// With [`NoopTracer`] this is exactly [`ParallelEngine::run_batched`]:
    /// the no-op instrumentation monomorphizes away.
    pub fn run_batched_traced<T: Tracer>(
        &self,
        net: &Network,
        images: &Tensor4,
        batch: usize,
        tracer: &T,
    ) -> TensorResult<(Vec<Vec<f32>>, InferenceReport)> {
        let n = images.n();
        let batch = batch.max(1);
        let n_chunks = n.div_ceil(batch);
        let active = self.workers.min(n_chunks);

        // Contiguous chunk ranges per active worker, balanced to within
        // one chunk: the first `n_chunks % active` workers take one extra.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(active);
        if let (Some(per), Some(extra)) =
            (n_chunks.checked_div(active), n_chunks.checked_rem(active))
        {
            let mut c = 0;
            for w in 0..active {
                let take = per + usize::from(w < extra);
                ranges.push((c, c + take));
                c += take;
            }
        }

        let mut outputs: Vec<Vec<f32>> = vec![Vec::new(); n];
        // Disjoint per-worker output slices (chunk ranges are contiguous
        // in image space).
        let mut parts: Vec<&mut [Vec<f32>]> = Vec::with_capacity(active);
        let mut rest: &mut [Vec<f32>] = &mut outputs;
        for &(c0, c1) in &ranges {
            let img_span = (c1 * batch).min(n) - c0 * batch;
            let (head, tail) = rest.split_at_mut(img_span);
            parts.push(head);
            rest = tail;
        }

        let states: Vec<WorkerState> = {
            let mut pool = self.pool();
            (0..active)
                .map(|_| pool.pop().unwrap_or_default())
                .collect()
        };

        let start = Instant::now();
        let joined: Vec<(WorkerState, TensorResult<(usize, f64)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .zip(states)
                .zip(&ranges)
                .enumerate()
                .map(|(w, ((out_slice, mut state), &(c0, c1)))| {
                    s.spawn(move || {
                        // `DagMode::Auto` keeps this thread's passes on
                        // one thread instead of stacking a worker team
                        // on the engine's.
                        let _dag_guard = crate::dag::EngineWorkerGuard::enter();
                        let r = run_chunk_range(
                            net, images, batch, c0, c1, &mut state, out_slice, w, tracer,
                        );
                        (state, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut worker_reports = Vec::with_capacity(self.workers);
        let mut first_err = None;
        {
            let mut pool = self.pool();
            for (w, (state, outcome)) in joined.into_iter().enumerate() {
                pool.push(state);
                match outcome {
                    Ok((images_done, busy_s)) => worker_reports.push(WorkerReport {
                        worker: w,
                        chunks: ranges[w].1 - ranges[w].0,
                        images: images_done,
                        busy_s,
                    }),
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Idle workers (more workers than chunks) appear with zero work
        // so reports always have `self.workers` entries.
        for w in active..self.workers {
            worker_reports.push(WorkerReport {
                worker: w,
                chunks: 0,
                images: 0,
                busy_s: 0.0,
            });
        }

        Ok((
            outputs,
            InferenceReport {
                throughput: ThroughputReport::over(n, batch, wall_s),
                workers: worker_reports,
            },
        ))
    }

    /// Serving hand-off: execute one already-formed batch (`chunk` is
    /// the batch, images along `n`) and return its per-image outputs.
    ///
    /// This is the entry point the `cap-serve` router dispatches
    /// through: the router owns batch formation (queues, deadlines,
    /// admission), the engine owns execution. The call checks out one
    /// pooled `WorkerState` — sharing the same arena pool as
    /// [`ParallelEngine::run_batched`] — so a long-lived serving
    /// process reaches the usual zero-allocation steady state once the
    /// pool has seen the largest batch shape in flight.
    ///
    /// Outputs are bitwise-identical to running the same images through
    /// [`crate::inference::run_batched`] in any batch grouping (the
    /// repo-wide batching-invariance contract); the serving parity test
    /// in `crates/serve/tests/serve_parity.rs` pins this down
    /// end-to-end.
    ///
    /// ```
    /// use cap_cnn::layer::ReluLayer;
    /// use cap_cnn::{run_batched, Network, ParallelEngine};
    /// use cap_tensor::Tensor4;
    ///
    /// let mut net = Network::new("id", (1, 3, 3));
    /// net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
    /// let batch = Tensor4::from_fn(4, 1, 3, 3, |n, _, h, w| (n + h * w) as f32 - 3.5);
    ///
    /// let engine = ParallelEngine::new(2);
    /// let out = engine.run_chunk(&net, &batch).unwrap();
    /// let (seq, _) = run_batched(&net, &batch, 4).unwrap();
    /// assert_eq!(out, seq);
    /// ```
    pub fn run_chunk(&self, net: &Network, chunk: &Tensor4) -> TensorResult<Vec<Vec<f32>>> {
        let mut state = self.pool().pop().unwrap_or_default();
        let result = match net.forward_into(chunk, &mut state.arena) {
            Ok(y) => Ok((0..chunk.n()).map(|j| y.image(j).to_vec()).collect()),
            Err(e) => Err(e),
        };
        self.pool().push(state);
        result
    }
}

/// The chunk loop, of one engine worker or of
/// [`crate::inference::run_batched`]: execute chunks `c0..c1`, writing
/// per-image outputs into `out` (indexed relative to the range's first
/// image). Reports one [`SpanScope::Worker`] span covering the whole
/// loop to `tracer`; returns the images done and the seconds it took.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk_range<T: Tracer>(
    net: &Network,
    images: &Tensor4,
    batch: usize,
    c0: usize,
    c1: usize,
    state: &mut WorkerState,
    out: &mut [Vec<f32>],
    worker: usize,
    tracer: &T,
) -> TensorResult<(usize, f64)> {
    let n = images.n();
    let (c, h, w) = (images.c(), images.h(), images.w());
    let base = c0 * batch;
    let busy = Instant::now();
    let mut images_done = 0usize;
    for chunk_idx in c0..c1 {
        let i = chunk_idx * batch;
        let take = batch.min(n - i);
        state.chunk.resize(take, c, h, w);
        for j in 0..take {
            state
                .chunk
                .image_mut(j)
                .copy_from_slice(images.image(i + j));
        }
        let y = net.forward_into_traced(&state.chunk, &mut state.arena, tracer)?;
        for j in 0..take {
            out[i - base + j] = y.image(j).to_vec();
        }
        images_done += take;
    }
    let elapsed = busy.elapsed();
    if tracer.enabled() {
        tracer.span_exit(
            &SpanInfo {
                scope: SpanScope::Worker,
                name: "worker",
                kind: "",
                shape: [images_done, c1 - c0, batch, 0],
                index: worker,
            },
            elapsed,
        );
    }
    Ok((images_done, elapsed.as_secs_f64()))
}

/// Measured strong-scaling profile: run the same `batch`-sized workload
/// under each worker count and report `(workers, images_per_s)`.
///
/// This is the engine-side measurement that calibrates
/// `cap-cloud`'s efficiency curve (`EfficiencyCurve::fit` over the
/// returned series): the simulator's per-GPU ideal split is replaced by
/// the sub-linear speedup actually observed here. Protocol per §3.3 of
/// the paper: warm-up run at the measured configuration, then three
/// timed runs keeping the fastest.
pub fn strong_scaling(
    net: &Network,
    images: &Tensor4,
    batch: usize,
    worker_counts: &[usize],
) -> TensorResult<Vec<(usize, f64)>> {
    worker_counts
        .iter()
        .map(|&wc| {
            let engine = ParallelEngine::new(wc);
            // Warm-up faults weights in and grows the per-worker arenas.
            let _ = engine.run_batched(net, images, batch)?;
            let mut best = 0.0_f64;
            for _ in 0..3 {
                let (_, report) = engine.run_batched(net, images, batch)?;
                best = best.max(report.throughput.images_per_s);
            }
            Ok((wc, best))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::run_batched;
    use crate::layer::{ConvLayer, PoolLayer, PoolMode, ReluLayer};
    use cap_tensor::{init::xavier_uniform, Conv2dParams};

    fn small_net() -> Network {
        let mut net = Network::new("t", (2, 8, 8));
        let p = Conv2dParams::new(2, 4, 3, 1, 1);
        net.add_sequential(Box::new(
            ConvLayer::new("c1", p, xavier_uniform(4, 18, 3), vec![0.0; 4]).unwrap(),
        ))
        .unwrap();
        net.add_sequential(Box::new(ReluLayer::new("r1"))).unwrap();
        net.add_sequential(Box::new(PoolLayer::new("p1", PoolMode::Max, 2, 0, 2)))
            .unwrap();
        net
    }

    fn images(n: usize) -> Tensor4 {
        Tensor4::from_fn(n, 2, 8, 8, |i, c, h, w| {
            ((i * 5 + c * 3 + h + w) % 7) as f32 - 3.0
        })
    }

    #[test]
    fn matches_sequential_bitwise() {
        let net = small_net();
        let imgs = images(10);
        let (seq, _) = run_batched(&net, &imgs, 3).unwrap();
        for workers in [1, 2, 3, 4] {
            let engine = ParallelEngine::new(workers);
            let (par, _) = engine.run_batched(&net, &imgs, 3).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn report_accounts_every_chunk_and_image() {
        let net = small_net();
        let imgs = images(11);
        let engine = ParallelEngine::new(3);
        let (out, report) = engine.run_batched(&net, &imgs, 2).unwrap();
        assert_eq!(out.len(), 11);
        assert_eq!(report.workers.len(), 3);
        let chunks: usize = report.workers.iter().map(|w| w.chunks).sum();
        let images: usize = report.workers.iter().map(|w| w.images).sum();
        assert_eq!(chunks, 6); // ceil(11/2)
        assert_eq!(images, 11);
        assert!(report.throughput.images_per_s > 0.0);
        let eff = report.parallel_efficiency();
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
        assert!(report.critical_path_s() <= report.throughput.wall_s * 1.5);
    }

    #[test]
    fn more_workers_than_images_still_exact() {
        let net = small_net();
        let imgs = images(2);
        let (seq, _) = run_batched(&net, &imgs, 1).unwrap();
        let engine = ParallelEngine::new(8);
        let (par, report) = engine.run_batched(&net, &imgs, 1).unwrap();
        assert_eq!(par, seq);
        assert_eq!(report.workers.len(), 8);
        assert_eq!(report.workers.iter().filter(|w| w.chunks > 0).count(), 2);
    }

    #[test]
    fn zero_images_is_empty_run() {
        let net = small_net();
        let imgs = images(0);
        let engine = ParallelEngine::new(4);
        let (out, report) = engine.run_batched(&net, &imgs, 4).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.throughput.images, 0);
        assert!(report.workers.iter().all(|w| w.chunks == 0));
    }

    #[test]
    fn engine_state_pool_recycles_across_runs() {
        let net = small_net();
        let imgs = images(8);
        let engine = ParallelEngine::new(2);
        let (a, _) = engine.run_batched(&net, &imgs, 2).unwrap();
        // Second run draws the same worker states back out of the pool.
        let (b, _) = engine.run_batched(&net, &imgs, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.pool().len(), 2);
    }

    #[test]
    fn wrong_input_shape_propagates_error() {
        let net = small_net();
        let bad = Tensor4::zeros(4, 3, 8, 8);
        let engine = ParallelEngine::new(2);
        assert!(engine.run_batched(&net, &bad, 2).is_err());
    }

    #[test]
    fn strong_scaling_reports_all_counts() {
        let net = small_net();
        let imgs = images(12);
        let series = strong_scaling(&net, &imgs, 4, &[1, 2]).unwrap();
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|&(_, r)| r > 0.0));
    }
}
