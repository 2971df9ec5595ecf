//! Data-parallel inference engine — measured multi-worker execution.
//!
//! The paper's cost model (Eqs. 1–4) assumes a batched workload divides
//! cleanly across GPUs and instances; [`crate::inference::run_batched`]
//! gave us the single-worker measurement. This module adds the parallel
//! counterpart: a [`ParallelEngine`] shards the *chunk sequence* of a
//! batched workload across the threads of its own persistent [`Team`]
//! (the worker-team type a [`ForwardArena`] splits kernels across), one
//! thread per worker with the caller as worker 0, so strong-scaling
//! efficiency can be measured rather than assumed, and fed back into
//! `cap-cloud`'s execution simulator as a calibrated efficiency curve.
//! The engine's passes each run on one thread: its team is the set of
//! threads they would otherwise stack on.
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
use cap_tensor::{team, Team, Tensor4, TensorResult};
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

/// A pooled state, or a new one whose passes run on one thread: the
/// engine's own team is the set of threads they would otherwise stack
/// on.
fn checkout(pool: &mut Vec<WorkerState>) -> WorkerState {
    pool.pop().unwrap_or_else(|| WorkerState {
        arena: ForwardArena::with_team(Team::new(1)),
        ..WorkerState::default()
    })
}

/// One worker's share of a run: its pooled state, its contiguous chunk
/// range (`first_chunk` on, `report.chunks` long), its disjoint slice
/// of the outputs and its report.
struct Share<'a> {
    state: WorkerState,
    first_chunk: usize,
    out: &'a mut [Vec<f32>],
    report: WorkerReport,
}

/// A fixed-width data-parallel executor for batched inference.
///
/// The engine owns no network — it is a reusable harness that runs any
/// [`Network`] over any image set. Worker state (chunk buffers and
/// [`ForwardArena`]s) is pooled inside the engine, so a long-lived
/// engine reaches the same zero-allocation steady state per worker that
/// the sequential driver reaches globally. So are the worker threads:
/// the engine builds its [`Team`] on the first run with chunks for more
/// than one worker and keeps it until it drops, so an engine used only
/// through [`ParallelEngine::run_chunk`] never spawns a thread. A run
/// holds the team for its whole length; a second run started
/// concurrently on the same engine waits for it.
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
    /// The workers' threads, built on the first run with chunks for
    /// more than one; held for the length of a run.
    team: Mutex<Option<Team>>,
    pool: Mutex<Vec<WorkerState>>,
}

impl ParallelEngine {
    /// An engine with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            team: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
        }
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
    /// Worker 0 runs on the calling thread and worker `w` on helper `w`
    /// of the engine's team — the same threads on every run — and
    /// recording tracers stamp each span with the reporting thread's
    /// [`cap_obs::current_tid`], so in a collected trace every worker's
    /// spans land on their own thread track, with the per-layer spans
    /// nested inside that worker's [`SpanScope::Worker`] span by time
    /// containment. The first error by worker order is returned; a
    /// worker's panic resurfaces here once every worker has finished.
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
        // A run that panicked poisoned this lock but left the team
        // whole: `run_pieces` returns only once every worker is done.
        let mut team = self.team.lock().unwrap_or_else(|e| e.into_inner());
        let mut active = self.workers.min(n_chunks);
        if active > 1 {
            // A team the OS gave fewer helpers runs fewer workers.
            active = active.min(
                team.get_or_insert_with(|| Team::new(self.workers))
                    .threads(),
            );
        }

        // Contiguous chunk ranges per active worker, balanced to within
        // one chunk (the first `n_chunks % active` workers take one
        // extra), each with its disjoint slice of the outputs (chunk
        // ranges are contiguous in image space).
        let mut outputs: Vec<Vec<f32>> = vec![Vec::new(); n];
        let mut shares = Vec::with_capacity(active);
        {
            let mut pool = self.pool();
            let mut rest: &mut [Vec<f32>] = &mut outputs;
            let mut c0 = 0;
            for worker in 0..active {
                let chunks = n_chunks / active + usize::from(worker < n_chunks % active);
                let (out, tail) = rest.split_at_mut(((c0 + chunks) * batch).min(n) - c0 * batch);
                rest = tail;
                shares.push(Share {
                    state: checkout(&mut pool),
                    first_chunk: c0,
                    out,
                    report: WorkerReport {
                        worker,
                        chunks,
                        images: 0,
                        busy_s: 0.0,
                    },
                });
                c0 += chunks;
            }
        }

        // A piece of `shares` is one worker's share on the team; all of
        // them (none or one) run here when there is no team to share.
        let run = |_: usize, piece: &mut [Share<'_>]| {
            piece.iter_mut().try_for_each(|share| {
                let (c0, report) = (share.first_chunk, &mut share.report);
                (report.images, report.busy_s) = run_chunk_range(
                    net,
                    images,
                    batch,
                    c0,
                    c0 + report.chunks,
                    &mut share.state,
                    share.out,
                    report.worker,
                    tracer,
                )?;
                Ok(())
            })
        };
        let start = Instant::now();
        let outcome = match team.as_mut() {
            Some(team) if active > 1 => team::run_pieces(team, active, &mut shares, 1, &run),
            _ => run(0, &mut shares),
        };
        let wall_s = start.elapsed().as_secs_f64();
        drop(team);

        let mut pool = self.pool();
        let mut workers: Vec<WorkerReport> = shares
            .into_iter()
            .map(|share| {
                pool.push(share.state);
                share.report
            })
            .collect();
        drop(pool);
        outcome?;
        // Idle workers (more workers than chunks) appear with zero work
        // so reports always have `self.workers` entries.
        workers.extend((active..self.workers).map(|worker| WorkerReport {
            worker,
            chunks: 0,
            images: 0,
            busy_s: 0.0,
        }));

        Ok((
            outputs,
            InferenceReport {
                throughput: ThroughputReport::over(n, batch, wall_s),
                workers,
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
    /// pool has seen the largest batch shape in flight. Like every pass
    /// the engine runs, this one runs on one thread, the caller's; it
    /// never builds the engine's team.
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
        let mut state = checkout(&mut self.pool());
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
