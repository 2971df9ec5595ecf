//! The network executor: a DAG of layers run as a sequence of stages,
//! with per-layer wall-clock timing.
//!
//! A [`Network`] is a directed acyclic graph of layers. Nodes are added in
//! topological order (each node may only reference earlier nodes or the
//! network input), which is how Caffe prototxts are written too.
//!
//! There is **one executor**: every entry point — [`Network::forward`],
//! [`Network::forward_timed`], [`Network::forward_into`],
//! [`Network::forward_into_traced`], [`Network::calibrate`] and
//! [`crate::DagExecutor`] — runs a cached plan of steps through
//! `exec_plan_step`, the only function that calls into a layer. The
//! entry points differ in their `Schedule` (which plan, how many
//! threads) and in what observes the pass: per-layer timing is a
//! [`Tracer`], calibration a per-step hook.
//!
//! The plan is cut into stages at the steps no dependency edge crosses.
//! A pass walks them in order with one thread count: a one-step stage
//! (a chain's every step; Googlenet's stem, concats and pools) runs on
//! the calling thread with the arena's worker team in its workspace,
//! so its kernel splits; a stage where branches run side by side (an
//! inception module) runs on the ready queue, one branch per worker.
//! `CAP_CNN_DAG=on` and [`crate::DagExecutor`] run the whole plan as one
//! stage on the ready queue.

use crate::dag::{self, DagMode};
use crate::fusion;
use crate::layer::{ChwShape, Layer, LayerKind};
use cap_obs::{CollectingTracer, NoopTracer, SpanInfo, SpanScope, Tracer};
use cap_tensor::{
    team, CalibrationMethod, Matrix, ShapeError, Team, Tensor4, TensorResult, Workspace,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Sentinel input reference: the network's input tensor.
pub const INPUT: NodeId = NodeId(usize::MAX);

struct Node {
    layer: Box<dyn Layer>,
    inputs: Vec<NodeId>,
    /// Per-image output shape and MACs, fixed when the node is added:
    /// both depend only on the layer's parameters and its input shapes,
    /// and `set_weights` rejects a weight matrix of a different shape.
    out_shape: ChwShape,
    macs: u64,
}

/// One unit of work in a fusion [`Plan`]: run node `node`, optionally
/// absorbing the ReLU node `fused_relu` into its kernel epilogue.
struct ExecStep {
    node: usize,
    fused_relu: Option<usize>,
}

/// A run of consecutive plan steps that executes as one unit: every
/// producer a step has outside its stage lies in an earlier one, so
/// once the stages before it are done, a stage needs nothing else.
struct Stage {
    steps: Range<usize>,
    /// Most steps of the stage sharing a dependency depth within it: 1
    /// for a single step (or a chain), 4 for a Googlenet inception
    /// module's branches.
    width: usize,
}

/// Cached execution schedule of a [`Network`].
///
/// Built once per `(network, fused?)` pair by pattern-matching
/// `conv → relu` / `fc → relu` chains; a fused ReLU node disappears as
/// a step and its output aliases its producer's arena slot
/// (`slot_of`), so the ReLU's own activation buffer is never sized —
/// the arena high-water mark drops by exactly those activations.
struct Plan {
    steps: Vec<ExecStep>,
    /// Arena slot holding node `i`'s output (fused ReLUs alias their
    /// producer's slot; every other node owns its own slot).
    slot_of: Vec<usize>,
    /// Number of fused producer→ReLU pairs, published to the
    /// `fused_layers` gauge.
    fused_count: u64,
    /// Step-level dependency graph: `succs[s]` lists the steps that
    /// consume step `s`'s output (deduplicated, ascending). Drives the
    /// DAG scheduler's indegree handoff.
    succs: Vec<Vec<usize>>,
    /// Initial indegree per step — the number of *distinct producer
    /// steps* it waits on (the network input counts as always-ready).
    indeg: Vec<u32>,
    /// The pass as a sequence of stages, cut at the steps no dependency
    /// edge crosses (see [`Plan::finalize`]).
    stages: Vec<Stage>,
    /// `indeg` counting only producers in the step's own stage: what a
    /// stage's ready queue waits on, once the earlier stages are done.
    stage_indeg: Vec<u32>,
    /// Maximum number of steps sharing a dependency depth: the branch
    /// parallelism of the whole plan as one stage. 1 for a pure chain,
    /// 4 for Googlenet (inside an inception module).
    width: usize,
    /// Largest per-image MAC count of any step: whether a chain pass
    /// has a kernel worth a worker team at all.
    max_macs: u64,
}

/// The most steps of the run `steps` that share a dependency depth,
/// counting only the `producers` inside the run.
fn depth_width(steps: Range<usize>, producers: &[Vec<usize>]) -> usize {
    let mut level = vec![0usize; steps.len()];
    let mut per_level = vec![0usize; steps.len()];
    for s in steps.clone() {
        let own = producers[s].iter().filter(|&&d| d >= steps.start);
        let l = own.map(|&d| level[d - steps.start] + 1).max().unwrap_or(0);
        level[s - steps.start] = l;
        per_level[l] += 1;
    }
    per_level.into_iter().max().unwrap_or(0)
}

impl Plan {
    /// Derive the step-level dependency graph (`succs`, `indeg`,
    /// `width`) from the chosen steps, and cut it into stages. A fused
    /// ReLU is *inside* its producer's step, so consumers of either
    /// node depend on that one step; duplicate edges (a concat reading
    /// one producer twice) collapse to a single indegree count.
    ///
    /// A *cut step* is one that no dependency edge crosses: nothing
    /// produced before it — the network input included — is read after
    /// it. Googlenet's cut steps are its stem, every inception concat,
    /// pool3, pool4 and the head. Each cut step is a stage of its own;
    /// the steps between two cuts form one stage, wide where branches
    /// run side by side.
    fn finalize(&mut self, nodes: &[Node]) {
        let n_steps = self.steps.len();
        // Node index → the step whose execution produces its output.
        let mut step_of_node = vec![0usize; nodes.len()];
        for (s, step) in self.steps.iter().enumerate() {
            step_of_node[step.node] = s;
            if let Some(r) = step.fused_relu {
                step_of_node[r] = s;
            }
        }
        self.succs = vec![Vec::new(); n_steps];
        self.indeg = vec![0u32; n_steps];
        let mut producers: Vec<Vec<usize>> = Vec::with_capacity(n_steps);
        // The last step that reads the network input.
        let mut input_read_until = 0;
        for (s, step) in self.steps.iter().enumerate() {
            let mut deps = Vec::new();
            for &inp in &nodes[step.node].inputs {
                if inp == INPUT {
                    input_read_until = s;
                } else {
                    deps.push(step_of_node[self.slot_of[inp.0]]);
                }
            }
            deps.sort_unstable();
            deps.dedup();
            for &d in &deps {
                self.succs[d].push(s);
                self.indeg[s] += 1;
            }
            producers.push(deps);
        }
        self.width = depth_width(0..n_steps, &producers);

        // `read_until`: the last step reading anything produced so far.
        let mut read_until = input_read_until;
        let mut start = 0;
        for s in 0..n_steps {
            if read_until <= s {
                if start < s {
                    self.stages.push(Stage {
                        steps: start..s,
                        width: depth_width(start..s, &producers),
                    });
                }
                self.stages.push(Stage {
                    steps: s..s + 1,
                    width: 1,
                });
                start = s + 1;
            }
            read_until = read_until.max(self.succs[s].last().copied().unwrap_or(s));
        }
        if start < n_steps {
            self.stages.push(Stage {
                steps: start..n_steps,
                width: depth_width(start..n_steps, &producers),
            });
        }
        self.stage_indeg = vec![0u32; n_steps];
        for stage in &self.stages {
            for s in stage.steps.clone() {
                let own = producers[s].iter().filter(|&&d| d >= stage.steps.start);
                self.stage_indeg[s] = own.count() as u32;
            }
        }
        self.max_macs = self
            .steps
            .iter()
            .map(|step| nodes[step.node].macs)
            .max()
            .unwrap_or(0);
    }
}

/// Shared mutable view of the arena's slot vector, handed to the DAG
/// scheduler's worker threads (and, for code unity, the sequential
/// loop).
///
/// Safety rests on three invariants, upheld by every user:
/// 1. the `Vec<Tensor4>` is pre-sized before the pointer is taken and
///    never resized while it is live (individual tensors may grow their
///    *own* heap buffers — that never moves the outer vector);
/// 2. each plan step is executed by exactly one thread, which is the
///    only writer of that step's slot, ever;
/// 3. a step runs only after all its producers' completion decrements
///    (`AcqRel` on the indegree atomics, or the queue mutex) — or, for
///    a producer in an earlier stage, after that stage's join — so
///    producer slots are fully written and quiescent when read.
#[derive(Clone, Copy)]
struct SlotsPtr {
    ptr: *mut Tensor4,
}

// SAFETY: see the struct docs — exclusive-writer and handoff-ordering
// invariants make cross-thread sharing of the raw pointer sound.
unsafe impl Send for SlotsPtr {}
unsafe impl Sync for SlotsPtr {}

/// Shared state of one stage on the ready queue: the queue plus the
/// indegree handoff counters. Lives in the [`ForwardArena`] and is
/// reset, not rebuilt, for every stage, so a queued stage allocates
/// nothing once the arena has seen its plan.
#[derive(Default)]
struct DagRun {
    /// Steps whose dependencies are all satisfied, awaiting a worker.
    queue: Mutex<VecDeque<usize>>,
    /// Signalled on every push, on abort, and when the stage completes.
    ready: Condvar,
    /// Per-step countdown of unfinished producers in the stage; the
    /// worker that decrements one to zero owns (or enqueues) that step.
    indeg: Vec<AtomicU32>,
    /// End of the stage's steps: successors from here on belong to
    /// later stages and are not released by this one.
    end: usize,
    /// Steps not yet completed; 0 means the stage is done.
    remaining: AtomicUsize,
    /// Set on the first kernel error or panic; workers drain and exit.
    abort: AtomicBool,
    /// The first error observed (kernel errors are all shape errors and
    /// deterministic, so "first" is stable in practice).
    failed: Mutex<Option<ShapeError>>,
    /// Queue round-trips, flushed to `dag_queue_pushes` once per stage.
    pushes: AtomicU64,
    /// Steps run via the chained fast path (a finishing worker directly
    /// executes the first successor it made ready), flushed to
    /// `dag_chained_steps`.
    chained: AtomicU64,
}

impl DagRun {
    /// Arm for `stage` of a plan of `n_steps` steps, whose countdowns
    /// start at `indeg`: the queue holds the stage's steps that wait on
    /// nothing inside it. Allocates only when the arena meets a plan
    /// with more steps.
    fn reset(&mut self, n_steps: usize, stage: &Stage, indeg: &[u32]) {
        if self.indeg.len() < n_steps {
            self.indeg.resize_with(n_steps, AtomicU32::default);
        }
        let steps = stage.steps.clone();
        for s in steps.clone() {
            *self.indeg[s].get_mut() = indeg[s];
        }
        self.end = steps.end;
        let queue = self.queue.get_mut().unwrap_or_else(PoisonError::into_inner);
        queue.clear();
        queue.reserve(n_steps);
        queue.extend(steps.filter(|&s| indeg[s] == 0));
        *self.pushes.get_mut() = queue.len() as u64;
        *self.chained.get_mut() = 0;
        *self.remaining.get_mut() = stage.steps.len();
        *self.abort.get_mut() = false;
        *self
            .failed
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<usize>> {
        // A worker that panicked holding the lock left a queue of step
        // indices, each valid; the pass is aborted anyway.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the first failure, stop every worker and wake the parked.
    fn abort(&self, error: Option<ShapeError>) {
        if let Some(e) = error {
            let mut failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
            failed.get_or_insert(e);
        }
        self.abort.store(true, Ordering::Release);
        drop(self.queue());
        self.ready.notify_all();
    }
}

/// How one pass uses the threads it gets.
#[derive(Clone, Copy)]
struct Layout {
    /// Threads every stage may use. A stage of width 1 runs its steps
    /// in order on the calling thread, with the arena's worker team in
    /// the workspace when this exceeds 1, so its kernels split; a wider
    /// stage runs on the ready queue with `min(threads, width)`
    /// workers, each running its steps' kernels inline.
    threads: usize,
    /// The whole plan is one stage on the ready queue, with `threads`
    /// workers even if that is one (`CAP_CNN_DAG=on`,
    /// [`crate::DagExecutor`]).
    queue_all: bool,
}

/// How one pass picks its plan and its scheduler — the only thing the
/// public entry points disagree on.
#[derive(Clone, Copy)]
enum Schedule {
    /// The process-wide fusion and DAG modes ([`Network::forward`],
    /// [`Network::forward_into`], [`Network::forward_into_traced`]).
    Knobs,
    /// Process-wide fusion mode, ready-queue scheduler forced with
    /// this worker cap ([`crate::DagExecutor`]).
    Dag(usize),
    /// One unfused step per node, in insertion order, on the calling
    /// thread — the measuring ([`Network::forward_timed`]) and
    /// calibrating ([`Network::calibrate`]) schedule: a fused step
    /// would blend a ReLU's time into its producer, and both want every
    /// node visited in a fixed order.
    PerNode,
}

/// Everything `exec_plan_step` needs besides the step index, shared by
/// the sequential loop and every DAG worker of one pass.
struct Pass<'a, T: Tracer> {
    plan: &'a Plan,
    input: &'a Tensor4,
    slots: SlotsPtr,
    tracer: &'a T,
    /// Some observability channel (tracer or timed metrics) is on:
    /// read the clock around each step.
    observing: bool,
    /// Timed metrics are on ([`cap_obs::timing_enabled`]).
    timing: bool,
    /// The calibration observer: show every layer its inputs
    /// ([`Layer::observe_input`]) before it runs.
    calibrate: Option<CalibrationMethod>,
}

/// Input refs `exec_plan_step` gathers on the stack for a multi-input
/// node; twice an inception module's four branches.
const STACK_INPUTS: usize = 8;

/// Span kind tag for a fused step: the producer's tag plus the ReLU it
/// absorbed, so profiles show `conv+relu` / `fc+relu` rows and the
/// per-layer report can mark them fused.
fn fused_kind_tag(kind: LayerKind) -> &'static str {
    match kind {
        LayerKind::Convolution => "conv+relu",
        LayerKind::InnerProduct => "fc+relu",
        _ => "fused+relu",
    }
}

/// Wall-clock duration attributed to one layer during a forward pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Layer kind tag (`conv`, `fc`, ...).
    pub kind: String,
    /// Duration of the layer's executor span: resolving its inputs
    /// plus `Layer::forward_into`.
    pub duration: Duration,
}

/// Result of a timed forward pass.
#[derive(Debug)]
pub struct ForwardRecord {
    /// Final output tensor (the last node's output).
    pub output: Tensor4,
    /// Per-layer durations in execution order.
    pub timings: Vec<LayerTiming>,
}

impl ForwardRecord {
    /// Total time across all layers.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Fraction of total time spent in each layer, in execution order.
    /// Returns `(name, kind, fraction)` triples; fractions sum to 1.
    pub fn time_distribution(&self) -> Vec<(String, String, f64)> {
        let total = self.total_time().as_secs_f64();
        self.timings
            .iter()
            .map(|t| {
                let f = if total > 0.0 {
                    t.duration.as_secs_f64() / total
                } else {
                    0.0
                };
                (t.name.clone(), t.kind.clone(), f)
            })
            .collect()
    }
}

/// Everything a forward pass writes, reused across passes: one
/// activation tensor per node (the last is the output), the calling
/// thread's kernel-scratch [`Workspace`], the worker [`Team`] a pass
/// with more than one thread runs on, and the DAG scheduler's queue.
///
/// After the first pass every buffer has reached its steady-state
/// high-water mark and subsequent passes (same batch size) allocate
/// nothing — on every schedule. The arena retains *all* activations of
/// a pass instead of freeing them after their last consumer, which is
/// the right call for the modest batch sizes batched inference uses.
/// Scratch belongs to the executing thread, not to a layer: the calling
/// thread lends every layer the same workspace, and each helper of the
/// team keeps its own, so scratch grows with the largest layer times
/// the thread count, not with the layer count.
///
/// The team is built on the first pass that wants more than one thread
/// and joined when the arena drops; how many threads a pass wants is
/// `CAP_CNN_DAG`'s call (`off`: one; `auto`: the host's cores, one
/// inside a [`crate::ParallelEngine`] worker) unless the arena was made
/// with [`ForwardArena::with_team`].
#[derive(Default)]
pub struct ForwardArena {
    slots: Vec<Tensor4>,
    /// The calling thread's scratch; `scratch.team` is the arena's
    /// worker team.
    scratch: Workspace,
    /// Threads of a [`ForwardArena::with_team`] arena, which every pass
    /// uses whatever the knob says.
    pinned: Option<usize>,
    /// Threads the team in `scratch` was asked for (it may hold fewer,
    /// if the OS refused a helper).
    team_asked: usize,
    dag: DagRun,
}

impl ForwardArena {
    /// Create an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose passes run on `team`: each gets
    /// `team.threads()` threads whatever `CAP_CNN_DAG` says — the ready
    /// queue in a stage where the plan branches, kernel splits in every
    /// other step. The explicit way to pick a pass's thread count, as
    /// [`crate::DagExecutor::new`] picks a DAG pass's worker count;
    /// [`Network::forward_timed`] and [`Network::calibrate`] stay on
    /// one thread regardless.
    ///
    /// ```
    /// use cap_cnn::layer::ConvLayer;
    /// use cap_cnn::network::{ForwardArena, Network};
    /// use cap_tensor::{init::xavier_uniform, Conv2dParams, Team, Tensor4};
    ///
    /// let mut net = Network::new("one-conv", (16, 32, 32));
    /// let p = Conv2dParams::new(16, 30, 3, 1, 1);
    /// let w = xavier_uniform(30, p.col_rows(), 1);
    /// net.add_sequential(Box::new(ConvLayer::new("conv", p, w, vec![0.1; 30]).unwrap()))
    ///     .unwrap();
    /// let x = Tensor4::from_fn(1, 16, 32, 32, |_, c, h, w| (c + h * w) as f32 / 99.0);
    ///
    /// let one = net.forward_into(&x, &mut ForwardArena::with_team(Team::new(1))).unwrap().clone();
    /// // 4.4 M multiply-accumulates: the 30 filters split by rows across
    /// // three threads.
    /// let mut arena = ForwardArena::with_team(Team::new(3));
    /// let three = net.forward_into(&x, &mut arena).unwrap();
    /// assert_eq!(three.as_slice(), one.as_slice()); // bitwise
    /// ```
    pub fn with_team(team: Team) -> Self {
        let threads = team.threads();
        let mut arena = Self {
            pinned: Some(threads),
            team_asked: threads,
            ..Self::default()
        };
        arena.scratch.team = Some(team);
        arena
    }

    /// Total bytes live across all activation slots (lower bound on what
    /// the arena retains; buffer capacity never shrinks below this).
    /// Scratch is counted apart, by [`ForwardArena::scratch_bytes`].
    pub fn reserved_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|t| std::mem::size_of_val(t.as_slice()))
            .sum()
    }

    /// Kernel-scratch bytes retained, all threads' workspaces summed.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.reserved_bytes()
    }

    /// Make sure the arena has a team for a pass that wants `threads`.
    /// The one there is stays if it has that many threads or more (a
    /// ready queue runs no more workers than its width, a split no more
    /// parts than it pays for), or if it was asked for that many and
    /// the OS gave it fewer; only a team asked for fewer is rebuilt.
    fn ensure_team(&mut self, threads: usize) {
        if let Some(team) = &self.scratch.team {
            if team.threads() >= threads || self.team_asked >= threads {
                return;
            }
        }
        self.scratch.team = Some(Team::new(threads));
        self.team_asked = threads;
    }
}

/// A CNN expressed as a DAG of layers with a single input and a single
/// output (the last node).
pub struct Network {
    name: String,
    input_shape: ChwShape,
    nodes: Vec<Node>,
    by_name: HashMap<String, NodeId>,
    /// Execution plans, `[unfused, fused]`, each built on first use and
    /// dropped whenever a layer is added.
    plans: [OnceLock<Plan>; 2],
}

impl Network {
    /// Create an empty network for per-image input shape `(c, h, w)`.
    pub fn new(name: impl Into<String>, input_shape: ChwShape) -> Self {
        Self {
            name: name.into(),
            input_shape,
            nodes: Vec::new(),
            by_name: HashMap::new(),
            plans: Default::default(),
        }
    }

    /// Network name (e.g. `caffenet`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-image input shape `(c, h, w)`.
    pub fn input_shape(&self) -> ChwShape {
        self.input_shape
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append a layer whose inputs are earlier nodes (or [`INPUT`]).
    ///
    /// Validates acyclicity (inputs must precede this node) and shape
    /// compatibility, and returns the new node's id.
    pub fn add_layer(&mut self, layer: Box<dyn Layer>, inputs: &[NodeId]) -> TensorResult<NodeId> {
        let id = NodeId(self.nodes.len());
        for &inp in inputs {
            if inp != INPUT && inp.0 >= id.0 {
                return Err(ShapeError::new(format!(
                    "network {}: node {} references later node {}",
                    self.name,
                    layer.name(),
                    inp.0
                )));
            }
        }
        if self.by_name.contains_key(layer.name()) {
            return Err(ShapeError::new(format!(
                "network {}: duplicate layer name {}",
                self.name,
                layer.name()
            )));
        }
        let in_shapes = self.resolve_shapes(inputs)?;
        let out_shape = layer.out_shape(&in_shapes)?;
        let macs = layer.macs_per_image(&in_shapes)?;
        self.by_name.insert(layer.name().to_string(), id);
        self.nodes.push(Node {
            layer,
            inputs: inputs.to_vec(),
            out_shape,
            macs,
        });
        // The plans are a function of the node list; rebuild lazily.
        self.plans = Default::default();
        Ok(id)
    }

    /// Append a layer consuming the previous node's output (or the network
    /// input if this is the first layer) — the common sequential case.
    pub fn add_sequential(&mut self, layer: Box<dyn Layer>) -> TensorResult<NodeId> {
        let prev = if self.nodes.is_empty() {
            INPUT
        } else {
            NodeId(self.nodes.len() - 1)
        };
        self.add_layer(layer, &[prev])
    }

    fn resolve_shapes(&self, inputs: &[NodeId]) -> TensorResult<Vec<ChwShape>> {
        inputs.iter().map(|&id| self.shape_of(id)).collect()
    }

    /// Per-image output shape of node `id` ([`INPUT`]: the input shape).
    pub fn shape_of(&self, id: NodeId) -> TensorResult<ChwShape> {
        if id == INPUT {
            return Ok(self.input_shape);
        }
        self.nodes.get(id.0).map(|n| n.out_shape).ok_or_else(|| {
            ShapeError::new(format!(
                "network {}: no node {} ({} nodes)",
                self.name,
                id.0,
                self.nodes.len()
            ))
        })
    }

    /// Per-image output shape of the network (last node).
    pub fn output_shape(&self) -> TensorResult<ChwShape> {
        Ok(self.nodes.last().map_or(self.input_shape, |n| n.out_shape))
    }

    /// Look up a node id by layer name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Immutable access to a layer by name.
    pub fn layer(&self, name: &str) -> Option<&dyn Layer> {
        self.node_id(name).map(|id| self.nodes[id.0].layer.as_ref())
    }

    /// Mutable access to a layer by name (used by pruning to swap weights).
    pub fn layer_mut(&mut self, name: &str) -> Option<&mut (dyn Layer + 'static)> {
        let id = self.node_id(name)?;
        Some(self.nodes[id.0].layer.as_mut())
    }

    /// Iterate layer names in execution order.
    pub fn layer_names(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(|n| n.layer.name())
    }

    /// Names of all layers of a given kind, in execution order. The paper
    /// prunes `kind == Convolution` layers only.
    pub fn layers_of_kind(&self, kind: LayerKind) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|n| n.layer.kind() == kind)
            .map(|n| n.layer.name().to_string())
            .collect()
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.param_count()).sum()
    }

    /// Total MACs per image, summed across layers.
    pub fn macs_per_image(&self) -> TensorResult<u64> {
        Ok(self.nodes.iter().map(|n| n.macs).sum())
    }

    /// Per-layer MACs per image, `(name, kind, macs)` in execution order.
    pub fn macs_by_layer(&self) -> TensorResult<Vec<(String, LayerKind, u64)>> {
        Ok(self
            .nodes
            .iter()
            .map(|n| (n.layer.name().to_string(), n.layer.kind(), n.macs))
            .collect())
    }

    /// Run a forward pass, returning only the output tensor.
    ///
    /// [`Network::forward_into`] through a throwaway arena: same plan,
    /// same knobs, same bits — for callers that run one pass and keep
    /// nothing.
    ///
    /// ```
    /// use cap_cnn::layer::{PoolLayer, PoolMode, ReluLayer};
    /// use cap_cnn::Network;
    /// use cap_tensor::Tensor4;
    ///
    /// // relu → 2×2 max-pool over a 4-channel 8×8 input.
    /// let mut net = Network::new("demo", (4, 8, 8));
    /// net.add_sequential(Box::new(ReluLayer::new("relu"))).unwrap();
    /// net.add_sequential(Box::new(PoolLayer::new("pool", PoolMode::Max, 2, 0, 2)))
    ///     .unwrap();
    ///
    /// let x = Tensor4::from_fn(2, 4, 8, 8, |n, c, h, w| (n + c + h + w) as f32 - 8.0);
    /// let y = net.forward(&x).unwrap();
    /// assert_eq!(y.shape(), (2, 4, 4, 4));
    /// assert!(y.as_slice().iter().all(|&v| v >= 0.0)); // ReLU ran
    /// ```
    pub fn forward(&self, input: &Tensor4) -> TensorResult<Tensor4> {
        let mut arena = ForwardArena::new();
        let slot = self.run_pass(input, &mut arena, &NoopTracer, Schedule::Knobs, None)?;
        Ok(arena.slots.swap_remove(slot))
    }

    /// Run a forward pass and record per-layer wall-clock durations —
    /// the measurement behind Figure 3.
    ///
    /// Always one unfused step per node, sequentially, whatever the
    /// fusion and DAG knobs say: this is the per-layer measurement
    /// instrument, and fusing would blend a ReLU's time into its
    /// producer. The timings are the executor's own layer spans.
    pub fn forward_timed(&self, input: &Tensor4) -> TensorResult<ForwardRecord> {
        let mut arena = ForwardArena::new();
        let tracer = CollectingTracer::new();
        let slot = self.run_pass(input, &mut arena, &tracer, Schedule::PerNode, None)?;
        let timings = tracer
            .take_spans()
            .into_iter()
            .filter(|span| span.scope == SpanScope::Layer)
            .map(|span| LayerTiming {
                name: span.name,
                kind: span.kind,
                duration: span.elapsed,
            })
            .collect();
        Ok(ForwardRecord {
            output: arena.slots.swap_remove(slot),
            timings,
        })
    }

    /// Run a forward pass through a reusable arena — the
    /// zero-allocation steady-state path behind batched inference.
    ///
    /// Returns a reference to the output tensor, which lives in the
    /// arena (clone it if it must outlive the next pass). Layers write
    /// into per-node tensors and draw scratch from per-thread
    /// workspaces, both retained across calls; repeat passes at a fixed
    /// batch size perform no heap allocation at all, on every schedule
    /// (the plan is built on the first pass and cached, the arena's
    /// worker team on the first pass that wants one, and the DAG
    /// scheduler's queue is the arena's).
    ///
    /// This entry point honors the graph-level fusion pass (see
    /// [`crate::fusion`]): under `CAP_TENSOR_FUSION=auto` (the default),
    /// eligible `conv → relu` / `fc → relu` chains execute as single
    /// fused steps, bitwise identical to the unfused schedule. It also
    /// honors `CAP_CNN_DAG` (see [`ForwardArena`]): a pass with more
    /// than one thread runs each stage where the plan branches on the
    /// ready queue and splits the large kernels of every other step
    /// across the arena's team — bitwise identical to one thread either
    /// way.
    pub fn forward_into<'a>(
        &self,
        input: &Tensor4,
        arena: &'a mut ForwardArena,
    ) -> TensorResult<&'a Tensor4> {
        self.forward_into_traced(input, arena, &NoopTracer)
    }

    /// [`Network::forward_into`] with observability hooks: one
    /// [`SpanScope::Layer`] span per executed step (tagged with the
    /// layer's name, kind tag and output NCHW shape) plus one enclosing
    /// [`SpanScope::Forward`] span, reported to `tracer`. A fused
    /// producer→ReLU pair is one step: its span carries the producer's
    /// name and a `conv+relu` / `fc+relu` kind tag, and the absorbed
    /// ReLU node emits no span of its own.
    ///
    /// Passing [`NoopTracer`] (what [`Network::forward_into`] does) is
    /// free: the monomorphized no-op path contains no clock reads and no
    /// allocation, preserving the zero-allocation steady state — the
    /// allocator-counting test in `tests/zero_alloc.rs` pins this down.
    /// Always-on metrics (`forward_passes`, `batch_sizes`,
    /// `arena_bytes` in [`cap_obs::metrics()`]) are single relaxed
    /// atomics; per-layer and whole-pass latency histograms fill only
    /// while [`cap_obs::timing_enabled()`] is on.
    ///
    /// ```
    /// use cap_cnn::layer::ReluLayer;
    /// use cap_cnn::network::{ForwardArena, Network};
    /// use cap_obs::{CollectingTracer, ProfileReport, SpanScope};
    /// use cap_tensor::Tensor4;
    ///
    /// let mut net = Network::new("demo", (1, 2, 2));
    /// net.add_sequential(Box::new(ReluLayer::new("relu"))).unwrap();
    ///
    /// let tracer = CollectingTracer::new();
    /// let mut arena = ForwardArena::new();
    /// let x = Tensor4::zeros(3, 1, 2, 2);
    /// net.forward_into_traced(&x, &mut arena, &tracer).unwrap();
    ///
    /// let spans = tracer.take_spans();
    /// assert_eq!(spans.iter().filter(|s| s.scope == SpanScope::Layer).count(), 1);
    /// assert_eq!(spans[0].name, "relu");
    /// assert_eq!(spans[0].shape, [3, 1, 2, 2]);
    /// let report = ProfileReport::from_spans("demo", &spans);
    /// assert_eq!(report.layers().len(), 1);
    /// ```
    pub fn forward_into_traced<'a, T: Tracer>(
        &self,
        input: &Tensor4,
        arena: &'a mut ForwardArena,
        tracer: &T,
    ) -> TensorResult<&'a Tensor4> {
        let slot = self.run_pass(input, arena, tracer, Schedule::Knobs, None)?;
        Ok(&arena.slots[slot])
    }

    /// [`crate::DagExecutor`] entry point: run the DAG-parallel
    /// scheduler unconditionally with an explicit worker-count cap,
    /// ignoring the process-wide [`DagMode`].
    pub(crate) fn forward_dag_traced<'a, T: Tracer>(
        &self,
        input: &Tensor4,
        arena: &'a mut ForwardArena,
        tracer: &T,
        workers: usize,
    ) -> TensorResult<&'a Tensor4> {
        let slot = self.run_pass(input, arena, tracer, Schedule::Dag(workers), None)?;
        Ok(&arena.slots[slot])
    }

    /// Activation-range calibration pass for the int8 execution path.
    ///
    /// Runs one forward pass over `input` (a representative calibration
    /// batch), handing every layer the activations it is about to
    /// consume via [`Layer::observe_input`] so weighted layers can
    /// derive and store their input-activation scale with `method`.
    /// Returns the pass's output tensor, so the caller can reuse it
    /// (e.g. to score the calibration batch). Like
    /// [`Network::forward_timed`] it visits every node unfused, in
    /// insertion order.
    ///
    /// Call this while the process precision is f32: the observed
    /// ranges are then exact. Calibrating under int8 still works — the
    /// layers observe the (approximate) int8-path activations — but
    /// adds quantization noise to the scales for no benefit. A network
    /// that is never calibrated remains correct on the int8 path; each
    /// weighted layer just falls back to a per-call max-abs estimate,
    /// trading a scan of its input for the missing calibration.
    pub fn calibrate(&self, input: &Tensor4, method: CalibrationMethod) -> TensorResult<Tensor4> {
        let mut arena = ForwardArena::new();
        let slot = self.run_pass(
            input,
            &mut arena,
            &NoopTracer,
            Schedule::PerNode,
            Some(method),
        )?;
        Ok(arena.slots.swap_remove(slot))
    }

    /// Input references of node `i` (possibly [`INPUT`]), in
    /// declaration order. The critical-path analyzer walks the DAG
    /// through this.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn inputs_of(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[i].inputs.iter().copied()
    }

    /// Build the execution schedule, fusing eligible chains iff `fuse`.
    ///
    /// A ReLU node `r` is fused into its producer `p` when the pair is
    /// adjacent in execution order (`r = p + 1`), `r`'s only input is
    /// `p`, `p` opts in via [`Layer::supports_relu_fusion`], and `p` is
    /// consumed by nothing but `r` — otherwise another consumer would
    /// observe pre-ReLU activations that no longer exist anywhere.
    fn build_plan(&self, fuse: bool) -> Plan {
        let n = self.nodes.len();
        let mut consumers = vec![0usize; n];
        for node in &self.nodes {
            for &inp in &node.inputs {
                if inp != INPUT {
                    consumers[inp.0] += 1;
                }
            }
        }
        let mut slot_of: Vec<usize> = (0..n).collect();
        let mut steps = Vec::with_capacity(n);
        let mut fused_count = 0u64;
        let mut i = 0;
        while i < n {
            let fusible = fuse && i + 1 < n && {
                let relu = &self.nodes[i + 1];
                relu.layer.kind() == LayerKind::Relu
                    && relu.inputs.as_slice() == [NodeId(i)]
                    && self.nodes[i].layer.supports_relu_fusion()
                    && consumers[i] == 1
            };
            if fusible {
                steps.push(ExecStep {
                    node: i,
                    fused_relu: Some(i + 1),
                });
                slot_of[i + 1] = i;
                fused_count += 1;
                i += 2;
            } else {
                steps.push(ExecStep {
                    node: i,
                    fused_relu: None,
                });
                i += 1;
            }
        }
        let mut plan = Plan {
            steps,
            slot_of,
            fused_count,
            succs: Vec::new(),
            indeg: Vec::new(),
            stages: Vec::new(),
            stage_indeg: Vec::new(),
            width: 0,
            max_macs: 0,
        };
        plan.finalize(&self.nodes);
        plan
    }

    /// Decide how many threads a pass gets and how it uses them.
    ///
    /// The count: the `schedule`'s own ([`crate::DagExecutor`]), the
    /// pinned team's ([`ForwardArena::with_team`]), or `CAP_CNN_DAG`'s
    /// — one under `off` or inside a data-parallel engine worker
    /// (stacking threads on the engine's would oversubscribe the host),
    /// the host's cores under `auto`. `on` forces the whole plan onto
    /// the ready queue with as many workers as the plan is wide, even
    /// one.
    ///
    /// Otherwise the pass walks its stages with that count — and with
    /// one thread when the plan never branches, the arena has no team
    /// yet and no step is big enough to split at this batch, so small
    /// chains never build one. A team already there is used; each
    /// kernel then decides for itself whether it splits.
    fn pass_layout(plan: &Plan, schedule: Schedule, arena: &ForwardArena, batch: usize) -> Layout {
        let width = plan.width.max(1);
        let queue_all = |workers: usize| Layout {
            threads: workers.clamp(1, width),
            queue_all: true,
        };
        let threads = match schedule {
            Schedule::PerNode => 1,
            Schedule::Dag(workers) => return queue_all(workers),
            Schedule::Knobs => match (arena.pinned, dag::selected()) {
                (Some(threads), _) => threads,
                (None, DagMode::Off) => 1,
                (None, DagMode::On) => return queue_all(dag::host_parallelism()),
                (None, DagMode::Auto) if dag::in_engine_worker() => 1,
                (None, DagMode::Auto) => dag::host_parallelism(),
            },
        };
        let uses_team = plan.width > 1
            || arena.scratch.team.is_some()
            || team::worth_a_team(threads, plan.max_macs.saturating_mul(batch as u64));
        Layout {
            threads: if uses_team { threads } else { 1 },
            queue_all: false,
        }
    }

    /// The one pass: validate the input, pick the plan and the layout
    /// `schedule` asks for, run every step through
    /// [`Network::exec_plan_step`], and return the arena slot holding
    /// the output.
    fn run_pass<T: Tracer>(
        &self,
        input: &Tensor4,
        arena: &mut ForwardArena,
        tracer: &T,
        schedule: Schedule,
        calibrate: Option<CalibrationMethod>,
    ) -> TensorResult<usize> {
        if input.c() != self.input_shape.0
            || input.h() != self.input_shape.1
            || input.w() != self.input_shape.2
        {
            return Err(ShapeError::new(format!(
                "network {}: input shape {:?}, expected {:?}",
                self.name,
                (input.c(), input.h(), input.w()),
                self.input_shape
            )));
        }
        let metrics = cap_obs::metrics();
        metrics.forward_passes.inc();
        metrics.batch_sizes.record(input.n() as u64);
        // One relaxed load; both observability channels off is the
        // common case and costs exactly this branch.
        let timing = cap_obs::timing_enabled();
        let observing = tracer.enabled() || timing;
        let pass_start = observing.then(Instant::now);

        let slots = self.nodes.len().max(1);
        if arena.slots.len() < slots {
            arena
                .slots
                .resize_with(slots, || Tensor4::zeros(0, 0, 0, 0));
        }
        if self.nodes.is_empty() {
            metrics.fused_layers.set(0);
            let (n, c, h, w) = input.shape();
            let out = &mut arena.slots[0];
            out.resize(n, c, h, w);
            out.as_mut_slice().copy_from_slice(input.as_slice());
            return Ok(0);
        }
        // Fused ReLU nodes are no steps of their own: their producer
        // runs `forward_into_fused` and their arena slot stays
        // zero-sized.
        let fuse = !matches!(schedule, Schedule::PerNode) && fusion::selected().enabled();
        let plan = self.plans[fuse as usize].get_or_init(|| self.build_plan(fuse));
        metrics.fused_layers.set(plan.fused_count);
        let layout = Self::pass_layout(plan, schedule, arena, input.n());
        let pass = Pass {
            plan,
            input,
            slots: SlotsPtr {
                ptr: arena.slots.as_mut_ptr(),
            },
            tracer,
            observing,
            timing,
            calibrate,
        };
        // A one-thread pass parks the team (if the arena has one) out of
        // the workspace, so no kernel splits.
        let parked = if layout.threads > 1 {
            arena.ensure_team(layout.threads);
            None
        } else {
            arena.scratch.team.take()
        };
        let whole = [Stage {
            steps: 0..plan.steps.len(),
            width: plan.width,
        }];
        let (stages, indeg) = if layout.queue_all {
            (&whole[..], &plan.indeg)
        } else {
            (&plan.stages[..], &plan.stage_indeg)
        };
        // The most ready-queue workers any stage ran with; 0 if none.
        let mut queued = 0;
        let outcome = stages.iter().try_for_each(|stage| {
            let workers = layout.threads.min(stage.width);
            if layout.queue_all || workers > 1 {
                queued = queued.max(workers);
                self.run_plan_dag(
                    &pass,
                    &mut arena.scratch,
                    &mut arena.dag,
                    stage,
                    indeg,
                    workers,
                )
            } else {
                // Contract of `exec_plan_step` holds trivially: one
                // thread runs the stage's steps, in topological order,
                // after every earlier stage, and nothing resizes the
                // slot vector.
                (stage.steps.clone())
                    .try_for_each(|s| self.exec_plan_step(&pass, s, &mut arena.scratch))
            }
        });
        if parked.is_some() {
            arena.scratch.team = parked;
        }
        metrics.dag_workers.set(queued as u64);
        if queued > 0 {
            metrics.dag_parallel_passes.inc();
        }
        outcome?;
        let out_slot = plan.slot_of[self.nodes.len() - 1];
        metrics
            .arena_bytes
            .record_max(arena.reserved_bytes() as u64);
        if let Some(t0) = pass_start {
            let elapsed = t0.elapsed();
            if timing {
                metrics
                    .forward_latency_us
                    .record(elapsed.as_micros() as u64);
            }
            if tracer.enabled() {
                let (n, c, h, w) = arena.slots[out_slot].shape();
                tracer.span_exit(
                    &SpanInfo {
                        scope: SpanScope::Forward,
                        name: &self.name,
                        kind: "",
                        shape: [n, c, h, w],
                        index: 0,
                    },
                    elapsed,
                );
            }
        }
        Ok(out_slot)
    }

    /// Execute plan step `s`: run its node's kernel (with the fused
    /// ReLU epilogue when planned, scratch from this thread's `ws`)
    /// into the step's arena slot, after
    /// the calibration observer if the pass has one, emitting the layer
    /// span/timing when observability is on. Identical code serves the
    /// sequential loop and every DAG worker — which is the mechanical
    /// reason scheduling cannot change output bits — and nothing else
    /// in this file calls into a layer's forward.
    ///
    /// Unchecked contract (callers): exclusive access to slot
    /// `plan.steps[s].node`, producer slots fully written and no longer
    /// mutated, arena slot vector not resized while `pass.slots` is
    /// live — see [`SlotsPtr`].
    fn exec_plan_step<T: Tracer>(
        &self,
        pass: &Pass<'_, T>,
        s: usize,
        ws: &mut Workspace,
    ) -> TensorResult<()> {
        let step = &pass.plan.steps[s];
        let i = step.node;
        let node = &self.nodes[i];
        let node_start = pass.observing.then(Instant::now);
        // SAFETY: slot `i` is this step's own (exclusive by contract).
        let out = unsafe { &mut *pass.slots.ptr.add(i) };
        let resolve = |id: NodeId| -> &Tensor4 {
            if id == INPUT {
                pass.input
            } else {
                // SAFETY: producer slots are fully written, quiescent,
                // and distinct from slot `i` (`slot_of[id] <= id < i`
                // by topological order).
                unsafe { &*pass.slots.ptr.add(pass.plan.slot_of[id.0]).cast_const() }
            }
        };
        let fused = step.fused_relu.is_some();
        let mut run = |inputs: &[&Tensor4]| -> TensorResult<()> {
            if let Some(method) = pass.calibrate {
                node.layer.observe_input(inputs, method);
            }
            if fused {
                node.layer.forward_into_fused(inputs, ws, out)
            } else {
                node.layer.forward_into(inputs, ws, out)
            }
        };
        // Input refs are gathered on the stack (an inception concat has
        // four), on the heap only past `STACK_INPUTS`.
        let ids = node.inputs.as_slice();
        if ids.len() <= STACK_INPUTS {
            let mut refs = [pass.input; STACK_INPUTS];
            for (r, &id) in refs.iter_mut().zip(ids) {
                *r = resolve(id);
            }
            run(&refs[..ids.len()])?
        } else {
            run(&ids.iter().map(|&id| resolve(id)).collect::<Vec<_>>())?
        }
        if let Some(t0) = node_start {
            let elapsed = t0.elapsed();
            let (n, c, h, w) = out.shape();
            if pass.timing {
                cap_obs::metrics()
                    .layer_time_us
                    .record(elapsed.as_micros() as u64);
            }
            if pass.tracer.enabled() {
                pass.tracer.span_exit(
                    &SpanInfo {
                        scope: SpanScope::Layer,
                        name: node.layer.name(),
                        kind: if fused {
                            fused_kind_tag(node.layer.kind())
                        } else {
                            node.layer.kind().tag()
                        },
                        shape: [n, c, h, w],
                        index: s,
                    },
                    elapsed,
                );
            }
        }
        Ok(())
    }

    /// Run `stage` on the ready-queue DAG scheduler with `workers`
    /// threads, its steps' countdowns starting at `indeg`: the calling
    /// thread with `ws` plus helpers of `ws`'s team, each with its own
    /// workspace. The team is lent out for the stage, so no step's
    /// kernel splits; one worker runs the queue on the calling thread
    /// alone.
    fn run_plan_dag<T: Tracer>(
        &self,
        pass: &Pass<'_, T>,
        ws: &mut Workspace,
        run: &mut DagRun,
        stage: &Stage,
        indeg: &[u32],
        workers: usize,
    ) -> TensorResult<()> {
        run.reset(pass.plan.steps.len(), stage, indeg);
        let run = &*run;
        // Not handed back if a step panicked: the team drops (joining
        // its idle helpers) and the next pass that wants one builds it.
        let mut team = ws.team.take();
        match team.as_mut() {
            Some(team) if workers > 1 => {
                let parts = workers.min(team.threads());
                team.run(parts, ws, &|_, ws| self.dag_worker_loop(pass, run, ws));
            }
            _ => self.dag_worker_loop(pass, run, ws),
        }
        ws.team = team;
        let metrics = cap_obs::metrics();
        metrics
            .dag_queue_pushes
            .add(run.pushes.load(Ordering::Relaxed));
        metrics
            .dag_chained_steps
            .add(run.chained.load(Ordering::Relaxed));
        if let Some(e) = run
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        debug_assert_eq!(run.remaining.load(Ordering::Acquire), 0);
        Ok(())
    }

    /// One DAG worker: pop ready steps, execute them with its own
    /// scratch, release their successors in the stage. Exits when the
    /// stage completes or aborts; a step's error or panic aborts it for
    /// every worker (the panic then resurfaces on the caller, see
    /// [`Team::run`]).
    fn dag_worker_loop<T: Tracer>(&self, pass: &Pass<'_, T>, run: &DagRun, ws: &mut Workspace) {
        let plan = pass.plan;
        loop {
            // Park until a step is ready, the stage is done, or aborted.
            let step = {
                let mut q = run.queue();
                loop {
                    if run.abort.load(Ordering::Acquire)
                        || run.remaining.load(Ordering::Acquire) == 0
                    {
                        return;
                    }
                    if let Some(s) = q.pop_front() {
                        break s;
                    }
                    q = run.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Chained fast path: after finishing a step, directly run
            // the first successor it made ready — the backbone chain of
            // a branchy net never round-trips through the queue.
            let mut next = Some(step);
            while let Some(s) = next.take() {
                if run.abort.load(Ordering::Relaxed) {
                    return;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| self.exec_plan_step(pass, s, ws))) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => return run.abort(Some(e)),
                    Err(payload) => {
                        run.abort(None);
                        panic::resume_unwind(payload);
                    }
                }
                // Handoff: the slot write above happens-before any
                // consumer via the AcqRel decrement chain (release
                // sequence) — or the queue mutex, on the push path. A
                // consumer in a later stage reads it after this stage's
                // join.
                let in_stage = plan.succs[s].iter().take_while(|&&t| t < run.end);
                for &succ in in_stage {
                    if run.indeg[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                        if next.is_none() {
                            run.chained.fetch_add(1, Ordering::Relaxed);
                            next = Some(succ);
                        } else {
                            run.queue().push_back(succ);
                            run.pushes.fetch_add(1, Ordering::Relaxed);
                            run.ready.notify_one();
                        }
                    }
                }
                if run.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last step of the stage: wake every parked worker.
                    // Taking the lock orders the decrement before their
                    // re-check, so no waiter can miss it.
                    drop(run.queue());
                    run.ready.notify_all();
                }
            }
        }
    }

    /// Replace the weights of layer `name` (pruning entry point).
    pub fn set_layer_weights(&mut self, name: &str, weights: Matrix) -> TensorResult<()> {
        match self.layer_mut(name) {
            Some(l) => l.set_weights(weights),
            None => Err(ShapeError::new(format!(
                "network {}: no layer named {}",
                self.name, name
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConcatLayer, ConvLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer};
    use cap_tensor::{init::xavier_uniform, Conv2dParams};

    fn tiny_sequential() -> Network {
        let mut net = Network::new("tiny", (3, 8, 8));
        let p = Conv2dParams::new(3, 4, 3, 1, 1);
        net.add_sequential(Box::new(
            ConvLayer::new("conv1", p, xavier_uniform(4, 27, 1), vec![0.0; 4]).unwrap(),
        ))
        .unwrap();
        net.add_sequential(Box::new(ReluLayer::new("relu1")))
            .unwrap();
        net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 2, 0, 2)))
            .unwrap();
        net
    }

    #[test]
    fn sequential_shapes_propagate() {
        let net = tiny_sequential();
        assert_eq!(net.output_shape().unwrap(), (4, 4, 4));
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn shape_of_unknown_node_is_an_error() {
        let net = tiny_sequential();
        assert_eq!(net.shape_of(NodeId(2)).unwrap(), (4, 4, 4));
        let err = net.shape_of(NodeId(3)).unwrap_err().to_string();
        assert!(err.contains("tiny") && err.contains("no node 3"), "{err}");
    }

    #[test]
    fn forward_produces_expected_shape() {
        let net = tiny_sequential();
        let x = Tensor4::from_fn(2, 3, 8, 8, |n, c, h, w| ((n + c + h + w) % 3) as f32 - 1.0);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), (2, 4, 4, 4));
    }

    #[test]
    fn forward_timed_records_all_layers() {
        let net = tiny_sequential();
        let x = Tensor4::zeros(1, 3, 8, 8);
        let rec = net.forward_timed(&x).unwrap();
        assert_eq!(rec.timings.len(), 3);
        assert_eq!(rec.timings[0].name, "conv1");
        assert_eq!(rec.timings[0].kind, "conv");
        let dist = rec.time_distribution();
        let total: f64 = dist.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// `(first step, steps, width)` of every stage of `net`'s plan.
    fn stages(net: &Network, fuse: bool) -> Vec<(usize, usize, usize)> {
        let plan = net.build_plan(fuse);
        let stage = |st: &Stage| (st.steps.start, st.steps.len(), st.width);
        plan.stages.iter().map(stage).collect()
    }

    #[test]
    fn a_chain_is_one_stage_per_step() {
        let net = tiny_sequential();
        assert_eq!(stages(&net, false), [(0, 1, 1), (1, 1, 1), (2, 1, 1)]);
        // The fused ReLU is inside conv1's step.
        assert_eq!(stages(&net, true), [(0, 1, 1), (1, 1, 1)]);
    }

    #[test]
    fn googlenet_is_cut_at_its_stem_concats_pools_and_head() {
        let net = crate::models::googlenet(crate::models::WeightInit::Zeros).unwrap();
        let stages = stages(&net, true);
        assert_eq!(stages.iter().map(|s| s.1).sum::<usize>(), 85);
        let (wide, single): (Vec<(usize, usize, usize)>, Vec<_>) =
            stages.iter().partition(|s| s.2 > 1);
        // Nine modules of seven branch steps, four wide; the 7-step
        // stem, nine concats, pool3, pool4 and the 4-step head alone.
        assert_eq!(wide.len(), 9);
        assert!(wide.iter().all(|s| s.1 == 7 && s.2 == 4), "{wide:?}");
        assert_eq!(single.len(), 22);
        assert!(single.iter().all(|s| s.1 == 1));
        assert_eq!(
            &stages[..8],
            &[
                (0, 1, 1),
                (1, 1, 1),
                (2, 1, 1),
                (3, 1, 1),
                (4, 1, 1),
                (5, 1, 1),
                (6, 1, 1),
                (7, 7, 4),
            ]
        );
    }

    #[test]
    fn a_branch_read_past_a_step_keeps_that_step_in_the_stage() {
        // a, b and c read the network input, so nothing before the
        // concat is a cut step: one three-step stage, two wide (a → ar
        // beside b). A skip edge around a chain (d → e → f, d also read
        // by g) keeps e and f in one stage of width 1.
        let mut net = Network::new("skips", (3, 4, 4));
        let p = Conv2dParams::new(3, 3, 1, 0, 1);
        let conv = |name: &str, seed| {
            let w = xavier_uniform(3, 3, seed);
            Box::new(ConvLayer::new(name, p, w, vec![0.0; 3]).unwrap())
        };
        let a = net.add_layer(conv("a", 1), &[INPUT]).unwrap();
        let ar = net.add_layer(Box::new(ReluLayer::new("ar")), &[a]).unwrap();
        let b = net.add_layer(conv("b", 2), &[INPUT]).unwrap();
        let cat = ConcatLayer::new("cat");
        let d = net.add_layer(Box::new(cat), &[ar, b]).unwrap();
        let e = net.add_layer(Box::new(ReluLayer::new("e")), &[d]).unwrap();
        let f = net.add_layer(Box::new(ReluLayer::new("f")), &[e]).unwrap();
        net.add_layer(Box::new(ConcatLayer::new("g")), &[d, f])
            .unwrap();
        assert_eq!(
            stages(&net, false),
            [(0, 3, 2), (3, 1, 1), (4, 2, 1), (6, 1, 1)]
        );
        let x = Tensor4::from_fn(1, 3, 4, 4, |_, c, h, w| (c + h * w) as f32 / 9.0 - 0.5);
        let one = net
            .forward_into(&x, &mut ForwardArena::with_team(Team::new(1)))
            .unwrap()
            .clone();
        let mut two = ForwardArena::with_team(Team::new(2));
        assert_eq!(
            net.forward_into(&x, &mut two).unwrap().as_slice(),
            one.as_slice()
        );
    }

    #[test]
    fn dag_with_concat_branches() {
        // input -> convA \
        //                  concat -> softmax-ready shape checks
        // input -> convB /
        let mut net = Network::new("branchy", (3, 4, 4));
        let p = Conv2dParams::new(3, 2, 1, 0, 1);
        let a = net
            .add_layer(
                Box::new(ConvLayer::new("a", p, xavier_uniform(2, 3, 2), vec![0.0; 2]).unwrap()),
                &[INPUT],
            )
            .unwrap();
        let b = net
            .add_layer(
                Box::new(ConvLayer::new("b", p, xavier_uniform(2, 3, 3), vec![0.0; 2]).unwrap()),
                &[INPUT],
            )
            .unwrap();
        net.add_layer(Box::new(ConcatLayer::new("cat")), &[a, b])
            .unwrap();
        assert_eq!(net.output_shape().unwrap(), (4, 4, 4));
        let x = Tensor4::from_fn(1, 3, 4, 4, |_, c, h, w| (c + h + w) as f32 * 0.1);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 4, 4, 4));
    }

    #[test]
    fn rejects_duplicate_names_and_forward_refs() {
        let mut net = Network::new("bad", (3, 4, 4));
        net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
        assert!(net.add_sequential(Box::new(ReluLayer::new("r"))).is_err());
        assert!(net
            .add_layer(Box::new(ReluLayer::new("r2")), &[NodeId(5)])
            .is_err());
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let net = tiny_sequential();
        let x = Tensor4::zeros(1, 3, 9, 9);
        assert!(net.forward(&x).is_err());
    }

    #[test]
    fn rejects_shape_incompatible_layer_at_add_time() {
        let mut net = Network::new("bad", (3, 4, 4));
        // Softmax needs 1x1 spatial but out_shape passes anything through;
        // use a conv with wrong in_channels instead.
        let p = Conv2dParams::new(5, 2, 1, 0, 1);
        let r = ConvLayer::new("c", p, xavier_uniform(2, 5, 4), vec![0.0; 2]).unwrap();
        assert!(net.add_sequential(Box::new(r)).is_err());
        // A softmax directly on spatial input is caught at forward time.
        let mut net2 = Network::new("s", (3, 1, 1));
        net2.add_sequential(Box::new(SoftmaxLayer::new("prob")))
            .unwrap();
        let y = net2.forward(&Tensor4::zeros(1, 3, 1, 1)).unwrap();
        assert_eq!(y.shape(), (1, 3, 1, 1));
    }

    #[test]
    fn set_layer_weights_by_name() {
        let mut net = tiny_sequential();
        let zeros = Matrix::zeros(4, 27);
        net.set_layer_weights("conv1", zeros).unwrap();
        assert_eq!(net.layer("conv1").unwrap().weight_sparsity(), 1.0);
        assert!(net.set_layer_weights("nope", Matrix::zeros(1, 1)).is_err());
        assert!(net.set_layer_weights("relu1", Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn layers_of_kind_filters() {
        let net = tiny_sequential();
        assert_eq!(net.layers_of_kind(LayerKind::Convolution), vec!["conv1"]);
        assert_eq!(net.layers_of_kind(LayerKind::Pooling), vec!["pool1"]);
    }

    #[test]
    fn macs_accounting() {
        let net = tiny_sequential();
        let by_layer = net.macs_by_layer().unwrap();
        assert_eq!(by_layer.len(), 3);
        // conv: 4 out * 8*8 spatial * 3 in * 9 taps.
        assert_eq!(by_layer[0].2, 4 * 64 * 27);
        assert_eq!(net.macs_per_image().unwrap(), 4 * 64 * 27);
    }
}
