//! The network executor: a DAG of layers run step by step in
//! topological order, with per-layer wall-clock timing.
//!
//! A [`Network`] is a directed acyclic graph of layers. Nodes are added in
//! topological order (each node may only reference earlier nodes or the
//! network input), which is how Caffe prototxts are written too.
//!
//! There is **one executor**: every entry point — [`Network::forward`],
//! [`Network::forward_timed`], [`Network::forward_into`],
//! [`Network::forward_into_traced`] and [`Network::calibrate`] — runs a
//! cached plan of steps through `exec_plan_step`, the only function
//! that calls into a layer. The entry points differ in their `Schedule`
//! (which plan, how many threads) and in what observes the pass:
//! per-layer timing is a [`Tracer`], calibration a per-step hook.
//!
//! A pass walks the plan's steps in order on the calling thread. With
//! more than one thread, the arena's worker team sits in the calling
//! thread's workspace, so every step's large kernels split across it
//! (a conv by bands, rows or panels, a batch-1 fc by columns, a pool
//! or LRN by planes); each step still runs once, in the same order, so
//! the thread count never changes output bits.

use crate::dag::{self, DagMode};
use crate::fusion;
use crate::layer::{ChwShape, Layer, LayerKind};
use cap_obs::{CollectingTracer, NoopTracer, SpanInfo, SpanScope, Tracer};
use cap_tensor::{
    team, CalibrationMethod, Matrix, ShapeError, Team, Tensor4, TensorResult, Workspace,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;
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

/// Cached execution schedule of a [`Network`].
///
/// Built once per `(network, fused?)` pair by pattern-matching
/// `conv → relu` / `fc → relu` chains; a fused ReLU node disappears as
/// a step and its output aliases its producer's arena slot
/// (`slot_of`), so the ReLU's own activation buffer is never sized.
///
/// Arena slots are assigned by liveness: a step writes a slot whose
/// value no later step reads — never one of its own inputs — and a
/// slot is free again after the last step that reads its value, except
/// the network output's, which is never reused. So the arena holds as
/// many activations as are live at once, not one per node.
struct Plan {
    steps: Vec<ExecStep>,
    /// Arena slot holding node `i`'s output once its step has run, until
    /// the last step that reads it (fused ReLUs share their producer's).
    slot_of: Vec<usize>,
    /// Slots the plan uses: what a [`ForwardArena`] holds.
    slot_count: usize,
    /// Number of fused producer→ReLU pairs, published to the
    /// `fused_layers` gauge.
    fused_count: u64,
    /// Largest per-image MAC count of any step: whether a pass has a
    /// kernel worth a worker team at all.
    max_macs: u64,
}

/// One step of a plan as the arena sees it ([`Network::plan_slots`]).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSlots {
    /// The node whose output the step leaves in `writes`: the node it
    /// runs, or the ReLU fused into it.
    pub value: NodeId,
    /// The slot the step writes.
    pub writes: usize,
    /// Each input node and the slot the step reads it from (`None`:
    /// the network input).
    pub reads: Vec<(NodeId, Option<usize>)>,
}

/// How one pass picks its plan and its thread count — the only thing
/// the public entry points disagree on.
#[derive(Clone, Copy)]
enum Schedule {
    /// The process-wide fusion and thread modes ([`Network::forward`],
    /// [`Network::forward_into`], [`Network::forward_into_traced`]).
    Knobs,
    /// One unfused step per node, in insertion order, on the calling
    /// thread — the measuring ([`Network::forward_timed`]) and
    /// calibrating ([`Network::calibrate`]) schedule: a fused step
    /// would blend a ReLU's time into its producer, and both want every
    /// node visited in a fixed order.
    PerNode,
}

/// Everything `exec_plan_step` needs besides the step index and the
/// buffers it writes.
struct Pass<'a, T: Tracer> {
    plan: &'a Plan,
    input: &'a Tensor4,
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

/// Everything a forward pass writes, reused across passes: the
/// activation slots of the plan (each holds one node's output from its
/// step until the last step that reads it, then the next node's the
/// plan assigns it — so a slot grows to the largest activation it
/// carries, and the arena to the activations live at once, not to
/// every node's), the calling thread's kernel-scratch [`Workspace`]
/// and the worker [`Team`] a pass with more than one thread splits its
/// kernels across.
///
/// After the first pass every buffer has reached its steady-state
/// high-water mark and subsequent passes (same batch size) allocate
/// nothing — on every schedule. Scratch belongs to the executing
/// thread, not to a layer: the calling
/// thread lends every layer the same workspace, and each helper of the
/// team keeps its own, so scratch grows with the largest layer times
/// the thread count, not with the layer count.
///
/// The team is built on the first pass that wants more than one thread
/// and joined when the arena drops; how many threads a pass wants is
/// `CAP_CNN_DAG`'s call (`off`: one; `auto`: the host's cores) unless
/// the arena was made with [`ForwardArena::with_team`] — as every
/// [`crate::ParallelEngine`] worker's is, on one thread.
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
}

impl ForwardArena {
    /// Create an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose passes run on `team`: each gets
    /// `team.threads()` threads whatever `CAP_CNN_DAG` says, its steps
    /// walked in order with their kernels split. The explicit way to
    /// pick a pass's thread count (the parity tests and the `dagpar`
    /// experiment pin theirs this way); [`Network::forward_timed`] and
    /// [`Network::calibrate`] stay on one thread regardless.
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

    /// Bytes the activation slots retain: capacities, not lengths — a
    /// reused slot's last tensor can be smaller than the largest it
    /// carried, and its buffer keeps that size. Scratch is counted
    /// apart, by [`ForwardArena::scratch_bytes`].
    pub fn reserved_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|t| t.capacity() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Kernel-scratch bytes retained, all threads' workspaces summed.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.reserved_bytes()
    }

    /// Make sure the arena has a team for a pass that wants `threads`.
    /// The one there is stays if it has that many threads or more (a
    /// split runs no more parts than it pays for), or if it was asked
    /// for that many and the OS gave it fewer; only a team asked for
    /// fewer is rebuilt.
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
    /// into the plan's liveness slots and draw scratch from per-thread
    /// workspaces, both retained across calls; repeat passes at a fixed
    /// batch size perform no heap allocation at all, on every schedule
    /// (the plan is built on the first pass and cached, the arena's
    /// worker team on the first pass that wants one).
    ///
    /// This entry point honors the graph-level fusion pass (see
    /// [`crate::fusion`]): under `CAP_TENSOR_FUSION=auto` (the default),
    /// eligible `conv → relu` / `fc → relu` chains execute as single
    /// fused steps, bitwise identical to the unfused schedule. It also
    /// honors `CAP_CNN_DAG` (see [`ForwardArena`]): a pass with more
    /// than one thread splits the large kernels of its steps across the
    /// arena's team — bitwise identical to one thread either way.
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

    /// Build the execution schedule, fusing eligible chains iff `fuse`.
    ///
    /// A ReLU node `r` is fused into its producer `p` when the pair is
    /// adjacent in execution order (`r = p + 1`), `r`'s only input is
    /// `p`, `p` opts in via [`Layer::supports_relu_fusion`], and `p` is
    /// consumed by nothing but `r` — otherwise another consumer would
    /// observe pre-ReLU activations that no longer exist anywhere.
    ///
    /// Then each step gets its output slot by liveness (see [`Plan`]),
    /// best fit by per-image size: the smallest free slot that already
    /// holds as much, else the largest free one (it grows), else a new
    /// one.
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
        let max_macs = steps
            .iter()
            .map(|step| self.nodes[step.node].macs)
            .max()
            .unwrap_or(0);
        let slot_count = self.assign_slots(&steps, &mut slot_of);
        Plan {
            steps,
            slot_of,
            slot_count,
            fused_count,
            max_macs,
        }
    }

    /// Give every step of `steps` its output slot by liveness, writing
    /// it to `slot_of` for the step's node and its fused ReLU; returns
    /// the slot count.
    fn assign_slots(&self, steps: &[ExecStep], slot_of: &mut [usize]) -> usize {
        let n = self.nodes.len();
        // The last step that reads each node's value (`None`: no step).
        let mut last_read: Vec<Option<usize>> = vec![None; n];
        for (s, step) in steps.iter().enumerate() {
            for &id in &self.nodes[step.node].inputs {
                if id != INPUT {
                    last_read[id.0] = Some(s);
                }
            }
        }
        let output = n.checked_sub(1);
        // Per-image elements each slot has carried, and which are free.
        let mut sizes: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        // Slots whose value's last reader is step `s`, freed after it.
        let mut frees_after: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
        for (s, step) in steps.iter().enumerate() {
            let value = step.fused_relu.unwrap_or(step.node);
            let (c, h, w) = self.nodes[value].out_shape;
            let need = c * h * w;
            let fits = free
                .iter()
                .enumerate()
                .filter(|&(_, &k)| sizes[k] >= need)
                .min_by_key(|&(_, &k)| sizes[k]);
            let largest = free.iter().enumerate().max_by_key(|&(_, &k)| sizes[k]);
            let slot = match fits.or(largest) {
                Some((at, &k)) => {
                    free.swap_remove(at);
                    k
                }
                None => {
                    sizes.push(0);
                    sizes.len() - 1
                }
            };
            sizes[slot] = sizes[slot].max(need);
            slot_of[step.node] = slot;
            slot_of[value] = slot;
            // A value nothing reads is dead once written; the output
            // never is.
            if Some(value) != output {
                frees_after[last_read[value].unwrap_or(s)].push(slot);
            }
            free.append(&mut frees_after[s]);
        }
        sizes.len()
    }

    /// The arena slots of this network's plan (`fused`: the plan with
    /// `conv → relu` / `fc → relu` fused, as [`Network::forward_into`]
    /// runs under `CAP_TENSOR_FUSION=auto`; else one step per node) —
    /// for a checker that the slots never clobber a value still to be
    /// read.
    #[doc(hidden)]
    pub fn plan_slots(&self, fused: bool) -> Vec<StepSlots> {
        let plan = self.build_plan(fused);
        plan.steps
            .iter()
            .map(|step| StepSlots {
                value: NodeId(step.fused_relu.unwrap_or(step.node)),
                writes: plan.slot_of[step.node],
                reads: self.nodes[step.node]
                    .inputs
                    .iter()
                    .map(|&id| (id, (id != INPUT).then(|| plan.slot_of[id.0])))
                    .collect(),
            })
            .collect()
    }

    /// Decide how many threads a pass may split its kernels across.
    ///
    /// The count: the pinned team's ([`ForwardArena::with_team`]; one
    /// in a data-parallel engine worker's arena) or `CAP_CNN_DAG`'s —
    /// one under `off`, the host's cores under `auto`.
    ///
    /// The pass gets that count — or one thread when the arena has no
    /// team yet and no step is big enough to split at this batch, so
    /// small nets never build one. A team already there is used; each
    /// kernel then decides for itself whether it splits.
    fn pass_threads(plan: &Plan, schedule: Schedule, arena: &ForwardArena, batch: usize) -> usize {
        let threads = match schedule {
            Schedule::PerNode => 1,
            Schedule::Knobs => match (arena.pinned, dag::selected()) {
                (Some(threads), _) => threads,
                (None, DagMode::Off) => 1,
                (None, DagMode::Auto) => dag::host_parallelism(),
            },
        };
        let uses_team = arena.scratch.team.is_some()
            || team::worth_a_team(threads, plan.max_macs.saturating_mul(batch as u64));
        if uses_team {
            threads
        } else {
            1
        }
    }

    /// The one pass: validate the input, pick the plan and the thread
    /// count `schedule` asks for, run every step in order on the calling
    /// thread through [`Network::exec_plan_step`] (its kernels split
    /// across the arena's team when the pass has more than one thread),
    /// and return the arena slot holding the output.
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

        if self.nodes.is_empty() {
            metrics.fused_layers.set(0);
            if arena.slots.is_empty() {
                arena.slots.push(Tensor4::default());
            }
            let (n, c, h, w) = input.shape();
            let out = &mut arena.slots[0];
            out.resize(n, c, h, w);
            out.as_mut_slice().copy_from_slice(input.as_slice());
            return Ok(0);
        }
        // Fused ReLU nodes are no steps of their own: their producer
        // runs `forward_into_fused` into its slot, which the ReLU's
        // readers read.
        let fuse = !matches!(schedule, Schedule::PerNode) && fusion::selected().enabled();
        let plan = self.plans[fuse as usize].get_or_init(|| self.build_plan(fuse));
        if arena.slots.len() < plan.slot_count {
            arena.slots.resize_with(plan.slot_count, Tensor4::default);
        }
        metrics.fused_layers.set(plan.fused_count);
        let threads = Self::pass_threads(plan, schedule, arena, input.n());
        let pass = Pass {
            plan,
            input,
            tracer,
            observing,
            timing,
            calibrate,
        };
        // A one-thread pass parks the team (if the arena has one) out of
        // the workspace, so no kernel splits.
        let parked = if threads > 1 {
            arena.ensure_team(threads);
            None
        } else {
            arena.scratch.team.take()
        };
        let outcome = (0..plan.steps.len())
            .try_for_each(|s| self.exec_plan_step(&pass, s, &mut arena.slots, &mut arena.scratch));
        if parked.is_some() {
            arena.scratch.team = parked;
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
    /// ReLU epilogue when planned, scratch and team from `ws`) into the
    /// step's arena slot, after the calibration observer if the pass
    /// has one, emitting the layer span/timing when observability is
    /// on. Nothing else in this file calls into a layer's forward.
    ///
    /// The step's output tensor is taken out of its slot for the run
    /// and put back after it — a move of the tensor, not of its buffer —
    /// so its inputs are read from the other slots meanwhile: the plan
    /// never gives a step one of its own inputs' slots.
    fn exec_plan_step<T: Tracer>(
        &self,
        pass: &Pass<'_, T>,
        s: usize,
        slots: &mut [Tensor4],
        ws: &mut Workspace,
    ) -> TensorResult<()> {
        let node_start = pass.observing.then(Instant::now);
        let slot = pass.plan.slot_of[pass.plan.steps[s].node];
        let mut out = std::mem::take(&mut slots[slot]);
        let outcome = self.run_step(pass, s, slots, ws, &mut out, node_start);
        slots[slot] = out;
        outcome
    }

    /// The body of [`Network::exec_plan_step`] once the step's output
    /// tensor `out` is out of its slot.
    fn run_step<T: Tracer>(
        &self,
        pass: &Pass<'_, T>,
        s: usize,
        slots: &[Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
        node_start: Option<Instant>,
    ) -> TensorResult<()> {
        let step = &pass.plan.steps[s];
        let node = &self.nodes[step.node];
        let resolve = |id: NodeId| -> &Tensor4 {
            if id == INPUT {
                pass.input
            } else {
                &slots[pass.plan.slot_of[id.0]]
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

    #[test]
    fn a_fused_relu_is_inside_its_producers_step() {
        let net = tiny_sequential();
        assert_eq!(net.build_plan(false).steps.len(), 3);
        assert_eq!(net.build_plan(true).steps.len(), 2);
        let googlenet = crate::models::googlenet(crate::models::WeightInit::Zeros).unwrap();
        assert_eq!(googlenet.build_plan(true).steps.len(), 85);
    }

    #[test]
    fn a_skip_edge_net_matches_one_thread_on_two() {
        // a and b read the network input and a concat joins them; a
        // skip edge around a chain (d → e → f, d also read by g) reads
        // a slot several steps back.
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
        let x = Tensor4::from_fn(1, 3, 4, 4, |_, c, h, w| (c + h * w) as f32 / 9.0 - 0.5);
        let one = net
            .forward_into(&x, &mut ForwardArena::with_team(Team::new(1)))
            .unwrap()
            .clone();
        let mut two = ForwardArena::with_team(Team::new(2).with_min_part_macs(0));
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
