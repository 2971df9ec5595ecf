//! Every call into a `cap_*` crate lives in this one file.
//!
//! The rest of the benchmark sees only the plain types defined here, so
//! when the execution surface is collapsed (ROADMAP item 3) this is the
//! one file that has to follow. Each wrapper uses the narrowest public
//! entry point that does the job:
//!
//! * `cnn`: `Network::{forward_into, forward_into_traced, calibrate}`,
//!   `ParallelEngine::{run_batched, run_batched_traced, run_chunk}`,
//!   the `caffenet` / `googlenet` builders;
//! * `pruning`: `apply_to_network` with the calibrated all-conv knees;
//! * `serve`: `fleet::pruned_tenant`, `generate_trace`,
//!   `Router::{new, serve_trace, serve_trace_traced}`;
//! * `tensor`: `PackedB::pack` / `gemm_prepacked`,
//!   `CsrMatrix::{from_dense, matmul_dense_into}`, `gemm_i8`,
//!   `quantize_rows_into`, `pack_b_i8_into`, `im2col_packed_prealloc`;
//! * `obs`: the `Tracer` trait (implemented for the benchmark's span
//!   recorder) and two counters of the metrics registry.

use crate::inputs::SplitMix64;
use crate::spans::{Recorder, Scope};
use cap_cnn::models::{caffenet, googlenet, WeightInit};
use cap_cnn::{ForwardArena, Network, ParallelEngine};
use cap_obs::{SpanInfo, SpanScope, Tracer};
use cap_pruning::{apply_to_network, caffenet_profile, PruneAlgorithm};
use cap_serve::{
    fleet, generate_trace, ArrivalEvent, ArrivalPattern, Router, RouterConfig, ServiceModel,
    TenantConfig,
};
use cap_tensor::{
    gemm_i8, gemm_prepacked, im2col_packed_prealloc, pack_b_i8_into, precision, quantize_rows_into,
    CalibrationMethod, CsrMatrix, Epilogue, Matrix, PackedB, Precision, Tensor4,
};
use std::time::Duration;

/// Why an adapter call failed (the program's own error text).
pub type CallError = String;

fn err<E: std::fmt::Display>(e: E) -> CallError {
    e.to_string()
}

// ------------------------------------------------------------------ run knobs

/// The knob values this process resolved to, for the run header.
#[derive(Debug, Clone)]
pub struct Modes {
    pub kernel_path: &'static str,
    pub fusion: &'static str,
    pub dag: &'static str,
    pub precision: &'static str,
}

pub fn resolved_modes() -> Modes {
    Modes {
        kernel_path: cap_tensor::kernels::selected().name(),
        fusion: cap_cnn::fusion::selected().name(),
        dag: cap_cnn::dag::selected().name(),
        precision: precision::selected().name(),
    }
}

/// Run `f` with weighted layers pinned to f32, then hand the choice back
/// to the environment. Used by the int8 workload for calibration and for
/// its f32 reference outputs, as `Network::calibrate` documents.
pub fn with_f32<R>(f: impl FnOnce() -> R) -> R {
    precision::force(Some(Precision::F32));
    let r = f();
    precision::force(None);
    r
}

/// Registry counters the traced run reads as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounters {
    pub forward_passes: u64,
    pub dag_parallel_passes: u64,
}

pub fn exec_counters() -> ExecCounters {
    let m = cap_obs::metrics();
    ExecCounters {
        forward_passes: m.forward_passes.get(),
        dag_parallel_passes: m.dag_parallel_passes.get(),
    }
}

// --------------------------------------------------------------------- tracer

impl Tracer for Recorder {
    fn span_exit(&self, info: &SpanInfo<'_>, elapsed: Duration) {
        let scope = match info.scope {
            SpanScope::Forward => Scope::Forward,
            SpanScope::Layer => Scope::Layer,
            SpanScope::Worker => Scope::Worker,
            // Grid / allocation spans belong to `core`, which has no
            // workload here; nothing the benchmark calls emits them.
            _ => return,
        };
        self.finished(scope, info.name, info.kind, elapsed, cap_obs::current_tid());
    }

    fn span_at(&self, info: &SpanInfo<'_>, start: Duration, elapsed: Duration, track: u64) {
        self.virtual_span(info.scope.tag(), start, elapsed, track);
    }
}

// --------------------------------------------------------------------- images

/// A batch of NCHW images.
pub struct Images(Tensor4);

impl Images {
    pub fn from_data(n: usize, chw: (usize, usize, usize), data: Vec<f32>) -> Self {
        Self(Tensor4::from_vec(n, chw.0, chw.1, chw.2, data).expect("n*c*h*w values generated"))
    }

    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Image `i` as a batch of one.
    pub fn single(&self, i: usize) -> Images {
        let (_, c, h, w) = self.0.shape();
        Self::from_data(1, (c, h, w), self.0.image(i).to_vec())
    }

    /// Images `i0..i1` as their own batch.
    pub fn range(&self, i0: usize, i1: usize) -> Images {
        let (_, c, h, w) = self.0.shape();
        let data = (i0..i1)
            .flat_map(|i| self.0.image(i).iter().copied())
            .collect();
        Self::from_data(i1 - i0, (c, h, w), data)
    }

    pub fn as_slice(&self) -> &[f32] {
        self.0.as_slice()
    }
}

// -------------------------------------------------------------------- network

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Caffenet,
    Googlenet,
}

pub struct Net(Network);

/// Activation arena reused across passes.
#[derive(Default)]
pub struct Arena(ForwardArena);

impl Arena {
    pub fn reserved_bytes(&self) -> usize {
        self.0.reserved_bytes()
    }
}

/// What pruning did, for the `pruning.*` rows.
#[derive(Debug, Clone, Copy)]
pub struct PruneOutcome {
    /// Mean non-zero share over the pruned conv layers.
    pub conv_density_mean: f64,
}

impl Net {
    /// Build a full model with Xavier weights from `weight_seed`. Xavier
    /// rather than the Caffe Gaussian keeps activations at unit scale
    /// through all eight layers, so the correctness checks (softmax rows,
    /// int8-vs-f32 agreement) compare real signals, not underflow.
    pub fn build(model: Model, weight_seed: u64) -> Result<Self, CallError> {
        let init = WeightInit::Xavier { seed: weight_seed };
        match model {
            Model::Caffenet => caffenet(init),
            Model::Googlenet => googlenet(init),
        }
        .map(Net)
        .map_err(err)
    }

    pub fn input_chw(&self) -> (usize, usize, usize) {
        self.0.input_shape()
    }

    /// L1 filter pruning at the calibrated profile's per-layer knees
    /// (conv1 at 30 %, conv2-5 at 50 %: the paper's Fig. 8 "all-conv").
    pub fn prune_caffenet_all_conv_knees(&mut self) -> Result<PruneOutcome, CallError> {
        let spec = caffenet_profile().all_knees_spec();
        let achieved =
            apply_to_network(&mut self.0, &spec, PruneAlgorithm::FilterL1).map_err(err)?;
        let n = achieved.len().max(1) as f64;
        Ok(PruneOutcome {
            conv_density_mean: achieved.iter().map(|(_, s)| 1.0 - s).sum::<f64>() / n,
        })
    }

    /// Freeze int8 activation scales from one max-abs calibration pass.
    pub fn calibrate_max_abs(&self, images: &Images) -> Result<(), CallError> {
        self.0
            .calibrate(&images.0, CalibrationMethod::MaxAbs)
            .map(|_| ())
            .map_err(err)
    }

    /// One untraced forward pass; the output lives in `arena`.
    pub fn forward<'a>(
        &self,
        images: &Images,
        arena: &'a mut Arena,
    ) -> Result<&'a [f32], CallError> {
        self.0
            .forward_into(&images.0, &mut arena.0)
            .map(|t| t.as_slice())
            .map_err(err)
    }

    /// The same pass with the recorder as tracer.
    pub fn forward_traced<'a>(
        &self,
        images: &Images,
        arena: &'a mut Arena,
        rec: &Recorder,
    ) -> Result<&'a [f32], CallError> {
        self.0
            .forward_into_traced(&images.0, &mut arena.0, rec)
            .map(|t| t.as_slice())
            .map_err(err)
    }
}

// --------------------------------------------------------------------- engine

pub struct Engine(ParallelEngine);

impl Engine {
    pub fn new(workers: usize) -> Self {
        Self(ParallelEngine::new(workers))
    }

    pub fn run_batched(
        &self,
        net: &Net,
        images: &Images,
        batch: usize,
        rec: Option<&Recorder>,
    ) -> Result<Vec<Vec<f32>>, CallError> {
        match rec {
            None => self.0.run_batched(&net.0, &images.0, batch),
            Some(rec) => self.0.run_batched_traced(&net.0, &images.0, batch, rec),
        }
        .map(|(outputs, _report)| outputs)
        .map_err(err)
    }

    /// The serving hand-off: one already-formed batch.
    pub fn run_chunk(&self, net: &Net, chunk: &Images) -> Result<Vec<Vec<f32>>, CallError> {
        self.0.run_chunk(&net.0, &chunk.0).map_err(err)
    }
}

// -------------------------------------------------------------------- serving

/// Number of tenants in the shipped demo fleet.
pub const FLEET_TENANTS: usize = 3;
/// Input shape of the demo CNN every tenant serves.
pub const DEMO_CHW: (usize, usize, usize) = (3, 16, 16);

const FLEET: [(&str, f64); FLEET_TENANTS] =
    [("dense", 0.0), ("pruned-60", 0.6), ("pruned-90", 0.9)];

/// Tenant `index` of the fleet: the demo CNN dense / 60 % / 90 % pruned,
/// weights seeded per tenant.
fn fleet_tenant(index: usize, weight_seed: u64) -> (TenantConfig, Network) {
    let (name, ratio) = FLEET[index];
    fleet::pruned_tenant(name, weight_seed.wrapping_add(index as u64), ratio)
}

/// One tenant's network on its own, with the service model the router
/// charges for it.
pub fn demo_tenant(index: usize, weight_seed: u64) -> (Net, TenantService) {
    let (config, net) = fleet_tenant(index, weight_seed);
    (Net(net), TenantService(config.service))
}

/// A tenant's affine virtual service model.
#[derive(Debug, Clone, Copy)]
pub struct TenantService(ServiceModel);

impl TenantService {
    pub fn service_us(&self, batch: usize) -> u64 {
        self.0.service_us(batch)
    }
}

/// A seeded arrival trace for the three-tenant fleet.
pub struct ArrivalTrace(Vec<ArrivalEvent>);

impl ArrivalTrace {
    /// Poisson + diurnal + burst, the `serve` experiment's mix scaled by
    /// `load`, for `duration_s` virtual seconds.
    pub fn generate(seed: u64, load: f64, duration_s: f64) -> Self {
        let patterns = [
            ArrivalPattern::Poisson {
                rate_per_s: 800.0 * load,
            },
            ArrivalPattern::Diurnal {
                base_per_s: 200.0 * load,
                peak_per_s: 1_400.0 * load,
                period_s: 0.25,
            },
            ArrivalPattern::Burst {
                base_per_s: 400.0 * load,
                burst_per_s: 4_000.0 * load,
                burst_every_s: 0.25,
                burst_len_s: 0.05,
            },
        ];
        Self(generate_trace(seed, &patterns, duration_s))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The first `n` arrivals as their own trace.
    pub fn prefix(&self, n: usize) -> Self {
        Self(self.0[..n.min(self.0.len())].to_vec())
    }

    /// `(t_us, tenant, seq)` of every arrival, for the input checksum.
    pub fn events(&self) -> impl Iterator<Item = (u64, usize, u64)> + '_ {
        self.0.iter().map(|e| (e.t_us, e.tenant, e.seq))
    }
}

/// One served request's output (collected replays only).
pub struct Served {
    pub tenant: usize,
    pub seq: u64,
    pub completion_us: u64,
    pub logits: Vec<f32>,
}

/// The exact (virtual-clock) result of one replay.
#[derive(Default)]
pub struct ServeOutcome {
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub batches: u64,
    pub completed: u64,
    pub makespan_us: u64,
    pub virtual_throughput_per_s: f64,
    pub mean_batch: f64,
    pub max_queue_depth: u64,
    pub slo_violations: u64,
    pub virtual_p99_max_us: u64,
    pub outputs: Vec<Served>,
}

/// The three-tenant router with its request payload pools.
pub struct ServeFleet {
    router: Router,
    pools: Vec<Tensor4>,
}

impl ServeFleet {
    /// `pool` supplies every tenant's payloads (request `seq` carries
    /// image `seq % pool.n()`), as in the shipped experiment.
    pub fn new(weight_seed: u64, pool: &Images, collect_outputs: bool) -> Self {
        let tenants = (0..FLEET_TENANTS)
            .map(|i| fleet_tenant(i, weight_seed))
            .collect();
        let config = RouterConfig {
            workers: 2,
            collect_outputs,
            ..RouterConfig::default()
        };
        Self {
            router: Router::new(config, tenants),
            pools: vec![pool.0.clone(); FLEET_TENANTS],
        }
    }

    pub fn replay(
        &mut self,
        trace: &ArrivalTrace,
        rec: Option<&Recorder>,
    ) -> Result<ServeOutcome, CallError> {
        let report = match rec {
            None => self.router.serve_trace(&trace.0, &self.pools),
            Some(rec) => self.router.serve_trace_traced(&trace.0, &self.pools, rec),
        }
        .map_err(err)?;
        let images: f64 = report
            .tenants
            .iter()
            .map(|t| t.mean_batch * t.batches as f64)
            .sum();
        Ok(ServeOutcome {
            offered: report.offered,
            admitted: report.admitted,
            shed: report.shed,
            batches: report.batches,
            completed: report.completed,
            makespan_us: report.makespan_us,
            virtual_throughput_per_s: report.throughput_per_s,
            mean_batch: images / (report.batches.max(1)) as f64,
            max_queue_depth: report
                .tenants
                .iter()
                .map(|t| t.max_queue_depth as u64)
                .max()
                .unwrap_or(0),
            slo_violations: report.tenants.iter().map(|t| t.slo_violations).sum(),
            virtual_p99_max_us: report.tenants.iter().map(|t| t.p99_us).max().unwrap_or(0),
            outputs: report
                .outputs
                .into_iter()
                .map(|o| Served {
                    tenant: o.tenant,
                    seq: o.seq,
                    completion_us: o.completion_us,
                    logits: o.logits,
                })
                .collect(),
        })
    }
}

// -------------------------------------------------------------- tensor probes

fn random_matrix(g: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| g.next_f32()).collect())
        .expect("rows*cols values generated")
}

/// A `k x n` right-hand side packed once, as weights are at load time.
pub struct PackedRhs {
    b: PackedB,
    k: usize,
    n: usize,
}

impl PackedRhs {
    pub fn random(g: &mut SplitMix64, k: usize, n: usize) -> Self {
        Self {
            b: PackedB::pack(&random_matrix(g, k, n)),
            k,
            n,
        }
    }
}

/// `C[m x n] = A[m x k] * B` through `gemm_prepacked`.
pub struct GemmF32 {
    a: Matrix,
    c: Matrix,
}

impl GemmF32 {
    pub fn random(g: &mut SplitMix64, m: usize, rhs: &PackedRhs) -> Self {
        Self {
            a: random_matrix(g, m, rhs.k),
            c: Matrix::zeros(m, rhs.n),
        }
    }

    pub fn run(&mut self, rhs: &PackedRhs) -> Result<f32, CallError> {
        gemm_prepacked(&self.a, &rhs.b, &mut self.c).map_err(err)?;
        Ok(self.c.as_slice()[0])
    }
}

/// `C = A_csr * B` through `CsrMatrix::matmul_dense_into`, with every
/// second row of `A` zero: the row-structured 50 % density L1 filter
/// pruning produces.
pub struct SpmmCsr {
    a: CsrMatrix,
    b: Matrix,
    c: Matrix,
}

impl SpmmCsr {
    pub fn random_half_rows(g: &mut SplitMix64, m: usize, k: usize, n: usize) -> Self {
        let mut dense = random_matrix(g, m, k);
        for r in (1..m).step_by(2) {
            dense.row_mut(r).fill(0.0);
        }
        Self {
            a: CsrMatrix::from_dense(&dense, 0.0),
            b: random_matrix(g, k, n),
            c: Matrix::zeros(m, n),
        }
    }

    pub fn density(&self) -> f64 {
        self.a.density()
    }

    pub fn run(&mut self) -> Result<f32, CallError> {
        self.a
            .matmul_dense_into(&self.b, &mut self.c)
            .map_err(err)?;
        Ok(self.c.as_slice()[0])
    }
}

/// `im2col_packed_prealloc` on one image.
pub struct Im2colPacked {
    image: Vec<f32>,
    chw: (usize, usize, usize),
    kernel: usize,
    pad: usize,
    stride: usize,
    packed: Matrix,
}

impl Im2colPacked {
    pub fn random(
        g: &mut SplitMix64,
        chw: (usize, usize, usize),
        kernel: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        Self {
            image: (0..chw.0 * chw.1 * chw.2).map(|_| g.next_f32()).collect(),
            chw,
            kernel,
            pad,
            stride,
            packed: Matrix::zeros(0, 0),
        }
    }

    pub fn run(&mut self) -> Result<f32, CallError> {
        let (c, h, w) = self.chw;
        im2col_packed_prealloc(
            &self.image,
            c,
            h,
            w,
            self.kernel,
            self.kernel,
            self.pad,
            self.stride,
            &mut self.packed,
        )
        .map_err(err)?;
        Ok(self.packed.as_slice()[0])
    }
}

/// Inputs are uniform in [-1, 1): a fixed scale of 1/127 quantizes them
/// without clipping, so the probe times the kernels and not a range scan.
const PROBE_SCALE: f32 = 1.0 / 127.0;

/// `quantize_rows_into` over a `rows x k` f32 buffer.
pub struct QuantizeRows {
    src: Vec<f32>,
    rows: usize,
    k: usize,
    out: Vec<i8>,
}

impl QuantizeRows {
    pub fn random(g: &mut SplitMix64, rows: usize, k: usize) -> Self {
        Self {
            src: (0..rows * k).map(|_| g.next_f32()).collect(),
            rows,
            k,
            out: Vec::new(),
        }
    }

    pub fn run(&mut self) -> Result<f32, CallError> {
        quantize_rows_into(
            &self.src,
            self.rows,
            self.k,
            1.0 / PROBE_SCALE,
            &mut self.out,
        );
        Ok(f32::from(self.out[0]))
    }
}

/// Which operand an int8 GEMM quantizes on every call: the one that
/// holds activations. The other holds weights, quantized once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeOperand {
    /// Conv: weights are `A`; the im2col columns `B` are quantized and
    /// panel-packed per call (`pack_b_i8_into`).
    Rhs,
    /// Fc: weights are `B`; the activation rows `A` are quantized per
    /// call (`quantize_rows_into`).
    Lhs,
}

/// `gemm_i8` with the runtime activation quantize included.
pub struct GemmI8 {
    m: usize,
    k: usize,
    n: usize,
    kp: usize,
    runtime: RuntimeOperand,
    a_f32: Vec<f32>,
    b_f32: Vec<f32>,
    a_q: Vec<i8>,
    b_q: Vec<i8>,
    out: Vec<f32>,
}

impl GemmI8 {
    pub fn random(
        g: &mut SplitMix64,
        m: usize,
        k: usize,
        n: usize,
        runtime: RuntimeOperand,
    ) -> Self {
        let a_f32: Vec<f32> = (0..m * k).map(|_| g.next_f32()).collect();
        let b_f32: Vec<f32> = (0..k * n).map(|_| g.next_f32()).collect();
        let (mut a_q, mut b_q) = (Vec::new(), Vec::new());
        let kp = quantize_rows_into(&a_f32, m, k, 1.0 / PROBE_SCALE, &mut a_q);
        pack_b_i8_into(&b_f32, k, n, 1.0 / PROBE_SCALE, &mut b_q);
        Self {
            m,
            k,
            n,
            kp,
            runtime,
            // Only the runtime operand's f32 form is needed after this.
            a_f32: if runtime == RuntimeOperand::Lhs {
                a_f32
            } else {
                Vec::new()
            },
            b_f32: if runtime == RuntimeOperand::Rhs {
                b_f32
            } else {
                Vec::new()
            },
            a_q,
            b_q,
            out: vec![0.0; m * n],
        }
    }

    pub fn run(&mut self) -> Result<f32, CallError> {
        match self.runtime {
            RuntimeOperand::Lhs => {
                quantize_rows_into(
                    &self.a_f32,
                    self.m,
                    self.k,
                    1.0 / PROBE_SCALE,
                    &mut self.a_q,
                );
            }
            RuntimeOperand::Rhs => {
                pack_b_i8_into(
                    &self.b_f32,
                    self.k,
                    self.n,
                    1.0 / PROBE_SCALE,
                    &mut self.b_q,
                );
            }
        }
        gemm_i8(
            &self.a_q,
            self.m,
            self.kp,
            self.n,
            &self.b_q,
            &mut self.out,
            PROBE_SCALE * PROBE_SCALE,
            Epilogue::NONE,
        )
        .map_err(err)?;
        Ok(self.out[0])
    }
}
