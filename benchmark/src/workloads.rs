//! The five fixed workloads: what each sets up, what one closed-loop op
//! is, and which invariants its outputs must satisfy.
//!
//! All five are closed loops with one client thread: the next op starts
//! when the previous one returns. Correctness is checked by invariants
//! only (no golden values), so a later change may refit the service
//! model or re-tune a kernel without editing the benchmark.

use crate::adapter::{
    self, Arena, ArrivalTrace, Engine, Images, Model, Net, ServeFleet, ServeOutcome, DEMO_CHW,
};
use crate::inputs::{image_data, Fnv1a, Seeds};
use crate::spans::Recorder;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CaffenetDenseB1,
    CaffenetPrunedB1,
    GooglenetDenseB1,
    CaffenetInt8B8,
    ServeMixSmall,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CaffenetDenseB1,
        Workload::CaffenetPrunedB1,
        Workload::GooglenetDenseB1,
        Workload::CaffenetInt8B8,
        Workload::ServeMixSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CaffenetDenseB1 => "caffenet_dense_b1",
            Workload::CaffenetPrunedB1 => "caffenet_pruned_b1",
            Workload::GooglenetDenseB1 => "googlenet_dense_b1",
            Workload::CaffenetInt8B8 => "caffenet_int8_b8",
            Workload::ServeMixSmall => "serve_mix_small",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one `CAP_*` variable a workload sets; everything else is
    /// scrubbed so every knob resolves to `auto`.
    pub fn env(self) -> Option<(&'static str, &'static str)> {
        match self {
            Workload::CaffenetInt8B8 => Some(("CAP_TENSOR_PRECISION", "int8")),
            _ => None,
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CaffenetDenseB1 => "Full Caffenet f32 batch 1: dense conv GEMM (~33% of a pass, measured) plus bandwidth-bound fc GEMV (~63%); the executor does almost nothing, so a kernel change shows here undiluted.",
            Workload::CaffenetPrunedB1 => "Same net and seed after L1 filter pruning at the all-conv knees: conv runs through CSR SpMM, fc stays dense; with the dense row it is the paper's time-vs-pruning observable.",
            Workload::GooglenetDenseB1 => "Full Googlenet f32 batch 1: many small GEMMs, im2col, pool, concat, the fusion plan and the DAG scheduler carry the time; fc is negligible, so a GEMV gain must not move it.",
            Workload::CaffenetInt8B8 => "Caffenet under int8 with calibrated scales, one batch-8 forward pass per op: quantize + i8 kernels and fc as an m=8 GEMM, so a batch-1 f32 gain that costs batched or int8 shows here.",
            Workload::ServeMixSmall => "Three-tenant demo fleet behind the 2-worker router replaying seeded Poisson+diurnal+burst traces: kernel FLOPs are negligible, per-batch fixed cost and router bookkeeping are everything.",
        }
    }

    /// What one op completes, for the `throughput_norm_per_s` row.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::ServeMixSmall => "requests",
            _ => "images",
        }
    }
}

/// Images cycled through by the batch-1 workloads.
const B1_IMAGES: usize = 4;
/// Warm passes at the end of every set-up (plan build, arena growth,
/// lazy packing all happen before the first timed op).
const WARM_PASSES: usize = 3;
/// The int8 workload: a 64-image pool in eight groups of 8, each group
/// one op: one batch-8 forward pass on the client thread.
///
/// Not through `ParallelEngine::run_batched`: that runs every call on a
/// freshly spawned thread, and on the two-vCPU VM this was written on the
/// speed of a fresh thread (which vCPU it lands on, what its caches hold)
/// moves by 1.2x to 1.8x from op to op in a way nothing read on the client
/// thread tracks: ten-run spreads of 0.19 to 0.30, refused by the
/// benchmark check. Two workers are worse: the two vCPUs are at times
/// hyperthreads of one core. What the engine and a second worker buy is
/// kept as per-layer rows of the traced run (`cnn.engine_*`), which no
/// bound gates; the engine's `run_chunk` path is what `serve_mix_small`
/// runs.
const INT8_POOL: usize = 64;
pub const INT8_BATCH: usize = 8;
/// Serve: four distinct trace segments, replayed round-robin. 1.5
/// virtual seconds is six diurnal periods and six bursts per segment.
const SERVE_SEGMENTS: usize = 4;
const SERVE_SEGMENT_S: f64 = 1.5;
/// Offered load relative to the `serve` experiment's x1 point. The
/// highest of its sweep points at which the fleet sheds nothing, so that
/// no op fails (a shed request is a refused one).
const SERVE_LOAD: f64 = 1.0;
/// Requests of the untimed served-logits check.
const SERVE_PARITY_PREFIX: usize = 2_000;
const SERVE_POOL: usize = 8;

/// Everything generated from `--seed` before any set-up runs.
pub struct Inputs {
    pub seeds: Seeds,
    /// Flat NCHW image data, sized for the workload.
    image_data: Vec<f32>,
    image_count: usize,
    chw: (usize, usize, usize),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let seeds = Seeds::derive(seed);
        let (image_count, chw) = match workload {
            Workload::CaffenetInt8B8 => (INT8_POOL, (3, 224, 224)),
            Workload::ServeMixSmall => (SERVE_POOL, DEMO_CHW),
            _ => (B1_IMAGES, (3, 224, 224)),
        };
        Self {
            seeds,
            image_data: image_data(seeds.images, image_count, chw),
            image_count,
            chw,
        }
    }

    fn images(&self) -> Images {
        Images::from_data(self.image_count, self.chw, self.image_data.clone())
    }

    /// Checksum of the generated image bytes and the derived seeds.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_f32s(&self.image_data);
        h.write_u64(self.seeds.weights);
        h.write_u64(self.seeds.trace);
        h.finish()
    }
}

/// Checksum of an arrival trace (every event's time, tenant and seq).
pub fn trace_checksum(trace: &ArrivalTrace) -> u64 {
    let mut h = Fnv1a::default();
    for (t_us, tenant, seq) in trace.events() {
        h.write_u64(t_us);
        h.write_u64(tenant as u64);
        h.write_u64(seq);
    }
    h.finish()
}

/// One untimed check's verdict: what it measured, or why it failed.
pub struct Check {
    pub name: &'static str,
    pub result: Result<String, String>,
}

/// A workload after set-up, ready for timed ops. The traced run matches
/// on the variant for its workload-specific layer measurements.
pub enum Prepared {
    B1(InferB1),
    Int8(Int8B8),
    Serve(ServeMix),
}

impl Prepared {
    /// One closed-loop op. Returns the units of work completed (images
    /// or requests), or why the op's output failed its checks. With a
    /// recorder, the op goes through the traced entry point inside a
    /// benchmark-owned span numbered `i`.
    pub fn op(&mut self, i: usize, rec: Option<&Recorder>) -> Result<u64, String> {
        match self {
            Prepared::B1(w) => w.op(i, rec),
            Prepared::Int8(w) => w.op(i, rec),
            Prepared::Serve(w) => w.replay(i, rec).map(|o| o.completed),
        }
    }

    /// The untimed check run once after the measured window.
    pub fn final_check(&mut self) -> Check {
        match self {
            Prepared::B1(w) => w.final_check(),
            Prepared::Int8(w) => w.final_check(),
            Prepared::Serve(w) => w.final_check(),
        }
    }

    /// Facts about the prepared inputs worth printing with the run.
    pub fn notes(&self) -> Vec<(&'static str, String)> {
        match self {
            Prepared::Serve(w) => w.notes(),
            _ => Vec::new(),
        }
    }
}

/// Run `f` inside a benchmark-owned span when tracing, bare otherwise.
pub fn spanned<R>(rec: Option<&Recorder>, name: &str, op: u32, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some(rec) => {
            let open = rec.open(name, op);
            let r = f();
            rec.close(open);
            r
        }
    }
}

/// Op number shared by every span of a set-up.
pub const SETUP_OP: u32 = u32::MAX;

pub fn setup(
    workload: Workload,
    inputs: &Inputs,
    rec: Option<&Recorder>,
) -> Result<Prepared, String> {
    let b1 = |model, prune| InferB1::setup(model, prune, inputs, rec).map(Prepared::B1);
    match workload {
        Workload::CaffenetDenseB1 => b1(Model::Caffenet, false),
        Workload::CaffenetPrunedB1 => b1(Model::Caffenet, true),
        Workload::GooglenetDenseB1 => b1(Model::Googlenet, false),
        Workload::CaffenetInt8B8 => Int8B8::setup(inputs, rec).map(Prepared::Int8),
        Workload::ServeMixSmall => ServeMix::setup(inputs, rec).map(Prepared::Serve),
    }
}

// ------------------------------------------------------------ output checks

/// Every value finite and every image's class probabilities summing to
/// 1 within 1e-4 (all three models end in a softmax).
fn check_softmax_rows(out: &[f32], images: usize) -> Result<(), String> {
    let classes = out.len() / images.max(1);
    for (i, row) in out.chunks(classes.max(1)).enumerate() {
        if let Some(v) = row.iter().find(|v| !v.is_finite()) {
            return Err(format!("image {i}: non-finite output {v}"));
        }
        let sum: f64 = row.iter().map(|&v| f64::from(v)).sum();
        if (sum - 1.0).abs() > 1e-4 {
            return Err(format!("image {i}: softmax row sums to {sum}"));
        }
    }
    Ok(())
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compare against the first output seen for this input, or remember it.
fn check_repeatable(reference: &mut Option<Vec<f32>>, out: &[f32]) -> Result<(), String> {
    match reference {
        Some(r) if bits_equal(r, out) => Ok(()),
        Some(_) => Err("output differs bitwise from the first pass on the same input".into()),
        None => {
            *reference = Some(out.to_vec());
            Ok(())
        }
    }
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
}

/// The logits behind one softmax row, up to the constant softmax
/// removes: `ln p`, centred on its mean.
fn centred_logits(row: &[f32]) -> Vec<f64> {
    let logs: Vec<f64> = row
        .iter()
        .map(|&p| f64::from(p.max(f32::MIN_POSITIVE)).ln())
        .collect();
    let mean = logs.iter().sum::<f64>() / logs.len().max(1) as f64;
    logs.iter().map(|l| l - mean).collect()
}

/// One forward pass on the calling thread: bare, or under the recorder
/// inside a benchmark-owned `cnn.forward` span numbered `i`.
fn forward<'a>(
    net: &Net,
    images: &Images,
    arena: &'a mut Arena,
    i: usize,
    rec: Option<&Recorder>,
) -> Result<&'a [f32], String> {
    match rec {
        None => net.forward(images, arena),
        Some(rec) => {
            let open = rec.open("cnn.forward", i as u32);
            let out = net.forward_traced(images, arena, rec);
            rec.close(open);
            out
        }
    }
}

// -------------------------------------------------------------- batch-1 nets

/// Full Caffenet (dense or pruned at the all-conv knees) or Googlenet,
/// one image per op through `forward_into` with a reused arena.
pub struct InferB1 {
    pub net: Net,
    pub arena: Arena,
    pool: Images,
    singles: Vec<Images>,
    reference: Vec<Option<Vec<f32>>>,
    /// Mean conv density after pruning (1.0 when dense).
    pub conv_density_mean: f64,
}

impl InferB1 {
    fn setup(
        model: Model,
        prune: bool,
        inputs: &Inputs,
        rec: Option<&Recorder>,
    ) -> Result<Self, String> {
        let mut net = spanned(rec, "cnn.build", SETUP_OP, || {
            Net::build(model, inputs.seeds.weights)
        })?;
        let mut conv_density_mean = 1.0;
        if prune {
            conv_density_mean = spanned(rec, "pruning.apply", SETUP_OP, || {
                net.prune_caffenet_all_conv_knees()
            })?
            .conv_density_mean;
        }
        let pool = inputs.images();
        let singles: Vec<Images> = (0..pool.n()).map(|i| pool.single(i)).collect();
        let mut me = Self {
            net,
            arena: Arena::default(),
            reference: vec![None; singles.len()],
            pool,
            singles,
            conv_density_mean,
        };
        spanned(rec, "cnn.warm", SETUP_OP, || {
            (0..WARM_PASSES).try_for_each(|i| me.op(i, None).map(|_| ()))
        })?;
        Ok(me)
    }
}

impl InferB1 {
    fn op(&mut self, i: usize, rec: Option<&Recorder>) -> Result<u64, String> {
        let slot = i % self.singles.len();
        let out = forward(&self.net, &self.singles[slot], &mut self.arena, i, rec)?;
        check_softmax_rows(out, 1)?;
        check_repeatable(&mut self.reference[slot], out)?;
        Ok(1)
    }

    fn final_check(&mut self) -> Check {
        // Batching invariance: each batch-1 output equals the matching
        // row of one batched run over the same images.
        let result = Engine::new(1)
            .run_batched(&self.net, &self.pool, self.pool.n(), None)
            .and_then(|rows| {
                for (i, row) in rows.iter().enumerate() {
                    let single = self.net.forward(&self.singles[i], &mut self.arena)?;
                    if !bits_equal(single, row) {
                        return Err(format!("image {i}: batch-1 output != run_batched row"));
                    }
                }
                Ok(format!("{} images", rows.len()))
            });
        Check {
            name: "batch1_equals_run_batched_row",
            result,
        }
    }
}

// --------------------------------------------------------------- int8 batch

/// Caffenet under int8 with frozen activation scales, one batch-8
/// forward pass per op through `forward_into` with a reused arena.
pub struct Int8B8 {
    pub net: Net,
    pub arena: Arena,
    pub groups: Vec<Images>,
    reference: Vec<Option<Vec<f32>>>,
}

impl Int8B8 {
    fn setup(inputs: &Inputs, rec: Option<&Recorder>) -> Result<Self, String> {
        let net = spanned(rec, "cnn.build", SETUP_OP, || {
            Net::build(Model::Caffenet, inputs.seeds.weights)
        })?;
        let pool = inputs.images();
        let groups: Vec<Images> = (0..INT8_POOL / INT8_BATCH)
            .map(|g| pool.range(g * INT8_BATCH, (g + 1) * INT8_BATCH))
            .collect();
        // Calibrate under f32, as `Network::calibrate` asks, on the first
        // batch of the pool.
        spanned(rec, "cnn.calibrate", SETUP_OP, || {
            adapter::with_f32(|| net.calibrate_max_abs(&groups[0]))
        })?;
        let mut me = Self {
            net,
            arena: Arena::default(),
            reference: vec![None; groups.len()],
            groups,
        };
        spanned(rec, "cnn.warm", SETUP_OP, || {
            (0..WARM_PASSES).try_for_each(|i| me.op(i, None).map(|_| ()))
        })?;
        Ok(me)
    }
}

impl Int8B8 {
    fn op(&mut self, i: usize, rec: Option<&Recorder>) -> Result<u64, String> {
        let slot = i % self.groups.len();
        let out = forward(&self.net, &self.groups[slot], &mut self.arena, i, rec)?;
        check_softmax_rows(out, INT8_BATCH)?;
        check_repeatable(&mut self.reference[slot], out)?;
        Ok(INT8_BATCH as u64)
    }

    fn final_check(&mut self) -> Check {
        // int8 against f32 on the first two groups, on logits recovered
        // from the softmax rows (softmax flattens a delta; its logarithm
        // is the logit up to one constant per image, removed by
        // centring). Two invariants:
        //
        // * the largest logit delta stays within 12 % of the f32 logit
        //   scale, the calibrated bound `crates/cnn/tests/int8_net.rs`
        //   documents (measured here: 2.5 to 4 %);
        // * int8's top-1 class is among f32's top five on >= 0.9 of the
        //   images.
        //
        // Not that suite's plain top-1 agreement >= 0.9: with seeded
        // random weights and 1000 classes the f32 winner leads the
        // runner-up by 0.001 to 0.06 logits on most images, less than
        // the 0.025 an in-bound int8 pass moves a logit, so agreement
        // depends on the seed (54, 63 and 64 of 64 images on seeds 1 to
        // 3) and says nothing about the kernels. It is printed.
        let (mut images, mut agree, mut in_top5) = (0usize, 0usize, 0usize);
        let (mut max_delta, mut scale) = (0.0f64, 0.0f64);
        let mut compare = |group: &Images| -> Result<(), String> {
            let q = self.net.forward(group, &mut self.arena)?.to_vec();
            let f = adapter::with_f32(|| self.net.forward(group, &mut self.arena))?;
            let classes = f.len() / INT8_BATCH;
            for (qr, fr) in q.chunks(classes).zip(f.chunks(classes)) {
                let (zq, zf) = (centred_logits(qr), centred_logits(fr));
                let pick = argmax(qr);
                images += 1;
                agree += usize::from(pick == argmax(fr));
                in_top5 += usize::from(zf.iter().filter(|&&z| z > zf[pick]).count() < 5);
                for (a, b) in zq.iter().zip(&zf) {
                    max_delta = max_delta.max((a - b).abs());
                    scale = scale.max(b.abs());
                }
            }
            Ok(())
        };
        let result = self.groups[..2]
            .iter()
            .try_for_each(&mut compare)
            .and_then(|()| {
                let share = |count: usize| count as f64 / images as f64;
                if max_delta > 0.12 * scale {
                    return Err(format!(
                        "int8 logits drifted {max_delta} from f32 (> 12 % of scale {scale})"
                    ));
                }
                if share(in_top5) < 0.9 {
                    return Err(format!(
                        "int8 top-1 is in the f32 top 5 on only {} of the images",
                        share(in_top5)
                    ));
                }
                Ok(format!(
                    "{images} images, logit delta {:.2} % of scale, top-1 in f32 top-5 {:.3}, \
                     top-1 agreement {:.3}",
                    100.0 * max_delta / scale,
                    share(in_top5),
                    share(agree)
                ))
            });
        Check {
            name: "int8_tracks_f32",
            result,
        }
    }
}

// ------------------------------------------------------------------ serving

/// The shipped three-tenant fleet behind a two-worker router, replaying
/// seeded Poisson + diurnal + burst segments as fast as it will go. The
/// arrivals are an open-loop schedule on the router's virtual clock, so
/// "how late the generator ran" does not apply; the closed loop here is
/// over whole replays.
pub struct ServeMix {
    pub segments: Vec<ArrivalTrace>,
    pub pool: Images,
    pub weight_seed: u64,
    reference: Vec<Option<[u64; 5]>>,
}

impl ServeMix {
    fn setup(inputs: &Inputs, rec: Option<&Recorder>) -> Result<Self, String> {
        let pool = inputs.images();
        let weight_seed = inputs.seeds.weights;
        let segments: Vec<ArrivalTrace> = spanned(rec, "serve.trace_gen", SETUP_OP, || {
            (0..SERVE_SEGMENTS)
                .map(|s| {
                    ArrivalTrace::generate(
                        inputs.seeds.trace.wrapping_add(s as u64),
                        SERVE_LOAD,
                        SERVE_SEGMENT_S,
                    )
                })
                .collect()
        });
        let mut me = Self {
            reference: vec![None; segments.len()],
            segments,
            pool,
            weight_seed,
        };
        spanned(rec, "cnn.warm", SETUP_OP, || {
            (0..WARM_PASSES).try_for_each(|i| me.replay(i, None).map(|_| ()))
        })?;
        Ok(me)
    }

    /// Replay segment `i % segments` on a fresh router and hand back the
    /// exact outcome. A router's counters and its adaptive batch caps
    /// carry over from one `serve_trace` to the next, so only a fresh one
    /// makes a replay's counts a pure function of its segment.
    pub fn replay(&mut self, i: usize, rec: Option<&Recorder>) -> Result<ServeOutcome, String> {
        let slot = i % self.segments.len();
        let outcome = spanned(rec, "serve.replay", i as u32, || {
            ServeFleet::new(self.weight_seed, &self.pool, false).replay(&self.segments[slot], rec)
        })?;
        check_conservation(&outcome, self.segments[slot].len() as u64)?;
        // The virtual clock makes every count repeat exactly.
        let counts = [
            outcome.admitted,
            outcome.shed,
            outcome.batches,
            outcome.makespan_us,
            outcome.slo_violations,
        ];
        match &self.reference[slot] {
            Some(r) if *r == counts => {}
            Some(r) => {
                return Err(format!(
                    "replay counts {counts:?} differ from the first replay {r:?}"
                ))
            }
            None => self.reference[slot] = Some(counts),
        }
        Ok(outcome)
    }
}

/// `offered = admitted + shed`, `completed = admitted`, nothing refused.
fn check_conservation(o: &ServeOutcome, arrivals: u64) -> Result<(), String> {
    if o.offered != arrivals || o.offered != o.admitted + o.shed || o.completed != o.admitted {
        return Err(format!(
            "conservation broken: arrivals {arrivals} offered {} admitted {} shed {} completed {}",
            o.offered, o.admitted, o.shed, o.completed
        ));
    }
    if o.shed > 0 {
        return Err(format!("{} of {} requests shed", o.shed, o.offered));
    }
    Ok(())
}

impl ServeMix {
    fn final_check(&mut self) -> Check {
        // Served logits on a 2 k-request prefix equal `run_batched` over
        // the same image sequence, per tenant.
        let prefix = self.segments[0].prefix(SERVE_PARITY_PREFIX);
        let mut collecting = ServeFleet::new(self.weight_seed, &self.pool, true);
        let result = collecting.replay(&prefix, None).and_then(|outcome| {
            check_conservation(&outcome, prefix.len() as u64)?;
            for tenant in 0..adapter::FLEET_TENANTS {
                let (net, _) = adapter::demo_tenant(tenant, self.weight_seed);
                let rows = Engine::new(1).run_batched(&net, &self.pool, self.pool.n(), None)?;
                for served in outcome.outputs.iter().filter(|s| s.tenant == tenant) {
                    let want = &rows[served.seq as usize % rows.len()];
                    if !bits_equal(&served.logits, want) {
                        return Err(format!(
                            "tenant {tenant} seq {}: served logits != run_batched row",
                            served.seq
                        ));
                    }
                }
            }
            Ok(format!("{} served requests", outcome.outputs.len()))
        });
        Check {
            name: "served_logits_equal_run_batched",
            result,
        }
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        let mut h = Fnv1a::default();
        for s in &self.segments {
            h.write_u64(trace_checksum(s));
        }
        let arrivals: usize = self.segments.iter().map(ArrivalTrace::len).sum();
        vec![
            ("trace_checksum", format!("{:016x}", h.finish())),
            ("trace_arrivals", arrivals.to_string()),
        ]
    }
}

/// Wall time of `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_trace_checksum() {
        let a = Inputs::generate(Workload::ServeMixSmall, 11);
        let b = Inputs::generate(Workload::ServeMixSmall, 11);
        let c = Inputs::generate(Workload::ServeMixSmall, 12);
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
        let trace = |i: &Inputs| ArrivalTrace::generate(i.seeds.trace, SERVE_LOAD, 0.2);
        assert_eq!(trace_checksum(&trace(&a)), trace_checksum(&trace(&b)));
        assert_ne!(trace_checksum(&trace(&a)), trace_checksum(&trace(&c)));
        assert!(trace(&a).len() > 100);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn softmax_and_repeat_checks_catch_bad_outputs() {
        assert!(check_softmax_rows(&[0.25, 0.75, 0.5, 0.5], 2).is_ok());
        assert!(check_softmax_rows(&[0.25, 0.70], 1).is_err());
        assert!(check_softmax_rows(&[f32::NAN, 1.0], 1).is_err());
        let mut r = None;
        assert!(check_repeatable(&mut r, &[1.0, 2.0]).is_ok());
        assert!(check_repeatable(&mut r, &[1.0, 2.0]).is_ok());
        assert!(check_repeatable(&mut r, &[1.0, 2.0000002]).is_err());
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
    }

    #[test]
    fn centred_logits_undo_softmax_up_to_a_constant() {
        let logits = [1.5f64, -0.5, 0.25, -1.25];
        let sum: f64 = logits.iter().map(|l| l.exp()).sum();
        let row: Vec<f32> = logits.iter().map(|l| (l.exp() / sum) as f32).collect();
        let mean = logits.iter().sum::<f64>() / 4.0;
        for (z, l) in centred_logits(&row).iter().zip(logits) {
            assert!((z - (l - mean)).abs() < 1e-6, "{z} vs {}", l - mean);
        }
    }
}
