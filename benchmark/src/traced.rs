//! The traced run: per-layer numbers for one workload.
//!
//! One set-up inside benchmark-owned spans, an untraced window (the base
//! for the overhead ratio and for allocation counting), then a traced
//! window of the same length with the span recorder handed to every entry
//! point that takes a tracer. Each window is a quarter of `--seconds`.
//! End-to-end numbers never come from here.

use crate::adapter::{self, Arena, Engine, Images, Net, ServeFleet};
use crate::alloc;
use crate::host::{self, Ceilings};
use crate::probes;
use crate::run::{timed_window, Metrics, RunResult};
use crate::spans::{self, Recorder, Scope, Span, Trace};
use crate::spec::PER_LAYER;
use crate::stats;
use crate::workloads::{self, Inputs, Int8B8, Prepared, ServeMix, Workload, INT8_BATCH, SETUP_OP};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The note of a traced run that names the per-layer rows its workload
/// did not measure, comma-separated.
pub const UNMEASURED_NOTE: &str = "unmeasured";

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Children of every span, by parent id.
fn children_index(trace: &Trace) -> HashMap<u32, Vec<&Span>> {
    let mut index: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in &trace.spans {
        index.entry(s.parent).or_default().push(s);
    }
    index
}

/// Every `Layer` span below `root`, at any depth.
fn layer_descendants<'a>(root: u32, index: &HashMap<u32, Vec<&'a Span>>) -> Vec<&'a Span> {
    let mut found = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for child in index.get(&id).map_or(&[][..], Vec::as_slice) {
            if child.scope == Scope::Layer {
                found.push(*child);
            }
            stack.push(child.id);
        }
    }
    found
}

/// The executor's view of one forward pass: time by layer kind, the
/// interval the steps cover, and what is left over for the executor.
#[derive(Default)]
struct PassBreakdown {
    forward: f64,
    conv: f64,
    fc: f64,
    pool: f64,
    lrn: f64,
    concat: f64,
    other: f64,
    covered: f64,
    executor_self: f64,
    steps: f64,
    fused: f64,
}

fn breakdown(unit: &Span, layers: &[&Span], trace: &Trace) -> PassBreakdown {
    let mut b = PassBreakdown {
        forward: ms(unit.dur_ns()),
        steps: layers.len() as f64,
        ..Default::default()
    };
    for l in layers {
        let kind = trace.name(l.kind);
        let d = ms(l.dur_ns());
        if kind.ends_with("+relu") {
            b.fused += 1.0;
        }
        match kind.trim_end_matches("+relu") {
            "conv" => b.conv += d,
            "fc" => b.fc += d,
            "pool" => b.pool += d,
            "lrn" => b.lrn += d,
            "concat" => b.concat += d,
            _ => b.other += d,
        }
    }
    let intervals: Vec<(u64, u64)> = layers.iter().map(|l| (l.start_ns, l.end_ns)).collect();
    b.executor_self = ms(spans::self_time_ns(
        (unit.start_ns, unit.end_ns),
        &intervals,
    ));
    b.covered = b.forward - b.executor_self;
    b
}

/// `cnn.*` executor rows: medians over the forward units in `trace`.
/// A unit is a benchmark-owned `cnn.forward` span where the benchmark
/// calls the executor itself, the program's own forward span where an
/// engine worker does.
fn executor_rows(trace: &Trace, metrics: &mut Metrics) {
    let index = children_index(trace);
    let own_units: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.scope == Scope::Op && trace.name(s.name) == "cnn.forward")
        .collect();
    let units: Vec<&Span> = if own_units.is_empty() {
        trace
            .spans
            .iter()
            .filter(|s| s.scope == Scope::Forward && s.op != SETUP_OP)
            .collect()
    } else {
        own_units
    };
    if units.is_empty() {
        return;
    }
    let passes: Vec<PassBreakdown> = units
        .iter()
        .map(|u| breakdown(u, &layer_descendants(u.id, &index), trace))
        .collect();
    let mut put = |name: &'static str, unit: &'static str, f: fn(&PassBreakdown) -> f64| {
        let values: Vec<f64> = passes.iter().map(f).collect();
        metrics.insert(name, (stats::median(&values), unit));
    };
    put("cnn.forward.ms", "ms", |b| b.forward);
    put("cnn.layer_conv.ms", "ms", |b| b.conv);
    put("cnn.layer_fc.ms", "ms", |b| b.fc);
    put("cnn.layer_pool.ms", "ms", |b| b.pool);
    put("cnn.layer_lrn.ms", "ms", |b| b.lrn);
    put("cnn.layer_concat.ms", "ms", |b| b.concat);
    put("cnn.layer_other.ms", "ms", |b| b.other);
    put("cnn.layers_covered.ms", "ms", |b| b.covered);
    put("cnn.executor_self.ms", "ms", |b| b.executor_self);
    put("cnn.steps_per_pass", "count", |b| b.steps);
    put("cnn.fused_steps", "count", |b| b.fused);
}

fn span_seconds(trace: &Trace, name: &str) -> Option<f64> {
    trace
        .spans
        .iter()
        .find(|s| s.scope == Scope::Op && trace.name(s.name) == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
}

fn host_rows(host: &Ceilings, metrics: &mut Metrics) {
    metrics.insert("host.nproc", (host.nproc as f64, "count"));
    metrics.insert(
        "host.fma_peak_gflops_1t",
        (host.fma_peak_gflops_1t, "GFLOP/s"),
    );
    metrics.insert("host.l2_gbs_1t", (host.l2_gbs_1t, "GB/s"));
    metrics.insert("host.dram_gbs_1t", (host.dram_gbs_1t, "GB/s"));
}

fn arena_row(arena: &Arena, metrics: &mut Metrics) {
    metrics.insert(
        "cnn.arena_mb",
        (arena.reserved_bytes() as f64 / (1 << 20) as f64, "MiB"),
    );
}

/// Engine rows: sixteen images (two batch-8 chunks) through a two-worker
/// engine under the recorder, against the same images through one
/// worker. The end-to-end workload calls the executor on the client
/// thread (see `workloads.rs`); what the engine and a second worker buy
/// on this host is reported here, unbounded.
fn engine_rows(e: &mut Int8B8, metrics: &mut Metrics) -> Result<(), String> {
    const ROUNDS: usize = 4;
    let images = {
        let mut data = e.groups[0].as_slice().to_vec();
        data.extend_from_slice(e.groups[1].as_slice());
        Images::from_data(2 * INT8_BATCH, e.net.input_chw(), data)
    };
    let (two, one) = (Engine::new(2), Engine::new(1));
    let rec = Recorder::new();
    // Warm both engines' pools, then alternate them so that a change in
    // host speed hits both sides of the ratio.
    two.run_batched(&e.net, &images, INT8_BATCH, None)?;
    one.run_batched(&e.net, &images, INT8_BATCH, None)?;
    let (mut two_ms, mut one_ms) = (Vec::new(), Vec::new());
    for i in 0..ROUNDS {
        let t = Instant::now();
        workloads::spanned(Some(&rec), "cnn.engine_run", i as u32, || {
            two.run_batched(&e.net, &images, INT8_BATCH, Some(&rec))
        })?;
        two_ms.push(ms(t.elapsed().as_nanos() as u64));
        let t = Instant::now();
        one.run_batched(&e.net, &images, INT8_BATCH, None)?;
        one_ms.push(ms(t.elapsed().as_nanos() as u64));
    }
    metrics.insert(
        "cnn.engine_scaling_2w_over_1w",
        (stats::median(&one_ms) / stats::median(&two_ms), "ratio"),
    );

    let trace = rec.take();
    let mut by_op: HashMap<u32, Vec<f64>> = HashMap::new();
    for s in trace.spans.iter().filter(|s| s.scope == Scope::Worker) {
        by_op.entry(s.op).or_default().push(ms(s.dur_ns()));
    }
    let (mut busy, mut imbalance) = (Vec::new(), Vec::new());
    for workers in by_op.values() {
        let mean = workers.iter().sum::<f64>() / workers.len() as f64;
        let max = workers.iter().cloned().fold(0.0, f64::max);
        busy.push(mean);
        imbalance.push(max / mean);
    }
    if !busy.is_empty() {
        metrics.insert("cnn.engine_worker_busy.ms", (stats::median(&busy), "ms"));
        metrics.insert("cnn.engine_imbalance", (stats::median(&imbalance), "ratio"));
    }
    Ok(())
}

/// One formed batch of the served sequence.
struct ServedBatch {
    tenant: usize,
    chunk: Images,
}

/// Recover the batch sequence of a collected replay: requests of one
/// tenant completing at the same virtual microsecond left in one batch.
fn served_batches(mix: &ServeMix, segment: usize) -> Result<Vec<ServedBatch>, String> {
    let outcome =
        ServeFleet::new(mix.weight_seed, &mix.pool, true).replay(&mix.segments[segment], None)?;
    let mut groups: Vec<((usize, u64), Vec<u64>)> = Vec::new();
    for s in &outcome.outputs {
        let key = (s.tenant, s.completion_us);
        match groups.last_mut() {
            Some((k, seqs)) if *k == key => seqs.push(s.seq),
            _ => groups.push((key, vec![s.seq])),
        }
    }
    let n = mix.pool.n();
    let image_len = mix.pool.as_slice().len() / n;
    Ok(groups
        .into_iter()
        .map(|((tenant, _), seqs)| {
            let data: Vec<f32> = seqs
                .iter()
                .flat_map(|&seq| {
                    let i = seq as usize % n;
                    mix.pool.as_slice()[i * image_len..(i + 1) * image_len]
                        .iter()
                        .copied()
                })
                .collect();
            ServedBatch {
                tenant,
                chunk: Images::from_data(seqs.len(), adapter::DEMO_CHW, data),
            }
        })
        .collect())
}

/// Serve rows: the router's exact report, the wall-clock split between
/// router and engine, and what tracing a replay costs.
fn serve_rows(
    mix: &mut ServeMix,
    replay_untraced_ms: f64,
    replay_traced_ms: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    metrics.insert("serve.replay_wall.s", (replay_untraced_ms / 1e3, "s"));
    metrics.insert(
        "obs.serve_trace_overhead_ratio",
        (replay_traced_ms / replay_untraced_ms, "ratio"),
    );

    // The exact report of segment 0 (the virtual clock repeats it).
    let o = mix.replay(0, None)?;
    for (name, value, unit) in [
        ("serve.offered", o.offered as f64, "count"),
        ("serve.admitted", o.admitted as f64, "count"),
        ("serve.shed", o.shed as f64, "count"),
        ("serve.batches", o.batches as f64, "count"),
        ("serve.mean_batch", o.mean_batch, "count"),
        ("serve.max_queue_depth", o.max_queue_depth as f64, "count"),
        ("serve.slo_violations", o.slo_violations as f64, "count"),
        (
            "serve.virtual_p99_max.us",
            o.virtual_p99_max_us as f64,
            "us",
        ),
        (
            "serve.virtual_throughput_per_s",
            o.virtual_throughput_per_s,
            "1/s",
        ),
    ] {
        metrics.insert(name, (value, unit));
    }

    // Segment 0's batch sequence straight through the engine, no router:
    // what is left of the replay wall time is the router's own.
    let tenants: Vec<(Net, adapter::TenantService)> = (0..adapter::FLEET_TENANTS)
        .map(|t| adapter::demo_tenant(t, mix.weight_seed))
        .collect();
    let batches = served_batches(mix, 0)?;
    let engine = Engine::new(2);
    let run_all = |engine: &Engine| -> Result<(), String> {
        for b in &batches {
            engine.run_chunk(&tenants[b.tenant].0, &b.chunk)?;
        }
        Ok(())
    };
    run_all(&engine)?;
    // Replay and bare engine run in alternation, differenced pair by pair,
    // so that a change in host speed does not land on one side only.
    let (mut engine_us, mut self_us) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let t = Instant::now();
        mix.replay(0, None)?;
        let wall = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        run_all(&engine)?;
        let bare = t.elapsed().as_secs_f64() * 1e6;
        engine_us.push(bare);
        self_us.push(wall - bare);
    }
    let engine_us = stats::median(&engine_us);
    metrics.insert("serve.engine_replay.s", (engine_us / 1e6, "s"));
    metrics.insert(
        "serve.router_self.us_per_req",
        (stats::median(&self_us) / o.offered as f64, "us"),
    );
    let modelled_us: u64 = batches
        .iter()
        .map(|b| tenants[b.tenant].1.service_us(b.chunk.n()))
        .sum();
    metrics.insert(
        "serve.virtual_over_measured_service",
        (modelled_us as f64 / engine_us, "ratio"),
    );

    // The per-batch hand-off at three batch sizes on the dense tenant.
    let dense = &tenants[0].0;
    for (name, batch) in [
        ("cnn.run_chunk_b1.us", 1),
        ("cnn.run_chunk_b8.us", 8),
        ("cnn.run_chunk_b16.us", 16),
    ] {
        let data: Vec<f32> = mix
            .pool
            .as_slice()
            .iter()
            .cycle()
            .take(batch * 768)
            .copied()
            .collect();
        let chunk = Images::from_data(batch, adapter::DEMO_CHW, data);
        let us = probes::median_us(2_000, || engine.run_chunk(dense, &chunk))?;
        metrics.insert(name, (us, "us"));
    }
    Ok(())
}

/// Traced batch-8 passes of the dense demo tenant: the router hands its
/// tracer no forward pass, so the executor rows of the serve workload
/// come from calling the executor the way `run_chunk` does.
fn demo_executor_trace(mix: &ServeMix) -> Result<Trace, String> {
    let rec = &Recorder::new();
    let (net, _) = adapter::demo_tenant(0, mix.weight_seed);
    let mut arena = adapter::Arena::default();
    net.forward(&mix.pool, &mut arena)?;
    for i in 0..200u32 {
        let open = rec.open("cnn.forward", i);
        let out = net.forward_traced(&mix.pool, &mut arena, rec).map(|_| ());
        rec.close(open);
        out?;
    }
    Ok(rec.take())
}

pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&str>,
) -> Result<RunResult, String> {
    let mut metrics = Metrics::new();
    let inputs = Inputs::generate(workload, seed);

    // Ceilings and probes first, in this process, before the model's
    // memory is resident.
    let host = host::measure();
    host_rows(&host, &mut metrics);
    probes::run_all(inputs.seeds.images, &host, &mut metrics)?;

    let rec = Recorder::new();
    let mut prepared = workloads::setup(workload, &inputs, Some(&rec))?;
    let setup_trace = rec.take();
    if let Some(s) = span_seconds(&setup_trace, "pruning.apply") {
        metrics.insert("pruning.apply.s", (s, "s"));
    }

    let window = Duration::from_secs_f64(seconds / 4.0);
    let before = adapter::exec_counters();
    let (untraced, allocations) =
        alloc::count_during(|| timed_window(&mut prepared, window, None, 0, None));
    let after = adapter::exec_counters();
    let passes = (after.forward_passes - before.forward_passes).max(1);
    metrics.insert(
        "cnn.allocs_per_pass",
        (allocations as f64 / passes as f64, "count"),
    );
    metrics.insert(
        "cnn.dag_parallel_passes",
        (
            (after.dag_parallel_passes - before.dag_parallel_passes) as f64,
            "count",
        ),
    );

    let traced = timed_window(
        &mut prepared,
        window,
        Some(&rec),
        untraced.attempted as usize,
        None,
    );
    let trace = rec.take();

    if untraced.latencies_ms.is_empty() || traced.latencies_ms.is_empty() {
        return Err("no op passed its checks; nothing to report".into());
    }
    let untraced_ms = stats::median(&untraced.latencies_ms);
    let traced_ms = stats::median(&traced.latencies_ms);
    metrics.insert(
        "obs.trace_overhead_ratio",
        (traced_ms / untraced_ms, "ratio"),
    );
    let op_spans = trace.spans.iter().filter(|s| s.op != SETUP_OP).count();
    metrics.insert(
        "obs.spans_per_op",
        (op_spans as f64 / traced.attempted as f64, "count"),
    );

    match &mut prepared {
        Prepared::B1(b1) => {
            executor_rows(&trace, &mut metrics);
            arena_row(&b1.arena, &mut metrics);
            metrics.insert("pruning.conv_density_mean", (b1.conv_density_mean, "ratio"));
        }
        Prepared::Int8(e) => {
            executor_rows(&trace, &mut metrics);
            arena_row(&e.arena, &mut metrics);
            engine_rows(e, &mut metrics)?;
        }
        Prepared::Serve(mix) => {
            if let Some(s) = span_seconds(&setup_trace, "serve.trace_gen") {
                metrics.insert("serve.trace_gen.s", (s, "s"));
            }
            executor_rows(&demo_executor_trace(mix)?, &mut metrics);
            serve_rows(mix, untraced_ms, traced_ms, &mut metrics)?;
        }
    }

    if let Some(path) = spans_out {
        let mut tsv = setup_trace.to_tsv();
        tsv.push_str(trace.to_tsv().split_once('\n').map_or("", |(_, rest)| rest));
        std::fs::write(path, tsv).map_err(|e| format!("{path}: {e}"))?;
    }

    // Rows of layers this workload does not run stay out of `metrics`:
    // not measured, which is not the same as a measured 0.
    let unmeasured: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| !metrics.contains_key(name))
        .collect();
    let notes = vec![
        ("untraced_ops", untraced.attempted.to_string()),
        ("traced_ops", traced.attempted.to_string()),
        (
            "spans",
            (setup_trace.spans.len() + trace.spans.len()).to_string(),
        ),
        (
            "per_layer_rows_measured",
            format!("{} of {}", metrics.len(), PER_LAYER.len()),
        ),
        (UNMEASURED_NOTE, unmeasured.join(",")),
        (
            "triad_bytes",
            format!(
                "l2={} dram={} (last-level cache {})",
                host.l2_triad_bytes, host.dram_triad_bytes, host.llc_bytes
            ),
        ),
        ("input_checksum", format!("{:016x}", inputs.checksum())),
    ];
    Ok(RunResult {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        notes,
    })
}
