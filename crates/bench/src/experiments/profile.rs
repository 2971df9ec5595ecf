//! Per-layer profiling through the observability layer: the
//! acceptance experiment for `cap-obs`. Attaches a
//! [`CollectingTracer`] to real Caffenet forward passes at 0% and 60%
//! uniform convolution pruning, renders both [`ProfileReport`]s as
//! text tables and JSON, diffs them, and dumps the global metrics
//! snapshot gathered along the way.

use cap_cnn::models::{caffenet, WeightInit};
use cap_cnn::{CollectingTracer, ForwardArena, LayerKind, Network, ProfileReport};
use cap_obs::{SpanRecord, SpanScope, TimingGuard};
use cap_pruning::{apply_to_network, PruneAlgorithm, PruneSpec};
use cap_tensor::{precision, Precision, Tensor4};
use std::fmt::Write;

/// Timed passes per report. One warm-up pass precedes them so the
/// arena and weight pages are faulted in before any span is recorded.
const PASSES: usize = 3;

/// One side of a profiled comparison: a net, the precision it runs
/// under (`None`: the process's own) and its report's label.
struct Arm<'a> {
    net: &'a Network,
    precision: Option<Precision>,
    label: &'a str,
}

/// Profile two arms pass by pass: after one untraced warm-up pass of
/// each, `PASSES` rounds each run one traced pass of both — which goes
/// first alternates — every arm on its own arena and into its own
/// [`CollectingTracer`], so a slow phase of the host lands on both arms
/// alike instead of on whichever ran during it (as `fig8m` times its
/// configs). Each arm's spans are aggregated into its [`ProfileReport`]
/// (per-layer `calls` = `PASSES`, so `mean()` is the mean over warm
/// passes) under its own precision, and returned with it.
///
/// The two tracers are made together, so their epochs — the zero of
/// every span's start offset — agree to well under a microsecond and
/// both arms' spans sit on one time axis in the `--trace-out` timeline.
fn profile_interleaved(
    arms: [Arm<'_>; 2],
    input: &Tensor4,
) -> [(ProfileReport, Vec<SpanRecord>); 2] {
    let tracers = [CollectingTracer::new(), CollectingTracer::new()];
    let mut arenas = [ForwardArena::new(), ForwardArena::new()];
    let mut pass = |i: usize, traced: bool| {
        let (arm, arena) = (&arms[i], &mut arenas[i]);
        precision::force(arm.precision);
        if traced {
            arm.net
                .forward_into_traced(input, arena, &tracers[i])
                .expect("traced forward");
        } else {
            // Warm-up: absorbs arena growth and first-touch faults.
            arm.net.forward_into(input, arena).expect("warm-up forward");
        }
    };
    pass(0, false);
    pass(1, false);
    for round in 0..PASSES {
        pass(round % 2, true);
        pass((round + 1) % 2, true);
    }
    let reports = [0, 1].map(|i| {
        precision::force(arms[i].precision);
        let spans = tracers[i].take_spans();
        (ProfileReport::from_spans(arms[i].label, &spans), spans)
    });
    precision::force(None);
    reports
}

/// Milliseconds of the fastest traced pass in `spans` (one tracer's, in
/// any order) spent in the layers named `layers`: each layer span is
/// summed into the pass whose `Forward` span ends first at or after it
/// ends, then the minimum over passes — so one slow pass on a shared
/// host does not move it, as `fig8m` keeps each config's fastest round.
fn best_pass_ms(spans: &[SpanRecord], layers: &[String]) -> f64 {
    let end = |s: &SpanRecord| s.start + s.elapsed;
    let forwards = spans.iter().filter(|s| s.scope == SpanScope::Forward);
    let mut passes: Vec<_> = forwards.map(|f| (end(f), 0.0)).collect();
    passes.sort_by_key(|p| p.0);
    let timed = |s: &&SpanRecord| s.scope == SpanScope::Layer && layers.contains(&s.name);
    for s in spans.iter().filter(timed) {
        let pass = passes.partition_point(|p| p.0 < end(s));
        if let Some(p) = passes.get_mut(pass) {
            p.1 += s.elapsed.as_secs_f64() * 1e3;
        }
    }
    passes.iter().map(|p| p.1).fold(f64::INFINITY, f64::min)
}

/// The `profile` experiment: per-layer time tables for Caffenet at 0%
/// and 60% pruning, produced by the tracer rather than any bespoke
/// timer, plus the JSON exports and the metrics-registry snapshot.
pub fn profile_caffenet() -> String {
    profile_caffenet_with_trace().0
}

/// [`profile_caffenet`] plus the raw spans behind the report, in
/// chronological order on one shared epoch — what `repro --exp profile
/// --trace-out <path>` feeds to [`cap_obs::chrome_trace_json`].
pub fn profile_caffenet_with_trace() -> (String, Vec<SpanRecord>) {
    // Histograms (forward latency, per-layer time, GEMM/im2col split)
    // only record while a TimingGuard is live.
    let _timing = TimingGuard::enable();
    cap_obs::metrics().reset();

    let dense = caffenet(WeightInit::Gaussian {
        std: 0.01,
        seed: 42,
    })
    .expect("caffenet builds");
    let input = Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
        ((c * 13 + h * 3 + w) % 23) as f32 / 23.0 - 0.5
    });

    // Same seed => identical weights before pruning.
    let mut pruned = caffenet(WeightInit::Gaussian {
        std: 0.01,
        seed: 42,
    })
    .expect("caffenet builds");
    let convs = pruned.layers_of_kind(LayerKind::Convolution);
    let spec = PruneSpec::uniform(&convs, 0.6);
    apply_to_network(&mut pruned, &spec, PruneAlgorithm::FilterL1).expect("pruning applies");

    let arm = |net, precision, label| Arm {
        net,
        precision,
        label,
    };
    let [(report0, mut spans), (report60, spans60)] = profile_interleaved(
        [
            arm(&dense, None, "caffenet @ 0%"),
            arm(&pruned, None, "caffenet @ 60% conv pruning"),
        ],
        &input,
    );
    // One line for CI's job summary: did pruning pay, in total? Each
    // arm's best pass; the tables keep the means.
    let (dense_ms, pruned_ms) = (best_pass_ms(&spans, &convs), best_pass_ms(&spans60, &convs));
    spans.extend(spans60);
    spans.sort_by_key(|s| s.start);
    let snap = cap_obs::metrics().snapshot();
    // The dense net once more under each precision, pass by pass, for
    // the second summary line (uncalibrated int8: the per-call range
    // scan is part of what the knob costs). Not in the tables, the
    // JSON, the snapshot or the timeline: those stay the pruning story.
    let under = |p: Precision| arm(&dense, Some(p), p.name());
    let [(_, spans_f32), (report_i8, spans_i8)] =
        profile_interleaved([under(Precision::F32), under(Precision::Int8)], &input);

    let mut out = String::new();
    writeln!(out, "# Per-layer profile via the tracer (cap-obs)").unwrap();
    writeln!(
        out,
        "\n{} warm passes per report, batch 1, 3x224x224 input.\n",
        PASSES
    )
    .unwrap();
    out.push_str(&report0.to_text_table());
    out.push('\n');
    out.push_str(&report60.to_text_table());
    out.push('\n');
    out.push_str(&report0.compare_table(&report60));
    writeln!(
        out,
        "\nconv total: dense {dense_ms:.1} ms, pruned-60 {pruned_ms:.1} ms, ratio {:.2}",
        pruned_ms / dense_ms
    )
    .unwrap();
    // ... and one for the other knob: did int8 pay, on the same convs
    // — and on which integer kernel, since the ratio is that kernel's.
    let (f32_ms, int8_ms) = (
        best_pass_ms(&spans_f32, &convs),
        best_pass_ms(&spans_i8, &convs),
    );
    writeln!(
        out,
        "conv total (int8): f32 {f32_ms:.1} ms, int8 {int8_ms:.1} ms, ratio {:.2}, precision {}",
        int8_ms / f32_ms,
        report_i8.precision()
    )
    .unwrap();

    writeln!(out, "\n## JSON exports\n").unwrap();
    writeln!(out, "{}", report0.to_json()).unwrap();
    writeln!(out, "{}", report60.to_json()).unwrap();

    writeln!(out, "\n## Metrics registry snapshot\n").unwrap();
    out.push_str(&snap.to_text());
    writeln!(out, "\njson: {}", snap.to_json()).unwrap();
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_report_covers_caffenet_layers() {
        let net = caffenet(WeightInit::Gaussian { std: 0.01, seed: 1 }).unwrap();
        let input = Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
            ((c + h + w) % 11) as f32 / 11.0 - 0.5
        });
        let arm = |label| Arm {
            net: &net,
            precision: None,
            label,
        };
        let [(report, spans), (twin, _)] =
            profile_interleaved([arm("caffenet"), arm("twin")], &input);
        assert_eq!(twin.layers().len(), report.layers().len());
        // Every executed step shows up exactly once, with
        // calls == PASSES. Under the default fusion mode each fused
        // producer→ReLU pair is one step, so the absorbed ReLU nodes
        // account for the difference to the DAG node count.
        let fused = report.layers().iter().filter(|l| l.fused).count();
        assert_eq!(
            report.layers().len() + fused,
            net.layer_names().count(),
            "steps + absorbed relus must cover every DAG node"
        );
        assert!(report.layers().iter().all(|l| l.calls == PASSES as u64));
        // The raw spans behind the report are exposed for --trace-out:
        // PASSES forward spans plus PASSES spans per layer, each
        // stamped with a start offset and a thread id.
        let forwards = spans
            .iter()
            .filter(|s| s.scope == cap_obs::SpanScope::Forward)
            .count();
        assert_eq!(forwards, PASSES);
        assert!(spans.iter().all(|s| s.tid > 0));
        let convs = net.layers_of_kind(LayerKind::Convolution);
        let conv_share: f64 = convs.iter().map(|name| report.share(name).unwrap()).sum();
        assert!(conv_share > 0.2, "conv share {conv_share}");
        // The best pass's conv time is one pass's, so at most the sum of
        // the conv means (each over the same passes).
        let mean_ms: f64 = (report.layers().iter())
            .filter(|l| convs.contains(&l.name))
            .map(|l| l.mean().as_secs_f64() * 1e3)
            .sum();
        let best = best_pass_ms(&spans, &convs);
        assert!(best > 0.0 && best <= mean_ms + 1e-3, "{best} vs {mean_ms}");
    }
}
