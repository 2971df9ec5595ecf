//! Per-layer profiling through the observability layer: the
//! acceptance experiment for `cap-obs`. Attaches a
//! [`CollectingTracer`] to real Caffenet forward passes at 0% and 60%
//! uniform convolution pruning, renders both [`ProfileReport`]s as
//! text tables and JSON, diffs them, and dumps the global metrics
//! snapshot gathered along the way.

use cap_cnn::models::{caffenet, WeightInit};
use cap_cnn::{CollectingTracer, ForwardArena, LayerKind, Network, ProfileReport};
use cap_obs::{SpanRecord, TimingGuard};
use cap_pruning::{apply_to_network, PruneAlgorithm, PruneSpec};
use cap_tensor::{precision, Precision, Tensor4};
use std::fmt::Write;

/// Timed passes per report. One warm-up pass precedes them so the
/// arena and weight pages are faulted in before any span is recorded.
const PASSES: usize = 3;

/// Run `PASSES` traced forward passes into the shared `tracer`, drain
/// its spans, and aggregate them into a [`ProfileReport`] (per-layer
/// `calls` = `PASSES`, so `mean()` is the mean over warm passes).
///
/// The tracer is shared across calls so every span's start offset is
/// measured from one common epoch — that keeps the dense and pruned
/// sections of the `--trace-out` timeline on a single consistent time
/// axis instead of two overlapping ones.
fn profile(
    net: &Network,
    input: &Tensor4,
    label: &str,
    tracer: &CollectingTracer,
) -> (ProfileReport, Vec<SpanRecord>) {
    let mut arena = ForwardArena::new();
    // Warm-up: untraced, absorbs arena growth and first-touch faults.
    net.forward_into(input, &mut arena)
        .expect("warm-up forward");
    for _ in 0..PASSES {
        net.forward_into_traced(input, &mut arena, tracer)
            .expect("traced forward");
    }
    let spans = tracer.take_spans();
    (ProfileReport::from_spans(label, &spans), spans)
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

    let tracer = CollectingTracer::new();
    let (report0, mut spans) = profile(&dense, &input, "caffenet @ 0%", &tracer);
    let (report60, spans60) = profile(&pruned, &input, "caffenet @ 60% conv pruning", &tracer);
    spans.extend(spans60);
    let snap = cap_obs::metrics().snapshot();
    // The dense net once more under each precision, back to back, for
    // the second summary line (uncalibrated int8: the per-call range
    // scan is part of what the knob costs). Not in the tables, the
    // JSON, the snapshot or the timeline: those stay the pruning story.
    let profile_under = |p: Precision| {
        precision::force(Some(p));
        let (report, _) = profile(&dense, &input, p.name(), &tracer);
        precision::force(None);
        report
    };
    let (report_f32, report_i8) = (
        profile_under(Precision::F32),
        profile_under(Precision::Int8),
    );

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
    // One line for CI's job summary: did pruning pay, in total?
    let conv_ms = |report: &ProfileReport| -> f64 {
        let rows = report.layers().iter();
        rows.filter(|l| convs.contains(&l.name))
            .map(|l| l.mean().as_secs_f64() * 1e3)
            .sum()
    };
    let (dense_ms, pruned_ms) = (conv_ms(&report0), conv_ms(&report60));
    writeln!(
        out,
        "\nconv total: dense {dense_ms:.1} ms, pruned-60 {pruned_ms:.1} ms, ratio {:.2}",
        pruned_ms / dense_ms
    )
    .unwrap();
    // ... and one for the other knob: did int8 pay, on the same convs
    // — and on which integer kernel, since the ratio is that kernel's.
    let (f32_ms, int8_ms) = (conv_ms(&report_f32), conv_ms(&report_i8));
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
        let tracer = CollectingTracer::new();
        let (report, spans) = profile(&net, &input, "caffenet", &tracer);
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
        let conv_share: f64 = net
            .layers_of_kind(LayerKind::Convolution)
            .iter()
            .map(|name| report.share(name).unwrap())
            .sum();
        assert!(conv_share > 0.2, "conv share {conv_share}");
    }
}
