//! The result stamp, the metric tables and the final JSON line.

use crate::plane::PlaneKind;
use crate::run::RunOut;
use crate::trace::{self, Name};
use crate::workload::{Spec, PERIOD};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("tick_mean_us", "us"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("update_bytes_per_tick", "B"),
    ("fct_p99_us", "sim_us"),
    ("overalloc_p99_gbps", "Gbit/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("intake.us_per_tick", "us"),
    ("intake.ns_per_msg", "ns"),
    ("intake.msgs_per_tick", "count"),
    ("intake.rejected", "count"),
    ("alloc.us_per_tick", "us"),
    ("alloc.full_sweep_us", "us"),
    ("alloc.dirty_flows_per_tick", "count"),
    ("alloc.dirty_links_per_tick", "count"),
    ("export.us_per_tick", "us"),
    ("export.ns_per_flow", "ns"),
    ("export.updates_per_tick", "count"),
    ("export.sent_ratio", "ratio"),
    ("sharded.shard_max_us", "us"),
    ("sharded.shard_sum_us", "us"),
    ("sharded.exchange_us", "us"),
    ("sharded.fanout_wait_us", "us"),
    ("exchange.bytes_per_tick", "B"),
    ("exchange.rounds", "count"),
    ("peer.begin_us", "us"),
    ("peer.encode_send_us", "us"),
    ("peer.finish_us", "us"),
    ("peer.finish_p99_us", "us"),
    ("wire.tx_bytes_per_tick", "B"),
    ("wire.rx_frames_per_tick", "count"),
    ("wire.rounds_behind_peak", "count"),
    ("wire.decode_errors", "count"),
    ("merge.us_per_tick", "us"),
    ("trace.unaccounted_us_per_tick", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured, or why it is 0 on this workload.
    pub note: String,
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host and set-up stamp printed ahead of the results.
pub fn stamp(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = first_line(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
        &["--version"],
    );
    let git = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    vec![
        format!(
            "ctlbench workload={} seed={seed} seconds={seconds} trace={}",
            spec.name, trace as u8
        ),
        format!("host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" git={git}"),
        format!("workload: {}", spec.describe()),
        format!("exchange bytes cross: {}", spec.plane.exchange_path()),
    ]
}

/// Nearest-rank `q` quantile of a value → count map.
fn quantile_counts(counts: &std::collections::BTreeMap<u64, u64>, q: f64) -> Option<u64> {
    let n: u64 = counts.values().sum();
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    let mut seen = 0;
    counts.iter().find_map(|(&v, &c)| {
        seen += c;
        (seen >= rank).then_some(v)
    })
}

/// Nearest-rank `q` quantile of unsorted values (0 when empty).
fn quantile_f64(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every metric is listed")
}

fn metric(name: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit: unit_of(name),
        note: note.into(),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(spec: &Spec, out: &RunOut) -> Vec<Metric> {
    let h = &out.hist;
    let n = h.count();
    let window = spec.window_ticks as f64;
    let tick_us = spec.cfg.tick_interval_ps as f64 / 1e6;
    let fct = quantile_counts(&out.det.fct_ticks, 0.99);
    vec![
        metric(
            "tick_mean_us",
            h.mean_ns() / 1e3,
            format!(
                "whole-run on-clock wall / ticks, {n} ticks = {} whole {}-tick periods",
                n / PERIOD,
                PERIOD
            ),
        ),
        metric(
            "tick_p50_us",
            h.quantile_ns(0.5) / 1e3,
            format!("batch delivery -> update batch returned, n={n}"),
        ),
        metric(
            "tick_p99_us",
            h.quantile_ns(0.99) / 1e3,
            format!(
                "n={n}, {} samples above; max {:.1} us",
                n / 100,
                h.max_ns() as f64 / 1e3
            ),
        ),
        metric(
            "update_bytes_per_tick",
            out.det.update_bytes as f64 / window,
            format!(
                "deterministic: {} RateUpdates over the {}-tick window",
                out.det.updates, spec.window_ticks
            ),
        ),
        metric(
            "fct_p99_us",
            fct.map_or(0.0, |t| t as f64 * tick_us),
            format!(
                "deterministic, simulated: p99 of {} flowlets started and completed in the window",
                out.det.fct_ticks.values().sum::<u64>()
            ),
        ),
        metric(
            "overalloc_p99_gbps",
            quantile_f64(&out.det.overalloc_samples, 0.99),
            format!(
                "deterministic: p99 over {} sampled window ticks of raw sum(max(0, load - capacity))",
                out.det.overalloc_samples.len()
            ),
        ),
        metric(
            "setup_s",
            median(&out.setup_s),
            format!(
                "median of {} set-ups: {:?}",
                out.setup_s.len(),
                out.setup_s
                    .iter()
                    .map(|s| (s * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            ),
        ),
        metric("rss_peak_mb", out.rss_mb, "VmHWM of the whole run"),
    ]
}

/// Rows the table prints beside the metrics: quantities the JSON
/// carries in another form (`failed`/`attempted`) or leaves out (the
/// over-allocation peak).
pub fn extras(out: &RunOut) -> Vec<(&'static str, f64, &'static str, String)> {
    vec![
        (
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            format!(
                "{} failed of {} attempted (the JSON's failed / attempted)",
                out.failed, out.attempted
            ),
        ),
        (
            "overalloc_peak_gbps",
            out.det
                .overalloc_samples
                .iter()
                .copied()
                .fold(0.0, f64::max),
            "Gbit/s",
            "deterministic: peak of the same samples".into(),
        ),
    ]
}

/// The layers on a plane's path, by metric-name prefix.
pub fn layers_on(kind: PlaneKind) -> &'static [&'static str] {
    match kind {
        PlaneKind::Single => &["intake", "alloc", "export", "trace"],
        PlaneKind::Sharded(_) => &[
            "intake", "alloc", "export", "sharded", "exchange", "merge", "trace",
        ],
        PlaneKind::Uds(_) => &[
            "intake", "alloc", "export", "sharded", "exchange", "peer", "wire", "merge", "trace",
        ],
    }
}

/// The per-layer metrics of a traced run: every metric of the layers on
/// the workload's path (0 where a metric of such a layer has no
/// meaning here, as the note says).
pub fn layer_metrics(spec: &Spec, out: &RunOut) -> Vec<Metric> {
    let l = &out.layers;
    let ticks = l.ticks.max(1) as f64;
    let per_tick_us = |ns: f64| ns / ticks / 1e3;
    let window = spec.window_ticks as f64;
    let spans = trace::self_times(out.tracer.spans());
    let t = |n: Name| spans[n as usize];
    let kind = spec.plane;
    let inproc = matches!(kind, PlaneKind::Sharded(_));
    let wire = matches!(kind, PlaneKind::Uds(_));
    let d = &out.det;

    let intake_ns = t(Name::Intake).self_ns as f64;
    let poll_ns = t(Name::Poll).total_ns as f64;
    let begin_ns = t(Name::Begin).total_ns as f64;
    let finish_ns = t(Name::Finish).total_ns as f64;
    let merge_ns = t(Name::Merge).total_ns as f64;
    let wall_ns = t(Name::Tick).total_ns as f64;
    let fanout_wait_ns = poll_ns - l.exchange_ns - l.shard_max_ns;
    // The layers' self times along the tick's blocking path.
    let layer_sum = intake_ns
        + match kind {
            PlaneKind::Single => l.alloc_ns + l.export_ns,
            PlaneKind::Sharded(_) => l.shard_max_ns + l.exchange_ns + fanout_wait_ns,
            PlaneKind::Uds(_) => begin_ns + finish_ns + merge_ns,
        };
    let mut finish = crate::hist::LogHist::new();
    for s in out.tracer.spans().iter().filter(|s| s.name == Name::Finish) {
        finish.record(s.end_ns - s.start_ns);
    }
    let measured = out.ticks.max(1) as f64;
    let (tx, rx, peak) = out.wire;
    let only = |on: bool, v: f64, note: &str| {
        if on {
            (v, note.to_string())
        } else {
            (0.0, format!("n/a on {}: 0", spec.name))
        }
    };
    let incremental = |note: &str| only(spec.cfg.incremental, 0.0, note).1;
    let rows: Vec<(&'static str, f64, String)> = vec![
        (
            "intake.us_per_tick",
            per_tick_us(intake_ns),
            "intake span self time".into(),
        ),
        (
            "intake.ns_per_msg",
            intake_ns / l.msgs.max(1) as f64,
            format!("{} notifications in {} traced ticks", l.msgs, l.ticks),
        ),
        (
            "intake.msgs_per_tick",
            l.msgs as f64 / ticks,
            "starts + ends per traced tick".into(),
        ),
        (
            "intake.rejected",
            out.rejected as f64,
            "notifications rejected over the measured run".into(),
        ),
        (
            "alloc.us_per_tick",
            per_tick_us(l.alloc_ns),
            "PhaseTimings.allocate, summed over shards".into(),
        ),
        (
            "alloc.full_sweep_us",
            l.full_sweep_ns / l.full_sweeps.max(1) as f64 / 1e3,
            format!(
                "allocate on the {} traced ticks that recomputed every flow",
                l.full_sweeps
            ),
        ),
        (
            "alloc.dirty_flows_per_tick",
            d.dirty_flows as f64 / window,
            incremental("deterministic, window"),
        ),
        (
            "alloc.dirty_links_per_tick",
            d.dirty_links as f64 / window,
            incremental("deterministic, window"),
        ),
        (
            "export.us_per_tick",
            per_tick_us(l.export_ns),
            "PhaseTimings.export, summed over shards".into(),
        ),
        (
            "export.ns_per_flow",
            l.export_ns / l.considered.max(1) as f64,
            "export time / flows considered (sent + suppressed)".into(),
        ),
        (
            "export.updates_per_tick",
            d.updates as f64 / window,
            "deterministic, window".into(),
        ),
        (
            "export.sent_ratio",
            d.updates as f64 / d.considered.max(1) as f64,
            "deterministic: sent / (sent + suppressed), window".into(),
        ),
        (
            "sharded.shard_max_us",
            per_tick_us(l.shard_max_ns),
            "slowest shard's allocate + export per tick".into(),
        ),
        (
            "sharded.shard_sum_us",
            per_tick_us(l.shard_sum_ns),
            "all shards' allocate + export per tick".into(),
        ),
        {
            let (v, n) = only(
                inproc,
                per_tick_us(l.exchange_ns),
                "routing layer's exchange (PhaseTimings.exchange)",
            );
            ("sharded.exchange_us", v, n)
        },
        {
            let (v, n) = only(
                inproc,
                per_tick_us(fanout_wait_ns),
                "poll wall - exchange - slowest shard",
            );
            ("sharded.fanout_wait_us", v, n)
        },
        (
            "exchange.bytes_per_tick",
            d.exchange_bytes as f64 / window,
            "deterministic, window".into(),
        ),
        (
            "exchange.rounds",
            d.exchange_rounds as f64,
            "deterministic, window".into(),
        ),
        (
            "peer.begin_us",
            per_tick_us(begin_ns),
            "begin_round spans, summed over peers".into(),
        ),
        (
            "peer.encode_send_us",
            per_tick_us(begin_ns - l.alloc_ns - l.export_ns),
            "begin_round minus the services' allocate + export".into(),
        ),
        (
            "peer.finish_us",
            per_tick_us(finish_ns),
            "finish spans (barrier wait + decode + install), summed over peers".into(),
        ),
        (
            "peer.finish_p99_us",
            finish.quantile_ns(0.99) / 1e3,
            format!("p99 of {} finish calls", finish.count()),
        ),
        (
            "wire.tx_bytes_per_tick",
            tx as f64 / measured,
            "WireStats.tx_bytes, measured run".into(),
        ),
        (
            "wire.rx_frames_per_tick",
            rx as f64 / measured,
            "WireStats.rx_frames, measured run".into(),
        ),
        (
            "wire.rounds_behind_peak",
            peak as f64,
            "WireStats peak rounds behind".into(),
        ),
        (
            "wire.decode_errors",
            out.decode_errors as f64,
            "exchange decode errors, measured run".into(),
        ),
        if wire {
            (
                "merge.us_per_tick",
                per_tick_us(merge_ns),
                "merge span".into(),
            )
        } else {
            (
                "merge.us_per_tick",
                per_tick_us(l.merge_replay_ns),
                "merge_by_token_into replayed off the clock on the split stream".into(),
            )
        },
        (
            "trace.unaccounted_us_per_tick",
            per_tick_us(wall_ns - layer_sum),
            "traced wall - sum of layer self times".into(),
        ),
        (
            "trace.overhead_frac",
            out.hist_traced.mean_ns() / out.hist.mean_ns() - 1.0,
            format!(
                "traced tick_mean {:.3} us over untraced {:.3} us, minus one",
                out.hist_traced.mean_ns() / 1e3,
                out.hist.mean_ns() / 1e3
            ),
        ),
    ];
    let on_path = layers_on(kind);
    rows.into_iter()
        .filter(|(name, ..)| on_path.iter().any(|p| name.split('.').next() == Some(p)))
        .map(|(name, value, note)| metric(name, value, note))
        .collect()
}

/// Prints the human-readable table.
pub fn print_table(metrics: &[Metric], extras: &[(&str, f64, &str, String)]) {
    for m in metrics {
        println!("{:<30} {:>16.4} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
    for (name, value, unit, note) in extras {
        println!("{name:<30} {value:>16.4} {unit:<7} {note}");
    }
}

/// The final JSON line.
pub fn json_line(out: &RunOut, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_map_quantiles_are_nearest_rank() {
        let counts: std::collections::BTreeMap<u64, u64> =
            [(1, 50), (2, 40), (9, 9), (40, 1)].into_iter().collect();
        assert_eq!(quantile_counts(&counts, 0.5), Some(1));
        assert_eq!(quantile_counts(&counts, 0.9), Some(2));
        assert_eq!(quantile_counts(&counts, 0.99), Some(9));
        assert_eq!(quantile_counts(&counts, 1.0), Some(40));
        assert_eq!(quantile_counts(&Default::default(), 0.99), None);
        assert_eq!(quantile_f64(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
