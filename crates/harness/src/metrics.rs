//! Sweep metrics: virtual-time protocol latency distributions plus
//! wall-clock scheduler self-metrics, extracted from recorded traces.
//!
//! The paper reports message *counts*; this module adds the latency
//! axis — how long coordinated recovery actually takes, phase by phase,
//! in **virtual time**. Everything is derived post-run from artifacts the
//! harness already records (the canonical trace, [`NetStats`], the
//! system report), so enabling metrics adds **zero branches to the
//! simulation hot path** and cannot perturb traces: the 12k-seed
//! fingerprint gate holds with metrics on.
//!
//! Two [`MetricSet`]s with different guarantees:
//!
//! * **deterministic** — virtual-time histograms and protocol counters.
//!   Pure functions of the explored seed set: the same sweep serializes
//!   to byte-identical JSON on any machine, and the shard-merged union
//!   (`metrics_merge`) is byte-identical to the unsharded run.
//! * **wall_clock** — driver stage timers, plus the executor's
//!   [`SchedStats`] park/wake counters. Reported for regression ceilings,
//!   excluded from byte-identity claims, and dropped by `metrics_merge`.
//!   (The park/wake counts are deterministic themselves; they stay in this
//!   set because they measure the executor, not the protocol.)

use std::fmt::Write as _;

use caa_runtime::observe::EventKind;
use caa_simnet::{NetStats, SchedStats};
use caa_telemetry::json::{self, Value};
use caa_telemetry::{HistogramHandle, MetricSet};

use crate::exec::RunArtifacts;
use crate::spans::{CriticalPathScratch, SegmentClass};
use crate::trace::EntryKind;

/// Schema tag stamped into every `metrics.json` document.
pub const METRICS_SCHEMA: &str = "caa-metrics/v1";

/// Aggregated sweep metrics: the deterministic (virtual-time) set and the
/// wall-clock set, kept apart because only the former is byte-reproducible
/// (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct SweepMetrics {
    /// Virtual-time histograms and protocol counters — byte-deterministic
    /// per seed set.
    pub deterministic: MetricSet,
    /// Raise→resolve critical-path attribution (`cp_*` nanosecond
    /// counters per [`SegmentClass`], plus `cp_total_ns` and
    /// `cp_instances`). Derived from the causal graph in virtual time, so
    /// byte-deterministic and shard-mergeable like `deterministic`.
    pub critical_path: MetricSet,
    /// Executor park/wake counters and driver stage timers — gate with
    /// ceilings; the stage timers are wall-clock facts.
    pub wall_clock: MetricSet,
}

impl SweepMetrics {
    /// Accumulates `other` (e.g. another worker's or shard's metrics).
    /// Associative and commutative in both sets.
    pub fn merge(&mut self, other: &SweepMetrics) {
        self.deterministic.merge(&other.deterministic);
        self.critical_path.merge(&other.critical_path);
        self.wall_clock.merge(&other.wall_clock);
    }

    /// Human-readable block: protocol latency quantiles (virtual time),
    /// per-class message counts in sorted class order, and the scheduler
    /// handoff counters.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut line = |label: &str, name: &str| {
            if let Some(h) = self.deterministic.histogram_named(name) {
                if h.count() > 0 {
                    let _ = writeln!(
                        out,
                        "{label}: p50 {} p90 {} p99 {} max {} (n={})",
                        fmt_ns(h.quantile(50, 100)),
                        fmt_ns(h.quantile(90, 100)),
                        fmt_ns(h.quantile(99, 100)),
                        fmt_ns(h.max()),
                        h.count(),
                    );
                }
            }
        };
        line(
            "resolution latency (crash-free)",
            "resolution_latency_crashfree_ns",
        );
        line(
            "resolution latency (crash plans)",
            "resolution_latency_crash_ns",
        );
        line("exit round duration", "exit_round_ns");
        line("object acquisition wait", "object_wait_ns");
        line("crash detection latency", "crash_detect_ns");
        line("rejoin restart latency", "rejoin_restart_ns");
        line("rejoin catch-up", "rejoin_catchup_ns");
        let suspicions: Vec<String> = ["resolution", "signalling", "exit"]
            .iter()
            .filter_map(|round| {
                let v = self
                    .deterministic
                    .counter_value(&format!("suspicion_{round}"));
                (v > 0).then(|| format!("{round} {v}"))
            })
            .collect();
        if !suspicions.is_empty() {
            let _ = writeln!(out, "suspicion rounds: {}", suspicions.join(" | "));
        }
        if let Some(h) = self.deterministic.histogram_named("signal_fanout") {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "signalling fan-out: p50 {} p99 {} max {} (instances={})",
                    h.quantile(50, 100),
                    h.quantile(99, 100),
                    h.max(),
                    h.count(),
                );
            }
        }
        if let Some(h) = self.deterministic.histogram_named("resolution_rounds") {
            if h.count() > 0 {
                let _ = writeln!(
                    out,
                    "resolution rounds: p50 {} max {} (instances={})",
                    h.quantile(50, 100),
                    h.max(),
                    h.count(),
                );
            }
        }
        let msgs: Vec<String> = self
            .deterministic
            .counters_sorted()
            .into_iter()
            .filter_map(|(name, v)| {
                name.strip_prefix("msg_sent_")
                    .map(|class| format!("{class} {v}"))
            })
            .collect();
        if !msgs.is_empty() {
            let _ = writeln!(out, "messages sent: {}", msgs.join(" | "));
        }
        let cp_total = self.critical_path.counter_value("cp_total_ns");
        if cp_total > 0 {
            let mut shares: Vec<(u64, &'static str)> = SegmentClass::ALL
                .iter()
                .map(|&class| {
                    (
                        self.critical_path.counter_value(class.counter_name()),
                        class.label(),
                    )
                })
                .filter(|&(ns, _)| ns > 0)
                .collect();
            // Top contributors first; label order breaks ties so the line
            // is deterministic.
            shares.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
            let parts: Vec<String> = shares
                .iter()
                .map(|&(ns, label)| {
                    // Widened: `ns * 100` overflows u64 near 1.8e17 ns.
                    let pct = u128::from(ns) * 100 / u128::from(cp_total);
                    format!("{label} {pct}% ({})", fmt_ns(ns))
                })
                .collect();
            let _ = writeln!(
                out,
                "critical path ({} instances, {} attributed): {}",
                self.critical_path.counter_value("cp_instances"),
                fmt_ns(cp_total),
                parts.join(" | "),
            );
        }
        let parks = self.wall_clock.counter_value("sched_parks");
        let wakes = self.wall_clock.counter_value("sched_wakes");
        let seeds = self
            .deterministic
            .counter_value("seeds_crashfree")
            .saturating_add(self.deterministic.counter_value("seeds_crash"));
        if parks + wakes > 0 {
            let per_seed = parks.checked_div(seeds).unwrap_or(0);
            let _ = writeln!(
                out,
                "sched handoffs: {parks} parks, {wakes} wakes (~{per_seed} parks/seed)"
            );
        }
        let stages: Vec<String> = [
            ("generate", "stage_generate_ns"),
            ("execute", "stage_execute_ns"),
            ("oracle", "stage_oracle_ns"),
            ("metrics", "stage_metrics_ns"),
            ("mutation", "stage_mutation_ns"),
        ]
        .iter()
        .filter_map(|&(label, name)| {
            let ns = self.wall_clock.counter_value(name);
            (ns > 0).then(|| format!("{label} {}", fmt_ns(ns)))
        })
        .collect();
        if !stages.is_empty() {
            let busy = self.wall_clock.counter_value("worker_busy_ns");
            let busy = if busy > 0 {
                format!(" | workers busy {}", fmt_ns(busy))
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "driver stages (wall-clock): {}{busy}",
                stages.join(" | "),
            );
        }
        out
    }

    /// Executor parks per explored seed, rounded up — the regression-guard
    /// number (~57 per default seed).
    /// 0 when no seed was recorded.
    #[must_use]
    pub fn parks_per_seed(&self) -> u64 {
        let parks = self.wall_clock.counter_value("sched_parks");
        let seeds = self
            .deterministic
            .counter_value("seeds_crashfree")
            .saturating_add(self.deterministic.counter_value("seeds_crash"));
        if seeds == 0 {
            0
        } else {
            parks.div_ceil(seeds)
        }
    }
}

/// Serializes a `metrics.json` document. With `include_wall_clock` the
/// document carries both sets; without it (the `metrics_merge`
/// normalization) only the deterministic set, so merged shard unions
/// compare byte-for-byte against the merged unsharded run.
#[must_use]
pub fn metrics_json(metrics: &SweepMetrics, seeds: u64, include_wall_clock: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    let _ = writeln!(out, "  \"seeds\": {seeds},");
    let _ = writeln!(out, "  \"deterministic\":");
    metrics.deterministic.write_json(&mut out, "  ");
    let _ = writeln!(out, ",");
    let _ = writeln!(out, "  \"critical_path\":");
    metrics.critical_path.write_json(&mut out, "  ");
    if include_wall_clock {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "  \"wall_clock\":");
        metrics.wall_clock.write_json(&mut out, "  ");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "}}");
    out
}

/// Parses a `metrics.json` document (either shape — the `wall_clock`
/// section is optional and reads back empty when absent). Returns the
/// seed count and the metrics.
///
/// # Errors
///
/// A human-readable message when the text is not a metrics document.
pub fn parse_metrics_json(text: &str) -> Result<(u64, SweepMetrics), String> {
    let doc = json::parse(text)?;
    json::expect_schema(&doc, METRICS_SCHEMA)?;
    let seeds = doc
        .get("seeds")
        .and_then(Value::as_u64)
        .ok_or("missing \"seeds\"")?;
    let deterministic = MetricSet::from_json_value(
        doc.get("deterministic")
            .ok_or("missing \"deterministic\"")?,
    )?;
    // Optional sections: pre-span documents lack `critical_path`, and
    // merge-normalized documents lack `wall_clock` — both read back empty.
    let optional = |name: &str| match doc.get(name) {
        Some(v) => MetricSet::from_json_value(v),
        None => Ok(MetricSet::new()),
    };
    let critical_path = optional("critical_path")?;
    let wall_clock = optional("wall_clock")?;
    Ok((
        seeds,
        SweepMetrics {
            deterministic,
            critical_path,
            wall_clock,
        },
    ))
}

/// Virtual-time pretty printer for human summaries (never used in
/// serialized output, which stays integer-only).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Pre-registered histogram handles plus reusable critical-path scratch:
/// the per-worker metrics recorder stored in
/// [`ExecutionArena`](crate::arena::ExecutionArena). Registration happens
/// once at construction; recording a run is pure handle indexing over the
/// trace's index, so steady-state sweeps add no allocations to the pinned
/// per-seed budget.
#[derive(Debug)]
pub struct MetricsRecorder {
    metrics: SweepMetrics,
    resolution_crashfree: HistogramHandle,
    resolution_crash: HistogramHandle,
    resolution_rounds: HistogramHandle,
    exit_round: HistogramHandle,
    signal_fanout: HistogramHandle,
    object_wait: HistogramHandle,
    crash_detect: HistogramHandle,
    rejoin_restart: HistogramHandle,
    rejoin_catchup: HistogramHandle,
    run_virtual: HistogramHandle,
    cp_scratch: CriticalPathScratch,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

/// Every histogram a [`MetricsRecorder`] fills, in registration order. A
/// handle is a registration index, so any set registered in this order
/// matches the recorder's handles.
const HISTOGRAMS: [&str; 10] = [
    "resolution_latency_crashfree_ns",
    "resolution_latency_crash_ns",
    "resolution_rounds",
    "exit_round_ns",
    "signal_fanout",
    "object_wait_ns",
    "crash_detect_ns",
    "rejoin_restart_ns",
    "rejoin_catchup_ns",
    "run_virtual_ns",
];

/// An empty metrics set with [`HISTOGRAMS`] registered.
fn registered_metrics() -> SweepMetrics {
    let mut metrics = SweepMetrics::default();
    for name in HISTOGRAMS {
        metrics.deterministic.histogram(name);
    }
    metrics
}

impl MetricsRecorder {
    /// A recorder with every histogram pre-registered.
    #[must_use]
    pub fn new() -> MetricsRecorder {
        let mut metrics = registered_metrics();
        let det = &mut metrics.deterministic;
        let resolution_crashfree = det.histogram("resolution_latency_crashfree_ns");
        let resolution_crash = det.histogram("resolution_latency_crash_ns");
        let resolution_rounds = det.histogram("resolution_rounds");
        let exit_round = det.histogram("exit_round_ns");
        let signal_fanout = det.histogram("signal_fanout");
        let object_wait = det.histogram("object_wait_ns");
        let crash_detect = det.histogram("crash_detect_ns");
        let rejoin_restart = det.histogram("rejoin_restart_ns");
        let rejoin_catchup = det.histogram("rejoin_catchup_ns");
        let run_virtual = det.histogram("run_virtual_ns");
        MetricsRecorder {
            metrics,
            resolution_crashfree,
            resolution_crash,
            resolution_rounds,
            exit_round,
            signal_fanout,
            object_wait,
            crash_detect,
            rejoin_restart,
            rejoin_catchup,
            run_virtual,
            cp_scratch: CriticalPathScratch::new(),
        }
    }

    /// Adds `n` to the wall-clock counter labeled `name` — the hook the
    /// sweep/fuzz drivers use for their stage timers and
    /// worker-utilization counters (never part of byte-identity claims).
    pub fn add_wall(&mut self, name: &str, n: u64) {
        self.metrics.wall_clock.add_named(name, n);
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &SweepMetrics {
        &self.metrics
    }

    /// Takes the accumulated metrics, leaving the recorder empty (handles
    /// and scratch capacity intact) — the end-of-worker merge hook. The
    /// recorder keeps a freshly registered set, so it can record again.
    #[must_use]
    pub fn take_metrics(&mut self) -> SweepMetrics {
        std::mem::replace(&mut self.metrics, registered_metrics())
    }

    /// Extracts one run's metrics from its artifacts: a fold over the
    /// trace's [`InstanceIndex`](crate::index::InstanceIndex) plus the
    /// report's counters. Purely a read — the artifacts (and their
    /// rendered bytes) are untouched.
    pub fn record_run(&mut self, artifacts: &RunArtifacts) {
        let (entries, index) = (artifacts.trace.entries(), artifacts.trace.index());
        let at = |i: u32| entries[i as usize].at_ns;
        let crashed_plan = !artifacts.plan.crashes.is_empty();
        let latency_hist = if crashed_plan {
            self.resolution_crash
        } else {
            self.resolution_crashfree
        };
        let det = &mut self.metrics.deterministic;
        for instance in index.instances() {
            if let (Some(raised), Some(resolved)) = (instance.first_raise, instance.first_resolved)
            {
                det.record(latency_hist, at(resolved).saturating_sub(at(raised)));
            }
            let rounds = instance
                .threads
                .iter()
                .map(|t| t.resolved)
                .max()
                .unwrap_or(0);
            if rounds > 0 {
                det.record(self.resolution_rounds, rounds as u64);
            }
            for &ns in &instance.exit_rounds {
                det.record(self.exit_round, ns);
            }
            for &ns in &instance.rejoin_catchups {
                det.record(self.rejoin_catchup, ns);
            }
            if instance.signal_sends > 0 {
                det.record(self.signal_fanout, instance.signal_sends);
            }
        }
        for &i in &index.acquisitions {
            if let EntryKind::Runtime(event) = &entries[i as usize].kind {
                if let EventKind::ObjectAcquired { waited_ns, .. } = &event.kind {
                    det.record(self.object_wait, *waited_ns);
                }
            }
        }
        for &(crash, view_change) in &index.observer_detections {
            det.record(self.crash_detect, at(view_change).saturating_sub(at(crash)));
        }
        for &(crash, rejoin) in &index.rejoin_restarts {
            det.record(self.rejoin_restart, at(rejoin).saturating_sub(at(crash)));
        }
        let counts = index.counts;
        for (name, n) in [
            ("suspicion_resolution", counts.resolution_timeouts),
            ("suspicion_signalling", counts.signal_timeouts),
            ("suspicion_exit", counts.exit_timeouts),
        ] {
            if n > 0 {
                det.add_named(name, n);
            }
        }
        self.metrics
            .deterministic
            .record(self.run_virtual, artifacts.report.elapsed.as_nanos());

        let seed_class = if crashed_plan {
            "seeds_crash"
        } else {
            "seeds_crashfree"
        };
        self.metrics.deterministic.add_named(seed_class, 1);
        self.record_net_stats(&artifacts.report.net_stats);
        self.record_sched_stats(artifacts.report.sched_stats);

        // Critical-path attribution: walk the causal graph once per
        // resolved instance (virtual-time facts only, so the counters
        // stay byte-deterministic and shard-mergeable). Zero-valued
        // classes are skipped so absent segment kinds never register.
        let cp = &mut self.metrics.critical_path;
        self.cp_scratch.extract(&artifacts.trace, |path| {
            for class in SegmentClass::ALL {
                let ns = path.class_total_ns(class);
                if ns > 0 {
                    cp.add_named(class.counter_name(), ns);
                }
            }
            cp.add_named("cp_total_ns", path.total_ns());
            cp.add_named("cp_instances", 1);
        });
    }

    /// Folds per-class message counters into the deterministic set
    /// (`msg_sent_<class>` in the serialized form).
    fn record_net_stats(&mut self, stats: &NetStats) {
        // Cold path only on the first sight of a class label (there are
        // eight); afterwards `add_named` is a map hit, no allocation.
        for (class, sent) in stats.iter_sent() {
            let mut name = String::with_capacity("msg_sent_".len() + class.len());
            name.push_str("msg_sent_");
            name.push_str(class);
            self.metrics.deterministic.add_named(&name, sent);
        }
        if stats.retransmissions() > 0 {
            self.metrics
                .deterministic
                .add_named("retransmissions", stats.retransmissions());
        }
    }

    /// Folds the executor's park/wake counters into the wall-clock set.
    fn record_sched_stats(&mut self, stats: SchedStats) {
        self.metrics
            .wall_clock
            .add_named("sched_parks", stats.parks);
        self.metrics
            .wall_clock
            .add_named("sched_wakes", stats.wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExecutionArena;
    use crate::exec::execute_in;
    use crate::plan::{ScenarioConfig, ScenarioPlan};

    fn record_seed(recorder: &mut MetricsRecorder, seed: u64, scenario: &ScenarioConfig) {
        let mut arena = ExecutionArena::new();
        let plan = ScenarioPlan::generate(seed, scenario);
        let artifacts = execute_in(&plan, &mut arena);
        recorder.record_run(&artifacts);
    }

    #[test]
    fn records_protocol_latencies_and_counters() {
        let mut recorder = MetricsRecorder::new();
        for seed in 0..24 {
            record_seed(&mut recorder, seed, &ScenarioConfig::default());
        }
        let m = recorder.metrics();
        let runs = m.deterministic.histogram_named("run_virtual_ns").unwrap();
        assert_eq!(runs.count(), 24);
        assert!(runs.max() > 0, "virtual time must elapse");
        let latency = m
            .deterministic
            .histogram_named("resolution_latency_crashfree_ns")
            .unwrap();
        let crash_latency = m
            .deterministic
            .histogram_named("resolution_latency_crash_ns")
            .unwrap();
        assert!(
            latency.count() + crash_latency.count() > 0,
            "24 default seeds must resolve at least one exception"
        );
        assert!(m.deterministic.counter_value("msg_sent_Exception") > 0);
        assert!(m.wall_clock.counter_value("sched_parks") > 0);
        // Critical-path attribution: every resolved instance contributes
        // a path whose segments sum to its latency, so the aggregate
        // totals couple exactly to the latency histograms.
        assert_eq!(
            m.critical_path.counter_value("cp_instances"),
            latency.count() + crash_latency.count(),
        );
        assert_eq!(
            u128::from(m.critical_path.counter_value("cp_total_ns")),
            latency.sum() + crash_latency.sum(),
        );
        let class_sum: u64 = crate::spans::SegmentClass::ALL
            .iter()
            .map(|c| m.critical_path.counter_value(c.counter_name()))
            .sum();
        assert_eq!(class_sum, m.critical_path.counter_value("cp_total_ns"));
        let summary = m.summary();
        assert!(summary.contains("messages sent:"), "{summary}");
        assert!(summary.contains("sched handoffs"), "{summary}");
        assert!(summary.contains("critical path ("), "{summary}");
    }

    #[test]
    fn json_round_trips_and_shard_merge_is_byte_identical() {
        let scenario = ScenarioConfig::default();
        let mut whole = MetricsRecorder::new();
        let mut shard_a = MetricsRecorder::new();
        let mut shard_b = MetricsRecorder::new();
        for seed in 0..12 {
            record_seed(&mut whole, seed, &scenario);
            if seed % 2 == 0 {
                record_seed(&mut shard_a, seed, &scenario);
            } else {
                record_seed(&mut shard_b, seed, &scenario);
            }
        }
        let whole = whole.take_metrics();
        let mut merged = shard_a.take_metrics();
        merged.merge(&shard_b.take_metrics());
        // The deterministic sections agree byte-for-byte; the wall-clock
        // sections need not (host-scheduler dependent), which is exactly
        // why the merge normalization drops them.
        assert_eq!(
            metrics_json(&merged, 12, false),
            metrics_json(&whole, 12, false)
        );
        let doc = metrics_json(&whole, 12, true);
        let (seeds, parsed) = parse_metrics_json(&doc).expect("parse own doc");
        assert_eq!(seeds, 12);
        assert_eq!(metrics_json(&parsed, seeds, true), doc);
    }

    #[test]
    fn recorder_records_again_after_take() {
        let scenario = ScenarioConfig::default();
        let mut recorder = MetricsRecorder::new();
        record_seed(&mut recorder, 0, &scenario);
        let first = recorder.take_metrics();
        record_seed(&mut recorder, 0, &scenario);
        let second = recorder.take_metrics();
        assert_eq!(
            metrics_json(&first, 1, false),
            metrics_json(&second, 1, false),
            "a taken recorder starts over from an empty registered set"
        );
    }

    #[test]
    fn critical_path_shares_do_not_wrap_near_u64_max() {
        let mut m = SweepMetrics::default();
        m.critical_path
            .add_named(SegmentClass::TimeoutSlack.counter_name(), u64::MAX - 1_000);
        m.critical_path.add_named("cp_total_ns", u64::MAX - 10);
        m.critical_path.add_named("cp_instances", 1);
        let summary = m.summary();
        assert!(summary.contains("timeout-slack 99%"), "{summary}");
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_metrics_json("{}").is_err());
        assert!(parse_metrics_json(r#"{"schema": "other/v9", "seeds": 1}"#).is_err());
    }
}
