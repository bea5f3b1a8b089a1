//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics of the CAA reproduction on two workloads (see `README.md`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--out-dir DIR]
//! ```
//!
//! The load is a closed loop: this one driver thread runs the next
//! checked run only after the previous one has been checked. Set-up
//! (state and warm-up) runs several times and `setup_s` is the median.
//! The timed loop then repeats the workload's block for `--seconds` (at
//! least twice), comparing every repeated run with its first-pass
//! record.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` records one
//! span per layer call on every other run, reports per-layer self times
//! from those runs and the tracing overhead against the untraced ones,
//! and writes the spans to `DIR` when the run ends.
//!
//! The last stdout line is one JSON object with every metric the run
//! produced; metrics a workload cannot produce are absent from it.

mod timeline;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use caa_harness::metrics::{metrics_json, SweepMetrics};
use caa_harness::spans::SegmentClass;
use caa_harness::sweep::{sweep, SweepConfig};
use caa_telemetry::MetricSet;

use timeline::{Timeline, ROOT};
use workloads::{Bench, Kind, Pass, RunRecord, Sizes};

/// Seeds between the start seeds of consecutive `--seed` values, so
/// different seeds draw disjoint blocks.
const SEED_STRIDE: u64 = 1_000_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if seed > u64::MAX / SEED_STRIDE / 2 {
        return Err(format!(
            "--seed must be at most {}",
            u64::MAX / SEED_STRIDE / 2
        ));
    }
    Ok(Args {
        kind,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: if tiny { Sizes::tiny() } else { Sizes::full() },
        out_dir,
    })
}

/// A reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Checks the run failed: the result is not to be trusted.
    problems: Vec<String>,
    /// Disagreements in the program's own accounting, recorded without
    /// failing the run.
    findings: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) if value.is_finite() => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
            Some(value) => self.problems.push(format!("{name} is {value}")),
            None => {}
        }
    }
}

/// Exact nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], num: u64, den: u64) -> Option<u64> {
    let len = sorted.len() as u64;
    let rank = (len * num).div_ceil(den).clamp(1, len.max(1));
    sorted.get(usize::try_from(rank - 1).ok()?).copied()
}

fn ratio(num: impl Into<f64>, den: impl Into<f64>) -> Option<f64> {
    let den = den.into();
    (den > 0.0).then(|| num.into() / den)
}

fn median_secs(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything the timed loop measured.
struct Timed {
    first: Pass,
    wall: Duration,
    attempted: u64,
    failed: u64,
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    wall_clock: MetricSet,
}

/// Repeats the block until `seconds` have passed and at least two passes
/// are complete, comparing every repeated run with its first-pass record.
fn timed_loop(bench: &mut Bench, tl: &mut Timeline, args: &Args, report: &mut Report) -> Timed {
    let block = bench.sizes.block;
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut records: Vec<RunRecord> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut passes = 0u64;
    let mut t = Timed {
        first: Pass::default(),
        wall: Duration::ZERO,
        attempted: 0,
        failed: 0,
        untraced_ns: Vec::new(),
        traced_ns: Vec::new(),
        wall_clock: MetricSet::new(),
    };
    let started = Instant::now();
    'timed: loop {
        for i in 0..block {
            if passes >= 2 && started.elapsed() >= deadline {
                break 'timed;
            }
            // Traced runs alternate with untraced ones, shifting by one
            // each pass so every run of the block is measured both ways.
            let traced = args.trace && (i + passes) % 2 == 1;
            tl.set_on(traced);
            let run_started = Instant::now();
            let record = bench.run(i, tl);
            let ns = u64::try_from(run_started.elapsed().as_nanos()).expect("run under 584 years");
            if traced {
                t.traced_ns.push(ns);
            } else {
                t.untraced_ns.push(ns);
            }
            t.attempted += 1;
            t.failed += u64::from(record.failed);
            match records.get(usize::try_from(i).expect("a block fits in memory")) {
                None => records.push(record),
                Some(expected) if *expected != record => report.problems.push(format!(
                    "pass {passes} run {i}: {record:?} differs from the first pass's {expected:?}"
                )),
                Some(_) => {}
            }
        }
        let pass = bench.finish_pass();
        t.wall_clock.merge(&pass.metrics.wall_clock);
        match &first {
            None => first = Some(pass),
            Some(expected) => {
                if expected.deterministic_text() != pass.deterministic_text() {
                    report
                        .problems
                        .push(format!("pass {passes} differs from the first pass"));
                }
            }
        }
        passes += 1;
    }
    t.wall = started.elapsed();
    tl.set_on(false);
    // The runs of an interrupted pass still count for wall-clock facts.
    t.wall_clock.merge(&bench.finish_pass().metrics.wall_clock);
    t.first = first.expect("the loop completes at least two passes");
    t
}

fn main() {
    let process_started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let start_seed = args.seed * SEED_STRIDE;
    let mut report = Report::default();

    // Set-up, several times; the first one includes process start.
    let mut setups = Vec::new();
    let mut bench = None;
    for r in 0..args.sizes.setups {
        drop(bench.take());
        let t = if r == 0 {
            process_started
        } else {
            Instant::now()
        };
        bench = Some(Bench::setup(args.kind, start_seed, args.sizes));
        setups.push(t.elapsed());
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_s = median_secs(setups);

    let mut tl = Timeline::new();
    let timed = timed_loop(&mut bench, &mut tl, &args, &mut report);
    let first = &timed.first;

    if args.kind == Kind::MixedReplay {
        let swept = sweep(&SweepConfig {
            start_seed: bench.start_seed,
            seeds: bench.sizes.block,
            scenario: bench.scenario.clone(),
            check_replay: true,
            corpus_dir: None,
            ..SweepConfig::default()
        });
        compare_metrics(&swept.metrics, swept.seeds_run, first, &mut report);
    }
    check_cp_counters(first, &mut report);

    let m = &mut report;
    if args.trace {
        per_layer(m, &tl, &timed);
    } else {
        end_to_end(m, setup_s, &timed);
    }
    print_report(&args, start_seed, &timed, &report);
    if let Some(dir) = &args.out_dir {
        write_outputs(dir, &args, &tl, &report);
    }
}

/// The deterministic metrics the `sweep()` call behind
/// `replay --sweep N --metrics-out` gives for the block's seed range and
/// scenario space must be the first pass's, byte for byte, and in
/// particular give the same virtual-time quantiles.
fn compare_metrics(theirs: &SweepMetrics, seeds: u64, first: &Pass, m: &mut Report) {
    let q = |x: &SweepMetrics| {
        x.deterministic
            .histogram_named(RESOLVE_HISTOGRAM)
            .map(|h| (h.count(), h.quantile(50, 100), h.quantile(99, 100)))
    };
    if q(theirs) != q(&first.metrics) {
        m.problems.push(format!(
            "{RESOLVE_HISTOGRAM} (count, p50, p99): sweep() gives {:?}, the benchmark {:?}",
            q(theirs),
            q(&first.metrics)
        ));
    }
    if metrics_json(theirs, seeds, false) != metrics_json(&first.metrics, first.runs, false) {
        m.problems
            .push("sweep(): deterministic metrics differ from the first pass".into());
    }
}

/// The virtual-time histogram behind the latency metrics: crash-free
/// raise→resolve.
const RESOLVE_HISTOGRAM: &str = "resolution_latency_crashfree_ns";

/// The program's `u64` critical-path counters against the benchmark's
/// `u128` sums over the same runs.
fn check_cp_counters(first: &Pass, report: &mut Report) {
    let counters = &first.metrics.critical_path;
    for (class, &ours) in SegmentClass::ALL.iter().zip(&first.cp.class_ns) {
        let theirs = counters.counter_value(class.counter_name());
        if u128::from(theirs) != ours {
            report.findings.push(format!(
                "{} = {theirs}, but the paths sum to {ours}",
                class.counter_name()
            ));
        }
    }
    let total = counters.counter_value("cp_total_ns");
    if u128::from(total) != first.cp.total_ns {
        report.findings.push(format!(
            "cp_total_ns = {total}, but the paths sum to {}",
            first.cp.total_ns
        ));
    }
}

fn end_to_end(m: &mut Report, setup_s: f64, t: &Timed) {
    let first = &t.first;
    m.put(
        "seeds_per_s",
        ratio(t.attempted as f64, t.wall.as_secs_f64()),
        "1/s",
    );
    let mut walls = t.untraced_ns.clone();
    walls.sort_unstable();
    m.put(
        "seed_wall_p50_us",
        quantile(&walls, 50, 100).map(|ns| ns as f64 / 1e3),
        "us",
    );
    m.put(
        "seed_wall_p99_us",
        quantile(&walls, 99, 100).map(|ns| ns as f64 / 1e3),
        "us",
    );
    m.put("setup_s", Some(setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "failed_share",
        ratio(t.failed as f64, t.attempted as f64),
        "fraction",
    );
    for (metric, num) in [("resolve_vt_p50_ms", 50), ("resolve_vt_p99_ms", 99)] {
        let ns = vt_quantile(m, first, num);
        m.put(metric, ns.map(|ns| ns as f64 / 1e6), "ms");
    }
    m.put(
        "msgs_per_seed",
        ratio(first.protocol_msgs() as f64, first.runs as f64),
        "msgs/seed",
    );
    m.put(
        "distinct_paths",
        Some(first.signatures.len() as f64),
        "count",
    );
}

/// A raise→resolve latency quantile in virtual nanoseconds: exact, from
/// the benchmark's critical paths, and checked to lie in the bucket the
/// program's histogram reports.
fn vt_quantile(m: &mut Report, first: &Pass, num: u64) -> Option<u64> {
    let h = first
        .metrics
        .deterministic
        .histogram_named(RESOLVE_HISTOGRAM)
        .filter(|h| h.count() > 0);
    let mut exact = first.latencies_ns.clone();
    exact.sort_unstable();
    let q = quantile(&exact, num, 100);
    let bucketed = h.map(|h| (h.count(), h.quantile(num, 100)));
    let agrees = match (q, bucketed) {
        (None, None) => true,
        (Some(q), Some((count, b))) => count == exact.len() as u64 && b >= q && b - q <= q / 8 + 1,
        _ => false,
    };
    if !agrees {
        m.problems.push(format!(
            "{RESOLVE_HISTOGRAM} p{num}: exact {q:?} outside the program's bucket {bucketed:?}"
        ));
    }
    q
}

/// Span names and the per-layer metric each one's self time feeds.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("plan.generate", "plan.generate_us"),
    ("exec.execute", "exec.execute_us"),
    ("oracle.check", "oracle.check_us"),
    ("oracle.replay_compare", "oracle.replay_compare_us"),
    ("metrics.record", "metrics.record_us"),
    ("spans.critical_path", "spans.critical_path_us"),
    ("spans.span_tree", "spans.span_tree_us"),
    ("sweep.coverage", "sweep.coverage_us"),
    ("trace.fingerprint", "trace.fingerprint_us"),
    ("fuzz.mutate", "fuzz.mutate_us"),
    (ROOT, "driver.unattributed_us"),
];

fn per_layer(m: &mut Report, tl: &Timeline, t: &Timed) {
    let first = &t.first;
    let runs = first.runs as f64;
    let per_seed = |n: u64| ratio(n as f64, runs);

    // Self time per checked run, per layer: these partition the run.
    let traced = t.traced_ns.len() as f64;
    match tl.self_time_by_name() {
        Ok(by_name) => {
            for (span, metric) in LAYER_SPANS {
                let ns = by_name.get(span).copied().unwrap_or(0);
                m.put(metric, ratio(ns as f64 / 1e3, traced), "us");
            }
            if let Some((name, _)) = by_name
                .iter()
                .find(|(name, _)| !LAYER_SPANS.iter().any(|(span, _)| span == *name))
            {
                m.problems.push(format!("span {name} feeds no metric"));
            }
        }
        Err(e) => m.problems.push(e),
    }
    m.put(
        "driver.run_wall_us",
        ratio(tl.root_total_ns() as f64 / 1e3, traced),
        "us",
    );
    let mean = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    if let (Some(on), Some(off)) = (mean(&t.traced_ns), mean(&t.untraced_ns)) {
        m.put(
            "driver.tracing_overhead_pct",
            Some((on / off - 1.0) * 100.0),
            "%",
        );
    }

    // Counts the program returns (per seed, deterministic unless noted).
    let det = &first.metrics.deterministic;
    let cov = &first.coverage;
    let msgs = first.protocol_msgs();
    let resolutions = det
        .histogram_named("resolution_rounds")
        .map_or(0, caa_telemetry::Histogram::count);
    let parks = t.wall_clock.counter_value("sched_parks");
    let wakes = t.wall_clock.counter_value("sched_wakes");
    // Host-scheduler counts cover every run of the loop.
    m.put(
        "simnet.parks_per_seed",
        ratio(parks as f64, t.attempted as f64),
        "1/seed",
    );
    m.put(
        "simnet.wakes_per_seed",
        ratio(wakes as f64, t.attempted as f64),
        "1/seed",
    );
    m.put("simnet.msgs_per_seed", per_seed(msgs), "msgs/seed");
    m.put(
        "runtime.msgs_per_resolution",
        ratio(msgs as f64, resolutions as f64),
        "msgs",
    );
    m.put(
        "runtime.resolutions_per_seed",
        per_seed(resolutions),
        "1/seed",
    );
    m.put(
        "runtime.recoveries_per_seed",
        per_seed(cov.recoveries),
        "1/seed",
    );
    m.put("runtime.aborts_per_seed", per_seed(cov.aborts), "1/seed");
    m.put(
        "objects.acquisitions_per_seed",
        per_seed(cov.object_acquisitions),
        "1/seed",
    );
    m.put(
        "objects.wait_vt_p99_ms",
        det.histogram_named("object_wait_ns")
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(99, 100) as f64 / 1e6),
        "ms",
    );
    m.put("simnet.dropped_per_seed", per_seed(first.dropped), "1/seed");
    for (metric, class) in [
        ("cp.message_wait_share", SegmentClass::MessageWait),
        ("cp.compute_share", SegmentClass::Compute),
    ] {
        m.put(metric, first.cp.share(class), "fraction");
    }

    // Time per unit of exec work.
    let exec_us = m
        .metrics
        .iter()
        .find(|x| x.name == "exec.execute_us")
        .map(|x| x.value);
    if let Some(exec_us) = exec_us {
        m.put(
            "exec.us_per_trace_entry",
            ratio(exec_us, first.entries_executed as f64 / runs)
                .filter(|_| first.entries_executed > 0),
            "us",
        );
        m.put(
            "exec.us_per_park",
            ratio(exec_us, parks as f64 / t.attempted as f64),
            "us",
        );
    }
}

fn print_report(args: &Args, start_seed: u64, t: &Timed, report: &Report) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} --seed {} (start seed {start_seed}) --trace {}: {} runs in {:.2?}, {} failed",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        t.attempted,
        t.wall,
        t.failed,
    );
    for metric in &report.metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for finding in &report.findings {
        let _ = writeln!(out, "  finding: {finding}");
    }
    for problem in &report.problems {
        let _ = writeln!(out, "  PROBLEM: {problem}");
    }
    print!("{out}");
    println!("{}", result_json(t, report));
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_json(t: &Timed, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&x.name),
                x.value,
                json_string(x.unit)
            )
        })
        .collect();
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
         \"problems\": [{}], \"findings\": [{}]}}",
        report.problems.is_empty(),
        t.attempted,
        t.failed,
        metrics.join(", "),
        list(&report.problems),
        list(&report.findings),
    )
}

fn write_outputs(dir: &std::path::Path, args: &Args, tl: &Timeline, report: &Report) {
    if !args.trace {
        return;
    }
    let path = dir.join(format!("spans-{}-seed{}.csv", args.kind.name(), args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tl.to_csv()));
    match written {
        Ok(()) => eprintln!(
            "wrote {} spans to {} ({} problems)",
            tl.spans().len(),
            path.display(),
            report.problems.len()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
