//! `sweep_bench` — the sweep-throughput benchmark behind `BENCH_sweep.json`.
//!
//! Measures how fast the harness explores deterministic simulation seeds,
//! under the honest accounting the sweep summary uses: **seeds/s** (what a
//! CI budget buys) and **executions/s** (the real work rate — with
//! `check_replay` every seed executes twice). Three configurations:
//!
//! * `default` — the acceptance-sweep scenario space, no replay check;
//! * `default+replay` — the same space with byte-exact replay checking;
//! * `object-heavy` — [`ScenarioConfig::object_heavy`]: every plan carries
//!   a contended shared-object pool with ≥ 4 participants, the workload
//!   the wake-on-release arbitration refactor targets.
//!
//! ```text
//! cargo run -p caa-bench --release --bin sweep_bench -- \
//!     [--seeds N] [--workers N] [--shard k/n] [--out BENCH_sweep.json] \
//!     [--min-seeds-per-sec N] [--max-handoffs-per-seed N] \
//!     [--append-to BENCH_sweep.json --label TEXT]
//! ```
//!
//! `--shard k/n` restricts the run to one deterministic shard of the seed
//! range (see `caa_harness::sweep::Shard`), so CI matrices or multiple
//! machines can split one big sweep without coordination.
//!
//! `--min-seeds-per-sec N` turns the run into a perf smoke gate: the
//! process exits nonzero if any case explores fewer than `N` seeds/s.
//! CI passes a deliberately generous floor — an order of magnitude below
//! the trajectory in `BENCH_sweep.json` — so hardware jitter never trips
//! it but a structural collapse (an accidental O(n²), a lost wake-up
//! path, a per-seed allocation storm) cannot slip through unnoticed.
//!
//! `--max-handoffs-per-seed N` gates the executor's park counter the
//! same way: a seed suspends its participant tasks a fixed, deterministic
//! number of times (~57/seed by default), and a lost targeted-wakeup
//! optimisation shows up as that number exploding long before wall-clock
//! noise would reveal it.
//!
//! Alongside the bench JSON, the run writes the merged `metrics.json`
//! (all cases' [`SweepMetrics`] unioned) next to `--out` — protocol
//! latency distributions in virtual time, mergeable across shards with
//! the `metrics_merge` bin.
//!
//! The JSON is a flat, diff-friendly document uploaded as a CI artifact
//! (the per-commit measurement). The `BENCH_sweep.json` committed at the
//! workspace root is the longer-lived perf trajectory: it aggregates
//! labeled runs of this bench (`{"runs": [{label, cases}, …]}`) so
//! before/after numbers for scheduler changes stay recorded.
//!
//! `--append-to FILE --label TEXT` adds this run to such a trajectory as
//! one new row, leaving the recorded rows untouched (see
//! `caa_bench::trajectory`). Such a run repeats every case
//! `TRAJECTORY_REPEATS` (5) times, interleaved; the row records the min,
//! median (`seeds_per_s`) and max seeds/s over the repeats, next to the
//! deterministic work counters of the case: trace entries, executor parks
//! and wakes, and messages sent.
//! With `--append-to`, the flat document (and `metrics.json`) is written
//! only when `--out` is also given.

use std::fmt::Write as _;
use std::time::Instant;

use caa_bench::trajectory::{append_run, json_string};
use caa_harness::metrics::{metrics_json, SweepMetrics};
use caa_harness::plan::ScenarioConfig;
use caa_harness::sweep::{sweep, Shard, SweepConfig, SweepReport};

struct BenchCase {
    name: &'static str,
    scenario: ScenarioConfig,
    check_replay: bool,
}

struct BenchResult {
    name: &'static str,
    report: SweepReport,
}

fn run_case(case: &BenchCase, seeds: u64, workers: usize, shard: Option<Shard>) -> BenchResult {
    let report = sweep(&SweepConfig {
        start_seed: 0,
        seeds,
        workers,
        scenario: case.scenario.clone(),
        check_replay: case.check_replay,
        corpus_dir: None,
        shard,
    });
    assert!(
        report.all_passed(),
        "bench sweep '{}' found violating seeds:\n{}",
        case.name,
        report.summary()
    );
    BenchResult {
        name: case.name,
        report,
    }
}

/// The worker count a `--workers` value runs with (0 = one per CPU).
fn resolved_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
}

fn json(results: &[BenchResult], seeds: u64, workers: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"sweep\",");
    let _ = writeln!(out, "  \"seeds_per_case\": {seeds},");
    let _ = writeln!(out, "  \"workers\": {},", resolved_workers(workers));
    let _ = writeln!(out, "  \"cases\": [");
    for (i, r) in results.iter().enumerate() {
        let report = &r.report;
        let wall = report.wall.as_secs_f64();
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"config\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"seeds\": {},", report.seeds_run);
        let _ = writeln!(out, "      \"executions\": {},", report.executions_run);
        let _ = writeln!(out, "      \"wall_s\": {wall:.4},");
        let _ = writeln!(out, "      \"seeds_per_s\": {:.1},", report.seeds_per_sec());
        let _ = writeln!(
            out,
            "      \"executions_per_s\": {:.1},",
            report.executions_per_sec()
        );
        let _ = writeln!(out, "      \"trace_entries\": {},", report.trace_entries);
        let _ = writeln!(
            out,
            "      \"trace_entries_per_s\": {:.0},",
            report.trace_entries as f64 / wall.max(1e-9)
        );
        let _ = writeln!(out, "      \"virtual_secs\": {:.0}", report.virtual_secs);
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs of every case behind one `--append-to` row: enough for a median
/// and a spread.
const TRAJECTORY_REPEATS: usize = 5;

/// One trajectory row for `--append-to`: per case, seeds/s over the
/// repeats (`rates[case]`) and the first repeat's work counters.
fn trajectory_row(
    label: &str,
    results: &[BenchResult],
    rates: &[Vec<f64>],
    seeds: u64,
    workers: usize,
) -> String {
    let mut out = String::from("    {\n");
    let _ = writeln!(out, "      \"label\": {},", json_string(label));
    let _ = writeln!(out, "      \"workers\": {},", resolved_workers(workers));
    let _ = writeln!(out, "      \"seeds_per_case\": {seeds},");
    let _ = writeln!(out, "      \"repeats\": {},", rates[0].len());
    let _ = writeln!(out, "      \"cases\": [");
    for (i, (r, rates)) in results.iter().zip(rates).enumerate() {
        let mut sorted = rates.clone();
        sorted.sort_by(f64::total_cmp);
        let report = &r.report;
        let metrics = &report.metrics;
        let messages: u64 = metrics
            .deterministic
            .counters_sorted()
            .into_iter()
            .filter(|(name, _)| name.starts_with("msg_sent_"))
            .map(|(_, sent)| sent)
            .sum();
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"config\": \"{}\",", r.name);
        let _ = writeln!(out, "          \"seeds\": {},", report.seeds_run);
        let _ = writeln!(out, "          \"executions\": {},", report.executions_run);
        let _ = writeln!(out, "          \"seeds_per_s_min\": {:.1},", sorted[0]);
        let _ = writeln!(
            out,
            "          \"seeds_per_s\": {:.1},",
            sorted[sorted.len() / 2]
        );
        let _ = writeln!(
            out,
            "          \"seeds_per_s_max\": {:.1},",
            sorted[sorted.len() - 1]
        );
        let _ = writeln!(
            out,
            "          \"trace_entries\": {},",
            report.trace_entries
        );
        let _ = writeln!(
            out,
            "          \"parks\": {},",
            metrics.wall_clock.counter_value("sched_parks")
        );
        let _ = writeln!(
            out,
            "          \"wakes\": {},",
            metrics.wall_clock.counter_value("sched_wakes")
        );
        let _ = writeln!(out, "          \"messages\": {messages}");
        let _ = writeln!(
            out,
            "        }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("      ]\n    }");
    out
}

fn main() {
    let mut seeds: u64 = 2000;
    let mut workers: usize = 0;
    let mut shard: Option<Shard> = None;
    let mut out_path: Option<String> = None;
    let mut min_seeds_per_sec: Option<f64> = None;
    let mut max_handoffs_per_seed: Option<u64> = None;
    let mut append_to: Option<String> = None;
    let mut label: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().expect("--seeds N"),
            "--workers" => workers = value("--workers").parse().expect("--workers N"),
            "--shard" => {
                shard = Some(Shard::parse(&value("--shard")).unwrap_or_else(|e| {
                    eprintln!("bad --shard value: {e}");
                    std::process::exit(2);
                }));
            }
            "--out" => out_path = Some(value("--out")),
            "--append-to" => append_to = Some(value("--append-to")),
            "--label" => label = Some(value("--label")),
            "--min-seeds-per-sec" => {
                min_seeds_per_sec = Some(
                    value("--min-seeds-per-sec")
                        .parse()
                        .expect("--min-seeds-per-sec N"),
                );
            }
            "--max-handoffs-per-seed" => {
                max_handoffs_per_seed = Some(
                    value("--max-handoffs-per-seed")
                        .parse()
                        .expect("--max-handoffs-per-seed N"),
                );
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: sweep_bench [--seeds N] [--workers N] \
                     [--shard k/n] [--out PATH] [--min-seeds-per-sec N] \
                     [--max-handoffs-per-seed N] \
                     [--append-to PATH --label TEXT]"
                );
                std::process::exit(2);
            }
        }
    }

    let cases = [
        BenchCase {
            name: "default",
            scenario: ScenarioConfig::default(),
            check_replay: false,
        },
        BenchCase {
            name: "default+replay",
            scenario: ScenarioConfig::default(),
            check_replay: true,
        },
        BenchCase {
            name: "object-heavy",
            scenario: ScenarioConfig::object_heavy(),
            check_replay: false,
        },
    ];

    if append_to.is_some() != label.is_some() {
        eprintln!("--append-to and --label go together");
        std::process::exit(2);
    }
    let repeat = if append_to.is_some() {
        TRAJECTORY_REPEATS
    } else {
        1
    };
    if append_to.is_none() && out_path.is_none() {
        out_path = Some(String::from("BENCH_sweep.json"));
    }

    let started = Instant::now();
    // The first repeat's results; seeds/s of every repeat per case.
    let mut results = Vec::new();
    let mut rates = vec![Vec::with_capacity(repeat); cases.len()];
    for round in 0..repeat {
        for (case, rates) in cases.iter().zip(&mut rates) {
            let result = run_case(case, seeds, workers, shard);
            eprintln!("{}: {}", result.name, result.report.summary());
            rates.push(result.report.seeds_per_sec());
            if round == 0 {
                results.push(result);
            }
        }
    }
    let doc = json(&results, seeds, workers);
    print!("{doc}");

    if let Some(out_path) = &out_path {
        std::fs::write(out_path, &doc).expect("write bench JSON");
        eprintln!("wrote {out_path} in {:.2?}", started.elapsed());

        // Union of every case's metrics, written next to the bench JSON.
        let mut merged = SweepMetrics::default();
        let mut seeds_total = 0;
        for result in &results {
            merged.merge(&result.report.metrics);
            seeds_total += result.report.seeds_run;
        }
        let metrics_path = match out_path.rfind('/') {
            Some(slash) => format!("{}/metrics.json", &out_path[..slash]),
            None => String::from("metrics.json"),
        };
        std::fs::write(&metrics_path, metrics_json(&merged, seeds_total, true))
            .expect("write metrics JSON");
        eprintln!("wrote {metrics_path}");
    }

    if let (Some(path), Some(label)) = (&append_to, &label) {
        let row = trajectory_row(label, &results, &rates, seeds, workers);
        let document = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let appended = append_run(&document, &row).unwrap_or_else(|e| {
            eprintln!("cannot append to {path}: {e}");
            std::process::exit(2);
        });
        std::fs::write(path, appended).expect("write the trajectory");
        eprintln!("appended \"{label}\" to {path}");
    }

    if let Some(ceiling) = max_handoffs_per_seed {
        let mut exceeded = false;
        for result in &results {
            let per_seed = result.report.metrics.parks_per_seed();
            if per_seed > ceiling {
                eprintln!(
                    "HANDOFF CEILING VIOLATED: case '{}' parked ~{per_seed} times per seed, \
                     above the --max-handoffs-per-seed ceiling of {ceiling}",
                    result.name
                );
                exceeded = true;
            }
        }
        if exceeded {
            std::process::exit(4);
        }
        eprintln!("handoff ceiling ok: every case ≤ {ceiling} parks/seed");
    }

    if let Some(floor) = min_seeds_per_sec {
        let mut collapsed = false;
        for result in &results {
            let rate = result.report.seeds_per_sec();
            if rate < floor {
                eprintln!(
                    "PERF FLOOR VIOLATED: case '{}' explored {rate:.0} seeds/s, \
                     below the --min-seeds-per-sec floor of {floor:.0}",
                    result.name
                );
                collapsed = true;
            }
        }
        if collapsed {
            std::process::exit(3);
        }
        eprintln!("perf floor ok: every case ≥ {floor:.0} seeds/s");
    }
}
