//! One-command seed replay and sharded sweeping: re-run a violating (or
//! any) seed, print the oracle verdicts and the full canonical trace — or
//! drive a whole seed range, optionally as one deterministic shard of a
//! multi-process split.
//!
//! Three forms:
//!
//! ```text
//! # Regenerate the seed under the default ScenarioConfig.
//! # `--bisect-workload` shrinks a violating plan — chaos schedule
//! # (crashes, fault rules) first, then top actions, phases, raises and
//! # participants — to a 1-minimal still-violating scenario and persists
//! # it to the corpus dir as `<seed>-workload`. `--spans-out`
//! # additionally exports the run's derived span timeline as Chrome
//! # trace-event JSON (spans, causal-message flow arrows, critical-path
//! # lanes) — open it at https://ui.perfetto.dev:
//! cargo run -p caa-harness --example replay -- 42 [--bisect-workload] \
//!     [--spans-out trace.json]
//!
//! # Replay a persisted corpus entry (the sweep's exact — possibly
//! # custom — config, plus a byte-exact check against the recorded
//! # trace). Fuzz entries carry a lineage.txt; the recorded mutation
//! # seeds re-derive the exact mutated plan before the comparison:
//! cargo run -p caa-harness --example replay -- --corpus target/caa-corpus/42
//!
//! # Sweep a seed range; several processes/CI jobs split it with --shard:
//! cargo run -p caa-harness --example replay -- --sweep 10000 \
//!     [--start 0] [--shard 2/8] [--metrics-out metrics.json]
//! ```
//!
//! Every form prints the run's metrics summary (virtual-time protocol
//! latency quantiles, per-class message counts, scheduler handoffs);
//! `--metrics-out` additionally writes the sweep's machine-readable
//! `metrics.json` (mergeable across shards with the `metrics_merge`
//! bench bin).

use std::path::Path;
use std::process::exit;

use caa_harness::arena::ExecutionArena;
use caa_harness::bisect::{bisect_workload, plan_violates, write_workload_entry};
use caa_harness::fuzz::load_corpus_plan;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::trace_event_json;
use caa_harness::sweep::{run_plan_checked, sweep, Shard, SweepConfig};

fn replay_plan(
    plan: &ScenarioPlan,
    config: &ScenarioConfig,
    lineage: Option<&str>,
    recorded_trace: Option<&str>,
    bisect: bool,
    spans_out: Option<&str>,
) -> bool {
    let seed = plan.seed;
    println!("{}", plan.describe());
    let mut arena = ExecutionArena::new();
    let result = run_plan_checked(plan.clone(), true, &mut arena);
    println!("{}", result.artifacts.trace.render());
    print!("{}", arena.metrics().summary());
    let mut ok = true;
    if let Some(path) = spans_out {
        match std::fs::write(path, trace_event_json(&result.artifacts.trace, seed)) {
            Ok(()) => println!("span timeline written to {path} (open at https://ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    if let Some(recorded) = recorded_trace {
        if result.artifacts.trace.render() == recorded {
            println!("trace matches the recorded corpus bytes exactly");
        } else {
            println!("trace DIVERGES from the recorded corpus bytes");
            ok = false;
        }
    }
    if result.passed() {
        println!("seed {seed}: every oracle passed");
        if bisect {
            println!("--bisect-workload: nothing to bisect (no oracle violation)");
        }
    } else {
        println!("seed {seed}: {} violation(s)", result.violations.len());
        for v in &result.violations {
            println!("  - {v}");
        }
        ok = false;
        if bisect {
            run_workload_bisection(plan, config, lineage);
        }
    }
    ok
}

/// Shrinks the whole violating plan (workload structure and chaos
/// schedule) to a 1-minimal still-violating scenario and persists the
/// reduction steps next to the seed's corpus entry — together with the
/// scenario config and the minimal plan's trace bytes, so the shrunk
/// violation rechecks byte-exactly via `replay --corpus <entry>`.
fn run_workload_bisection(plan: &ScenarioPlan, config: &ScenarioConfig, lineage: Option<&str>) {
    let mut arena = ExecutionArena::new();
    match bisect_workload(plan, |candidate| plan_violates(candidate, &mut arena)) {
        None => println!(
            "--bisect-workload: the violation does not reproduce deterministically \
             under the run oracles; nothing minimised"
        ),
        Some(outcome) => {
            println!(
                "--bisect-workload: plan minimised via {} reduction step(s) in {} execution(s)",
                outcome.steps.len(),
                outcome.attempts,
            );
            for step in &outcome.steps {
                println!("  {}", step.render());
            }
            println!("minimal plan:\n{}", outcome.plan.describe());
            let dir = Path::new("target/caa-corpus");
            match write_workload_entry(dir, &outcome) {
                Ok(entry) => {
                    let minimal = run_plan_checked(outcome.plan.clone(), false, &mut arena);
                    let persisted = std::fs::write(entry.join("config.txt"), config.to_kv())
                        .and_then(|()| {
                            // A fuzz find's steps shrink the *mutated* plan,
                            // so the entry must re-derive it the same way.
                            match lineage {
                                Some(text) => std::fs::write(entry.join("lineage.txt"), text),
                                None => Ok(()),
                            }
                        })
                        .and_then(|()| {
                            std::fs::write(
                                entry.join("trace.txt"),
                                minimal.artifacts.trace.render(),
                            )
                        });
                    match persisted {
                        Ok(()) => println!("  minimised workload written to {}", entry.display()),
                        Err(e) => eprintln!("  could not persist minimal trace: {e}"),
                    }
                }
                Err(e) => eprintln!("  could not persist workload bisection: {e}"),
            }
        }
    }
}

fn replay_corpus(entry: &Path, bisect: bool, spans_out: Option<&str>) -> bool {
    // `load_corpus_plan` understands both entry layouts: plain sweep
    // entries (`<seed>[-<config hash>]`, plan regenerated from the seed)
    // and fuzz entries (a `lineage.txt` whose recorded mutation seeds
    // re-derive the exact mutated plan).
    let (plan, config) = load_corpus_plan(entry).unwrap_or_else(|e| {
        eprintln!("cannot load corpus entry {entry:?}: {e}");
        exit(2);
    });
    let recorded = std::fs::read_to_string(entry.join("trace.txt")).ok();
    let lineage = std::fs::read_to_string(entry.join("lineage.txt")).ok();
    println!(
        "replaying corpus entry {} (seed {})",
        entry.display(),
        plan.seed
    );
    replay_plan(
        &plan,
        &config,
        lineage.as_deref(),
        recorded.as_deref(),
        bisect,
        spans_out,
    )
}

/// The value following `name` in `args`, if both are present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_sweep(args: &[String]) -> bool {
    let mut seeds: u64 = 1000;
    let mut start: u64 = 0;
    let mut shard: Option<Shard> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args.iter();
    let usage =
        "usage: replay -- --sweep <seeds> [--start <seed>] [--shard k/n] [--metrics-out PATH]";
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{usage}");
                exit(2);
            })
        };
        match arg.as_str() {
            "--sweep" => {
                seeds = value().parse().unwrap_or_else(|e| {
                    eprintln!("bad --sweep value: {e}");
                    exit(2);
                });
            }
            "--start" => {
                start = value().parse().unwrap_or_else(|e| {
                    eprintln!("bad --start value: {e}");
                    exit(2);
                });
            }
            "--shard" => {
                shard = Some(Shard::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("bad --shard value: {e}");
                    exit(2);
                }));
            }
            "--metrics-out" => metrics_out = Some(value()),
            other => {
                eprintln!("unknown argument {other}\n{usage}");
                exit(2);
            }
        }
    }
    let report = sweep(&SweepConfig {
        start_seed: start,
        seeds,
        shard,
        check_replay: true,
        ..SweepConfig::default()
    });
    print!("{}", report.summary());
    if let Some(path) = metrics_out {
        match std::fs::write(&path, report.metrics_json()) {
            Ok(()) => println!("metrics written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(2);
            }
        }
    }
    if let Some(shard) = shard {
        println!(
            "(shard {}/{} of seeds {start}..{})",
            shard.index,
            shard.count,
            start + seeds
        );
    }
    report.all_passed()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("--corpus") => {
            let entry = args.get(1).unwrap_or_else(|| {
                eprintln!(
                    "usage: replay -- --corpus <dir>/<seed> [--bisect-workload] [--spans-out PATH]"
                );
                exit(2);
            });
            let bisect = args.iter().any(|a| a == "--bisect-workload");
            replay_corpus(Path::new(entry), bisect, flag_value(&args, "--spans-out"))
        }
        Some("--sweep") => run_sweep(&args),
        Some(seed) => {
            let seed: u64 = seed.parse().unwrap_or_else(|_| {
                eprintln!(
                    "usage: replay -- <seed> [--bisect-workload] [--spans-out PATH] \
                     | --corpus <dir>/<seed> | --sweep <seeds>"
                );
                exit(2);
            });
            let bisect = args.iter().any(|a| a == "--bisect-workload");
            let config = ScenarioConfig::default();
            let plan = ScenarioPlan::generate(seed, &config);
            replay_plan(
                &plan,
                &config,
                None,
                None,
                bisect,
                flag_value(&args, "--spans-out"),
            )
        }
        None => replay_plan(
            &ScenarioPlan::generate(0, &ScenarioConfig::default()),
            &ScenarioConfig::default(),
            None,
            None,
            false,
            None,
        ),
    };
    if !ok {
        exit(1);
    }
}
