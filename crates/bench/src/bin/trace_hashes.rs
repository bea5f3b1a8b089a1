//! `trace_hashes` — per-seed trace fingerprints for pre/post refactor
//! comparison.
//!
//! Prints one line per seed: the seed, whether the generated plan contains
//! a crash-stop participant (`crashfree` / `crash`), the FNV-1a hash of
//! the canonical rendered trace, and a second FNV-1a hash over everything
//! the harness *derives* from that trace. Protocol refactors that must
//! keep crash-free behaviour byte-identical run this tool before and after
//! the change and diff the `crashfree` lines (crash seeds are allowed to
//! move when the crash model itself changes); refactors of the derivation
//! layer diff both columns. A trailing section hashes production-cell runs
//! the same way.
//!
//! The derivation hash folds, in order: the rendered oracle violations
//! (`check_run` for seeds, the run's `check_invariants` verdicts for the
//! production cell), the [`PathCoverage`] counters, the seed's
//! deterministic `metrics.json` sections from a fresh
//! [`MetricsRecorder`] (seeds only), and the Perfetto export
//! ([`trace_event_json`]: span tree, message edges and critical paths).
//!
//! Fingerprints are computed by streaming
//! ([`Trace::render_fingerprint`](caa_harness::trace::Trace::render_fingerprint)):
//! each entry renders into one reusable line buffer and folds into the
//! running hash, so a hash-gate sweep never materialises a full rendered
//! trace — by construction the value equals `fnv1a64(render())`, keeping
//! old and new hash files comparable.
//!
//! ```text
//! cargo run --release -p caa-bench --bin trace_hashes -- \
//!     [--seeds N] [--prodcell N] [--workers N] [--shard k/n] > hashes.txt
//! ```
//!
//! `--shard k/n` restricts the run to one deterministic shard of the seed
//! range (same split as `sweep_bench` and the replay example — see
//! `caa_harness::sweep::Shard`), so a 12k-seed gate can be split across CI
//! jobs and the sorted union of the shard outputs equals the unsharded
//! output. The prodcell section is emitted by shard 0 only (it is not
//! seed-range work).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::{execute_in, RunArtifacts};
use caa_harness::metrics::{metrics_json, MetricsRecorder};
use caa_harness::oracle::{check_run, Violation};
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::trace_event_json;
use caa_harness::sweep::{PathCoverage, Shard};
use caa_harness::trace::{fnv1a64, fnv1a64_fold, Trace};

/// FNV-1a over what the harness derives from one trace: the rendered
/// violations, the coverage counters, the deterministic metrics document
/// (plan-driven runs only) and the Perfetto export.
fn derivation_hash(
    violations: &[Violation],
    metrics: Option<&str>,
    trace: &Trace,
    seed: u64,
) -> u64 {
    let mut hash = fnv1a64(b"");
    for violation in violations {
        hash = fnv1a64_fold(hash, format!("{violation}\n").as_bytes());
    }
    hash = fnv1a64_fold(hash, PathCoverage::from_trace(trace).summary().as_bytes());
    if let Some(metrics) = metrics {
        hash = fnv1a64_fold(hash, metrics.as_bytes());
    }
    fnv1a64_fold(hash, trace_event_json(trace, seed).as_bytes())
}

/// [`derivation_hash`] of a plan-driven run, its metrics taken from a
/// fresh [`MetricsRecorder`].
fn seed_derivation_hash(artifacts: &RunArtifacts) -> u64 {
    let mut recorder = MetricsRecorder::default();
    recorder.record_run(artifacts);
    let metrics = metrics_json(&recorder.take_metrics(), 1, false);
    derivation_hash(
        &check_run(artifacts),
        Some(&metrics),
        &artifacts.trace,
        artifacts.plan.seed,
    )
}

fn main() {
    let mut seeds: u64 = 12_000;
    let mut prodcell: u64 = 32;
    let mut workers: usize = 0;
    let mut shard: Option<Shard> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().expect("--seeds: u64"),
            "--prodcell" => prodcell = value("--prodcell").parse().expect("--prodcell: u64"),
            "--workers" => workers = value("--workers").parse().expect("--workers: usize"),
            "--shard" => {
                shard = Some(Shard::parse(&value("--shard")).unwrap_or_else(|e| {
                    eprintln!("bad --shard value: {e}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    };

    let config = ScenarioConfig::default();
    let next = AtomicU64::new(0);
    let lines: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::with_capacity(seeds as usize));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut arena = ExecutionArena::new();
                loop {
                    let seed = next.fetch_add(1, Ordering::Relaxed);
                    if seed >= seeds {
                        return;
                    }
                    if let Some(shard) = shard {
                        if seed % shard.count != shard.index {
                            continue;
                        }
                    }
                    let plan = ScenarioPlan::generate(seed, &config);
                    let tag = if plan.crashes.is_empty() {
                        "crashfree"
                    } else {
                        "crash"
                    };
                    let artifacts = execute_in(&plan, &mut arena);
                    let hash = artifacts.trace.render_fingerprint();
                    let derived = seed_derivation_hash(&artifacts);
                    arena.recycle_trace(artifacts.trace);
                    lines.lock().expect("collector").push((
                        seed,
                        format!("seed {seed} {tag} {hash:016x} {derived:016x}"),
                    ));
                }
            });
        }
    });
    let mut lines = lines.into_inner().expect("collector");
    lines.sort_by_key(|(seed, _)| *seed);
    for (_, line) in &lines {
        println!("{line}");
    }
    if shard.is_none_or(|s| s.index == 0) {
        for seed in 0..prodcell {
            let run = caa_harness::prodcell::run_seed(seed, 2, false);
            println!(
                "prodcell {seed} {:016x} {:016x}",
                run.trace.render_fingerprint(),
                derivation_hash(&run.violations, None, &run.trace, seed),
            );
        }
    }
}
