//! The workloads and their checked runs.
//!
//! Every workload owns a fixed *block* of work derived from its start
//! seed: a range of seeds. The timed loop repeats the block; the first
//! pass fixes the deterministic facts, and every later run must
//! reproduce its first-pass record exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use caa_harness::fuzz::mutate_plan;
use caa_harness::metrics::{metrics_json, SweepMetrics};
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::{build_span_tree, CriticalPathScratch, InstancePath, SegmentClass};
use caa_harness::sweep::{PathCoverage, SignatureMap};
use caa_harness::trace::{fnv1a64_fold, EntryKind, Trace};
use caa_harness::{check_replay, check_run, execute_in, ExecutionArena, RunArtifacts};

use crate::timeline::Timeline;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh crash-free default-config seeds, byte-exact replay checked.
    MixedReplay,
    /// Object-heavy seeds, no replay, no crashes.
    ContendedObjects,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::MixedReplay, Kind::ContendedObjects];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::MixedReplay => "mixed-replay",
            Kind::ContendedObjects => "contended-objects",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The scenario space the workload draws plans from.
    ///
    /// `mixed-replay` keeps the default space but never crashes: about
    /// one default seed in 50 000 (a crash plan, e.g. 29003309) still
    /// breaks view agreement, and the benchmark's workloads must
    /// run without failures. With `crash_chance` 0 the crash draw is
    /// still made, so a seed whose default plan has no crash gets the
    /// same plan here.
    pub fn scenario(self) -> ScenarioConfig {
        match self {
            Kind::MixedReplay => ScenarioConfig {
                crash_chance: 0.0,
                ..ScenarioConfig::default()
            },
            Kind::ContendedObjects => ScenarioConfig::object_heavy(),
        }
    }
}

/// How much work one block holds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Seeds per pass.
    pub block: u64,
    /// Untimed runs in set-up that fill the arena, the resolution-lattice
    /// cache and the participant thread pool.
    pub warmup: u64,
    /// How many times set-up runs; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// The sizes the benchmark is defined at.
    pub fn full() -> Sizes {
        Sizes {
            block: 4000,
            warmup: 128,
            setups: 9,
        }
    }

    /// A few runs per workload, for the self-test.
    pub fn tiny() -> Sizes {
        Sizes {
            block: 24,
            warmup: 2,
            setups: 2,
        }
    }
}

/// The deterministic facts of one checked run, compared across
/// repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// Fold of the run's trace fingerprint, path signature, span count
    /// and (`mixed-replay`) mutated plan.
    pub digest: u64,
    /// Whether the run broke an oracle, diverged on replay or panicked.
    pub failed: bool,
}

/// Critical-path time per segment class, summed exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpSums {
    /// `u128` sums of [`InstancePath::class_total_ns`], in
    /// [`SegmentClass::ALL`] order.
    pub class_ns: [u128; 5],
    /// Sum of [`InstancePath::total_ns`].
    pub total_ns: u128,
    /// Paths summed.
    pub paths: u64,
}

impl CpSums {
    fn add(&mut self, path: &InstancePath) {
        for (sum, class) in self.class_ns.iter_mut().zip(SegmentClass::ALL) {
            *sum += u128::from(path.class_total_ns(class));
        }
        self.total_ns += u128::from(path.total_ns());
        self.paths += 1;
    }

    /// `class`'s share of the critical path, divided in `f64`; `None`
    /// without any attributed time.
    pub fn share(&self, class: SegmentClass) -> Option<f64> {
        let i = SegmentClass::ALL.iter().position(|&c| c == class)?;
        (self.total_ns > 0).then(|| self.class_ns[i] as f64 / self.total_ns as f64)
    }
}

/// Deterministic facts of one complete pass over the block.
#[derive(Debug, Default)]
pub struct Pass {
    /// Checked runs in the pass.
    pub runs: u64,
    /// The program's sweep metrics over the pass.
    pub metrics: SweepMetrics,
    /// Aggregate protocol-path counts.
    pub coverage: PathCoverage,
    /// Distinct path signatures with run counts.
    pub signatures: SignatureMap,
    /// The benchmark's own critical-path sums.
    pub cp: CpSums,
    /// Exact raise→resolve latency of every resolved instance (the total
    /// of its critical path).
    pub latencies_ns: Vec<u64>,
    /// Trace entries executed (primary and replay executions).
    pub entries_executed: u64,
    /// Messages lost to fault injection, from the runs' `NetStats`.
    pub dropped: u64,
    /// Fold of the pass's run digests, in run order.
    pub digest: u64,
}

impl Pass {
    /// Everything the pass fixes, as text: two passes over the same block
    /// must render byte-identically.
    pub fn deterministic_text(&self) -> String {
        format!(
            "{}{:?}\n{:?}\n{:?}\n{:?}\n{} {} {:#x}\n",
            metrics_json(&self.metrics, self.runs, false),
            self.coverage,
            self.signatures,
            self.cp,
            self.latencies_ns,
            self.entries_executed,
            self.dropped,
            self.digest,
        )
    }

    /// Protocol messages sent (every class but application traffic).
    pub fn protocol_msgs(&self) -> u64 {
        self.metrics
            .deterministic
            .counters_sorted()
            .into_iter()
            .filter(|(name, _)| name.starts_with("msg_sent_") && *name != "msg_sent_App")
            .map(|(_, n)| n)
            .sum()
    }
}

/// A workload's state: the block, the reusable arena and scratch, and the
/// accumulating pass.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// First seed of the block.
    pub start_seed: u64,
    /// Block sizes.
    pub sizes: Sizes,
    /// The scenario space of the block's plans.
    pub scenario: ScenarioConfig,
    arena: ExecutionArena,
    scratch: CriticalPathScratch,
    /// The pass being accumulated.
    pub pass: Pass,
}

const PANIC_DIGEST: u64 = 0xdead_dead_dead_dead;

impl Bench {
    /// Set-up: builds the workload's state and runs its warm-up.
    pub fn setup(kind: Kind, start_seed: u64, sizes: Sizes) -> Bench {
        let mut bench = Bench {
            kind,
            start_seed,
            sizes,
            scenario: kind.scenario(),
            arena: ExecutionArena::new(),
            scratch: CriticalPathScratch::new(),
            pass: Pass::default(),
        };
        let mut untraced = Timeline::new();
        for i in 0..sizes.warmup.min(sizes.block) {
            let _ = bench.run(i, &mut untraced);
        }
        bench.pass = Pass::default();
        let _ = bench.take_metrics();
        bench
    }

    /// Takes the metrics recorded so far. The recorder is replaced, not
    /// reused: `MetricsRecorder::take_metrics` leaves its pre-registered
    /// histogram handles pointing into an empty set, so the next
    /// `record_run` on it would panic.
    fn take_metrics(&mut self) -> SweepMetrics {
        std::mem::take(self.arena.metrics_recorder()).take_metrics()
    }

    /// Executes checked run `i` of the block, recording one span per
    /// layer call when `tl` is on. A panic counts as a failed run and
    /// replaces the arena.
    pub fn run(&mut self, i: u64, tl: &mut Timeline) -> RunRecord {
        let seed = self.start_seed + i;
        tl.begin_run(seed);
        let replay = self.kind == Kind::MixedReplay;
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_seed(seed, replay, tl)));
        tl.end_run();
        let record = outcome.unwrap_or_else(|_| {
            self.arena = ExecutionArena::new();
            RunRecord {
                digest: PANIC_DIGEST,
                failed: true,
            }
        });
        self.pass.runs += 1;
        self.pass.digest = fnv1a64_fold(self.pass.digest, &record.digest.to_le_bytes());
        record
    }

    /// Ends a complete pass, returning its facts.
    pub fn finish_pass(&mut self) -> Pass {
        let mut pass = std::mem::take(&mut self.pass);
        pass.metrics = self.take_metrics();
        pass
    }

    /// A seed: generate, execute, check, derive metrics, cover,
    /// fingerprint and attribute the critical path. On `mixed-replay`
    /// (`replay`) also mutate the plan as a fuzz generation would,
    /// replay-check and build the span tree.
    fn run_seed(&mut self, seed: u64, replay: bool, tl: &mut Timeline) -> RunRecord {
        let scenario = &self.scenario;
        let arena = &mut self.arena;
        let plan = tl.layer("plan.generate", || ScenarioPlan::generate(seed, scenario));
        // The fuzz layer's own work on a plan. The mutated plan is not
        // executed: mutations may add crashes (see `Kind::scenario`).
        let mutated = replay.then(|| tl.layer("fuzz.mutate", || mutate_plan(&plan, seed)));
        let artifacts = tl.layer("exec.execute", || execute_in(&plan, arena));
        let mut failed = !tl
            .layer("oracle.check", || check_run(&artifacts))
            .is_empty();
        tl.layer("metrics.record", || {
            arena.metrics_recorder().record_run(&artifacts);
        });
        let mut entries = artifacts.trace.len() as u64;
        if replay {
            let replayed = tl.layer("exec.execute", || execute_in(&artifacts.plan, arena));
            entries += replayed.trace.len() as u64;
            failed |= tl
                .layer("oracle.replay_compare", || {
                    check_replay(&artifacts.trace, &replayed.trace)
                })
                .is_some();
            arena.recycle_trace(replayed.trace);
        }
        // The span tree rides along on the replay-checked acceptance
        // shape only, so `mixed-replay` touches every derivation layer.
        let mut record = derive_trace(
            &mut self.scratch,
            &mut self.pass,
            &artifacts,
            failed,
            replay,
            tl,
        );
        if let Some(mutated) = mutated {
            let text = format!("{} {:?}", mutated.mutator, mutated.plan);
            record.digest = fnv1a64_fold(record.digest, text.as_bytes());
        }
        let pass = &mut self.pass;
        pass.entries_executed += entries;
        pass.dropped += dropped(&artifacts.trace);
        self.arena.recycle_trace(artifacts.trace);
        record
    }
}

/// The derivation passes every workload makes: coverage, fingerprint,
/// critical-path attribution and (optionally) the span tree, folded into
/// the run's record and the pass.
fn derive_trace(
    scratch: &mut CriticalPathScratch,
    pass: &mut Pass,
    artifacts: &RunArtifacts,
    failed: bool,
    tree: bool,
    tl: &mut Timeline,
) -> RunRecord {
    let trace = &artifacts.trace;
    let coverage = tl.layer("sweep.coverage", || PathCoverage::from_trace(trace));
    let fingerprint = tl.layer("trace.fingerprint", || trace.render_fingerprint());
    let (cp, latencies) = (&mut pass.cp, &mut pass.latencies_ns);
    tl.layer("spans.critical_path", || {
        scratch.extract(trace, |path| {
            cp.add(path);
            latencies.push(path.total_ns());
        });
    });
    let spans = if tree {
        tl.layer("spans.span_tree", || build_span_tree(trace).len() as u64)
    } else {
        0
    };
    let signature = coverage.signature();
    pass.coverage.merge(&coverage);
    *pass.signatures.entry(signature).or_insert(0) += 1;
    let mut digest = fnv1a64_fold(fingerprint, &signature.to_le_bytes());
    digest = fnv1a64_fold(digest, &spans.to_le_bytes());
    RunRecord { digest, failed }
}

/// Messages the run lost to fault injection.
fn dropped(trace: &Trace) -> u64 {
    trace
        .entries()
        .iter()
        .filter(|e| matches!(e.kind, EntryKind::NetDropped(_)))
        .count() as u64
}
