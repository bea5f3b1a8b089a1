//! Invariant oracles checked against every recorded trace.
//!
//! Each oracle encodes a property the paper proves or measures:
//!
//! * **Resolution agreement** (§3.3.2): every participant of a recovery
//!   commits to the *same* resolving exception.
//! * **Single resolution** (§3.3.3): the resolution procedure runs at most
//!   once per action-instance recovery under the paper's algorithm.
//! * **Lemma 1 time bound**: from the first raise of a recovery to the last
//!   handler completion takes at most
//!   `(2·nmax+3)·Tmmax + nmax·Tabort + (nmax+1)·(Treso+∆max)` (plus one
//!   `Tmmax` of entry skew the scenario shape permits).
//! * **Message complexity** (§3.3.3): an action instance's recovery costs
//!   at most `(N+1)·(N−1)` resolution messages, plus one participant
//!   broadcast (`N−1`) per thread readmitted mid-recovery — a rejoiner
//!   re-announces its state into the ongoing resolution after catch-up.
//! * **Nesting/abortion consistency** (§3.3.1): every action entry is
//!   closed by exactly one exit, abort or crash-stop on the entering
//!   thread — with one sanctioned exception: a crashed participant that
//!   rejoined enters the instance twice (one entry closed by the crash,
//!   the re-entry closed by its exit).
//! * **Exit-timeout bound** (the §3.4 timeout generalised to the exit
//!   protocol): every exit phase — including one abandoned because a peer
//!   crash-stopped — terminates within the plan's exit timeout.
//! * **Membership agreement** (the crash-aware resolution extension):
//!   membership is **set-based** — each thread's view evolves by adopting
//!   removal sets and readmissions, with epoch numbers as per-thread step
//!   counters. The agreement form is therefore a *chain*: the final
//!   removed sets that the instance's threads reached must be pairwise
//!   comparable under inclusion (a thread that exited early — e.g.
//!   evicted — holds a prefix of the survivors' set; genuinely divergent
//!   views are incomparable and flagged). The one sanctioned divergence
//!   is a pair of threads that both finalised with the failure exception
//!   ƒ — each declared coordination broken, so their last views may
//!   legally disagree. And no thread removed as presumed-crashed
//!   went on to complete the action without being readmitted first (no
//!   false suspicion).
//! * **Bounded resolution** (same extension): every started recovery
//!   concludes in a resolution, an enclosing abort or the thread's own
//!   crash — the collection loop never hangs on a dead peer.
//! * **Deterministic replay** (§5.1's repeatability requirement): the same
//!   seed renders the byte-identical trace, object acquisitions included.
//!
//! Plans with shared-object traffic skip the Lemma 1 bound: acquisition
//! waits stretch compute phases, so the aligned-entry premise the bound
//! relies on no longer holds (see [`ScenarioPlan::has_objects`]). Plans
//! with a crash-stop skip it too: the bounded resolution and exit waits
//! stretch recoveries far past the crash-free bound by design.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use caa_runtime::SystemReport;

use crate::exec::RunArtifacts;
use crate::index::{InstanceIndex, ViewDelta};
use crate::plan::ScenarioPlan;
use crate::trace::Trace;

/// One oracle violation, carrying enough context to debug the seed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A participating thread ended with a fatal error (deadlock or
    /// protocol invariant breach).
    ThreadFailure {
        /// The failed thread's name.
        thread: String,
        /// Its error.
        error: String,
    },
    /// Participants of one recovery committed to different resolving
    /// exceptions.
    ResolutionDisagreement {
        /// Canonical action label.
        action: u64,
        /// `(thread, resolved exception)` as observed.
        resolved: Vec<(u32, String)>,
    },
    /// The resolution procedure ran more than once for one instance.
    MultipleResolutions {
        /// Canonical action label.
        action: u64,
        /// Total graph-search invocations observed.
        invocations: u64,
    },
    /// Recovery exceeded the Lemma 1 completion bound.
    Lemma1Exceeded {
        /// Canonical action label.
        action: u64,
        /// Observed first-raise → last-handler-completion time (seconds).
        measured: f64,
        /// The bound (seconds).
        bound: f64,
    },
    /// An instance used more resolution messages than §3.3.3 permits.
    MessageBoundExceeded {
        /// Canonical action label.
        action: u64,
        /// Observed Exception+Suspended+Commit sends.
        messages: u64,
        /// The `(N+1)(N−1)` bound.
        bound: u64,
    },
    /// An action entry was not closed by exactly one exit/abort/crash.
    NestingInconsistent {
        /// Canonical action label.
        action: u64,
        /// The offending thread.
        thread: u32,
        /// Enter events observed.
        enters: usize,
        /// Exit events observed.
        exits: usize,
        /// Abort events observed.
        aborts: usize,
        /// Crash-stop events observed.
        crashes: usize,
    },
    /// An exit phase outlived the bounded wait: the time from an
    /// `ExitStart` to the next protocol step on that thread exceeded the
    /// plan's exit timeout.
    ExitTimeoutExceeded {
        /// Canonical action label.
        action: u64,
        /// The offending thread.
        thread: u32,
        /// Observed exit-phase duration (seconds).
        measured: f64,
        /// The bound (seconds).
        bound: f64,
    },
    /// Two executions of the same seed rendered different traces.
    ReplayDiverged {
        /// First line (0-based) at which the renderings differ.
        first_diff_line: usize,
    },
    /// Participants of one instance reached irreconcilable membership
    /// views: under set-based agreement the final removed sets must form
    /// a chain under inclusion (early exits hold prefixes of the
    /// survivors' set), and these do not.
    ViewDisagreement {
        /// Canonical action label.
        action: u64,
        /// The incomparable final removed sets observed across threads.
        removed_sets: Vec<Vec<u32>>,
    },
    /// A thread removed from an instance's membership view as presumed
    /// crashed nevertheless completed the action: the failure detector
    /// suspected a live participant.
    FalseSuspicion {
        /// Canonical action label.
        action: u64,
        /// The falsely suspected thread.
        thread: u32,
    },
    /// A recovery started on some thread but never reached resolution,
    /// abortion or a crash-stop: the collection loop hung instead of
    /// being bounded.
    ResolutionUnterminated {
        /// Canonical action label.
        action: u64,
        /// The thread whose recovery never concluded.
        thread: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ThreadFailure { thread, error } => {
                write!(f, "thread {thread} failed: {error}")
            }
            Violation::ResolutionDisagreement { action, resolved } => {
                write!(f, "action {action}: participants disagree on the resolved exception: {resolved:?}")
            }
            Violation::MultipleResolutions {
                action,
                invocations,
            } => {
                write!(
                    f,
                    "action {action}: resolution procedure ran {invocations} times (max 1)"
                )
            }
            Violation::Lemma1Exceeded {
                action,
                measured,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: recovery took {measured:.6}s, Lemma 1 bound {bound:.6}s"
                )
            }
            Violation::MessageBoundExceeded {
                action,
                messages,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: {messages} resolution messages exceed the rejoin-adjusted (N+1)(N-1) bound {bound}"
                )
            }
            Violation::NestingInconsistent {
                action,
                thread,
                enters,
                exits,
                aborts,
                crashes,
            } => {
                write!(
                    f,
                    "action {action}: thread {thread} entered {enters}x but exited {exits}x / aborted {aborts}x / crashed {crashes}x"
                )
            }
            Violation::ExitTimeoutExceeded {
                action,
                thread,
                measured,
                bound,
            } => {
                write!(
                    f,
                    "action {action}: thread {thread}'s exit phase took {measured:.6}s, timeout bound {bound:.6}s"
                )
            }
            Violation::ReplayDiverged { first_diff_line } => {
                write!(
                    f,
                    "replay diverged from the original trace at line {first_diff_line}"
                )
            }
            Violation::ViewDisagreement {
                action,
                removed_sets,
            } => {
                write!(
                    f,
                    "action {action}: final removed sets are not inclusion-ordered across threads: {removed_sets:?}"
                )
            }
            Violation::FalseSuspicion { action, thread } => {
                write!(
                    f,
                    "action {action}: thread {thread} was presumed crashed but completed the action without rejoining"
                )
            }
            Violation::ResolutionUnterminated { action, thread } => {
                write!(
                    f,
                    "action {action}: thread {thread} started recovery but never resolved, aborted or crashed"
                )
            }
        }
    }
}

/// The Lemma 1 completion bound for this plan's parameters (seconds).
///
/// One extra `Tmmax` covers the entry skew the aligned scenario shape can
/// accumulate across a completed protocol barrier (exit votes arrive within
/// one message latency of each other), and a microsecond absorbs
/// virtual-time rounding.
#[must_use]
pub fn lemma1_bound(plan: &ScenarioPlan) -> f64 {
    let nmax = plan.max_depth() as f64;
    (2.0 * nmax + 3.0) * plan.t_mmax
        + nmax * plan.t_abort
        + (nmax + 1.0) * (plan.t_reso + plan.delta)
        + plan.t_mmax
        + 1e-6
}

/// Checks the plan-independent protocol invariants — thread success,
/// resolution agreement, single resolution per instance and
/// nesting/abortion consistency — on any recorded run. Violation `action`
/// fields carry the same dense `A<n>` labels the rendered trace uses.
///
/// Systems driven from a [`ScenarioPlan`] get the plan-dependent Lemma 1
/// and message-complexity checks on top via [`check_run`]; externally
/// built systems (e.g. the production cell) use this directly.
#[must_use]
pub fn check_invariants(report: &SystemReport, trace: &Trace) -> Vec<Violation> {
    invariant_violations(report, trace.index())
}

fn invariant_violations(report: &SystemReport, index: &InstanceIndex) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (name, result) in &report.results {
        if let Err(e) = result {
            // A crash-stop is an *injected* fault, not a failure: the
            // oracles instead check that the survivors coped with it.
            if matches!(e, caa_runtime::RuntimeError::Crashed) {
                continue;
            }
            violations.push(Violation::ThreadFailure {
                thread: name.clone(),
                error: e.to_string(),
            });
        }
    }
    for (label, view) in index.by_serial() {
        let action = u64::from(label);

        // Resolution agreement (§3.3.2).
        if view.resolved.windows(2).any(|w| w[0].1 != w[1].1) {
            violations.push(Violation::ResolutionDisagreement {
                action,
                resolved: view
                    .resolved
                    .iter()
                    .map(|(thread, exception)| (*thread, exception.name().to_owned()))
                    .collect(),
            });
        }

        // One resolution per recovery, and at most one recovery per
        // instance under the termination model (§3.3.3).
        if view.invocations > 1 {
            violations.push(Violation::MultipleResolutions {
                action,
                invocations: view.invocations,
            });
        }

        // Nesting/abortion consistency (§3.3.1), crash-stops included:
        // every entry is closed by exactly one exit, abort or crash —
        // except that a crashed-then-readmitted participant enters twice
        // (the crash closes the first entry, its exit closes the
        // re-entry), never more.
        for counts in view.threads.iter().filter(|t| t.participated()) {
            let thread = counts.thread;
            let closed = counts.exits + counts.aborts + counts.crashes;
            if counts.enters == 0 || counts.enters != closed || counts.enters > 1 + counts.crashes {
                violations.push(Violation::NestingInconsistent {
                    action,
                    thread,
                    enters: counts.enters,
                    exits: counts.exits,
                    aborts: counts.aborts,
                    crashes: counts.crashes,
                });
            }

            // Bounded-resolution liveness: a started recovery concludes in
            // resolution, an enclosing abort, the thread's own crash, or
            // the ƒ exit of a thread evicted mid-recovery (it finalises
            // Failed without a resolution of its own).
            if counts.recovery_starts > 0
                && counts.resolved + counts.aborts + counts.crashes + counts.failed_exits == 0
            {
                violations.push(Violation::ResolutionUnterminated { action, thread });
            }
        }

        // Membership agreement, set-based: each thread's view evolves by
        // adopting removal sets (∪) and readmissions (−); epoch numbers
        // are per-thread step counters, so agreement is on the *sets* —
        // final removed sets must be pairwise comparable under inclusion
        // (a thread that concluded early holds a prefix of the survivors'
        // view). One sanctioned divergence: a pair of threads that BOTH
        // finalised with the failure exception ƒ. Each declared
        // coordination broken — in a symmetric suspicion race (messages
        // dropped both ways) the two evict each other and step aside
        // before the peer's announcement lands, so their views legally
        // disagree. A ƒ-failed thread must still be comparable with every
        // thread that kept coordinating.
        let mut finals: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for delta in &view.view_deltas {
            let set = finals.entry(delta.observer()).or_default();
            match delta {
                ViewDelta::Remove { removed, .. } => set.extend(&index.removed[removed.clone()]),
                ViewDelta::Readmit { thread, .. } => {
                    set.remove(thread);
                }
            }
        }
        let counts_of = |t: u32| view.threads.iter().find(|c| c.thread == t);
        let failed = |t: u32| counts_of(t).is_some_and(|counts| counts.failed_exits > 0);
        let observers: Vec<(u32, &BTreeSet<u32>)> = finals.iter().map(|(t, s)| (*t, s)).collect();
        let mut divergent: Vec<&BTreeSet<u32>> = Vec::new();
        for (i, &(a, set_a)) in observers.iter().enumerate() {
            for &(b, set_b) in &observers[i + 1..] {
                if set_a.is_subset(set_b) || set_b.is_subset(set_a) {
                    continue;
                }
                if failed(a) && failed(b) {
                    continue;
                }
                for set in [set_a, set_b] {
                    if !divergent.contains(&set) {
                        divergent.push(set);
                    }
                }
            }
        }
        if !divergent.is_empty() {
            divergent.sort_by_key(|s| s.len());
            violations.push(Violation::ViewDisagreement {
                action,
                removed_sets: divergent
                    .iter()
                    .map(|s| s.iter().copied().collect())
                    .collect(),
            });
        }

        // No false suspicion: a thread that was removed and never
        // readmitted must not have *completed* the action. A genuinely
        // crashed thread closes its entry (if any) with a Crash event; a
        // successful exit proves the thread was alive past the point it
        // was presumed dead and still acted as a member. Sanctioned
        // survivals: the readmitted rejoiner; the self-finalising ƒ exit
        // of an evicted thread (it observed its own eviction and stepped
        // aside); and an evicted thread that *aborts* — its exit votes
        // never come once the peers have moved on, so the abortion
        // handler undoes its work and raises the abortion exception in
        // the enclosing context instead of completing as a member.
        let mut removed_union: BTreeSet<u32> = BTreeSet::new();
        let mut readmitted: BTreeSet<u32> = BTreeSet::new();
        for delta in &view.view_deltas {
            match delta {
                ViewDelta::Remove { removed, .. } => {
                    removed_union.extend(&index.removed[removed.clone()])
                }
                ViewDelta::Readmit { thread, .. } => {
                    readmitted.insert(*thread);
                }
            }
        }
        for &thread in &removed_union {
            if readmitted.contains(&thread) {
                continue;
            }
            if counts_of(thread)
                .is_some_and(|counts| counts.exits.saturating_sub(counts.failed_exits) > 0)
            {
                violations.push(Violation::FalseSuspicion { action, thread });
            }
        }
    }
    violations
}

/// Checks every per-trace oracle against one plan-driven run: the
/// invariants of [`check_invariants`] plus the plan-dependent Lemma 1
/// completion bound and §3.3.3 message-complexity bound.
#[must_use]
pub fn check_run(artifacts: &RunArtifacts) -> Vec<Violation> {
    let plan = &artifacts.plan;
    let index = artifacts.trace.index();
    let entries = artifacts.trace.entries();
    let mut violations = invariant_violations(&artifacts.report, index);

    // Group-size lookup by action name (instances report their definition
    // name in their Enter events).
    let group_by_name: BTreeMap<&str, usize> = plan
        .actions()
        .iter()
        .map(|a| (a.name.as_str(), a.group.len()))
        .collect();

    let bound_secs = lemma1_bound(plan);
    // Object waits stretch compute phases by contention, and a crash-stop
    // stretches recoveries by the bounded resolution wait — either breaks
    // the premises of the Lemma 1 bound, so skip it for such plans (every
    // other oracle still applies).
    let check_lemma1 = !plan.has_objects() && plan.crashes.is_empty();
    let plan_depth = plan.max_depth() as u32;
    for (label, view) in index.by_serial() {
        let action = u64::from(label);

        // Lemma 1 completion bound.
        if check_lemma1 {
            if let (Some(raise), Some(done)) = (view.first_raise, view.last_handler_end_ns) {
                let raise = entries[raise as usize].at_ns;
                let measured = (done.saturating_sub(raise)) as f64 / 1e9;
                if measured > bound_secs {
                    violations.push(Violation::Lemma1Exceeded {
                        action,
                        measured,
                        bound: bound_secs,
                    });
                }
            }
        }

        // Exit-timeout bound: no exit phase outlives the bounded wait —
        // crashed peers are resolved to abortion, not waited on forever.
        // The executor separates the bounds hierarchically (each level's
        // wait exceeds its sublevels' total bounded-wait budget, see
        // [`crate::exec::TIMEOUT_SEPARATION`]), so the bound grows with
        // the levels below this instance. One `Tabort` of slack: an exit
        // interrupted by an enclosing-level trigger closes on the `Abort`
        // event, which is only emitted after the abortion handler's work.
        let levels_below = plan_depth.saturating_sub(view.depth) as i32;
        let exit_bound = plan.exit_timeout * crate::exec::TIMEOUT_SEPARATION.powi(levels_below)
            + plan.t_abort
            + 1e-6;
        for &(thread, dur_ns) in &view.exit_phases {
            let measured = dur_ns as f64 / 1e9;
            if measured > exit_bound {
                violations.push(Violation::ExitTimeoutExceeded {
                    action,
                    thread,
                    measured,
                    bound: exit_bound,
                });
            }
        }

        // §3.3.3 message complexity. The paper's (N+1)(N−1) accounting
        // gives each of the N participants one broadcast (its Exception
        // or Suspended announcement, N−1 messages) plus the resolver's
        // Commit broadcast. A participant readmitted *mid-recovery* spent
        // that budget before its crash and must re-announce its state
        // into the ongoing resolution after catching up, so each distinct
        // readmitted thread earns one extra participant broadcast. Plans
        // without rejoins (all crash-free plans included) keep the exact
        // paper bound.
        let group_size = view
            .name
            .as_deref()
            .and_then(|name| group_by_name.get(name).copied());
        if let Some(n) = group_size {
            let n = n as u64;
            let readmissions = view
                .view_deltas
                .iter()
                .filter_map(|delta| match delta {
                    ViewDelta::Readmit { thread, .. } => Some(*thread),
                    ViewDelta::Remove { .. } => None,
                })
                .collect::<BTreeSet<u32>>()
                .len() as u64;
            let bound = (n + 1).saturating_mul(n.saturating_sub(1))
                + readmissions.saturating_mul(n.saturating_sub(1));
            if view.resolution_msgs > bound {
                violations.push(Violation::MessageBoundExceeded {
                    action,
                    messages: view.resolution_msgs,
                    bound,
                });
            }
        }
    }

    violations
}

/// Compares two renderings of the same seed's trace (deterministic-replay
/// oracle). The comparison streams line by line
/// ([`Trace::first_divergence`]) — byte-for-byte equivalent to comparing
/// [`Trace::render`] outputs, without materialising either string.
#[must_use]
pub fn check_replay(original: &Trace, replay: &Trace) -> Option<Violation> {
    original
        .first_divergence(replay)
        .map(|first_diff_line| Violation::ReplayDiverged { first_diff_line })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::ScenarioConfig;

    #[test]
    fn clean_seeds_pass_every_oracle() {
        let cfg = ScenarioConfig::default();
        for seed in [0, 1, 2, 3] {
            let plan = ScenarioPlan::generate(seed, &cfg);
            let artifacts = execute(&plan);
            let violations = check_run(&artifacts);
            assert!(
                violations.is_empty(),
                "seed {seed} ({}):\n{}\ntrace:\n{}",
                plan.describe(),
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
                artifacts.trace.render(),
            );
        }
    }

    #[test]
    fn replay_check_accepts_identical_and_flags_divergent() {
        let cfg = ScenarioConfig::default();
        let plan = ScenarioPlan::generate(5, &cfg);
        let a = execute(&plan);
        let b = execute(&plan);
        assert_eq!(check_replay(&a.trace, &b.trace), None);
        let other = execute(&ScenarioPlan::generate(6, &cfg));
        assert!(check_replay(&a.trace, &other.trace).is_some());
    }
}
