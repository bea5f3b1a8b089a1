//! One interpretation of a recorded trace: the per-trace instance index.
//!
//! The paper's guarantees are about one action instance: agreement
//! (§3.3.2), the `(N+1)(N−1)` message bound (§3.3.3), Lemma 1. One pass
//! over the canonical entries, made when the recorder hands the trace
//! over, collects every per-instance fact the harness consumes into an
//! [`InstanceIndex`]. The oracles, metrics, critical paths, coverage,
//! spans and rendering read and fold it; none re-correlates entries.
//!
//! Where two consumers define a quantity differently, both definitions
//! are kept as separately named fields, so `metrics.json` does not move:
//! exit phases ([`Instance::exit_phases`], oracle) end at the thread's
//! next step on the instance, exit rounds ([`Instance::exit_rounds`],
//! metrics) at `Exit`; crash detection pairs per crash
//! ([`InstanceIndex::crash_detections`], spans) and per
//! `(crashed, observer)` ([`InstanceIndex::observer_detections`],
//! metrics). A new derived fact is added here once and folded by its
//! consumers.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use caa_core::exception::{ExceptionId, Signal};
use caa_core::outcome::ActionOutcome;
use caa_runtime::observe::{Event, EventKind};

use crate::trace::{Entry, EntryKind};

/// One recorded message send, indexed for the critical-path walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRec {
    /// Virtual delivery time, nanoseconds.
    pub deliver_ns: u64,
    /// Virtual send time, nanoseconds.
    pub sent_ns: u64,
    /// Sending thread.
    pub src: u32,
    /// Receiving thread.
    pub dst: u32,
    /// Position of the `NetSent` entry in the sender's program order.
    pub src_pos: u32,
    /// Canonical label of the instance the message belongs to.
    pub instance: u32,
    /// The network's per-link sequence number.
    pub seq: u64,
}

/// One membership step a thread observed on an instance, in trace order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewDelta {
    /// `observer` adopted a view change removing the threads at
    /// `removed` (a range into [`InstanceIndex::removed`]).
    Remove {
        /// The observing thread.
        observer: u32,
        /// Where the removal set sits in the index's flat buffer.
        removed: Range<usize>,
    },
    /// `observer` saw `thread` readmitted by a rejoin grant.
    Readmit {
        /// The observing thread.
        observer: u32,
        /// The readmitted thread.
        thread: u32,
    },
}

impl ViewDelta {
    /// The observing thread.
    #[must_use]
    pub fn observer(&self) -> u32 {
        match self {
            ViewDelta::Remove { observer, .. } | ViewDelta::Readmit { observer, .. } => *observer,
        }
    }
}

/// One thread's lifecycle counts on one instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadFacts {
    /// The thread.
    pub thread: u32,
    /// `Enter` events.
    pub enters: usize,
    /// `Exit` events.
    pub exits: usize,
    /// `Exit` events with a `Failed` outcome — an evicted thread
    /// finalises so, which legitimately closes a recovery without a
    /// resolution.
    pub failed_exits: usize,
    /// `Abort` events.
    pub aborts: usize,
    /// `Crash` events.
    pub crashes: usize,
    /// `RecoveryStart` events.
    pub recovery_starts: usize,
    /// `Resolved` events (resolution rounds the thread concluded).
    pub resolved: usize,
    /// Exit races: a `RecoveryStart` interrupting an exit phase (an
    /// `ExitStart` not yet consumed by an earlier race).
    pub exit_races: u64,
    /// Open oracle exit phase: start instant.
    exit_phase_start: Option<u64>,
    /// Open metrics exit round: start instant.
    exit_round_start: Option<u64>,
    /// Open rejoin catch-up: the joiner's own `Rejoin` instant.
    catchup_start: Option<u64>,
    /// Whether an `ExitStart` awaits a racing `RecoveryStart`.
    exiting: bool,
}

impl ThreadFacts {
    /// Whether the thread took part in the instance's lifecycle (entered,
    /// exited, aborted, crashed, recovered or resolved in it) — as opposed
    /// to merely observing a step of it.
    #[must_use]
    pub fn participated(&self) -> bool {
        self.enters + self.exits + self.aborts + self.crashes + self.recovery_starts + self.resolved
            > 0
    }
}

/// Everything the harness derives about one action instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instance {
    /// The raw (process-global) instance serial.
    pub serial: u64,
    /// The action's definition name, from its `Enter` events.
    pub name: Option<Arc<str>>,
    /// Nesting depth (0 = top level), from the instance's action id.
    pub depth: u32,
    /// Entry index of the first `Raise`.
    pub first_raise: Option<u32>,
    /// Entry index of the first `Resolved`.
    pub first_resolved: Option<u32>,
    /// Virtual time of the last `HandlerEnd`.
    pub last_handler_end_ns: Option<u64>,
    /// Graph-search invocations (`ResolutionInvoked` totals).
    pub invocations: u64,
    /// `(thread, exception)` of every `Resolved`, in trace order.
    pub resolved: Vec<(u32, ExceptionId)>,
    /// Per-thread lifecycle counts, ascending by thread. Every thread
    /// with a runtime step on the instance has a record; see
    /// [`ThreadFacts::participated`].
    pub threads: Vec<ThreadFacts>,
    /// Membership steps, in trace order.
    pub view_deltas: Vec<ViewDelta>,
    /// Oracle exit phases `(thread, duration_ns)`: from an `ExitStart`
    /// to the thread's next step on the instance (exit, abort, timeout or
    /// recovery trigger).
    pub exit_phases: Vec<(u32, u64)>,
    /// Metrics exit rounds (nanoseconds): from a thread's latest
    /// `ExitStart` to its `Exit`.
    pub exit_rounds: Vec<u64>,
    /// Rejoin catch-ups (nanoseconds): from the joiner's own `Rejoin` to
    /// its `Exit`.
    pub rejoin_catchups: Vec<u64>,
    /// `Exception`/`Suspended`/`Commit` sends — the §3.3.3 count.
    pub resolution_msgs: u64,
    /// `toBeSignalled` sends — the signalling fan-out.
    pub signal_sends: u64,
}

impl Instance {
    fn clear(&mut self) {
        self.name = None;
        self.depth = 0;
        self.first_raise = None;
        self.first_resolved = None;
        self.last_handler_end_ns = None;
        self.invocations = 0;
        self.resolved.clear();
        self.threads.clear();
        self.view_deltas.clear();
        self.exit_phases.clear();
        self.exit_rounds.clear();
        self.rejoin_catchups.clear();
        self.resolution_msgs = 0;
        self.signal_sends = 0;
    }

    /// Where `thread`'s record sits, created in thread order on first
    /// sight.
    fn thread_slot(&mut self, thread: u32) -> usize {
        self.threads
            .binary_search_by_key(&thread, |t| t.thread)
            .unwrap_or_else(|at| {
                self.threads.insert(
                    at,
                    ThreadFacts {
                        thread,
                        ..ThreadFacts::default()
                    },
                );
                at
            })
    }
}

/// Whole-run counts of steps no per-instance fact carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// µ-coordinated `SignalOutcome` conclusions.
    pub undo_outcomes: u64,
    /// ƒ `SignalOutcome` conclusions.
    pub failure_outcomes: u64,
    /// ƒ conclusions below the top level (nesting depth ≥ 1).
    pub failure_cascades: u64,
    /// Expired bounded exit waits.
    pub exit_timeouts: u64,
    /// Expired bounded signalling waits.
    pub signal_timeouts: u64,
    /// Expired bounded resolution waits.
    pub resolution_timeouts: u64,
    /// `ViewChange` events.
    pub view_changes: u64,
    /// Joiner-side `Rejoin` events (each readmission counted once).
    pub rejoins: u64,
}

/// The per-trace index (see the module docs), rebuilt in place for each
/// trace so its buffers recycle with the trace's entries. Entries are
/// named by their index in the canonical trace.
#[derive(Debug, Clone, Default)]
pub struct InstanceIndex {
    /// Per entry: the canonical `A<n>` label of its instance, assigned in
    /// order of first appearance (independent of raw serials).
    pub labels: Vec<u32>,
    /// Per entry: its position in its thread's program order.
    pub positions: Vec<u32>,
    /// Per thread id: its entries in program order.
    pub program: Vec<Vec<u32>>,
    /// Labels of the instances that resolved, in order of their first
    /// `Resolved` entry.
    pub resolutions: Vec<u32>,
    /// Every message send, sorted by `(delivery time, sender, sequence)`.
    pub sends: Vec<SendRec>,
    /// The `ObjectAcquired` entries.
    pub acquisitions: Vec<u32>,
    /// Flat buffer of view-change removal sets ([`ViewDelta::Remove`]).
    pub removed: Vec<u32>,
    /// Per crash-stop, in trace order: `(crash, detection)`, the first
    /// later `ViewChange` (by any observer) removing the crashed thread.
    pub crash_detections: Vec<(u32, Option<u32>)>,
    /// Per `(crashed, observer)`: `(crash, view change)` for the
    /// observer's first `ViewChange` removing the thread, paired with its
    /// earliest preceding crash.
    pub observer_detections: Vec<(u32, u32)>,
    /// Per joiner-side `Rejoin` after a crash of the joiner:
    /// `(latest such crash, rejoin)`.
    pub rejoin_restarts: Vec<(u32, u32)>,
    /// Whole-run step counts.
    pub counts: RunCounts,
    /// Instances by label; only the first `live` belong to this trace
    /// (the rest are cleared records kept for their buffers).
    instances: Vec<Instance>,
    live: usize,
    /// Labels ascending by raw serial.
    by_serial: Vec<u32>,
    serial_labels: HashMap<u64, u32>,
}

impl InstanceIndex {
    /// Re-derives the index from canonically ordered `entries`, reusing
    /// every buffer.
    ///
    /// Panics when the trace holds more than `u32::MAX` entries.
    pub(crate) fn rebuild(&mut self, entries: &[Entry]) {
        self.clear();
        for (i, entry) in entries.iter().enumerate() {
            let i = u32::try_from(i).expect("entry count fits u32");
            let label = self.label_for(entry.action_serial());
            self.labels.push(label);
            let thread = entry.thread as usize;
            if thread >= self.program.len() {
                self.program.resize_with(thread + 1, Vec::new);
            }
            let pos = u32::try_from(self.program[thread].len()).expect("entry count fits u32");
            self.program[thread].push(i);
            self.positions.push(pos);
            match &entry.kind {
                EntryKind::Runtime(event) => self.runtime_step(entries, i, label, event),
                EntryKind::NetSent(tap) => {
                    self.sends.push(SendRec {
                        deliver_ns: tap.deliver_at.as_nanos(),
                        sent_ns: entry.at_ns,
                        src: entry.thread,
                        dst: tap.dst.as_u32(),
                        src_pos: pos,
                        instance: label,
                        seq: tap.seq,
                    });
                    let instance = &mut self.instances[label as usize];
                    match tap.class {
                        "Exception" | "Suspended" | "Commit" => instance.resolution_msgs += 1,
                        "toBeSignalled" => instance.signal_sends += 1,
                        _ => {}
                    }
                }
                EntryKind::NetDropped(_) | EntryKind::NetCorrupted(_) => {}
            }
        }
        self.sends
            .sort_unstable_by_key(|s| (s.deliver_ns, s.src, s.seq));
        let instances = &self.instances;
        self.by_serial
            .extend(0..u32::try_from(self.live).expect("instance count fits u32"));
        self.by_serial
            .sort_unstable_by_key(|&label| instances[label as usize].serial);
    }

    fn clear(&mut self) {
        self.labels.clear();
        self.positions.clear();
        for list in &mut self.program {
            list.clear();
        }
        for instance in &mut self.instances[..self.live] {
            instance.clear();
        }
        self.live = 0;
        self.by_serial.clear();
        self.resolutions.clear();
        self.sends.clear();
        self.acquisitions.clear();
        self.removed.clear();
        self.crash_detections.clear();
        self.observer_detections.clear();
        self.rejoin_restarts.clear();
        self.counts = RunCounts::default();
        self.serial_labels.clear();
    }

    /// The label of `serial`, assigned in first-appearance order.
    fn label_for(&mut self, serial: u64) -> u32 {
        let next = u32::try_from(self.live).expect("instance count fits u32");
        let label = *self.serial_labels.entry(serial).or_insert(next);
        if label == next {
            if self.live == self.instances.len() {
                self.instances.push(Instance::default());
            }
            self.instances[self.live].serial = serial;
            self.live += 1;
        }
        label
    }

    /// Folds one runtime event (entry `i`, instance `label`).
    fn runtime_step(&mut self, entries: &[Entry], i: u32, label: u32, event: &Event) {
        let at = event.at.as_nanos();
        let thread = event.thread.as_u32();
        let instance = &mut self.instances[label as usize];
        instance.depth = event.action.depth();
        let slot = instance.thread_slot(thread);
        let facts = &mut instance.threads[slot];
        // Any later step of the thread on the instance closes an open
        // oracle exit phase (exits wait on votes only; nothing else is
        // observed in between).
        if let Some(start) = facts.exit_phase_start.take() {
            instance
                .exit_phases
                .push((thread, at.saturating_sub(start)));
        }
        match &event.kind {
            EventKind::Enter { name, .. } => {
                facts.enters += 1;
                instance.name = Some(Arc::clone(name));
            }
            EventKind::Exit { outcome } => {
                facts.exits += 1;
                if matches!(outcome, ActionOutcome::Failed) {
                    facts.failed_exits += 1;
                }
                if let Some(start) = facts.exit_round_start.take() {
                    instance.exit_rounds.push(at.saturating_sub(start));
                }
                if let Some(start) = facts.catchup_start.take() {
                    instance.rejoin_catchups.push(at.saturating_sub(start));
                }
            }
            EventKind::Abort { .. } => facts.aborts += 1,
            EventKind::Crash => {
                facts.crashes += 1;
                self.crash_detections.push((i, None));
            }
            EventKind::ExitStart { .. } => {
                facts.exit_phase_start = Some(at);
                facts.exit_round_start = Some(at);
                facts.exiting = true;
            }
            EventKind::RecoveryStart { .. } => {
                facts.recovery_starts += 1;
                if std::mem::take(&mut facts.exiting) {
                    facts.exit_races += 1;
                }
            }
            EventKind::Raise { .. } => {
                instance.first_raise.get_or_insert(i);
            }
            EventKind::Resolved { exception } => {
                facts.resolved += 1;
                instance.resolved.push((thread, exception.clone()));
                if instance.first_resolved.is_none() {
                    instance.first_resolved = Some(i);
                    self.resolutions.push(label);
                }
            }
            EventKind::ResolutionInvoked { invocations } => {
                instance.invocations += u64::from(*invocations);
            }
            EventKind::HandlerEnd { .. } => {
                instance.last_handler_end_ns =
                    Some(instance.last_handler_end_ns.map_or(at, |v| v.max(at)));
            }
            EventKind::SignalOutcome { signal } => match signal {
                Signal::Undo => self.counts.undo_outcomes += 1,
                Signal::Failure => {
                    self.counts.failure_outcomes += 1;
                    if event.action.depth() >= 1 {
                        self.counts.failure_cascades += 1;
                    }
                }
                _ => {}
            },
            EventKind::ObjectAcquired { .. } => self.acquisitions.push(i),
            EventKind::ExitTimeout { .. } => self.counts.exit_timeouts += 1,
            EventKind::SignalTimeout { .. } => self.counts.signal_timeouts += 1,
            EventKind::ResolutionTimeout { .. } => self.counts.resolution_timeouts += 1,
            EventKind::ViewChange { removed, .. } => {
                self.counts.view_changes += 1;
                let start = self.removed.len();
                self.removed.extend(removed.iter().map(|t| t.as_u32()));
                let removed = start..self.removed.len();
                instance.view_deltas.push(ViewDelta::Remove {
                    observer: thread,
                    removed: removed.clone(),
                });
                self.pair_detections(entries, i, thread, removed);
            }
            EventKind::Rejoin { thread: joiner, .. } => {
                let joiner = joiner.as_u32();
                instance.view_deltas.push(ViewDelta::Readmit {
                    observer: thread,
                    thread: joiner,
                });
                // Only the joiner's own event opens the catch-up window;
                // survivor-side adoptions echo the same handshake.
                if joiner == thread {
                    facts.catchup_start = Some(at);
                    self.counts.rejoins += 1;
                    if let Some(&(crash, _)) = self
                        .crash_detections
                        .iter()
                        .rev()
                        .find(|&&(crash, _)| entries[crash as usize].thread == thread)
                    {
                        self.rejoin_restarts.push((crash, i));
                    }
                }
            }
            _ => {}
        }
    }

    /// Pairs the crashes a view change at entry `i` (by `observer`)
    /// removes, under both detection definitions.
    fn pair_detections(&mut self, entries: &[Entry], i: u32, observer: u32, removed: Range<usize>) {
        let removed = &self.removed[removed];
        let thread_of = |entry: u32| entries[entry as usize].thread;
        for (crash, detected) in &mut self.crash_detections {
            let crashed = thread_of(*crash);
            if !removed.contains(&crashed) {
                continue;
            }
            detected.get_or_insert(i);
            let seen = self
                .observer_detections
                .iter()
                .any(|&(c, v)| thread_of(c) == crashed && thread_of(v) == observer);
            if !seen {
                self.observer_detections.push((*crash, i));
            }
        }
    }

    /// The threads with at least one entry, ascending.
    pub fn threads(&self) -> impl Iterator<Item = u32> + '_ {
        (0..=u32::MAX)
            .zip(&self.program)
            .filter(|(_, program)| !program.is_empty())
            .map(|(thread, _)| thread)
    }

    /// The trace's instances, indexed by label.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances[..self.live]
    }

    /// `(label, instance)` ascending by raw serial — the order oracle
    /// verdicts are reported in.
    pub fn by_serial(&self) -> impl Iterator<Item = (u32, &Instance)> + '_ {
        self.by_serial
            .iter()
            .map(|&label| (label, &self.instances[label as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceRecorder};
    use caa_core::ids::{ActionId, PartitionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::Observer;
    use caa_simnet::{NetTap, TapEvent};

    /// The instance under test; `B` and the send-only `C` appear first, so
    /// labels (B, C, A) and raw serials (A, B, C) disagree on order.
    const A: ActionId = ActionId::top_level(2);
    const B: ActionId = ActionId::top_level(30);
    const C: u64 = 40;

    /// A hand-built run of `A` over threads 0–2: two raises, an exit on
    /// T1 interrupted by recovery (`ExitStart→RecoveryStart→ExitStart→
    /// Exit`), resolution messages, and T2 crashing, being removed by
    /// both survivors, restarting and being readmitted.
    fn hand_trace() -> Trace {
        let rec = TraceRecorder::new();
        let on = |at: u64, thread: u32, action: ActionId, kind: EventKind| {
            rec.on_event(&Event {
                at: VirtualInstant::from_nanos(at),
                thread: ThreadId::new(thread),
                action,
                kind,
            });
        };
        let send = |at: u64, src: u32, dst: u32, class: &'static str, correlation: u64| {
            rec.on_sent(&TapEvent {
                src: PartitionId::new(src),
                dst: PartitionId::new(dst),
                class,
                correlation,
                at: VirtualInstant::from_nanos(at),
                deliver_at: VirtualInstant::from_nanos(at + 3),
                seq: at,
            });
        };
        let enter = |name: &str| EventKind::Enter {
            name: name.into(),
            role: "r".into(),
            depth: 0,
        };
        let x = || ExceptionId::new("x");
        let success = || EventKind::Exit {
            outcome: ActionOutcome::Success,
        };
        let removed = || EventKind::ViewChange {
            epoch: 1,
            removed: vec![ThreadId::new(2)],
        };
        let rejoin = || EventKind::Rejoin {
            epoch: 2,
            thread: ThreadId::new(2),
        };
        on(5, 0, B, enter("b"));
        send(7, 0, 1, "App", C);
        for t in 0..3 {
            on(10, t, A, enter("a"));
        }
        on(20, 0, A, EventKind::Raise { exception: x() });
        send(20, 0, 1, "Exception", A.serial());
        let y = ExceptionId::new("y");
        on(25, 0, A, EventKind::Raise { exception: y });
        on(30, 1, A, EventKind::ExitStart { epoch: 0 });
        on(40, 1, A, EventKind::RecoveryStart { raised: false });
        send(40, 1, 0, "Suspended", A.serial());
        on(50, 1, A, EventKind::Resolved { exception: x() });
        send(50, 1, 0, "Commit", A.serial());
        send(52, 1, 2, "toBeSignalled", A.serial());
        on(55, 0, A, EventKind::Resolved { exception: x() });
        on(60, 1, A, EventKind::ExitStart { epoch: 0 });
        on(75, 1, A, success());
        on(80, 2, A, EventKind::Crash);
        on(90, 0, A, removed());
        on(95, 1, A, removed());
        on(98, 2, A, enter("a"));
        on(100, 2, A, rejoin());
        on(105, 0, A, rejoin());
        on(120, 2, A, success());
        rec.finish()
    }

    /// The index of the entry at `at` on `thread`.
    fn entry(trace: &Trace, at: u64, thread: u32) -> u32 {
        let entries = trace.entries();
        let i = entries
            .iter()
            .position(|e| (e.at_ns, e.thread) == (at, thread));
        u32::try_from(i.expect("entry exists")).unwrap()
    }

    /// Instance `A`, which is labelled 2.
    fn a(trace: &Trace) -> &Instance {
        &trace.index().instances()[2]
    }

    #[test]
    fn labels_follow_first_appearance_and_verdicts_follow_serials() {
        let trace = hand_trace();
        let index = trace.index();
        let serials: Vec<u64> = index.instances().iter().map(|i| i.serial).collect();
        assert_eq!(serials, vec![B.serial(), C, A.serial()]);
        assert_eq!(index.labels[..3], [0, 1, 2]);
        let by_serial: Vec<u32> = index.by_serial().map(|(label, _)| label).collect();
        assert_eq!(by_serial, vec![2, 0, 1]);
        let text = trace.render();
        assert!(
            text.starts_with("@           5 T0 #0    A0 enter b"),
            "{text}"
        );
    }

    #[test]
    fn first_raise_and_first_resolve_are_the_earliest() {
        let trace = hand_trace();
        assert_eq!(a(&trace).first_raise, Some(entry(&trace, 20, 0)));
        assert_eq!(a(&trace).first_resolved, Some(entry(&trace, 50, 1)));
        let x = ExceptionId::new("x");
        assert_eq!(a(&trace).resolved, vec![(1, x.clone()), (0, x)]);
        assert_eq!(trace.index().resolutions, [2]);
    }

    #[test]
    fn exit_phases_and_exit_rounds_keep_their_own_definitions() {
        let trace = hand_trace();
        // Oracle: each ExitStart runs to T1's next step on A — the
        // recovery trigger (30→40), then the exit (60→75).
        assert_eq!(a(&trace).exit_phases, vec![(1, 10), (1, 15)]);
        // Metrics: only an Exit closes a round, from the latest ExitStart.
        assert_eq!(a(&trace).exit_rounds, vec![15]);
        assert_eq!(a(&trace).threads[1].exit_races, 1);
    }

    #[test]
    fn view_deltas_include_the_readmission() {
        let trace = hand_trace();
        let index = trace.index();
        let deltas: Vec<(u32, &[u32], Option<u32>)> = a(&trace)
            .view_deltas
            .iter()
            .map(|d| match d {
                ViewDelta::Remove { observer, removed } => {
                    (*observer, &index.removed[removed.clone()], None)
                }
                ViewDelta::Readmit { observer, thread } => (*observer, &[][..], Some(*thread)),
            })
            .collect();
        let expected: [(u32, &[u32], Option<u32>); 4] = [
            (0, &[2], None),
            (1, &[2], None),
            (2, &[], Some(2)),
            (0, &[], Some(2)),
        ];
        assert_eq!(deltas, expected);
        // T2 entered twice, around its crash, and caught up from its own
        // Rejoin to its Exit.
        let t2 = &a(&trace).threads[2];
        assert_eq!((t2.enters, t2.crashes, t2.exits), (2, 1, 1));
        assert_eq!(a(&trace).rejoin_catchups, vec![20]);
        assert_eq!((index.counts.rejoins, index.counts.view_changes), (1, 2));
    }

    #[test]
    fn resolution_messages_are_counted_per_instance() {
        let trace = hand_trace();
        assert_eq!(a(&trace).resolution_msgs, 3, "Exception, Suspended, Commit");
        assert_eq!(a(&trace).signal_sends, 1);
        assert_eq!(trace.index().instances()[1].resolution_msgs, 0, "App");
    }

    #[test]
    fn crash_pairs_follow_both_detection_definitions() {
        let trace = hand_trace();
        let index = trace.index();
        let crash = entry(&trace, 80, 2);
        let (first, second) = (entry(&trace, 90, 0), entry(&trace, 95, 1));
        // Per crash: the first view change removing it, by anyone.
        assert_eq!(index.crash_detections, [(crash, Some(first))]);
        // Per (crashed, observer): each survivor's own view change.
        assert_eq!(index.observer_detections, [(crash, first), (crash, second)]);
        // The joiner's own Rejoin pairs with its latest crash.
        assert_eq!(index.rejoin_restarts, [(crash, entry(&trace, 100, 2))]);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_a_fresh_index() {
        let trace = hand_trace();
        let mut reused = InstanceIndex::default();
        reused.rebuild(trace.entries());
        reused.rebuild(&[]);
        assert!(reused.instances().is_empty());
        reused.rebuild(trace.entries());
        assert_eq!(reused.instances(), trace.index().instances());
        assert_eq!(reused.sends, trace.index().sends);
    }
}
