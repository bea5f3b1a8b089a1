//! Structured trace recording.
//!
//! A [`TraceRecorder`] implements both the runtime's
//! [`caa_runtime::observe::Observer`] hook and the network's
//! [`caa_simnet::NetTap`] hook, collecting every protocol-level
//! step and every message send/loss/corruption of one simulated run. Events
//! arrive interleaved across participants in executor order;
//! [`TraceRecorder::finish`] sorts them into the canonical order
//! `(virtual time, thread, per-thread sequence)`, which is fully
//! deterministic for a deterministic run — the same seed renders the same
//! byte-identical trace, which is exactly what the deterministic-replay
//! oracle checks. The same hand-over builds the trace's
//! [`InstanceIndex`], the one interpretation every consumer reads.

use std::sync::Arc;

use caa_core::ids::PartitionId;
use caa_runtime::observe::{push_decimal, push_decimal_right, Event, Observer};
use caa_simnet::{NetTap, TapEvent};
use parking_lot::Mutex;

use crate::index::InstanceIndex;

/// What one trace entry records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A runtime protocol step (entry/exit, raise, resolution, handler,
    /// signalling, abortion).
    Runtime(Event),
    /// A message accepted by the network.
    NetSent(TapEvent),
    /// A message lost by fault injection.
    NetDropped(TapEvent),
    /// A message corrupted by fault injection.
    NetCorrupted(TapEvent),
}

/// One entry of a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Virtual timestamp in nanoseconds.
    pub at_ns: u64,
    /// The thread (partition) the entry originates from.
    pub thread: u32,
    /// Per-thread sequence number (program order within the thread).
    pub seq: u64,
    /// The recorded step.
    pub kind: EntryKind,
}

impl Entry {
    /// The action-instance serial this entry refers to.
    #[must_use]
    pub fn action_serial(&self) -> u64 {
        match &self.kind {
            EntryKind::Runtime(e) => e.action.serial(),
            EntryKind::NetSent(e) | EntryKind::NetDropped(e) | EntryKind::NetCorrupted(e) => {
                e.correlation
            }
        }
    }

    /// Renders one line into `out`. `act` is the canonical
    /// (run-independent) label of the entry's action instance: raw
    /// instance serials incorporate process-global definition ids and
    /// would differ between two executions of the same seed.
    ///
    /// This is the trace's one renderer: [`Trace::render`],
    /// [`Trace::render_fingerprint`] and [`Trace::first_divergence`] all
    /// write through it. The header is `@{at_ns:>12} T{thread}
    /// #{seq:<4} A{act} `, written with explicit padding; runtime events
    /// append [`EventKind::render_into`](caa_runtime::observe::EventKind::render_into).
    fn render(&self, out: &mut Vec<u8>, act: u32) {
        out.push(b'@');
        push_decimal_right(out, self.at_ns, 12);
        out.extend_from_slice(b" T");
        push_decimal(out, u64::from(self.thread));
        out.extend_from_slice(b" #");
        // Left-aligned in four: pad with the spaces the digits left over.
        let digits = push_decimal(out, self.seq);
        out.extend_from_slice(b"    ");
        out.truncate(out.len() - digits.min(4));
        out.extend_from_slice(b" A");
        push_decimal(out, u64::from(act));
        out.push(b' ');
        match &self.kind {
            EntryKind::Runtime(e) => e.kind.render_into(out),
            EntryKind::NetSent(e) => {
                push_link(out, b"net send ", e);
                out.extend_from_slice(b" seq=");
                push_decimal(out, e.seq);
                out.extend_from_slice(b" deliver@");
                push_decimal(out, e.deliver_at.as_nanos());
            }
            EntryKind::NetDropped(e) => push_link(out, b"net drop ", e),
            EntryKind::NetCorrupted(e) => push_link(out, b"net corrupt ", e),
        }
        out.push(b'\n');
    }
}

/// Appends `what`, the message class and its `node<src>->node<dst>` link.
fn push_link(out: &mut Vec<u8>, what: &[u8], e: &TapEvent) {
    out.extend_from_slice(what);
    out.extend_from_slice(e.class.as_bytes());
    out.push(b' ');
    out.extend_from_slice(PartitionId::PREFIX.as_bytes());
    push_decimal(out, u64::from(e.src.as_u32()));
    out.extend_from_slice(b"->");
    out.extend_from_slice(PartitionId::PREFIX.as_bytes());
    push_decimal(out, u64::from(e.dst.as_u32()));
}

/// A completed, canonically ordered trace with its [`InstanceIndex`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<Entry>,
    index: InstanceIndex,
}

/// Traces compare by their entries; the index is a function of them.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Trace {}

impl Trace {
    /// Sorts `entries` into canonical order and indexes them into the
    /// recycled `index`. `(thread, seq)` is unique per entry, so the
    /// unstable sort yields the one canonical order.
    fn canonical(mut entries: Vec<Entry>, mut index: InstanceIndex) -> Trace {
        entries.sort_unstable_by_key(|e| (e.at_ns, e.thread, e.seq));
        index.rebuild(&entries);
        Trace { entries, index }
    }

    /// The entries in canonical order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The trace's per-instance index, built once when the trace was
    /// handed over.
    #[must_use]
    pub fn index(&self) -> &InstanceIndex {
        &self.index
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The runtime events of the trace, in canonical order.
    pub fn runtime_events(&self) -> impl Iterator<Item = &Event> {
        self.entries.iter().filter_map(|e| match &e.kind {
            EntryKind::Runtime(ev) => Some(ev),
            _ => None,
        })
    }

    /// Renders the whole trace as text: one line per entry, byte-identical
    /// across replays of the same seed. Action-instance serials are
    /// replaced by the index's dense labels, assigned in canonical order
    /// of first appearance ([`InstanceIndex::labels`]), so the rendering
    /// is independent of process-global definition-id state.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = Vec::with_capacity(self.entries.len() * 72);
        for (i, entry) in self.entries.iter().enumerate() {
            entry.render(&mut out, self.index.labels[i]);
        }
        String::from_utf8(out).expect("trace text is UTF-8")
    }

    /// Streams the FNV-1a 64-bit fingerprint of [`Trace::render`] without
    /// materialising the rendered `String`: each entry renders into one
    /// reusable line buffer and folds into the running hash. By
    /// construction `trace.render_fingerprint() ==
    /// fnv1a64(trace.render().as_bytes())`, so fingerprints from hash-only
    /// sweeps (`trace_hashes`, the golden-trace test, pre/post refactor
    /// gates) stay comparable with fingerprints of rendered traces — at a
    /// fraction of the allocation cost for large traces.
    #[must_use]
    pub fn render_fingerprint(&self) -> u64 {
        let mut hash: u64 = FNV_OFFSET;
        let mut line = Vec::with_capacity(128);
        for (i, entry) in self.entries.iter().enumerate() {
            line.clear();
            entry.render(&mut line, self.index.labels[i]);
            hash = fnv1a64_fold(hash, &line);
        }
        hash
    }

    /// Streaming byte-exact comparison of two traces' renderings: returns
    /// the first (0-based) rendered line at which they differ, or `None`
    /// when the renderings are byte-identical. Equivalent to comparing
    /// [`Trace::render`] outputs line by line — but almost never formats
    /// anything: a structural fast path decides equality field-by-field
    /// (ignoring exactly the fields rendering ignores — raw action
    /// serials and tap correlations, which legitimately differ between
    /// two executions of one seed), and only a structurally-unequal pair
    /// falls back to rendering that single line pair to let
    /// display-equal-but-structurally-different entries through. The
    /// replay oracle's hot path thus stops materialising two full trace
    /// strings per seed.
    #[must_use]
    pub fn first_divergence(&self, other: &Trace) -> Option<usize> {
        let mut line_a = Vec::new();
        let mut line_b = Vec::new();
        let common = self.entries.len().min(other.entries.len());
        for i in 0..common {
            let (ea, eb) = (&self.entries[i], &other.entries[i]);
            let (act_a, act_b) = (self.index.labels[i], other.index.labels[i]);
            // A differing label prints as a differing `A<n>` no matter
            // what else the line contains.
            if act_a != act_b {
                return Some(i);
            }
            if (ea.at_ns, ea.thread, ea.seq) == (eb.at_ns, eb.thread, eb.seq)
                && kinds_render_equal(&ea.kind, &eb.kind)
            {
                continue;
            }
            // Structurally unequal: confirm by rendering this line pair
            // (exact, and cold — replays of one seed are structurally
            // identical in practice).
            line_a.clear();
            line_b.clear();
            ea.render(&mut line_a, act_a);
            eb.render(&mut line_b, act_b);
            if line_a != line_b {
                return Some(i);
            }
        }
        (self.entries.len() != other.entries.len()).then_some(common)
    }
}

/// Whether two entry kinds render to identical text, decided structurally
/// (the sufficient direction: structural equality over every *rendered*
/// field implies display equality). Rendering ignores the runtime event's
/// raw `action` id and the tap event's `correlation` — both are
/// process-global serials that legitimately differ between two executions
/// of the same seed (the canonical `A<n>` labels compare them instead) —
/// so those fields are ignored here too.
fn kinds_render_equal(a: &EntryKind, b: &EntryKind) -> bool {
    let tap_eq = |x: &TapEvent, y: &TapEvent| {
        (x.class, x.src, x.dst, x.seq, x.deliver_at) == (y.class, y.src, y.dst, y.seq, y.deliver_at)
    };
    match (a, b) {
        (EntryKind::Runtime(x), EntryKind::Runtime(y)) => x.kind == y.kind,
        (EntryKind::NetSent(x), EntryKind::NetSent(y)) => tap_eq(x, y),
        (EntryKind::NetDropped(x), EntryKind::NetDropped(y))
        | (EntryKind::NetCorrupted(x), EntryKind::NetCorrupted(y)) => {
            (x.class, x.src, x.dst) == (y.class, y.src, y.dst)
        }
        _ => false,
    }
}

/// FNV-1a 64-bit over arbitrary bytes: the canonical, dependency-free
/// fingerprint for rendered traces. The golden-trace regression test and
/// the `trace_hashes` pre/post comparison tool both hash
/// [`Trace::render`] output through this exact function — fingerprints
/// from different tools stay comparable.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit hash — the incremental form
/// behind [`fnv1a64`] and [`Trace::render_fingerprint`]: feeding chunks in
/// sequence yields exactly the hash of their concatenation.
#[must_use]
pub fn fnv1a64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A recorder's buffers: the entries in arrival order, the next
/// per-thread sequence number by thread id, and the recycled index the
/// hand-over rebuilds.
#[derive(Default)]
struct Recording {
    entries: Vec<Entry>,
    next_seq: Vec<u64>,
    index: InstanceIndex,
}

/// Collects runtime and network events from a running system.
///
/// Attach one recorder as both the system's observer and its network tap:
///
/// ```
/// use std::sync::Arc;
/// use caa_harness::trace::TraceRecorder;
/// use caa_runtime::System;
///
/// let recorder = Arc::new(TraceRecorder::default());
/// let sys = System::builder()
///     .observer(Arc::clone(&recorder) as _)
///     .tap(Arc::clone(&recorder) as _)
///     .build();
/// # drop(sys);
/// ```
pub struct TraceRecorder {
    /// Every participant of a system runs on the executor's one thread,
    /// so the lock never contends; it keeps the recorder `Send + Sync`
    /// for the observer and tap hooks.
    recording: Mutex<Recording>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            recording: Mutex::new(Recording::default()),
        }
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("entries", &self.recording.lock().entries.len())
            .finish()
    }
}

impl TraceRecorder {
    /// A fresh recorder behind an `Arc`, ready to attach.
    #[must_use]
    pub fn new() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::default())
    }

    /// A fresh recorder with room for `entries` — sweep drivers pass the
    /// largest trace seen so far so steady-state recording rarely
    /// reallocates mid-run.
    #[must_use]
    pub fn with_capacity(entries: usize) -> Arc<TraceRecorder> {
        let recorder = TraceRecorder::default();
        recorder.recording.lock().entries.reserve(entries);
        Arc::new(recorder)
    }

    /// A fresh recorder recording into a finished trace's recycled
    /// buffers (entries cleared, capacity kept; the index is rebuilt on
    /// hand-over) — the arena counterpart of
    /// [`TraceRecorder::with_capacity`].
    #[must_use]
    pub fn recycling(trace: Trace) -> Arc<TraceRecorder> {
        let Trace { mut entries, index } = trace;
        entries.clear();
        Arc::new(TraceRecorder {
            recording: Mutex::new(Recording {
                entries,
                next_seq: Vec::new(),
                index,
            }),
        })
    }

    fn push(&self, at_ns: u64, thread: u32, kind: EntryKind) {
        let mut recording = self.recording.lock();
        let slot = thread as usize;
        if slot >= recording.next_seq.len() {
            recording.next_seq.resize(slot + 1, 0);
        }
        let seq = recording.next_seq[slot];
        recording.next_seq[slot] += 1;
        recording.entries.push(Entry {
            at_ns,
            thread,
            seq,
            kind,
        });
    }

    /// Extracts the canonical, indexed trace recorded so far.
    #[must_use]
    pub fn finish(&self) -> Trace {
        let entries = self.recording.lock().entries.clone();
        Trace::canonical(entries, InstanceIndex::default())
    }

    /// Like [`TraceRecorder::finish`], but *takes* the recorded entries
    /// and the recycled index instead of cloning — the cheap path for run
    /// drivers that are done with the recorder.
    #[must_use]
    pub fn take_trace(&self) -> Trace {
        let mut recording = self.recording.lock();
        let entries = std::mem::take(&mut recording.entries);
        let index = std::mem::take(&mut recording.index);
        Trace::canonical(entries, index)
    }
}

impl Observer for TraceRecorder {
    fn on_event(&self, event: &Event) {
        self.push(
            event.at.as_nanos(),
            event.thread.as_u32(),
            EntryKind::Runtime(event.clone()),
        );
    }
}

impl NetTap for TraceRecorder {
    fn on_sent(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetSent(event.clone()),
        );
    }

    fn on_dropped(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetDropped(event.clone()),
        );
    }

    fn on_corrupted(&self, event: &TapEvent) {
        self.push(
            event.at.as_nanos(),
            event.src.as_u32(),
            EntryKind::NetCorrupted(event.clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::exception::{ExceptionId, Signal};
    use caa_core::ids::{ActionId, ThreadId};
    use caa_core::message::SignalRound;
    use caa_core::outcome::{ActionOutcome, HandlerVerdict};
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::EventKind;

    fn runtime_event(at: u64, thread: u32) -> Event {
        Event {
            at: VirtualInstant::from_nanos(at),
            thread: ThreadId::new(thread),
            action: ActionId::top_level(5),
            kind: EventKind::Raise {
                exception: ExceptionId::new("x"),
            },
        }
    }

    #[test]
    fn canonical_order_sorts_by_time_thread_seq() {
        let rec = TraceRecorder::new();
        rec.on_event(&runtime_event(200, 1));
        rec.on_event(&runtime_event(100, 1));
        rec.on_event(&runtime_event(100, 0));
        let trace = rec.finish();
        let keys: Vec<(u64, u32)> = trace
            .entries()
            .iter()
            .map(|e| (e.at_ns, e.thread))
            .collect();
        assert_eq!(keys, vec![(100, 0), (100, 1), (200, 1)]);
        // Per-thread sequence numbers preserve arrival (program) order:
        // thread 1 recorded its @200 event before its @100 event.
        assert_eq!(trace.entries()[1].seq, 1);
        assert_eq!(trace.entries()[2].seq, 0);
    }

    /// Renders one entry exactly as a trace line.
    fn line(at_ns: u64, thread: u32, seq: u64, act: u32, kind: EntryKind) -> String {
        let mut out = Vec::new();
        Entry {
            at_ns,
            thread,
            seq,
            kind,
        }
        .render(&mut out, act);
        String::from_utf8(out).expect("UTF-8")
    }

    fn event(kind: EventKind) -> EntryKind {
        EntryKind::Runtime(Event {
            at: VirtualInstant::EPOCH,
            thread: ThreadId::new(0),
            action: ActionId::top_level(1),
            kind,
        })
    }

    fn tap(class: &'static str, src: u32, dst: u32, seq: u64, deliver: u64) -> TapEvent {
        TapEvent {
            src: PartitionId::new(src),
            dst: PartitionId::new(dst),
            class,
            correlation: 77,
            at: VirtualInstant::EPOCH,
            deliver_at: VirtualInstant::from_nanos(deliver),
            seq,
        }
    }

    /// Every entry and event kind against its literal line, including
    /// header fields wider than their padding, every reserved exception
    /// name and the `Debug` forms. The expectations are literals (not
    /// `Display` output, which shares the renderer), so they pin the
    /// bytes every fingerprint hashes.
    #[test]
    fn every_kind_renders_its_literal_line() {
        let t = ThreadId::new;
        let id = ExceptionId::new;
        let cases: Vec<(u64, u32, u64, u32, EntryKind, &str)> = vec![
            (0, 0, 0, 0, event(EventKind::Enter {
                name: Arc::from("cell"),
                role: Arc::from("press"),
                depth: 1,
            }), "@           0 T0 #0    A0 enter cell as press depth=1\n"),
            (999_999_999_999, 1, 9_999, 2, event(EventKind::Exit {
                outcome: ActionOutcome::Success,
            }), "@999999999999 T1 #9999 A2 exit success\n"),
            (1_000_000_000_000, 2, 10_000, 3, event(EventKind::Exit {
                outcome: ActionOutcome::Signalled(id("l_plate")),
            }), "@1000000000000 T2 #10000 A3 exit signalled l_plate\n"),
            (u64::MAX, 4_000_000_000, u64::MAX, u32::MAX, event(EventKind::Exit {
                outcome: ActionOutcome::Signalled(ExceptionId::undo()),
            }), "@18446744073709551615 T4000000000 #18446744073709551615 A4294967295 exit signalled \u{b5}\n"),
            (5, 0, 12, 1, event(EventKind::Exit {
                outcome: ActionOutcome::Undone,
            }), "@           5 T0 #12   A1 exit undone (\u{b5})\n"),
            (5, 0, 123, 1, event(EventKind::Exit {
                outcome: ActionOutcome::Failed,
            }), "@           5 T0 #123  A1 exit failed (\u{192})\n"),
            (60, 3, 1, 4, event(EventKind::Abort { eab: None }),
                "@          60 T3 #1    A4 abort\n"),
            (60, 3, 2, 4, event(EventKind::Abort {
                eab: Some(ExceptionId::abortion()),
            }), "@          60 T3 #2    A4 abort eab=abortion\n"),
            (61, 3, 3, 4, event(EventKind::Abort {
                eab: Some(id("e_ab")),
            }), "@          61 T3 #3    A4 abort eab=e_ab\n"),
            (7, 1, 0, 0, event(EventKind::Raise {
                exception: ExceptionId::universal(),
            }), "@           7 T1 #0    A0 raise universal\n"),
            (7, 1, 1, 0, event(EventKind::Raise {
                exception: id("vm_stop"),
            }), "@           7 T1 #1    A0 raise vm_stop\n"),
            (8, 1, 2, 0, event(EventKind::RecoveryStart { raised: true }),
                "@           8 T1 #2    A0 recovery raise\n"),
            (8, 2, 2, 0, event(EventKind::RecoveryStart { raised: false }),
                "@           8 T2 #2    A0 recovery suspend\n"),
            (9, 1, 3, 0, event(EventKind::ResolutionInvoked { invocations: 13 }),
                "@           9 T1 #3    A0 resolve-invoked x13\n"),
            (9, 1, 4, 0, event(EventKind::Resolved {
                exception: ExceptionId::crash(),
            }), "@           9 T1 #4    A0 resolved crash\n"),
            (9, 1, 5, 0, event(EventKind::HandlerStart {
                exception: ExceptionId::failure(),
            }), "@           9 T1 #5    A0 handler-start \u{192}\n"),
            (10, 1, 6, 0, event(EventKind::HandlerEnd {
                verdict: HandlerVerdict::Recovered,
            }), "@          10 T1 #6    A0 handler-end Recovered\n"),
            (10, 1, 6, 0, event(EventKind::HandlerEnd {
                verdict: HandlerVerdict::Signal(id("e2")),
            }), "@          10 T1 #6    A0 handler-end Signal(ExceptionId(\"e2\"))\n"),
            (10, 1, 6, 0, event(EventKind::HandlerEnd {
                verdict: HandlerVerdict::Undo,
            }), "@          10 T1 #6    A0 handler-end Undo\n"),
            (10, 1, 6, 0, event(EventKind::HandlerEnd {
                verdict: HandlerVerdict::Fail,
            }), "@          10 T1 #6    A0 handler-end Fail\n"),
            (11, 1, 7, 0, event(EventKind::SignalOutcome { signal: Signal::None }),
                "@          11 T1 #7    A0 signal None\n"),
            (11, 1, 7, 0, event(EventKind::SignalOutcome {
                signal: Signal::Exception(ExceptionId::undo()),
            }), "@          11 T1 #7    A0 signal Exception(ExceptionId(\"__undo\"))\n"),
            (11, 1, 7, 0, event(EventKind::SignalOutcome { signal: Signal::Undo }),
                "@          11 T1 #7    A0 signal Undo\n"),
            (11, 1, 7, 0, event(EventKind::SignalOutcome { signal: Signal::Failure }),
                "@          11 T1 #7    A0 signal Failure\n"),
            (12, 0, 8, 5, event(EventKind::ObjectAcquired {
                object: Arc::from("belt"),
                waited_ns: 99,
            }), "@          12 T0 #8    A5 object acquire belt\n"),
            (13, 0, 9, 5, event(EventKind::ExitStart { epoch: 2 }),
                "@          13 T0 #9    A5 exit start e2\n"),
            (14, 0, 10, 5, event(EventKind::ExitTimeout { epoch: 0 }),
                "@          14 T0 #10   A5 exit timeout e0\n"),
            (15, 0, 11, 5, event(EventKind::SignalTimeout {
                round: SignalRound::First,
                suspects: vec![t(1), t(3)],
            }), "@          15 T0 #11   A5 signal timeout round-1 suspects T1 T3\n"),
            (15, 0, 12, 5, event(EventKind::SignalTimeout {
                round: SignalRound::AfterUndo,
                suspects: Vec::new(),
            }), "@          15 T0 #12   A5 signal timeout round-2 suspects\n"),
            (16, 0, 13, 5, event(EventKind::ResolutionTimeout { suspects: Vec::new() }),
                "@          16 T0 #13   A5 resolution timeout suspects\n"),
            (16, 0, 14, 5, event(EventKind::ResolutionTimeout { suspects: vec![t(2)] }),
                "@          16 T0 #14   A5 resolution timeout suspects T2\n"),
            (17, 0, 15, 5, event(EventKind::ViewChange {
                epoch: 1,
                removed: Vec::new(),
            }), "@          17 T0 #15   A5 view change v1 -\n"),
            (17, 0, 16, 5, event(EventKind::ViewChange {
                epoch: 30,
                removed: vec![t(1), t(12)],
            }), "@          17 T0 #16   A5 view change v30 - T1 T12\n"),
            (18, 2, 0, 5, event(EventKind::Crash), "@          18 T2 #0    A5 crash-stop\n"),
            (19, 2, 1, 6, event(EventKind::JoinRequested { to: t(4) }),
                "@          19 T2 #1    A6 join request T4\n"),
            (20, 2, 2, 6, event(EventKind::Rejoin {
                epoch: 5,
                thread: t(2),
            }), "@          20 T2 #2    A6 rejoin v5 + T2\n"),
            (21, 0, 3, 7, EntryKind::NetSent(tap("Exception", 0, 1, 3, 27)),
                "@          21 T0 #3    A7 net send Exception node0->node1 seq=3 deliver@27\n"),
            (21, 1, 4, 7, EntryKind::NetDropped(tap("Commit", 1, 10, 4, 21)),
                "@          21 T1 #4    A7 net drop Commit node1->node10\n"),
            (21, 3, 5, 7, EntryKind::NetCorrupted(tap("ExitVote", 3, 0, 5, 30)),
                "@          21 T3 #5    A7 net corrupt ExitVote node3->node0\n"),
        ];
        for (at, thread, seq, act, kind, expected) in cases {
            assert_eq!(line(at, thread, seq, act, kind), expected);
        }
    }

    #[test]
    fn render_is_stable_and_line_oriented() {
        let rec = TraceRecorder::new();
        rec.on_event(&runtime_event(1, 0));
        rec.on_sent(&TapEvent {
            src: PartitionId::new(0),
            dst: PartitionId::new(1),
            class: "Exception",
            correlation: 9,
            at: VirtualInstant::from_nanos(2),
            deliver_at: VirtualInstant::from_nanos(7),
            seq: 0,
        });
        let trace = rec.finish();
        let text = trace.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("raise x"), "{text}");
        assert!(text.contains("net send Exception"), "{text}");
        assert_eq!(text, rec.finish().render());
    }
}
