//! Causal span timelines derived post-run from recorded traces.
//!
//! This module turns a canonical [`Trace`] into three artifacts, all
//! **derived** — the simulation hot path records nothing new, so trace
//! bytes and the 12k-seed fingerprint gate are untouched by construction:
//!
//! * **Span trees** ([`build_span_tree`]): per-instance timelines of the
//!   protocol's phases — action enter→exit, raise→resolve, each
//!   resolution round, signalling, the exit barrier, object waits,
//!   crash→detection and rejoin restart/catch-up — as a
//!   [`SpanTree`] of virtual-time intervals with parent links.
//! * **Critical paths** ([`CriticalPathScratch::extract`],
//!   [`critical_paths`]): for every resolved exception, a backward walk
//!   over the causal graph (message send→receive edges from `NetSent`
//!   records plus intra-thread program order) from the first `Resolved`
//!   back to the first `Raise`, attributing **every nanosecond** of the
//!   raise→resolve latency to a [`SegmentClass`]. The segments of one
//!   instance partition `[raised_at, resolved_at]` exactly — their
//!   durations sum to the instance's latency, which the sweep metrics
//!   (`critical_path` set in `metrics.json`) rely on and tests assert.
//! * **Perfetto export** ([`trace_event_json`]): a Chrome trace-event
//!   JSON document (complete-event spans, flow arrows for causal message
//!   edges, one lane per critical path) in the telemetry crate's
//!   integer-only JSON subset, loadable at <https://ui.perfetto.dev>.
//!
//! # Critical-path walk
//!
//! Starting at the first `Resolved` event, the walk repeatedly asks what
//! the current thread was doing in the window ending at the cursor:
//!
//! 1. If the window ends at an `ObjectAcquired` with a non-zero wait, the
//!    tail of the window is **object-wait**.
//! 2. If a message of this instance was delivered to the thread inside
//!    the window (the latest such delivery wins), the window splits at
//!    the delivery: the part after it keeps the window's base class, the
//!    `[sent, delivered]` interval is **message-wait**, and the walk hops
//!    to the sender at send time — a causal edge.
//! 3. Otherwise the whole window gets the base class — **timeout-slack**
//!    when it ends in a bounded-wait expiry, **suspicion-round** when it
//!    ends in a view change, **compute** otherwise — and the walk steps
//!    to the previous entry in the thread's program order.
//!
//! Every step clamps at the raise time, so the emitted segments are
//! contiguous, disjoint and exactly cover the raise→resolve interval.

use std::fmt::Write as _;

use caa_runtime::observe::EventKind;
use caa_telemetry::json;
use caa_telemetry::{Span, SpanTree};

use crate::index::SendRec;
use crate::trace::{Entry, EntryKind, Trace};

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentClass {
    /// Waiting for a protocol message to arrive (send→deliver flight
    /// time of the causal edge the walk hopped over).
    MessageWait,
    /// Waiting for a shared-object grant.
    ObjectWait,
    /// Local protocol processing between causal events.
    Compute,
    /// Waiting out a bounded resolution/signalling/exit wait that expired.
    TimeoutSlack,
    /// A membership view change (suspicion round) on the path.
    SuspicionRound,
}

impl SegmentClass {
    /// Every class, in a stable order (the `cp_*` counter order).
    pub const ALL: [SegmentClass; 5] = [
        SegmentClass::MessageWait,
        SegmentClass::ObjectWait,
        SegmentClass::Compute,
        SegmentClass::TimeoutSlack,
        SegmentClass::SuspicionRound,
    ];

    /// The class's human label (also used in summaries and Perfetto
    /// lanes).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SegmentClass::MessageWait => "message-wait",
            SegmentClass::ObjectWait => "object-wait",
            SegmentClass::Compute => "compute",
            SegmentClass::TimeoutSlack => "timeout-slack",
            SegmentClass::SuspicionRound => "suspicion-round",
        }
    }

    /// The `critical_path` metric-set counter this class accumulates
    /// into.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            SegmentClass::MessageWait => "cp_message_wait_ns",
            SegmentClass::ObjectWait => "cp_object_wait_ns",
            SegmentClass::Compute => "cp_compute_ns",
            SegmentClass::TimeoutSlack => "cp_timeout_slack_ns",
            SegmentClass::SuspicionRound => "cp_suspicion_round_ns",
        }
    }
}

/// One attributed interval of a critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What the interval's time was spent on.
    pub class: SegmentClass,
    /// Virtual start, nanoseconds.
    pub start_ns: u64,
    /// Virtual end, nanoseconds.
    pub end_ns: u64,
}

impl Segment {
    /// The segment's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The raise→resolve critical path of one action instance: contiguous
/// segments exactly partitioning `[raised_at, resolved_at]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstancePath {
    /// Canonical (run-independent) action-instance label — the `A<n>`
    /// number of the trace rendering, *not* the process-global raw
    /// serial, so paths of the same seed compare equal across executions.
    pub instance: u64,
    /// Virtual time of the instance's first `Raise`.
    pub raised_at: u64,
    /// Virtual time of the instance's first `Resolved`.
    pub resolved_at: u64,
    /// The path's segments in chronological order.
    pub segments: Vec<Segment>,
}

impl InstancePath {
    /// The instance's raise→resolve latency — by construction also the
    /// sum of every segment's duration.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.resolved_at.saturating_sub(self.raised_at)
    }

    /// Total nanoseconds attributed to `class` on this path.
    #[must_use]
    pub fn class_total_ns(&self, class: SegmentClass) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.class == class)
            .map(Segment::duration_ns)
            .sum()
    }
}

/// Reusable scratch for critical-path extraction: the path buffer the
/// visitor borrows, cleared (capacity kept) between instances, so a
/// long-lived recorder adds no steady-state allocations to the pinned
/// per-seed budget.
#[derive(Debug, Default)]
pub struct CriticalPathScratch {
    path: InstancePath,
}

impl CriticalPathScratch {
    /// Fresh scratch (equivalent to `default()`).
    #[must_use]
    pub fn new() -> CriticalPathScratch {
        CriticalPathScratch::default()
    }

    /// Extracts the critical path of every resolved instance in `trace`,
    /// invoking `visit` once per instance in deterministic
    /// (resolution-time) order. The visited [`InstancePath`] borrows the
    /// scratch's reusable buffer — clone it to keep it.
    pub fn extract(&mut self, trace: &Trace, mut visit: impl FnMut(&InstancePath)) {
        let index = trace.index();
        let entries = trace.entries();
        for &label in &index.resolutions {
            let instance = &index.instances()[label as usize];
            let (Some(raise), Some(resolved)) = (instance.first_raise, instance.first_resolved)
            else {
                continue;
            };
            let resolved_entry = &entries[resolved as usize];
            let resolved_at = resolved_entry.at_ns;
            self.walk(
                trace,
                label,
                entries[raise as usize].at_ns.min(resolved_at),
                resolved_at,
                resolved_entry.thread,
                index.positions[resolved as usize],
            );
            visit(&self.path);
        }
    }

    /// The backward walk for one instance (see the module docs); fills
    /// `self.path` with chronological segments exactly covering
    /// `[raised_at, resolved_at]`.
    fn walk(
        &mut self,
        trace: &Trace,
        instance: u32,
        raised_at: u64,
        resolved_at: u64,
        mut thread: u32,
        mut pos: u32,
    ) {
        let (entries, index) = (trace.entries(), trace.index());
        self.path.instance = u64::from(instance);
        self.path.raised_at = raised_at;
        self.path.resolved_at = resolved_at;
        self.path.segments.clear();
        let mut cursor = resolved_at;
        // Termination backstop: each iteration either moves `cursor`
        // toward the raise or steps one entry back in program order, so
        // this bound is unreachable in practice.
        let mut guard = entries.len() * 2 + 16;
        while cursor > raised_at {
            if guard == 0 {
                self.push_segment(SegmentClass::Compute, raised_at, cursor);
                break;
            }
            guard -= 1;
            let program = &index.program[thread as usize];
            let entry = &entries[program[pos as usize] as usize];
            // 1. Object-wait tail.
            if let EntryKind::Runtime(event) = &entry.kind {
                if let EventKind::ObjectAcquired { waited_ns, .. } = &event.kind {
                    let wait_start = cursor.saturating_sub(*waited_ns).max(raised_at);
                    self.push_segment(SegmentClass::ObjectWait, wait_start, cursor);
                    cursor = wait_start;
                    if cursor == raised_at {
                        break;
                    }
                }
            }
            let base = base_class(entry);
            let prev_at = if pos > 0 {
                entries[program[pos as usize - 1] as usize].at_ns
            } else {
                0
            };
            let floor = prev_at.max(raised_at);
            // 2. Causal message edge into the window (latest delivery).
            if let Some(send) = find_send(&index.sends, thread, instance, floor, cursor) {
                self.push_segment(base, send.deliver_ns, cursor);
                let sent = send.sent_ns.max(raised_at);
                self.push_segment(SegmentClass::MessageWait, sent, send.deliver_ns);
                cursor = sent;
                if cursor == raised_at {
                    break;
                }
                thread = send.src;
                pos = send.src_pos;
                continue;
            }
            // 3. Whole window gets the base class; step back.
            self.push_segment(base, floor, cursor);
            cursor = floor;
            if cursor == raised_at {
                break;
            }
            // floor == prev_at > raised_at, so a previous entry exists.
            pos -= 1;
        }
        self.path.segments.reverse();
    }

    /// Appends a backward-order segment, skipping empty intervals.
    fn push_segment(&mut self, class: SegmentClass, start_ns: u64, end_ns: u64) {
        if start_ns < end_ns {
            self.path.segments.push(Segment {
                class,
                start_ns,
                end_ns,
            });
        }
    }
}

/// The latest message of `instance` delivered to `thread` inside
/// `(floor, end]` and sent strictly before `end` (strict, so every hop
/// makes progress toward the raise). `sends` is sorted by delivery time.
fn find_send(
    sends: &[SendRec],
    thread: u32,
    instance: u32,
    floor: u64,
    end: u64,
) -> Option<SendRec> {
    let upper = sends.partition_point(|s| s.deliver_ns <= end);
    sends[..upper]
        .iter()
        .rev()
        .take_while(|s| s.deliver_ns > floor)
        .find(|s| s.dst == thread && s.instance == instance && s.sent_ns < end)
        .copied()
}

/// Convenience form of [`CriticalPathScratch::extract`]: every resolved
/// instance's critical path, in deterministic order. Sweeps use the
/// scratch directly; this is the one-shot API for tools and tests.
#[must_use]
pub fn critical_paths(trace: &Trace) -> Vec<InstancePath> {
    let mut scratch = CriticalPathScratch::new();
    let mut paths = Vec::new();
    scratch.extract(trace, |path| paths.push(path.clone()));
    paths
}

/// The spans one thread has open in one instance.
#[derive(Debug, Clone, Copy, Default)]
struct OpenSpans {
    /// Start and round number of the current resolution round.
    recovery: Option<(u64, u64)>,
    signalling: Option<u32>,
    handler: Option<u32>,
    exit: Option<u32>,
    catchup: Option<u32>,
}

impl OpenSpans {
    /// Closes every open span at `at` and forgets the recovery round.
    fn close_all(&mut self, tree: &mut SpanTree, at: u64) {
        for span in [self.signalling, self.handler, self.exit, self.catchup]
            .into_iter()
            .flatten()
        {
            tree.set_end(span, at);
        }
        *self = OpenSpans::default();
    }
}

/// Reconstructs the run's span tree from its canonical trace: one span
/// per protocol phase (see the module docs for the taxonomy). Spans are
/// pushed in canonical-trace order, parents before children; spans still
/// open when the trace ends (e.g. an unresolved raise) close at the last
/// entry's timestamp. Purely derived — the same trace yields the same
/// tree, byte for byte under [`SpanTree::render`].
#[must_use]
pub fn build_span_tree(trace: &Trace) -> SpanTree {
    let (entries, index) = (trace.entries(), trace.index());
    let mut tree = SpanTree::new();
    // Dense per-thread and per-(label, thread) state, sized from the
    // index: thread ids index `program`, labels index the instances.
    let threads = index.program.len();
    let labels = index.instances().len();
    // Innermost-last stack of open action spans per thread.
    let mut action_stack: Vec<Vec<(u32, u32)>> = vec![Vec::new(); threads];
    let mut open = vec![OpenSpans::default(); labels * threads];
    let mut raise_open: Vec<Option<u32>> = vec![None; labels];
    // Crash pairs come from the index, in trace order.
    let mut detections = index.crash_detections.iter();
    let mut restarts = index.rejoin_restarts.iter().peekable();
    let end_ns = entries.last().map_or(0, |e| e.at_ns);

    // The innermost open action span on `thread` matching `label`, or
    // the innermost of any instance (an observer event of a peer's
    // instance), or none.
    let parent_of = |stacks: &[Vec<(u32, u32)>], thread: u32, label: u32| {
        let stack = &stacks[thread as usize];
        stack
            .iter()
            .rev()
            .find(|(l, _)| *l == label)
            .or_else(|| stack.last())
            .map(|&(_, span)| span)
    };

    for (i, entry) in entries.iter().enumerate() {
        let at = entry.at_ns;
        let thread = entry.thread;
        let EntryKind::Runtime(event) = &entry.kind else {
            continue;
        };
        let label = index.labels[i];
        let instance = u64::from(label);
        let slot = label as usize * threads + thread as usize;
        match &event.kind {
            EventKind::Enter { name, .. } => {
                let parent = parent_of(&action_stack, thread, label);
                let span = tree.push(Span {
                    name: format!("action:{name}"),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent,
                });
                action_stack[thread as usize].push((label, span));
            }
            EventKind::Exit { .. } | EventKind::Abort { .. } => {
                let open = &mut open[slot];
                for span in [open.exit.take(), open.catchup.take()]
                    .into_iter()
                    .flatten()
                {
                    tree.set_end(span, at);
                }
                let stack = &mut action_stack[thread as usize];
                if let Some(i) = stack.iter().rposition(|(s, _)| *s == label) {
                    let (_, span) = stack.remove(i);
                    tree.set_end(span, at);
                }
            }
            // Only an instance's first raise opens its span.
            EventKind::Raise { exception } if raise_open[label as usize].is_none() => {
                raise_open[label as usize] = Some(tree.push(Span {
                    name: format!("raise\u{2192}resolve:{exception}"),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent: parent_of(&action_stack, thread, label),
                }));
            }
            EventKind::RecoveryStart { .. } => {
                open[slot].recovery = Some((at, 1));
            }
            EventKind::Resolved { .. } => {
                if let Some(span) = raise_open[label as usize].take() {
                    tree.set_end(span, at);
                }
                let parent = parent_of(&action_stack, thread, label);
                let open = &mut open[slot];
                if let Some((start, round)) = &mut open.recovery {
                    tree.push(Span {
                        name: format!("resolution:r{round}"),
                        start_ns: *start,
                        end_ns: at,
                        thread,
                        instance,
                        parent,
                    });
                    *start = at;
                    *round += 1;
                }
                if let Some(span) = open.signalling {
                    tree.set_end(span, at);
                }
                open.signalling = Some(tree.push(Span {
                    name: "signalling".to_owned(),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent,
                }));
            }
            EventKind::SignalOutcome { .. } => {
                if let Some(span) = open[slot].signalling.take() {
                    tree.set_end(span, at);
                }
            }
            EventKind::HandlerStart { exception } => {
                open[slot].handler = Some(tree.push(Span {
                    name: format!("handler:{exception}"),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent: parent_of(&action_stack, thread, label),
                }));
            }
            EventKind::HandlerEnd { .. } => {
                if let Some(span) = open[slot].handler.take() {
                    tree.set_end(span, at);
                }
            }
            EventKind::ObjectAcquired { object, waited_ns } if *waited_ns > 0 => {
                tree.push(Span {
                    name: format!("object-wait:{object}"),
                    start_ns: at.saturating_sub(*waited_ns),
                    end_ns: at,
                    thread,
                    instance,
                    parent: parent_of(&action_stack, thread, label),
                });
            }
            EventKind::ExitStart { epoch } => {
                let parent = parent_of(&action_stack, thread, label);
                let open = &mut open[slot];
                if let Some(span) = open.exit {
                    tree.set_end(span, at);
                }
                open.exit = Some(tree.push(Span {
                    name: format!("exit:e{epoch}"),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent,
                }));
            }
            EventKind::Crash => {
                // A crash closes everything the thread had open.
                for (_, span) in action_stack[thread as usize].drain(..) {
                    tree.set_end(span, at);
                }
                for open in open.iter_mut().skip(thread as usize).step_by(threads) {
                    open.close_all(&mut tree, at);
                }
                let detected = detections.next().and_then(|&(_, detected)| detected);
                tree.push(Span {
                    name: "crash-detect".to_owned(),
                    start_ns: at,
                    end_ns: detected.map_or(end_ns, |v| entries[v as usize].at_ns),
                    thread,
                    instance,
                    parent: None,
                });
            }
            EventKind::Rejoin {
                thread: rejoiner, ..
            } if rejoiner.as_u32() == thread => {
                if let Some(&(crash, _)) = restarts.next_if(|&&(_, rejoin)| rejoin as usize == i) {
                    tree.push(Span {
                        name: "rejoin-restart".to_owned(),
                        start_ns: entries[crash as usize].at_ns,
                        end_ns: at,
                        thread,
                        instance,
                        parent: None,
                    });
                }
                open[slot].catchup = Some(tree.push(Span {
                    name: "rejoin-catchup".to_owned(),
                    start_ns: at,
                    end_ns: at,
                    thread,
                    instance,
                    parent: parent_of(&action_stack, thread, label),
                }));
            }
            _ => {}
        }
    }

    // Close whatever the trace left open at its end.
    for (_, span) in action_stack.into_iter().flatten() {
        tree.set_end(span, end_ns);
    }
    for open in &mut open {
        open.close_all(&mut tree, end_ns);
    }
    for span in raise_open.into_iter().flatten() {
        tree.set_end(span, end_ns);
    }
    tree
}

/// The segment class a window *ending* at this entry falls into when no
/// causal message edge splits it.
fn base_class(entry: &Entry) -> SegmentClass {
    match &entry.kind {
        EntryKind::Runtime(event) => match &event.kind {
            EventKind::ResolutionTimeout { .. }
            | EventKind::SignalTimeout { .. }
            | EventKind::ExitTimeout { .. } => SegmentClass::TimeoutSlack,
            EventKind::ViewChange { .. } => SegmentClass::SuspicionRound,
            _ => SegmentClass::Compute,
        },
        _ => SegmentClass::Compute,
    }
}

/// Renders the run as a Chrome trace-event JSON document: thread-name
/// metadata, one complete (`"ph": "X"`) event per derived span, paired
/// flow arrows (`"ph": "s"`/`"f"`) per causal message edge, and one lane
/// per raise→resolve critical path (process id 1, one track per
/// instance). Integer-only — the document parses under
/// [`caa_telemetry::json::parse`] — and deterministic per trace; load it
/// at <https://ui.perfetto.dev>.
#[must_use]
pub fn trace_event_json(trace: &Trace, seed: u64) -> String {
    let tree = build_span_tree(trace);
    let index = trace.index();
    let mut out = String::with_capacity(tree.len() * 128 + 4096);
    out.push_str("{\n\"displayTimeUnit\": \"ns\",\n");
    let _ = writeln!(out, "\"otherData\": {{\"seed\": {seed}}},");
    out.push_str("\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };

    // Process and thread naming metadata.
    for (pid, name) in [(0u32, "protocol"), (1u32, "critical-path")] {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \
                 \"tid\": 0, \"args\": {{\"name\": \"{name}\"}}}}"
            ),
        );
    }
    for thread in index.threads() {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 0, \
                 \"tid\": {thread}, \"args\": {{\"name\": \"T{thread}\"}}}}"
            ),
        );
    }

    // Derived spans as complete events.
    for span in tree.spans() {
        let mut body = String::with_capacity(96);
        body.push_str("{\"name\": ");
        json::write_str(&mut body, &span.name);
        let _ = write!(
            body,
            ", \"cat\": \"span\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \
             \"tid\": {}, \"args\": {{\"instance\": {}}}}}",
            span.start_ns,
            span.duration_ns(),
            span.thread,
            span.instance,
        );
        push_event(&mut out, body);
    }

    // Causal message edges as paired flow arrows.
    for (id, (i, entry, tap)) in trace
        .entries()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match &e.kind {
            EntryKind::NetSent(tap) => Some((i, e, tap)),
            _ => None,
        })
        .enumerate()
    {
        let instance = index.labels[i];
        let arrow = |ph: &str, bind: &str, ts: u64, tid: u32| {
            let mut body = String::with_capacity(96);
            body.push_str("{\"name\": ");
            json::write_str(&mut body, &format!("msg:{}", tap.class));
            let _ = write!(
                body,
                ", \"cat\": \"net\", \"ph\": \"{ph}\"{bind}, \"id\": {id}, \"ts\": {ts}, \
                 \"pid\": 0, \"tid\": {tid}, \"args\": {{\"instance\": {instance}}}}}",
            );
            body
        };
        let sent = arrow("s", "", entry.at_ns, entry.thread);
        push_event(&mut out, sent);
        let recv = arrow(
            "f",
            ", \"bp\": \"e\"",
            tap.deliver_at.as_nanos(),
            tap.dst.as_u32(),
        );
        push_event(&mut out, recv);
    }

    // Critical-path lanes: pid 1, one track per instance.
    for path in critical_paths(trace) {
        let instance = path.instance;
        for segment in &path.segments {
            let mut body = String::with_capacity(96);
            body.push_str("{\"name\": ");
            json::write_str(&mut body, segment.class.label());
            let _ = write!(
                body,
                ", \"cat\": \"critical-path\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {instance}, \"args\": {{\"instance\": {instance}}}}}",
                segment.start_ns,
                segment.duration_ns(),
            );
            push_event(&mut out, body);
        }
    }

    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::{ScenarioConfig, ScenarioPlan};
    use crate::trace::TraceRecorder;
    use caa_core::exception::ExceptionId;
    use caa_core::ids::{ActionId, PartitionId, ThreadId};
    use caa_core::time::VirtualInstant;
    use caa_runtime::observe::{Event, Observer};
    use caa_simnet::{NetTap, TapEvent};

    fn event(at: u64, thread: u32, action: ActionId, kind: EventKind) -> Event {
        Event {
            at: VirtualInstant::from_nanos(at),
            thread: ThreadId::new(thread),
            action,
            kind,
        }
    }

    fn send(at: u64, deliver: u64, src: u32, dst: u32, correlation: u64, seq: u64) -> TapEvent {
        TapEvent {
            src: PartitionId::new(src),
            dst: PartitionId::new(dst),
            class: "Exception",
            correlation,
            at: VirtualInstant::from_nanos(at),
            deliver_at: VirtualInstant::from_nanos(deliver),
            seq,
        }
    }

    /// Hand-built trace with a known decomposition: T0 raises at 100 and
    /// sends the exception to T1 (delivered at 150); T1 acquires an
    /// object at 170 after a 20ns wait and resolves at 180. The critical
    /// path must be exactly 50ns message-wait, 20ns object-wait and 10ns
    /// compute (100→150→170-20=150 .. so compute is [150,150]∅ + [170,180]).
    #[test]
    fn critical_path_pins_a_known_decomposition() {
        let action = ActionId::top_level(7);
        let serial = action.serial();
        let rec = TraceRecorder::new();
        rec.on_event(&event(
            100,
            0,
            action,
            EventKind::Raise {
                exception: ExceptionId::new("x"),
            },
        ));
        rec.on_sent(&send(100, 150, 0, 1, serial, 0));
        rec.on_event(&event(
            170,
            1,
            action,
            EventKind::ObjectAcquired {
                object: "ledger".into(),
                waited_ns: 20,
            },
        ));
        rec.on_event(&event(
            180,
            1,
            action,
            EventKind::Resolved {
                exception: ExceptionId::new("x"),
            },
        ));
        let trace = rec.finish();
        let paths = critical_paths(&trace);
        assert_eq!(paths.len(), 1);
        let path = &paths[0];
        assert_eq!(path.total_ns(), 80);
        assert_eq!(path.class_total_ns(SegmentClass::MessageWait), 50);
        assert_eq!(path.class_total_ns(SegmentClass::ObjectWait), 20);
        assert_eq!(path.class_total_ns(SegmentClass::Compute), 10);
        assert_eq!(path.class_total_ns(SegmentClass::TimeoutSlack), 0);
        // Chronological, contiguous, exactly covering [100, 180].
        assert_eq!(path.segments.first().unwrap().start_ns, 100);
        assert_eq!(path.segments.last().unwrap().end_ns, 180);
        for pair in path.segments.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
        }
        let sum: u64 = path.segments.iter().map(Segment::duration_ns).sum();
        assert_eq!(sum, path.total_ns());
    }

    /// Every real seed's paths partition raise→resolve exactly.
    #[test]
    fn segments_sum_exactly_to_latency_on_real_seeds() {
        for seed in 0..32u64 {
            let plan = ScenarioPlan::generate(seed, &ScenarioConfig::default());
            let artifacts = execute(&plan);
            for path in critical_paths(&artifacts.trace) {
                let sum: u64 = path.segments.iter().map(Segment::duration_ns).sum();
                assert_eq!(
                    sum,
                    path.total_ns(),
                    "seed {seed} instance {} decomposition must be exact",
                    path.instance
                );
                for pair in path.segments.windows(2) {
                    assert_eq!(pair[0].end_ns, pair[1].start_ns, "seed {seed}: contiguous");
                }
            }
        }
    }

    #[test]
    fn span_tree_covers_protocol_phases() {
        let plan = ScenarioPlan::generate(3, &ScenarioConfig::default());
        let artifacts = execute(&plan);
        let tree = build_span_tree(&artifacts.trace);
        assert!(!tree.is_empty());
        let text = tree.render();
        assert!(text.contains("action:"), "{text}");
        // Seed 3's default scenario raises at least one exception.
        if artifacts
            .trace
            .runtime_events()
            .any(|e| matches!(e.kind, EventKind::Raise { .. }))
        {
            assert!(text.contains("raise\u{2192}resolve:"), "{text}");
        }
        // Spans never end before they start.
        for span in tree.spans() {
            assert!(span.end_ns >= span.start_ns, "{span:?}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let mut scratch = CriticalPathScratch::new();
        for seed in [11u64, 12, 13] {
            let plan = ScenarioPlan::generate(seed, &ScenarioConfig::default());
            let artifacts = execute(&plan);
            let mut reused = Vec::new();
            scratch.extract(&artifacts.trace, |p| reused.push(p.clone()));
            assert_eq!(reused, critical_paths(&artifacts.trace), "seed {seed}");
        }
    }
}
