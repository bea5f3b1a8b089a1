//! Observation hooks into the CA-action runtime.
//!
//! A [`System`](crate::System) can carry an [`Observer`] (see
//! [`SystemBuilder::observer`](crate::SystemBuilder::observer)) that is
//! invoked synchronously at every protocol-significant step of every
//! participating thread: action entry/exit, raises, recovery, resolution,
//! handler execution, signalling and abortion. The simulation-testing
//! harness (`caa-harness`) builds its structured traces and invariant
//! oracles on these hooks; they are equally useful for ad-hoc diagnostics.
//!
//! Observers run on the participating threads themselves, inside the
//! virtual-time simulation: they must be cheap, must not block on other
//! participants, and must not call back into the observed
//! [`Ctx`](crate::Ctx).
//!
//! Events from one thread arrive in that thread's execution order; events
//! from different threads interleave in the executor's poll order, not in
//! virtual-time order. Consumers that need a
//! canonical order should sort by `(at, thread, per-thread sequence)` as
//! the harness's trace recorder does.

use std::fmt;
use std::io::Write as _;
use std::sync::Arc;

use caa_core::exception::{ExceptionId, Signal};
use caa_core::ids::{ActionId, ThreadId};
use caa_core::message::SignalRound;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::VirtualInstant;

/// One observed runtime step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the step happened.
    pub at: VirtualInstant,
    /// The participating thread that performed the step.
    pub thread: ThreadId,
    /// The action instance the step belongs to.
    pub action: ActionId,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of observable runtime steps.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// The thread entered an action, playing `role` at nesting `depth`
    /// (1 = top level).
    Enter {
        /// Action (definition) name (shared with the definition — building
        /// the event clones a reference, not the text).
        name: Arc<str>,
        /// Role the thread performs (shared with the definition).
        role: Arc<str>,
        /// Nesting depth after entry; top-level actions are depth 1.
        depth: usize,
    },
    /// The action completed with `outcome` (objects committed or rolled
    /// back accordingly and the frame popped).
    Exit {
        /// The outcome the action completed with.
        outcome: ActionOutcome,
    },
    /// The action was aborted by enclosing-level recovery; `eab` is the
    /// abortion-handler exception propagated outward, if any (§3.3.1).
    Abort {
        /// Exception produced by the abortion handler.
        eab: Option<ExceptionId>,
    },
    /// The thread raised `exception` in the action (§3.1).
    Raise {
        /// The raised exception's identity.
        exception: ExceptionId,
    },
    /// The thread started coordinated recovery of the action, either
    /// because it raised (`raised`) or because peers' exceptions suspended
    /// it.
    RecoveryStart {
        /// Whether this thread's own raise started the recovery.
        raised: bool,
    },
    /// The resolution procedure (exception-graph search) ran `invocations`
    /// times on this thread while processing one protocol event.
    ResolutionInvoked {
        /// Number of graph searches performed.
        invocations: u32,
    },
    /// Resolution agreement was reached on this thread: every participant
    /// must handle `exception` (§3.3.2).
    Resolved {
        /// The resolving exception.
        exception: ExceptionId,
    },
    /// The thread began executing its handler for `exception`.
    HandlerStart {
        /// The resolving exception being handled.
        exception: ExceptionId,
    },
    /// The handler finished with `verdict` (termination model, §3.1).
    HandlerEnd {
        /// The handler's verdict.
        verdict: HandlerVerdict,
    },
    /// The signalling algorithm concluded on this thread with `signal`
    /// (§3.4).
    SignalOutcome {
        /// The coordinated signal this thread will act on.
        signal: Signal,
    },
    /// The thread acquired external object `object` for the action (opened
    /// at least one transaction layer). Grant order is deterministic — see
    /// the `caa-runtime` objects module — so these events byte-replay.
    ObjectAcquired {
        /// The object's name (shared with the object — building the event
        /// clones a reference, not the text).
        object: Arc<str>,
        /// Virtual nanoseconds the thread waited for the grant, from
        /// enqueueing the request to acquisition. Deterministic (virtual
        /// time), but deliberately **not rendered** into the trace text:
        /// rendered traces and their fingerprints predate this field and
        /// stay byte-identical.
        waited_ns: u64,
    },
    /// The thread started the exit protocol (vote broadcast) for epoch
    /// `epoch` of the action.
    ExitStart {
        /// The frame's exit epoch (incremented per recovery).
        epoch: u32,
    },
    /// The bounded exit wait expired with votes missing: the thread
    /// suspects the listed peers crashed and initiates a membership view
    /// change, then keeps collecting votes over the shrunken view
    /// (round-agnostic suspicion — see `caa-runtime`'s `membership`
    /// module).
    ExitTimeout {
        /// The frame's exit epoch.
        epoch: u32,
    },
    /// The bounded signalling wait expired with announcements missing: the
    /// thread suspects the listed peers crashed and initiates a membership
    /// view change, then re-collects the round over the shrunken view.
    SignalTimeout {
        /// Which signalling exchange timed out.
        round: SignalRound,
        /// The silent peers whose announcements never arrived.
        suspects: Vec<ThreadId>,
    },
    /// The bounded resolution wait expired: the thread suspects the listed
    /// peers crashed and initiates a membership view change (presume-ƒ —
    /// see `caa-runtime`'s `membership` module).
    ResolutionTimeout {
        /// The silent peers this thread's resolution was blocked on.
        suspects: Vec<ThreadId>,
    },
    /// The thread's membership view of this action advanced to `epoch`,
    /// removing `removed` — either by its own failure detector, by a
    /// peer's `ViewChange` announcement, or by the membership data
    /// piggybacked on a resolver's `Commit`.
    ViewChange {
        /// The new membership epoch.
        epoch: u32,
        /// The threads this change removed from the view.
        removed: Vec<ThreadId>,
    },
    /// The thread crash-stopped inside this action: the frame was
    /// discarded without handlers, messages or an exit.
    Crash,
    /// A restarted participant asked `to` (a survivor of its last known
    /// view) for the current view and state summary (epoch-numbered
    /// rejoin, step 1).
    JoinRequested {
        /// The survivor the request was addressed to.
        to: ThreadId,
    },
    /// The thread's membership view of this action grew to `epoch`,
    /// re-admitting restarted participant `thread` — either by granting
    /// its `JoinRequest` locally or by applying a peer's `JoinGrant`
    /// broadcast. Observed by every member of the new view, including the
    /// rejoiner itself.
    Rejoin {
        /// The new membership epoch.
        epoch: u32,
        /// The re-admitted thread.
        thread: ThreadId,
    },
}

impl EventKind {
    /// Appends the event's trace text to `out`. This is the one
    /// definition of that text: [`Display`](fmt::Display) delegates here,
    /// and the harness's trace renderer writes every runtime line with it,
    /// so trace fingerprints hash exactly these bytes. The frequent kinds
    /// are written byte by byte; only the rare timeout round and the
    /// `Debug` forms of exception-carrying verdicts and signals go
    /// through `core::fmt`.
    pub fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            EventKind::Enter { name, role, depth } => {
                out.extend_from_slice(b"enter ");
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b" as ");
                out.extend_from_slice(role.as_bytes());
                out.extend_from_slice(b" depth=");
                push_decimal(out, *depth as u64);
            }
            EventKind::Exit { outcome } => {
                out.extend_from_slice(b"exit ");
                out.extend_from_slice(outcome.word().as_bytes());
                if let ActionOutcome::Signalled(id) = outcome {
                    push_exception(out, b" ", id);
                }
            }
            EventKind::Abort { eab: Some(e) } => push_exception(out, b"abort eab=", e),
            EventKind::Abort { eab: None } => out.extend_from_slice(b"abort"),
            EventKind::Raise { exception } => push_exception(out, b"raise ", exception),
            EventKind::RecoveryStart { raised } => out.extend_from_slice(if *raised {
                b"recovery raise"
            } else {
                b"recovery suspend"
            }),
            EventKind::ResolutionInvoked { invocations } => {
                out.extend_from_slice(b"resolve-invoked x");
                push_decimal(out, u64::from(*invocations));
            }
            EventKind::Resolved { exception } => push_exception(out, b"resolved ", exception),
            EventKind::HandlerStart { exception } => {
                push_exception(out, b"handler-start ", exception);
            }
            EventKind::HandlerEnd { verdict } => {
                out.extend_from_slice(b"handler-end ");
                match verdict {
                    HandlerVerdict::Recovered => out.extend_from_slice(b"Recovered"),
                    HandlerVerdict::Undo => out.extend_from_slice(b"Undo"),
                    HandlerVerdict::Fail => out.extend_from_slice(b"Fail"),
                    HandlerVerdict::Signal(_) => {
                        let _ = write!(out, "{verdict:?}");
                    }
                }
            }
            EventKind::SignalOutcome { signal } => {
                out.extend_from_slice(b"signal ");
                match signal {
                    Signal::None => out.extend_from_slice(b"None"),
                    Signal::Undo => out.extend_from_slice(b"Undo"),
                    Signal::Failure => out.extend_from_slice(b"Failure"),
                    Signal::Exception(_) => {
                        let _ = write!(out, "{signal:?}");
                    }
                }
            }
            EventKind::ObjectAcquired { object, .. } => {
                out.extend_from_slice(b"object acquire ");
                out.extend_from_slice(object.as_bytes());
            }
            EventKind::ExitStart { epoch } => {
                out.extend_from_slice(b"exit start e");
                push_decimal(out, u64::from(*epoch));
            }
            EventKind::ExitTimeout { epoch } => {
                out.extend_from_slice(b"exit timeout e");
                push_decimal(out, u64::from(*epoch));
            }
            EventKind::ResolutionTimeout { suspects } => {
                out.extend_from_slice(b"resolution timeout suspects");
                push_threads(out, suspects);
            }
            EventKind::ViewChange { epoch, removed } => {
                out.extend_from_slice(b"view change v");
                push_decimal(out, u64::from(*epoch));
                out.extend_from_slice(b" -");
                push_threads(out, removed);
            }
            EventKind::SignalTimeout { round, suspects } => {
                let _ = write!(out, "signal timeout {round} suspects");
                push_threads(out, suspects);
            }
            EventKind::Crash => out.extend_from_slice(b"crash-stop"),
            EventKind::JoinRequested { to } => {
                out.extend_from_slice(b"join request ");
                push_thread(out, *to);
            }
            EventKind::Rejoin { epoch, thread } => {
                out.extend_from_slice(b"rejoin v");
                push_decimal(out, u64::from(*epoch));
                out.extend_from_slice(b" + ");
                push_thread(out, *thread);
            }
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Vec::new();
        self.render_into(&mut text);
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

/// Appends `value` in decimal to `out` (the bytes `{value}` formats to)
/// and returns the number of digits.
pub fn push_decimal(out: &mut Vec<u8>, value: u64) -> usize {
    // Thread ids, labels, epochs and most sequence numbers are below 100.
    if value < 10 {
        out.push(b'0' + value as u8);
        1
    } else if value < 100 {
        let from = value as usize * 2;
        out.extend_from_slice(&DIGIT_PAIRS[from..from + 2]);
        2
    } else {
        push_decimal_right(out, value, 0)
    }
}

/// Appends `value` in decimal, right-aligned in a field of at least
/// `width` (at most 20) bytes — the bytes `{value:>width$}` formats to —
/// and returns the number of digits. The field is built in a stack buffer
/// and appended whole, then cut to length, so no call copies a
/// variable-length slice.
pub fn push_decimal_right(out: &mut Vec<u8>, value: u64, width: usize) -> usize {
    let len = value.checked_ilog10().map_or(1, |log| log as usize + 1);
    let field = len.max(width);
    let mut buf = [b' '; 20];
    write_digits(&mut buf[..field], value);
    let end = out.len() + field;
    out.extend_from_slice(&buf);
    out.truncate(end);
    len
}

/// `"00" "01" … "99"`: the two digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the digits of `value` into the end of `out`, two at a time.
fn write_digits(out: &mut [u8], value: u64) {
    let pair = |out: &mut [u8], at: usize, pair: u32| {
        let from = pair as usize * 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[from..from + 2]);
    };
    let mut end = out.len();
    // Eight digits at a time in `u32` arithmetic: virtual-time
    // nanoseconds run to twelve digits, and the four pairs of a chunk do
    // not wait on each other.
    let mut rest = value;
    while rest >= 100_000_000 {
        let chunk = (rest % 100_000_000) as u32;
        rest /= 100_000_000;
        end -= 8;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        pair(out, end, high / 100);
        pair(out, end + 2, high % 100);
        pair(out, end + 4, low / 100);
        pair(out, end + 6, low % 100);
    }
    let mut rest = rest as u32;
    while rest >= 100 {
        end -= 2;
        pair(out, end, rest % 100);
        rest /= 100;
    }
    if rest >= 10 {
        pair(out, end - 2, rest);
    } else {
        out[end - 1] = b'0' + rest as u8;
    }
}

/// Appends `prefix` and the exception's [`ExceptionId::display_name`].
fn push_exception(out: &mut Vec<u8>, prefix: &[u8], exception: &ExceptionId) {
    out.extend_from_slice(prefix);
    out.extend_from_slice(exception.display_name().as_bytes());
}

/// Appends a thread id as `Display` prints it (`T<n>`).
fn push_thread(out: &mut Vec<u8>, thread: ThreadId) {
    out.extend_from_slice(ThreadId::PREFIX.as_bytes());
    push_decimal(out, u64::from(thread.as_u32()));
}

/// Appends ` T<n>` per thread.
fn push_threads(out: &mut Vec<u8>, threads: &[ThreadId]) {
    for &thread in threads {
        out.push(b' ');
        push_thread(out, thread);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.at, self.thread, self.action, self.kind
        )
    }
}

/// Receives runtime [`Event`]s from every participating thread.
///
/// Participants invoke the observer from the thread running their
/// [`System`](crate::System); implementations are `Send + Sync` so one
/// observer may serve systems on several threads.
pub trait Observer: Send + Sync {
    /// Called synchronously at each observable step.
    fn on_event(&self, event: &Event);
}

/// The default observer: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn on_event(&self, _event: &Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compactly() {
        let e = Event {
            at: VirtualInstant::EPOCH,
            thread: ThreadId::new(2),
            action: ActionId::top_level(9),
            kind: EventKind::Raise {
                exception: ExceptionId::new("vm_stop"),
            },
        };
        let s = e.to_string();
        assert!(s.contains("raise vm_stop"), "{s}");
    }

    #[test]
    fn decimals_match_fmt() {
        let mut values = vec![0, u64::MAX, u64::MAX - 1];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1, next / 2 + 7]);
            power = next;
        }
        values.extend([power - 1, power, power + 1]);
        for value in values {
            let mut out = b"x".to_vec();
            let digits = push_decimal(&mut out, value);
            assert_eq!(out, format!("x{value}").into_bytes());
            assert_eq!(digits, value.to_string().len());
            for width in [0, 4, 12, 20] {
                let mut out = Vec::new();
                push_decimal_right(&mut out, value, width);
                assert_eq!(
                    out,
                    format!("{value:>width$}").into_bytes(),
                    "{value} in {width}"
                );
            }
        }
    }

    #[test]
    fn noop_observer_is_callable() {
        let e = Event {
            at: VirtualInstant::EPOCH,
            thread: ThreadId::new(0),
            action: ActionId::top_level(1),
            kind: EventKind::RecoveryStart { raised: true },
        };
        NoopObserver.on_event(&e);
    }
}
