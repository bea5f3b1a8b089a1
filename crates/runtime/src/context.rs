//! Per-thread execution context: action stack, message routing and the
//! coordinated-recovery driver.
//!
//! Each participating thread owns a [`Ctx`]. Entering a CA action pushes a
//! frame on the paper's `SA` stack; every runtime operation the role
//! performs is a *poll point* at which pending control messages are
//! processed — the `Result`-based stand-in for Ada 95's asynchronous
//! transfer of control (see `DESIGN.md`). The driver in this module
//! realises, per action frame:
//!
//! * the resolution algorithm of §3.3.2 (delegated to the system's
//!   [`ResolutionProtocol`](crate::protocol::ResolutionProtocol)), with
//!   the crash-aware bounded wait of the membership extension
//!   ([`crate::membership`]): a silent peer is presumed crashed, removed
//!   from the frame's membership view and resolved as a synthesized crash
//!   exception;
//! * the abortion cascade over nested actions (§3.3.1);
//! * exception handling under the termination model (§3.1);
//! * the signalling algorithm of §3.4 with its µ/ƒ coordination;
//! * the synchronous exit protocol (§5.1).
//!
//! Signalling and exit rounds range over the frame's *current view*, so a
//! recovery that shrank the membership completes among the survivors — and
//! both rounds carry their own bounded waits: the suspicion facility of
//! [`crate::membership`] lets *any* round (resolution, signalling, exit)
//! presume a silent peer crashed and continue over the shrunken view, so a
//! crash-stop anywhere in an action's lifecycle is survived. A restarted
//! participant re-enters its crashed action through [`Ctx::rejoin`]
//! (epoch-numbered rejoin: ask a survivor for the current view, fast-forward
//! to it, finish the action's exit protocol as a member again).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, PartitionId, RoleId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{AppPayload, Message, SignalRound};
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_simnet::{Endpoint, Parked, Received};

use crate::action::{make_action_id, ActionDef, DefInner};
use crate::error::{Flow, RuntimeError, Step, Unwind};
use crate::membership::{synthesize_crashes, FrameMembership, SuspicionRound};
use crate::objects::{AccessOutcome, ObjectError, SharedObject, TxControl, Wake};
use crate::observe::{Event, EventKind};
use crate::protocol::{ProtoActions, ProtoCtx, ProtoEvent, ResolverState};
use crate::system::SystemShared;

/// A per-round snapshot of an action's live member set, kept on the stack
/// (see [`caa_core::inline`]): protocol rounds snapshot the view once per
/// round on the execute hot path, and groups beyond the inline capacity
/// spill to the heap transparently.
type ViewSnapshot = InlineVec<ThreadId, 8>;

/// An application message delivered to a role.
#[derive(Debug)]
pub struct AppMsg {
    /// The sending thread.
    pub from: ThreadId,
    /// The application-chosen tag.
    pub tag: &'static str,
    /// The payload.
    pub payload: AppPayload,
}

/// How a role body was started or restarted into recovery.
#[derive(Debug)]
enum RecoveryStart {
    /// This thread raised the exception.
    Raise(Exception),
    /// This thread suspends because of peers' exceptions.
    Suspend,
}

/// One entry of the action stack (`SA`).
struct Frame {
    action: ActionId,
    def: Arc<DefInner>,
    role: RoleId,
    /// Control messages for this action stashed by the router for the
    /// recovery driver (the trigger that interrupted the body, §3.3.2's
    /// "retain"). Drained when recovery starts.
    pending_control: VecDeque<Message>,
    /// Buffered application messages.
    app_inbox: VecDeque<AppMsg>,
    /// Exit votes seen, per epoch.
    exit_votes: BTreeMap<u32, BTreeSet<ThreadId>>,
    exit_epoch: u32,
    /// Signalling announcements seen, per round.
    signals: BTreeMap<(SignalRound, ThreadId), Signal>,
    /// Resolution completed — later Exception/Suspended messages for this
    /// instance are stragglers and are dropped (termination model: nothing
    /// new can be raised within the action after handlers start).
    recovered: bool,
    /// Enclosing-level recovery is aborting this frame (its abortion
    /// handler may be running). In-flight recovery messages for the
    /// instance — e.g. a `Commit` whose resolution raced with the
    /// enclosing trigger — are stragglers and are dropped.
    aborting: bool,
    /// External objects this thread touched within the action.
    objects: Vec<Box<dyn TxControl>>,
    /// Protocol state for this frame's recovery.
    resolver: Box<dyn ResolverState>,
    /// This participant's membership view of the instance: the threads it
    /// still believes live, plus the view epoch (see
    /// [`crate::membership`]). Starts as the full group; shrinks when the
    /// bounded resolution wait presumes a peer crashed. Signalling and
    /// exit rounds range over this view.
    membership: FrameMembership,
    /// Set while this frame's exception handler runs.
    in_handler: Option<ExceptionId>,
    /// A corrupted message arrived during the signalling collection; §3.4
    /// treats it as the failure exception.
    corrupted_during_signalling: bool,
    /// A membership view change removed *this* thread (a peer's suspicion
    /// was wrong — we are alive). The frame gives up locally and finalizes
    /// as [`ActionOutcome::Failed`] at the next protocol step; it must not
    /// broadcast further rounds the survivors no longer expect from it.
    evicted: bool,
    /// Liveness evidence for the eviction quorum gate: every peer this
    /// thread received a protocol message from within this instance
    /// (application traffic excluded — only recovery, signalling, exit and
    /// membership messages prove a peer advanced the protocol). A
    /// suspicion round may not evict a set of recently-alive peers larger
    /// than the view that would survive it: one-sided silence on that
    /// scale indicts this thread's own connectivity, not the peers'.
    heard_from: BTreeSet<ThreadId>,
    /// This frame was re-entered through [`Ctx::rejoin`] after a crash.
    /// Rejoiners that time out waiting for exit votes give up silently
    /// (finalize `Failed`) instead of suspecting the survivors: a rejoiner
    /// may be missing votes that were broadcast while it was down, and its
    /// suspicion would evict threads that are perfectly alive.
    is_rejoiner: bool,
    /// While a recovery is in flight (resolution start through signalling
    /// end): the members the recovery started with. Signalling ranges over
    /// `cohort ∩ current members` — peers readmitted mid-recovery have no
    /// handler verdict to announce. Also the join-deferral gate: rejoin
    /// grants are queued while this is `Some` and flushed before the exit
    /// protocol, so the view never grows mid-resolution or mid-signalling.
    cohort: Option<ViewSnapshot>,
    /// The exception this frame's completed recovery resolved to, handed to
    /// rejoiners so a restarted participant knows recovery already happened.
    resolved_exception: Option<ExceptionId>,
    /// Rejoin requests that arrived while `cohort` was `Some`, granted when
    /// the frame reaches its exit protocol.
    pending_join_requests: Vec<ThreadId>,
}

impl Frame {
    /// The members the signalling rounds range over: the recovery cohort
    /// that is still live. Peers readmitted mid-recovery never took part in
    /// this recovery's handling and have no verdict to announce, so they
    /// are excluded; crash-free frames never shrink the view and the
    /// cohort equals the full group.
    fn signalling_group(&self) -> ViewSnapshot {
        match &self.cohort {
            Some(cohort) => cohort
                .iter()
                .copied()
                .filter(|&t| self.membership.members().contains(&t))
                .collect(),
            None => ViewSnapshot::from_slice(self.membership.members()),
        }
    }
}

/// The execution context of one participating thread.
///
/// Obtained inside [`System::spawn`](crate::System::spawn). All blocking
/// operations are poll points: they may return `Err(`[`Flow`]`)` when
/// coordinated recovery takes over — propagate it with `?`.
pub struct Ctx {
    me: ThreadId,
    name: Arc<str>,
    endpoint: Endpoint<Message>,
    system: Rc<SystemShared>,
    stack: Vec<Frame>,
    /// A scheduled crash-stop instant ([`Ctx::schedule_crash`]): the
    /// thread dies at the first poll point at or after it — mid-body,
    /// mid-collection, mid-signalling or mid-exit alike.
    crash_at: Option<VirtualInstant>,
    /// Messages for action instances not yet entered (§3.3.2 "retain the
    /// Exception or Suspended message till Ti enters A*").
    retained: Vec<Message>,
    /// Per `(definition id, parent action serial)`: the next local instance
    /// number this thread will enter. Scoping instance numbers to the
    /// parent instance keeps ids aligned across threads even when recovery
    /// made some of them skip nested actions.
    entry_counts: BTreeMap<(u32, u64), u32>,
    /// Serials of action instances this thread has finished or aborted;
    /// their late messages are stragglers and are dropped.
    finished: std::collections::HashSet<u64>,
    /// The outermost action a crash-stop discarded, recorded when the crash
    /// unwind pops it. [`Ctx::rejoin`] consumes this to know which instance
    /// a restarted participant should ask to re-enter.
    last_crash: Option<ActionId>,
}

/// Upper bound on retained messages: instances a thread never enters (e.g.
/// a peer's raise inside an action abandoned by recovery) would otherwise
/// accumulate their triggers forever.
const RETAINED_CAP: usize = 4096;

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("thread", &self.me)
            .field("name", &self.name)
            .field("depth", &self.stack.len())
            .finish()
    }
}

/// What the router decided about one received message.
enum Routed {
    /// Fully absorbed (buffered, recorded or dropped).
    Done,
    /// A resolution-protocol control message for the *active* action.
    ActiveControl(Message),
    /// A corrupted message arrived (payload unrecoverable).
    Corrupted,
}

impl Ctx {
    pub(crate) fn new(
        me: ThreadId,
        name: Arc<str>,
        endpoint: Endpoint<Message>,
        system: Rc<SystemShared>,
    ) -> Self {
        Ctx {
            me,
            name,
            endpoint,
            system,
            stack: Vec::new(),
            crash_at: None,
            retained: Vec::new(),
            entry_counts: BTreeMap::new(),
            finished: std::collections::HashSet::new(),
            last_crash: None,
        }
    }

    /// This thread's identifier (total order; ties in recovery are broken
    /// toward the biggest id, §3.3.2).
    #[must_use]
    pub fn thread_id(&self) -> ThreadId {
        self.me
    }

    /// Reports one step to the system's observer, if any (see
    /// [`crate::observe`]). The event payload is only built — and the
    /// clock only read — when an observer is attached, so unobserved runs
    /// pay nothing on the protocol's hot paths.
    fn observe(&self, action: ActionId, kind: impl FnOnce() -> EventKind) {
        if let Some(observer) = &self.system.observer {
            observer.on_event(&Event {
                at: self.endpoint.now(),
                thread: self.me,
                action,
                kind: kind(),
            });
        }
    }

    /// This thread's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.endpoint.now()
    }

    /// Nesting depth: 0 outside any action.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The name of the active action, if any.
    #[must_use]
    pub fn action_name(&self) -> Option<&str> {
        self.stack.last().map(|f| &*f.def.name)
    }

    /// The resolving exception currently being handled, if this thread is
    /// executing an exception handler.
    #[must_use]
    pub fn handling(&self) -> Option<&ExceptionId> {
        self.stack.last().and_then(|f| f.in_handler.as_ref())
    }

    // ------------------------------------------------------------------
    // Role-facing operations (poll points)
    // ------------------------------------------------------------------

    /// Performs `dur` of local computation (virtual time).
    ///
    /// The computation is *interruptible*: if a control message demanding
    /// recovery arrives mid-way, control transfers immediately — the
    /// `Result`-based counterpart of the Ada 95 asynchronous transfer of
    /// control the paper's prototype uses (§5.1). Application messages
    /// arriving mid-way are buffered and the computation continues.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] when recovery interrupts this thread.
    pub async fn work(&mut self, dur: VirtualDuration) -> Step {
        let deadline = self.now().saturating_add(dur);
        loop {
            self.poll()?;
            let remaining = deadline.duration_since(self.now());
            if remaining.is_zero() {
                return Ok(());
            }
            match self.recv_until(Some(deadline)).await? {
                None => return self.poll(),
                Some(received) => self.absorb_or_unwind(received)?,
            }
        }
    }

    /// Simulates a **crash-stop** of this participant: every open action
    /// frame is discarded without running handlers or sending messages
    /// (the process simply dies), transaction layers this thread had
    /// registered are broken, and the thread terminates with
    /// [`RuntimeError::Crashed`]. Peers observe only silence: their
    /// bounded waits — the [`resolution
    /// timeout`](crate::ActionDefBuilder::resolution_timeout)'s membership
    /// view change, the §3.4 signalling timeout, and the [`exit
    /// timeout`](crate::ActionDefBuilder::exit_timeout) — resolve the
    /// silence instead of deadlocking on it.
    ///
    /// # Errors
    ///
    /// Always returns `Err` — propagate it with `?`; it unwinds to the
    /// thread's top level.
    pub fn crash_stop(&mut self) -> Step<()> {
        Err(Flow::new(Unwind::Crash))
    }

    /// Schedules a crash-stop `after` from now: the process dies at the
    /// first poll point at or after that virtual instant, *wherever* it
    /// then is — computing, collecting resolution messages, exchanging
    /// signals or exit votes. This is how fault-injection harnesses model
    /// "the node dies at instant T" without structuring the role body
    /// around the death (contrast [`Ctx::crash_stop`], which dies exactly
    /// where it is called). A thread parked on a shared-object
    /// acquisition wakes at the instant and dies there too.
    ///
    /// The schedule is a property of the thread, not of the active action:
    /// it survives action exits and recoveries until it fires.
    pub fn schedule_crash(&mut self, after: VirtualDuration) {
        self.crash_at = Some(self.now().saturating_add(after));
    }

    /// Dies if a scheduled crash instant has been reached.
    fn crash_check(&self) -> Step {
        match self.crash_at {
            Some(at) if self.now() >= at => Err(Flow::new(Unwind::Crash)),
            _ => Ok(()),
        }
    }

    /// Receives the next message, waiting at most until `deadline` (when
    /// given). All protocol waits funnel through here so a scheduled
    /// crash-stop bounds every one of them: reaching the crash instant
    /// kills the thread, reaching the caller's deadline returns
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// [`Flow`] on a scheduled crash or a simulation error.
    async fn recv_until(
        &mut self,
        deadline: Option<VirtualInstant>,
    ) -> Step<Option<Received<Message>>> {
        self.crash_check()?;
        let effective = match (deadline, self.crash_at) {
            (Some(d), Some(c)) => Some(d.min(c)),
            (d, c) => d.or(c),
        };
        let received = match effective {
            Some(at) => self.endpoint.recv_deadline(at).await?,
            None => Some(self.endpoint.recv().await?),
        };
        match received {
            Some(r) => Ok(Some(r)),
            None => {
                // Woke at the effective deadline: the crash instant takes
                // precedence over the caller's timeout.
                self.crash_check()?;
                Ok(None)
            }
        }
    }

    /// Raises exception `e` in the active action (§3.1 *raise*). The
    /// returned [`Flow`] must be propagated with `?`; the runtime then
    /// coordinates recovery across all participants.
    ///
    /// # Errors
    ///
    /// Always returns `Err`: either the raise itself (to be propagated), or
    /// a fatal error when called outside an action or from a handler.
    pub fn raise(&mut self, e: impl Into<Exception>) -> Step<()> {
        let frame = match self.stack.last() {
            Some(f) => f,
            None => return Err(RuntimeError::NoActiveAction("raise").into()),
        };
        if frame.in_handler.is_some() {
            return Err(RuntimeError::RaiseInHandler.into());
        }
        let e = e.into().with_origin(self.me);
        Err(Flow::new(Unwind::Raise(e)))
    }

    /// Sends an application message to the thread performing `role` in the
    /// active action. A poll point.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption, or fatally when `role` is
    /// not part of the active action.
    pub fn send_to_role(
        &mut self,
        role: &str,
        tag: &'static str,
        payload: impl std::any::Any + Send,
    ) -> Step {
        self.poll()?;
        let frame = self
            .stack
            .last()
            .ok_or_else(|| Flow::from(RuntimeError::NoActiveAction("send_to_role")))?;
        let role_id = frame.def.role_id(role).ok_or_else(|| {
            Flow::from(RuntimeError::UnknownRole {
                action: frame.def.name.to_string(),
                role: role.to_owned(),
            })
        })?;
        let to = frame.def.thread_of(role_id);
        let msg = Message::App {
            action: frame.action,
            from: self.me,
            tag,
            payload: AppPayload::new(payload),
        };
        self.endpoint.send(PartitionId::new(to.as_u32()), msg);
        Ok(())
    }

    /// Receives the next application message addressed to this role within
    /// the active action, blocking as needed. A poll point.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub async fn recv_app(&mut self) -> Step<AppMsg> {
        loop {
            self.poll()?;
            if self.stack.is_empty() {
                return Err(RuntimeError::NoActiveAction("recv_app").into());
            }
            if let Some(msg) = self.stack.last_mut().and_then(|f| f.app_inbox.pop_front()) {
                return Ok(msg);
            }
            if let Some(received) = self.recv_until(None).await? {
                self.absorb_or_unwind(received)?;
            }
        }
    }

    /// Like [`Ctx::recv_app`] but gives up after `timeout`, returning
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub async fn recv_app_timeout(&mut self, timeout: VirtualDuration) -> Step<Option<AppMsg>> {
        let deadline = self.now().saturating_add(timeout);
        loop {
            self.poll()?;
            if self.stack.is_empty() {
                return Err(RuntimeError::NoActiveAction("recv_app").into());
            }
            if let Some(msg) = self.stack.last_mut().and_then(|f| f.app_inbox.pop_front()) {
                return Ok(Some(msg));
            }
            let remaining = deadline.duration_since(self.now());
            if remaining.is_zero() {
                return Ok(None);
            }
            match self.recv_until(Some(deadline)).await? {
                Some(received) => self.absorb_or_unwind(received)?,
                None => return Ok(None),
            }
        }
    }

    /// Reads external object `obj` within the active action, acquiring it
    /// (and waiting for competing actions to release it) if needed.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub async fn read<T: Clone + Send + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Step<R> {
        self.access(obj, |t, _dirty| f(t)).await
    }

    /// Mutates external object `obj` within the active action, acquiring it
    /// (and waiting for competing actions to release it) if needed. The
    /// update is transactional: it commits or rolls back with the action.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub async fn update<T: Clone + Send + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Step<R> {
        self.access(obj, |t, dirty| {
            *dirty = true;
            f(t)
        })
        .await
    }

    /// Forwards an arbitration-computed wake-up to the network as a
    /// scheduled doorbell: the wake-on-release half of the object
    /// scheduler (see [`crate::objects`] — every grant, release and
    /// cancellation computes the next eligible waiter and its on-grid
    /// attempt instant; this delivers it).
    fn forward_wake(&self, wake: Wake) {
        if let Some((thread, at, epoch)) = wake {
            self.endpoint
                .network()
                .schedule_wake(PartitionId::new(thread.as_u32()), at, epoch);
        }
    }

    async fn access<T: Clone + Send + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&mut T, &mut bool) -> R,
    ) -> Step<R> {
        self.poll()?;
        if self.stack.is_empty() {
            return Err(RuntimeError::NoActiveAction("object access").into());
        }
        let chain: Vec<ActionId> = self.stack.iter().map(|fr| fr.action).collect();
        let action = *chain.last().expect("stack nonempty");
        // Open a fresh parked wait (discarding any stale doorbell; the
        // returned epoch tags every wake computed for this request), then
        // register and park until the arbitration schedules this thread's
        // next on-grid attempt (wake-on-release: the enabling event — a
        // release, grant or cancellation elsewhere — computes and
        // schedules it; `enqueue_waiter` seeds the first attempt when the
        // requester is already the eligible minimum). The wait is a poll
        // point: messages still arrive, and recovery can interrupt it (the
        // request is then withdrawn).
        let epoch = self.endpoint.begin_wait();
        let wait_start = self.now();
        self.forward_wake(obj.enqueue_waiter(self.me, wait_start, &chain, epoch));
        let mut f = Some(f);
        let (value, opened) = loop {
            match self.endpoint.park_wait_until(self.crash_at).await {
                Ok(Parked::Deadline) => {
                    // The scheduled crash instant arrived while parked:
                    // withdraw the request and die.
                    self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                    return Err(Flow::new(Unwind::Crash));
                }
                Ok(Parked::Doorbell) => {
                    // A scheduled attempt instant arrived. `try_access` is
                    // authoritative: a stale doorbell (the arbitration
                    // moved on) simply fails and the thread re-parks until
                    // the next event re-schedules it.
                    match obj.try_access(self.me, self.now(), &chain, &mut f) {
                        AccessOutcome::Done {
                            value,
                            opened,
                            wake,
                        } => {
                            self.forward_wake(wake);
                            break (value, opened);
                        }
                        AccessOutcome::NotYet => {}
                    }
                }
                Ok(Parked::Msg(received)) => {
                    if let Err(flow) = self.absorb_or_unwind(received) {
                        self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                        return Err(flow);
                    }
                }
                Err(e) => {
                    self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                    return Err(e.into());
                }
            }
        };
        // Register the object with every frame on the stack: acquisition
        // may have opened layers for enclosing actions too, and each frame
        // must commit or roll back its own layer when it completes.
        // Dedup by identity, not name — two distinct objects may share one.
        let obj_id = TxControl::object_id(obj);
        for frame in &mut self.stack {
            if !frame.objects.iter().any(|o| o.object_id() == obj_id) {
                frame.objects.push(Box::new(obj.clone()));
            }
        }
        if opened > 0 {
            let object = obj.name_shared();
            let waited_ns = self.now().as_nanos().saturating_sub(wait_start.as_nanos());
            self.observe(action, || EventKind::ObjectAcquired { object, waited_ns });
        }
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Entering actions
    // ------------------------------------------------------------------

    /// Enters `def` playing `role`, runs `body` cooperatively with the other
    /// roles, and completes the action under the termination model.
    ///
    /// At the top level (depth 0) the outcome is returned. Inside an
    /// enclosing action, a non-success outcome is *raised* in the enclosing
    /// action instead ("the exceptions concurrently signalled from the
    /// nested action will simply be handled as if they are concurrently
    /// raised in the enclosing action", §3.1), so `Ok` is only ever
    /// `ActionOutcome::Success` there.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] when recovery at an enclosing level interrupts the
    /// action, and fatally on binding errors (unknown role, wrong thread).
    pub async fn enter(
        &mut self,
        def: &ActionDef,
        role: &str,
        body: impl AsyncFnOnce(&mut Ctx) -> Step,
    ) -> Step<ActionOutcome> {
        let inner = Arc::clone(&def.inner);
        let role_id = inner.role_id(role).ok_or_else(|| {
            Flow::from(RuntimeError::UnknownRole {
                action: inner.name.to_string(),
                role: role.to_owned(),
            })
        })?;
        if inner.thread_of(role_id) != self.me {
            return Err(RuntimeError::RoleMismatch {
                action: inner.name.to_string(),
                role: role.to_owned(),
            }
            .into());
        }

        let depth = u32::try_from(self.stack.len()).expect("nesting depth bounded");
        let parent_serial = self.stack.last().map_or(0, |f| f.action.serial());
        let instance = {
            let counter = self
                .entry_counts
                .entry((inner.def_id, parent_serial))
                .or_insert(0);
            let i = *counter;
            *counter += 1;
            i
        };
        let action = make_action_id(inner.def_id, parent_serial, instance, depth);

        self.stack.push(Frame {
            action,
            def: Arc::clone(&inner),
            role: role_id,
            pending_control: VecDeque::new(),
            app_inbox: VecDeque::new(),
            exit_votes: BTreeMap::new(),
            exit_epoch: 0,
            signals: BTreeMap::new(),
            recovered: false,
            aborting: false,
            objects: Vec::new(),
            resolver: self.system.protocol.new_state(),
            membership: FrameMembership::new(&inner.group),
            in_handler: None,
            corrupted_during_signalling: false,
            evicted: false,
            heard_from: BTreeSet::new(),
            is_rejoiner: false,
            cohort: None,
            resolved_exception: None,
            pending_join_requests: Vec::new(),
        });

        // "if Ti enters A then <A> → SAi; consume messages having arrived".
        let mut initial: Option<RecoveryStart> = None;
        let retained: Vec<Message> = std::mem::take(&mut self.retained);
        let mut still_retained = Vec::new();
        for msg in retained {
            if msg.action() == action {
                match msg {
                    Message::Exception { .. }
                    | Message::Suspended { .. }
                    | Message::ViewChange { .. } => {
                        let frame = self.stack.last_mut().expect("frame just pushed");
                        frame.heard_from.insert(msg.from());
                        frame.pending_control.push_back(msg);
                        initial.get_or_insert(RecoveryStart::Suspend);
                    }
                    other => {
                        // Signals / votes / app traffic buffered normally.
                        let _ = self.route(Received {
                            src: PartitionId::new(other.from().as_u32()),
                            sent_at: VirtualInstant::EPOCH,
                            delivered_at: VirtualInstant::EPOCH,
                            msg: Some(other),
                        });
                    }
                }
            } else {
                still_retained.push(msg);
            }
        }
        self.retained = still_retained;

        self.observe(action, || EventKind::Enter {
            name: Arc::clone(&inner.name),
            role: Arc::clone(&inner.role_names[role_id.index()]),
            depth: self.stack.len(),
        });
        let outcome = self.drive(initial, body).await;

        match outcome {
            Ok(outcome) => {
                if !outcome.is_success() && !self.stack.is_empty() {
                    // Auto-raise the signalled exception in the enclosing
                    // action (distributed signalling, §3.1).
                    let id = outcome
                        .exception_id()
                        .expect("non-success outcome always carries an exception");
                    Err(Flow::new(Unwind::Raise(
                        Exception::new(id).with_origin(self.me),
                    )))
                } else {
                    Ok(outcome)
                }
            }
            Err(flow) => Err(flow),
        }
    }

    /// Simulates the down-time of a crashed participant before its
    /// restart: cancels any pending crash schedule (the process already
    /// died; a stale schedule would re-kill the restart at its first poll
    /// point) and idles `dur` of virtual time at the thread's top level.
    /// Traffic arriving during the down-time is the peers' business —
    /// stragglers for the dead instance are dropped by the normal routing
    /// rules. Follow with [`Ctx::rejoin`].
    ///
    /// # Errors
    ///
    /// Fatally, on simulation failure.
    pub async fn restart_after(&mut self, dur: VirtualDuration) -> Step {
        self.crash_at = None;
        self.work(dur).await
    }

    /// Re-enters the action this thread last crashed out of, as a restarted
    /// participant (epoch-numbered rejoin; see [`crate::membership`]).
    ///
    /// Call at the thread's top level after a crash-stop [`Flow`] (see
    /// [`Flow::is_crash`]) unwound the stack. The restarted participant
    /// broadcasts a `JoinRequest` to every other member of the action's
    /// group — it cannot know who survived — and waits a bounded window for
    /// the first `JoinGrant`. A grant carries the granter's current view,
    /// exit epoch and resolved exception; the rejoiner fast-forwards to
    /// that view, re-enters the action (observing a `Rejoin` and a second
    /// `Enter` for the same instance) and completes its exit protocol as a
    /// member again.
    ///
    /// Returns `Ok(None)` — benign — when there is nothing to rejoin: no
    /// crash was recorded, or no survivor answered within the window (all
    /// finished the action, or all crashed too). Returns the re-entered
    /// action's outcome otherwise.
    ///
    /// # Errors
    ///
    /// Fatally on binding errors (unknown role, wrong thread, non-empty
    /// stack) and on inconsistent grants.
    pub async fn rejoin(&mut self, def: &ActionDef, role: &str) -> Step<Option<ActionOutcome>> {
        // The restart cancels whatever killed us; a stale schedule would
        // re-kill the rejoiner at its first poll point.
        self.crash_at = None;
        let action = match self.last_crash.take() {
            Some(a) => a,
            None => return Ok(None),
        };
        if !self.stack.is_empty() {
            return Err(RuntimeError::Protocol(
                "rejoin requires an empty action stack (top-level restart)".into(),
            )
            .into());
        }
        let inner = Arc::clone(&def.inner);
        let role_id = inner.role_id(role).ok_or_else(|| {
            Flow::from(RuntimeError::UnknownRole {
                action: inner.name.to_string(),
                role: role.to_owned(),
            })
        })?;
        if inner.thread_of(role_id) != self.me {
            return Err(RuntimeError::RoleMismatch {
                action: inner.name.to_string(),
                role: role.to_owned(),
            }
            .into());
        }
        for &peer in inner.group.iter().filter(|&&t| t != self.me) {
            self.observe(action, || EventKind::JoinRequested { to: peer });
            self.endpoint.send(
                PartitionId::new(peer.as_u32()),
                Message::JoinRequest {
                    action,
                    from: self.me,
                },
            );
        }
        // The window only needs to cover a request/grant round trip, so the
        // (short, unscaled) signalling timeout fits; survivors blocked on
        // our exit vote wait out the much longer exit timeout, keeping a
        // successful rejoin comfortably inside their patience.
        let window = inner
            .signal_timeout
            .or(inner.exit_timeout)
            .unwrap_or_else(|| caa_core::time::secs(60.0));
        let deadline = self.now().saturating_add(window);
        let (epoch, removed, exit_epoch, resolved) = loop {
            let received = match self.recv_until(Some(deadline)).await? {
                Some(r) => r,
                None => {
                    return Ok(None);
                }
            };
            match received.msg {
                Some(Message::JoinGrant {
                    action: a,
                    thread,
                    epoch,
                    removed,
                    exit_epoch,
                    resolved,
                    ..
                }) if a == action && thread == self.me => {
                    break (epoch, removed, exit_epoch, resolved);
                }
                other => {
                    // Traffic for other instances (retained or dropped as
                    // usual); the crashed instance's own stragglers are
                    // discarded because its serial is still `finished`.
                    let _ = self.route(Received {
                        src: received.src,
                        sent_at: received.sent_at,
                        delivered_at: received.delivered_at,
                        msg: other,
                    })?;
                }
            }
        };
        let membership = FrameMembership::sync_grant(&inner.group, epoch, &removed, self.me)
            .map_err(|reason| {
                Flow::from(RuntimeError::Protocol(format!(
                    "join grant rejected: {reason}"
                )))
            })?;
        self.finished.remove(&action.serial());
        self.system.stats.borrow_mut().rejoins += 1;
        let recovered = resolved.is_some();
        self.stack.push(Frame {
            action,
            def: Arc::clone(&inner),
            role: role_id,
            pending_control: VecDeque::new(),
            app_inbox: VecDeque::new(),
            exit_votes: BTreeMap::new(),
            exit_epoch,
            signals: BTreeMap::new(),
            recovered,
            aborting: false,
            objects: Vec::new(),
            resolver: self.system.protocol.new_state(),
            membership,
            in_handler: None,
            corrupted_during_signalling: false,
            evicted: false,
            heard_from: BTreeSet::new(),
            is_rejoiner: true,
            cohort: None,
            resolved_exception: resolved,
            pending_join_requests: Vec::new(),
        });
        {
            let view_epoch = self
                .stack
                .last()
                .expect("frame just pushed")
                .membership
                .epoch();
            let me = self.me;
            self.observe(action, || EventKind::Rejoin {
                epoch: view_epoch,
                thread: me,
            });
        }
        self.observe(action, || EventKind::Enter {
            name: Arc::clone(&inner.name),
            role: Arc::clone(&inner.role_names[role_id.index()]),
            depth: self.stack.len(),
        });
        // The catch-up body is trivial: the rejoiner's pre-crash work is
        // lost (its transaction layers were broken at the crash) and must
        // not be redone — what remains is finishing the protocol rounds as
        // a member: join any in-flight recovery, vote, exit.
        let outcome = self.drive(None, async |_| Ok(())).await?;
        Ok(Some(outcome))
    }

    /// Runs the action's phases until an outcome is reached, recovering as
    /// many times as enclosing-level aborts demand. The frame is always
    /// popped before returning.
    async fn drive(
        &mut self,
        initial: Option<RecoveryStart>,
        body: impl AsyncFnOnce(&mut Ctx) -> Step,
    ) -> Step<ActionOutcome> {
        let mut next: Option<RecoveryStart> = initial;
        if next.is_none() {
            match body(self).await {
                Ok(()) => {}
                Err(flow) => match self.flow_to_start(flow).await {
                    Ok(start) => next = Some(start),
                    Err(flow) => return Err(flow),
                },
            }
        }
        loop {
            let attempt: Step<ActionOutcome> = match next.take() {
                None => self.phase_exit_then(ActionOutcome::Success).await,
                Some(start) => self.phase_recover(start).await,
            };
            match attempt {
                Ok(outcome) => return Ok(outcome),
                Err(flow) => match self.flow_to_start(flow).await {
                    Ok(start) => next = Some(start),
                    Err(flow) => return Err(flow),
                },
            }
        }
    }

    /// Converts an unwinding [`Flow`] into a recovery start for the current
    /// frame, or performs this frame's part of the abortion cascade and
    /// re-propagates.
    async fn flow_to_start(&mut self, flow: Flow) -> Result<RecoveryStart, Flow> {
        match flow.unwind {
            Unwind::Raise(e) => Ok(RecoveryStart::Raise(e)),
            Unwind::Suspend => Ok(RecoveryStart::Suspend),
            Unwind::Outer { target, eab } => {
                let my_action = self.stack.last().map(|f| f.action);
                if my_action == Some(target) {
                    // Recovery lands at this level: the abortion-handler
                    // exception of the directly nested action (if any) is
                    // raised here, else we suspend (§3.3.1).
                    match eab {
                        Some(e) => Ok(RecoveryStart::Raise(e)),
                        None => Ok(RecoveryStart::Suspend),
                    }
                } else {
                    // This frame is being aborted on the way out.
                    let my_eab = self.abort_current_frame().await?;
                    Err(Flow::new(Unwind::Outer {
                        target,
                        eab: my_eab,
                    }))
                }
            }
            Unwind::Crash => {
                // The process is "dead": unwind every frame silently.
                self.crash_current_frame();
                Err(Flow::new(Unwind::Crash))
            }
            fatal @ Unwind::Fatal(_) => {
                self.discard_current_frame();
                Err(Flow { unwind: fatal })
            }
        }
    }

    /// Aborts the top frame: rolls back its objects, runs its abortion
    /// handler (which may produce `Eab`), and pops it.
    async fn abort_current_frame(&mut self) -> Result<Option<Exception>, Flow> {
        self.system.stats.borrow_mut().aborts += 1;
        let (action, def, role) = {
            let frame = self.stack.last_mut().expect("abort requires a frame");
            // From here on, recovery messages for this instance are
            // stragglers: its own recovery (if any) is abandoned in favour
            // of the enclosing level's.
            frame.aborting = true;
            (frame.action, Arc::clone(&frame.def), frame.role)
        };
        // Run the abortion handler while the frame is still active so it
        // can use the context (work, app messages). Deeper-outer triggers
        // during the handler extend the cascade.
        let mut deeper: Option<(ActionId, Option<Exception>)> = None;
        let mut eab = None;
        if let Some(handler) = def.abort_handlers.get(&role).cloned() {
            match handler.call(self).await {
                Ok(result) => eab = result,
                Err(flow) => match flow.unwind {
                    // An abortion handler may report Eab by raising.
                    Unwind::Raise(e) => eab = Some(e),
                    Unwind::Suspend => {}
                    Unwind::Outer { target, eab: e } => deeper = Some((target, e)),
                    Unwind::Crash => {
                        self.crash_current_frame();
                        return Err(Flow::new(Unwind::Crash));
                    }
                    fatal @ Unwind::Fatal(_) => {
                        self.discard_current_frame();
                        return Err(Flow { unwind: fatal });
                    }
                },
            }
        }
        // Undo the aborted action's effects; effects that cannot be undone
        // taint the object (ƒ semantics).
        let now = self.endpoint.now();
        let frame = self.stack.last_mut().expect("frame still present");
        let objects = std::mem::take(&mut frame.objects);
        for obj in &objects {
            self.release_rollback_or_taint(obj.as_ref(), action, now);
        }
        self.observe(action, || EventKind::Abort {
            eab: eab.as_ref().map(|e| e.id().clone()),
        });
        self.pop_frame();
        if let Some((target, e)) = deeper {
            // The cascade continues past the original target.
            return Err(Flow::new(Unwind::Outer { target, eab: e }));
        }
        Ok(eab)
    }

    /// Rolls `action`'s layer back on `obj` — tainting instead when the
    /// object is irreversible (ƒ semantics) — and forwards the release's
    /// wake-up to the next waiter.
    fn release_rollback_or_taint(
        &self,
        obj: &dyn TxControl,
        action: ActionId,
        now: VirtualInstant,
    ) {
        match obj.rollback(action, now) {
            Ok(wake) => self.forward_wake(wake),
            Err(ObjectError::UndoImpossible { .. }) => {
                if let Ok(wake) = obj.commit_tainted(action, now) {
                    self.forward_wake(wake);
                }
            }
            Err(ObjectError::NotAcquired { .. }) => {}
        }
    }

    /// Pops the top frame without ceremony (fatal-error path).
    fn discard_current_frame(&mut self) {
        if let Some(frame) = self.stack.last_mut() {
            let action = frame.action;
            let now = self.endpoint.now();
            let objects = std::mem::take(&mut frame.objects);
            for obj in &objects {
                if let Ok(wake) = obj.rollback(action, now) {
                    self.forward_wake(wake);
                }
            }
            self.observe(action, || EventKind::Abort { eab: None });
            self.pop_frame();
        }
    }

    /// Crash-stop: discards the top frame like a process death — objects
    /// this thread registered are rolled back (the crashed node's
    /// transaction layers are broken), no handlers run, no messages are
    /// sent. Emits a [`EventKind::Crash`] event so traces and oracles can
    /// account for the never-closed entry.
    fn crash_current_frame(&mut self) {
        if let Some(frame) = self.stack.last_mut() {
            let action = frame.action;
            let now = self.endpoint.now();
            let objects = std::mem::take(&mut frame.objects);
            for obj in &objects {
                self.release_rollback_or_taint(obj.as_ref(), action, now);
            }
            self.observe(action, || EventKind::Crash);
            // The unwind pops frames innermost-out; the last one recorded
            // is the outermost action the crash discarded — the instance a
            // restart would ask to rejoin.
            self.last_crash = Some(action);
            self.pop_frame();
        }
    }

    fn pop_frame(&mut self) {
        if let Some(frame) = self.stack.pop() {
            self.finished.insert(frame.action.serial());
        }
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Exit protocol, then finalize with `outcome` if no recovery begins.
    async fn phase_exit_then(&mut self, outcome: ActionOutcome) -> Step<ActionOutcome> {
        match self.run_exit().await? {
            ExitResult::Done => self.finalize(outcome),
            ExitResult::Recover => self.phase_recover(RecoveryStart::Suspend).await,
            // A peer's view change removed this thread (or a rejoiner gave
            // up): the survivors conclude without us — resolve locally to
            // abortion (ƒ) so objects are tainted, not left hanging.
            ExitResult::Evicted => self.finalize(ActionOutcome::Failed),
        }
    }

    /// One full recovery: resolution, handling, signalling, exit.
    async fn phase_recover(&mut self, start: RecoveryStart) -> Step<ActionOutcome> {
        self.system.stats.borrow_mut().recoveries += 1;
        let resolved = match self.run_recovery(start).await? {
            Some(resolved) => resolved,
            // A concurrent view change evicted this thread: the survivors
            // resolve among themselves, we give up locally (ƒ).
            None => return self.finalize(ActionOutcome::Failed),
        };
        let verdict = self.run_handler(&resolved).await?;
        let my_signal = self.run_signalling(verdict).await?;
        {
            let frame = self.stack.last_mut().expect("frame active");
            frame.exit_epoch += 1;
            let action = frame.action;
            let signal = my_signal.clone();
            self.observe(action, || EventKind::SignalOutcome { signal });
        }
        // The recovery rounds are over: re-admit any restarted participant
        // that asked to rejoin while they ran. Done after the new exit
        // epoch opens so grants carry the epoch the joiner must vote in.
        self.flush_pending_joins();
        match self.run_exit().await? {
            ExitResult::Done => {}
            ExitResult::Recover => {
                // Stragglers cannot re-trigger (the frame is marked
                // recovered); a genuine trigger here is a protocol bug.
                return Err(RuntimeError::Protocol(
                    "recovery re-triggered after signalling".into(),
                )
                .into());
            }
            // This thread was removed from the view between signalling and
            // exit: ƒ dominates whatever the signalling round concluded.
            ExitResult::Evicted => return self.finalize(ActionOutcome::Failed),
        }
        let outcome = match my_signal {
            Signal::None => ActionOutcome::Success,
            Signal::Exception(id) => ActionOutcome::Signalled(id),
            Signal::Undo => ActionOutcome::Undone,
            Signal::Failure => ActionOutcome::Failed,
        };
        self.finalize(outcome)
    }

    /// Commits or finalizes objects per outcome and pops the frame.
    fn finalize(&mut self, outcome: ActionOutcome) -> Step<ActionOutcome> {
        let now = self.endpoint.now();
        let frame = self.stack.last_mut().expect("frame active");
        let action = frame.action;
        let objects = std::mem::take(&mut frame.objects);
        match &outcome {
            ActionOutcome::Success | ActionOutcome::Signalled(_) => {
                // Forward recovery leaves objects in (new) valid states.
                for obj in &objects {
                    if let Ok(wake) = obj.commit(action, now) {
                        self.forward_wake(wake);
                    }
                }
            }
            ActionOutcome::Undone => {
                // Rollback already happened during the undo round; any
                // layer still open (acquired after undo) is discarded.
                for obj in &objects {
                    if let Ok(wake) = obj.rollback(action, now) {
                        self.forward_wake(wake);
                    }
                }
            }
            ActionOutcome::Failed => {
                // ƒ: effects may not have been undone; leave them visible
                // and taint the objects.
                for obj in &objects {
                    if let Ok(wake) = obj.commit_tainted(action, now) {
                        self.forward_wake(wake);
                    }
                }
            }
        }
        self.observe(action, || EventKind::Exit {
            outcome: outcome.clone(),
        });
        self.pop_frame();
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Recovery: resolution
    // ------------------------------------------------------------------

    /// Runs resolution until agreement, or until a concurrent view change
    /// evicts this thread (`Ok(None)`: the survivors resolve without us and
    /// the caller must give up locally).
    async fn run_recovery(&mut self, start: RecoveryStart) -> Step<Option<ExceptionId>> {
        {
            let frame = self.stack.last_mut().expect("frame active");
            // Open the join-deferral window and pin the signalling cohort:
            // the view must not grow while resolution or signalling ranges
            // over it (see `Frame::cohort`).
            frame.cohort = Some(ViewSnapshot::from_slice(frame.membership.members()));
            let action = frame.action;
            self.observe(action, || EventKind::RecoveryStart {
                raised: matches!(start, RecoveryStart::Raise(_)),
            });
        }
        // Feed the stashed trigger(s) first, then our own transition.
        let pending: Vec<Message> = {
            let frame = self.stack.last_mut().expect("frame active");
            frame.pending_control.drain(..).collect()
        };
        let mut resolved: Option<ExceptionId> = None;
        for msg in pending {
            if let Some(r) = self.absorb_active_control(msg).await? {
                resolved = Some(r);
            }
        }
        if self.stack.last().expect("frame active").evicted {
            // A pending view change removed us before we ever announced
            // our own transition: stay silent and give up.
            return Ok(None);
        }
        match &start {
            RecoveryStart::Raise(e) => {
                self.system.stats.borrow_mut().exceptions_raised += 1;
                // "inform external objects (used by Ti within A) of the
                // exception".
                let frame = self.stack.last().expect("frame active");
                let action = frame.action;
                for obj in &frame.objects {
                    obj.inform_exception(action, e.id().name());
                }
                self.observe(action, || EventKind::Raise {
                    exception: e.id().clone(),
                });
                if let Some(r) = self.feed_resolver(ProtoEventKind::Raise(e.clone())).await? {
                    resolved = Some(r);
                }
            }
            RecoveryStart::Suspend => {
                if let Some(r) = self.feed_resolver(ProtoEventKind::Suspend).await? {
                    resolved = Some(r);
                }
            }
        }
        // Collect control messages until agreement. With a configured
        // resolution timeout the wait is bounded per round (the membership
        // extension): expiry presumes the silent peers crashed, shrinks the
        // view and re-runs resolution; an applied view change — local or
        // remote — opens a fresh round for the shrunken view.
        let timeout = self
            .stack
            .last()
            .expect("frame active")
            .def
            .resolution_timeout;
        let mut deadline = timeout.map(|t| self.now().saturating_add(t));
        while resolved.is_none() {
            if self.stack.last().expect("frame active").evicted {
                return Ok(None);
            }
            let received = match self.recv_until(deadline).await? {
                Some(r) => r,
                None => {
                    if let Some(r) = self.presume_crashed().await? {
                        resolved = Some(r);
                    }
                    deadline = timeout.map(|t| self.now().saturating_add(t));
                    continue;
                }
            };
            match self.route(received)? {
                Routed::Done => {}
                Routed::Corrupted => {
                    // Lost information during resolution; Assumption 1
                    // excludes this for the resolution algorithm, so count
                    // and continue (the signalling algorithm is the layer
                    // with the ƒ extension).
                    self.system.stats.borrow_mut().corrupted_ignored += 1;
                }
                Routed::ActiveControl(msg) => {
                    let view_change = matches!(msg, Message::ViewChange { .. });
                    if let Some(r) = self.absorb_active_control(msg).await? {
                        resolved = Some(r);
                    }
                    if view_change {
                        deadline = timeout.map(|t| self.now().saturating_add(t));
                    }
                }
            }
        }
        let resolved = resolved.expect("loop exits only when resolved");
        if self.stack.last().expect("frame active").evicted {
            // The message that concluded resolution also carried a view
            // excluding us (a commit whose membership moved on): give up.
            return Ok(None);
        }
        let frame = self.stack.last_mut().expect("frame active");
        frame.recovered = true;
        frame.resolved_exception = Some(resolved.clone());
        let action = frame.action;
        self.observe(action, || EventKind::Resolved {
            exception: resolved.clone(),
        });
        Ok(Some(resolved))
    }

    async fn feed_resolver(&mut self, event: ProtoEventKind) -> Step<Option<ExceptionId>> {
        let (me, action, view, graph) = {
            let frame = self.stack.last().expect("frame active");
            (
                self.me,
                frame.action,
                ViewSnapshot::from_slice(frame.membership.members()),
                Arc::clone(&frame.def.graph),
            )
        };
        let actions: ProtoActions = {
            let frame = self.stack.last_mut().expect("frame active");
            let ctx = ProtoCtx {
                me,
                action,
                group: &view,
                graph: &graph,
            };
            match &event {
                ProtoEventKind::Raise(e) => {
                    frame.resolver.on_event(&ctx, ProtoEvent::LocalRaise(e))
                }
                ProtoEventKind::Suspend => frame.resolver.on_event(&ctx, ProtoEvent::LocalSuspend),
                ProtoEventKind::Control(m) => frame.resolver.on_event(&ctx, ProtoEvent::Control(m)),
            }
        };
        self.dispatch_proto_actions(action, actions).await
    }

    /// Sends a resolver's outbound messages (stamping the frame's
    /// membership view into outgoing `Commit`s), charges `Treso` per
    /// resolution invocation and reports the resolved exception, if any.
    async fn dispatch_proto_actions(
        &mut self,
        action: ActionId,
        mut actions: ProtoActions,
    ) -> Step<Option<ExceptionId>> {
        {
            let frame = self.stack.last_mut().expect("frame active");
            let epoch = frame.membership.epoch();
            if epoch > 0 {
                // Crash-free recoveries (epoch 0, nothing removed) keep
                // the resolver's pre-stamped empty set — no work at all.
                let removed = frame.membership.removed_shared();
                for (_, msg) in &mut actions.outbound {
                    if let Message::Commit {
                        view_epoch,
                        view_removed,
                        ..
                    } = msg
                    {
                        *view_epoch = epoch;
                        *view_removed = Arc::clone(&removed);
                    }
                }
            }
        }
        for (to, msg) in actions.outbound {
            self.endpoint.send(PartitionId::new(to.as_u32()), msg);
        }
        if actions.resolve_invocations > 0 {
            self.system.stats.borrow_mut().resolutions_invoked +=
                u64::from(actions.resolve_invocations);
            self.observe(action, || EventKind::ResolutionInvoked {
                invocations: actions.resolve_invocations,
            });
            let delay = self.system.resolution_delay * actions.resolve_invocations;
            if !delay.is_zero() {
                self.endpoint.sleep(delay).await?;
            }
        }
        Ok(actions.resolved)
    }

    // ------------------------------------------------------------------
    // Recovery: membership (crash-aware resolution, see crate::membership)
    // ------------------------------------------------------------------

    /// Feeds one resolution-control message for the active frame to the
    /// right machine: a `ViewChange` announcement goes to the membership
    /// layer, everything else to the resolver — a `Commit` first adopts
    /// the membership view piggybacked on it, so a commit racing ahead of
    /// its `ViewChange` announcement still shrinks this frame's view.
    async fn absorb_active_control(&mut self, msg: Message) -> Step<Option<ExceptionId>> {
        let top = self.stack.len() - 1;
        match msg {
            Message::ViewChange { removed, .. } => {
                match self.adopt_removal_set(top, &removed) {
                    // Removals naming us mean the survivors resolve without
                    // us; do not re-elect over a view we are not part of.
                    Some(fresh) if !self.stack[top].evicted => self.feed_view_change(&fresh).await,
                    _ => Ok(None),
                }
            }
            msg => {
                if let Message::Commit { view_removed, .. } = &msg {
                    let removed = Arc::clone(view_removed);
                    self.adopt_removal_set(top, &removed);
                    if self.stack[top].evicted {
                        // The committed view excludes us: give up instead
                        // of acting on a resolution we are not part of.
                        return Ok(None);
                    }
                }
                self.feed_resolver(ProtoEventKind::Control(msg)).await
            }
        }
    }

    /// The bounded resolution wait expired: suspect the threads this
    /// participant is blocked on, remove them from the frame's view,
    /// announce the change to the survivors and re-run resolution with a
    /// crash exception synthesized on each silent suspect's behalf
    /// (presume-ƒ).
    async fn presume_crashed(&mut self) -> Step<Option<ExceptionId>> {
        let suspects = {
            let frame = self.stack.last().expect("frame active");
            let view = ViewSnapshot::from_slice(frame.membership.members());
            let graph = Arc::clone(&frame.def.graph);
            let ctx = ProtoCtx {
                me: self.me,
                action: frame.action,
                group: &view,
                graph: &graph,
            };
            frame.resolver.waiting_on(&ctx)
        };
        if suspects.is_empty() {
            return Err(RuntimeError::Protocol(
                "bounded resolution wait expired but the protocol reports no suspects \
                 (resolution protocol without membership support?)"
                    .into(),
            )
            .into());
        }
        self.suspect_round(SuspicionRound::Resolution, &suspects)
            .await
    }

    /// Round-agnostic suspicion: the bounded wait of `round` expired with
    /// the listed peers silent. Observes the round's timeout event, removes
    /// the suspects from the active frame's view, and announces the change
    /// to the *pre-removal* view — so a falsely suspected (live) peer
    /// learns of its eviction and gives up instead of counter-suspecting
    /// the survivors. For resolution rounds the resolver is then re-fed
    /// with a crash exception synthesized per suspect (presume-ƒ);
    /// signalling and exit rounds need no synthesis — their own ƒ rules
    /// cover the silence.
    async fn suspect_round(
        &mut self,
        round: SuspicionRound,
        suspects: &[ThreadId],
    ) -> Step<Option<ExceptionId>> {
        let action = self.stack.last().expect("frame active").action;
        match round {
            SuspicionRound::Resolution => {
                self.system.stats.borrow_mut().resolution_timeouts += 1;
                let s = suspects.to_vec();
                self.observe(action, || EventKind::ResolutionTimeout { suspects: s });
            }
            SuspicionRound::Signalling(r) => {
                self.system.stats.borrow_mut().signal_timeouts += 1;
                let s = suspects.to_vec();
                self.observe(action, || EventKind::SignalTimeout {
                    round: r,
                    suspects: s,
                });
            }
            SuspicionRound::Exit { epoch } => {
                self.system.stats.borrow_mut().exit_timeouts += 1;
                self.observe(action, || EventKind::ExitTimeout { epoch });
            }
        }
        // Quorum gate (primary-partition rule): when the suspects this
        // thread has *heard from* within the instance outnumber the view
        // that would survive their eviction, the unanimous silence is far
        // better explained by this thread's own connectivity (its outbound
        // announcements lost, or it lagging a round behind) than by a
        // majority of recently-alive peers all crashing inside one bounded
        // wait. A minority must not install a view the majority will never
        // adopt — the survivors' own suspicion of *us* is already in
        // flight, and acting on ours would split the membership. Give up
        // locally instead: the frame finalizes `Failed` without
        // broadcasting, exactly as if the survivors' eviction notice had
        // arrived in time. Peers that never sent a protocol message are
        // exempt from the count — their silence is indistinguishable from
        // a crash before the protocol ever reached them (presume-ƒ), so a
        // sole survivor can still evict a genuinely dead cohort.
        let refused = {
            let frame = self.stack.last().expect("frame active");
            let members = frame.membership.members();
            let survivors = members.iter().filter(|t| !suspects.contains(t)).count();
            let recently_alive = suspects
                .iter()
                .filter(|t| members.contains(t) && frame.heard_from.contains(t))
                .count();
            survivors < recently_alive
        };
        if refused {
            self.stack.last_mut().expect("frame active").evicted = true;
            return Ok(None);
        }
        let (epoch, recipients) = {
            let frame = self.stack.last_mut().expect("frame active");
            let recipients = ViewSnapshot::from_slice(frame.membership.members());
            let epoch = frame.membership.initiate(suspects).map_err(|reason| {
                Flow::from(RuntimeError::Protocol(format!(
                    "membership view change rejected: {reason}"
                )))
            })?;
            (epoch, recipients)
        };
        self.system.stats.borrow_mut().view_changes += 1;
        {
            let removed = suspects.to_vec();
            self.observe(action, || EventKind::ViewChange { epoch, removed });
        }
        // Announce before continuing the round: per-link FIFO then
        // guarantees every survivor sees the view change before any later
        // message this participant derives from it.
        let removed: Arc<[ThreadId]> = Arc::from(suspects);
        for &peer in recipients.iter().filter(|&&t| t != self.me) {
            self.endpoint.send(
                PartitionId::new(peer.as_u32()),
                Message::ViewChange {
                    action,
                    from: self.me,
                    epoch,
                    removed: Arc::clone(&removed),
                },
            );
        }
        match round {
            SuspicionRound::Resolution => self.feed_view_change(suspects).await,
            _ => Ok(None),
        }
    }

    /// Applies a removal set announced by a peer — a `ViewChange` step set
    /// or the cumulative set piggybacked on a `Commit` — to the frame at
    /// `index`: already-removed threads are ignored, anything new shrinks
    /// the view at the next local epoch (set-wise convergence; see
    /// [`crate::membership`]). Returns the freshly removed threads, if
    /// any. A removal naming this thread itself marks the frame evicted:
    /// a peer suspected us wrongly — we are alive — and the survivors
    /// have moved on without us.
    fn adopt_removal_set(&mut self, index: usize, removed: &[ThreadId]) -> Option<Vec<ThreadId>> {
        let (epoch, fresh) = self.stack[index].membership.adopt_removals(removed)?;
        let action = self.stack[index].action;
        self.system.stats.borrow_mut().view_changes += 1;
        {
            let removed = fresh.clone();
            self.observe(action, || EventKind::ViewChange { epoch, removed });
        }
        if fresh.contains(&self.me) {
            self.stack[index].evicted = true;
        }
        Some(fresh)
    }

    /// Answers a restarted participant's `JoinRequest` at the frame at
    /// `index`: re-admits it into the view (epoch-numbered rejoin) and
    /// sends back the current view, exit epoch and resolved exception so
    /// the joiner can fast-forward. If this thread already voted in the
    /// current exit epoch, the vote is re-sent — the original broadcast
    /// went to the joiner's pre-crash endpoint and was discarded.
    fn grant_join(&mut self, index: usize, joiner: ThreadId) {
        if !self.stack[index].def.group.contains(&joiner) {
            return; // never part of this action's group; ignore
        }
        let action = self.stack[index].action;
        if let Some(epoch) = self.stack[index].membership.adopt_rejoin(joiner) {
            self.observe(action, || EventKind::Rejoin {
                epoch,
                thread: joiner,
            });
        }
        // (A joiner the view never removed — it restarted before anyone
        // suspected it — simply gets its unchanged membership confirmed.)
        let (grant, exit_epoch, revote) = {
            let frame = &mut self.stack[index];
            let grant = Message::JoinGrant {
                action,
                from: self.me,
                thread: joiner,
                epoch: frame.membership.epoch(),
                removed: frame.membership.removed_shared(),
                exit_epoch: frame.exit_epoch,
                resolved: frame.resolved_exception.clone(),
            };
            let revote = frame
                .exit_votes
                .get(&frame.exit_epoch)
                .is_some_and(|v| v.contains(&self.me));
            (grant, frame.exit_epoch, revote)
        };
        let to = PartitionId::new(joiner.as_u32());
        self.endpoint.send(to, grant);
        if revote {
            self.endpoint.send(
                to,
                Message::ExitVote {
                    action,
                    from: self.me,
                    epoch: exit_epoch,
                },
            );
        }
    }

    /// Ends the join-deferral window a recovery opened: clears the
    /// signalling cohort and grants the rejoin requests that arrived while
    /// resolution/signalling ranged over it.
    fn flush_pending_joins(&mut self) {
        let top = self.stack.len() - 1;
        self.stack[top].cohort = None;
        let pending = std::mem::take(&mut self.stack[top].pending_join_requests);
        for joiner in pending {
            self.grant_join(top, joiner);
        }
    }

    /// Notifies the resolver of an applied view change: `removed` threads
    /// are gone, and a synthesized crash exception stands in for each one
    /// that never announced anything. May conclude the resolution (this
    /// participant may now hold the quorum and the election).
    async fn feed_view_change(&mut self, removed: &[ThreadId]) -> Step<Option<ExceptionId>> {
        let synthesized = synthesize_crashes(removed);
        let (me, action, view, graph) = {
            let frame = self.stack.last().expect("frame active");
            (
                self.me,
                frame.action,
                ViewSnapshot::from_slice(frame.membership.members()),
                Arc::clone(&frame.def.graph),
            )
        };
        let actions: ProtoActions = {
            let frame = self.stack.last_mut().expect("frame active");
            let ctx = ProtoCtx {
                me,
                action,
                group: &view,
                graph: &graph,
            };
            frame.resolver.on_view_change(&ctx, removed, &synthesized)
        };
        self.dispatch_proto_actions(action, actions).await
    }

    // ------------------------------------------------------------------
    // Recovery: handling
    // ------------------------------------------------------------------

    async fn run_handler(&mut self, resolved: &ExceptionId) -> Step<HandlerVerdict> {
        let (handler, role, action) = {
            let frame = self.stack.last_mut().expect("frame active");
            frame.in_handler = Some(resolved.clone());
            (
                frame.def.handler_for(frame.role, resolved),
                frame.role,
                frame.action,
            )
        };
        let _ = role;
        self.observe(action, || EventKind::HandlerStart {
            exception: resolved.clone(),
        });
        let verdict = match handler {
            Some(h) => {
                let r = h.call(self).await;
                if let Some(frame) = self.stack.last_mut() {
                    frame.in_handler = None;
                }
                r?
            }
            None => {
                if let Some(frame) = self.stack.last_mut() {
                    frame.in_handler = None;
                }
                DefInner::default_verdict(resolved)
            }
        };
        self.observe(action, || EventKind::HandlerEnd {
            verdict: verdict.clone(),
        });
        Ok(verdict)
    }

    // ------------------------------------------------------------------
    // Recovery: signalling (§3.4)
    // ------------------------------------------------------------------

    async fn run_signalling(&mut self, verdict: HandlerVerdict) -> Step<Signal> {
        let my_signal = verdict.to_signal();
        if self.stack.last().expect("frame active").evicted {
            // Removed from the view: the survivors no longer expect our
            // announcements; any broadcast would only confuse their rounds.
            return Ok(Signal::Failure);
        }
        // Coordinate over the current view: presumed-crashed members are
        // not waited on (their silence would otherwise force ƒ through
        // the signalling timeout even after recovery handled the crash).
        let group_len = self
            .stack
            .last()
            .expect("frame active")
            .signalling_group()
            .len();
        if group_len == 1 {
            // No coordination needed; µ still requires the local undo.
            return match my_signal {
                Signal::Undo => Ok(self.perform_undo().await),
                other => Ok(other),
            };
        }

        let collected = self
            .signal_round(SignalRound::First, my_signal.clone())
            .await?;
        let any_failure = collected.iter().any(|s| matches!(s, Signal::Failure))
            || self
                .stack
                .last()
                .expect("frame active")
                .corrupted_during_signalling;
        let any_undo = collected.iter().any(|s| matches!(s, Signal::Undo));

        if any_failure {
            // Case 3: ƒ dominates — every thread signals ƒ.
            return Ok(Signal::Failure);
        }
        if !any_undo {
            // Case 1: everyone signals its own exception (or nothing).
            return Ok(my_signal);
        }
        // Case 2: µ requested — all threads undo, then exchange again.
        self.system.stats.borrow_mut().undo_rounds += 1;
        let after_undo = self.perform_undo().await;
        let collected = self
            .signal_round(SignalRound::AfterUndo, after_undo)
            .await?;
        if collected.iter().any(|s| matches!(s, Signal::Failure))
            || self
                .stack
                .last()
                .expect("frame active")
                .corrupted_during_signalling
        {
            Ok(Signal::Failure)
        } else {
            Ok(Signal::Undo)
        }
    }

    /// Undoes this thread's effects: rolls back every object it touched and
    /// runs the role's undo hook. Returns the signal to announce (µ on
    /// success, ƒ when some undo operation failed).
    async fn perform_undo(&mut self) -> Signal {
        let (action, def, role) = {
            let frame = self.stack.last().expect("frame active");
            (frame.action, Arc::clone(&frame.def), frame.role)
        };
        let mut ok = true;
        if let Some(hook) = def.undo_hooks.get(&role).cloned() {
            match hook.call(self).await {
                Ok(hook_ok) => ok &= hook_ok,
                Err(_) => ok = false,
            }
        }
        let now = self.endpoint.now();
        let frame = self.stack.last_mut().expect("frame active");
        let objects = std::mem::take(&mut frame.objects);
        for obj in &objects {
            match obj.rollback(action, now) {
                Ok(wake) => self.forward_wake(wake),
                Err(ObjectError::UndoImpossible { .. }) => {
                    if let Ok(wake) = obj.commit_tainted(action, now) {
                        self.forward_wake(wake);
                    }
                    ok = false;
                }
                Err(ObjectError::NotAcquired { .. }) => {}
            }
        }
        if ok {
            Signal::Undo
        } else {
            Signal::Failure
        }
    }

    /// One exchange of the signalling algorithm: broadcast my signal for
    /// `round`, collect everyone's.
    async fn signal_round(&mut self, round: SignalRound, mine: Signal) -> Step<Vec<Signal>> {
        let (action, group, timeout) = {
            let frame = self.stack.last_mut().expect("frame active");
            frame.signals.insert((round, self.me), mine.clone());
            (
                frame.action,
                frame.signalling_group(),
                frame.def.signal_timeout,
            )
        };
        for &peer in group.iter().filter(|&&t| t != self.me) {
            self.endpoint.send(
                PartitionId::new(peer.as_u32()),
                Message::ToBeSignalled {
                    action,
                    from: self.me,
                    round,
                    signal: mine.clone(),
                },
            );
        }
        // The §3.4 timeout is a per-round deadline: unrelated traffic
        // (exit votes, retained triggers for other instances) must not
        // extend the wait, or a peer's signalling stall becomes unbounded.
        let deadline = timeout.map(|t| self.now().saturating_add(t));
        loop {
            {
                let frame = self.stack.last().expect("frame active");
                // Re-derive the group each pass: a view change adopted by
                // the router mid-round must not leave us waiting on a
                // freshly removed member.
                let group = frame.signalling_group();
                let have = group
                    .iter()
                    .filter(|&&t| frame.signals.contains_key(&(round, t)))
                    .count();
                if have == group.len() {
                    let collected = group
                        .iter()
                        .map(|&t| frame.signals[&(round, t)].clone())
                        .collect();
                    return Ok(collected);
                }
            }
            let received = match self.recv_until(deadline).await? {
                Some(r) => r,
                None => {
                    let (epoch, group_now, suspects) = {
                        let frame = self.stack.last().expect("frame active");
                        let group_now = frame.signalling_group();
                        let suspects: Vec<ThreadId> = group_now
                            .iter()
                            .copied()
                            .filter(|&t| t != self.me && !frame.signals.contains_key(&(round, t)))
                            .collect();
                        (frame.membership.epoch(), group_now, suspects)
                    };
                    if epoch > 0
                        && !suspects.is_empty()
                        && !self.stack.last().expect("frame active").evicted
                    {
                        // The view is already degraded — a crash was
                        // detected earlier in this action's life — so a
                        // missing announcement here is presumed another
                        // crash, not a §3.4-tolerated loss: suspect the
                        // silent peers so the exit protocol will not wait
                        // for them. Against a pristine view the two are
                        // indistinguishable and the pure ƒ rule below
                        // stands alone (a genuinely crashed peer is still
                        // caught by the exit round's suspicion).
                        self.suspect_round(SuspicionRound::Signalling(round), &suspects)
                            .await?;
                    }
                    // §3.4 extension: a missing announcement (lost message
                    // or crashed peer) is treated as ƒ; all fault-free
                    // threads still signal coordinated exceptions. Fill
                    // and conclude over the group as it was when the wait
                    // expired — every member of it reaches ƒ through its
                    // own timeout, so the round's outcome stays agreed
                    // even when the suspicion above shrank the view.
                    // (Only reachable with a deadline.)
                    let frame = self.stack.last_mut().expect("frame active");
                    for &t in &group_now {
                        frame.signals.entry((round, t)).or_insert(Signal::Failure);
                    }
                    let collected = group_now
                        .iter()
                        .map(|&t| frame.signals[&(round, t)].clone())
                        .collect();
                    return Ok(collected);
                }
            };
            match self.route(received)? {
                Routed::Done => {}
                Routed::Corrupted => {
                    let frame = self.stack.last_mut().expect("frame active");
                    frame.corrupted_during_signalling = true;
                }
                Routed::ActiveControl(_) => {
                    // Straggler Exception/Suspended cannot reach here (the
                    // frame is marked recovered); Commit stragglers are
                    // dropped by the router.
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Exit protocol (§5.1)
    // ------------------------------------------------------------------

    async fn run_exit(&mut self) -> Step<ExitResult> {
        // Vote and collect over the current view: a recovery that removed
        // a presumed-crashed member must not wait for the dead thread's
        // vote (it would only ever leave through the exit timeout's ƒ).
        if self.stack.last().expect("frame active").evicted {
            // A peer's view change removed us: the survivors no longer
            // count our vote, and broadcasting one would only confuse the
            // epochs they are collecting.
            return Ok(ExitResult::Evicted);
        }
        let (action, group, epoch, timeout, is_rejoiner) = {
            let frame = self.stack.last_mut().expect("frame active");
            let epoch = frame.exit_epoch;
            frame.exit_votes.entry(epoch).or_default().insert(self.me);
            (
                frame.action,
                ViewSnapshot::from_slice(frame.membership.members()),
                epoch,
                frame.def.exit_timeout,
                frame.is_rejoiner,
            )
        };
        self.observe(action, || EventKind::ExitStart { epoch });
        let mut deadline = timeout.map(|t| self.now().saturating_add(t));
        for &peer in group.iter().filter(|&&t| t != self.me) {
            self.endpoint.send(
                PartitionId::new(peer.as_u32()),
                Message::ExitVote {
                    action,
                    from: self.me,
                    epoch,
                },
            );
        }
        loop {
            {
                let frame = self.stack.last().expect("frame active");
                if frame.evicted {
                    return Ok(ExitResult::Evicted);
                }
                // Re-derive the wait set each pass: suspicion shrinks it,
                // and a granted rejoin grows it (the readmitted thread's
                // vote is required again).
                let group = ViewSnapshot::from_slice(frame.membership.members());
                if frame
                    .exit_votes
                    .get(&epoch)
                    .is_some_and(|votes| group.iter().all(|t| votes.contains(t)))
                {
                    return Ok(ExitResult::Done);
                }
            }
            let received = match self.recv_until(deadline).await? {
                Some(r) => r,
                None => {
                    // (Only reachable with a deadline.)
                    if is_rejoiner {
                        // A rejoiner may simply be missing votes that were
                        // broadcast while it was down; suspecting the
                        // survivors over that silence would evict threads
                        // that are perfectly alive. Give up silently.
                        self.system.stats.borrow_mut().exit_timeouts += 1;
                        self.observe(action, || EventKind::ExitTimeout { epoch });
                        return Ok(ExitResult::Evicted);
                    }
                    // Round-agnostic suspicion: presume the silent peers
                    // crashed, announce the shrunken view and keep
                    // collecting votes over it — the action concludes
                    // among the survivors instead of resolving to ƒ
                    // wholesale.
                    let suspects: Vec<ThreadId> = {
                        let frame = self.stack.last().expect("frame active");
                        let votes = frame.exit_votes.get(&epoch);
                        frame
                            .membership
                            .members()
                            .iter()
                            .copied()
                            .filter(|t| !votes.is_some_and(|v| v.contains(t)))
                            .collect()
                    };
                    if !suspects.is_empty() {
                        self.suspect_round(SuspicionRound::Exit { epoch }, &suspects)
                            .await?;
                    }
                    deadline = timeout.map(|t| self.now().saturating_add(t));
                    continue;
                }
            };
            match self.route(received)? {
                Routed::Done => {}
                Routed::Corrupted => {
                    self.system.stats.borrow_mut().corrupted_ignored += 1;
                }
                Routed::ActiveControl(msg) => match msg {
                    Message::Exception { .. } | Message::Suspended { .. } => {
                        // A peer started recovery while we were leaving:
                        // stash the trigger and join it.
                        let frame = self.stack.last_mut().expect("frame active");
                        frame.pending_control.push_back(msg);
                        return Ok(ExitResult::Recover);
                    }
                    Message::ViewChange { removed, .. } => {
                        // A peer's exit wait expired and it suspected
                        // someone — possibly us. This cannot be a missed
                        // recovery: any trigger would have arrived long
                        // before a suspicion announcement (suspicion needs
                        // a full bounded wait to expire first). Adopt the
                        // removals and keep exiting over the new view.
                        let top = self.stack.len() - 1;
                        self.adopt_removal_set(top, &removed);
                    }
                    other => {
                        return Err(RuntimeError::Protocol(format!(
                            "unexpected {} during exit",
                            other.kind()
                        ))
                        .into());
                    }
                },
            }
        }
    }

    // ------------------------------------------------------------------
    // Message routing
    // ------------------------------------------------------------------

    /// Non-blocking poll point: absorbs everything deliverable now; unwinds
    /// if recovery must take over (or a scheduled crash instant passed).
    fn poll(&mut self) -> Step {
        self.crash_check()?;
        while let Some(received) = self.endpoint.try_recv()? {
            self.absorb_or_unwind(received)?;
        }
        Ok(())
    }

    /// Routes one message during *body* execution: control messages for the
    /// active action interrupt it.
    fn absorb_or_unwind(&mut self, received: Received<Message>) -> Step {
        match self.route(received)? {
            Routed::Done => Ok(()),
            Routed::Corrupted => {
                // A corrupted message during normal computation raises the
                // action's corruption exception (Figure 7's `l_mes`).
                match self.stack.last() {
                    Some(frame) if frame.in_handler.is_none() && !frame.recovered => {
                        let e = Exception::new(frame.def.corruption_exception.clone())
                            .with_origin(self.me)
                            .with_detail("corrupted message delivered");
                        Err(Flow::new(Unwind::Raise(e)))
                    }
                    _ => {
                        self.system.stats.borrow_mut().corrupted_ignored += 1;
                        Ok(())
                    }
                }
            }
            Routed::ActiveControl(msg) => match msg {
                Message::Exception { .. }
                | Message::Suspended { .. }
                | Message::ViewChange { .. } => {
                    let frame = self.stack.last_mut().expect("active control implies frame");
                    frame.pending_control.push_back(msg);
                    Err(Flow::new(Unwind::Suspend))
                }
                other => Err(RuntimeError::Protocol(format!(
                    "unexpected {} while body running",
                    other.kind()
                ))
                .into()),
            },
        }
    }

    /// Classifies one received message relative to the action stack.
    fn route(&mut self, received: Received<Message>) -> Result<Routed, Flow> {
        let msg = match received.msg {
            Some(m) => m,
            None => return Ok(Routed::Corrupted),
        };
        let action = msg.action();
        let position = self.stack.iter().position(|f| f.action == action);
        match position {
            Some(i) if i + 1 == self.stack.len() => self.route_to_frame(i, msg, true),
            Some(i) => self.route_to_frame(i, msg, false),
            None => {
                if !self.finished.contains(&action.serial()) && self.retained.len() < RETAINED_CAP {
                    // For an action this thread has not entered yet:
                    // "retain the Exception or Suspended message till Ti
                    // enters A*". (Messages for instances this thread will
                    // never enter — abandoned by recovery at a peer — stay
                    // here harmlessly until the cap evicts them.)
                    self.retained.push(msg);
                } // else: straggler of a finished/aborted instance; drop.
                Ok(Routed::Done)
            }
        }
    }

    fn route_to_frame(&mut self, index: usize, msg: Message, is_top: bool) -> Result<Routed, Flow> {
        let target = self.stack[index].action;
        if !matches!(msg, Message::App { .. }) {
            // Protocol traffic proves the sender advanced this instance's
            // protocol: liveness evidence for the eviction quorum gate.
            self.stack[index].heard_from.insert(msg.from());
        }
        match msg {
            Message::Exception { .. } | Message::Suspended { .. } => {
                if self.stack[index].recovered || self.stack[index].aborting {
                    // Straggler after commit/abort: the termination model
                    // admits nothing new once handlers started.
                    return Ok(Routed::Done);
                }
                if is_top {
                    Ok(Routed::ActiveControl(msg))
                } else {
                    // Recovery at an enclosing action: stash the trigger
                    // there and unwind, aborting nested frames on the way.
                    self.stack[index].pending_control.push_back(msg);
                    Err(Flow::new(Unwind::Outer { target, eab: None }))
                }
            }
            Message::ViewChange { ref removed, .. } => {
                if self.stack[index].aborting {
                    return Ok(Routed::Done);
                }
                // Announcements from threads this view already removed are
                // adopted like any other: in a symmetric mutual-eviction
                // race (both sides time out within one message latency and
                // evict each other) mutual adoption collapses both views
                // into one removal set covering both announcers — each side
                // observes its own eviction and steps aside consistently.
                // The asymmetric case (a partitioned minority counter-
                // evicting a recently-alive majority) never reaches this
                // point: the eviction quorum gate refuses the suspicion on
                // the announcer's side before anything is broadcast.
                if self.stack[index].recovered {
                    // Post-recovery suspicion from a peer's signalling or
                    // exit wait (set-wise: already-known removals are
                    // no-ops): adopt without disturbing whatever round
                    // this frame is in — the rounds re-derive their group
                    // from the view each pass.
                    let removed: Vec<ThreadId> = removed.to_vec();
                    self.adopt_removal_set(index, &removed);
                    return Ok(Routed::Done);
                }
                if is_top {
                    Ok(Routed::ActiveControl(msg))
                } else {
                    // A view change for a not-yet-recovered enclosing
                    // action: recovery is (or will be) running there.
                    self.stack[index].pending_control.push_back(msg);
                    Err(Flow::new(Unwind::Outer { target, eab: None }))
                }
            }
            Message::Commit { .. } | Message::Resolve { .. } => {
                // A commit may race with an enclosing-level trigger that is
                // aborting this frame: the nested resolution completed at a
                // peer while this thread had already abandoned it (§3.3.1
                // gives the enclosing recovery precedence).
                if self.stack[index].recovered || self.stack[index].aborting {
                    return Ok(Routed::Done);
                }
                if is_top {
                    Ok(Routed::ActiveControl(msg))
                } else {
                    Err(RuntimeError::Protocol(
                        "resolution message received for enclosing action while nested".into(),
                    )
                    .into())
                }
            }
            Message::ToBeSignalled {
                from,
                round,
                signal,
                ..
            } => {
                self.stack[index].signals.insert((round, from), signal);
                Ok(Routed::Done)
            }
            Message::ExitVote { from, epoch, .. } => {
                self.stack[index]
                    .exit_votes
                    .entry(epoch)
                    .or_default()
                    .insert(from);
                Ok(Routed::Done)
            }
            Message::JoinRequest { from, .. } => {
                if self.stack[index].aborting || self.stack[index].evicted {
                    // Nothing worth granting: this frame's view is moot.
                    return Ok(Routed::Done);
                }
                if self.stack[index].cohort.is_some() {
                    // Mid-recovery: the view must not grow while
                    // resolution or signalling ranges over it. Granted
                    // when the recovery's exit epoch opens.
                    self.stack[index].pending_join_requests.push(from);
                } else {
                    self.grant_join(index, from);
                }
                Ok(Routed::Done)
            }
            Message::JoinGrant { .. } => {
                // Grants are addressed to the requester and consumed in
                // `Ctx::rejoin`'s own receive loop; one landing here is a
                // duplicate from an additional granter, arriving after the
                // first grant already readmitted us.
                Ok(Routed::Done)
            }
            Message::App {
                from, tag, payload, ..
            } => {
                self.stack[index]
                    .app_inbox
                    .push_back(AppMsg { from, tag, payload });
                Ok(Routed::Done)
            }
        }
    }

    /// Called by the system when the thread body finishes: release the
    /// endpoint.
    pub(crate) fn shutdown(self) {
        self.endpoint.retire();
    }
}

/// Owned version of [`ProtoEvent`] for queueing.
enum ProtoEventKind {
    Raise(Exception),
    Suspend,
    Control(Message),
}

enum ExitResult {
    Done,
    Recover,
    /// This thread is no longer part of the view — a peer's (wrong)
    /// suspicion removed it, or a rejoiner gave up on votes it can never
    /// collect. The caller finalizes as `Failed` without further rounds.
    Evicted,
}
