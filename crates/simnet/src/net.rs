//! The simulated message-passing network and its virtual-time executor.
//!
//! The paper's prototype runs each participating thread in its own Ada 95
//! partition on top of "a simple, and hence portable, subsystem for message
//! passing … messages are first kept in the cyclic buffer of the receiver
//! and then processed afterwards" (§5.1). [`Network`] reproduces that
//! substrate in-process:
//!
//! * each participant registers an [`Endpoint`] (one per partition);
//! * sends are asynchronous; per-link delivery is FIFO (Assumption 2) and
//!   reliable unless a [`FaultPlan`] injects losses or corruption;
//! * latencies come from a deterministic [`LatencyModel`], optionally
//!   inflated by the acknowledgment-timeout retransmission model;
//! * the network doubles as a conservative virtual-time executor: each
//!   partition's program is a [`Future`] bound to its endpoint
//!   ([`Network::spawn`]), and [`Network::run`] polls them on the calling
//!   thread. Virtual time advances only when no task is ready, directly to
//!   the earliest wake-up point. A global block with no wake-up point is a
//!   genuine deadlock and is reported as [`SimError::Deadlock`] to every
//!   participant — the property Theorem 1 says the resolution algorithm
//!   never triggers.
//!
//! # Scheduling
//!
//! The blocking endpoint operations ([`Endpoint::recv`],
//! [`Endpoint::recv_deadline`], [`Endpoint::park_wait_until`],
//! [`Endpoint::sleep`]) are futures. Polled, each evaluates its predicate
//! against the endpoint's mailbox at the current instant; when it does not
//! hold, the endpoint records what it is blocked on and the earliest
//! instant its predicate could hold (its *wake-up point*), and the task
//! suspends. Tasks become ready again in a deterministic order: a delivery
//! readies only its (already-deliverable) receiver, a doorbell only its
//! owner, and a time advance the endpoints whose wake-up point was reached,
//! in partition order. A task that blocks while no other task is ready
//! advances the clock itself and carries on without suspending when it is
//! the next to wake — the suspension would only hand control straight
//! back to it.
//!
//! # Arena reuse
//!
//! Sweep drivers execute thousands of sub-millisecond simulations; a
//! [`NetArena`] recycles the allocation-heavy parts (endpoint slots with
//! their delivery heaps and link rows) from one finished network into the
//! next (see [`Network::new_reusing`] / [`Network::reclaim`]). Reuse is
//! invisible to the simulation: recycled state is fully cleared.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use caa_core::ids::PartitionId;
use caa_core::time::{VirtualDuration, VirtualInstant};

use crate::fault::FaultPlan;
use crate::latency::{effective_latency, LatencyModel};
use crate::stats::{Classify, NetStats};
use crate::tap::{NetTap, TapEvent};

/// Configuration for a [`Network`].
#[derive(Clone, Default)]
pub struct NetConfig {
    /// Per-message latency model (the paper's `Tmmax` lives here).
    pub latency: LatencyModel,
    /// Seed for deterministic latency sampling.
    pub seed: u64,
    /// Acknowledgment timeout; latencies beyond it trigger retransmissions
    /// (models the >1 s knee of Figure 10). `None` disables the model.
    pub ack_timeout: Option<VirtualDuration>,
    /// Scheduled message losses and corruptions.
    pub faults: FaultPlan,
    /// Observation hook for sends, losses and corruptions (see
    /// [`NetTap`]).
    pub tap: Option<Arc<dyn NetTap>>,
}

impl fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetConfig")
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("ack_timeout", &self.ack_timeout)
            .field("faults", &self.faults)
            .field("tap", &self.tap.as_ref().map(|_| "<tap>"))
            .finish()
    }
}

/// Why a blocking network operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Every live endpoint is blocked with no pending wake-up: the system
    /// can never make progress again.
    Deadlock(DeadlockInfo),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(info) => write!(f, "simulation deadlock: {info}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic snapshot taken when a deadlock is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Virtual time at which the deadlock occurred.
    pub at: VirtualInstant,
    /// The blocked endpoints: `(name, what they were blocked on)`.
    pub blocked: Vec<(String, &'static str)>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}, all endpoints blocked:", self.at)?;
        for (name, kind) in &self.blocked {
            write!(f, " {name}({kind})")?;
        }
        Ok(())
    }
}

/// A message as delivered to a receiver.
#[derive(Debug)]
pub struct Received<M> {
    /// The sending partition.
    pub src: PartitionId,
    /// When the message was sent.
    pub sent_at: VirtualInstant,
    /// When the message became available to the receiver.
    pub delivered_at: VirtualInstant,
    /// The payload, or `None` if fault injection corrupted the message in
    /// transit (§3.4 treats corrupted messages as the failure exception).
    pub msg: Option<M>,
}

impl<M> Received<M> {
    /// Whether the message was corrupted in transit.
    #[must_use]
    pub fn is_corrupted(&self) -> bool {
        self.msg.is_none()
    }
}

/// What ended an [`Endpoint::park_wait`].
#[derive(Debug)]
pub enum Parked<M> {
    /// A message became deliverable (always reported before a same-instant
    /// doorbell, so parked waiters drain their inbox first).
    Msg(Received<M>),
    /// The endpoint's doorbell rang: virtual time reached the instant a
    /// peer (or the endpoint itself) scheduled with
    /// [`Network::schedule_wake`] for the current wait epoch
    /// ([`Endpoint::begin_wait`]). The doorbell is consumed.
    Doorbell,
    /// The caller-supplied deadline of [`Endpoint::park_wait_until`] was
    /// reached (with no message and no doorbell due at the same instant).
    /// The doorbell — which belongs to the wait's scheduler, e.g. an
    /// object arbitration — is left untouched.
    Deadline,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Recv,
    Sleep,
    /// [`Endpoint::park_wait`]: blocked until a message is deliverable or
    /// the endpoint's doorbell rings (see [`Network::schedule_wake`]).
    Park,
}

impl BlockKind {
    fn label(self) -> &'static str {
        match self {
            BlockKind::Recv => "recv",
            BlockKind::Sleep => "sleep",
            BlockKind::Park => "park",
        }
    }

    /// Whether an endpoint blocked this way re-evaluates its predicate
    /// when a message becomes deliverable.
    fn receives_messages(self) -> bool {
        matches!(self, BlockKind::Recv | BlockKind::Park)
    }
}

struct Envelope<M> {
    deliver_at: VirtualInstant,
    src: PartitionId,
    seq: u64,
    sent_at: VirtualInstant,
    msg: Option<M>,
}

impl<M> Envelope<M> {
    fn key(&self) -> (VirtualInstant, u32, u64) {
        (self.deliver_at, self.src.as_u32(), self.seq)
    }
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Envelope<M> {}
impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[derive(Default, Clone, Copy)]
struct LinkState {
    seq: u64,
    last_delivery: VirtualInstant,
}

/// One endpoint: its scheduling state plus its receive side — the
/// delivery heap and the dense per-source link row (`links_in[src]` is the
/// `(src → this)` cell of the network's link matrix).
struct Actor<M> {
    name: Arc<str>,
    alive: bool,
    /// What the endpoint's task is suspended on; `None` while it runs (or
    /// before its first wait).
    blocked: Option<BlockKind>,
    /// The earliest instant the blocked predicate could hold (`None` =
    /// only a message or a doorbell can help).
    wake_at: Option<VirtualInstant>,
    /// Queued in the executor's ready queue.
    ready: bool,
    /// Pending explicit wake-up, if any ([`Network::schedule_wake`]):
    /// consumed by [`Endpoint::park_wait`] when virtual time reaches it.
    doorbell: Option<VirtualInstant>,
    /// Monotonic counter identifying the endpoint's *current* parked wait
    /// ([`Endpoint::begin_wait`]). [`Network::schedule_wake`] carries the
    /// epoch its computation was based on and is ignored when it does not
    /// match — a scheduler that computed a wake-up against an earlier wait
    /// (e.g. an object releaser whose winner was cancelled and has since
    /// started waiting elsewhere) cannot plant a stale doorbell into the
    /// new wait.
    wait_epoch: u64,
    queue: BinaryHeap<Reverse<Envelope<M>>>,
    links_in: Vec<LinkState>,
}

impl<M> Actor<M> {
    fn empty() -> Actor<M> {
        Actor {
            name: Arc::from(""),
            alive: false,
            blocked: None,
            wake_at: None,
            ready: false,
            doorbell: None,
            wait_epoch: 0,
            queue: BinaryHeap::new(),
            links_in: Vec::new(),
        }
    }

    /// Clears the slot for (re)use, keeping heap and row capacity.
    fn reset(&mut self, name: Arc<str>) {
        self.name = name;
        self.alive = true;
        self.blocked = None;
        self.wake_at = None;
        self.ready = false;
        self.doorbell = None;
        self.wait_epoch = 0;
        self.queue.clear();
        self.links_in.clear();
    }

    /// The `(src → this)` link cell, grown on demand (dense by source
    /// index; sources register before they can send, so the row length is
    /// bounded by the endpoint count).
    fn link(&mut self, src: PartitionId) -> &mut LinkState {
        let i = src.index();
        if self.links_in.len() <= i {
            self.links_in.resize(i + 1, LinkState::default());
        }
        &mut self.links_in[i]
    }

    fn pop_ready(&mut self, now: VirtualInstant) -> Option<Received<M>> {
        if self
            .queue
            .peek()
            .is_some_and(|Reverse(env)| env.deliver_at <= now)
        {
            let Reverse(env) = self.queue.pop().expect("peeked");
            Some(Received {
                src: env.src,
                sent_at: env.sent_at,
                delivered_at: env.deliver_at,
                msg: env.msg,
            })
        } else {
            None
        }
    }

    fn head_deliver_at(&self) -> Option<VirtualInstant> {
        self.queue.peek().map(|Reverse(env)| env.deliver_at)
    }

    fn retire(&mut self) {
        self.alive = false;
        self.blocked = None;
        self.queue.clear();
    }
}

/// The earlier of two optional instants (`None` = no bound).
fn earliest(a: Option<VirtualInstant>, b: Option<VirtualInstant>) -> Option<VirtualInstant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Executor counters: task suspensions and wake-ups. One `park` is one
/// task poll that returned `Pending`; one `wake` is one suspended task
/// made ready again (by a delivery, a doorbell, a time advance or the
/// deadlock broadcast). Both are pure functions of the simulated run, so
/// identical seeds report identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Task polls that returned `Pending`.
    pub parks: u64,
    /// Suspended tasks made ready.
    pub wakes: u64,
}

/// Recycled allocations of a finished [`Network`]: endpoint slots with
/// their delivery-heap and link-row capacity. Obtained from
/// [`Network::reclaim`], consumed by [`Network::new_reusing`]. Purely an
/// allocation cache — a network built from an arena is observably
/// identical to a fresh one.
pub struct NetArena<M> {
    slots: Vec<Actor<M>>,
}

impl<M> NetArena<M> {
    /// An empty arena (equivalent to passing `None` to
    /// [`Network::new_reusing`]).
    #[must_use]
    pub fn new() -> NetArena<M> {
        NetArena { slots: Vec::new() }
    }

    /// How many endpoint slots the arena currently caches.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<M> Default for NetArena<M> {
    fn default() -> Self {
        NetArena::new()
    }
}

impl<M> fmt::Debug for NetArena<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetArena")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// A spawned partition program.
type Task = Pin<Box<dyn Future<Output = ()>>>;

/// A panic payload caught while polling a task, with the task's endpoint.
pub type TaskPanic = (PartitionId, Box<dyn Any + Send>);

/// Clock, endpoints, counters and the ready queue.
struct State<M> {
    now: VirtualInstant,
    actors: Vec<Actor<M>>,
    /// Recycled slots handed out by [`Network::endpoint`] before any fresh
    /// allocation (see [`NetArena`]).
    spare: Vec<Actor<M>>,
    ready: VecDeque<usize>,
    stats: NetStats,
    sched: SchedStats,
    faults: FaultPlan,
    deadlocked: Option<DeadlockInfo>,
}

impl<M> State<M> {
    /// Queues endpoint `i`'s task unless it is already queued.
    fn make_ready(&mut self, i: usize) {
        let actor = &mut self.actors[i];
        if !actor.ready {
            actor.ready = true;
            self.ready.push_back(i);
            self.sched.wakes += 1;
        }
    }

    /// The conservative time-advance rule, applied when no task is ready:
    /// advance the clock to the earliest wake-up point among the blocked
    /// endpoints and ready exactly those whose point was reached, in
    /// partition order — or, with no wake-up point anywhere, declare
    /// deadlock and ready every blocked endpoint to report it. `me` is the
    /// endpoint asking, if any: it is not queued, and the result says
    /// whether it must re-evaluate its predicate.
    fn advance(&mut self, me: Option<usize>) -> bool {
        if !self.ready.is_empty() || self.deadlocked.is_some() {
            return false;
        }
        let blocked = |a: &Actor<M>| a.alive && a.blocked.is_some();
        let min_wake = self
            .actors
            .iter()
            .filter(|a| blocked(a))
            .filter_map(|a| a.wake_at)
            .min();
        match min_wake {
            Some(t) => self.now = t,
            None if self.actors.iter().any(blocked) => {
                self.deadlocked = Some(DeadlockInfo {
                    at: self.now,
                    blocked: self
                        .actors
                        .iter()
                        .filter(|a| a.alive)
                        .map(|a| {
                            (
                                a.name.to_string(),
                                a.blocked.map_or("idle", BlockKind::label),
                            )
                        })
                        .collect(),
                });
            }
            None => return false,
        }
        let mut me_woken = false;
        for i in 0..self.actors.len() {
            let actor = &self.actors[i];
            let due = min_wake.is_none_or(|t| actor.wake_at.is_some_and(|w| w <= t));
            if !blocked(actor) || !due {
                continue;
            }
            if me == Some(i) {
                me_woken = true;
            } else {
                self.make_ready(i);
            }
        }
        me_woken
    }
}

struct Shared<M> {
    state: RefCell<State<M>>,
    /// One slot per endpoint: its spawned program, taken out while polled.
    tasks: RefCell<Vec<Option<Task>>>,
    latency: LatencyModel,
    seed: u64,
    ack_timeout: Option<VirtualDuration>,
    tap: Option<Arc<dyn NetTap>>,
}

/// The simulated network and its virtual-time executor.
///
/// Cheap to clone; all clones share state. A network and its endpoints
/// live on one thread: [`Network::run`] polls every spawned task there.
///
/// # Examples
///
/// ```
/// use caa_simnet::{Network, NetConfig, Classify};
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Classify for Ping {
///     fn class(&self) -> &'static str { "Ping" }
/// }
///
/// let net: Network<Ping> = Network::new(NetConfig::default());
/// let a = net.endpoint("a");
/// let mut b = net.endpoint("b");
/// let b_id = b.id();
///
/// let got = std::rc::Rc::new(std::cell::Cell::new(0));
/// let seen = std::rc::Rc::clone(&got);
/// net.spawn(b_id, async move {
///     let received = b.recv().await.expect("no deadlock");
///     seen.set(received.msg.expect("not corrupted").0);
/// });
/// a.send(b_id, Ping(7));
/// a.retire();
/// assert!(net.run().is_empty(), "no task panicked");
/// assert_eq!(got.get(), 7);
/// # assert_eq!(net.stats().sent("Ping"), 1);
/// ```
pub struct Network<M> {
    shared: Rc<Shared<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.state.borrow();
        f.debug_struct("Network")
            .field("now", &state.now)
            .field("endpoints", &state.actors.len())
            .finish()
    }
}

impl<M: Classify + 'static> Network<M> {
    /// Creates a network with the given configuration.
    #[must_use]
    pub fn new(config: NetConfig) -> Self {
        Network::new_reusing(config, None)
    }

    /// [`Network::new`], recycling the allocations of a previously
    /// [`reclaim`](Network::reclaim)ed network. The arena is an allocation
    /// cache only: the new network starts from a fully cleared state and
    /// behaves byte-identically to a fresh one.
    #[must_use]
    pub fn new_reusing(config: NetConfig, arena: Option<NetArena<M>>) -> Self {
        let arena = arena.unwrap_or_default();
        Network {
            shared: Rc::new(Shared {
                state: RefCell::new(State {
                    now: VirtualInstant::EPOCH,
                    actors: Vec::new(),
                    spare: arena.slots,
                    ready: VecDeque::new(),
                    stats: NetStats::default(),
                    sched: SchedStats::default(),
                    faults: config.faults,
                    deadlocked: None,
                }),
                tasks: RefCell::new(Vec::new()),
                latency: config.latency,
                seed: config.seed,
                ack_timeout: config.ack_timeout,
                tap: config.tap,
            }),
        }
    }

    /// Takes the network apart and recycles its allocations into a
    /// [`NetArena`] for the next [`Network::new_reusing`]. Returns `None`
    /// when other clones of the network (or live endpoints) still exist —
    /// reclamation requires sole ownership, so it is safe to call
    /// opportunistically after every run.
    #[must_use]
    pub fn reclaim(self) -> Option<NetArena<M>> {
        let shared = Rc::try_unwrap(self.shared).ok()?;
        let state = shared.state.into_inner();
        let mut slots = state.actors;
        slots.extend(state.spare);
        Some(NetArena { slots })
    }

    /// Registers a new endpoint (one partition / participating thread).
    /// Endpoint ids are assigned in registration order.
    pub fn endpoint(&self, name: impl Into<Arc<str>>) -> Endpoint<M> {
        let mut state = self.shared.state.borrow_mut();
        let id =
            PartitionId::new(u32::try_from(state.actors.len()).expect("fewer than 2^32 endpoints"));
        let mut actor = state.spare.pop().unwrap_or_else(Actor::empty);
        actor.reset(name.into());
        state.actors.push(actor);
        Endpoint {
            net: self.clone(),
            id,
        }
    }

    /// Binds `task` — the program of the partition behind endpoint `id`,
    /// which it normally owns — to the executor. The task is ready at once
    /// and first polled by [`Network::run`]. It may await only this
    /// network's endpoint operations: they are what readies it again.
    ///
    /// # Panics
    ///
    /// If `id` was never registered or already has a task.
    pub fn spawn(&self, id: PartitionId, task: impl Future<Output = ()> + 'static) {
        let i = id.index();
        let mut tasks = self.shared.tasks.borrow_mut();
        if tasks.len() <= i {
            tasks.resize_with(i + 1, || None);
        }
        assert!(tasks[i].is_none(), "endpoint {id} already has a task");
        tasks[i] = Some(Box::pin(task));
        let mut state = self.shared.state.borrow_mut();
        assert!(i < state.actors.len(), "endpoint {id} is not registered");
        state.actors[i].ready = true;
        state.ready.push_back(i);
    }

    /// Polls the spawned tasks on the calling thread until none is left:
    /// ready tasks in the order they became ready, and — whenever none is
    /// ready — the conservative time-advance rule (advance to the earliest
    /// wake-up point, or declare deadlock and ready every blocked task).
    ///
    /// A task that panics is dropped (retiring the endpoint it owns) and
    /// its panic payload returned; the others run on.
    #[must_use = "a task panic is only reported through the returned list"]
    pub fn run(&self) -> Vec<TaskPanic> {
        let mut cx = Context::from_waker(Waker::noop());
        let mut panics = Vec::new();
        loop {
            let next = {
                let mut state = self.shared.state.borrow_mut();
                if state.ready.is_empty() {
                    state.advance(None);
                }
                state
                    .ready
                    .pop_front()
                    .inspect(|&i| state.actors[i].ready = false)
            };
            let Some(i) = next else { break };
            let Some(mut task) = self.shared.tasks.borrow_mut()[i].take() else {
                continue;
            };
            match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                Ok(Poll::Ready(())) => {}
                Ok(Poll::Pending) => {
                    self.shared.state.borrow_mut().sched.parks += 1;
                    self.shared.tasks.borrow_mut()[i] = Some(task);
                }
                Err(payload) => panics.push((PartitionId::new(i as u32), payload)),
            }
        }
        // A task left here awaits something other than the network and can
        // never be readied again; dropping it retires its endpoint.
        let stranded: Vec<Task> = self.shared.tasks.borrow_mut().drain(..).flatten().collect();
        drop(stranded);
        panics
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.shared.state.borrow().now
    }

    /// Snapshot of the message counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.state.borrow().stats.clone()
    }

    /// Snapshot of the executor's park/wake counters (see [`SchedStats`]).
    #[must_use]
    pub fn sched_stats(&self) -> SchedStats {
        self.shared.state.borrow().sched
    }

    fn send_from(&self, src: PartitionId, dst: PartitionId, msg: M) {
        let class = msg.class();
        let correlation = msg.correlation();
        let shared = &*self.shared;
        let mut guard = shared.state.borrow_mut();
        let state = &mut *guard;
        let now = state.now;

        let lost = state.faults.should_lose(src, dst, class);
        let corrupted = !lost && state.faults.should_corrupt(src, dst, class);

        let (seq, deliver_at) = match state.actors.get_mut(dst.index()) {
            // Destination never registered: nothing to deliver to and no
            // link row to book a per-link sequence on (ids normally only
            // come from registration, so this needs a hand-built
            // `PartitionId`). The message was still *accepted* — count it
            // and surface it to the tap like a datagram to a dead host,
            // with the link sequence pinned to 0.
            None => (0, now),
            Some(receiver) => {
                // A lost message still occupies its slot in the per-link
                // sequence, so tap consumers see a unique (src, dst, seq)
                // per message whether it was delivered or lost.
                let alive = receiver.alive;
                let link = receiver.link(src);
                let seq = link.seq;
                link.seq += 1;
                if lost {
                    (seq, now)
                } else {
                    let raw = shared.latency.sample(shared.seed, src, dst, seq);
                    let eff = effective_latency(raw, shared.ack_timeout);
                    let mut deliver_at = now.saturating_add(eff);
                    // Per-link FIFO (Assumption 2): never deliver before an
                    // earlier message on the same link.
                    if deliver_at <= link.last_delivery {
                        deliver_at = link
                            .last_delivery
                            .saturating_add(VirtualDuration::from_nanos(1));
                    }
                    link.last_delivery = deliver_at;
                    if eff > raw && !raw.is_zero() {
                        state.stats.record_retransmissions(
                            eff.as_nanos().saturating_sub(raw.as_nanos()) / raw.as_nanos().max(1),
                        );
                    }
                    // A message to a retired endpoint is lost like a
                    // datagram to a dead host — but it was accepted, so
                    // counters and tap still see it.
                    if alive {
                        receiver.queue.push(Reverse(Envelope {
                            deliver_at,
                            src,
                            seq,
                            sent_at: now,
                            msg: (!corrupted).then_some(msg),
                        }));
                        // A receiver blocked on messages learns when it
                        // becomes wakeable, and is readied (alone) if the
                        // message is deliverable already. A message still
                        // in flight needs no wake-up: only a time advance
                        // can make it deliverable.
                        if receiver.blocked.is_some_and(BlockKind::receives_messages) {
                            receiver.wake_at = earliest(receiver.wake_at, Some(deliver_at));
                            if deliver_at <= now {
                                state.make_ready(dst.index());
                            }
                        }
                    }
                    (seq, deliver_at)
                }
            }
        };
        if lost {
            state.stats.record_dropped(class);
        } else {
            state.stats.record_sent(class);
            if corrupted {
                state.stats.record_corrupted(class);
            }
        }
        drop(guard);
        if let Some(tap) = &shared.tap {
            let event = TapEvent {
                src,
                dst,
                class,
                correlation,
                at: now,
                deliver_at,
                seq,
            };
            if lost {
                tap.on_dropped(&event);
            } else {
                tap.on_sent(&event);
                if corrupted {
                    tap.on_corrupted(&event);
                }
            }
        }
    }

    /// Rings endpoint `id`'s doorbell at virtual instant `at`, replacing
    /// any pending doorbell: the endpoint's next (or current)
    /// [`Endpoint::park_wait`] returns [`Parked::Doorbell`] once virtual
    /// time reaches `at`.
    ///
    /// This is the targeted-wake hook for *wait-condition* scheduling
    /// above the network (the runtime's wake-on-release object
    /// arbitration): the component that knows when a parked task's wait
    /// condition can next hold schedules exactly that task, instead of
    /// every waiter polling on a timer. Overwrite semantics are
    /// deliberate — the scheduler recomputes the wake-up on every state
    /// change, and the latest computation supersedes earlier ones.
    ///
    /// `epoch` must be the wait epoch the computation was based on (the
    /// value of [`Endpoint::begin_wait`] that the target published to the
    /// scheduler, e.g. in an object's waiter entry). A mismatch means the
    /// targeted wait has since ended — the doorbell would be stale, and
    /// is dropped. Unknown or retired endpoints are ignored too.
    pub fn schedule_wake(&self, id: PartitionId, at: VirtualInstant, epoch: u64) {
        let mut state = self.shared.state.borrow_mut();
        let now = state.now;
        let Some(actor) = state.actors.get_mut(id.index()) else {
            return;
        };
        if !actor.alive || actor.wait_epoch != epoch {
            return; // retired, or stale: computed against a finished wait
        }
        actor.doorbell = Some(at);
        if actor.blocked == Some(BlockKind::Park) {
            // Re-derive the park's wake hint (min of next delivery and the
            // new doorbell); ready the owner only if the bell is already
            // due — a time advance rings future bells at `at`.
            actor.wake_at = earliest(actor.head_deliver_at(), Some(at));
            if at <= now {
                state.make_ready(id.index());
            }
        }
    }

    /// Core blocking primitive, one poll of it: evaluates `pred` against
    /// endpoint `id` at the current instant. When it does not hold, the
    /// endpoint records `kind` and the wake-up point `wake_hint` computes
    /// (the earliest instant `pred` could hold; `None` = only a message or
    /// a doorbell can help). If no other task is ready, the caller applies
    /// the time-advance rule itself and re-evaluates when it is the next
    /// to wake; otherwise it suspends.
    fn poll_block<T>(
        &self,
        id: PartitionId,
        kind: BlockKind,
        pred: &mut impl FnMut(&mut Actor<M>, VirtualInstant) -> Option<T>,
        wake_hint: &mut impl FnMut(&Actor<M>) -> Option<VirtualInstant>,
    ) -> Poll<Result<T, SimError>> {
        let i = id.index();
        let mut state = self.shared.state.borrow_mut();
        loop {
            if let Some(info) = &state.deadlocked {
                let err = SimError::Deadlock(info.clone());
                state.actors[i].blocked = None;
                return Poll::Ready(Err(err));
            }
            let now = state.now;
            let actor = &mut state.actors[i];
            if let Some(v) = pred(actor, now) {
                actor.blocked = None;
                return Poll::Ready(Ok(v));
            }
            actor.blocked = Some(kind);
            actor.wake_at = wake_hint(actor);
            if !state.advance(Some(i)) {
                return Poll::Pending;
            }
        }
    }
}

/// One participant's connection to the [`Network`] — the paper's partition.
///
/// Sending is `&self`; receiving is `&mut self` (an endpoint has a single
/// consumer: its partition's task). Dropping the endpoint retires it.
pub struct Endpoint<M> {
    net: Network<M>,
    id: PartitionId,
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl<M: Classify + 'static> Endpoint<M> {
    /// This endpoint's partition id.
    #[must_use]
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The network this endpoint belongs to.
    #[must_use]
    pub fn network(&self) -> &Network<M> {
        &self.net
    }

    /// Current (virtual) time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.net.now()
    }

    /// Sends `msg` to `dst` asynchronously (fire and forget, like the
    /// paper's "asynchronous remote procedure calls (without out
    /// parameters)").
    pub fn send(&self, dst: PartitionId, msg: M) {
        self.net.send_from(self.id, dst, msg);
    }

    /// Receives the next message, waiting until one is deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub async fn recv(&mut self) -> Result<Received<M>, SimError> {
        let (net, id) = (&self.net, self.id);
        let mut pred = |actor: &mut Actor<M>, now| actor.pop_ready(now);
        let mut hint = |actor: &Actor<M>| actor.head_deliver_at();
        poll_fn(|_| net.poll_block(id, BlockKind::Recv, &mut pred, &mut hint)).await
    }

    /// Receives the next message if one is already deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation already deadlocked.
    pub fn try_recv(&mut self) -> Result<Option<Received<M>>, SimError> {
        let mut state = self.net.shared.state.borrow_mut();
        if let Some(info) = &state.deadlocked {
            return Err(SimError::Deadlock(info.clone()));
        }
        let now = state.now;
        Ok(state.actors[self.id.index()].pop_ready(now))
    }

    /// Receives the next message, waiting at most `timeout`.
    ///
    /// Returns `Ok(None)` on timeout — the hook the runtime uses to treat
    /// lost messages as the failure exception (§3.4).
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub async fn recv_timeout(
        &mut self,
        timeout: VirtualDuration,
    ) -> Result<Option<Received<M>>, SimError> {
        let deadline = self.now().saturating_add(timeout);
        self.recv_deadline(deadline).await
    }

    /// [`Endpoint::recv_timeout`] with an absolute instant instead of a
    /// duration, so per-round protocol waits (the §3.4 signalling timeout, the
    /// bounded exit wait, the membership extension's bounded resolution
    /// wait) can share one deadline across many receive calls.
    ///
    /// Returns `Ok(None)` once virtual time reaches `deadline` with
    /// nothing deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub async fn recv_deadline(
        &mut self,
        deadline: VirtualInstant,
    ) -> Result<Option<Received<M>>, SimError> {
        let (net, id) = (&self.net, self.id);
        let mut pred = |actor: &mut Actor<M>, now| match actor.pop_ready(now) {
            Some(r) => Some(Some(r)),
            None if now >= deadline => Some(None),
            None => None,
        };
        let mut hint = |actor: &Actor<M>| earliest(actor.head_deliver_at(), Some(deadline));
        poll_fn(|_| net.poll_block(id, BlockKind::Recv, &mut pred, &mut hint)).await
    }

    /// Parks until a message becomes deliverable or this endpoint's
    /// doorbell rings — the wait-condition-driven counterpart of polling
    /// with [`Endpoint::recv_deadline`]. While parked, the endpoint
    /// contributes no wake-up point beyond its doorbell (if set) and its
    /// next delivery (if any): a waiter whose condition can only be
    /// enabled by *another* task parks unboundedly and is woken by a
    /// targeted [`Network::schedule_wake`] from whoever enables it.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress — which also covers waits nobody will ever enable (a
    /// wait-for cycle).
    pub async fn park_wait(&mut self) -> Result<Parked<M>, SimError> {
        self.park_wait_until(None).await
    }

    /// Like [`Endpoint::park_wait`], but additionally wakes with
    /// [`Parked::Deadline`] once virtual time reaches `deadline` (when one
    /// is given). The deadline is independent of the doorbell: it belongs
    /// to the *caller* (e.g. a scheduled crash-stop instant bounding an
    /// object-acquisition wait), while the doorbell belongs to whatever
    /// scheduler the wait's epoch was published to — a deadline wake-up
    /// neither consumes nor reorders pending doorbells, and a message or
    /// doorbell due at the same instant is reported first.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub async fn park_wait_until(
        &mut self,
        deadline: Option<VirtualInstant>,
    ) -> Result<Parked<M>, SimError> {
        let (net, id) = (&self.net, self.id);
        let mut pred = |actor: &mut Actor<M>, now| {
            if let Some(received) = actor.pop_ready(now) {
                return Some(Parked::Msg(received));
            }
            if actor.doorbell.is_some_and(|at| at <= now) {
                actor.doorbell = None;
                return Some(Parked::Doorbell);
            }
            deadline
                .is_some_and(|at| at <= now)
                .then_some(Parked::Deadline)
        };
        let mut hint = |actor: &Actor<M>| {
            earliest(earliest(actor.head_deliver_at(), actor.doorbell), deadline)
        };
        poll_fn(|_| net.poll_block(id, BlockKind::Park, &mut pred, &mut hint)).await
    }

    /// Opens a new parked wait: discards any doorbell left over from an
    /// earlier wait and returns the wait's fresh epoch. Publish the epoch
    /// to whichever scheduler will compute this wait's wake-ups (e.g. an
    /// object's waiter queue); [`Network::schedule_wake`] calls carrying
    /// an older epoch are ignored from this point on, so a scheduler that
    /// computed against the end of the previous wait cannot ring a stale
    /// bell into this one.
    pub fn begin_wait(&self) -> u64 {
        let mut state = self.net.shared.state.borrow_mut();
        let actor = &mut state.actors[self.id.index()];
        actor.doorbell = None;
        actor.wait_epoch += 1;
        actor.wait_epoch
    }

    /// Sleeps for `dur` — models local computation taking virtual time.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation deadlocked while sleeping.
    pub async fn sleep(&self, dur: VirtualDuration) -> Result<(), SimError> {
        if dur.is_zero() {
            return Ok(());
        }
        let (net, id) = (&self.net, self.id);
        let deadline = net.now().saturating_add(dur);
        let mut pred = |_: &mut Actor<M>, now| (now >= deadline).then_some(());
        let mut hint = |_: &Actor<M>| Some(deadline);
        poll_fn(|_| net.poll_block(id, BlockKind::Sleep, &mut pred, &mut hint)).await
    }

    /// Retires the endpoint: the executor stops waiting for this
    /// participant and undelivered messages to it are discarded.
    pub fn retire(self) {
        drop(self);
    }
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        self.net.shared.state.borrow_mut().actors[self.id.index()].retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::time::secs;
    use std::cell::RefCell;

    #[derive(Debug, PartialEq)]
    struct Msg(u64);
    impl Classify for Msg {
        fn class(&self) -> &'static str {
            "Msg"
        }
    }

    fn virtual_net(latency: LatencyModel) -> Network<Msg> {
        Network::new(NetConfig {
            latency,
            seed: 42,
            ..NetConfig::default()
        })
    }

    /// Spawns `program` on `endpoint`'s partition; the returned slot holds
    /// the program's output once [`run`] has driven it to completion.
    fn spawn<T: 'static>(
        endpoint: Endpoint<Msg>,
        program: impl AsyncFnOnce(Endpoint<Msg>) -> T + 'static,
    ) -> Rc<RefCell<Option<T>>> {
        let slot = Rc::new(RefCell::new(None));
        let out = Rc::clone(&slot);
        let net = endpoint.network().clone();
        net.spawn(endpoint.id(), async move {
            *out.borrow_mut() = Some(program(endpoint).await);
        });
        slot
    }

    /// Runs the executor, re-raising the first task panic.
    fn run(net: &Network<Msg>) {
        if let Some((_, payload)) = net.run().into_iter().next() {
            std::panic::resume_unwind(payload);
        }
    }

    fn take<T>(slot: &Rc<RefCell<Option<T>>>) -> T {
        slot.borrow_mut().take().expect("task ran to completion")
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.5)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let (a_id, b_id) = (a.id(), b.id());
        let tb = spawn(b, async move |mut b| {
            let got = b.recv().await.unwrap();
            assert_eq!(got.msg.unwrap(), Msg(1));
            b.send(a_id, Msg(2));
            got.delivered_at
        });
        let ta = spawn(a, async move |mut a| {
            a.send(b_id, Msg(1));
            let reply = a.recv().await.unwrap();
            assert_eq!(reply.msg.unwrap(), Msg(2));
            reply.delivered_at
        });
        run(&net);
        // Two half-second hops.
        assert_eq!(take(&ta), VirtualInstant::EPOCH + secs(1.0));
        assert_eq!(take(&tb), VirtualInstant::EPOCH + secs(0.5));
        assert_eq!(net.stats().sent("Msg"), 2);
    }

    #[test]
    fn sleep_advances_time_without_busy_waiting() {
        let net = virtual_net(LatencyModel::default());
        let wall = std::time::Instant::now();
        let done = spawn(net.endpoint("a"), async |a| a.sleep(secs(3600.0)).await);
        run(&net);
        take(&done).unwrap();
        assert!(net.now() >= VirtualInstant::EPOCH + secs(3600.0));
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(5),
            "an hour of virtual time must take well under 5 s of wall time"
        );
        assert_eq!(
            net.sched_stats(),
            SchedStats::default(),
            "a lone sleeper advances the clock itself, never suspending"
        );
    }

    #[test]
    fn fifo_per_link_despite_random_latencies() {
        let net = virtual_net(LatencyModel::UniformUpTo(secs(1.0)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let b_id = b.id();
        for i in 0..50 {
            a.send(b_id, Msg(i));
        }
        a.retire();
        let got = spawn(b, async |mut b| {
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(b.recv().await.unwrap().msg.unwrap().0);
            }
            got
        });
        run(&net);
        assert_eq!(
            take(&got),
            (0..50).collect::<Vec<_>>(),
            "per-link FIFO violated"
        );
    }

    #[test]
    fn deadlock_is_detected_and_reported_to_all() {
        let net = virtual_net(LatencyModel::default());
        // Both wait forever for messages nobody sends.
        let ra = spawn(net.endpoint("alice"), async |mut a| a.recv().await);
        let rb = spawn(net.endpoint("bob"), async |mut b| b.recv().await);
        run(&net);
        for r in [take(&ra), take(&rb)] {
            match r {
                Err(SimError::Deadlock(info)) => {
                    assert_eq!(info.blocked.len(), 2);
                    let names: Vec<_> = info.blocked.iter().map(|(n, _)| n.as_str()).collect();
                    assert!(names.contains(&"alice") && names.contains(&"bob"));
                }
                other => panic!("expected deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn sleeping_peer_prevents_false_deadlock() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.1)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let got = spawn(a, async |mut a| a.recv().await.unwrap());
        spawn(b, async move |b| {
            b.sleep(secs(5.0)).await.unwrap();
            b.send(a_id, Msg(9));
        });
        run(&net);
        let got = take(&got);
        assert_eq!(got.msg.unwrap(), Msg(9));
        assert_eq!(got.delivered_at, VirtualInstant::EPOCH + secs(5.1));
    }

    #[test]
    fn recv_timeout_returns_none_when_nothing_arrives() {
        let net = virtual_net(LatencyModel::default());
        // A timed wait has a wake-up point, so a lone endpoint is not a
        // deadlock: virtual time advances straight to the timeout.
        let got = spawn(net.endpoint("a"), async |mut a| {
            a.recv_timeout(secs(2.0)).await
        });
        run(&net);
        assert!(take(&got).unwrap().is_none());
        assert_eq!(net.now(), VirtualInstant::EPOCH + secs(2.0));
    }

    #[test]
    fn recv_timeout_returns_message_when_it_arrives_first() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.3)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        b.send(a.id(), Msg(5));
        b.retire();
        let got = spawn(a, async |mut a| a.recv_timeout(secs(10.0)).await);
        run(&net);
        assert_eq!(take(&got).unwrap().unwrap().msg.unwrap(), Msg(5));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let net = virtual_net(LatencyModel::Fixed(secs(1.0)));
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        assert!(a.try_recv().unwrap().is_none());
        b.send(a.id(), Msg(1));
        // In flight, not yet deliverable.
        assert!(a.try_recv().unwrap().is_none());
        b.retire();
        let got = spawn(a, async |mut a| {
            // After sleeping past the latency it is deliverable.
            a.sleep(secs(1.5)).await.unwrap();
            a.try_recv().unwrap().unwrap().msg.unwrap()
        });
        run(&net);
        assert_eq!(take(&got), Msg(1));
    }

    #[test]
    fn lost_messages_are_counted_and_not_delivered() {
        let net: Network<Msg> = Network::new(NetConfig {
            seed: 1,
            faults: FaultPlan::new().lose(crate::FaultSpec::any().count(1)),
            ..NetConfig::default()
        });
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        b.send(a.id(), Msg(1)); // lost
        b.send(a.id(), Msg(2)); // delivered
        b.retire();
        let got = spawn(a, async |mut a| a.recv().await.unwrap());
        run(&net);
        assert_eq!(take(&got).msg.unwrap(), Msg(2));
        assert_eq!(net.stats().dropped("Msg"), 1);
        assert_eq!(net.stats().sent("Msg"), 1);
    }

    #[test]
    fn corrupted_messages_arrive_with_no_payload() {
        let net: Network<Msg> = Network::new(NetConfig {
            seed: 1,
            faults: FaultPlan::new().corrupt(crate::FaultSpec::any().count(1)),
            ..NetConfig::default()
        });
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        b.send(a.id(), Msg(1));
        b.retire();
        let got = spawn(a, async |mut a| a.recv().await.unwrap());
        run(&net);
        assert!(take(&got).is_corrupted());
        assert_eq!(net.stats().corrupted("Msg"), 1);
    }

    #[test]
    fn messages_to_retired_endpoints_are_discarded() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let b_id = b.id();
        b.retire();
        a.send(b_id, Msg(1)); // must not panic or deadlock
        assert_eq!(net.stats().sent("Msg"), 1);
    }

    #[test]
    fn dropping_an_endpoint_retires_it() {
        let net = virtual_net(LatencyModel::default());
        drop(net.endpoint("b"));
        // With b gone, a alone waiting forever is a deadlock.
        let r = spawn(net.endpoint("a"), async |mut a| a.recv().await);
        run(&net);
        assert!(matches!(take(&r), Err(SimError::Deadlock(_))));
    }

    #[test]
    fn a_panicking_task_is_reported_and_retired() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.1)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let b_id = b.id();
        net.spawn(a.id(), async move {
            a.sleep(secs(1.0)).await.unwrap();
            panic!("boom");
        });
        // b's bounded wait outlives a: a's death must not stall it.
        let got = spawn(b, async move |mut b| {
            b.recv_deadline(VirtualInstant::EPOCH + secs(2.0)).await
        });
        let panics = net.run();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].0, PartitionId::new(0));
        assert_eq!(panics[0].1.downcast_ref::<&str>(), Some(&"boom"));
        assert!(take(&got).unwrap().is_none());
        let _ = b_id;
    }

    #[test]
    fn park_wait_consumes_a_scheduled_doorbell_at_its_instant() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let epoch = a.begin_wait();
        net.schedule_wake(a.id(), VirtualInstant::EPOCH + secs(0.005), epoch);
        let got = spawn(a, async |mut a| {
            let first = a.park_wait().await.unwrap();
            let at = a.now();
            // The bell is consumed: a further park has no wake-up point
            // and, with no peers, is a detected deadlock (not a hang).
            (first, at, a.park_wait().await)
        });
        run(&net);
        let (first, at, second) = take(&got);
        assert!(matches!(first, Parked::Doorbell), "got {first:?}");
        assert_eq!(at, VirtualInstant::EPOCH + secs(0.005));
        assert!(matches!(second, Err(SimError::Deadlock(_))));
    }

    #[test]
    fn doorbell_with_a_stale_epoch_is_ignored() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let old = a.begin_wait();
        let _current = a.begin_wait();
        net.schedule_wake(a.id(), VirtualInstant::EPOCH + secs(0.001), old);
        let got = spawn(a, async |mut a| a.park_wait().await);
        run(&net);
        assert!(
            matches!(take(&got), Err(SimError::Deadlock(_))),
            "a doorbell computed for a finished wait must not wake the new one"
        );
    }

    #[test]
    fn deliverable_message_beats_a_same_instant_doorbell() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.001)));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let epoch = a.begin_wait();
        // Bell and delivery land at the same virtual instant (1 ms): the
        // park must drain the message first, then report the bell.
        net.schedule_wake(a_id, VirtualInstant::EPOCH + secs(0.001), epoch);
        b.send(a_id, Msg(1));
        b.retire();
        let got = spawn(a, async |mut a| {
            (a.park_wait().await.unwrap(), a.park_wait().await.unwrap())
        });
        run(&net);
        match take(&got) {
            (Parked::Msg(m), Parked::Doorbell) => assert_eq!(m.msg.unwrap(), Msg(1)),
            other => panic!("message must be reported before the bell, got {other:?}"),
        }
    }

    #[test]
    fn doorbell_rung_by_a_peer_readies_the_parked_task() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let epoch = a.begin_wait();
        let got = spawn(a, async |mut a| (a.park_wait().await.unwrap(), a.now()));
        spawn(b, async move |b| {
            b.sleep(secs(0.002)).await.unwrap();
            let now = b.now();
            b.network().schedule_wake(a_id, now, epoch);
        });
        run(&net);
        let (parked, at) = take(&got);
        assert!(matches!(parked, Parked::Doorbell));
        assert_eq!(at, VirtualInstant::EPOCH + secs(0.002));
        assert_eq!(net.sched_stats(), SchedStats { parks: 1, wakes: 1 });
    }

    #[test]
    fn three_party_broadcast_order_is_deterministic() {
        // Run the same scenario twice; delivery times and executor
        // counters must be identical.
        let run_once = || {
            let net = virtual_net(LatencyModel::UniformUpTo(secs(1.0)));
            let a = net.endpoint("a");
            let b = net.endpoint("b");
            let c = net.endpoint("c");
            for i in 0..10 {
                a.send(b.id(), Msg(i));
                a.send(c.id(), Msg(i));
            }
            a.retire();
            let collect = async |mut e: Endpoint<Msg>| {
                let mut ts = Vec::new();
                for _ in 0..10 {
                    ts.push(e.recv().await.unwrap().delivered_at);
                }
                ts
            };
            let tb = spawn(b, collect);
            let tc = spawn(c, collect);
            run(&net);
            (take(&tb), take(&tc), net.sched_stats())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn arena_reuse_replays_byte_identically() {
        // The same two-party exchange, fresh vs. recycled: every delivery
        // instant must match, and the arena must actually be reclaimed.
        let exchange = |arena: Option<NetArena<Msg>>| {
            let net = Network::new_reusing(
                NetConfig {
                    latency: LatencyModel::UniformUpTo(secs(1.0)),
                    seed: 7,
                    ..NetConfig::default()
                },
                arena,
            );
            let a = net.endpoint("a");
            let b = net.endpoint("b");
            for i in 0..20 {
                a.send(b.id(), Msg(i));
            }
            a.retire();
            let ts = spawn(b, async |mut b| {
                let mut ts = Vec::new();
                for _ in 0..20 {
                    ts.push(b.recv().await.unwrap().delivered_at);
                }
                ts
            });
            run(&net);
            let ts = take(&ts);
            (ts, net.reclaim().expect("sole owner after run"))
        };
        let (fresh, arena) = exchange(None);
        assert_eq!(arena.capacity(), 2, "both endpoints reclaimed");
        let (reused, arena2) = exchange(Some(arena));
        assert_eq!(fresh, reused, "arena reuse must not change delivery");
        assert_eq!(arena2.capacity(), 2);
    }

    #[test]
    fn reclaim_requires_sole_ownership() {
        let net = virtual_net(LatencyModel::default());
        let clone = net.clone();
        assert!(net.reclaim().is_none(), "a live clone blocks reclamation");
        drop(clone);
    }
}
