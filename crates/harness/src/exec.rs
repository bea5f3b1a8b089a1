//! Scenario execution: materialises a [`ScenarioPlan`] into real
//! [`ActionDef`]s, shared objects and participant bodies, runs them on the
//! virtual-time network with a [`TraceRecorder`](crate::trace::TraceRecorder)
//! attached, and returns the run's artifacts.
//!
//! Execution is deterministic end to end: message timing comes from the
//! seeded latency model, object acquisition from the runtime's arbitrated
//! grant order, fault budgets from per-link sequence numbers, and a
//! crash-stop participant dies at its plan-determined virtual instant — so
//! the same plan renders a byte-identical [`Trace`] on every run.

use std::sync::{Arc, OnceLock};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::HandlerVerdict;
use caa_core::time::{secs, VirtualDuration};
use caa_runtime::{ActionDef, BoxStep, Ctx, SharedObject, Step, System, SystemReport};
use caa_simnet::LatencyModel;

use crate::arena::ExecutionArena;
use crate::plan::{ActionPlan, ObjectOp, Phase, ScenarioPlan, VerdictChoice};
use crate::trace::Trace;

/// Everything produced by one scenario execution.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The executed plan.
    pub plan: ScenarioPlan,
    /// The canonical recorded trace.
    pub trace: Trace,
    /// The system's own report (thread results, counters, elapsed time).
    pub report: SystemReport,
}

/// One action of the plan, compiled: its definition plus compiled phases.
struct ExecNode {
    plan: ActionPlan,
    def: ActionDef,
    phases: Vec<ExecPhase>,
}

enum ExecPhase {
    Compute {
        dur: VirtualDuration,
        sends: Vec<(u32, u32)>,
        listeners: Vec<u32>,
        object_ops: Vec<ObjectOp>,
    },
    Nested {
        children: Vec<Arc<ExecNode>>,
    },
}

/// Pre-interned name caches: role and thread names are `r<t>` / `T<t>`
/// for small `t`, and the execute hot path asks for them on every send,
/// entry and spawn — a per-call `format!` was measurable sweep churn.
const NAME_CACHE: usize = 64;

fn role_name(thread: u32) -> &'static str {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        (0..NAME_CACHE as u32)
            .map(|t| &*format!("r{t}").leak())
            .collect()
    });
    match names.get(thread as usize) {
        Some(name) => name,
        None => oversized_role_name(thread),
    }
}

/// Cold path for thread ids beyond the inline cache (unreachable for
/// generated scenarios): memoized, so the leaked storage stays bounded by
/// the number of *distinct* oversized ids, not by call count.
fn oversized_role_name(thread: u32) -> &'static str {
    use std::collections::HashMap;
    static OVERSIZED: OnceLock<parking_lot::Mutex<HashMap<u32, &'static str>>> = OnceLock::new();
    let mut names = OVERSIZED
        .get_or_init(|| parking_lot::Mutex::new(HashMap::new()))
        .lock();
    names
        .entry(thread)
        .or_insert_with(|| &*format!("r{thread}").leak())
}

fn thread_name(thread: u32) -> Arc<str> {
    static NAMES: OnceLock<Vec<Arc<str>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        (0..NAME_CACHE as u32)
            .map(|t| Arc::from(format!("T{t}").as_str()))
            .collect()
    });
    match names.get(thread as usize) {
        Some(name) => Arc::clone(name),
        None => Arc::from(format!("T{thread}").as_str()),
    }
}

/// Per-level separation factor for the crash-detecting bounded waits.
///
/// A live participant of an action at depth `d` can lawfully lag behind
/// its peers by the *sum of every bounded wait below `d`*: a sibling
/// subtree can burn a signalling timeout, an exit timeout and a resolution
/// timeout per nested level before its member resurfaces at depth `d`'s
/// protocol. If all levels shared one bound, a deep cascade would outrun a
/// shallow wait and a live peer would be presumed crashed (survivors then
/// diverge — found by the first crash-schedule sweep). Scaling each
/// level's exit and resolution timeouts by `SEPARATION^(levels below)`
/// keeps every wait two orders of magnitude above its sublevels' total
/// budget; virtual time makes the headroom free. The §3.4 *signalling*
/// timeout is deliberately left unscaled: it fires in crash-free runs too
/// (lost announcements are treated as ƒ), so rescaling it would change
/// crash-free traces.
pub const TIMEOUT_SEPARATION: f64 = 100.0;

fn build_node(
    plan: &ActionPlan,
    scenario: &ScenarioPlan,
    arena: &mut ExecutionArena,
) -> Arc<ExecNode> {
    // The lattice is a pure function of (action name, group); the arena
    // caches it across seeds, turning per-seed graph construction into a
    // lookup for the recurring shapes the generator emits.
    let graph = arena.graph_for(&plan.name, &plan.group, || {
        plan.group
            .iter()
            .map(|&t| ExceptionId::new(plan.raise_exception(t)))
            .collect()
    });

    let levels_below = scenario.max_depth().saturating_sub(plan.depth) as i32;
    let scale = TIMEOUT_SEPARATION.powi(levels_below);
    let mut builder = ActionDef::builder(plan.name.as_str())
        .graph_shared(graph)
        .signal_timeout(secs(scenario.signal_timeout))
        .exit_timeout(secs(scenario.exit_timeout * scale))
        .resolution_timeout(secs(scenario.resolution_timeout * scale));
    for &t in &plan.group {
        builder = builder.role(role_name(t), t);
    }
    let delta = secs(scenario.delta);
    for &(t, verdict) in &plan.verdicts {
        let signal_exc = ExceptionId::new(plan.signal_exception());
        builder = builder.fallback_handler(role_name(t), async move |hc| {
            hc.work(delta).await?;
            Ok(match verdict {
                VerdictChoice::Recovered => HandlerVerdict::Recovered,
                VerdictChoice::Undo => HandlerVerdict::Undo,
                VerdictChoice::Fail => HandlerVerdict::Fail,
                VerdictChoice::Signal => HandlerVerdict::Signal(signal_exc.clone()),
            })
        });
    }
    if plan.depth > 0 {
        let t_abort = secs(scenario.t_abort);
        for &t in &plan.group {
            let eab = plan
                .abort_raises_eab
                .contains(&t)
                .then(|| ExceptionId::new(plan.eab_exception(t)));
            builder = builder.abort_handler(role_name(t), async move |ac| {
                ac.work(t_abort).await?;
                Ok(eab.clone().map(Exception::new))
            });
        }
    }
    let def = builder
        .build()
        .expect("generated plans declare valid roles");

    let phases = plan
        .phases
        .iter()
        .map(|phase| match phase {
            Phase::Compute {
                dur_ns,
                sends,
                listeners,
                object_ops,
            } => ExecPhase::Compute {
                dur: VirtualDuration::from_nanos(*dur_ns),
                sends: sends.clone(),
                listeners: listeners.clone(),
                object_ops: object_ops.clone(),
            },
            Phase::Nested { children } => ExecPhase::Nested {
                children: children
                    .iter()
                    .map(|c| build_node(c, scenario, arena))
                    .collect(),
            },
        })
        .collect();

    Arc::new(ExecNode {
        plan: plan.clone(),
        def,
        phases,
    })
}

/// Drains the role's app inbox for exactly `dur` of virtual time, so the
/// phase consumes the same duration whether or not messages arrive (the
/// alignment discipline the Lemma 1 oracle relies on).
async fn listen(rc: &mut Ctx, dur: VirtualDuration) -> Step<()> {
    let deadline = rc.now().saturating_add(dur);
    loop {
        let remaining = deadline.duration_since(rc.now());
        if remaining.is_zero() {
            return Ok(());
        }
        let _ = rc.recv_app_timeout(remaining).await?;
    }
}

/// Computes through one phase, issuing this thread's object operations at
/// their fixed offsets. Acquisition waits extend the phase beyond `dur`
/// (deterministically); the trailing work is clamped to the deadline.
async fn compute_with_ops(
    rc: &mut Ctx,
    dur: VirtualDuration,
    ops: &[&ObjectOp],
    objects: &[SharedObject<u64>],
) -> Step<()> {
    let start = rc.now();
    let deadline = start.saturating_add(dur);
    for op in ops {
        let target = start.saturating_add(VirtualDuration::from_nanos(op.delay_ns));
        let lead = target.duration_since(rc.now());
        if !lead.is_zero() {
            rc.work(lead).await?;
        }
        let obj = &objects[op.object as usize];
        if op.update {
            rc.update(obj, |v| *v = v.wrapping_add(1)).await?;
        } else {
            let _ = rc.read(obj, |v| *v).await?;
        }
    }
    let rest = deadline.duration_since(rc.now());
    if !rest.is_zero() {
        rc.work(rest).await?;
    }
    Ok(())
}

/// One action body: its phases (nested actions recurse, hence the box),
/// then its raise phase.
fn body_phases<'a>(
    rc: &'a mut Ctx,
    node: &'a ExecNode,
    me: u32,
    objects: &'a [SharedObject<u64>],
) -> BoxStep<'a> {
    Box::pin(async move {
        for phase in &node.phases {
            match phase {
                ExecPhase::Compute {
                    dur,
                    sends,
                    listeners,
                    object_ops,
                } => {
                    for &(from, to) in sends {
                        if from == me {
                            rc.send_to_role(role_name(to), "app", u64::from(to))?;
                        }
                    }
                    if listeners.contains(&me) {
                        listen(rc, *dur).await?;
                    } else {
                        let mut my_ops: Vec<&ObjectOp> =
                            object_ops.iter().filter(|op| op.thread == me).collect();
                        my_ops.sort_by_key(|op| op.delay_ns);
                        compute_with_ops(rc, *dur, &my_ops, objects).await?;
                    }
                }
                ExecPhase::Nested { children } => {
                    if let Some(child) = children.iter().find(|c| c.plan.group.contains(&me)) {
                        rc.enter(&child.def, role_name(me), async |cc| {
                            body_phases(cc, child, me, objects).await
                        })
                        .await?;
                    }
                }
            }
        }
        if let Some(raise_phase) = &node.plan.raise {
            match raise_phase.raisers.iter().find(|(t, _)| *t == me) {
                Some(&(_, delay_ns)) => {
                    rc.work(VirtualDuration::from_nanos(delay_ns)).await?;
                    rc.raise(Exception::new(node.plan.raise_exception(me)))?;
                }
                None => {
                    // Peers will raise; compute until their recovery interrupts.
                    rc.work(secs(30.0)).await?;
                }
            }
        }
        Ok(())
    })
}

/// Executes `plan` on a fresh virtual-time system, recording a canonical
/// trace. The run is deterministic: the same plan produces byte-identical
/// [`Trace::render`] output on every execution.
#[must_use]
pub fn execute(plan: &ScenarioPlan) -> RunArtifacts {
    execute_in(plan, &mut ExecutionArena::new())
}

/// [`execute`] through a per-worker [`ExecutionArena`]: network storage,
/// trace buffers and resolution lattices are recycled across calls, so a
/// sweep worker stops paying per-seed setup/teardown allocation. Arena
/// reuse is a pure allocation cache — traces stay byte-identical to a
/// fresh execution's.
#[must_use]
pub fn execute_in(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> RunArtifacts {
    let (trace, report) = run_plan(plan, arena);
    RunArtifacts {
        plan: plan.clone(),
        trace,
        report,
    }
}

/// [`execute_in`] taking the plan by value, so the artifacts reuse it
/// instead of deep-cloning it per execution (the sweep driver's path).
#[must_use]
pub(crate) fn execute_owned(plan: ScenarioPlan, arena: &mut ExecutionArena) -> RunArtifacts {
    let (trace, report) = run_plan(&plan, arena);
    RunArtifacts {
        plan,
        trace,
        report,
    }
}

/// Runs `plan` and returns only the recorded trace and report — the
/// replay-check path, which needs neither a plan clone nor fresh
/// allocations.
pub(crate) fn run_plan(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> (Trace, SystemReport) {
    let recorder = arena.recorder();
    let mut builder = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(plan.t_mmax)))
        .seed(plan.seed)
        .resolution_delay(secs(plan.t_reso))
        .faults(plan.fault_plan())
        .observer(Arc::clone(&recorder) as _)
        .tap(Arc::clone(&recorder) as _);
    if let Some(net) = arena.take_net() {
        builder = builder.net_arena(net);
    }
    let mut sys = builder.build();

    let objects: Vec<SharedObject<u64>> = plan
        .objects
        .iter()
        .map(|name| SharedObject::new(name.as_str(), 0u64))
        .collect();
    let nodes: Vec<Arc<ExecNode>> = plan
        .top
        .iter()
        .map(|a| build_node(a, plan, arena))
        .collect();
    for t in 0..plan.threads {
        let my_crash = plan.crashes.iter().copied().find(|c| c.thread == t);
        let nodes = nodes.clone();
        let objects = objects.clone();
        sys.spawn(thread_name(t), async move |ctx| {
            for (i, node) in nodes.iter().enumerate() {
                let def = &node.def;
                let objects = &objects[..];
                match my_crash.filter(|c| i == c.top_action as usize) {
                    Some(c) => {
                        // The designated participant runs its real
                        // workload — raises, messages and object traffic
                        // included — with the crash scheduled at its
                        // plan-determined instant: it dies at the first
                        // poll point at or after it, wherever the
                        // protocol then has it (body, collection,
                        // signalling or exit).
                        let run = ctx
                            .enter(def, role_name(t), async |rc| {
                                rc.schedule_crash(VirtualDuration::from_nanos(c.delay_ns));
                                body_phases(rc, node, t, objects).await
                            })
                            .await;
                        let flow = match run {
                            Err(flow) => flow,
                            Ok(_) => {
                                // The action concluded before the crash
                                // instant (short workload, or a recovery
                                // absorbed the body): the process is
                                // still doomed — idle until the schedule
                                // fires.
                                match ctx.work(secs(3600.0)).await {
                                    Err(flow) => flow,
                                    Ok(()) => return ctx.crash_stop(),
                                }
                            }
                        };
                        if !flow.is_crash() {
                            return Err(flow);
                        }
                        // The planned death. Without a planned restart
                        // the thread stays down for good; with one, it
                        // waits out the down-time and asks the survivors
                        // to readmit it (epoch-numbered rejoin). A
                        // restart nobody answers — the group concluded,
                        // or evicted it and moved on past the join
                        // window — gives up and stays down too.
                        let Some(down_ns) = c.rejoin_delay_ns else {
                            return Err(flow);
                        };
                        ctx.restart_after(VirtualDuration::from_nanos(down_ns))
                            .await?;
                        if ctx.rejoin(def, role_name(t)).await?.is_none() {
                            return Err(flow);
                        }
                        // Readmitted and concluded the crash action as a
                        // member again: continue into the remaining top
                        // actions like any survivor.
                    }
                    None => {
                        ctx.enter(def, role_name(t), async |rc| {
                            body_phases(rc, node, t, objects).await
                        })
                        .await?;
                    }
                }
            }
            Ok(())
        });
    }
    let (report, net) = sys.run_reclaiming();
    if let Some(net) = net {
        arena.put_net(net);
    }
    (recorder.take_trace(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioConfig;

    #[test]
    fn a_simple_seed_executes_cleanly() {
        let plan = ScenarioPlan::generate(1, &ScenarioConfig::default());
        let artifacts = execute(&plan);
        for (i, (name, result)) in artifacts.report.results.iter().enumerate() {
            let planned = plan.crashes.iter().find(|c| c.thread == i as u32);
            match result {
                Ok(()) => assert!(
                    planned.is_none_or(|c| c.rejoin_delay_ns.is_some()),
                    "{name} should have crashed for good"
                ),
                Err(caa_runtime::RuntimeError::Crashed) => {
                    assert!(planned.is_some(), "{name} crashed unplanned");
                }
                Err(e) => panic!("{name} failed: {e}"),
            }
        }
        assert!(!artifacts.trace.is_empty());
        // Top-level entries per thread: survivors enter every top action,
        // a successful rejoiner re-enters its crash action once on top of
        // that, and a thread that stayed down entered at most the actions
        // up to (and including) its crash action.
        let mut enters: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for e in artifacts.trace.runtime_events() {
            if matches!(
                e.kind,
                caa_runtime::observe::EventKind::Enter { depth: 1, .. }
            ) {
                *enters.entry(e.thread.as_u32()).or_default() += 1;
            }
        }
        for t in 0..plan.threads {
            let n = enters.get(&t).copied().unwrap_or(0);
            let planned = plan.crashes.iter().find(|c| c.thread == t);
            let rejoined = planned.is_some() && artifacts.report.results[t as usize].1.is_ok();
            match planned {
                None => assert_eq!(n, plan.top.len(), "T{t}: survivor misses entries"),
                Some(_) if rejoined => {
                    assert_eq!(n, plan.top.len() + 1, "T{t}: rejoiner double-enters once");
                }
                Some(c) => assert!(
                    n <= c.top_action as usize + 1,
                    "T{t}: dead thread entered past its crash action"
                ),
            }
        }
    }

    #[test]
    fn object_scenarios_record_acquisitions() {
        let cfg = ScenarioConfig::default();
        let mut acquisitions = 0usize;
        for seed in 0..40 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if !plan.has_objects() {
                continue;
            }
            let artifacts = execute(&plan);
            acquisitions += artifacts
                .trace
                .runtime_events()
                .filter(|e| {
                    matches!(
                        e.kind,
                        caa_runtime::observe::EventKind::ObjectAcquired { .. }
                    )
                })
                .count();
        }
        assert!(
            acquisitions > 0,
            "object scenarios must actually acquire objects"
        );
    }

    #[test]
    fn crash_scenarios_terminate_with_the_crash_reported() {
        let cfg = ScenarioConfig::default();
        let (mut found, mut stayed_down, mut readmitted) = (false, 0, 0);
        for seed in 0..60 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if plan.crashes.is_empty() {
                continue;
            }
            found = true;
            let artifacts = execute(&plan);
            for (i, (name, result)) in artifacts.report.results.iter().enumerate() {
                let planned = plan.crashes.iter().find(|c| c.thread == i as u32);
                match (planned, result) {
                    (None, Ok(())) => {}
                    (None, Err(e)) => panic!("{name} failed unplanned: {e}"),
                    (Some(_), Err(caa_runtime::RuntimeError::Crashed)) => stayed_down += 1,
                    (Some(c), Ok(())) => {
                        assert!(
                            c.rejoin_delay_ns.is_some(),
                            "{name} survived its crash without a planned rejoin"
                        );
                        readmitted += 1;
                    }
                    (Some(_), Err(e)) => panic!("{name} died of {e}, not the planned crash"),
                }
            }
        }
        assert!(found, "no crash seed in range");
        assert!(stayed_down > 0, "no crash stayed down in range");
        assert!(readmitted > 0, "no rejoin was granted in range");
    }
}
