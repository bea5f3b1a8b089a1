//! Workload bisection: shrinking a violating plan to a 1-minimal one.
//!
//! A violating plan typically carries more than the bug needs: several
//! loss/corruption rules, crash-stops, top-level actions, phases, nested
//! children, raisers and object operations, of which only a few matter.
//! [`bisect_workload`] shrinks all of it by greedy delta debugging over
//! [`WorkloadStep`]s — the chaos schedule first (`drop-crash`,
//! `drop-fault`), then coarse structure, then fine structure — accepting
//! any single step that keeps the violation, until the plan is 1-minimal:
//! no remaining step keeps it. The accepted steps persist next to the
//! seed's corpus entry ([`write_workload_entry`]) and replay with
//! [`apply_steps`], so a minimized repro survives the session that found
//! it:
//!
//! ```text
//! cargo run -p caa-harness --example replay -- 42 --bisect-workload
//! ```

use std::path::{Path, PathBuf};

use crate::arena::ExecutionArena;
use crate::exec::execute_in;
use crate::oracle::check_run;
use crate::plan::{ActionPlan, Phase, ScenarioPlan};

/// The default violation predicate: execute the plan and check every
/// run oracle (the same verdicts a sweep applies, minus the replay
/// check — bisection re-executes candidates constantly, so the replay
/// oracle would double every probe for no extra signal).
#[must_use]
pub fn plan_violates(plan: &ScenarioPlan, arena: &mut ExecutionArena) -> bool {
    let artifacts = execute_in(plan, arena);
    let violating = !check_run(&artifacts).is_empty();
    arena.recycle_trace(artifacts.trace);
    violating
}

/// One structural reduction of a plan: dropping a crash-stop, a fault
/// rule, a whole top-level action, a phase, a nested child, a raise, an
/// object operation, even the last participant. Each step names its
/// target against the plan it was applied to, so a recorded step
/// sequence replays with [`apply_steps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadStep {
    /// Drop crash-stop `i` (index into the current plan's crash list).
    DropCrash(usize),
    /// Drop fault rule `i` (index into the current plan's fault list).
    DropFault(usize),
    /// Drop top-level action `i` (inapplicable when the crash-stop dies
    /// during it, or when it is the only top-level action).
    DropTopAction(usize),
    /// Drop the highest-numbered thread from the whole plan
    /// (inapplicable when the crash or a pinned fault rule targets it).
    DropLastThread,
    /// Drop the named action's entire raise phase.
    DropRaise {
        /// The action's unique name.
        action: String,
    },
    /// Drop one raiser of the named action (which must keep ≥ 1).
    DropRaiser {
        /// The action's unique name.
        action: String,
        /// Index into the raise phase's raiser list.
        raiser: usize,
    },
    /// Drop phase `phase` of the named action.
    DropPhase {
        /// The action's unique name.
        action: String,
        /// Index into the action's phase list.
        phase: usize,
    },
    /// Drop one child of a nested phase (which must keep ≥ 1; dropping
    /// the last child is [`WorkloadStep::DropPhase`]).
    DropChild {
        /// The action's unique name.
        action: String,
        /// Index into the action's phase list (a nested phase).
        phase: usize,
        /// Index into the phase's child list.
        child: usize,
    },
    /// Drop one shared-object operation of a compute phase.
    DropObjectOp {
        /// The action's unique name.
        action: String,
        /// Index into the action's phase list (a compute phase).
        phase: usize,
        /// Index into the phase's operation list.
        op: usize,
    },
}

impl WorkloadStep {
    /// The persisted one-line form (see [`WorkloadStep::parse`]).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            WorkloadStep::DropCrash(i) => format!("drop-crash {i}"),
            WorkloadStep::DropFault(i) => format!("drop-fault {i}"),
            WorkloadStep::DropTopAction(i) => format!("drop-top {i}"),
            WorkloadStep::DropLastThread => "drop-thread".into(),
            WorkloadStep::DropRaise { action } => format!("drop-raise {action}"),
            WorkloadStep::DropRaiser { action, raiser } => {
                format!("drop-raiser {action} {raiser}")
            }
            WorkloadStep::DropPhase { action, phase } => format!("drop-phase {action} {phase}"),
            WorkloadStep::DropChild {
                action,
                phase,
                child,
            } => format!("drop-child {action} {phase} {child}"),
            WorkloadStep::DropObjectOp { action, phase, op } => {
                format!("drop-op {action} {phase} {op}")
            }
        }
    }

    /// Parses the form written by [`WorkloadStep::render`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line.
    pub fn parse(line: &str) -> Result<WorkloadStep, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let head = *tokens.first().ok_or("empty workload step")?;
        let arity = |n: usize| -> Result<(), String> {
            if tokens.len() == n + 1 {
                Ok(())
            } else {
                Err(format!("{head}: expected {n} operand(s), got {line:?}"))
            }
        };
        let index = |at: usize, what: &str| -> Result<usize, String> {
            tokens[at]
                .parse()
                .map_err(|e| format!("{head}: bad {what}: {e}"))
        };
        let step = match head {
            "drop-crash" => {
                // The pre-multi-crash form is a bare `drop-crash`; it
                // means crash 0 so recorded reductions keep replaying.
                if tokens.len() == 1 {
                    WorkloadStep::DropCrash(0)
                } else {
                    arity(1)?;
                    WorkloadStep::DropCrash(index(1, "crash index")?)
                }
            }
            "drop-fault" => {
                arity(1)?;
                WorkloadStep::DropFault(index(1, "fault index")?)
            }
            "drop-top" => {
                arity(1)?;
                WorkloadStep::DropTopAction(index(1, "action index")?)
            }
            "drop-thread" => {
                arity(0)?;
                WorkloadStep::DropLastThread
            }
            "drop-raise" => {
                arity(1)?;
                WorkloadStep::DropRaise {
                    action: tokens[1].into(),
                }
            }
            "drop-raiser" => {
                arity(2)?;
                WorkloadStep::DropRaiser {
                    action: tokens[1].into(),
                    raiser: index(2, "raiser index")?,
                }
            }
            "drop-phase" => {
                arity(2)?;
                WorkloadStep::DropPhase {
                    action: tokens[1].into(),
                    phase: index(2, "phase index")?,
                }
            }
            "drop-child" => {
                arity(3)?;
                WorkloadStep::DropChild {
                    action: tokens[1].into(),
                    phase: index(2, "phase index")?,
                    child: index(3, "child index")?,
                }
            }
            "drop-op" => {
                arity(3)?;
                WorkloadStep::DropObjectOp {
                    action: tokens[1].into(),
                    phase: index(2, "phase index")?,
                    op: index(3, "op index")?,
                }
            }
            other => return Err(format!("unrecognised workload step: {other:?}")),
        };
        Ok(step)
    }
}

/// Renders a step sequence, one step per line (the `workload.txt` form).
#[must_use]
pub fn render_steps(steps: &[WorkloadStep]) -> String {
    let mut out = String::new();
    for step in steps {
        out.push_str(&step.render());
        out.push('\n');
    }
    out
}

/// Parses the form written by [`render_steps`].
///
/// # Errors
///
/// A human-readable description of the offending line.
pub fn parse_steps(text: &str) -> Result<Vec<WorkloadStep>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(WorkloadStep::parse)
        .collect()
}

fn find_action_mut<'p>(plan: &'p mut ScenarioPlan, name: &str) -> Option<&'p mut ActionPlan> {
    fn walk<'a>(action: &'a mut ActionPlan, name: &str) -> Option<&'a mut ActionPlan> {
        if action.name == name {
            return Some(action);
        }
        for phase in &mut action.phases {
            if let Phase::Nested { children } = phase {
                for child in children {
                    if let Some(found) = walk(child, name) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }
    plan.top.iter_mut().find_map(|a| walk(a, name))
}

/// Removes thread `t` from an action subtree: membership, sends,
/// listeners, object operations, raisers, verdicts, Eab designations.
/// Children whose group empties disappear with their phase.
fn strip_thread(action: &mut ActionPlan, t: u32) {
    action.group.retain(|&m| m != t);
    for phase in &mut action.phases {
        match phase {
            Phase::Compute {
                sends,
                listeners,
                object_ops,
                ..
            } => {
                sends.retain(|&(from, to)| from != t && to != t);
                listeners.retain(|&l| l != t);
                object_ops.retain(|op| op.thread != t);
            }
            Phase::Nested { children } => {
                for child in children.iter_mut() {
                    strip_thread(child, t);
                }
                children.retain(|c| !c.group.is_empty());
            }
        }
    }
    action
        .phases
        .retain(|p| !matches!(p, Phase::Nested { children } if children.is_empty()));
    if let Some(raise) = &mut action.raise {
        raise.raisers.retain(|&(r, _)| r != t);
        if raise.raisers.is_empty() {
            action.raise = None;
        }
    }
    action.verdicts.retain(|&(v, _)| v != t);
    action.abort_raises_eab.retain(|&m| m != t);
}

/// Applies one workload step to `plan`. Returns `None` when the step is
/// inapplicable (wrong index, last remaining element, or a reduction
/// that would orphan the crash/fault schedule).
#[must_use]
pub fn apply_step(plan: &ScenarioPlan, step: &WorkloadStep) -> Option<ScenarioPlan> {
    let mut out = plan.clone();
    match step {
        WorkloadStep::DropCrash(i) => {
            if *i >= out.crashes.len() {
                return None;
            }
            out.crashes.remove(*i);
        }
        WorkloadStep::DropFault(i) => {
            if *i >= out.faults.len() {
                return None;
            }
            out.faults.remove(*i);
        }
        WorkloadStep::DropTopAction(i) => {
            if out.top.len() < 2 || *i >= out.top.len() {
                return None;
            }
            // The crash schedules index the top-level sequence; a
            // reduction must never silently retarget one.
            if out.crashes.iter().any(|c| c.top_action as usize == *i) {
                return None;
            }
            for crash in &mut out.crashes {
                if crash.top_action as usize > *i {
                    crash.top_action -= 1;
                }
            }
            out.top.remove(*i);
        }
        WorkloadStep::DropLastThread => {
            if out.threads < 2 {
                return None;
            }
            let t = out.threads - 1;
            if out.crashes.iter().any(|c| c.thread == t)
                || out.faults.iter().any(|f| f.src == Some(t))
            {
                return None;
            }
            for action in &mut out.top {
                strip_thread(action, t);
            }
            out.threads = t;
        }
        WorkloadStep::DropRaise { action } => {
            find_action_mut(&mut out, action)?.raise.take()?;
        }
        WorkloadStep::DropRaiser { action, raiser } => {
            let raise = find_action_mut(&mut out, action)?.raise.as_mut()?;
            if raise.raisers.len() < 2 || *raiser >= raise.raisers.len() {
                return None;
            }
            raise.raisers.remove(*raiser);
        }
        WorkloadStep::DropPhase { action, phase } => {
            let action = find_action_mut(&mut out, action)?;
            if *phase >= action.phases.len() {
                return None;
            }
            action.phases.remove(*phase);
        }
        WorkloadStep::DropChild {
            action,
            phase,
            child,
        } => {
            let action = find_action_mut(&mut out, action)?;
            let Phase::Nested { children } = action.phases.get_mut(*phase)? else {
                return None;
            };
            if children.len() < 2 || *child >= children.len() {
                return None;
            }
            children.remove(*child);
        }
        WorkloadStep::DropObjectOp { action, phase, op } => {
            let action = find_action_mut(&mut out, action)?;
            let Phase::Compute { object_ops, .. } = action.phases.get_mut(*phase)? else {
                return None;
            };
            if *op >= object_ops.len() {
                return None;
            }
            object_ops.remove(*op);
        }
    }
    Some(out)
}

/// Replays a recorded step sequence. Returns `None` when any step no
/// longer applies (the recorded reduction and the plan have diverged).
#[must_use]
pub fn apply_steps(plan: &ScenarioPlan, steps: &[WorkloadStep]) -> Option<ScenarioPlan> {
    let mut out = plan.clone();
    for step in steps {
        out = apply_step(&out, step)?;
    }
    Some(out)
}

/// Every reduction step applicable to `plan`, in the fixed greedy order:
/// chaos schedule first (crash, faults), then coarse structure (top
/// actions, the last thread), then per-action fine structure in preorder
/// (raises, raisers, phases, children, object operations). Coarse-first
/// ordering makes the greedy loop converge in few probes: one accepted
/// `drop-top` removes whole subtrees the fine steps would otherwise
/// shrink one element at a time.
fn workload_candidates(plan: &ScenarioPlan) -> Vec<WorkloadStep> {
    let mut out = Vec::new();
    for i in 0..plan.crashes.len() {
        out.push(WorkloadStep::DropCrash(i));
    }
    for i in 0..plan.faults.len() {
        out.push(WorkloadStep::DropFault(i));
    }
    if plan.top.len() > 1 {
        for i in 0..plan.top.len() {
            out.push(WorkloadStep::DropTopAction(i));
        }
    }
    if plan.threads > 1 {
        out.push(WorkloadStep::DropLastThread);
    }
    for action in plan.actions() {
        if let Some(raise) = &action.raise {
            out.push(WorkloadStep::DropRaise {
                action: action.name.clone(),
            });
            if raise.raisers.len() > 1 {
                for raiser in 0..raise.raisers.len() {
                    out.push(WorkloadStep::DropRaiser {
                        action: action.name.clone(),
                        raiser,
                    });
                }
            }
        }
        for (p, phase) in action.phases.iter().enumerate() {
            out.push(WorkloadStep::DropPhase {
                action: action.name.clone(),
                phase: p,
            });
            match phase {
                Phase::Nested { children } if children.len() > 1 => {
                    for child in 0..children.len() {
                        out.push(WorkloadStep::DropChild {
                            action: action.name.clone(),
                            phase: p,
                            child,
                        });
                    }
                }
                Phase::Compute { object_ops, .. } => {
                    for op in 0..object_ops.len() {
                        out.push(WorkloadStep::DropObjectOp {
                            action: action.name.clone(),
                            phase: p,
                            op,
                        });
                    }
                }
                Phase::Nested { .. } => {}
            }
        }
    }
    out
}

/// Outcome of one workload bisection.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// The accepted reduction steps, in application order (each indexed
    /// against the plan state it was applied to — replay with
    /// [`apply_steps`]).
    pub steps: Vec<WorkloadStep>,
    /// The 1-minimal still-violating plan.
    pub plan: ScenarioPlan,
    /// How many candidate executions the bisection performed.
    pub attempts: u64,
}

/// Shrinks `plan` — workload structure *and* chaos schedule — to a
/// 1-minimal still-violating plan by greedy delta debugging over
/// [`WorkloadStep`]s: accept any single step that keeps the violation,
/// restart, stop when no step survives. Returns `None` when the full
/// plan does not violate. The fixed candidate order makes the reduction
/// deterministic for a deterministic predicate.
#[must_use]
pub fn bisect_workload(
    plan: &ScenarioPlan,
    mut still_violates: impl FnMut(&ScenarioPlan) -> bool,
) -> Option<WorkloadOutcome> {
    let mut attempts = 1;
    if !still_violates(plan) {
        return None;
    }
    let mut current = plan.clone();
    let mut steps = Vec::new();
    loop {
        let mut progressed = false;
        for step in workload_candidates(&current) {
            let Some(candidate) = apply_step(&current, &step) else {
                continue;
            };
            attempts += 1;
            if still_violates(&candidate) {
                current = candidate;
                steps.push(step);
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    Some(WorkloadOutcome {
        steps,
        plan: current,
        attempts,
    })
}

/// Persists a workload bisection outcome under `<dir>/<seed>-workload/`:
/// the parseable step sequence (`workload.txt`, [`parse_steps`]-loadable)
/// and the minimized plan's description. Returns the entry path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_workload_entry(dir: &Path, outcome: &WorkloadOutcome) -> std::io::Result<PathBuf> {
    use std::fmt::Write as _;
    let entry = dir.join(format!("{}-workload", outcome.plan.seed));
    std::fs::create_dir_all(&entry)?;
    std::fs::write(entry.join("workload.txt"), render_steps(&outcome.steps))?;
    let mut plan = outcome.plan.describe();
    plan.push('\n');
    let _ = writeln!(plan, "bisection attempts: {}", outcome.attempts);
    let _ = writeln!(plan, "reduction steps: {}", outcome.steps.len());
    std::fs::write(entry.join("plan.txt"), plan)?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioConfig;

    /// A seed whose generated plan has at least 2 fault rules and a crash.
    fn rich_plan() -> ScenarioPlan {
        let cfg = ScenarioConfig::default();
        for seed in 0..4000 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            if plan.faults.len() >= 2 && !plan.crashes.is_empty() {
                return plan;
            }
        }
        panic!("no seed with a rich chaos schedule in range");
    }

    #[test]
    fn bisection_minimises_against_a_synthetic_predicate() {
        let plan = rich_plan();
        let needed = plan.faults[1].clone();
        // The "bug" needs exactly fault rule 1 and a crash.
        let needs = |p: &ScenarioPlan| !p.crashes.is_empty() && p.faults.contains(&needed);
        let outcome = bisect_workload(&plan, needs).expect("full plan violates");
        let min = &outcome.plan;
        assert_eq!(min.faults, vec![needed.clone()], "{}", min.describe());
        assert_eq!(min.crashes.len(), 1, "{}", min.describe());
        // 1-minimality: dropping either remaining element stops the
        // violation.
        for step in [WorkloadStep::DropFault(0), WorkloadStep::DropCrash(0)] {
            let candidate = apply_step(min, &step).expect("applicable");
            assert!(!needs(&candidate), "{} kept the violation", step.render());
        }
    }

    #[test]
    fn bisection_reports_nothing_for_a_passing_plan() {
        let plan = rich_plan();
        assert!(bisect_workload(&plan, |_| false).is_none());
    }

    #[test]
    fn bisection_can_drop_everything_for_schedule_independent_bugs() {
        let plan = rich_plan();
        let outcome = bisect_workload(&plan, |_| true).expect("always violating");
        assert!(outcome.plan.faults.is_empty());
        assert!(outcome.plan.crashes.is_empty());
    }

    #[test]
    fn default_predicate_accepts_clean_seeds() {
        let mut arena = ExecutionArena::new();
        let plan = ScenarioPlan::generate(3, &ScenarioConfig::default());
        assert!(!plan_violates(&plan, &mut arena), "seed 3 is clean");
    }

    /// A seed whose plan has a top-level raise by thread 0 plus plenty of
    /// reducible structure around it.
    fn raising_plan() -> ScenarioPlan {
        let cfg = ScenarioConfig::default();
        for seed in 0..4000 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            let raising = plan
                .top
                .iter()
                .any(|a| has_zero_raise(a) && !a.phases.is_empty());
            if raising && plan.threads >= 3 && plan.actions().len() >= 3 {
                return plan;
            }
        }
        panic!("no seed with a rich raising workload in range");
    }

    /// The synthetic "bug": some top-level action raises via thread 0,
    /// and at least 2 threads participate.
    fn has_zero_raise(a: &ActionPlan) -> bool {
        a.raise
            .as_ref()
            .is_some_and(|r| r.raisers.iter().any(|&(t, _)| t == 0))
    }

    fn zero_raise_bug(p: &ScenarioPlan) -> bool {
        p.threads >= 2 && p.top.iter().any(has_zero_raise)
    }

    #[test]
    fn workload_bisection_reaches_the_known_minimal_plan() {
        let plan = raising_plan();
        let outcome = bisect_workload(&plan, zero_raise_bug).expect("full plan violates");
        let min = &outcome.plan;
        // The 1-minimal plan for this predicate: one top-level action,
        // two threads, no phases, no chaos schedule, and a raise that is
        // exactly thread 0.
        assert_eq!(min.top.len(), 1, "{}", min.describe());
        assert_eq!(min.threads, 2, "{}", min.describe());
        assert!(min.crashes.is_empty());
        assert!(min.faults.is_empty());
        assert!(min.top[0].phases.is_empty(), "{}", min.describe());
        let raise = min.top[0].raise.as_ref().expect("raise survives");
        assert_eq!(raise.raisers.len(), 1);
        assert_eq!(raise.raisers[0].0, 0);
        // 1-minimality: every still-applicable step breaks the predicate.
        for step in workload_candidates(min) {
            if let Some(candidate) = apply_step(min, &step) {
                assert!(
                    !zero_raise_bug(&candidate),
                    "reduction {} kept the violation",
                    step.render()
                );
            }
        }
        // The recorded steps replay the reduction exactly.
        let replayed = apply_steps(&plan, &outcome.steps).expect("steps replay");
        assert_eq!(format!("{replayed:?}"), format!("{min:?}"));
    }

    #[test]
    fn workload_steps_round_trip_through_text() {
        let steps = vec![
            WorkloadStep::DropCrash(1),
            WorkloadStep::DropFault(2),
            WorkloadStep::DropTopAction(1),
            WorkloadStep::DropLastThread,
            WorkloadStep::DropRaise {
                action: "a0.1".into(),
            },
            WorkloadStep::DropRaiser {
                action: "a0".into(),
                raiser: 1,
            },
            WorkloadStep::DropPhase {
                action: "a1".into(),
                phase: 2,
            },
            WorkloadStep::DropChild {
                action: "a0".into(),
                phase: 1,
                child: 0,
            },
            WorkloadStep::DropObjectOp {
                action: "a0.0".into(),
                phase: 0,
                op: 2,
            },
        ];
        assert_eq!(parse_steps(&render_steps(&steps)), Ok(steps));
        assert!(WorkloadStep::parse("drop-everything").is_err());
        assert!(WorkloadStep::parse("drop-fault x").is_err());
        assert!(WorkloadStep::parse("drop-crash x").is_err());
        // The pre-multi-crash form drops the (then unique) crash 0.
        assert_eq!(
            WorkloadStep::parse("drop-crash"),
            Ok(WorkloadStep::DropCrash(0))
        );
    }

    #[test]
    fn workload_reductions_preserve_plan_validity() {
        use crate::plan::validate_plan;
        let cfg = ScenarioConfig::default();
        for seed in 0..40 {
            let plan = ScenarioPlan::generate(seed, &cfg);
            for step in workload_candidates(&plan) {
                if let Some(reduced) = apply_step(&plan, &step) {
                    // Top-level groups must track the (possibly reduced)
                    // thread count; everything else the validator checks
                    // must survive any single reduction.
                    validate_plan(&reduced)
                        .unwrap_or_else(|e| panic!("seed {seed}, step {}: {e}", step.render()));
                }
            }
        }
    }

    #[test]
    fn workload_entry_persists_the_step_sequence() {
        let plan = raising_plan();
        let outcome = bisect_workload(&plan, zero_raise_bug).expect("violates");
        let dir = std::env::temp_dir().join(format!("caa-workload-test-{}", std::process::id()));
        let entry = write_workload_entry(&dir, &outcome).expect("persist");
        let text = std::fs::read_to_string(entry.join("workload.txt")).unwrap();
        assert_eq!(parse_steps(&text), Ok(outcome.steps.clone()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
