//! The exception-signalling algorithm (§3.4): φ/ε/µ/ƒ coordination, the
//! undo round, irreversible effects, and the lost/corrupted-message
//! extension.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::PartitionId;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::secs;
use caa_exgraph::ExceptionGraphBuilder;
use caa_runtime::objects::irreversible;
use caa_runtime::{ActionDef, SharedObject, System};
use caa_simnet::{FaultPlan, FaultSpec, LatencyModel};

fn graph_with(name: &str) -> caa_exgraph::ExceptionGraph {
    ExceptionGraphBuilder::new()
        .primitive(name)
        .build()
        .unwrap()
}

/// Case 1 of §3.4: no µ or ƒ — each thread signals its own exception; here
/// one signals ε and the other φ.
#[test]
fn mixed_epsilon_and_phi_signals() {
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("e"))
        .interface(["EPS"])
        .handler("a", "e", async |_| {
            Ok(HandlerVerdict::Signal(ExceptionId::new("EPS")))
        })
        .handler("b", "e", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| rc.raise(Exception::new("e")))
            .await?;
        assert_eq!(outcome, ActionOutcome::Signalled(ExceptionId::new("EPS")));
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        // b recovered; from its side the action completed successfully.
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.run().expect_ok();
}

/// Case 2 of §3.4: one thread requests µ; all participants undo and signal
/// µ together. Objects roll back.
#[test]
fn undo_request_rolls_back_all_participants() {
    let obj_a = SharedObject::new("ledger_a", 100i64);
    let obj_b = SharedObject::new("ledger_b", 200i64);
    let action = ActionDef::builder("transfer")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("insufficient"))
        .handler("a", "insufficient", async |_| Ok(HandlerVerdict::Undo))
        .handler("b", "insufficient", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let (a, oa) = (action.clone(), obj_a.clone());
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| {
                rc.update(&oa, |v| *v -= 50).await?;
                rc.raise(Exception::new("insufficient"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Undone);
        Ok(())
    });
    let ob = obj_b.clone();
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| {
                rc.update(&ob, |v| *v += 50).await?;
                rc.work(secs(10.0)).await
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Undone);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(obj_a.committed(), 100, "a's debit undone");
    assert_eq!(obj_b.committed(), 200, "b's credit undone");
    assert_eq!(report.runtime_stats.undo_rounds, 2);
    assert!(!obj_a.is_tainted() && !obj_b.is_tainted());
}

/// Case 2 escalation: an undo fails (irreversible object), so ƒ — not µ —
/// is signalled by *every* participant after the second exchange.
#[test]
fn failed_undo_escalates_to_failure_for_all() {
    let reversible = SharedObject::new("memo", 0u32);
    let forged = irreversible("forge", 0u32);
    let action = ActionDef::builder("press_cycle")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("jam"))
        .handler("a", "jam", async |_| Ok(HandlerVerdict::Undo))
        .handler("b", "jam", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let (a, rev) = (action.clone(), reversible.clone());
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| {
                rc.update(&rev, |v| *v = 7).await?;
                rc.raise(Exception::new("jam"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed, "ƒ dominates µ");
        Ok(())
    });
    let fo = forged.clone();
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| {
                // The forging cannot be undone.
                rc.update(&fo, |v| *v = 1).await?;
                rc.work(secs(10.0)).await
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert!(forged.is_tainted(), "ƒ leaves the forge effects visible");
    assert_eq!(forged.committed(), 1);
    assert_eq!(report.runtime_stats.undo_rounds, 2);
}

/// Case 3 of §3.4: a direct ƒ verdict dominates everything; no undo round
/// is executed.
#[test]
fn direct_failure_dominates_without_undo_round() {
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("fatal"))
        .handler("a", "fatal", async |_| Ok(HandlerVerdict::Fail))
        .handler("b", "fatal", async |_| Ok(HandlerVerdict::Undo))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| rc.raise(Exception::new("fatal")))
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        report.runtime_stats.undo_rounds, 0,
        "ƒ present in round 1: no undo round (§3.4 case 3)"
    );
}

/// The undo hook participates in the undo round; a failing hook turns µ
/// into ƒ.
#[test]
fn undo_hook_failure_turns_undo_into_failure() {
    let hook_ran = Arc::new(AtomicU32::new(0));
    let hr = Arc::clone(&hook_ran);
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("e"))
        .handler("a", "e", async |_| Ok(HandlerVerdict::Undo))
        .handler("b", "e", async |_| Ok(HandlerVerdict::Recovered))
        .undo_hook("b", async move |_| {
            hr.fetch_add(1, Ordering::SeqCst);
            Ok(false) // compensation failed
        })
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| rc.raise(Exception::new("e")))
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Failed);
        Ok(())
    });
    sys.run().expect_ok();
    assert_eq!(hook_ran.load(Ordering::SeqCst), 1);
}

/// §3.4 extension: a lost `toBeSignalled` message is treated as the failure
/// exception when a signalling timeout is configured — "all the threads
/// that run on fault-free nodes can still signal correct, coordinated
/// exceptions".
#[test]
fn lost_signal_message_is_treated_as_failure() {
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("e"))
        .interface(["EPS"])
        .signal_timeout(secs(5.0))
        .handler("a", "e", async |_| {
            Ok(HandlerVerdict::Signal(ExceptionId::new("EPS")))
        })
        .handler("b", "e", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        // Lose T1's toBeSignalled announcement to T0.
        .faults(
            FaultPlan::new().lose(
                FaultSpec::link(PartitionId::new(1), PartitionId::new(0))
                    .class("toBeSignalled")
                    .count(1),
            ),
        )
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| rc.raise(Exception::new("e")))
            .await?;
        assert_eq!(
            outcome,
            ActionOutcome::Failed,
            "missing announcement must be treated as ƒ"
        );
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        // T1's own exchange completes (it received T0's announcement), but
        // T0 times out and announces nothing further; T1 sees a clean
        // round and reports its own signal. Fault-free coordination of the
        // *victim* side is what the extension guarantees.
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        assert!(
            matches!(outcome, ActionOutcome::Success | ActionOutcome::Failed),
            "unexpected outcome {outcome}"
        );
        Ok(())
    });
    sys.run().expect_ok();
}

/// A corrupted message delivered during normal computation raises the
/// action's corruption exception (Figure 7's `l_mes`).
#[test]
fn corrupted_app_message_raises_l_mes() {
    let handled = Arc::new(AtomicU32::new(0));
    let (h0, h1) = (Arc::clone(&handled), Arc::clone(&handled));
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph_with("l_mes"))
        .handler("a", "l_mes", async move |_| {
            h0.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .handler("b", "l_mes", async move |_| {
            h1.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .faults(FaultPlan::new().corrupt(FaultSpec::any().class("App").count(1)))
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| {
                rc.send_to_role("b", "reading", 3u8)?;
                rc.work(secs(10.0)).await
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| {
                let _msg = rc.recv_app().await?;
                rc.work(secs(10.0)).await
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(handled.load(Ordering::SeqCst), 2);
    assert_eq!(report.net_stats.corrupted("App"), 1);
}

/// Competing actions serialize on a shared object: the second action waits
/// until the first commits.
#[test]
fn competing_actions_serialize_on_shared_objects() {
    let resource = SharedObject::new("resource", Vec::<u32>::new());
    let action_a = ActionDef::builder("writer_a")
        .role("w", 0u32)
        .build()
        .unwrap();
    let action_b = ActionDef::builder("writer_b")
        .role("w", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let ra = resource.clone();
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&action_a, "w", async |rc| {
            rc.update(&ra, |v| v.push(1)).await?;
            rc.work(secs(5.0)).await?; // hold the object for 5 s
            rc.update(&ra, |v| v.push(2)).await?;
            Ok(())
        })
        .await
        .map(|_| ())
    });
    let rb = resource.clone();
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&action_b, "w", async |rc| {
            rc.work(secs(1.0)).await?; // start after T0 acquired
            rc.update(&rb, |v| v.push(3)).await?;
            Ok(())
        })
        .await
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        resource.committed(),
        vec![1, 2, 3],
        "B's write must wait for A's action to commit"
    );
}

/// Undone actions must also release shared objects so others can proceed.
#[test]
fn undone_action_releases_objects() {
    let resource = SharedObject::new("resource", 0u32);
    let graph = graph_with("e");
    let failing = ActionDef::builder("failing")
        .role("w", 0u32)
        .graph(graph)
        .handler("w", "e", async |_| Ok(HandlerVerdict::Undo))
        .build()
        .unwrap();
    let succeeding = ActionDef::builder("succeeding")
        .role("w", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let ra = resource.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&failing, "w", async |rc| {
                rc.update(&ra, |v| *v = 99).await?;
                rc.raise(Exception::new("e"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Undone);
        Ok(())
    });
    let rb = resource.clone();
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&succeeding, "w", async |rc| {
            rc.work(secs(1.0)).await?;
            rc.update(&rb, |v| *v += 1).await?;
            Ok(())
        })
        .await
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        resource.committed(),
        1,
        "undo then the successful increment"
    );
}
