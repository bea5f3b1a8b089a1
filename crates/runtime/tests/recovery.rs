//! End-to-end tests of the resolution algorithm (§3.3.2) inside the full
//! runtime: raising, informing, suspending, resolving and handling.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::secs;
use caa_exgraph::ExceptionGraphBuilder;
use caa_runtime::{ActionDef, System};
use caa_simnet::LatencyModel;

fn two_exc_graph() -> caa_exgraph::ExceptionGraph {
    ExceptionGraphBuilder::new()
        .resolves("e1∩e2", ["e1", "e2"])
        .build()
        .unwrap()
}

#[test]
fn solo_action_completes() {
    let mut sys = System::builder().build();
    let action = ActionDef::builder("solo")
        .role("only", 0u32)
        .build()
        .unwrap();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&action, "only", async |rc| rc.work(secs(1.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert!(report.elapsed_secs() >= 1.0);
    assert_eq!(report.runtime_stats.recoveries, 0);
}

#[test]
fn solo_action_raise_resolves_to_itself() {
    let handled: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&handled);
    let graph = ExceptionGraphBuilder::new()
        .primitive("oops")
        .build()
        .unwrap();
    let action = ActionDef::builder("solo")
        .role("only", 0u32)
        .graph(graph)
        .handler("only", "oops", async move |ctx| {
            log.lock().unwrap().push(format!(
                "handling {} in {}",
                ctx.handling().unwrap(),
                ctx.action_name().unwrap()
            ));
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&action, "only", async |rc| rc.raise(Exception::new("oops")))
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.run().expect_ok();
    assert_eq!(
        handled.lock().unwrap().as_slice(),
        ["handling oops in solo"]
    );
}

#[test]
fn peer_is_informed_and_both_handle_same_exception() {
    let handled = Arc::new(Mutex::new(Vec::new()));
    let (l0, l1) = (Arc::clone(&handled), Arc::clone(&handled));
    let graph = ExceptionGraphBuilder::new()
        .primitive("e1")
        .build()
        .unwrap();
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph)
        .handler("a", "e1", async move |_| {
            l0.lock().unwrap().push("a");
            Ok(HandlerVerdict::Recovered)
        })
        .handler("b", "e1", async move |_| {
            l1.lock().unwrap().push("b");
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| {
                rc.work(secs(0.1)).await?;
                rc.raise(Exception::new("e1"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        // The body would run for 100 virtual seconds; the peer's exception
        // interrupts it at the next poll point.
        let outcome = ctx
            .enter(&action, "b", async |rc| {
                for _ in 0..1000 {
                    rc.work(secs(0.1)).await?;
                }
                Ok(())
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    let mut log = handled.lock().unwrap().clone();
    log.sort_unstable();
    assert_eq!(log, ["a", "b"], "both roles must run their handler");
    assert!(
        report.elapsed_secs() < 50.0,
        "T1 must have been interrupted early, elapsed {}",
        report.elapsed_secs()
    );
    assert_eq!(report.runtime_stats.recoveries, 2);
    assert_eq!(report.runtime_stats.resolutions_invoked, 1);
}

#[test]
fn concurrent_exceptions_resolve_to_covering_exception() {
    let handled = Arc::new(Mutex::new(Vec::new()));
    let (l0, l1) = (Arc::clone(&handled), Arc::clone(&handled));
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(two_exc_graph())
        .handler("a", "e1∩e2", async move |_| {
            l0.lock().unwrap().push("a:e1∩e2");
            Ok(HandlerVerdict::Recovered)
        })
        .handler("b", "e1∩e2", async move |_| {
            l1.lock().unwrap().push("b:e1∩e2");
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.2)))
        .build();
    let a = action.clone();
    // Both raise at (nearly) the same time: neither can see the other's
    // exception before raising its own.
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&a, "a", async |rc| {
            rc.work(secs(0.1)).await?;
            rc.raise(Exception::new("e1"))
        })
        .await
        .map(|_| ())
    });
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&action, "b", async |rc| {
            rc.work(secs(0.1)).await?;
            rc.raise(Exception::new("e2"))
        })
        .await
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    let mut log = handled.lock().unwrap().clone();
    log.sort_unstable();
    assert_eq!(
        log,
        ["a:e1∩e2", "b:e1∩e2"],
        "both must handle the resolving exception, not their own"
    );
    assert_eq!(report.runtime_stats.resolutions_invoked, 1);
}

#[test]
fn three_threads_mixed_raise_and_suspend() {
    let handled = Arc::new(AtomicU32::new(0));
    let graph = ExceptionGraphBuilder::new()
        .resolves("both", ["x", "y"])
        .build()
        .unwrap();
    let mut builder = ActionDef::builder("trio")
        .role("r0", 0u32)
        .role("r1", 1u32)
        .role("r2", 2u32)
        .graph(graph);
    for role in ["r0", "r1", "r2"] {
        let h = Arc::clone(&handled);
        builder = builder.handler(role, "both", async move |_| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        });
    }
    let action = builder.build().unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(0.5)))
        .seed(11)
        .build();
    let (a0, a1, a2) = (action.clone(), action.clone(), action);
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&a0, "r0", async |rc| {
            rc.work(secs(0.2)).await?;
            rc.raise(Exception::new("x"))
        })
        .await
        .map(|_| ())
    });
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&a1, "r1", async |rc| {
            rc.work(secs(30.0)).await // bystander: suspended by the others
        })
        .await
        .map(|_| ())
    });
    sys.spawn("T2", async move |ctx| {
        ctx.enter(&a2, "r2", async |rc| {
            rc.work(secs(0.2)).await?;
            rc.raise(Exception::new("y"))
        })
        .await
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(handled.load(Ordering::SeqCst), 3);
    assert_eq!(report.runtime_stats.resolutions_invoked, 1);
    assert_eq!(report.runtime_stats.recoveries, 3);
}

#[test]
fn resolution_delay_is_charged_once() {
    // Treso = 5s; one recovery must cost one Treso on the critical path.
    let graph = ExceptionGraphBuilder::new().primitive("e").build().unwrap();
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph)
        .handler("a", "e", async |_| Ok(HandlerVerdict::Recovered))
        .handler("b", "e", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.01)))
        .resolution_delay(secs(5.0))
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&a, "a", async |rc| rc.raise(Exception::new("e")))
            .await
            .map(|_| ())
    });
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&action, "b", async |rc| rc.work(secs(60.0)).await)
            .await
            .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert!(
        report.elapsed_secs() >= 5.0 && report.elapsed_secs() < 11.0,
        "one Treso on the critical path, got {}",
        report.elapsed_secs()
    );
}

#[test]
fn unhandled_exception_is_signalled_to_the_caller() {
    // No handler for "e": the default policy propagates it (§2.1), so the
    // top-level outcome is Signalled(e).
    let graph = ExceptionGraphBuilder::new().primitive("e").build().unwrap();
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph)
        .interface(["e"])
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| rc.raise(Exception::new("e")))
            .await?;
        assert_eq!(outcome, ActionOutcome::Signalled(ExceptionId::new("e")));
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Signalled(ExceptionId::new("e")));
        Ok(())
    });
    sys.run().expect_ok();
}

#[test]
fn undeclared_exception_resolves_to_universal_and_undoes() {
    // "other undefined exceptions will not be resolved and simply lead to
    // the raising of the universal exception" (§4); with no universal
    // handler the default verdict is Undo, so the action reports µ.
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "a", async |rc| {
                rc.raise(Exception::new("never_declared"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Undone);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| rc.work(secs(10.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Undone);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(report.runtime_stats.undo_rounds, 2);
}

#[test]
fn exception_during_exit_vote_window_still_recovers() {
    // T0 finishes its body immediately and votes to leave; T1 raises while
    // T0 waits. T0 must join the recovery and handle the exception.
    let handled = Arc::new(AtomicU32::new(0));
    let (h0, h1) = (Arc::clone(&handled), Arc::clone(&handled));
    let graph = ExceptionGraphBuilder::new()
        .primitive("late")
        .build()
        .unwrap();
    let action = ActionDef::builder("pair")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph)
        .handler("a", "late", async move |_| {
            h0.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .handler("b", "late", async move |_| {
            h1.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        // Empty body: votes for exit immediately.
        let outcome = ctx.enter(&a, "a", async |_| Ok(())).await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "b", async |rc| {
                rc.work(secs(2.0)).await?;
                rc.raise(Exception::new("late"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(handled.load(Ordering::SeqCst), 2);
}

#[test]
fn repeated_action_instances_are_isolated() {
    // The same definition entered in a loop: each iteration is a fresh
    // instance; recovery in one must not leak into the next.
    let graph = ExceptionGraphBuilder::new()
        .primitive("glitch")
        .build()
        .unwrap();
    let action = ActionDef::builder("loop")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph)
        .handler("a", "glitch", async |_| Ok(HandlerVerdict::Recovered))
        .handler("b", "glitch", async |_| Ok(HandlerVerdict::Recovered))
        .build()
        .unwrap();
    let iterations = 5u32;
    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(0.2)))
        .seed(3)
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        for i in 0..iterations {
            let outcome = ctx
                .enter(&a, "a", async |rc| {
                    rc.work(secs(0.1)).await?;
                    if i % 2 == 0 {
                        rc.raise(Exception::new("glitch"))?;
                    }
                    Ok(())
                })
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
        }
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        for _ in 0..iterations {
            let outcome = ctx
                .enter(&action, "b", async |rc| rc.work(secs(0.3)).await)
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
        }
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    // Three raising iterations, two participants each.
    assert_eq!(report.runtime_stats.recoveries, 6);
    assert_eq!(report.runtime_stats.resolutions_invoked, 3);
}

#[test]
fn cooperation_via_role_messages() {
    let action = ActionDef::builder("converse")
        .role("ping", 0u32)
        .role("pong", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .build();
    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "ping", async |rc| {
                rc.send_to_role("pong", "data", 21u64)?;
                let reply = rc.recv_app().await?;
                assert_eq!(reply.tag, "result");
                assert_eq!(reply.payload.downcast::<u64>().unwrap(), 42);
                Ok(())
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&action, "pong", async |rc| {
            let msg = rc.recv_app().await?;
            let n = msg.payload.downcast::<u64>().unwrap();
            rc.send_to_role("ping", "result", n * 2)?;
            Ok(())
        })
        .await
        .map(|_| ())
    });
    sys.run().expect_ok();
}

#[test]
fn raise_outside_action_is_fatal() {
    let mut sys = System::builder().build();
    sys.spawn("T0", async move |ctx| ctx.raise(Exception::new("nowhere")));
    let report = sys.run();
    assert!(!report.is_ok());
    let err = report.results[0].1.as_ref().unwrap_err();
    assert!(err.to_string().contains("requires an active CA action"));
}

#[test]
fn wrong_thread_for_role_is_fatal() {
    let action = ActionDef::builder("x").role("r", 5u32).build().unwrap();
    let mut sys = System::builder().build();
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&action, "r", async |_| Ok(())).await.map(|_| ())
    });
    let report = sys.run();
    assert!(!report.is_ok());
}
