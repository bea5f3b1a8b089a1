//! Nested CA actions: exception signalling over nesting levels (§3.1,
//! Figure 2) and the abortion cascade (§3.3.1, Figure 4).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::secs;
use caa_exgraph::ExceptionGraphBuilder;
use caa_runtime::{ActionDef, System};
use caa_simnet::LatencyModel;

/// Figure 2's shape: T1..T4 in the enclosing action; T2, T3 enter a nested
/// action; an exception raised in the nested action is handled there, or
/// signalled up and handled by all four.
#[test]
fn signalled_exception_is_raised_in_enclosing_action() {
    let enclosing_handled = Arc::new(AtomicU32::new(0));
    let graph_outer = ExceptionGraphBuilder::new()
        .primitive("NESTED_FAIL")
        .build()
        .unwrap();
    let graph_inner = ExceptionGraphBuilder::new()
        .primitive("inner_e")
        .build()
        .unwrap();

    let mut outer_builder = ActionDef::builder("outer")
        .role("t1", 0u32)
        .role("t2", 1u32)
        .role("t3", 2u32)
        .role("t4", 3u32)
        .graph(graph_outer)
        .interface(["OUTER_GAVE_UP"]);
    for role in ["t1", "t2", "t3", "t4"] {
        let h = Arc::clone(&enclosing_handled);
        outer_builder = outer_builder.handler(role, "NESTED_FAIL", async move |_| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer_builder.build().unwrap();

    // The nested action's handler cannot recover: it signals NESTED_FAIL.
    let nested = ActionDef::builder("nested")
        .role("n2", 1u32)
        .role("n3", 2u32)
        .graph(graph_inner)
        .interface(["NESTED_FAIL"])
        .handler("n2", "inner_e", async |_| {
            Ok(HandlerVerdict::Signal(ExceptionId::new("NESTED_FAIL")))
        })
        .handler("n3", "inner_e", async |_| {
            Ok(HandlerVerdict::Signal(ExceptionId::new("NESTED_FAIL")))
        })
        .build()
        .unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(0.1)))
        .seed(5)
        .build();
    let o1 = outer.clone();
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&o1, "t1", async |rc| rc.work(secs(20.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    for (name, orole, nrole) in [("T2", "t2", "n2"), ("T3", "t3", "n3")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, async move |ctx| {
            let outcome = ctx
                .enter(&o, &orole, async |rc| {
                    rc.work(secs(0.5)).await?;
                    // Entering the nested action; its failure signals
                    // NESTED_FAIL, which auto-raises here — so control never
                    // reaches the line after `enter` on the raising path.
                    let nested_outcome = rc
                        .enter(&n, &nrole, async |nc| {
                            nc.work(secs(0.2)).await?;
                            if nrole == "n2" {
                                nc.raise(Exception::new("inner_e"))?;
                            } else {
                                nc.work(secs(5.0)).await?;
                            }
                            Ok(())
                        })
                        .await?;
                    // Unreachable on the failure path: the signalled exception
                    // is raised in this (enclosing) action instead.
                    assert_eq!(nested_outcome, ActionOutcome::Success);
                    Ok(())
                })
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
            Ok(())
        });
    }
    let o4 = outer;
    sys.spawn("T4", async move |ctx| {
        let outcome = ctx
            .enter(&o4, "t4", async |rc| rc.work(secs(20.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        enclosing_handled.load(Ordering::SeqCst),
        4,
        "all four enclosing roles handle the signalled exception"
    );
}

/// Figure 4's scenario: an exception in the containing action aborts the
/// nested action; the abortion handler raises E3; the resolving exception
/// covers both E1 and E3; all four threads handle it.
#[test]
fn enclosing_exception_aborts_nested_action_with_abort_exception() {
    let handled = Arc::new(Mutex::new(Vec::new()));
    let aborted = Arc::new(AtomicU32::new(0));

    let graph_outer = ExceptionGraphBuilder::new()
        .resolves("E1∩E3", ["E1", "E3"])
        .build()
        .unwrap();

    let mut outer_builder = ActionDef::builder("outer")
        .role("t1", 0u32)
        .role("t2", 1u32)
        .role("t3", 2u32)
        .role("t4", 3u32)
        .graph(graph_outer);
    for role in ["t1", "t2", "t3", "t4"] {
        let h = Arc::clone(&handled);
        let role_name = role.to_owned();
        outer_builder = outer_builder.handler(role, "E1∩E3", async move |_| {
            h.lock().unwrap().push(role_name.clone());
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer_builder.build().unwrap();

    let ab2 = Arc::clone(&aborted);
    let ab3 = Arc::clone(&aborted);
    let nested = ActionDef::builder("nested")
        .role("n2", 1u32)
        .role("n3", 2u32)
        // T2's abortion handler raises E3 in the containing action.
        .abort_handler("n2", async move |_| {
            ab2.fetch_add(1, Ordering::SeqCst);
            Ok(Some(Exception::new("E3")))
        })
        .abort_handler("n3", async move |_| {
            ab3.fetch_add(1, Ordering::SeqCst);
            Ok(None)
        })
        .build()
        .unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .build();

    // T1 raises E1 in the containing action while T2 and T3 are deep in the
    // nested action.
    let o1 = outer.clone();
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&o1, "t1", async |rc| {
                rc.work(secs(1.0)).await?;
                rc.raise(Exception::new("E1"))
            })
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    for (name, orole, nrole) in [("T2", "t2", "n2"), ("T3", "t3", "n3")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, async move |ctx| {
            let outcome = ctx
                .enter(&o, &orole, async |rc| {
                    rc.work(secs(0.2)).await?;
                    rc.enter(&n, &nrole, async |nc| nc.work(secs(60.0)).await)
                        .await?;
                    Ok(())
                })
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
            Ok(())
        });
    }
    let o4 = outer;
    sys.spawn("T4", async move |ctx| {
        let outcome = ctx
            .enter(&o4, "t4", async |rc| rc.work(secs(60.0)).await)
            .await?;
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });

    let report = sys.run();
    report.expect_ok();
    assert_eq!(aborted.load(Ordering::SeqCst), 2, "both nested roles abort");
    let mut log = handled.lock().unwrap().clone();
    log.sort_unstable();
    assert_eq!(
        log,
        ["t1", "t2", "t3", "t4"],
        "the resolving exception covering E1 and E3 reaches every thread"
    );
    assert_eq!(report.runtime_stats.aborts, 2);
    assert!(
        report.elapsed_secs() < 30.0,
        "the nested 60 s bodies must have been aborted, elapsed {}",
        report.elapsed_secs()
    );
}

/// Two nesting levels: an exception at the top aborts both nested levels;
/// abortion handlers run innermost-first and only the outermost nested
/// action's Eab is raised in the containing action (§3.3.1).
#[test]
fn abort_cascade_runs_innermost_first_and_keeps_only_top_eab() {
    let order = Arc::new(Mutex::new(Vec::new()));
    let raised_in_outer = Arc::new(Mutex::new(Vec::new()));

    let graph_outer = ExceptionGraphBuilder::new()
        .resolves("TOP∩MID_AB", ["TOP", "MID_AB"])
        .exception("INNER_AB")
        .build()
        .unwrap();
    let mut outer_builder = ActionDef::builder("outer")
        .role("t0", 0u32)
        .role("t1", 1u32)
        .graph(graph_outer);
    for role in ["t0", "t1"] {
        let r = Arc::clone(&raised_in_outer);
        outer_builder = outer_builder.fallback_handler(role, async move |ctx| {
            r.lock()
                .unwrap()
                .push(ctx.handling().unwrap().name().to_owned());
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer_builder.build().unwrap();

    let o_mid = Arc::clone(&order);
    let mid = ActionDef::builder("mid")
        .role("m1", 1u32)
        .abort_handler("m1", async move |_| {
            o_mid.lock().unwrap().push("mid");
            Ok(Some(Exception::new("MID_AB")))
        })
        .build()
        .unwrap();
    let o_inner = Arc::clone(&order);
    let inner = ActionDef::builder("inner")
        .role("i1", 1u32)
        .abort_handler("i1", async move |_| {
            o_inner.lock().unwrap().push("inner");
            // This Eab must be superseded by the mid level's (§3.3.1:
            // "only the exception signalled by abortion handlers of action
            // Ai+1 is allowed to be raised in the containing action Ai").
            Ok(Some(Exception::new("INNER_AB")))
        })
        .build()
        .unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .build();
    let o0 = outer.clone();
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&o0, "t0", async |rc| {
            rc.work(secs(1.0)).await?;
            rc.raise(Exception::new("TOP"))
        })
        .await
        .map(|_| ())
    });
    sys.spawn("T1", async move |ctx| {
        ctx.enter(&outer, "t1", async |rc| {
            rc.enter(&mid, "m1", async |mc| {
                mc.enter(&inner, "i1", async |ic| ic.work(secs(60.0)).await)
                    .await?;
                Ok(())
            })
            .await?;
            Ok(())
        })
        .await
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        order.lock().unwrap().as_slice(),
        ["inner", "mid"],
        "abortion handlers run innermost-first"
    );
    let raised = raised_in_outer.lock().unwrap().clone();
    assert_eq!(
        raised,
        ["TOP∩MID_AB", "TOP∩MID_AB"],
        "resolution must cover TOP and MID_AB (not INNER_AB): got {raised:?}"
    );
}

/// A nested action whose recovery is already in progress is still aborted
/// by an enclosing exception ("an exception in an enclosing action will
/// simply stop or abort any activity of its nested actions (including any
/// nested resolution in progress and execution of any handlers)").
#[test]
fn enclosing_exception_aborts_nested_recovery_in_progress() {
    let nested_handler_done = Arc::new(AtomicU32::new(0));
    let outer_handled = Arc::new(AtomicU32::new(0));

    let graph_outer = ExceptionGraphBuilder::new()
        .primitive("TOP")
        .build()
        .unwrap();
    let mut outer_builder = ActionDef::builder("outer")
        .role("t0", 0u32)
        .role("t1", 1u32)
        .role("t2", 2u32)
        .graph(graph_outer);
    for role in ["t0", "t1", "t2"] {
        let h = Arc::clone(&outer_handled);
        outer_builder = outer_builder.fallback_handler(role, async move |_| {
            h.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer_builder.build().unwrap();

    let graph_inner = ExceptionGraphBuilder::new()
        .primitive("inner_e")
        .build()
        .unwrap();
    let nh1 = Arc::clone(&nested_handler_done);
    let nh2 = Arc::clone(&nested_handler_done);
    let nested = ActionDef::builder("nested")
        .role("n1", 1u32)
        .role("n2", 2u32)
        .graph(graph_inner)
        // Nested handlers are slow: the enclosing exception lands while
        // they run and must abort them.
        .handler("n1", "inner_e", async move |hc| {
            hc.work(secs(30.0)).await?;
            nh1.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .handler("n2", "inner_e", async move |hc| {
            hc.work(secs(30.0)).await?;
            nh2.fetch_add(1, Ordering::SeqCst);
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .unwrap();

    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.1)))
        .build();
    let o0 = outer.clone();
    sys.spawn("T0", async move |ctx| {
        ctx.enter(&o0, "t0", async |rc| {
            // Raise in the containing action while the nested recovery is
            // under way.
            rc.work(secs(2.0)).await?;
            rc.raise(Exception::new("TOP"))
        })
        .await
        .map(|_| ())
    });
    for (name, orole, nrole) in [("T1", "t1", "n1"), ("T2", "t2", "n2")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, async move |ctx| {
            ctx.enter(&o, &orole, async |rc| {
                rc.enter(&n, &nrole, async |nc| {
                    nc.work(secs(0.5)).await?;
                    if nrole == "n1" {
                        nc.raise(Exception::new("inner_e"))?;
                    }
                    nc.work(secs(60.0)).await
                })
                .await?;
                Ok(())
            })
            .await
            .map(|_| ())
        });
    }
    let report = sys.run();
    report.expect_ok();
    assert_eq!(outer_handled.load(Ordering::SeqCst), 3);
    assert_eq!(
        nested_handler_done.load(Ordering::SeqCst),
        0,
        "nested handlers must have been aborted mid-execution"
    );
    assert!(report.elapsed_secs() < 30.0);
}

/// A fully successful nested action: the enclosing action never notices.
#[test]
fn successful_nested_action_is_transparent() {
    let outer = ActionDef::builder("outer")
        .role("t0", 0u32)
        .role("t1", 1u32)
        .build()
        .unwrap();
    let nested = ActionDef::builder("nested")
        .role("n0", 0u32)
        .role("n1", 1u32)
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    for (name, orole, nrole) in [("T0", "t0", "n0"), ("T1", "t1", "n1")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, async move |ctx| {
            let outcome = ctx
                .enter(&o, &orole, async |rc| {
                    let inner_outcome = rc
                        .enter(&n, &nrole, async |nc| nc.work(secs(1.0)).await)
                        .await?;
                    assert_eq!(inner_outcome, ActionOutcome::Success);
                    rc.work(secs(0.5)).await
                })
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
            Ok(())
        });
    }
    let report = sys.run();
    report.expect_ok();
    assert_eq!(report.runtime_stats.recoveries, 0);
    assert_eq!(report.runtime_stats.aborts, 0);
}

/// µ from a nested action is raised as an exception in the enclosing
/// action, whose handler can recover (e.g. by retrying differently).
#[test]
fn nested_undo_exception_is_handled_by_enclosing() {
    let outer_saw = Arc::new(Mutex::new(Vec::new()));
    let graph_outer = ExceptionGraphBuilder::new()
        .exception(ExceptionId::undo())
        .build()
        .unwrap();
    let mut outer_builder = ActionDef::builder("outer")
        .role("t0", 0u32)
        .role("t1", 1u32)
        .graph(graph_outer);
    for role in ["t0", "t1"] {
        let s = Arc::clone(&outer_saw);
        outer_builder = outer_builder.fallback_handler(role, async move |ctx| {
            s.lock()
                .unwrap()
                .push(ctx.handling().unwrap().name().to_owned());
            Ok(HandlerVerdict::Recovered)
        });
    }
    let outer = outer_builder.build().unwrap();
    let graph_inner = ExceptionGraphBuilder::new()
        .primitive("broken")
        .build()
        .unwrap();
    let nested = ActionDef::builder("nested")
        .role("n0", 0u32)
        .role("n1", 1u32)
        .graph(graph_inner)
        .handler("n0", "broken", async |_| Ok(HandlerVerdict::Undo))
        .handler("n1", "broken", async |_| Ok(HandlerVerdict::Undo))
        .build()
        .unwrap();
    let mut sys = System::builder().build();
    for (name, orole, nrole) in [("T0", "t0", "n0"), ("T1", "t1", "n1")] {
        let o = outer.clone();
        let n = nested.clone();
        let orole = orole.to_owned();
        let nrole = nrole.to_owned();
        sys.spawn(name, async move |ctx| {
            let outcome = ctx
                .enter(&o, &orole, async |rc| {
                    rc.enter(&n, &nrole, async |nc| {
                        nc.work(secs(0.1)).await?;
                        if nrole == "n0" {
                            nc.raise(Exception::new("broken"))?;
                        }
                        nc.work(secs(10.0)).await
                    })
                    .await?;
                    Ok(())
                })
                .await?;
            assert_eq!(outcome, ActionOutcome::Success);
            Ok(())
        });
    }
    let report = sys.run();
    report.expect_ok();
    let saw = outer_saw.lock().unwrap().clone();
    assert_eq!(saw.len(), 2);
    assert!(
        saw.iter().all(|s| s == caa_core::exception::UNDO_NAME),
        "enclosing handlers must see µ: {saw:?}"
    );
}
