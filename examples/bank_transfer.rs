//! Coordinated µ/ƒ semantics in a two-bank transfer.
//!
//! ```text
//! cargo run --example bank_transfer
//! ```
//!
//! Two banks perform a transfer inside a CA action over transactional
//! account objects. Run 1: the receiving bank detects a compliance problem
//! and requests **undo (µ)** — both banks' effects roll back atomically.
//! Run 2: the money has already been handed to an irreversible cash
//! dispenser, so undo is impossible and the action signals **failure (ƒ)**,
//! leaving the dispenser tainted for the enclosing context to handle.

use caa::core::exception::Exception;
use caa::core::outcome::{ActionOutcome, HandlerVerdict};
use caa::core::time::secs;
use caa::exgraph::ExceptionGraphBuilder;
use caa::runtime::objects::irreversible;
use caa::runtime::{ActionDef, SharedObject, System};

fn transfer_action(undoable: bool) -> (ActionDef, SharedObject<i64>, SharedObject<i64>) {
    let graph = ExceptionGraphBuilder::new()
        .primitive("compliance_hold")
        .build()
        .expect("graph");
    let source = SharedObject::new("source_account", 1_000i64);
    let dest: SharedObject<i64> = if undoable {
        SharedObject::new("dest_account", 50)
    } else {
        irreversible("cash_dispenser", 50)
    };
    let action = ActionDef::builder("transfer")
        .role("debit", 0u32)
        .role("credit", 1u32)
        .graph(graph)
        // The receiving side cannot recover: it requests undo.
        .handler("credit", "compliance_hold", async |_| {
            Ok(HandlerVerdict::Undo)
        })
        .handler("debit", "compliance_hold", async |_| {
            Ok(HandlerVerdict::Recovered)
        })
        .build()
        .expect("definition");
    (action, source, dest)
}

fn run(undoable: bool) -> ActionOutcome {
    let (action, source, dest) = transfer_action(undoable);
    let mut sys = System::builder().build();
    let (a, src) = (action.clone(), source.clone());
    let mut outcome_seen = ActionOutcome::Success;
    let (tx, rx) = std::sync::mpsc::channel();
    sys.spawn("bank_a", async move |ctx| {
        let outcome = ctx
            .enter(&a, "debit", async |rc| {
                rc.update(&src, |b| *b -= 200).await?;
                rc.work(secs(5.0)).await
            })
            .await?;
        tx.send(outcome).ok();
        Ok(())
    });
    let d = dest.clone();
    sys.spawn("bank_b", async move |ctx| {
        ctx.enter(&action, "credit", async |rc| {
            rc.update(&d, |b| *b += 200).await?;
            rc.work(secs(0.5)).await?;
            // Compliance check fails after the credit was applied.
            rc.raise(Exception::new("compliance_hold"))
        })
        .await
        .map(|_| ())
    });
    sys.run().expect_ok();
    if let Ok(o) = rx.try_recv() {
        outcome_seen = o;
    }
    println!(
        "  source balance: {:>5}   destination balance: {:>5}   tainted: {}",
        source.committed(),
        dest.committed(),
        dest.is_tainted()
    );
    outcome_seen
}

fn main() {
    println!("run 1: both accounts undoable — µ rolls everything back");
    let outcome = run(true);
    println!("  outcome for the debit side: {outcome}");
    assert_eq!(outcome, ActionOutcome::Undone);

    println!();
    println!("run 2: destination is a cash dispenser — undo impossible, ƒ signalled");
    let outcome = run(false);
    println!("  outcome for the debit side: {outcome}");
    assert_eq!(outcome, ActionOutcome::Failed);
}
