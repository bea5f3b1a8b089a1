//! Quickstart: two cooperating roles, one exception, coordinated recovery.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A `calibrate` CA action has two roles on two (simulated) nodes. The
//! driver raises `sensor_glitch` mid-way; the runtime informs the monitor,
//! both transfer control to their handlers for the resolved exception, and
//! the action still exits successfully after forward recovery.

use caa::core::exception::Exception;
use caa::core::outcome::{ActionOutcome, HandlerVerdict};
use caa::core::time::secs;
use caa::exgraph::ExceptionGraphBuilder;
use caa::runtime::{ActionDef, System};
use caa::simnet::LatencyModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = ExceptionGraphBuilder::new()
        .primitive("sensor_glitch")
        .build()?;

    let action = ActionDef::builder("calibrate")
        .role("driver", 0u32)
        .role("monitor", 1u32)
        .graph(graph)
        .handler("driver", "sensor_glitch", async |hc| {
            println!("  [driver ] handling {}", hc.handling().unwrap());
            hc.work(secs(0.2)).await?; // re-zero the sensor
            Ok(HandlerVerdict::Recovered)
        })
        .handler("monitor", "sensor_glitch", async |hc| {
            println!("  [monitor] handling {}", hc.handling().unwrap());
            Ok(HandlerVerdict::Recovered)
        })
        .build()?;

    let mut sys = System::builder()
        .latency(LatencyModel::UniformUpTo(secs(0.05)))
        .seed(1)
        .resolution_delay(secs(0.01))
        .build();

    let a = action.clone();
    sys.spawn("T0", async move |ctx| {
        let outcome = ctx
            .enter(&a, "driver", async |rc| {
                rc.work(secs(0.5)).await?;
                println!("  [driver ] raising sensor_glitch");
                rc.raise(Exception::new("sensor_glitch"))
            })
            .await?;
        println!("  [driver ] action outcome: {outcome}");
        assert_eq!(outcome, ActionOutcome::Success);
        Ok(())
    });
    sys.spawn("T1", async move |ctx| {
        let outcome = ctx
            .enter(&action, "monitor", async |rc| {
                // Would run for 60 virtual seconds; the driver's exception
                // interrupts it at the next poll point.
                rc.work(secs(60.0)).await
            })
            .await?;
        println!("  [monitor] action outcome: {outcome}");
        Ok(())
    });

    println!("running the calibrate action:");
    let report = sys.run();
    report.expect_ok();
    println!(
        "done in {:.3} virtual seconds; {} resolution message(s), {} recovery(ies)",
        report.elapsed_secs(),
        report.net_stats.sent("Exception")
            + report.net_stats.sent("Suspended")
            + report.net_stats.sent("Commit"),
        report.runtime_stats.recoveries,
    );
    Ok(())
}
