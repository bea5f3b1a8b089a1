//! `metrics_merge` — union sharded sweeps' `metrics.json` documents.
//!
//! A sweep split across CI jobs or machines with `--shard k/n` produces
//! one `metrics.json` per shard. This tool merges them into the document
//! the unsharded sweep would have produced: histogram buckets sum
//! exactly, counters sum, seed counts add — so the merged p50/p99 are
//! identical to the unsharded run's, byte for byte.
//!
//! ```text
//! cargo run -p caa-bench --release --bin metrics_merge -- \
//!     shard0/metrics.json shard1/metrics.json ... [--out merged.json]
//! ```
//!
//! The merged document carries the deterministic and `critical_path`
//! sections only: the `wall_clock` counters (driver stage timers, plus
//! the executor's park/wake counts) measure the host and the executor,
//! not the protocol, so they are dropped rather than summed. That normalization makes
//! merge-equality a byte equality: merging the 4 shard documents equals
//! merging the single unsharded document.

use caa_harness::metrics::{metrics_json, parse_metrics_json, SweepMetrics};
use caa_telemetry::json::MergeCli;

fn main() {
    let usage = "usage: metrics_merge <metrics.json>... [--out PATH]";
    let cli = MergeCli::parse(std::env::args().skip(1), &[]).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2);
    });
    let merged = cli
        .fold(
            |text| {
                let (seeds, metrics) = parse_metrics_json(text)?;
                Ok((seeds, metrics))
            },
            |(seeds, metrics): &mut (u64, SweepMetrics), (s, m)| {
                *seeds += s;
                metrics.merge(&m);
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(2);
        });
    let (seeds_total, merged) = merged;
    cli.emit(&metrics_json(&merged, seeds_total, false))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    eprint!("{}", merged.summary());
}
