//! Trace-renderer microbench: the fingerprint, full rendering and replay
//! comparison of a fixed block of 200 object-heavy traces (seeds 0..200
//! of [`ScenarioConfig::object_heavy`], executed once up front). It
//! isolates the renderer every seed's fingerprint goes through, so a
//! change to it reads here without the run-to-run spread of a whole
//! sweep.
//!
//! ```text
//! cargo bench -p caa-bench --bench trace_render
//! ```

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::trace::Trace;
use criterion::{criterion_group, criterion_main, Criterion};

/// Traces in the block.
const TRACES: u64 = 200;

/// The block: one execution of each seed.
fn block() -> Vec<Trace> {
    let config = ScenarioConfig::object_heavy();
    let mut arena = ExecutionArena::new();
    (0..TRACES)
        .map(|seed| execute_in(&ScenarioPlan::generate(seed, &config), &mut arena).trace)
        .collect()
}

fn bench_trace_render(c: &mut Criterion) {
    let traces = block();
    // A second execution of every seed: what the replay oracle compares.
    let replays = block();
    let mut group = c.benchmark_group("trace_render");
    group.sample_size(100);
    group.bench_function("render_fingerprint/200", |b| {
        b.iter(|| {
            traces
                .iter()
                .fold(0u64, |acc, trace| acc ^ trace.render_fingerprint())
        });
    });
    group.bench_function("render/200", |b| {
        b.iter(|| {
            traces
                .iter()
                .map(|trace| trace.render().len())
                .sum::<usize>()
        });
    });
    group.bench_function("first_divergence/200", |b| {
        b.iter(|| {
            let diverged = traces
                .iter()
                .zip(&replays)
                .filter(|(trace, replay)| trace.first_divergence(replay).is_some())
                .count();
            assert_eq!(diverged, 0, "replays of one seed render identically");
        });
    });
    group.finish();
}

criterion_group!(benches, bench_trace_render);
criterion_main!(benches);
