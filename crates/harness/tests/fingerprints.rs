//! Streaming-fingerprint equivalence: the hash-only sweep path
//! ([`Trace::render_fingerprint`]) and the streaming replay comparison
//! ([`Trace::first_divergence`]) must agree byte-for-byte with the
//! rendered-string reference implementations across a seed sweep — they
//! are the hot paths the `trace_hashes` gate and the replay oracle stand
//! on.

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::trace::fnv1a64;

#[test]
fn streamed_fingerprint_equals_hash_of_rendered_trace_across_a_sweep() {
    let mut arena = ExecutionArena::new();
    // Rendered line prefixes of the membership events; the multi-crash
    // seeds must reach every one of them.
    let mut membership = [
        (" view change ", false),
        (" join request ", false),
        (" rejoin ", false),
        (" resolution timeout ", false),
        (" exit timeout ", false),
        (" signal timeout ", false),
        (" crash-stop", false),
    ];
    for (config, seeds) in [
        (ScenarioConfig::default(), 0..120u64),
        (ScenarioConfig::object_heavy(), 0..40u64),
        (ScenarioConfig::multi_crash(), 0..60u64),
    ] {
        for seed in seeds {
            let plan = ScenarioPlan::generate(seed, &config);
            let artifacts = execute_in(&plan, &mut arena);
            let text = artifacts.trace.render();
            assert_eq!(
                artifacts.trace.render_fingerprint(),
                fnv1a64(text.as_bytes()),
                "seed {seed}: streamed fingerprint diverges from rendered hash"
            );
            for (needle, seen) in &mut membership {
                *seen |= text.contains(*needle);
            }
            arena.recycle_trace(artifacts.trace);
        }
    }
    let missing: Vec<&str> = membership
        .iter()
        .filter(|(_, seen)| !seen)
        .map(|(needle, _)| *needle)
        .collect();
    assert!(missing.is_empty(), "no seed rendered {missing:?}");
}

#[test]
fn first_divergence_matches_the_rendered_line_diff() {
    let mut arena = ExecutionArena::new();
    let config = ScenarioConfig::default();
    for seed in 0..40u64 {
        let plan = ScenarioPlan::generate(seed, &config);
        let a = execute_in(&plan, &mut arena);
        let b = execute_in(&plan, &mut arena);
        // Same seed, two executions: renderings are byte-identical even
        // though raw action serials differ (process-global definition
        // ids) — exactly the case the structural fast path must not
        // misreport.
        assert_eq!(a.trace.render(), b.trace.render(), "seed {seed}");
        assert_eq!(a.trace.first_divergence(&b.trace), None, "seed {seed}");
        arena.recycle_trace(b.trace);
        arena.recycle_trace(a.trace);
    }
    // Different seeds: the reported line must be the first rendered
    // difference.
    let a = execute_in(&ScenarioPlan::generate(1, &config), &mut arena);
    let b = execute_in(&ScenarioPlan::generate(2, &config), &mut arena);
    let diverged = a.trace.first_divergence(&b.trace);
    let expected = a
        .trace
        .render()
        .lines()
        .zip(b.trace.render().lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| {
            a.trace
                .render()
                .lines()
                .count()
                .min(b.trace.render().lines().count())
        });
    assert_eq!(diverged, Some(expected));
}
