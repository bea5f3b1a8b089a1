//! Per-worker execution arenas: allocation reuse across sweep seeds.
//!
//! A sweep explores thousands of independent simulations, each lasting a
//! fraction of a millisecond; before arenas, every seed rebuilt the
//! network (actor slots, per-endpoint delivery heaps, the per-pair link
//! matrix), the trace buffers and each action's resolution lattice from
//! scratch — setup/teardown churn dominating the actual protocol work.
//! An [`ExecutionArena`] is the per-worker recycling bin for all of it:
//!
//! * the **network arena** ([`caa_simnet::NetArena`]): endpoint slots
//!   with their delivery heaps and link rows, reclaimed by
//!   [`System::run_reclaiming`](caa_runtime::System::run_reclaiming) and
//!   fed back through
//!   [`SystemBuilder::net_arena`](caa_runtime::SystemBuilder::net_arena);
//! * **trace buffers**: entry vectors and their
//!   [`InstanceIndex`](crate::index::InstanceIndex) buffers, handed back
//!   by [`ExecutionArena::recycle_trace`] once a seed's trace has been
//!   checked, so steady-state recording and indexing allocate nothing;
//! * the **graph cache**: conjunction lattices are pure functions of an
//!   action's declared exceptions, and scenario generation draws those
//!   from a small space — the cache turns per-seed lattice construction
//!   into a lookup.
//!
//! Arenas are a pure allocation cache: executing a plan through an arena
//! renders the byte-identical trace a fresh execution renders (the
//! allocation-regression test and the 12k-seed hash gate both pin this).
//! An arena is single-threaded state — each sweep worker owns one.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use caa_core::exception::ExceptionId;
use caa_core::message::Message;
use caa_exgraph::generate::conjunction_lattice;
use caa_exgraph::ExceptionGraph;
use caa_simnet::NetArena;

use crate::metrics::{MetricsRecorder, SweepMetrics};
use crate::trace::{Trace, TraceRecorder};

/// How many recycled trace buffers an arena keeps. An execution uses one
/// buffer; a replay-checked seed uses two in flight. Anything beyond that
/// is dead weight.
const MAX_TRACE_BUFS: usize = 2;

/// Reusable execution state for one sweep worker (see the module docs).
///
/// # Examples
///
/// ```
/// use caa_harness::arena::ExecutionArena;
/// use caa_harness::exec::execute_in;
/// use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
///
/// let mut arena = ExecutionArena::new();
/// let plan = ScenarioPlan::generate(7, &ScenarioConfig::default());
/// let first = execute_in(&plan, &mut arena);
/// let first_render = first.trace.render();
/// arena.recycle_trace(first.trace);
/// // The second execution reuses the network, trace and graph
/// // allocations — and renders the byte-identical trace.
/// let second = execute_in(&plan, &mut arena);
/// assert_eq!(second.trace.render(), first_render);
/// ```
#[derive(Default)]
pub struct ExecutionArena {
    net: Option<NetArena<Message>>,
    trace_bufs: Vec<Trace>,
    /// High-water entry count, used to pre-size a fresh buffer when no
    /// recycled one is available.
    trace_capacity: usize,
    /// Resolution lattices keyed by `(action name, group)` — the inputs
    /// that determine an action's declared exceptions.
    graphs: HashMap<String, Arc<ExceptionGraph>>,
    /// Reusable key buffer for graph lookups.
    graph_key: String,
    /// Per-worker metrics recorder: pre-registered histogram handles plus
    /// reusable correlation scratch, so per-seed metric extraction is
    /// allocation-free in steady state (see [`crate::metrics`]).
    metrics: MetricsRecorder,
}

impl std::fmt::Debug for ExecutionArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionArena")
            .field("net", &self.net.is_some())
            .field("trace_bufs", &self.trace_bufs.len())
            .field("trace_capacity", &self.trace_capacity)
            .field("graphs", &self.graphs.len())
            .finish()
    }
}

impl ExecutionArena {
    /// An empty arena; warms up over the first seed or two.
    #[must_use]
    pub fn new() -> ExecutionArena {
        ExecutionArena::default()
    }

    /// Hands a finished trace's entry buffer back for the next execution.
    /// Call it once a seed's trace has been checked and is no longer
    /// needed; traces kept alive (violating seeds, golden comparisons)
    /// simply are not recycled.
    pub fn recycle_trace(&mut self, trace: Trace) {
        self.trace_capacity = self.trace_capacity.max(trace.len());
        if self.trace_bufs.len() < MAX_TRACE_BUFS {
            self.trace_bufs.push(trace);
        }
    }

    /// A recorder for the next execution: recycled buffer if available,
    /// else a fresh one sized to the high-water mark.
    pub(crate) fn recorder(&mut self) -> Arc<TraceRecorder> {
        match self.trace_bufs.pop() {
            Some(trace) => TraceRecorder::recycling(trace),
            None => TraceRecorder::with_capacity(self.trace_capacity),
        }
    }

    /// The recycled network arena, if the previous execution reclaimed
    /// one.
    pub(crate) fn take_net(&mut self) -> Option<NetArena<Message>> {
        self.net.take()
    }

    /// Stores a reclaimed network arena for the next execution.
    pub(crate) fn put_net(&mut self, net: NetArena<Message>) {
        self.net = Some(net);
    }

    /// The conjunction lattice over `group`'s raise exceptions in action
    /// `name` — cached across seeds (the lattice is a pure function of
    /// the key). `prims` builds the exception list on a cache miss.
    pub(crate) fn graph_for(
        &mut self,
        name: &str,
        group: &[u32],
        prims: impl FnOnce() -> Vec<ExceptionId>,
    ) -> Arc<ExceptionGraph> {
        self.graph_key.clear();
        self.graph_key.push_str(name);
        for &t in group {
            let _ = write!(self.graph_key, ",{t}");
        }
        if let Some(graph) = self.graphs.get(&self.graph_key) {
            return Arc::clone(graph);
        }
        let prims = prims();
        let graph = Arc::new(
            conjunction_lattice(&prims, 2.min(prims.len()))
                .expect("per-action raise exceptions are nonempty and distinct"),
        );
        self.graphs
            .insert(self.graph_key.clone(), Arc::clone(&graph));
        graph
    }

    /// The per-worker metrics recorder (mutable: seed runners record each
    /// explored seed's artifacts through it).
    pub fn metrics_recorder(&mut self) -> &mut MetricsRecorder {
        &mut self.metrics
    }

    /// The metrics accumulated by every seed run through this arena.
    #[must_use]
    pub fn metrics(&self) -> &SweepMetrics {
        self.metrics.metrics()
    }

    /// Takes the accumulated metrics for merging into a sweep-wide set,
    /// leaving the recorder's handles and scratch capacity in place.
    #[must_use]
    pub fn take_metrics(&mut self) -> SweepMetrics {
        self.metrics.take_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_cache_hits_on_same_key() {
        let mut arena = ExecutionArena::new();
        let prims = || vec![ExceptionId::new("a0_e0"), ExceptionId::new("a0_e1")];
        let g1 = arena.graph_for("a0", &[0, 1], prims);
        let g2 = arena.graph_for("a0", &[0, 1], prims);
        assert!(Arc::ptr_eq(&g1, &g2), "same key must share one lattice");
        let g3 = arena.graph_for("a0", &[0, 2], || {
            vec![ExceptionId::new("a0_e0"), ExceptionId::new("a0_e2")]
        });
        assert!(!Arc::ptr_eq(&g1, &g3), "different groups, different graphs");
    }

    #[test]
    fn trace_buffers_recycle_up_to_the_cap() {
        let mut arena = ExecutionArena::new();
        for _ in 0..4 {
            arena.recycle_trace(Trace::default());
        }
        assert!(arena.trace_bufs.len() <= MAX_TRACE_BUFS);
    }
}
