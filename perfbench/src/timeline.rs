//! The benchmark's own span recorder: one in-memory span per layer call,
//! recorded from the benchmark's side of each call into the program.
//!
//! A checked run is a root span (`driver.run`) whose children are the
//! layer calls it made, in call order. Children never overlap, so a
//! span's self time (its duration minus the time its children cover) is
//! exact, and the self times of one run's spans add up to the run's wall
//! time: the layer attribution partitions the run.
//!
//! With tracing off every method is a no-op apart from the closure call,
//! so the untraced run makes the same calls in the same order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the parent span in [`Timeline::spans`], `None` for a run's
    /// root.
    pub parent: Option<u32>,
    /// `layer.operation`, e.g. `exec.execute`.
    pub name: &'static str,
    /// The run this span belongs to (its seed).
    pub run: u64,
    /// Nanoseconds since the timeline's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the timeline's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of every run's root span; its self time is the benchmark loop's
/// own, reported as `driver.unattributed_us`.
pub const ROOT: &str = "driver.run";

/// The in-memory span log of one benchmark run.
#[derive(Debug)]
pub struct Timeline {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<u32>,
}

impl Timeline {
    /// A timeline that records spans only while [`Timeline::set_on`] is
    /// true.
    pub fn new() -> Timeline {
        Timeline {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
        }
    }

    /// Turns recording on or off for the next runs.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens the root span of run `run`.
    pub fn begin_run(&mut self, run: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.root = Some(self.push(Span {
            parent: None,
            name: ROOT,
            run,
            start_ns,
            end_ns: start_ns,
        }));
    }

    /// Closes the root span opened by [`Timeline::begin_run`].
    pub fn end_run(&mut self) {
        if let Some(root) = self.root.take() {
            let end_ns = self.now_ns();
            self.spans[root as usize].end_ns = end_ns;
        }
    }

    /// Calls `f` as a child of the current run, recording a span named
    /// `name` around it.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(root) = self.root else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let run = self.spans[root as usize].run;
        self.push(Span {
            parent: Some(root),
            name,
            run,
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Every recorded span, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, or an error naming the first span that breaks
    /// the partition (a child outside its parent, or overlapping
    /// siblings).
    pub fn self_times(&self) -> Result<Vec<u64>, String> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        // Children are recorded in call order, so a sibling must start at
        // or after the previous sibling's end.
        let mut last_child_end: Vec<Option<u64>> = vec![None; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            let Some(parent) = span.parent else { continue };
            let p = &self.spans[parent as usize];
            if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
                return Err(format!("span {i} ({}) lies outside its parent", span.name));
            }
            if last_child_end[parent as usize].is_some_and(|end| span.start_ns < end) {
                return Err(format!("span {i} ({}) overlaps its sibling", span.name));
            }
            last_child_end[parent as usize] = Some(span.end_ns);
            self_ns[parent as usize] -= span.duration_ns();
        }
        Ok(self_ns)
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> Result<BTreeMap<&'static str, u64>, String> {
        let self_ns = self.self_times()?;
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        Ok(by_name)
    }

    /// Total duration of the root spans.
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as CSV, written once the run has ended.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,name,run,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out
    }
}
