//! The per-query recorder: span stack, counters, timers.

use crate::metrics::{Counter, CounterSet, Histogram, Timer};
use crate::profile::{ProfileSpan, QueryProfile, TimerSummary};
use std::time::Instant;

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`]. Exits must be well-nested (LIFO): the recorder
/// debug-asserts that the token being exited is the innermost open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited reports a zero duration"]
pub struct SpanToken(u32);

/// The disabled-recorder token. Also used as "no open span".
const NONE: u32 = u32::MAX;

/// Handle returned by [`Recorder::start`]; pass it back to
/// [`Recorder::stop`] to observe the elapsed time into the timer's
/// histogram. `None` inside when the recorder is disabled, so the hot
/// path never calls `Instant::now`.
#[derive(Debug, Clone, Copy)]
#[must_use = "a timer that is never stopped observes nothing"]
pub struct TimerToken(Option<Instant>);

#[derive(Debug)]
struct RawSpan {
    name: &'static str,
    parent: u32,
    started: Instant,
    duration_ns: u64,
    closed: bool,
}

#[derive(Debug)]
struct RecorderData {
    spans: Vec<RawSpan>,
    /// Index of the innermost open span, or `NONE` at the root level.
    open: u32,
    counters: CounterSet,
    timers: Vec<Histogram>,
}

/// Per-query observability recorder.
///
/// `Recorder::disabled()` is the default and is designed to vanish: the
/// struct is one niche-optimized pointer, every method starts with a
/// branch on `None`, and no method allocates or reads the clock. The
/// enabled recorder allocates once up front and appends to vectors.
#[derive(Debug, Default)]
pub struct Recorder {
    data: Option<Box<RecorderData>>,
}

impl Recorder {
    /// A recorder that records nothing and costs (almost) nothing.
    pub fn disabled() -> Recorder {
        Recorder { data: None }
    }

    /// A recorder that captures spans, counters and timers.
    pub fn enabled() -> Recorder {
        Recorder {
            data: Some(Box::new(RecorderData {
                spans: Vec::new(),
                open: NONE,
                counters: CounterSet::new(),
                timers: Timer::ALL.iter().map(|_| Histogram::new()).collect(),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }

    /// Opens a named span nested under the currently open span.
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        match &mut self.data {
            None => SpanToken(NONE),
            Some(d) => {
                let idx = d.spans.len() as u32;
                d.spans.push(RawSpan {
                    name,
                    parent: d.open,
                    started: Instant::now(),
                    duration_ns: 0,
                    closed: false,
                });
                d.open = idx;
                SpanToken(idx)
            }
        }
    }

    /// Closes a span, recording its duration. Spans must close LIFO.
    pub fn exit(&mut self, token: SpanToken) {
        if let Some(d) = &mut self.data {
            debug_assert_eq!(d.open, token.0, "spans must be exited innermost-first");
            if token.0 == NONE {
                return;
            }
            let span = &mut d.spans[token.0 as usize];
            span.duration_ns = span.started.elapsed().as_nanos() as u64;
            span.closed = true;
            d.open = span.parent;
        }
    }

    /// Bumps a counter by `n`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        if let Some(d) = &mut self.data {
            d.counters.add(counter, n);
        }
    }

    /// Merges a locally accumulated counter set (the pattern for
    /// closures that cannot borrow the recorder mutably).
    pub fn merge_counters(&mut self, set: &CounterSet) {
        if let Some(d) = &mut self.data {
            d.counters.merge(set);
        }
    }

    /// Starts timing one operation for `timer`'s histogram.
    #[inline]
    pub fn start(&mut self, _timer: Timer) -> TimerToken {
        TimerToken(self.data.as_ref().map(|_| Instant::now()))
    }

    /// Records the time elapsed since [`Recorder::start`].
    #[inline]
    pub fn stop(&mut self, timer: Timer, token: TimerToken) {
        if let (Some(d), Some(t0)) = (&mut self.data, token.0) {
            d.timers[timer.index()].observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Merges a locally accumulated histogram into `timer`'s slot.
    pub fn merge_timer(&mut self, timer: Timer, hist: &Histogram) {
        if let Some(d) = &mut self.data {
            d.timers[timer.index()].merge(hist);
        }
    }

    /// Freezes the recording into a [`QueryProfile`] (`None` when
    /// disabled). Any spans still open are force-closed at their current
    /// elapsed time so a profile is always well-formed.
    pub fn finish(self) -> Option<QueryProfile> {
        let mut d = *self.data?;
        for span in d.spans.iter_mut().filter(|s| !s.closed) {
            span.duration_ns = span.started.elapsed().as_nanos() as u64;
            span.closed = true;
        }

        // Assemble the forest bottom-up: children were pushed after (and
        // therefore sit at higher indices than) their parents.
        let mut built: Vec<Option<ProfileSpan>> = d
            .spans
            .iter()
            .map(|s| {
                Some(ProfileSpan { name: s.name, duration_ns: s.duration_ns, children: Vec::new() })
            })
            .collect();
        let mut roots = Vec::new();
        for i in (0..d.spans.len()).rev() {
            let mut node = built[i].take().expect("each span taken once");
            // Children were attached highest-index-first; restore entry order.
            node.children.reverse();
            let parent = d.spans[i].parent;
            if parent == NONE {
                roots.push(node);
            } else {
                let siblings =
                    &mut built[parent as usize].as_mut().expect("parent not yet taken").children;
                siblings.push(node);
            }
        }
        roots.reverse();

        let timers = Timer::ALL
            .iter()
            .zip(&d.timers)
            .filter(|(_, h)| h.count() > 0)
            .map(|(&t, h)| TimerSummary {
                name: t.name(),
                count: h.count(),
                total_ns: h.sum(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p95_ns: h.quantile(0.95),
                max_ns: h.maximum(),
                buckets: h.nonzero_buckets(),
            })
            .collect();

        Some(QueryProfile { roots, counters: std::mem::take(&mut d.counters), timers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_pointer_sized_and_inert() {
        assert_eq!(
            std::mem::size_of::<Recorder>(),
            std::mem::size_of::<usize>(),
            "Option<Box<_>> must niche-optimize"
        );
        let mut rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let s = rec.enter("phase");
        rec.add(Counter::PresenceEvaluations, 5);
        let t = rec.start(Timer::Presence);
        rec.stop(Timer::Presence, t);
        rec.exit(s);
        assert!(rec.finish().is_none());
    }

    #[test]
    fn span_tree_structure_follows_nesting() {
        let mut rec = Recorder::enabled();
        let root = rec.enter("root");
        let a = rec.enter("a");
        rec.exit(a);
        let b = rec.enter("b");
        let b1 = rec.enter("b1");
        rec.exit(b1);
        rec.exit(b);
        rec.exit(root);
        let p = rec.finish().unwrap();
        assert_eq!(p.roots.len(), 1);
        let root = &p.roots[0];
        assert_eq!(root.name, "root");
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(root.children[1].children[0].name, "b1");
    }

    #[test]
    fn child_durations_bounded_by_parent() {
        let mut rec = Recorder::enabled();
        let root = rec.enter("root");
        for _ in 0..3 {
            let c = rec.enter("child");
            std::hint::black_box((0..1000).sum::<u64>());
            rec.exit(c);
        }
        rec.exit(root);
        let p = rec.finish().unwrap();
        let root = &p.roots[0];
        let child_sum: u64 = root.children.iter().map(|c| c.duration_ns).sum();
        assert!(
            child_sum <= root.duration_ns,
            "children {child_sum} ns exceed parent {} ns",
            root.duration_ns
        );
    }

    #[test]
    fn unclosed_spans_are_force_closed() {
        let mut rec = Recorder::enabled();
        let _root = rec.enter("root");
        let _child = rec.enter("child");
        let p = rec.finish().unwrap();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].children.len(), 1);
    }

    #[test]
    fn counters_and_timers_survive_into_profile() {
        let mut rec = Recorder::enabled();
        rec.add(Counter::QueuePushes, 7);
        let mut local = CounterSet::new();
        local.add(Counter::QueuePushes, 3);
        rec.merge_counters(&local);
        let t = rec.start(Timer::UrDerive);
        rec.stop(Timer::UrDerive, t);
        let mut h = Histogram::new();
        h.observe(500);
        rec.merge_timer(Timer::UrDerive, &h);
        let p = rec.finish().unwrap();
        assert_eq!(p.counter("queue_pushes"), 10);
        let timer = p.timers.iter().find(|t| t.name == "ur_derive").unwrap();
        assert_eq!(timer.count, 2);
    }

    #[test]
    fn multiple_roots_form_a_forest() {
        let mut rec = Recorder::enabled();
        let a = rec.enter("first");
        rec.exit(a);
        let b = rec.enter("second");
        rec.exit(b);
        let p = rec.finish().unwrap();
        let names: Vec<_> = p.roots.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["first", "second"]);
    }
}
