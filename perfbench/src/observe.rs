//! The benchmark-owned sink of a traced run: a counting sink tee'd with a
//! timer around the invariant oracle, and the per-layer counts folded from
//! it over many runs.

use std::time::{Duration, Instant};

use monitor::{
    CheckConfig, CheckSink, Histogram, MetricsSink, SimEvent, SimEventKind, EVENT_KIND_COUNT,
};
use starlite::{EventSink, SimTime, TeeSink};

/// Times every event the wrapped sink receives.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    elapsed: Duration,
}

impl<S: EventSink<SimEvent>> EventSink<SimEvent> for TimedSink<S> {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        let t = Instant::now();
        self.inner.emit(at, event);
        self.elapsed += t.elapsed();
    }
}

/// The sinks of one observed run.
#[derive(Debug)]
pub struct Observer {
    counts: MetricsSink,
    oracle: TimedSink<CheckSink>,
}

impl Observer {
    /// Fresh sinks, with the oracle configured for the run's semantics.
    pub fn new(check: CheckConfig) -> Self {
        Observer {
            counts: MetricsSink::new(),
            oracle: TimedSink {
                inner: CheckSink::new(check),
                elapsed: Duration::ZERO,
            },
        }
    }

    /// The sink to pass into the run (or to replay a stream into).
    pub fn sink(&mut self) -> TeeSink<&mut MetricsSink, &mut TimedSink<CheckSink>> {
        TeeSink::new(&mut self.counts, &mut self.oracle)
    }

    /// Folds this run into `layers`, printing any oracle violation under
    /// `label`, and returns the time spent inside the oracle.
    pub fn finish(self, label: &str, layers: &mut Layers) -> Duration {
        for (total, n) in layers.counts.iter_mut().zip(self.counts.counts()) {
            *total += n;
        }
        layers.events += self.counts.total();
        layers.blocking.merge(self.counts.blocking());
        layers.check_time += self.oracle.elapsed;
        let violations = self.oracle.inner.finish();
        for v in &violations {
            eprintln!("oracle violation in {label}: {v}");
        }
        layers.violations += violations.len() as u64;
        self.oracle.elapsed
    }
}

/// Event-stream counts summed over every observed run.
#[derive(Debug)]
pub struct Layers {
    counts: [u64; EVENT_KIND_COUNT],
    /// Events in the stream.
    pub events: u64,
    /// Blocking episodes (lock, ceiling or latch wait until grant or
    /// abort), in ticks.
    pub blocking: Histogram,
    /// Time spent inside the oracle.
    pub check_time: Duration,
    /// Oracle violations.
    pub violations: u64,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            counts: [0; EVENT_KIND_COUNT],
            events: 0,
            blocking: Histogram::new(),
            check_time: Duration::ZERO,
            violations: 0,
        }
    }
}

impl Layers {
    /// Events of `kind`'s variant (the payload is ignored).
    pub fn count(&self, kind: SimEventKind) -> f64 {
        self.counts[kind.index()] as f64
    }

    /// Oracle nanoseconds per event.
    pub fn check_ns_per_event(&self) -> f64 {
        crate::metrics::ratio(self.check_time.as_nanos() as f64, self.events as f64)
    }
}
