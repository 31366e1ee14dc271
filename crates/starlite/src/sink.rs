//! Zero-cost-when-disabled structured event emission.
//!
//! The paper's performance monitor records "the time when each event
//! occurred". This module is how simulations report those events:
//! simulation models are generic over an [`EventSink`] and push typed
//! events into it as they happen. The sink is chosen at monomorphisation
//! time, so a model instantiated with [`NullSink`] compiles the emission
//! paths down to nothing — `enabled()` is a `const false` the optimiser
//! folds away, and no event value is ever constructed.
//!
//! Layers that cannot see the unified event type (the CPU model here, the
//! lock table in `rtdb`, the network in `netsim`) instead keep a small
//! *journal* of layer-local events behind an explicit tracing flag; the
//! simulation model drains the journal after each call and converts the
//! entries into its own event type before emitting them into the sink.
//! With tracing off the journals stay empty and the drain is a no-op.
//!
//! # Example
//!
//! ```
//! use starlite::{EventSink, NullSink, SimTime, VecSink};
//!
//! fn emit_one<S: EventSink<&'static str>>(sink: &mut S) {
//!     if sink.enabled() {
//!         sink.emit(SimTime::from_ticks(3), "txn 1 granted o4");
//!     }
//! }
//!
//! let mut none = NullSink;
//! emit_one(&mut none); // compiles to nothing
//!
//! let mut all = VecSink::new();
//! emit_one(&mut all);
//! assert_eq!(all.events(), &[(SimTime::from_ticks(3), "txn 1 granted o4")]);
//! ```

use crate::time::SimTime;

/// A receiver of timestamped, typed simulation events.
///
/// Implementations decide what to do with each event (count it, buffer it,
/// format it). Models call [`EventSink::enabled`] before doing any work to
/// *construct* an event, so disabled sinks cost one predictable branch —
/// and with [`NullSink`] not even that, because the answer is a constant.
pub trait EventSink<E> {
    /// Whether this sink type can ever receive events. `false` only for
    /// [`NullSink`] (and wrappers around it): the constant participates in
    /// monomorphisation, so models can gate entire drain loops behind
    /// `if S::ENABLED` and have the optimiser delete them — including the
    /// journal bookkeeping a runtime `enabled()` branch would still have
    /// to reach past.
    const ENABLED: bool = true;

    /// Whether this sink wants events at all. Models must gate event
    /// construction on this so a disabled sink pays nothing. Defaults to
    /// [`Self::ENABLED`]; override only for sinks toggled at runtime.
    fn enabled(&self) -> bool {
        Self::ENABLED
    }

    /// Receives one event stamped with the simulation time it occurred at.
    ///
    /// Events arrive in deterministic model order: emission happens inside
    /// event handlers of a deterministic simulation, so the same seed
    /// produces the same event sequence, byte for byte.
    fn emit(&mut self, at: SimTime, event: E);
}

/// The disabled sink: `enabled()` is `false`, `emit` is unreachable in
/// practice. Monomorphising a model with `NullSink` dead-code-eliminates
/// every emission path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl<E> EventSink<E> for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _at: SimTime, _event: E) {}
}

/// A sink that buffers every event in order — the workhorse for tests and
/// for post-processing passes (golden traces, blocking-chain analysis).
#[derive(Debug, Clone)]
pub struct VecSink<E> {
    events: Vec<(SimTime, E)>,
}

impl<E> VecSink<E> {
    /// Creates an empty buffering sink.
    pub fn new() -> Self {
        VecSink { events: Vec::new() }
    }

    /// The buffered `(time, event)` pairs in emission order.
    pub fn events(&self) -> &[(SimTime, E)] {
        &self.events
    }

    /// Consumes the sink, returning the buffered events.
    pub fn into_events(self) -> Vec<(SimTime, E)> {
        self.events
    }
}

impl<E> Default for VecSink<E> {
    fn default() -> Self {
        VecSink::new()
    }
}

impl<E> EventSink<E> for VecSink<E> {
    #[inline]
    fn emit(&mut self, at: SimTime, event: E) {
        self.events.push((at, event));
    }
}

/// Fans each event out to two sinks in order (`a` first). Events must be
/// `Clone`; tee of a tee composes for wider fan-out. `ENABLED` is the OR
/// of the halves, so teeing a [`NullSink`] against a real sink keeps the
/// real sink's instrumentation and nothing else.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A, B> TeeSink<A, B> {
    /// Creates a tee over the two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<E: Clone, A: EventSink<E>, B: EventSink<E>> EventSink<E> for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    #[inline]
    fn emit(&mut self, at: SimTime, event: E) {
        if self.a.enabled() {
            self.a.emit(at, event.clone());
        }
        if self.b.enabled() {
            self.b.emit(at, event);
        }
    }
}

/// Forwarding impl so a model can own `S = &mut ConcreteSink` while the
/// caller keeps the sink (and harvests it after the run).
impl<E, S: EventSink<E>> EventSink<E> for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline(always)]
    fn emit(&mut self, at: SimTime, event: E) {
        (**self).emit(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!EventSink::<u32>::enabled(&sink));
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut sink = VecSink::new();
        sink.emit(SimTime::from_ticks(1), "a");
        sink.emit(SimTime::from_ticks(2), "b");
        assert!(sink.enabled());
        assert_eq!(
            sink.into_events(),
            vec![(SimTime::from_ticks(1), "a"), (SimTime::from_ticks(2), "b")]
        );
    }

    #[test]
    fn tee_fans_out_and_inherits_enabled() {
        let mut tee = TeeSink::new(VecSink::new(), VecSink::new());
        tee.emit(SimTime::from_ticks(4), 9u8);
        assert_eq!(tee.a.events(), tee.b.events());
        assert_eq!(tee.a.events(), &[(SimTime::from_ticks(4), 9u8)]);

        let null_tee = TeeSink::new(NullSink, NullSink);
        assert!(!EventSink::<u8>::enabled(&null_tee));
        const { assert!(!<TeeSink<NullSink, NullSink> as EventSink<u8>>::ENABLED) };
        let half = TeeSink::new(NullSink, VecSink::<u8>::new());
        assert!(EventSink::<u8>::enabled(&half));
    }

    #[test]
    fn mut_ref_forwards() {
        let mut sink = VecSink::new();
        {
            let fwd = &mut sink;
            assert!(EventSink::<u8>::enabled(&fwd));
            fwd.emit(SimTime::ZERO, 7u8);
        }
        assert_eq!(sink.events(), &[(SimTime::ZERO, 7u8)]);
    }
}
