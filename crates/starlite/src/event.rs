//! Event identities and queue entries.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A unique handle for a scheduled event, usable for cancellation.
///
/// The handle is a `(slot, generation)` pair into the scheduler's event
/// slab, packed into one word: the low 32 bits address the slot, the high
/// 32 bits carry the slot's generation at scheduling time. Slots are
/// recycled aggressively, but every reuse bumps the generation, so a stale
/// handle (an event that already fired or was cancelled) never aliases a
/// live one within the same [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// Packs a slot index and generation into a handle.
    pub(crate) const fn pack(slot: u32, generation: u32) -> Self {
        EventId(((generation as u64) << 32) | slot as u64)
    }

    /// The slab slot this handle addresses.
    pub(crate) const fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The slot generation this handle was issued under.
    pub(crate) const fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Returns the raw identifier value (packed slot and generation).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}.{}", self.slot(), self.generation())
    }
}

/// A queue entry: the firing time, a sequence number providing a
/// deterministic total order among same-time events, and the slab handle
/// of the payload. Payloads live in the scheduler's slab, not in the heap
/// or the lane, so sift operations move three words instead of a full
/// event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueKey {
    pub at: SimTime,
    pub seq: u64,
    pub id: EventId,
}

impl PartialEq for QueueKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for QueueKey {}

impl PartialOrd for QueueKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueKey {
    /// Orders by firing time, then by scheduling sequence; this is the
    /// kernel's deterministic tie-break.
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, seq: u64) -> QueueKey {
        QueueKey {
            at: SimTime::from_ticks(at),
            seq,
            id: EventId::pack(seq as u32, 0),
        }
    }

    #[test]
    fn orders_by_time_then_sequence() {
        assert!(entry(1, 9) < entry(2, 0));
        assert!(entry(5, 1) < entry(5, 2));
        assert_eq!(entry(5, 1), entry(5, 1));
    }

    #[test]
    fn pack_round_trips() {
        let id = EventId::pack(7, 3);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 3);
        assert_eq!(id.raw(), (3u64 << 32) | 7);
        assert_eq!(id.to_string(), "ev#7.3");
    }
}
