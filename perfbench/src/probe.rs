//! A wall-clock [`Probe`]: attributes each delivered event's handler time
//! to the kind of component that handled it.
//!
//! The engine calls `on_dispatch` just before a handler and `on_deliver`
//! just after it, so the span between the two is the component's self
//! time. Component kinds come from the ids the topology builder returned;
//! whatever is not inside a handler (wheel push/pop, dispatch, the shard
//! barrier) is the kernel's, computed by the caller as the remainder of
//! the run's total. Totals stay in memory and are read when the run ends.

use netfi_sim::{ComponentId, Probe, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// The component kinds time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `netfi_netstack::Host` (its NIC included).
    Host = 0,
    /// A `netfi_myrinet::Switch`.
    Switch = 1,
    /// A `netfi_core::InjectorDevice`.
    Injector = 2,
    /// Any component the builder did not name.
    Other = 3,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 4;

/// Builds the per-component kind table a [`WallProbe`] reads.
pub fn kind_table(components: usize, named: &[(Kind, &[ComponentId])]) -> Arc<[Kind]> {
    let mut table = vec![Kind::Other; components];
    for &(kind, ids) in named {
        for id in ids {
            table[id.index()] = kind;
        }
    }
    table.into()
}

/// Per-kind handler self time, in memory.
#[derive(Debug, Clone)]
pub struct WallProbe {
    kinds: Arc<[Kind]>,
    entered: Instant,
    /// Handler self time per kind, nanoseconds.
    pub self_ns: [u64; KINDS],
}

impl WallProbe {
    /// A probe attributing by `kinds` (indexed by component index).
    pub fn new(kinds: Arc<[Kind]>) -> WallProbe {
        WallProbe {
            kinds,
            entered: Instant::now(),
            self_ns: [0; KINDS],
        }
    }

    /// Sum of handler self time over every kind, nanoseconds.
    pub fn handler_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Adds another probe's totals into this one.
    pub fn absorb(&mut self, other: &WallProbe) {
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
    }
}

impl Probe for WallProbe {
    #[inline]
    fn on_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _events: u64) {
        self.entered = Instant::now();
    }

    #[inline]
    fn on_deliver(&mut self, _now: SimTime, dst: ComponentId, _emitted: usize) {
        let ns = self.entered.elapsed().as_nanos() as u64;
        let kind = self.kinds.get(dst.index()).copied().unwrap_or(Kind::Other) as usize;
        self.self_ns[kind] += ns;
    }
}
