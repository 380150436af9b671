//! The typed event schema.
//!
//! Every protocol-visible thing the simulation driver used to describe
//! with a free-form `"area: detail"` trace label is one [`EventKind`]
//! variant carrying plain integers — cheap to construct, total-ordered to
//! serialize, and byte-exact through the JSONL exporter. [`Event`] stamps
//! a kind with its virtual time and the node (or ego) it concerns.

use airdnd_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ring the event is recorded into (one bounded ring per category,
/// so a flood of wire frames can never evict the lifecycle history).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventCategory {
    /// Mesh membership: joins and leaves (including lease expiries).
    Mesh,
    /// Radio frames: transmissions, deliveries and drops.
    Frame,
    /// Task lifecycle: submit, offload, complete, expire.
    Task,
    /// Fleet lifecycle: mid-run vehicle spawns and despawns.
    Lifecycle,
    /// Perception demand: a query origin's task generator firing.
    Demand,
}

impl EventCategory {
    /// Every category, in ring order.
    pub const ALL: [EventCategory; 5] = [
        EventCategory::Mesh,
        EventCategory::Frame,
        EventCategory::Task,
        EventCategory::Lifecycle,
        EventCategory::Demand,
    ];

    /// This category's ring index.
    pub fn index(self) -> usize {
        match self {
            EventCategory::Mesh => 0,
            EventCategory::Frame => 1,
            EventCategory::Task => 2,
            EventCategory::Lifecycle => 3,
            EventCategory::Demand => 4,
        }
    }

    /// The label prefix the legacy string trace used for this category.
    pub fn prefix(self) -> &'static str {
        match self {
            EventCategory::Mesh => "mesh:",
            EventCategory::Frame => "wire:",
            EventCategory::Task => "task:",
            EventCategory::Lifecycle => "lifecycle:",
            EventCategory::Demand => "demand:",
        }
    }
}

impl fmt::Display for EventCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EventCategory::Mesh => "mesh",
            EventCategory::Frame => "frame",
            EventCategory::Task => "task",
            EventCategory::Lifecycle => "lifecycle",
            EventCategory::Demand => "demand",
        };
        f.write_str(name)
    }
}

/// Why a frame never reached its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Lost on the channel (range, obstacle shadowing, retry budget).
    Channel,
    /// Shed by the bounded MAC transmit queue
    /// (`ScenarioConfig::radio_queue_cap`) before ever going on air.
    QueueCap,
    /// The destination address does not exist (stale advert).
    Unreachable,
}

impl DropReason {
    /// Lower-case label used in rendered traces and exports.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Channel => "channel",
            DropReason::QueueCap => "queue-cap",
            DropReason::Unreachable => "unreachable",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed simulation event.
///
/// All payloads are plain integers: node addresses (`u32`), task ids and
/// byte counts (`u64`), ego indices (`u32`). `to: None` on a
/// [`EventKind::FrameTx`] means a broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A node joined the mesh (observed via its membership protocol).
    MeshJoin {
        /// The joining node.
        node: u32,
    },
    /// A node left the mesh — gracefully or by lease expiry.
    MeshLeave {
        /// The leaving node.
        node: u32,
    },
    /// A frame was put on the air (`to: None` is a broadcast).
    FrameTx {
        /// Transmitting node.
        from: u32,
        /// Unicast destination, or `None` for a broadcast.
        to: Option<u32>,
        /// On-air payload size.
        bytes: u64,
    },
    /// A frame was delivered.
    FrameRx {
        /// Transmitting node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// On-air payload size.
        bytes: u64,
    },
    /// A frame was dropped before reaching its destination (`to: None`
    /// for a broadcast shed by the MAC queue).
    FrameDrop {
        /// Transmitting node.
        from: u32,
        /// Intended destination, or `None` for a broadcast.
        to: Option<u32>,
        /// On-air payload size.
        bytes: u64,
        /// Why the frame never arrived.
        reason: DropReason,
    },
    /// A query origin submitted a perception task to the orchestrator.
    TaskSubmit {
        /// Task id.
        task: u64,
        /// Submitting ego index.
        ego: u32,
    },
    /// The orchestrator offered a task to an executor.
    TaskOffload {
        /// Task id.
        task: u64,
        /// The executor the offer targets.
        executor: u32,
    },
    /// A task produced a usable view.
    TaskComplete {
        /// Task id.
        task: u64,
        /// Owning ego index.
        ego: u32,
        /// End-to-end latency, microseconds of virtual time.
        latency_us: u64,
    },
    /// A task failed or missed its deadline.
    TaskExpire {
        /// Task id.
        task: u64,
        /// Owning ego index.
        ego: u32,
    },
    /// A vehicle arrived mid-run (fleet schedule).
    LifecycleSpawn {
        /// The arriving node.
        node: u32,
    },
    /// A vehicle departed mid-run (fleet schedule).
    LifecycleDespawn {
        /// The departing node.
        node: u32,
        /// `true` for a graceful leave, `false` for an abrupt drop.
        graceful: bool,
    },
    /// A query origin's demand profile fired.
    DemandFire {
        /// The firing ego index.
        ego: u32,
        /// Task id of the query the demand opened (the same id its
        /// `TaskSubmit` carries).
        task: u64,
    },
}

impl EventKind {
    /// The ring this kind is recorded into.
    pub fn category(&self) -> EventCategory {
        match self {
            EventKind::MeshJoin { .. } | EventKind::MeshLeave { .. } => EventCategory::Mesh,
            EventKind::FrameTx { .. } | EventKind::FrameRx { .. } | EventKind::FrameDrop { .. } => {
                EventCategory::Frame
            }
            EventKind::TaskSubmit { .. }
            | EventKind::TaskOffload { .. }
            | EventKind::TaskComplete { .. }
            | EventKind::TaskExpire { .. } => EventCategory::Task,
            EventKind::LifecycleSpawn { .. } | EventKind::LifecycleDespawn { .. } => {
                EventCategory::Lifecycle
            }
            EventKind::DemandFire { .. } => EventCategory::Demand,
        }
    }
}

impl fmt::Display for EventKind {
    /// Renders the kind in the legacy `"area: detail"` label style, so
    /// `sweep --trace N` output stays familiar and prefix-greppable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventKind::MeshJoin { node } => write!(f, "mesh: node#{node} joined"),
            EventKind::MeshLeave { node } => write!(f, "mesh: node#{node} left"),
            EventKind::FrameTx {
                from,
                to: Some(to),
                bytes,
            } => write!(f, "wire: node#{from} -> node#{to} tx ({bytes} B)"),
            EventKind::FrameTx {
                from,
                to: None,
                bytes,
            } => write!(f, "wire: node#{from} broadcast ({bytes} B)"),
            EventKind::FrameRx { from, to, bytes } => {
                write!(f, "wire: node#{from} -> node#{to} ({bytes} B)")
            }
            EventKind::FrameDrop {
                from,
                to: Some(to),
                bytes,
                reason,
            } => {
                write!(
                    f,
                    "wire: node#{from} -> node#{to} dropped ({bytes} B, {reason})"
                )
            }
            EventKind::FrameDrop {
                from,
                to: None,
                bytes,
                reason,
            } => {
                write!(
                    f,
                    "wire: node#{from} broadcast dropped ({bytes} B, {reason})"
                )
            }
            EventKind::TaskSubmit { task, ego } => {
                write!(f, "task: #{task} submitted by ego#{ego}")
            }
            EventKind::TaskOffload { task, executor } => {
                write!(f, "task: #{task} offered to node#{executor}")
            }
            EventKind::TaskComplete {
                task,
                ego,
                latency_us,
            } => write!(
                f,
                "task: #{task} completed for ego#{ego} after {} ms",
                latency_us as f64 / 1_000.0
            ),
            EventKind::TaskExpire { task, ego } => {
                write!(f, "task: #{task} expired at ego#{ego}")
            }
            EventKind::LifecycleSpawn { node } => {
                write!(f, "lifecycle: node#{node} spawned")
            }
            EventKind::LifecycleDespawn { node, graceful } => write!(
                f,
                "lifecycle: node#{node} despawned ({})",
                if graceful { "graceful" } else { "abrupt" }
            ),
            EventKind::DemandFire { ego, task } => {
                write!(f, "demand: task {task} due at ego#{ego}")
            }
        }
    }
}

/// One recorded event: a kind stamped with virtual time and the node (or
/// ego) it primarily concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual time of the event.
    pub time: SimTime,
    /// The node address (or ego index, for demand events) the event is
    /// attributed to.
    pub actor: u32,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] actor#{} {}", self.time, self.actor, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_their_category() {
        assert_eq!(
            EventKind::MeshJoin { node: 1 }.category(),
            EventCategory::Mesh
        );
        assert_eq!(
            EventKind::FrameDrop {
                from: 1,
                to: Some(2),
                bytes: 3,
                reason: DropReason::QueueCap
            }
            .category(),
            EventCategory::Frame
        );
        assert_eq!(
            EventKind::TaskExpire { task: 9, ego: 0 }.category(),
            EventCategory::Task
        );
        assert_eq!(
            EventKind::LifecycleSpawn { node: 7 }.category(),
            EventCategory::Lifecycle
        );
        assert_eq!(
            EventKind::DemandFire { ego: 0, task: 1 }.category(),
            EventCategory::Demand
        );
    }

    #[test]
    fn display_keeps_the_legacy_prefixes() {
        for (kind, prefix) in [
            (EventKind::MeshJoin { node: 4 }, "mesh:"),
            (
                EventKind::FrameRx {
                    from: 1,
                    to: 2,
                    bytes: 64,
                },
                "wire:",
            ),
            (EventKind::TaskSubmit { task: 1, ego: 0 }, "task:"),
            (EventKind::LifecycleSpawn { node: 9 }, "lifecycle:"),
            (EventKind::DemandFire { ego: 0, task: 2 }, "demand:"),
        ] {
            assert!(
                kind.to_string().starts_with(prefix),
                "{kind} should start with {prefix}"
            );
            assert!(kind.to_string().starts_with(kind.category().prefix()));
        }
    }

    #[test]
    fn event_display_matches_the_trace_entry_shape() {
        let e = Event {
            time: SimTime::from_millis(1),
            actor: 3,
            kind: EventKind::MeshJoin { node: 3 },
        };
        assert_eq!(e.to_string(), "[t=0.001000s] actor#3 mesh: node#3 joined");
    }
}
