//! Per-client quality-of-service classes and the admission policy built
//! on them.
//!
//! Every request carries a [`QosClass`]; the class decides three things:
//!
//! 1. **Deadline** — the wall-clock budget handed to the tier ladder
//!    ([`QosPolicy::deadline_ms`]), so interactive traffic degrades to the
//!    cheap tiers quickly while batch work is allowed to run the detailed
//!    simulator.
//! 2. **Queue quota** — how many distinct jobs of that class may wait in
//!    one scheduler shard ([`QosPolicy::queue_quota`]); admission control
//!    sheds beyond it with a typed outcome instead of queueing into the
//!    deadline.
//! 3. **Shed priority** — under overload the lowest class is dropped
//!    first: best-effort before batch before interactive (see the
//!    scheduler's admission path).

use serde::{Deserialize, Serialize};

/// Client-declared service class, in descending priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QosClass {
    /// A user is waiting on the answer: tight deadline, shed last.
    Interactive,
    /// Throughput traffic (sweeps, corpus refresh): generous deadline.
    Batch,
    /// Opportunistic work (prefetch, revalidation): shed first.
    BestEffort,
}

impl QosClass {
    /// All classes, highest priority first. Scheduler queues and shed
    /// order both derive from this ordering.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];

    pub fn name(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Batch => "batch",
            QosClass::BestEffort => "best-effort",
        }
    }

    /// Priority rank: 0 is the most important (shed last).
    pub fn priority(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::BestEffort => 2,
        }
    }

    pub fn parse(s: &str) -> Result<QosClass, String> {
        match s.trim() {
            "interactive" => Ok(QosClass::Interactive),
            "batch" => Ok(QosClass::Batch),
            "best-effort" | "besteffort" => Ok(QosClass::BestEffort),
            other => Err(format!(
                "unknown qos class `{other}` (want interactive|batch|best-effort)"
            )),
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class deadlines and queue quotas, indexed by [`QosClass::priority`].
#[derive(Debug, Clone, PartialEq)]
pub struct QosPolicy {
    /// Wall-clock budget per request, milliseconds, per class.
    pub deadline_ms: [u64; 3],
    /// Distinct queued jobs allowed per scheduler shard, per class.
    pub queue_quota: [usize; 3],
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy {
            // interactive answers fast (degrading to cheap tiers if it
            // must), batch may run the expensive tiers, best-effort gets
            // whatever fits
            deadline_ms: [2_000, 10_000, 1_000],
            queue_quota: [256, 128, 64],
        }
    }
}

impl QosPolicy {
    pub fn deadline_ms(&self, class: QosClass) -> u64 {
        self.deadline_ms[class.priority()]
    }

    pub fn queue_quota(&self, class: QosClass) -> usize {
        self.queue_quota[class.priority()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parse_roundtrip() {
        for class in QosClass::ALL {
            assert_eq!(QosClass::parse(class.name()).unwrap(), class);
        }
        assert!(QosClass::parse("platinum").is_err());
    }

    #[test]
    fn priority_orders_shedding() {
        assert!(QosClass::Interactive.priority() < QosClass::Batch.priority());
        assert!(QosClass::Batch.priority() < QosClass::BestEffort.priority());
    }

    #[test]
    fn policy_lookup_by_class() {
        let p = QosPolicy {
            deadline_ms: [1, 2, 3],
            queue_quota: [10, 20, 30],
        };
        assert_eq!(p.deadline_ms(QosClass::Interactive), 1);
        assert_eq!(p.deadline_ms(QosClass::BestEffort), 3);
        assert_eq!(p.queue_quota(QosClass::Batch), 20);
    }
}
