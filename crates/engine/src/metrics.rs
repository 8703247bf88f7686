//! Execution metrics.
//!
//! The experiments need more than the elapsed time: the load-balancing story
//! of the paper is about *how evenly* the threads of a pool were busy, how
//! many activations each consumed, and how often threads had to leave their
//! main queues. These metrics also power the ablation benches (adaptive pool
//! vs static one-thread-per-instance, effect of the internal cache).

use dbs3_lera::NodeId;
use std::time::Duration;

/// Metrics of one worker thread of an operation pool.
///
/// All activation counters are **logical** (the paper's per-tuple model):
/// a data activation contributes one count per tuple of its transport batch,
/// a trigger contributes one. They are therefore invariant under the
/// `CacheSize` batch granularity and comparable with the simulator's counts.
#[derive(Debug, Clone, Default)]
pub struct ThreadMetrics {
    /// Thread index within the pool.
    pub thread: usize,
    /// Logical activations consumed.
    pub activations: u64,
    /// Output tuples produced.
    pub tuples_out: u64,
    /// Time spent processing activations.
    pub busy: Duration,
    /// Number of probes of the operation's queues that found no poppable
    /// batch (another worker emptied them between the work hint and the
    /// pop).
    pub idle_polls: u64,
    /// Logical activations consumed from the thread's main queues: its own
    /// slice of the operation's cost-ordered queue ring.
    pub main_queue_hits: u64,
    /// Logical activations consumed from any other queue, including batches
    /// the thread popped while helping drain a full queue.
    pub secondary_queue_hits: u64,
    /// Batch flushes of the producer-side internal cache.
    pub cache_flushes: u64,
}

/// Metrics of one operation (thread pool).
#[derive(Debug, Clone)]
pub struct OperationMetrics {
    /// Plan node of the operation.
    pub node: NodeId,
    /// Operation display name.
    pub name: String,
    /// Number of activation queues (operation instances).
    pub queues: usize,
    /// Per-thread metrics.
    pub threads: Vec<ThreadMetrics>,
}

impl OperationMetrics {
    /// Total activations consumed by the pool.
    pub fn total_activations(&self) -> u64 {
        self.threads.iter().map(|t| t.activations).sum()
    }

    /// Total output tuples produced by the pool.
    pub fn total_tuples_out(&self) -> u64 {
        self.threads.iter().map(|t| t.tuples_out).sum()
    }

    /// Busy time of the longest-running thread — the response time of the
    /// operation is that of its slowest thread.
    pub fn max_busy(&self) -> Duration {
        self.threads
            .iter()
            .map(|t| t.busy)
            .max()
            .unwrap_or_default()
    }

    /// Average busy time across threads.
    pub fn avg_busy(&self) -> Duration {
        if self.threads.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.threads.iter().map(|t| t.busy).sum();
        total / self.threads.len() as u32
    }

    /// Load imbalance: `max_busy / avg_busy` (1.0 = perfectly balanced).
    pub fn busy_imbalance(&self) -> f64 {
        let avg = self.avg_busy().as_secs_f64();
        if avg == 0.0 {
            1.0
        } else {
            self.max_busy().as_secs_f64() / avg
        }
    }

    /// Fraction of consumed activations that came from secondary queues —
    /// a proxy for how much dynamic rebalancing the shared queues provided.
    pub fn secondary_consumption_ratio(&self) -> f64 {
        let main: u64 = self.threads.iter().map(|t| t.main_queue_hits).sum();
        let secondary: u64 = self.threads.iter().map(|t| t.secondary_queue_hits).sum();
        let total = main + secondary;
        if total == 0 {
            0.0
        } else {
            secondary as f64 / total as f64
        }
    }
}

/// Metrics of a whole query execution.
#[derive(Debug, Clone)]
pub struct ExecutionMetrics {
    /// Wall-clock time of the parallel execution (excluding plan binding).
    pub elapsed: Duration,
    /// Total threads spawned across all pools.
    pub total_threads: usize,
    /// Per-operation metrics, in plan order.
    pub operations: Vec<OperationMetrics>,
}

impl ExecutionMetrics {
    /// Total activations consumed across the query.
    pub fn total_activations(&self) -> u64 {
        self.operations
            .iter()
            .map(OperationMetrics::total_activations)
            .sum()
    }

    /// Metrics of one operation.
    pub fn operation(&self, node: NodeId) -> Option<&OperationMetrics> {
        self.operations.iter().find(|o| o.node == node)
    }

    /// The largest per-operation busy imbalance in the query (1.0 = balanced).
    pub fn worst_imbalance(&self) -> f64 {
        self.operations
            .iter()
            .map(OperationMetrics::busy_imbalance)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(
        thread: usize,
        activations: u64,
        busy_ms: u64,
        main: u64,
        secondary: u64,
    ) -> ThreadMetrics {
        ThreadMetrics {
            thread,
            activations,
            tuples_out: activations * 2,
            busy: Duration::from_millis(busy_ms),
            idle_polls: 0,
            main_queue_hits: main,
            secondary_queue_hits: secondary,
            cache_flushes: 0,
        }
    }

    fn operation() -> OperationMetrics {
        OperationMetrics {
            node: NodeId(0),
            name: "join".to_string(),
            queues: 4,
            threads: vec![thread(0, 10, 100, 8, 2), thread(1, 30, 300, 30, 0)],
        }
    }

    #[test]
    fn totals() {
        let op = operation();
        assert_eq!(op.total_activations(), 40);
        assert_eq!(op.total_tuples_out(), 80);
    }

    #[test]
    fn imbalance_ratio() {
        let op = operation();
        assert_eq!(op.max_busy(), Duration::from_millis(300));
        assert_eq!(op.avg_busy(), Duration::from_millis(200));
        assert!((op.busy_imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn secondary_ratio() {
        let op = operation();
        assert!((op.secondary_consumption_ratio() - 2.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_operation_is_balanced() {
        let op = OperationMetrics {
            node: NodeId(1),
            name: "store".into(),
            queues: 0,
            threads: vec![],
        };
        assert_eq!(op.busy_imbalance(), 1.0);
        assert_eq!(op.secondary_consumption_ratio(), 0.0);
        assert_eq!(op.avg_busy(), Duration::ZERO);
    }

    #[test]
    fn execution_metrics_aggregation() {
        let m = ExecutionMetrics {
            elapsed: Duration::from_millis(500),
            total_threads: 2,
            operations: vec![operation()],
        };
        assert_eq!(m.total_activations(), 40);
        assert!(m.operation(NodeId(0)).is_some());
        assert!(m.operation(NodeId(9)).is_none());
        assert!((m.worst_imbalance() - 1.5).abs() < 1e-9);
    }
}
