//! Simulation reports.

use dbs3_lera::NodeId;

/// Per-operation outcome of a simulation.
#[derive(Debug, Clone)]
pub struct OperationReport {
    /// Plan node of the operation.
    pub node: NodeId,
    /// Operation display name.
    pub name: String,
    /// Threads allocated to the operation's pool.
    pub threads: usize,
    /// Number of activations processed.
    pub activations: usize,
    /// Exact number of output tuples the operation produces (counted over
    /// the actual stored tuples, not estimated), so simulated and threaded
    /// executions report identical result cardinalities.
    pub tuples_out: usize,
    /// Sum of activation costs (virtual µs, undilated).
    pub total_work_us: f64,
    /// Cost of the most expensive activation (virtual µs).
    pub max_activation_us: f64,
    /// Virtual time at which the operation's last activation completed,
    /// measured from the end of start-up.
    pub completion_us: f64,
    /// Virtual busy time accumulated by each worker of the pool (dilated
    /// µs) — the simulator's counterpart of the engine's per-thread busy
    /// metrics.
    pub busy_us: Vec<f64>,
}

impl OperationReport {
    /// The operation's skew factor `Pmax / P` over its activation costs.
    pub fn skew_factor(&self) -> f64 {
        if self.activations == 0 || self.total_work_us == 0.0 {
            return 1.0;
        }
        self.max_activation_us / (self.total_work_us / self.activations as f64)
    }

    /// Busy time of the busiest worker of the pool (virtual µs).
    pub fn max_busy_us(&self) -> f64 {
        self.busy_us.iter().copied().fold(0.0, f64::max)
    }

    /// Average busy time across the pool's workers (virtual µs).
    pub fn avg_busy_us(&self) -> f64 {
        if self.busy_us.is_empty() {
            return 0.0;
        }
        self.busy_us.iter().sum::<f64>() / self.busy_us.len() as f64
    }

    /// Load imbalance `max_busy / avg_busy` (1.0 = perfectly balanced) —
    /// the same definition as the engine's per-operation busy imbalance.
    pub fn busy_imbalance(&self) -> f64 {
        let avg = self.avg_busy_us();
        if avg == 0.0 {
            1.0
        } else {
            self.max_busy_us() / avg
        }
    }
}

/// The outcome of simulating one plan execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total threads of the simulated execution: the schedule's
    /// `query_threads`, fixed by the query or derived from its complexity.
    pub threads: usize,
    /// Sequential start-up time (queue creation + thread start), virtual µs.
    pub startup_us: f64,
    /// Parallel execution span (from start-up end to the last activation
    /// completing), virtual µs.
    pub execution_us: f64,
    /// Total sequential work contained in the plan (sum of all activation
    /// costs), virtual µs.
    pub sequential_work_us: f64,
    /// Per-operation breakdown.
    pub operations: Vec<OperationReport>,
}

impl SimReport {
    /// Total virtual response time (start-up + execution), in µs.
    pub fn total_us(&self) -> f64 {
        self.startup_us + self.execution_us
    }

    /// Total virtual response time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_us() / 1e6
    }

    /// Speed-up relative to an explicitly measured sequential time (µs).
    pub fn speedup_vs(&self, sequential_us: f64) -> f64 {
        sequential_us / self.total_us()
    }

    /// Speed-up relative to the plan's own sequential work (the paper's
    /// `Tseq` is the one-thread execution, whose start-up time is
    /// negligible next to hundreds of seconds of work).
    pub fn speedup(&self) -> f64 {
        self.speedup_vs(self.sequential_work_us)
    }

    /// Speed-up of the parallel execution span alone, ignoring start-up —
    /// useful for small test databases where queue/thread start-up would
    /// otherwise dominate (the "low complexity query" effect of Section 1).
    pub fn execution_speedup(&self) -> f64 {
        if self.execution_us == 0.0 {
            return 1.0;
        }
        self.sequential_work_us / self.execution_us
    }

    /// Report of one operation.
    pub fn operation(&self, node: NodeId) -> Option<&OperationReport> {
        self.operations.iter().find(|o| o.node == node)
    }

    /// Total activations processed across all simulated operations.
    pub fn total_activations(&self) -> u64 {
        self.operations.iter().map(|o| o.activations as u64).sum()
    }

    /// The largest per-operation busy imbalance (1.0 = balanced) — the
    /// simulated counterpart of the engine's `worst_imbalance`.
    pub fn worst_imbalance(&self) -> f64 {
        self.operations
            .iter()
            .map(OperationReport::busy_imbalance)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            threads: 10,
            startup_us: 1_000.0,
            execution_us: 99_000.0,
            sequential_work_us: 900_000.0,
            operations: vec![OperationReport {
                node: NodeId(0),
                name: "join".into(),
                threads: 10,
                activations: 100,
                tuples_out: 1_000,
                total_work_us: 900_000.0,
                max_activation_us: 90_000.0,
                completion_us: 99_000.0,
                busy_us: vec![99_000.0, 89_000.0, 82_000.0],
            }],
        }
    }

    #[test]
    fn totals_and_speedup() {
        let r = report();
        assert!((r.total_us() - 100_000.0).abs() < 1e-9);
        assert!((r.total_seconds() - 0.1).abs() < 1e-12);
        assert!((r.speedup() - 9.0).abs() < 1e-9);
        assert!((r.speedup_vs(1_000_000.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn operation_lookup_and_skew() {
        let r = report();
        let op = r.operation(NodeId(0)).unwrap();
        assert!((op.skew_factor() - 10.0).abs() < 1e-9);
        assert!(r.operation(NodeId(5)).is_none());
    }

    #[test]
    fn empty_operation_has_unit_skew() {
        let op = OperationReport {
            node: NodeId(1),
            name: "store".into(),
            threads: 1,
            activations: 0,
            tuples_out: 0,
            total_work_us: 0.0,
            max_activation_us: 0.0,
            completion_us: 0.0,
            busy_us: Vec::new(),
        };
        assert_eq!(op.skew_factor(), 1.0);
        assert_eq!(op.busy_imbalance(), 1.0);
        assert_eq!(op.avg_busy_us(), 0.0);
    }

    #[test]
    fn busy_imbalance_and_aggregates() {
        let r = report();
        let op = r.operation(NodeId(0)).unwrap();
        assert!((op.max_busy_us() - 99_000.0).abs() < 1e-9);
        assert!((op.avg_busy_us() - 90_000.0).abs() < 1e-9);
        assert!((op.busy_imbalance() - 1.1).abs() < 1e-9);
        assert_eq!(r.total_activations(), 100);
        assert!((r.worst_imbalance() - 1.1).abs() < 1e-9);
    }
}
