//! The virtual-time cost model.
//!
//! All costs are in virtual microseconds. The defaults are calibrated so
//! that the simulator's sequential times land in the same range as the
//! paper's KSR1 measurements (a 40 MIPS processor interpreting tuple
//! operations):
//!
//! * `Tseq ≈ 956 s` for the IdealJoin of 200K ⋈ 20K tuples over 200
//!   fragments with a nested-loop join (Section 5.5, Figure 15) — with 200
//!   fragments that is 200 × (1000 × 100) = 20M inner comparisons, i.e.
//!   ≈ 48 µs per comparison;
//! * `Tseq ≈ 1048 s` for the corresponding AssocJoin (Figure 14);
//! * a partitioning overhead of ≈ 0.45 ms per degree for the triggered
//!   IdealJoin (one control queue per fragment) and ≈ 4 ms per degree for
//!   the pipelined AssocJoin (a control queue plus a heavily polled data
//!   queue per fragment), Figure 16;
//! * a start-up cost proportional to the number of threads (Section 1).

use dbs3_lera::JoinAlgorithm;

/// Per-activation virtual-time costs (microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCostParams {
    /// Scanning one tuple from a fragment (filter / transmit source).
    pub scan_tuple_us: f64,
    /// Producing + consuming one data activation through a queue.
    pub move_tuple_us: f64,
    /// One inner-tuple comparison of a nested-loop probe.
    pub nested_loop_compare_us: f64,
    /// Inserting one inner tuple into a temporary index / hash table.
    pub build_per_tuple_us: f64,
    /// One probe of a temporary index / hash table.
    pub indexed_probe_us: f64,
    /// Materialising one result tuple.
    pub store_tuple_us: f64,
    /// Creating one *control* (triggered) activation queue.
    pub control_queue_us: f64,
    /// Creating and repeatedly polling one *data* (pipelined) activation
    /// queue over the operation's lifetime.
    pub data_queue_us: f64,
    /// Starting one thread (the sequential start-up step whose duration is
    /// proportional to the degree of parallelism).
    pub thread_startup_us: f64,
    /// Fixed handling cost per activation (dequeue, dispatch).
    pub activation_overhead_us: f64,
}

impl Default for SimCostParams {
    fn default() -> Self {
        SimCostParams {
            scan_tuple_us: 140.0,
            move_tuple_us: 45.0,
            nested_loop_compare_us: 47.0,
            build_per_tuple_us: 120.0,
            indexed_probe_us: 260.0,
            store_tuple_us: 60.0,
            control_queue_us: 450.0,
            data_queue_us: 3_500.0,
            thread_startup_us: 4_000.0,
            activation_overhead_us: 25.0,
        }
    }
}

impl SimCostParams {
    /// Cost of a triggered join activation joining an `outer_card`-tuple
    /// fragment with an `inner_card`-tuple fragment, producing an estimated
    /// `output_card` result tuples that are stored in place.
    pub fn triggered_join_activation_us(
        &self,
        outer_card: usize,
        inner_card: usize,
        output_card: usize,
        algorithm: JoinAlgorithm,
    ) -> f64 {
        let (oc, ic, rc) = (outer_card as f64, inner_card as f64, output_card as f64);
        let join = match algorithm {
            JoinAlgorithm::NestedLoop => oc * ic * self.nested_loop_compare_us,
            JoinAlgorithm::Hash | JoinAlgorithm::TempIndex => {
                ic * self.build_per_tuple_us + oc * self.indexed_probe_us
            }
        };
        self.activation_overhead_us + oc * self.scan_tuple_us + join + rc * self.store_tuple_us
    }

    /// Cost of one pipelined-join probe against an `inner_card`-tuple
    /// fragment, storing `matches` result tuples.
    pub fn pipelined_probe_us(
        &self,
        inner_card: usize,
        matches: usize,
        algorithm: JoinAlgorithm,
    ) -> f64 {
        let probe = match algorithm {
            JoinAlgorithm::NestedLoop => inner_card as f64 * self.nested_loop_compare_us,
            JoinAlgorithm::Hash | JoinAlgorithm::TempIndex => self.indexed_probe_us,
        };
        self.activation_overhead_us + probe + matches as f64 * self.store_tuple_us
    }

    /// One-time cost of building the per-instance temporary index of a
    /// pipelined hash/index join over an `inner_card`-tuple fragment.
    pub fn pipelined_build_us(&self, inner_card: usize, algorithm: JoinAlgorithm) -> f64 {
        match algorithm {
            JoinAlgorithm::NestedLoop => 0.0,
            JoinAlgorithm::Hash | JoinAlgorithm::TempIndex => {
                inner_card as f64 * self.build_per_tuple_us
            }
        }
    }

    /// Sequential start-up cost of an execution with the given numbers of
    /// control queues, data queues and threads.
    pub fn startup_us(&self, control_queues: usize, data_queues: usize, threads: usize) -> f64 {
        control_queues as f64 * self.control_queue_us
            + data_queues as f64 * self.data_queue_us
            + threads as f64 * self.thread_startup_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_paper_sequential_time_scale() {
        // 200 fragments of 1000 x 100 tuples, nested loop: the paper reports
        // Tseq = 956 s. Accept the right order of magnitude (within 25%).
        let p = SimCostParams::default();
        let per_fragment =
            p.triggered_join_activation_us(1000, 100, 100, JoinAlgorithm::NestedLoop);
        let total_s = 200.0 * per_fragment / 1e6;
        assert!(
            (total_s - 956.0).abs() / 956.0 < 0.25,
            "sequential IdealJoin estimate {total_s} s too far from 956 s"
        );
    }

    #[test]
    fn assoc_join_sequential_time_scale() {
        // 20K transmitted tuples, each probing a 1000-tuple fragment with a
        // nested loop; paper reports Tseq = 1048 s.
        let p = SimCostParams::default();
        let emit = 20_000.0 * (p.scan_tuple_us + p.move_tuple_us);
        let probe = 20_000.0 * p.pipelined_probe_us(1000, 1, JoinAlgorithm::NestedLoop);
        let total_s = (emit + probe) / 1e6;
        assert!(
            (total_s - 1048.0).abs() / 1048.0 < 0.25,
            "sequential AssocJoin estimate {total_s} s too far from 1048 s"
        );
    }

    #[test]
    fn partitioning_overhead_per_degree_matches_paper_ratio() {
        // IdealJoin adds one control queue per degree (~0.45 ms); AssocJoin
        // adds a control plus a data queue per degree (~4 ms).
        let p = SimCostParams::default();
        let ideal_per_degree_ms = p.control_queue_us / 1e3;
        let assoc_per_degree_ms = (p.control_queue_us + p.data_queue_us) / 1e3;
        assert!((ideal_per_degree_ms - 0.45).abs() < 0.1);
        assert!((assoc_per_degree_ms - 4.0).abs() < 0.5);
    }

    #[test]
    fn indexed_join_cheaper_than_nested_loop_for_large_fragments() {
        let p = SimCostParams::default();
        let nl = p.triggered_join_activation_us(1000, 1000, 100, JoinAlgorithm::NestedLoop);
        let ix = p.triggered_join_activation_us(1000, 1000, 100, JoinAlgorithm::TempIndex);
        assert!(ix < nl / 10.0);
    }

    #[test]
    fn startup_grows_with_threads_and_queues() {
        let p = SimCostParams::default();
        assert!(p.startup_us(200, 0, 10) < p.startup_us(1500, 0, 10));
        assert!(p.startup_us(200, 0, 10) < p.startup_us(200, 200, 10));
        assert!(p.startup_us(200, 0, 10) < p.startup_us(200, 0, 100));
    }

    #[test]
    fn pipelined_build_only_for_indexed_algorithms() {
        let p = SimCostParams::default();
        assert_eq!(p.pipelined_build_us(500, JoinAlgorithm::NestedLoop), 0.0);
        assert!(p.pipelined_build_us(500, JoinAlgorithm::TempIndex) > 0.0);
    }
}
