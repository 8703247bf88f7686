//! Thread allocation across subqueries and operations (Section 3, Figure 5).
//!
//! The scheduler fixes the execution parameters top-down in four steps; this
//! module implements the two numeric ones, which the simulator runs for its
//! one-pool-per-operation machine:
//!
//! * **Step 2 — assigning threads to subqueries.** The execution graph is an
//!   inverted tree of subqueries (pipelined chains separated by
//!   materialisations). The total CPU power `N` is allocated to the root and
//!   recursively distributed among each node's children proportionally to the
//!   sequential complexity of the child's whole subtree. This produces the
//!   system of equations of the paper's example:
//!   `N5 = N`, `N3 + N4 = N5`, `(T3+T1+T2)/N3 = T4/N4`,
//!   `N1 + N2 = N3`, `T1/N1 = T2/N2`.
//! * **Step 3 — assigning threads to operations of a chain.** The threads of
//!   a chain are split among its operations in proportion to each operation's
//!   estimated complexity.
//!
//! Fractional allocations are also rounded to integers (each subquery and
//!   operation gets at least one thread, and the integer counts sum to the
//!   requested totals) because the simulated machine runs whole threads.

use std::collections::BTreeMap;

/// One node of the subquery tree (a pipelined chain).
#[derive(Debug, Clone)]
pub struct SubqueryNode {
    /// Identifier of the subquery (e.g. its index in the plan).
    pub id: usize,
    /// Estimated *own* sequential complexity `Ti` of the subquery.
    pub complexity: f64,
    /// Children: the subqueries whose materialised results feed this one.
    pub children: Vec<SubqueryNode>,
}

impl SubqueryNode {
    /// Creates a leaf subquery.
    pub fn leaf(id: usize, complexity: f64) -> Self {
        SubqueryNode {
            id,
            complexity,
            children: Vec::new(),
        }
    }

    /// Creates an internal subquery with children.
    pub fn node(id: usize, complexity: f64, children: Vec<SubqueryNode>) -> Self {
        SubqueryNode {
            id,
            complexity,
            children,
        }
    }

    /// Total sequential complexity of this node's subtree (own + descendants).
    pub fn subtree_complexity(&self) -> f64 {
        self.complexity
            + self
                .children
                .iter()
                .map(SubqueryNode::subtree_complexity)
                .sum::<f64>()
    }
}

/// The result of a subquery allocation: fractional and integer thread counts
/// per subquery id.
#[derive(Debug, Clone)]
pub struct SubqueryPlanAllocation {
    /// Exact (fractional) allocation solving the ratio equations.
    pub fractional: BTreeMap<usize, f64>,
    /// Integer allocation: each subquery gets at least one thread; the root
    /// level of every sibling group sums to its parent's integer count.
    pub integral: BTreeMap<usize, usize>,
}

impl SubqueryPlanAllocation {
    /// Fractional threads for a subquery.
    pub fn threads_of(&self, id: usize) -> Option<f64> {
        self.fractional.get(&id).copied()
    }

    /// Integer threads for a subquery.
    pub fn integral_threads_of(&self, id: usize) -> Option<usize> {
        self.integral.get(&id).copied()
    }
}

/// Step 2: assigns `total_threads` to the subqueries of the tree rooted at
/// `root` (bottom-up proportional assignment described in the paper).
///
/// The root subquery receives the full CPU power; every sibling group splits
/// its parent's allocation proportionally to subtree complexity. Subqueries
/// with zero total complexity split evenly.
pub fn allocate_subqueries(root: &SubqueryNode, total_threads: usize) -> SubqueryPlanAllocation {
    assert!(total_threads > 0, "at least one thread must be allocated");
    let mut fractional = BTreeMap::new();
    let mut integral = BTreeMap::new();
    assign_node(
        root,
        total_threads as f64,
        total_threads,
        &mut fractional,
        &mut integral,
    );
    SubqueryPlanAllocation {
        fractional,
        integral,
    }
}

fn assign_node(
    node: &SubqueryNode,
    threads: f64,
    threads_int: usize,
    fractional: &mut BTreeMap<usize, f64>,
    integral: &mut BTreeMap<usize, usize>,
) {
    fractional.insert(node.id, threads);
    integral.insert(node.id, threads_int);
    if node.children.is_empty() {
        return;
    }
    let weights: Vec<f64> = node
        .children
        .iter()
        .map(SubqueryNode::subtree_complexity)
        .collect();
    let shares = proportional_split(threads, &weights);
    let int_shares = integral_split(threads_int, &weights, node.children.len());
    for ((child, share), int_share) in node.children.iter().zip(shares).zip(int_shares) {
        assign_node(child, share, int_share, fractional, integral);
    }
}

/// Step 3: splits the threads of a pipeline chain among its operations in
/// proportion to each operation's estimated complexity:
/// `NbThreads(Opi) = NbThreads(Chain) × Complexity(Opi) / Complexity(Chain)`.
///
/// Returns one integer count per operation; every operation gets at least
/// one thread and the counts sum to `chain_threads` when
/// `chain_threads >= operations.len()` (otherwise the total is the number of
/// operations, the minimum viable allocation).
pub fn allocate_chain(chain_threads: usize, operation_complexities: &[f64]) -> Vec<usize> {
    assert!(
        !operation_complexities.is_empty(),
        "a chain has at least one operation"
    );
    integral_split(
        chain_threads,
        operation_complexities,
        operation_complexities.len(),
    )
}

/// Splits `amount` proportionally to `weights` (all-zero weights split
/// evenly).
fn proportional_split(amount: f64, weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return vec![amount / weights.len() as f64; weights.len()];
    }
    weights.iter().map(|w| amount * w / total).collect()
}

/// Splits `amount` threads into integer shares proportional to `weights`,
/// guaranteeing a minimum of one per share. Uses largest-remainder rounding
/// so the result sums to `max(amount, parts)`.
fn integral_split(amount: usize, weights: &[f64], parts: usize) -> Vec<usize> {
    assert_eq!(weights.len(), parts);
    let amount = amount.max(parts);
    let fractional = proportional_split(amount as f64, weights);
    // Start from the floor but at least 1.
    let mut shares: Vec<usize> = fractional
        .iter()
        .map(|f| (f.floor() as usize).max(1))
        .collect();
    let mut assigned: usize = shares.iter().sum();
    // Largest remainder first for the leftover threads.
    let mut order: Vec<usize> = (0..parts).collect();
    order.sort_by(|&a, &b| {
        let ra = fractional[a] - fractional[a].floor();
        let rb = fractional[b] - fractional[b].floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut i = 0;
    while assigned < amount {
        shares[order[i % parts]] += 1;
        assigned += 1;
        i += 1;
    }
    // The minimum-one rule can over-assign when some weights round to zero;
    // take the excess back from the largest shares so the total matches the
    // requested amount exactly (no share drops below one).
    while assigned > amount {
        let largest = (0..parts)
            .filter(|&p| shares[p] > 1)
            .max_by_key(|&p| shares[p])
            .expect("amount >= parts guarantees some share above one");
        shares[largest] -= 1;
        assigned -= 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the example tree of Figure 5:
    /// Sq5 is the root, with children Sq3 and Sq4; Sq3 has children Sq1, Sq2.
    fn figure5_tree(t1: f64, t2: f64, t3: f64, t4: f64, t5: f64) -> SubqueryNode {
        SubqueryNode::node(
            5,
            t5,
            vec![
                SubqueryNode::node(
                    3,
                    t3,
                    vec![SubqueryNode::leaf(1, t1), SubqueryNode::leaf(2, t2)],
                ),
                SubqueryNode::leaf(4, t4),
            ],
        )
    }

    #[test]
    fn figure5_equations_hold() {
        // T1..T5 chosen arbitrarily; the paper's system must hold:
        // N5 = N, N3 + N4 = N5, (T3+T1+T2)/N3 = T4/N4, N1+N2 = N3, T1/N1 = T2/N2.
        let (t1, t2, t3, t4, t5) = (10.0, 30.0, 20.0, 40.0, 5.0);
        let tree = figure5_tree(t1, t2, t3, t4, t5);
        let alloc = allocate_subqueries(&tree, 100);
        let n = |id: usize| alloc.threads_of(id).unwrap();

        assert!((n(5) - 100.0).abs() < 1e-9);
        assert!((n(3) + n(4) - n(5)).abs() < 1e-9);
        assert!(((t3 + t1 + t2) / n(3) - t4 / n(4)).abs() < 1e-9);
        assert!((n(1) + n(2) - n(3)).abs() < 1e-9);
        assert!((t1 / n(1) - t2 / n(2)).abs() < 1e-9);
    }

    #[test]
    fn equal_complexities_split_evenly() {
        let tree = figure5_tree(10.0, 10.0, 0.0, 20.0, 0.0);
        let alloc = allocate_subqueries(&tree, 40);
        // Subtree of Sq3 = 20, Sq4 = 20 → even split.
        assert!((alloc.threads_of(3).unwrap() - 20.0).abs() < 1e-9);
        assert!((alloc.threads_of(4).unwrap() - 20.0).abs() < 1e-9);
        assert!((alloc.threads_of(1).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn integral_allocation_sums_and_minimums() {
        let tree = figure5_tree(1.0, 1.0, 1.0, 100.0, 1.0);
        let alloc = allocate_subqueries(&tree, 10);
        let n3 = alloc.integral_threads_of(3).unwrap();
        let n4 = alloc.integral_threads_of(4).unwrap();
        assert_eq!(n3 + n4, 10);
        // Every subquery gets at least one thread even though Sq4 dominates.
        assert!(alloc.integral_threads_of(1).unwrap() >= 1);
        assert!(alloc.integral_threads_of(2).unwrap() >= 1);
        assert!(n4 > n3);
    }

    #[test]
    fn zero_complexity_children_split_evenly() {
        let tree = SubqueryNode::node(
            0,
            0.0,
            vec![SubqueryNode::leaf(1, 0.0), SubqueryNode::leaf(2, 0.0)],
        );
        let alloc = allocate_subqueries(&tree, 8);
        assert!((alloc.threads_of(1).unwrap() - 4.0).abs() < 1e-9);
        assert!((alloc.threads_of(2).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_gets_everything() {
        let tree = SubqueryNode::leaf(7, 42.0);
        let alloc = allocate_subqueries(&tree, 16);
        assert_eq!(alloc.integral_threads_of(7), Some(16));
        assert_eq!(alloc.fractional.len(), 1);
    }

    #[test]
    fn chain_allocation_proportional() {
        // Paper step 3: threads split by complexity ratio.
        let shares = allocate_chain(10, &[1.0, 3.0, 6.0]);
        assert_eq!(shares.iter().sum::<usize>(), 10);
        assert_eq!(shares, vec![1, 3, 6]);
    }

    #[test]
    fn chain_allocation_minimum_one_per_operation() {
        let shares = allocate_chain(2, &[1.0, 1.0, 1.0, 100.0]);
        assert!(shares.iter().all(|&s| s >= 1));
        assert_eq!(shares.len(), 4);
    }

    #[test]
    fn chain_allocation_handles_rounding() {
        let shares = allocate_chain(7, &[1.0, 1.0, 1.0]);
        assert_eq!(shares.iter().sum::<usize>(), 7);
        // No share differs from another by more than 1 when weights are equal.
        let max = shares.iter().max().unwrap();
        let min = shares.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn subtree_helpers() {
        let tree = figure5_tree(1.0, 2.0, 3.0, 4.0, 5.0);
        assert!((tree.subtree_complexity() - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        allocate_subqueries(&SubqueryNode::leaf(0, 1.0), 0);
    }
}
