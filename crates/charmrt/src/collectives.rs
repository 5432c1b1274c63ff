//! Spanning-tree index arithmetic for k-ary broadcast and reduction trees.
//!
//! The optimized multicast of §4.2.3 is one member of a family of Charm++
//! communication utilities ("a simple utility was then added to the Charm++
//! runtime, as it is useful for other programs as well"). A k-ary tree
//! fans out without a serial sender bottleneck and fans in without a single
//! hot receiver: at 2048 PEs a flat fan-in of N messages serializes N
//! receive overheads on one processor, where a tree takes `log_k N` rounds.
//!
//! The helpers are pure index arithmetic over a heap-ordered block of
//! object ids; `crates/analyze` builds its observable-reduction tree on
//! them.

/// Children of tree node `i` (0-rooted, k-ary, heap layout): nodes
/// `k·i + 1 ..= k·i + k` that exist.
pub fn tree_children(i: usize, n: usize, arity: usize) -> Vec<usize> {
    assert!(arity >= 1);
    (1..=arity)
        .map(|j| arity * i + j)
        .filter(|&c| c < n)
        .collect()
}

/// Parent of tree node `i`, or `None` for the root.
pub fn tree_parent(i: usize, arity: usize) -> Option<usize> {
    assert!(arity >= 1);
    if i == 0 {
        None
    } else {
        Some((i - 1) / arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_indexing_is_consistent() {
        for n in [1usize, 2, 7, 64, 245] {
            for arity in [2usize, 4, 8] {
                let mut child_count = 0;
                for i in 0..n {
                    for c in tree_children(i, n, arity) {
                        assert_eq!(tree_parent(c, arity), Some(i));
                        child_count += 1;
                    }
                }
                // Every node except the root is someone's child, exactly once.
                assert_eq!(child_count, n - 1, "n={n} arity={arity}");
            }
        }
    }
}
