//! Spanning-tree collectives: broadcast and reduction over a set of objects.
//!
//! The optimized multicast of §4.2.3 is one member of a family of Charm++
//! communication utilities ("a simple utility was then added to the Charm++
//! runtime, as it is useful for other programs as well"). This module adds
//! the other two workhorses: a k-ary spanning-tree *broadcast* (fan-out
//! without a serial sender bottleneck) and a *reduction* tree (fan-in
//! without a single hot receiver). At 2048 PEs a flat fan-in of N messages
//! serializes N receive overheads on one processor; a k-ary tree turns that
//! into `log_k N` rounds.
//!
//! The helpers are pure index arithmetic over a contiguous block of object
//! ids; [`TreeNode`] is a ready-made chare implementing both collectives for
//! signal-style (payload-free) use, as the engine's completion barrier.

use crate::chare::{Chare, Ctx};
use crate::msg::{EntryId, ObjId, Payload, Priority};

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

/// Tree depth (number of message hops from root to the deepest leaf).
pub fn tree_depth(n: usize, arity: usize) -> usize {
    let mut depth = 0;
    let mut i = n.saturating_sub(1);
    while let Some(p) = tree_parent(i, arity) {
        depth += 1;
        i = p;
    }
    depth
}

/// A spanning-tree collective node for signal-style reductions/broadcasts.
///
/// Reduction: leaves (and interior nodes, once their own `contribute` call
/// and all children's messages arrive) forward one message to their parent;
/// the root signals `target` when the whole tree has contributed.
/// Broadcast: on receiving the broadcast entry, forward to all children.
pub struct TreeNode {
    /// This node's index within the tree block.
    pub index: usize,
    /// Total tree size.
    pub n: usize,
    /// Tree arity.
    pub arity: usize,
    /// ObjId of tree node 0 (the block is contiguous: node i = base + i).
    pub base: ObjId,
    /// Entry for upward (reduction) messages.
    pub reduce_entry: EntryId,
    /// Entry for downward (broadcast) messages.
    pub broadcast_entry: EntryId,
    /// Where the root reports a completed reduction: (object, entry).
    pub target: (ObjId, EntryId),
    /// Contributions received this round (own + children).
    received: usize,
    /// Message priority used for tree traffic.
    pub priority: Priority,
}

impl TreeNode {
    /// Contributions this node waits for per reduction round: its own plus
    /// one per child.
    fn expected(&self) -> usize {
        1 + tree_children(self.index, self.n, self.arity).len()
    }

    fn node_id(&self, i: usize) -> ObjId {
        ObjId(self.base.0 + i as u32)
    }
}

impl Chare for TreeNode {
    fn receive(&mut self, entry: EntryId, _payload: Payload, ctx: &mut Ctx) {
        if entry == self.reduce_entry {
            self.received += 1;
            debug_assert!(self.received <= self.expected());
            if self.received == self.expected() {
                self.received = 0;
                match tree_parent(self.index, self.arity) {
                    Some(p) => {
                        ctx.send(
                            self.node_id(p),
                            self.reduce_entry,
                            32,
                            self.priority,
                            Vec::new(),
                        );
                    }
                    None => {
                        let (obj, e) = self.target;
                        ctx.send(obj, e, 32, self.priority, Vec::new());
                    }
                }
            }
        } else if entry == self.broadcast_entry {
            for c in tree_children(self.index, self.n, self.arity) {
                ctx.send(
                    self.node_id(c),
                    self.broadcast_entry,
                    32,
                    self.priority,
                    Vec::new(),
                );
            }
        } else {
            unreachable!("TreeNode got unexpected entry {entry:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Des;
    use crate::msg::PRIO_NORMAL;
    use crate::Runtime;
    use machine::presets;
    use std::sync::{Arc, Mutex};

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

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(tree_depth(1, 4), 0);
        assert!(tree_depth(2048, 4) <= 6);
        assert!(tree_depth(2048, 2) <= 11);
    }

    /// A sink chare that records when it is signalled.
    struct Flag(Arc<Mutex<u32>>);
    impl Chare for Flag {
        fn receive(&mut self, _e: EntryId, _p: Payload, _ctx: &mut Ctx) {
            *self.0.lock().unwrap() += 1;
        }
    }

    fn build_tree(
        des: &mut Des,
        n: usize,
        arity: usize,
        n_pes: usize,
    ) -> (ObjId, EntryId, EntryId, Arc<Mutex<u32>>) {
        let reduce = des.register_entry("TreeReduce");
        let broadcast = des.register_entry("TreeBroadcast");
        let done = des.register_entry("TreeDone");
        let hits = Arc::new(Mutex::new(0));
        let sink = des.register(Box::new(Flag(hits.clone())), 0, false);
        let base = ObjId(sink.0 + 1);
        for i in 0..n {
            let node = TreeNode {
                index: i,
                n,
                arity,
                base,
                reduce_entry: reduce,
                broadcast_entry: broadcast,
                target: (sink, done),
                received: 0,
                priority: PRIO_NORMAL,
            };
            let id = des.register(Box::new(node), i % n_pes, false);
            assert_eq!(id.0, base.0 + i as u32);
        }
        (base, reduce, broadcast, hits)
    }

    #[test]
    fn reduction_fires_target_exactly_once() {
        let mut des = Des::new(16, presets::asci_red());
        let n = 245;
        let (base, reduce, _b, hits) = build_tree(&mut des, n, 4, 16);
        // Every node contributes once (self-contribution message).
        for i in 0..n {
            des.inject(ObjId(base.0 + i as u32), reduce, 32, PRIO_NORMAL, Vec::new());
        }
        des.run();
        assert_eq!(*hits.lock().unwrap(), 1);
    }

    #[test]
    fn reduction_is_reusable_across_rounds() {
        let mut des = Des::new(8, presets::ideal());
        let n = 30;
        let (base, reduce, _b, hits) = build_tree(&mut des, n, 3, 8);
        for _round in 0..3 {
            for i in 0..n {
                des.inject(ObjId(base.0 + i as u32), reduce, 32, PRIO_NORMAL, Vec::new());
            }
            des.run();
        }
        assert_eq!(*hits.lock().unwrap(), 3);
    }

    #[test]
    fn broadcast_reaches_every_node() {
        // Broadcast to the tree, then have each node's handler count via
        // the sink — here we verify by message counts in the stats instead.
        let mut des = Des::new(8, presets::ideal());
        let n = 64;
        let (base, _r, broadcast, _hits) = build_tree(&mut des, n, 4, 8);
        des.inject(base, broadcast, 32, PRIO_NORMAL, Vec::new());
        des.run();
        // Every non-root node received exactly one broadcast message:
        // n-1 sends plus the injected one = n executions of the entry.
        assert_eq!(des.stats().entry_count[broadcast.idx()], n as u64);
    }

    #[test]
    fn tree_reduction_beats_flat_fan_in_at_scale() {
        // Time a flat 2048-way fan-in against a 4-ary tree on the ASCI-Red
        // model: the tree's makespan must be much shorter.
        let machine = presets::asci_red();
        let n = 2048;

        // Flat: all n signals arrive at a single sink, whose receive
        // overheads serialize on one processor.
        let mut flat = Des::new(n, machine);
        let e = flat.register_entry("sig");
        let hits = Arc::new(Mutex::new(0));
        let sink = flat.register(Box::new(Flag(hits.clone())), 0, false);
        for _ in 0..n {
            flat.inject(sink, e, 32, PRIO_NORMAL, Vec::new());
        }
        let t_flat = flat.run();

        // Tree: one node per PE.
        let mut tree = Des::new(n, machine);
        let (base, reduce, _b, thits) = build_tree(&mut tree, n, 4, n);
        for i in 0..n {
            tree.inject(ObjId(base.0 + i as u32), reduce, 32, PRIO_NORMAL, Vec::new());
        }
        let t_tree = tree.run();
        assert_eq!(*thits.lock().unwrap(), 1);
        assert!(
            t_tree < t_flat / 5.0,
            "tree {t_tree} should be ≫ faster than flat {t_flat}"
        );
    }
}
