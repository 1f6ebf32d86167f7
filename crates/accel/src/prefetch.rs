//! Decoupled access-execute prefetch machinery (Section IV-A).
//!
//! The paper's prefetching architecture for the Arc cache has three parts:
//!
//! * the **Request FIFO** holds miss addresses on their way to the memory
//!   controller (one new request per cycle);
//! * the **Arc FIFO** holds every in-flight arc (hit or miss) together with
//!   its execution payload, in issue order;
//! * the **Reorder Buffer** holds returning memory blocks until their arc
//!   reaches the FIFO head, preventing a younger fill from evicting an
//!   older, not-yet-consumed line.
//!
//! Arc addresses are *computed* after pruning, not predicted, so every
//! prefetch is useful; with 64 entries the FIFO depth covers the 50-cycle
//! memory latency and the pipeline almost never stalls (97% of a perfect
//! cache in the paper).
//!
//! For timing purposes the ensemble behaves as an **in-order commit window
//! of depth N**: an arc may issue only when fewer than N older arcs are
//! still unconsumed, and arcs leave the window in order, at most one per
//! cycle, each no earlier than its data is ready. [`InOrderWindow`] models
//! exactly that contract and is shared by the State Issuer (window 8,
//! Table I) and the Arc Issuer (window 8 baseline / 64 with prefetching).

use std::collections::VecDeque;

/// An in-order issue/commit window of fixed depth.
///
/// Items are pushed in program order with the cycle their data becomes
/// ready; [`InOrderWindow::push`] returns the cycle the item can be
/// consumed by the next pipeline stage (at most one per cycle, in order).
/// [`InOrderWindow::admit`] gates issue when the window is full.
#[derive(Debug, Clone)]
pub struct InOrderWindow {
    depth: usize,
    last_commit: u64,
    // Commit times of the most recent `depth` items.
    recent: VecDeque<u64>,
}

impl InOrderWindow {
    /// Creates a window of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "window needs at least one slot");
        Self {
            depth,
            last_commit: 0,
            recent: VecDeque::with_capacity(depth),
        }
    }

    /// Earliest cycle an item wanting to issue at `t` may actually issue:
    /// when the window is full, it must wait for the item `depth` positions
    /// back to commit.
    pub fn admit(&self, t: u64) -> u64 {
        if self.recent.len() < self.depth {
            t
        } else {
            t.max(self.recent[self.recent.len() - self.depth])
        }
    }

    /// Registers an item whose data is ready at `ready`; returns its commit
    /// cycle (in-order, one per cycle).
    pub fn push(&mut self, ready: u64) -> u64 {
        let commit = ready.max(self.last_commit + 1);
        self.last_commit = commit;
        self.recent.push_back(commit);
        if self.recent.len() > self.depth {
            self.recent.pop_front();
        }
        commit
    }

    /// Commit cycle of the most recent item (0 if none).
    pub fn last_commit(&self) -> u64 {
        self.last_commit
    }

    /// Restarts the window at `cycle` (drained, nothing in flight).
    pub fn reset_at(&mut self, cycle: u64) {
        self.last_commit = cycle;
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_are_in_order_one_per_cycle() {
        let mut w = InOrderWindow::new(4);
        // Data ready out of order; commits stay ordered.
        let c1 = w.push(10);
        let c2 = w.push(5); // ready earlier, still commits after c1
        let c3 = w.push(30);
        assert_eq!(c1, 10);
        assert_eq!(c2, 11);
        assert_eq!(c3, 30);
    }

    #[test]
    fn admit_gates_when_window_full() {
        let mut w = InOrderWindow::new(2);
        w.push(100);
        w.push(200);
        // Window holds items committing at 100 and 200; a third item
        // issuing at t=0 must wait for the one 2-back (cycle 100).
        assert_eq!(w.admit(0), 100);
        w.push(300);
        // Now the two most recent commit at 200 and 300.
        assert_eq!(w.admit(0), 200);
    }

    #[test]
    fn deep_window_hides_latency() {
        // A stream of misses each ready 50 cycles after issue. With a deep
        // window, steady-state throughput is 1/cycle; with a shallow one,
        // issue stalls on commit.
        let throughput = |depth: usize| -> u64 {
            let mut w = InOrderWindow::new(depth);
            let mut issue = 0u64;
            let mut last = 0u64;
            for _ in 0..200 {
                issue = w.admit(issue) + 1; // 1-cycle tag check
                last = w.push(issue + 50);
            }
            last
        };
        let shallow = throughput(8);
        let deep = throughput(64);
        assert!(deep < shallow, "deep window must finish earlier");
        // Deep window: ~200 cycles + latency; shallow: ~200/8*50.
        assert!(deep <= 200 + 60);
        assert!(shallow >= 1000);
    }

    #[test]
    fn hits_flow_at_full_rate() {
        let mut w = InOrderWindow::new(8);
        let mut last = 0;
        for i in 0..100u64 {
            let t = w.admit(i) + 1;
            last = w.push(t);
        }
        assert_eq!(last, 100);
    }

    #[test]
    fn reset_at_restarts_clean() {
        let mut w = InOrderWindow::new(2);
        w.push(1000);
        w.reset_at(2000);
        assert_eq!(w.admit(0), 0);
        assert_eq!(w.push(0), 2001);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        InOrderWindow::new(0);
    }
}
