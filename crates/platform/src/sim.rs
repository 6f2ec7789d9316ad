//! The shared simulation timebase: integer picoseconds, and the one
//! deterministic event [`Calendar`] every discrete-event simulator in the
//! workspace runs on (the multi-board co-simulation in
//! [`crate::multiboard`] and the serving cluster in `accelsoc-serve`).
//!
//! # Timebase
//!
//! Virtual time is kept in **integer picoseconds** (`u64`), the way
//! SST-style discrete-event frameworks and gem5 keep an integer tick
//! counter: event ordering is exact, ties are broken deterministically,
//! and `now` never moves backwards. A lossy float key such as
//! `(t_ns * 1000.0) as u64` truncates sub-tick fractions, so two distinct
//! event times can collapse onto one key and replay in insertion order
//! rather than time order. Durations arriving from the cost models in
//! (f64) nanoseconds are converted once, on ingest, via [`ps_from_ns`];
//! everything after that is integer arithmetic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Integer simulation ticks per nanosecond (the calendar runs in ps).
pub const PS_PER_NS: u64 = 1_000;

/// Convert a (possibly fractional) nanosecond duration from a cost model
/// into integer picosecond ticks, rounding to the nearest tick.
pub fn ps_from_ns(ns: f64) -> u64 {
    debug_assert!(ns >= 0.0, "durations must be non-negative");
    (ns * PS_PER_NS as f64).round() as u64
}

/// Convert integer picosecond ticks back to nanoseconds for reporting.
pub fn ns_from_ps(ps: u64) -> f64 {
    ps as f64 / PS_PER_NS as f64
}

/// A min-calendar of events in the total order `(ps, tie, seq)`.
///
/// `ps` is the event time; `tie` is the caller's tie-break at equal
/// times (typically `(unit, rank)`: which board or node, then which kind
/// of event goes first); `seq` is assigned at push, so events with equal
/// `(ps, tie)` pop in push order. The payload `E` never takes part in the
/// comparison. A run driven by one calendar is therefore a pure function
/// of the pushes it makes, whatever the host does.
///
/// Time is monotone: debug builds assert that no event is pushed before,
/// and none pops behind, the last popped `ps`.
pub struct Calendar<T: Ord, E> {
    heap: BinaryHeap<Entry<T, E>>,
    next_seq: u64,
    now_ps: u64,
}

struct Entry<T, E> {
    ps: u64,
    tie: T,
    seq: u64,
    ev: E,
}

impl<T: Ord, E> Ord for Entry<T, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` pops its greatest entry: reverse the key order so
        // the earliest `(ps, tie, seq)` comes out first.
        other
            .ps
            .cmp(&self.ps)
            .then_with(|| other.tie.cmp(&self.tie))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T: Ord, E> PartialOrd for Entry<T, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord, E> PartialEq for Entry<T, E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord, E> Eq for Entry<T, E> {}

impl<T: Ord, E> Default for Calendar<T, E> {
    fn default() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now_ps: 0,
        }
    }
}

impl<T: Ord, E> Calendar<T, E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `ev` at `ps`, ordered after every earlier push with the
    /// same `(ps, tie)`.
    pub fn push(&mut self, ps: u64, tie: T, ev: E) {
        debug_assert!(
            ps >= self.now_ps,
            "event pushed at {ps} ps, behind the calendar's now ({} ps)",
            self.now_ps
        );
        self.heap.push(Entry {
            ps,
            tie,
            seq: self.next_seq,
            ev,
        });
        self.next_seq += 1;
    }

    /// Time and tie-break of the next event, without removing it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|e| (e.ps, &e.tie))
    }

    /// Remove the next event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.ps >= self.now_ps, "calendar time moved backwards");
        self.now_ps = e.ps;
        Some((e.ps, e.ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pop order is a stable sort of push order by `(ps, tie)`, and
        /// popped time never decreases.
        #[test]
        fn pops_in_stable_key_order(
            keys in proptest::collection::vec((0u64..40, 0u8..4), 0..120),
        ) {
            let mut cal = Calendar::new();
            for (i, &(ps, tie)) in keys.iter().enumerate() {
                cal.push(ps, tie, i);
            }
            let mut expected: Vec<usize> = (0..keys.len()).collect();
            expected.sort_by_key(|&i| keys[i]);
            let mut popped = Vec::new();
            let mut last = 0;
            while let Some((ps, i)) = cal.pop() {
                prop_assert!(ps >= last, "time went backwards");
                prop_assert_eq!(ps, keys[i].0);
                last = ps;
                popped.push(i);
            }
            prop_assert_eq!(popped, expected);
        }
    }

    #[test]
    fn peek_shows_the_next_pop() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek(), None);
        cal.push(5, (1u32, 0u8), "b");
        cal.push(5, (0, 3), "a");
        assert_eq!(cal.peek(), Some((5, &(0, 3))));
        assert_eq!(cal.pop(), Some((5, "a")));
        assert_eq!(cal.peek(), Some((5, &(1, 0))));
        assert_eq!(cal.pop(), Some((5, "b")));
        assert_eq!(cal.pop(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "behind the calendar's now")]
    fn push_behind_now_panics() {
        let mut cal = Calendar::new();
        cal.push(10, (), ());
        cal.pop();
        cal.push(9, (), ());
    }

    /// Regression for a float ordering key: two completions 0.4 ns apart
    /// must stay distinct ticks and fire in time order — a lossy
    /// `(t * 1000.0) as u64` key truncated fractional ticks, collapsing
    /// distinct finish times onto one key and replaying them in index
    /// order instead.
    #[test]
    fn sub_ns_gaps_keep_exact_order() {
        let mut cal = Calendar::new();
        // b (higher index) finishes 0.4 ns BEFORE a: the collapse replayed
        // a first because ties broke by index.
        cal.push(ps_from_ns(10.7), 0usize, "a");
        cal.push(ps_from_ns(10.3), 1usize, "b");
        assert_eq!(cal.pop(), Some((10_300, "b")));
        // c follows b: it starts exactly at b's finish (10.3 ns), not at
        // a's (10.7 ns).
        cal.push(10_300 + ps_from_ns(1.0), 2, "c");
        assert_eq!(cal.pop(), Some((10_700, "a")));
        assert_eq!(cal.pop(), Some((11_300, "c")));
    }

    /// Sub-tick fractions that truncate to the same integer (e.g.
    /// 10.0002 vs 10.0006 ns) must not merge: rounding happens once, at
    /// ingest, after which arithmetic is exact.
    #[test]
    fn fractional_ns_durations_round_once_then_stay_exact() {
        let mut cal = Calendar::new();
        // 10.0004 ns -> 10_000 ps, 10.0006 ns -> 10_001 ps.
        cal.push(ps_from_ns(10.0004), 0usize, "a");
        let (a_done, _) = cal.pop().unwrap();
        assert_eq!(a_done, 10_000);
        cal.push(a_done + ps_from_ns(10.0006), 1, "b");
        assert_eq!(cal.pop(), Some((20_001, "b")));
    }

    /// Nine equal-duration tasks list-scheduled on three units:
    /// completions tie on every tick; the task index must break the ties
    /// deterministically.
    #[test]
    fn equal_ticks_break_ties_by_index() {
        fn run() -> Vec<(u64, usize)> {
            const UNITS: usize = 3;
            const TASKS: usize = 9;
            let d = ps_from_ns(7.0);
            let mut cal = Calendar::new();
            for i in 0..UNITS {
                cal.push(d, i, i);
            }
            let mut next = UNITS;
            let mut done = Vec::new();
            while let Some((ps, i)) = cal.pop() {
                done.push((ps, i));
                if next < TASKS {
                    cal.push(ps + d, next, next);
                    next += 1;
                }
            }
            done
        }
        let r1 = run();
        assert_eq!(r1, run(), "bit-deterministic replay");
        let order: Vec<usize> = r1.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
        assert_eq!(r1.last().unwrap().0, 3 * 7_000);
    }
}
