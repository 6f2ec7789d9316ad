//! Binding: functional-unit allocation and register estimation.
//!
//! After scheduling we know, for each cycle, which operations execute.
//! Binding shares functional units across mutually-exclusive (temporally
//! disjoint) operations and inserts registers for every value that must
//! survive across a control-step boundary. The register count is what
//! drives the FF column of the resource report.

use crate::dfg::{OpClass, RegionDfg};
use crate::schedule::Schedule;
use crate::techlib::{FuClass, TechLib};
use std::collections::HashMap;

/// Bits of register storage needed by `dfg` under `sched`: one register of
/// `op.bits` per value whose last consumer starts after the producing
/// cycle completes (i.e. the value crosses at least one cstep boundary).
pub fn register_bits(dfg: &RegionDfg, sched: &Schedule, lib: &TechLib) -> u64 {
    let mut bits = 0u64;
    for (i, op) in dfg.ops.iter().enumerate() {
        if matches!(op.class, OpClass::Const) {
            continue; // constants are wired, not registered
        }
        let produce_end = sched.start[i] + lib.op_cost(op.class, op.bits).latency;
        let needs_reg = dfg
            .ops
            .iter()
            .enumerate()
            .skip(i + 1)
            .any(|(j, c0)| c0.deps.contains(&i) && sched.start[j] > produce_end);
        // Phi (live-in) values always live in a register by construction.
        if needs_reg || op.class == OpClass::Phi {
            bits += op.bits as u64;
        }
    }
    bits
}

/// Result of functional-unit binding for one segment.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    /// (class, unit index) assigned per op; `None` for free ops.
    pub assignment: Vec<Option<(FuClass, u32)>>,
    /// Units instantiated per class, with the widest width bound to each.
    pub units: HashMap<FuClass, Vec<u8>>,
}

/// Greedy interval binding (left-edge): ops sorted by start cycle, each
/// assigned to the first unit of its class that is free over the op's
/// execution interval.
pub fn bind(dfg: &RegionDfg, sched: &Schedule, lib: &TechLib) -> Binding {
    let n = dfg.ops.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| sched.start[i]);

    let mut assignment = vec![None; n];
    // Per class: per unit, (busy intervals, max width).
    type UnitState = (Vec<(u32, u32)>, u8);
    let mut pools: HashMap<FuClass, Vec<UnitState>> = HashMap::new();

    for i in order {
        let op = &dfg.ops[i];
        let Some(class) = lib.fu_class(op.class) else {
            continue;
        };
        let lat = lib.op_cost(op.class, op.bits).latency.max(1);
        let (s, e) = (sched.start[i], sched.start[i] + lat);
        let pool = pools.entry(class).or_default();
        let slot = pool
            .iter_mut()
            .position(|(ivs, _)| ivs.iter().all(|&(a, b)| e <= a || s >= b));
        let idx = match slot {
            Some(idx) => {
                pool[idx].0.push((s, e));
                pool[idx].1 = pool[idx].1.max(op.bits);
                idx
            }
            None => {
                pool.push((vec![(s, e)], op.bits));
                pool.len() - 1
            }
        };
        assignment[i] = Some((class, idx as u32));
    }

    let units = pools
        .into_iter()
        .map(|(c, pool)| (c, pool.into_iter().map(|(_, w)| w).collect()))
        .collect();
    Binding { assignment, units }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::lower;
    use crate::schedule::{list_schedule, ResourceConstraints};
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    fn setup(k: &accelsoc_kernel::ir::Kernel) -> (RegionDfg, Schedule, TechLib) {
        let region = lower(k).unwrap();
        let dfg = region.segments()[0].clone();
        let lib = TechLib::default();
        let sched = list_schedule(&dfg, &lib, &ResourceConstraints::new());
        (dfg, sched, lib)
    }

    #[test]
    fn sequential_ops_share_one_unit() {
        // Chained adds: a+1+2+3 — all on the critical path, one adder.
        let k = KernelBuilder::new("k")
            .scalar_in("a", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", add(add(add(var("a"), c(1)), c(2)), c(3))))
            .build();
        let (dfg, sched, lib) = setup(&k);
        let b = bind(&dfg, &sched, &lib);
        assert_eq!(b.units[&FuClass::AddSub].len(), 1);
    }

    #[test]
    fn parallel_ops_need_multiple_units() {
        let k = KernelBuilder::new("k")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", mul(add(var("a"), c(1)), add(var("b"), c(2)))))
            .build();
        let (dfg, sched, lib) = setup(&k);
        let b = bind(&dfg, &sched, &lib);
        // Both adds issue at cycle 0.
        assert_eq!(b.units[&FuClass::AddSub].len(), 2);
        assert_eq!(b.units[&FuClass::Mul].len(), 1);
    }

    #[test]
    fn binding_never_overlaps_on_one_unit() {
        let k = KernelBuilder::new("k")
            .scalar_in("a", Ty::U16)
            .scalar_out("r", Ty::U32)
            .local("t1", Ty::U32)
            .local("t2", Ty::U32)
            .body(vec![
                assign("t1", mul(var("a"), c(3))),
                assign("t2", mul(var("a"), c(5))),
                assign("r", add(var("t1"), var("t2"))),
            ])
            .build();
        let (dfg, sched, lib) = setup(&k);
        let b = bind(&dfg, &sched, &lib);
        // Collect intervals per (class, unit): no two may overlap.
        let mut by_unit: HashMap<(FuClass, u32), Vec<(u32, u32)>> = HashMap::new();
        for (i, asg) in b.assignment.iter().enumerate() {
            if let Some((c, u)) = asg {
                let lat = lib
                    .op_cost(dfg.ops[i].class, dfg.ops[i].bits)
                    .latency
                    .max(1);
                by_unit
                    .entry((*c, *u))
                    .or_default()
                    .push((sched.start[i], sched.start[i] + lat));
            }
        }
        for ivs in by_unit.values() {
            for (x, a) in ivs.iter().enumerate() {
                for b2 in ivs.iter().skip(x + 1) {
                    assert!(a.1 <= b2.0 || b2.1 <= a.0, "overlap {a:?} {b2:?}");
                }
            }
        }
    }

    #[test]
    fn register_bits_counts_crossing_values() {
        // a+b produced at cycle 0..1, consumed by mul at cycle 1..4, and
        // the mul result assigned — phis + crossing values get registers.
        let k = KernelBuilder::new("k")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign(
                "r",
                mul(add(var("a"), var("b")), sub(var("a"), var("b"))),
            ))
            .build();
        let (dfg, sched, lib) = setup(&k);
        let bits = register_bits(&dfg, &sched, &lib);
        // At least the two 32-bit live-in phis.
        assert!(bits >= 64, "bits = {bits}");
    }

    #[test]
    fn constants_never_registered() {
        let k = KernelBuilder::new("k")
            .scalar_out("r", Ty::U32)
            .push(assign("r", add(c(1), c(2))))
            .build();
        let (dfg, sched, lib) = setup(&k);
        // Only op classes Const + Add; no registers needed at all.
        assert_eq!(register_bits(&dfg, &sched, &lib), 0);
    }
}
