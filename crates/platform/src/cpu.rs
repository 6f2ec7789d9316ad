//! ARM Cortex-A9 (PS) cost model.
//!
//! Software tasks execute functionally on the kernel VM (or as native
//! Rust in the applications crate); the CPU model converts the kernel's
//! dynamic operation counts into estimated A9 cycles and thence
//! nanoseconds. The coefficients are a coarse in-order-ish model:
//! simple integer ops near 1 cycle, multiplies a few, divides tens
//! (software division on A9 without the VFP path), memory ops a couple of
//! cycles on average (L1-hit dominated with a miss fraction).

use crate::PS_CLK_NS;
use accelsoc_kernel::interp::ExecStats;

/// CPU cost model for software-mapped tasks.
#[derive(Debug, Clone)]
pub struct Cpu {
    pub name: String,
    /// Cycles per simple ALU op (add/compare/bitop).
    pub cycles_per_alu: f64,
    pub cycles_per_mul: f64,
    pub cycles_per_div: f64,
    /// Average cycles per memory access (cache model folded in).
    pub cycles_per_mem: f64,
    pub cycles_per_branch: f64,
    /// Total busy nanoseconds accumulated (for utilisation reports).
    pub busy_ns: f64,
}

impl Cpu {
    pub fn cortex_a9() -> Self {
        Cpu {
            name: "ARM Cortex-A9 @667MHz".into(),
            cycles_per_alu: 1.0,
            cycles_per_mul: 4.0,
            cycles_per_div: 40.0,
            cycles_per_mem: 2.2,
            cycles_per_branch: 1.8,
            busy_ns: 0.0,
        }
    }

    /// Estimated cycles for a task with the given dynamic profile.
    pub fn cycles_for(&self, stats: &ExecStats) -> u64 {
        let c = (stats.adds + stats.compares + stats.bitops) as f64 * self.cycles_per_alu
            + stats.muls as f64 * self.cycles_per_mul
            + stats.divs as f64 * self.cycles_per_div
            + (stats.mem_reads + stats.mem_writes) as f64 * self.cycles_per_mem
            + (stats.stream_reads + stats.stream_writes) as f64 * self.cycles_per_mem
            + stats.branches as f64 * self.cycles_per_branch;
        c.ceil() as u64
    }

    /// Nanoseconds for the task; also accrues busy time.
    pub fn execute(&mut self, stats: &ExecStats) -> f64 {
        let ns = self.cycles_for(stats) as f64 * PS_CLK_NS;
        self.busy_ns += ns;
        ns
    }

    /// Account raw cycles (for costs estimated outside the interpreter,
    /// e.g. file I/O stubs).
    pub fn execute_cycles(&mut self, cycles: u64) -> f64 {
        let ns = cycles as f64 * PS_CLK_NS;
        self.busy_ns += ns;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divides_cost_more_than_adds() {
        let cpu = Cpu::cortex_a9();
        let adds = ExecStats {
            adds: 100,
            ..Default::default()
        };
        let divs = ExecStats {
            divs: 100,
            ..Default::default()
        };
        assert!(cpu.cycles_for(&divs) > 10 * cpu.cycles_for(&adds));
    }

    #[test]
    fn execute_accrues_busy_time() {
        let mut cpu = Cpu::cortex_a9();
        let s = ExecStats {
            adds: 1000,
            ..Default::default()
        };
        let ns = cpu.execute(&s);
        assert!(ns > 0.0);
        assert_eq!(cpu.busy_ns, ns);
        cpu.execute_cycles(667);
        assert!((cpu.busy_ns - (ns + 667.0 * PS_CLK_NS)).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_costs_nothing() {
        let cpu = Cpu::cortex_a9();
        assert_eq!(cpu.cycles_for(&ExecStats::default()), 0);
    }
}
