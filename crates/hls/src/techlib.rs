//! Technology library: per-operator latency and area models.
//!
//! Area numbers are a coarse model of 7-series fabric mapping calibrated so
//! the case-study cores land in the same range as the paper's Table II
//! (thousands of LUTs/FFs per core, single-digit DSPs and RAMB18s). The
//! *relative* costs are what matter: multipliers/dividers are DSP-hungry
//! and long-latency; adds/compares are cheap single-cycle LUT logic; local
//! arrays above a threshold spill from LUTRAM to block RAM.

use crate::dfg::OpClass;
use crate::resource::ResourceEstimate;
use serde::{Deserialize, Serialize};

/// Latency (cycles) and area cost of one operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    pub latency: u32,
    pub lut: u32,
    pub ff: u32,
    pub dsp: u32,
}

/// Resource classes the scheduler can constrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuClass {
    AddSub,
    Mul,
    Div,
    Compare,
    Bitwise,
    Mux,
    MemPort,
    StreamPort,
}

/// The technology library. A [`TechLib`] is immutable and shared by all
/// HLS runs for a target device generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TechLib {
    /// Target clock period in ns (Zynq PL default: 100 MHz → 10 ns).
    pub clock_ns: f64,
    /// Array size threshold (bits) above which a local array is mapped to
    /// block RAM instead of LUTRAM.
    pub bram_threshold_bits: u64,
}

impl Default for TechLib {
    fn default() -> Self {
        TechLib {
            clock_ns: 10.0,
            bram_threshold_bits: 1024,
        }
    }
}

impl TechLib {
    /// Cost of one operator of `class` at `bits` operand width.
    pub fn op_cost(&self, class: OpClass, bits: u8) -> OpCost {
        let b = bits as u32;
        match class {
            OpClass::Add => OpCost {
                latency: 1,
                lut: b,
                ff: 0,
                dsp: 0,
            },
            // One DSP48E1 covers a 25x18 multiply; wider needs a cascade.
            OpClass::Mul => {
                let dsp = if bits <= 18 {
                    1
                } else if bits <= 35 {
                    2
                } else {
                    4
                };
                OpCost {
                    latency: 3,
                    lut: b / 2,
                    ff: 2 * b,
                    dsp,
                }
            }
            // Pipelined restoring divider: one quotient bit per stage,
            // fabric only — the LUT-dominant operator (cf. Table II's
            // otsuMethod core).
            OpClass::Div => OpCost {
                latency: b.max(8),
                lut: 28 * b,
                ff: 8 * b,
                dsp: 0,
            },
            OpClass::Compare => OpCost {
                latency: 1,
                lut: b / 2 + 1,
                ff: 0,
                dsp: 0,
            },
            OpClass::Bit => OpCost {
                latency: 1,
                lut: b / 2 + 1,
                ff: 0,
                dsp: 0,
            },
            OpClass::Mux => OpCost {
                latency: 1,
                lut: b / 2 + 1,
                ff: 0,
                dsp: 0,
            },
            // Synchronous RAM: 1-cycle read, 1-cycle write; area is in the
            // memory macro, the port itself costs address logic.
            OpClass::MemRead | OpClass::MemWrite => OpCost {
                latency: 1,
                lut: 8,
                ff: 0,
                dsp: 0,
            },
            // Handshake (ready/valid) register stage.
            OpClass::StreamRead | OpClass::StreamWrite => OpCost {
                latency: 1,
                lut: 6,
                ff: b,
                dsp: 0,
            },
            OpClass::Const | OpClass::Phi => OpCost {
                latency: 0,
                lut: 0,
                ff: 0,
                dsp: 0,
            },
        }
    }

    /// Functional-unit class an op binds to (Const/Phi bind to nothing).
    pub fn fu_class(&self, class: OpClass) -> Option<FuClass> {
        Some(match class {
            OpClass::Add => FuClass::AddSub,
            OpClass::Mul => FuClass::Mul,
            OpClass::Div => FuClass::Div,
            OpClass::Compare => FuClass::Compare,
            OpClass::Bit => FuClass::Bitwise,
            OpClass::Mux => FuClass::Mux,
            OpClass::MemRead | OpClass::MemWrite => FuClass::MemPort,
            OpClass::StreamRead | OpClass::StreamWrite => FuClass::StreamPort,
            OpClass::Const | OpClass::Phi => return None,
        })
    }

    /// Memory macro cost for a local array of `bits` total storage.
    /// Returns (bram18_count, lut_for_lutram).
    pub fn memory_cost(&self, bits: u64) -> (u32, u32) {
        if bits == 0 {
            (0, 0)
        } else if bits <= self.bram_threshold_bits {
            // Distributed LUTRAM: 1 LUT stores 64 bits (SLICEM).
            (0, (bits as u32).div_ceil(64) * 2)
        } else {
            // RAMB18E1 = 18 Kib.
            ((bits as u32).div_ceil(18 * 1024), 0)
        }
    }

    /// Fixed per-core control overhead: the FSM, start/done handshake and
    /// clock/reset plumbing. Grows with the number of schedule states.
    pub fn control_overhead(&self, fsm_states: u64) -> ResourceEstimate {
        let states = fsm_states.max(1);
        // One-hot FSM: a register per state plus next-state logic.
        let bits = 64 - states.leading_zeros();
        ResourceEstimate {
            lut: 40 + 6 * states as u32 + 8 * bits,
            ff: 24 + states as u32,
            bram18: 0,
            dsp: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_uses_dsp_scaled_by_width() {
        let lib = TechLib::default();
        assert_eq!(lib.op_cost(OpClass::Mul, 16).dsp, 1);
        assert_eq!(lib.op_cost(OpClass::Mul, 25).dsp, 2);
        assert_eq!(lib.op_cost(OpClass::Mul, 32).dsp, 2);
        assert_eq!(lib.op_cost(OpClass::Mul, 48).dsp, 4);
    }

    #[test]
    fn divider_is_long_latency_fabric_only() {
        let lib = TechLib::default();
        let d = lib.op_cost(OpClass::Div, 32);
        assert_eq!(d.dsp, 0);
        assert!(d.latency >= 32);
        assert!(d.lut > lib.op_cost(OpClass::Add, 32).lut);
    }

    #[test]
    fn adds_are_single_cycle() {
        let lib = TechLib::default();
        assert_eq!(lib.op_cost(OpClass::Add, 32).latency, 1);
        assert_eq!(lib.op_cost(OpClass::Compare, 8).latency, 1);
    }

    #[test]
    fn small_arrays_in_lutram_large_in_bram() {
        let lib = TechLib::default();
        let (bram, lut) = lib.memory_cost(512);
        assert_eq!(bram, 0);
        assert!(lut > 0);
        // 256 x 32-bit histogram = 8192 bits -> BRAM.
        let (bram, lut) = lib.memory_cost(8192);
        assert_eq!(bram, 1);
        assert_eq!(lut, 0);
        // 40 Kib needs 3 RAMB18.
        let (bram, _) = lib.memory_cost(40 * 1024);
        assert_eq!(bram, 3);
    }

    #[test]
    fn zero_sized_memory_free() {
        assert_eq!(TechLib::default().memory_cost(0), (0, 0));
    }

    #[test]
    fn control_overhead_grows_with_states() {
        let lib = TechLib::default();
        let small = lib.control_overhead(4);
        let big = lib.control_overhead(64);
        assert!(big.lut > small.lut);
        assert!(big.ff > small.ff);
    }

    #[test]
    fn const_and_phi_are_free() {
        let lib = TechLib::default();
        for c in [OpClass::Const, OpClass::Phi] {
            let k = lib.op_cost(c, 32);
            assert_eq!((k.latency, k.lut, k.ff, k.dsp), (0, 0, 0, 0));
            assert_eq!(lib.fu_class(c), None);
        }
    }
}
