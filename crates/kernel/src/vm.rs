//! The one-lane entry point to compiled kernels, and the op semantics
//! the lane VM executes.
//!
//! [`CompiledKernel::run`] is a drop-in equivalent of
//! [`Interpreter::run`](crate::interp::Interpreter): same inputs, same
//! outputs, same [`ExecStats`], same typed errors, same committed
//! [`StreamBundle`] state. It runs the kernel as a group of one lane on
//! the batch-lane VM ([`crate::lanes`]), which is the only compiled
//! execution loop; the differential property tests in `tests/prop_vm.rs`
//! hold it bit-identical to the interpreter on random kernels. The
//! helpers below define each op's arithmetic once, for the lane VM's hot
//! loop and its general step alike.

use crate::compile::{CompiledKernel, Wrap, STAT_BRANCHES};
use crate::interp::{ExecError, ExecOutcome, ExecStats, StreamBundle};
use std::collections::HashMap;

/// Default step budget, matching [`Interpreter::new`](crate::interp::Interpreter::new).
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

impl CompiledKernel {
    /// Execute with the default step limit.
    pub fn run(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
    ) -> Result<ExecOutcome, ExecError> {
        self.run_with_step_limit(scalar_inputs, streams, DEFAULT_STEP_LIMIT)
    }

    /// Execute with an explicit step limit (mirrors
    /// [`Interpreter::with_step_limit`](crate::interp::Interpreter::with_step_limit)):
    /// a one-lane [`CompiledKernel::run_batch_with_step_limit`].
    pub fn run_with_step_limit(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
        limit: u64,
    ) -> Result<ExecOutcome, ExecError> {
        self.run_batch_with_step_limit(
            std::slice::from_ref(scalar_inputs),
            std::slice::from_mut(streams),
            limit,
        )
        .lanes
        .pop()
        .expect("a one-lane batch has one outcome")
    }

    /// Reconstruct the stat accumulator lanes (in
    /// [`crate::compile::StatDelta::to_array`] order) from per-op
    /// execution counts plus the data-dependent loop-branch tally: the
    /// class counters are only observable on success, so the lane VM
    /// counts op executions and replays `sum(counts[i] * deltas[i])` on
    /// exit.
    pub(crate) fn replay(&self, counts: &[u64], dyn_branches: u64) -> [u64; 11] {
        let mut acc = [0u64; 11];
        for (c, d) in counts.iter().zip(self.deltas.iter()) {
            if *c != 0 {
                for (a, v) in acc.iter_mut().zip(d.iter()) {
                    *a += *v as u64 * *c;
                }
            }
        }
        acc[STAT_BRANCHES] += dyn_branches;
        acc
    }
}

pub(crate) fn stats_from(acc: &[u64; 11]) -> ExecStats {
    ExecStats {
        steps: acc[0],
        adds: acc[1],
        muls: acc[2],
        divs: acc[3],
        compares: acc[4],
        bitops: acc[5],
        mem_reads: acc[6],
        mem_writes: acc[7],
        stream_reads: acc[8],
        stream_writes: acc[9],
        branches: acc[10],
    }
}

/// Branch-light equivalent of [`Ty::wrap`](crate::types::Ty::wrap) for
/// the hot loop, in shift-pair form: shift the value to the top of the
/// word and back (arithmetic shift for signed types, logical for
/// unsigned). A [`Wrap`] made from a `Ty` shifts by `64 - bits`, which
/// `Ty::bits` (1..=63) keeps in range; [`Wrap::RAW`] shifts by 0, the
/// identity, so a producing op that writes a temporary passes its raw
/// result through. The focused test below and the differential property
/// suite hold this identical to `Ty::wrap` over the full value range.
#[inline(always)]
pub(crate) fn wrap(w: impl Into<Wrap>, v: i64) -> i64 {
    let Wrap { shift, signed } = w.into();
    if signed {
        (v << shift) >> shift
    } else {
        (((v as u64) << shift) >> shift) as i64
    }
}

/// C-truncation division by `2^k`: bias negative values by `2^k - 1` so
/// the arithmetic shift rounds toward zero instead of -inf. Branchless;
/// never overflows (the bias is only added when `a < 0`).
#[inline(always)]
pub(crate) fn div_pow2(a: i64, k: u8) -> i64 {
    let d = 1i64 << k;
    a.wrapping_add((a >> 63) & (d - 1)) >> k
}

/// Sign-correct remainder by `2^k`: mask, then pull the result back
/// below zero when the dividend was negative and the masked bits were
/// non-zero.
#[inline(always)]
pub(crate) fn mod_pow2(a: i64, k: u8) -> i64 {
    let d = 1i64 << k;
    let r = a & (d - 1);
    if a < 0 && r != 0 {
        r - d
    } else {
        r
    }
}

#[inline(always)]
pub(crate) fn un_op(op: crate::ir::UnOp, a: i64) -> i64 {
    match op {
        crate::ir::UnOp::Neg => a.wrapping_neg(),
        crate::ir::UnOp::Not => !a,
    }
}

/// The operators [`Op::Bin`](crate::compile::Op::Bin) can carry —
/// everything that cannot fail. `Div`/`Mod`/`Shl`/`Shr` lower to
/// [`Op::BinChecked`](crate::compile::Op::BinChecked) at compile time.
#[inline(always)]
pub(crate) fn bin_infallible(op: crate::ir::BinOp, a: i64, b: i64) -> i64 {
    use crate::ir::BinOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Lt => (a < b) as i64,
        Le => (a <= b) as i64,
        Gt => (a > b) as i64,
        Ge => (a >= b) as i64,
        Eq => (a == b) as i64,
        Ne => (a != b) as i64,
        Div | Mod | Shl | Shr => unreachable!("fallible binops lower to Op::BinChecked"),
    }
}

#[inline(always)]
pub(crate) fn bin_checked(op: crate::ir::BinOp, a: i64, b: i64) -> Result<i64, ExecError> {
    use crate::ir::BinOp::*;
    Ok(match op {
        Div | Mod => {
            if b == 0 {
                return Err(ExecError::DivideByZero);
            }
            if op == Div {
                a.wrapping_div(b)
            } else {
                a.wrapping_rem(b)
            }
        }
        Shl | Shr => {
            if !(0..64).contains(&b) {
                return Err(ExecError::ShiftOutOfRange(b));
            }
            if op == Shl {
                a.wrapping_shl(b as u32)
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        _ => unreachable!("infallible binops lower to Op::Bin"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::interp::Interpreter;
    use crate::ir::Kernel;
    use crate::types::Ty;

    fn both(
        k: &Kernel,
        ins: &[(&str, i64)],
        feed: &[(&str, Vec<i64>)],
    ) -> (
        Result<ExecOutcome, ExecError>,
        StreamBundle,
        Result<ExecOutcome, ExecError>,
        StreamBundle,
    ) {
        let inputs: HashMap<String, i64> = ins.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let mut si = StreamBundle::new();
        let mut sv = StreamBundle::new();
        for (p, t) in feed {
            si.feed(p, t.iter().copied());
            sv.feed(p, t.iter().copied());
        }
        let ri = Interpreter::new(k).run(&inputs, &mut si);
        let rv = CompiledKernel::compile(k).run(&inputs, &mut sv);
        (ri, si, rv, sv)
    }

    fn assert_equiv(k: &Kernel, ins: &[(&str, i64)], feed: &[(&str, Vec<i64>)]) {
        let (ri, si, rv, sv) = both(k, ins, feed);
        match (&ri, &rv) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.scalar_outputs, b.scalar_outputs, "{}", k.name);
                assert_eq!(a.stats, b.stats, "{}", k.name);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{}", k.name),
            _ => panic!("{}: interp {ri:?} vs vm {rv:?}", k.name),
        }
        let io: Vec<_> = si.outputs().collect();
        let vo: Vec<_> = sv.outputs().collect();
        assert_eq!(io, vo, "{}", k.name);
    }

    #[test]
    fn shift_wrap_matches_ty_wrap() {
        for bits in 1..=63u8 {
            for signed in [false, true] {
                let ty = Ty { bits, signed };
                for v in [
                    i64::MIN,
                    i64::MIN + 1,
                    -(1i64 << 62),
                    -300,
                    -129,
                    -128,
                    -1,
                    0,
                    1,
                    127,
                    128,
                    255,
                    256,
                    65535,
                    1 << 40,
                    i64::MAX - 1,
                    i64::MAX,
                ] {
                    assert_eq!(wrap(ty, v), ty.wrap(v), "{ty} wrap({v})");
                    assert_eq!(wrap(Wrap::RAW, v), v, "raw wrap({v})");
                }
            }
        }
    }

    #[test]
    fn scalar_adder_matches_interp() {
        let k = KernelBuilder::new("add")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("a"), var("b"))))
            .build();
        assert_equiv(&k, &[("a", 40), ("b", 2)], &[]);
        assert_equiv(&k, &[("a", u32::MAX as i64), ("b", 1)], &[]);
    }

    #[test]
    fn stream_loop_matches_interp() {
        let k = KernelBuilder::new("copy")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .push(for_pipelined(
                "i",
                c(0),
                var("n"),
                vec![write("out", read("in"))],
            ))
            .build();
        assert_equiv(&k, &[("n", 4)], &[("in", vec![1, 2, 3, 4])]);
        // Underflow path: identical typed error.
        assert_equiv(&k, &[("n", 4)], &[("in", vec![1, 2])]);
        // Missing input port entirely.
        assert_equiv(&k, &[("n", 1)], &[]);
    }

    #[test]
    fn histogram_matches_interp() {
        let k = KernelBuilder::new("hist")
            .scalar_in("n", Ty::U32)
            .stream_in("px", Ty::U8)
            .stream_out("hist", Ty::U32)
            .array("bins", Ty::U32, 8)
            .local("v", Ty::U8)
            .body(vec![
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("px")),
                        store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                    ],
                ),
                for_("i", c(0), c(8), vec![write("hist", idx("bins", var("i")))]),
            ])
            .build();
        assert_equiv(&k, &[("n", 6)], &[("px", vec![0, 1, 1, 7, 7, 7])]);
    }

    #[test]
    fn errors_match_interp() {
        let divz = KernelBuilder::new("divz")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", div(var("a"), var("b"))))
            .build();
        assert_equiv(&divz, &[("a", 7), ("b", 0)], &[]);
        assert_equiv(&divz, &[("a", 7), ("b", 2)], &[]);
        // Missing scalar input reported in declaration order.
        assert_equiv(&divz, &[("b", 2)], &[]);
        assert_equiv(&divz, &[], &[]);

        let oob = KernelBuilder::new("oob")
            .scalar_in("i", Ty::U32)
            .scalar_out("r", Ty::U32)
            .array("a", Ty::U32, 4)
            .push(assign("r", idx("a", var("i"))))
            .build();
        assert_equiv(&oob, &[("i", 9)], &[]);
        assert_equiv(&oob, &[("i", 3)], &[]);

        let shift = KernelBuilder::new("sh")
            .scalar_in("a", Ty::I32)
            .scalar_in("s", Ty::I32)
            .scalar_out("r", Ty::I32)
            .push(assign("r", shl(var("a"), var("s"))))
            .build();
        assert_equiv(&shift, &[("a", 1), ("s", 99)], &[]);
        assert_equiv(&shift, &[("a", 1), ("s", -1)], &[]);
        assert_equiv(&shift, &[("a", 3), ("s", 4)], &[]);
    }

    #[test]
    fn step_limit_matches_interp() {
        let k = KernelBuilder::new("long")
            .scalar_out("r", Ty::U32)
            .push(assign("r", c(0)))
            .push(for_(
                "i",
                c(0),
                c(1_000_000),
                vec![assign("r", add(var("r"), c(1)))],
            ))
            .build();
        let ck = CompiledKernel::compile(&k);
        for limit in [1, 2, 3, 7, 1000, 1001, 4_000_003] {
            let mut si = StreamBundle::new();
            let mut sv = StreamBundle::new();
            let ri = Interpreter::with_step_limit(&k, limit).run(&HashMap::new(), &mut si);
            let rv = ck.run_with_step_limit(&HashMap::new(), &mut sv, limit);
            match (&ri, &rv) {
                (Ok(a), Ok(b)) => assert_eq!(a.stats, b.stats, "limit {limit}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "limit {limit}"),
                _ => panic!("limit {limit}: interp {ri:?} vs vm {rv:?}"),
            }
        }
    }

    #[test]
    fn peephole_folds_but_still_tallies() {
        // (2+3)*4 folds to a constant; x*8 strength-reduces to a shift;
        // x+0 is eliminated. Stats must still count every source op.
        let k = KernelBuilder::new("fold")
            .scalar_in("x", Ty::I32)
            .scalar_out("r", Ty::I32)
            .push(assign(
                "r",
                add(
                    mul(add(c(2), c(3)), c(4)),     // folds to 20
                    add(mul(var("x"), c(8)), c(0)), // shift + identity
                ),
            ))
            .build();
        let ck = CompiledKernel::compile(&k);
        // Folding shrinks the program: only the shift, the surviving
        // add and the store remain.
        assert!(ck.len() <= 3, "expected heavy folding, got {}", ck.len());
        assert_equiv(&k, &[("x", 5)], &[]);
        assert_equiv(&k, &[("x", -5)], &[]);
    }

    #[test]
    fn pow2_div_mod_truncate_like_c() {
        let k = KernelBuilder::new("dm")
            .scalar_in("a", Ty::I32)
            .scalar_out("q", Ty::I32)
            .scalar_out("r", Ty::I32)
            .push(assign("q", div(var("a"), c(8))))
            .push(assign("r", rem(var("a"), c(8))))
            .build();
        for a in [-17, -16, -9, -8, -7, -1, 0, 1, 7, 8, 9, 17, 1 << 30] {
            let (ri, _, rv, _) = both(&k, &[("a", a)], &[]);
            let (ri, rv) = (ri.unwrap(), rv.unwrap());
            assert_eq!(ri.scalar_outputs, rv.scalar_outputs, "a={a}");
            assert_eq!(rv.scalar_outputs["q"], Ty::I32.wrap(a / 8), "a={a}");
            assert_eq!(rv.scalar_outputs["r"], Ty::I32.wrap(a % 8), "a={a}");
        }
    }

    #[test]
    fn const_div_by_zero_not_folded() {
        let k = KernelBuilder::new("cdz")
            .scalar_out("r", Ty::U32)
            .push(assign("r", c(1)))
            .push(assign("r", div(c(1), c(0))))
            .build();
        assert_equiv(&k, &[], &[]);
        let (ri, _, rv, _) = both(&k, &[], &[]);
        assert_eq!(ri.unwrap_err(), ExecError::DivideByZero);
        assert_eq!(rv.unwrap_err(), ExecError::DivideByZero);
    }

    #[test]
    fn const_shift_out_of_range_not_folded() {
        let k = KernelBuilder::new("csh")
            .scalar_out("r", Ty::U32)
            .push(assign("r", c(1)))
            .push(assign("r", shl(c(1), c(64))))
            .build();
        let (ri, _, rv, _) = both(&k, &[], &[]);
        assert_eq!(ri.unwrap_err(), ExecError::ShiftOutOfRange(64));
        assert_eq!(rv.unwrap_err(), ExecError::ShiftOutOfRange(64));
    }

    #[test]
    fn typed_loop_var_wraps_in_both() {
        // A u8 induction variable wraps 255 -> 0 and never reaches 300:
        // both implementations must agree the loop is endless until the
        // step limit (body stmts tick) — use a tight limit.
        let k = KernelBuilder::new("wraploop")
            .scalar_out("r", Ty::U32)
            .push(assign("r", c(0)))
            .push(for_typed(
                "i",
                Ty::U8,
                c(0),
                c(300),
                vec![assign("r", add(var("r"), c(1)))],
            ))
            .build();
        let ck = CompiledKernel::compile(&k);
        let mut si = StreamBundle::new();
        let mut sv = StreamBundle::new();
        let ri = Interpreter::with_step_limit(&k, 10_000).run(&HashMap::new(), &mut si);
        let rv = ck.run_with_step_limit(&HashMap::new(), &mut sv, 10_000);
        assert_eq!(ri.unwrap_err(), ExecError::StepLimit(10_000));
        assert_eq!(rv.unwrap_err(), ExecError::StepLimit(10_000));

        // With an in-range bound the typed loop behaves like a plain one.
        let k2 = KernelBuilder::new("u8loop")
            .scalar_out("r", Ty::U32)
            .push(assign("r", c(0)))
            .push(for_typed(
                "i",
                Ty::U8,
                c(0),
                c(200),
                vec![assign("r", add(var("r"), var("i")))],
            ))
            .build();
        assert_equiv(&k2, &[], &[]);
        let (ri, ..) = both(&k2, &[], &[]);
        assert_eq!(ri.unwrap().scalar_outputs["r"], (0..200).sum::<i64>());
    }

    #[test]
    fn select_and_if_match_interp() {
        let k = KernelBuilder::new("sel")
            .scalar_in("a", Ty::I32)
            .scalar_in("b", Ty::I32)
            .scalar_out("m", Ty::I32)
            .local("t", Ty::I32)
            .body(vec![
                assign("t", select(gt(var("a"), var("b")), var("a"), var("b"))),
                if_else(
                    lt(var("t"), c(0)),
                    vec![assign("m", neg(var("t")))],
                    vec![assign("m", var("t"))],
                ),
            ])
            .build();
        for (a, b) in [(3, 7), (7, 3), (-5, -9), (-9, -5), (0, 0)] {
            assert_equiv(&k, &[("a", a), ("b", b)], &[]);
        }
    }
}
