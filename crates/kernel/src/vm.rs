//! Register VM executing [`CompiledKernel`] bytecode.
//!
//! Drop-in equivalent of [`Interpreter::run`](crate::interp::Interpreter):
//! same inputs, same outputs, same [`ExecStats`], same typed errors — the
//! differential property tests in `tests/prop_vm.rs` hold the two
//! implementations bit-identical. The hot loop is a `match` over a flat
//! `Vec<Op>` with dense register/arena/stream indices; the only
//! allocations per invocation are the register file and array arena.

use crate::compile::{CompiledKernel, Op, Src, STAT_BRANCHES, STAT_STEPS};
use crate::interp::{ExecError, ExecOutcome, ExecStats, StreamBundle};
use crate::types::Ty;
use std::collections::HashMap;

/// Default step budget, matching [`Interpreter::new`](crate::interp::Interpreter::new).
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

/// Hot-loop accounting of the scalar VM: per-op execution counts, the
/// exact running `steps` for the `StepLimit` check, and the
/// data-dependent loop-branch tally. The class counters are only
/// observable on success, so they are reconstructed on exit via
/// [`CompiledKernel::replay`].
pub(crate) struct ExecCtx {
    pub(crate) counts: Vec<u64>,
    pub(crate) steps_acc: u64,
    pub(crate) dyn_branches: u64,
}

impl ExecCtx {
    pub(crate) fn new(num_ops: usize) -> Self {
        ExecCtx {
            counts: vec![0u64; num_ops],
            steps_acc: 0,
            dyn_branches: 0,
        }
    }

    /// Total op dispatches so far (the denominator of the lane-
    /// amortization metric surfaced by `apps::batch`).
    pub(crate) fn dispatches(&self) -> u64 {
        self.counts.iter().sum()
    }
}

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
    /// [`Interpreter::with_step_limit`](crate::interp::Interpreter::with_step_limit)).
    pub fn run_with_step_limit(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
        limit: u64,
    ) -> Result<ExecOutcome, ExecError> {
        self.run_counted(scalar_inputs, streams, limit).0
    }

    /// Reconstruct the stat accumulator lanes from per-op execution
    /// counts plus the dynamic branch tally. Shared by the scalar VM
    /// and the lane VM.
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

    /// Like [`CompiledKernel::run_with_step_limit`], but also reports
    /// how many VM op dispatches the invocation cost (on success *and*
    /// on error). Dispatches are what lane batching amortizes, so the
    /// batch drivers surface them next to the lane-invariant
    /// [`ExecStats::steps`](crate::interp::ExecStats) count.
    pub fn run_counted(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
        limit: u64,
    ) -> (Result<ExecOutcome, ExecError>, u64) {
        let mut regs = vec![0i64; self.num_regs as usize];
        for s in &self.scalar_seed {
            let v = if s.is_input {
                match scalar_inputs.get(&s.name) {
                    Some(v) => *v,
                    None => {
                        return (Err(ExecError::MissingScalarInput(s.name.clone())), 0);
                    }
                }
            } else {
                0
            };
            regs[s.reg as usize] = s.ty.wrap(v);
        }
        let mut arena = vec![0i64; self.arena_len as usize];

        // Resolve ports to bundle slots once. A missing input port stays
        // unresolved and surfaces as `StreamUnderflow` on first read,
        // exactly like the interpreter's lazy lookup; output entries are
        // created up front in declared order, like `Interpreter::run`.
        let in_slots: Vec<Option<usize>> = self
            .stream_ins
            .iter()
            .map(|p| streams.input_index(p))
            .collect();
        let out_slots: Vec<usize> = self
            .stream_outs
            .iter()
            .map(|p| streams.ensure_output(p))
            .collect();

        // Stream I/O runs on local buffers: inputs are read through a
        // cursor over a contiguous snapshot, outputs accumulate in local
        // Vecs, and both are committed to the bundle exactly once on the
        // way out — on success AND on error — so the bundle's observable
        // state at exit is identical to the interpreter's per-token
        // effects. A missing input port gets an empty snapshot; its
        // first read underflows with the same error as the
        // interpreter's lazy lookup.
        let in_bufs: Vec<Vec<i64>> = in_slots
            .iter()
            .map(|s| s.map(|i| streams.input_snapshot_at(i)).unwrap_or_default())
            .collect();
        let mut cursors = vec![0usize; in_bufs.len()];
        let mut out_bufs: Vec<Vec<i64>> = vec![Vec::new(); out_slots.len()];

        let mut ctx = ExecCtx::new(self.ops.len());
        let result = self.exec(
            &mut ctx,
            &mut regs,
            &mut arena,
            &in_bufs,
            &mut cursors,
            &mut out_bufs,
            limit,
        );

        for (slot, cur) in in_slots.iter().zip(&cursors) {
            if let Some(s) = slot {
                streams.drain_input_at(*s, *cur);
            }
        }
        for (slot, buf) in out_slots.iter().zip(&out_bufs) {
            streams.extend_output_at(*slot, buf);
        }

        let dispatches = ctx.dispatches();
        if let Err(e) = result {
            return (Err(e), dispatches);
        }
        let acc = self.replay(&ctx.counts, ctx.dyn_branches);
        debug_assert_eq!(acc[STAT_STEPS], ctx.steps_acc);
        let mut scalar_outputs = HashMap::new();
        for (name, reg) in &self.scalar_outs {
            scalar_outputs.insert(name.clone(), regs[*reg as usize]);
        }
        (
            Ok(ExecOutcome {
                scalar_outputs,
                stats: stats_from(&acc),
            }),
            dispatches,
        )
    }

    /// The dispatch loop, running over dense registers, the flat arena
    /// and local stream buffers. Returns the stat accumulator lanes (in
    /// [`crate::compile::StatDelta::to_array`] order) on success.
    ///
    /// Stats bookkeeping on the hot path is just an execution count per
    /// op plus an exact running `steps` for the `StepLimit` check. The
    /// class counters are only observable on success, so they are
    /// reconstructed on exit as `sum(counts[i] * deltas[i])`; loop
    /// branch ticks are data-dependent (taken iterations only) and
    /// accumulate in `dyn_branches`.
    ///
    /// The unconditional limit check is equivalent to the interpreter's
    /// check-on-tick: an op with a zero `steps` delta leaves `steps_acc`
    /// unchanged, and the previous tick already proved that value is
    /// within the limit.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        ctx: &mut ExecCtx,
        regs: &mut [i64],
        arena: &mut [i64],
        in_bufs: &[Vec<i64>],
        cursors: &mut [usize],
        out_bufs: &mut [Vec<i64>],
        limit: u64,
    ) -> Result<(), ExecError> {
        let counts = &mut ctx.counts[..];
        let mut steps_acc = ctx.steps_acc;
        let mut dyn_branches = ctx.dyn_branches;
        let ops = &self.ops[..];
        let steps_d = &self.steps[..];
        let mut pc = 0usize;
        while pc < ops.len() {
            counts[pc] += 1;
            steps_acc += steps_d[pc] as u64;
            if steps_acc > limit {
                return Err(ExecError::StepLimit(limit));
            }
            match &ops[pc] {
                Op::Bin { op, dst, a, b } => {
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = bin_infallible(*op, av, bv);
                }
                Op::BinChecked { op, dst, a, b } => {
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = bin_checked(*op, av, bv)?;
                }
                Op::Un { op, dst, a } => {
                    let av = src(regs, *a);
                    regs[*dst as usize] = un_op(*op, av);
                }
                Op::Select { dst, c, a, b } => {
                    let cv = src(regs, *c);
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = if cv != 0 { av } else { bv };
                }
                Op::LoadIdx { dst, arr, idx } => {
                    let info = &self.arrays[*arr as usize];
                    let i = src(regs, *idx);
                    if i < 0 || i as u64 >= info.len as u64 {
                        return Err(ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: i,
                            len: info.len,
                        });
                    }
                    regs[*dst as usize] = arena[info.base as usize + i as usize];
                }
                Op::StoreIdx { arr, idx, src: v } => {
                    let info = &self.arrays[*arr as usize];
                    let vv = src(regs, *v);
                    let i = src(regs, *idx);
                    if i < 0 || i as u64 >= info.len as u64 {
                        return Err(ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: i,
                            len: info.len,
                        });
                    }
                    arena[info.base as usize + i as usize] = wrap(info.ty, vv);
                }
                Op::StoreVar { dst, ty, src: v } => {
                    regs[*dst as usize] = wrap(*ty, src(regs, *v));
                }
                Op::ReadStream { dst, port } => {
                    let p = *port as usize;
                    let buf = &in_bufs[p];
                    let cur = cursors[p];
                    if cur < buf.len() {
                        regs[*dst as usize] = buf[cur];
                        cursors[p] = cur + 1;
                    } else {
                        return Err(ExecError::StreamUnderflow(self.stream_ins[p].clone()));
                    }
                }
                Op::WriteStream { port, src: v } => {
                    let vv = src(regs, *v);
                    out_bufs[*port as usize].push(vv);
                }
                Op::LoopInit {
                    var,
                    ty,
                    lo,
                    hi_copy,
                } => {
                    let lv = src(regs, *lo);
                    if let Some((hr, hs)) = hi_copy {
                        regs[*hr as usize] = src(regs, *hs);
                    }
                    regs[*var as usize] = wrap(*ty, lv);
                }
                Op::LoopHead { var, hi, exit } => {
                    if regs[*var as usize] < src(regs, *hi) {
                        dyn_branches += 1;
                    } else {
                        pc = *exit as usize;
                        continue;
                    }
                }
                Op::LoopBack { var, ty, hi, body } => {
                    let nv = wrap(*ty, regs[*var as usize].wrapping_add(1));
                    regs[*var as usize] = nv;
                    if nv < src(regs, *hi) {
                        dyn_branches += 1;
                        pc = *body as usize;
                        continue;
                    }
                }
                Op::BranchIfZero { cond, target } => {
                    if src(regs, *cond) == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::ShlPow2 { dst, a, k } => {
                    regs[*dst as usize] = src(regs, *a).wrapping_shl(*k as u32);
                }
                Op::ShrImm { dst, a, k } => {
                    regs[*dst as usize] = src(regs, *a).wrapping_shr(*k as u32);
                }
                Op::DivPow2 { dst, a, k } => {
                    regs[*dst as usize] = div_pow2(src(regs, *a), *k);
                }
                Op::ModPow2 { dst, a, k } => {
                    regs[*dst as usize] = mod_pow2(src(regs, *a), *k);
                }
                Op::BinTo { op, dst, ty, a, b } => {
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = wrap(*ty, bin_infallible(*op, av, bv));
                }
                Op::BinCheckedTo { op, dst, ty, a, b } => {
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = wrap(*ty, bin_checked(*op, av, bv)?);
                }
                Op::UnTo { op, dst, ty, a } => {
                    regs[*dst as usize] = wrap(*ty, un_op(*op, src(regs, *a)));
                }
                Op::SelectTo { dst, ty, c, a, b } => {
                    let cv = src(regs, *c);
                    let av = src(regs, *a);
                    let bv = src(regs, *b);
                    regs[*dst as usize] = wrap(*ty, if cv != 0 { av } else { bv });
                }
                Op::LoadIdxTo { dst, ty, arr, idx } => {
                    let info = &self.arrays[*arr as usize];
                    let i = src(regs, *idx);
                    if i < 0 || i as u64 >= info.len as u64 {
                        return Err(ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: i,
                            len: info.len,
                        });
                    }
                    regs[*dst as usize] = wrap(*ty, arena[info.base as usize + i as usize]);
                }
                Op::ReadStreamTo { dst, ty, port } => {
                    let p = *port as usize;
                    let buf = &in_bufs[p];
                    let cur = cursors[p];
                    if cur < buf.len() {
                        regs[*dst as usize] = wrap(*ty, buf[cur]);
                        cursors[p] = cur + 1;
                    } else {
                        return Err(ExecError::StreamUnderflow(self.stream_ins[p].clone()));
                    }
                }
                Op::ShlPow2To { dst, ty, a, k } => {
                    regs[*dst as usize] = wrap(*ty, src(regs, *a).wrapping_shl(*k as u32));
                }
                Op::ShrImmTo { dst, ty, a, k } => {
                    regs[*dst as usize] = wrap(*ty, src(regs, *a).wrapping_shr(*k as u32));
                }
                Op::DivPow2To { dst, ty, a, k } => {
                    regs[*dst as usize] = wrap(*ty, div_pow2(src(regs, *a), *k));
                }
                Op::ModPow2To { dst, ty, a, k } => {
                    regs[*dst as usize] = wrap(*ty, mod_pow2(src(regs, *a), *k));
                }
                Op::ShrAnd { dst, a, k, mask } => {
                    regs[*dst as usize] = src(regs, *a).wrapping_shr(*k as u32) & *mask;
                }
                Op::ShrAndTo {
                    dst,
                    ty,
                    a,
                    k,
                    mask,
                } => {
                    regs[*dst as usize] = wrap(*ty, src(regs, *a).wrapping_shr(*k as u32) & *mask);
                }
                Op::MulAcc { dst, a, b, acc } => {
                    regs[*dst as usize] =
                        src(regs, *acc).wrapping_add(src(regs, *a).wrapping_mul(src(regs, *b)));
                }
                Op::MulAccTo { dst, ty, a, b, acc } => {
                    regs[*dst as usize] = wrap(
                        *ty,
                        src(regs, *acc).wrapping_add(src(regs, *a).wrapping_mul(src(regs, *b))),
                    );
                }
                Op::CmpSelect {
                    op,
                    dst,
                    x,
                    y,
                    a,
                    b,
                } => {
                    let c = bin_infallible(*op, src(regs, *x), src(regs, *y));
                    regs[*dst as usize] = if c != 0 { src(regs, *a) } else { src(regs, *b) };
                }
                Op::CmpSelectTo {
                    op,
                    dst,
                    ty,
                    x,
                    y,
                    a,
                    b,
                } => {
                    let c = bin_infallible(*op, src(regs, *x), src(regs, *y));
                    regs[*dst as usize] =
                        wrap(*ty, if c != 0 { src(regs, *a) } else { src(regs, *b) });
                }
                Op::SelectWrite { port, c, a, b } => {
                    let v = if src(regs, *c) != 0 {
                        src(regs, *a)
                    } else {
                        src(regs, *b)
                    };
                    out_bufs[*port as usize].push(v);
                }
                Op::CmpSelectWrite {
                    op,
                    port,
                    x,
                    y,
                    a,
                    b,
                } => {
                    let c = bin_infallible(*op, src(regs, *x), src(regs, *y));
                    let v = if c != 0 { src(regs, *a) } else { src(regs, *b) };
                    out_bufs[*port as usize].push(v);
                }
                Op::IncIdx { arr, idx, v, s2 } => {
                    let info = &self.arrays[*arr as usize];
                    let i = src(regs, *idx);
                    if i < 0 || i as u64 >= info.len as u64 {
                        return Err(ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: i,
                            len: info.len,
                        });
                    }
                    steps_acc += *s2 as u64;
                    if steps_acc > limit {
                        return Err(ExecError::StepLimit(limit));
                    }
                    let slot = info.base as usize + i as usize;
                    arena[slot] = wrap(info.ty, arena[slot].wrapping_add(src(regs, *v)));
                }
                Op::WriteStream2 {
                    port_a,
                    src_a,
                    port_b,
                    src_b,
                    s2,
                } => {
                    out_bufs[*port_a as usize].push(src(regs, *src_a));
                    steps_acc += *s2 as u64;
                    if steps_acc > limit {
                        return Err(ExecError::StepLimit(limit));
                    }
                    out_bufs[*port_b as usize].push(src(regs, *src_b));
                }
                Op::LoadIdxWrite { arr, idx, port, s2 } => {
                    let info = &self.arrays[*arr as usize];
                    let i = src(regs, *idx);
                    if i < 0 || i as u64 >= info.len as u64 {
                        return Err(ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: i,
                            len: info.len,
                        });
                    }
                    let v = arena[info.base as usize + i as usize];
                    steps_acc += *s2 as u64;
                    if steps_acc > limit {
                        return Err(ExecError::StepLimit(limit));
                    }
                    out_bufs[*port as usize].push(v);
                }
                Op::Fused(_) => {
                    unreachable!("superinstructions live only in the lane-VM op stream")
                }
            }
            pc += 1;
        }

        ctx.steps_acc = steps_acc;
        ctx.dyn_branches = dyn_branches;
        Ok(())
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

/// Branch-light equivalent of [`Ty::wrap`] for the hot loop: truncate to
/// `bits` and re-extend by shifting the value to the top of the word and
/// back (arithmetic shift for signed types, logical for unsigned).
/// `Ty::bits` is 1..=63, so the shift amount is always in range; the
/// focused test below and the differential property suite hold the two
/// implementations identical over the full value range.
#[inline(always)]
pub(crate) fn wrap(ty: Ty, v: i64) -> i64 {
    let s = (64 - ty.bits) as u32;
    if ty.signed {
        (v << s) >> s
    } else {
        (((v as u64) << s) >> s) as i64
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

#[inline(always)]
pub(crate) fn src(regs: &[i64], s: Src) -> i64 {
    match s {
        Src::Reg(r) => regs[r as usize],
        Src::Imm(v) => v,
    }
}

/// The operators [`Op::Bin`] can carry — everything that cannot fail.
/// `Div`/`Mod`/`Shl`/`Shr` lower to [`Op::BinChecked`] at compile time.
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
