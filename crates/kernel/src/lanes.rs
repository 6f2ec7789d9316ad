//! Batch-lane (SIMD-style) execution of [`CompiledKernel`] bytecode.
//!
//! [`CompiledKernel::run_batch`] runs K independent invocations ("lanes")
//! of one kernel through a single decoded instruction stream. Registers
//! and the array arena are structure-of-arrays (`regs[r * K + l]`), so
//! one dispatch — opcode decode, operand resolution, stat bookkeeping —
//! is amortized over all lanes, and the per-lane inner loops are
//! contiguous and branch-free for the infallible ops. Each lane keeps its
//! own stream snapshot, cursor and output buffers.
//!
//! This is the only compiled execution loop: a single invocation,
//! [`CompiledKernel::run`], is a batch of one lane.
//!
//! # Equivalence contract
//!
//! For every lane `l`, `run_batch(...).lanes[l]` is bit-identical to the
//! tree-walking [`Interpreter`](crate::interp::Interpreter) on that lane's
//! inputs alone, and therefore to a one-lane run of them: same scalar
//! outputs, same [`ExecStats`](crate::interp::ExecStats) (including
//! `steps` and the `StepLimit` trip point), same typed [`ExecError`]
//! values, and the same committed [`StreamBundle`] state on success *and*
//! on error. Two differential property suites hold this against the
//! interpreter oracle: `tests/prop_vm.rs` on random kernels at widths 1,
//! 2, 3, 4 and 8, and `tests/prop_lanes.rs` on the repo's Otsu and stencil
//! kernels at widths 1, 2, 4 and 8.
//!
//! # Lockstep or each lane alone
//!
//! A batch runs its lanes in **lockstep**: every lane executes the same
//! op sequence, so one `counts[pc]`/`steps` tally serves them all. The
//! one place lanes in lockstep run different rows is a column loop's
//! guarded block (below), so a chunk tallies per lane. When the lanes
//! would disagree — a branch that some take and others do not, a column
//! loop they leave in different chunks — or an op would trap in any of
//! them, the batch abandons the attempt and runs each lane alone, as a
//! batch of one. Nothing reaches the caller's [`StreamBundle`]s before a
//! batch ends, so the restart shows only in `dispatches`, which counts
//! the abandoned attempt as well. The attempt ran only what every lane's
//! own run runs too, so a batch whose lanes disagree costs at most twice
//! what running them alone would.
//!
//! A one-lane batch cannot disagree with itself: the hot loop runs every
//! op, and stops only before an op that traps; `LaneVm::trap` then
//! returns that op's error and applies its effects up to the trap.
//!
//! # Column loops
//!
//! A counted loop the compiler found column-safe (a `ColLoop`) runs a
//! *chunk* of up to `CHUNK` (256) iterations per op dispatch instead of
//! one: at the loop's body start each body op runs once, as a tight loop
//! over the rows of every lane (one row per iteration), and the chunk
//! commits cursors, outputs, the arena, the body's registers from their
//! last rows, `counts[pc] += rows` for every pc of the loop, the
//! back-edge tallies and `steps`. A chunk starts only when nothing in it
//! can trap — enough tokens on every port the body reads, every index
//! provably in range, the whole step debit under the limit, no wrapping
//! back-edge — and otherwise that iteration runs op at a time, so every
//! counter, trap point, partial effect and `StepLimit` stays the
//! interpreter's. A guarded op counts only the rows its block's
//! predicate held, which differ per lane. One dispatch is counted per op
//! of the loop per chunk, across all lanes, so `dispatches` keeps
//! measuring host decode work.

use crate::compile::{
    ColLoop, ColOp, CompiledKernel, IndexCheck, Op, Src, Wrap, CHUNK, NO_COL, NO_LOOP, STAT_STEPS,
};
use crate::interp::{ExecError, ExecOutcome, StreamBundle};
use crate::ir::{BinOp, UnOp};
use crate::vm::{
    bin_checked, bin_infallible, div_pow2, mod_pow2, stats_from, un_op, wrap, DEFAULT_STEP_LIMIT,
};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Instruction-set tier the hot loop runs under (x86-64 only; other
/// architectures always take the portable body).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HotIsa {
    Portable,
    Avx2,
    Avx512,
}

/// Pick the widest ISA the CPU supports, overridable for benchmarking
/// via `ACCELSOC_LANE_ISA=scalar|avx2|avx512` (an override above what
/// the CPU supports falls back to the detected tier).
fn hot_isa() -> HotIsa {
    static ISA: OnceLock<HotIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl");
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let detected = if avx512 {
                HotIsa::Avx512
            } else if avx2 {
                HotIsa::Avx2
            } else {
                HotIsa::Portable
            };
            match std::env::var("ACCELSOC_LANE_ISA").as_deref() {
                Ok("scalar") => HotIsa::Portable,
                Ok("avx2") if avx2 => HotIsa::Avx2,
                Ok("avx512") if avx512 => HotIsa::Avx512,
                _ => detected,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        HotIsa::Portable
    })
}

/// The token buffers of one batch: the input snapshot arena, the
/// per-(port, lane) output accumulators and the column loops' rows.
/// Each thread keeps its last set for the next call, because a batch's
/// buffers are sized by its token counts and lane count — hundreds of KB
/// for a lane group of small images — and allocating them per call let
/// the allocator hand the pages back to the OS on every return and fault
/// them in again on the next call.
#[derive(Default)]
struct TokenBufs {
    in_all: Vec<i64>,
    out_bufs: Vec<Vec<i64>>,
    cols: Vec<i64>,
}

thread_local! {
    static TOKEN_BUFS: RefCell<TokenBufs> = RefCell::new(TokenBufs::default());
}

/// Result of one batched invocation: the per-lane outcomes (index ==
/// lane == bundle index) plus the number of host op dispatches the whole
/// batch cost. Lanes in lockstep share every dispatch, so a K-lane batch
/// costs the dispatches of one lane alone — the amortization the batch
/// reports surface — and a column loop costs one dispatch per op per
/// chunk of iterations. A batch whose lanes disagree counts its
/// abandoned attempt and then each lane's own run.
#[derive(Debug)]
pub struct BatchOutcome {
    pub lanes: Vec<Result<ExecOutcome, ExecError>>,
    pub dispatches: u64,
}

/// Where the hot loop stopped.
enum Exit {
    /// Past the last op: the program ended for every lane.
    End,
    /// At a column loop's body start, an iteration boundary.
    Body(usize),
    /// Before the op at this pc, which would trap, or send the lanes
    /// different ways; none of its effects or tallies are committed.
    Bail(usize),
}

struct LaneVm<'a> {
    ck: &'a CompiledKernel,
    k: usize,
    limit: u64,
    /// SoA register file: `regs[r * k + l]`.
    regs: Vec<i64>,
    /// SoA arena: `arena[(base + i) * k + l]`.
    arena: Vec<i64>,
    /// All input snapshots packed into one contiguous arena; the slot
    /// for port `p`, lane `l` is `in_all[in_start[b]..in_end[b]]` with
    /// `b = p*k + l`, and `cursors[b]` is the lane's *absolute* read
    /// position within `in_all` (starts at `in_start[b]`; tokens remain
    /// while `cursors[b] < in_end[b]`). One flat buffer instead of a
    /// `Vec` per slot keeps the hot loop's availability checks and
    /// gathers free of double indirection, and absolute cursors make
    /// the read a single indexed load.
    in_all: Vec<i64>,
    in_start: Vec<usize>,
    in_end: Vec<usize>,
    cursors: Vec<usize>,
    /// Output accumulators, port-major: `[q * k + l]`.
    out_bufs: Vec<Vec<i64>>,
    /// The hot loop's tallies, which every lane shares: executions per
    /// pc, `steps`, and taken loop tests.
    counts: Vec<u64>,
    steps: u64,
    dynb: u64,
    /// The column loops' tallies, per lane: executions per pc
    /// (`[l * ops + pc]`) and `steps`. A guarded op runs on different
    /// rows in each lane.
    lane_counts: Vec<u64>,
    lane_steps: Vec<u64>,
    dispatches: u64,
    /// Per-lane value scratch for staged load+write ops.
    vals: Vec<i64>,
    /// Column-loop rows: column `c` of lane `l` is
    /// `cols[(c * k + l) * CHUNK..][..rows]` (see [`ColGeometry`]).
    cols: Vec<i64>,
    /// Per-lane first row of the chunk on which a checked op fails.
    cut: Vec<usize>,
    /// Per-lane rows each guarded block of the chunk ran.
    guard_rows: Vec<u64>,
}

/// Hand the token buffers back to the thread for its next batch, on
/// every way out of a batch. They are only a cache, so a thread that is
/// exiting simply drops them.
impl Drop for LaneVm<'_> {
    fn drop(&mut self) {
        let _ = TOKEN_BUFS.try_with(|bufs| {
            if let Ok(mut bufs) = bufs.try_borrow_mut() {
                *bufs = TokenBufs {
                    in_all: std::mem::take(&mut self.in_all),
                    out_bufs: std::mem::take(&mut self.out_bufs),
                    cols: std::mem::take(&mut self.cols),
                };
            }
        });
    }
}

/// The column of an operand slot an op does not have.
static ZEROS: [i64; CHUNK] = [0; CHUNK];

/// The predicate of an op outside every guarded block.
static ONES: [i64; CHUNK] = [1; CHUNK];

/// Evaluate `$body` once per listed operator, with `$c` a constant
/// naming it, so a row loop over `bin_infallible($c, ..)` compiles to
/// the one operator.
macro_rules! with_binop {
    ($op:expr, $c:ident => $body:expr; $($v:ident)*) => {
        match $op {
            $(BinOp::$v => {
                const $c: BinOp = BinOp::$v;
                $body
            })*
            _ => unreachable!("no column op carries this operator"),
        }
    };
}

/// Evaluate `$body` with `$f` bound to the value function of column-loop
/// value op `$op`: its operands in `for_each_src` order in, the value it
/// writes (wrapped to its destination) or pushes out. One arm per op
/// shape, so each row loop over `$f` is straight-line code; the
/// arithmetic is the `vm` helpers' that every other path runs.
macro_rules! with_value_fn {
    ($op:expr, $f:ident => $body:expr) => {
        match *$op {
            Op::Bin { op, w, .. } => with_binop!(op, OP => {
                let $f = |v: [i64; 4]| wrap(w, bin_infallible(OP, v[0], v[1]));
                $body
            }; Add Sub Mul And Or Xor Lt Le Gt Ge Eq Ne),
            Op::Un { op: UnOp::Neg, w, .. } => {
                let $f = |v: [i64; 4]| wrap(w, un_op(UnOp::Neg, v[0]));
                $body
            }
            Op::Un { op: UnOp::Not, w, .. } => {
                let $f = |v: [i64; 4]| wrap(w, un_op(UnOp::Not, v[0]));
                $body
            }
            // A write-fused select pushes its raw value.
            Op::Select { .. } | Op::SelectWrite { .. } => {
                let w = $op.dest().map_or(Wrap::RAW, |(_, w)| w);
                let $f = |v: [i64; 4]| wrap(w, if v[0] != 0 { v[1] } else { v[2] });
                $body
            }
            Op::StoreVar { ty, .. } => {
                let $f = |v: [i64; 4]| wrap(ty, v[0]);
                $body
            }
            Op::ShlPow2 { w, k: sh, .. } => {
                let $f = |v: [i64; 4]| wrap(w, v[0].wrapping_shl(sh as u32));
                $body
            }
            Op::ShrImm { w, k: sh, .. } => {
                let $f = |v: [i64; 4]| wrap(w, v[0].wrapping_shr(sh as u32));
                $body
            }
            Op::DivPow2 { w, k: sh, .. } => {
                let $f = |v: [i64; 4]| wrap(w, div_pow2(v[0], sh));
                $body
            }
            Op::ModPow2 { w, k: sh, .. } => {
                let $f = |v: [i64; 4]| wrap(w, mod_pow2(v[0], sh));
                $body
            }
            Op::ShrAnd { w, k: sh, mask, .. } => {
                let $f = |v: [i64; 4]| wrap(w, v[0].wrapping_shr(sh as u32) & mask);
                $body
            }
            Op::MulAcc { w, .. } => {
                let $f = |v: [i64; 4]| wrap(w, v[2].wrapping_add(v[0].wrapping_mul(v[1])));
                $body
            }
            Op::CmpSelect { op, .. } | Op::CmpSelectWrite { op, .. } => {
                let w = $op.dest().map_or(Wrap::RAW, |(_, w)| w);
                with_binop!(op, OP => {
                    let $f = |v: [i64; 4]| {
                        wrap(w, if bin_infallible(OP, v[0], v[1]) != 0 { v[2] } else { v[3] })
                    };
                    $body
                }; Lt Le Gt Ge Eq Ne)
            }
            _ => unreachable!("not a column-loop value op"),
        }
    };
}

/// `o[i] = f(row i of ins)`: one independent evaluation per row.
#[inline(always)]
fn map_rows(o: &mut [i64], ins: [&[i64]; 4], f: impl Fn([i64; 4]) -> i64) {
    let r = o.len();
    let [a, b, c, d] = ins;
    let (a, b, c, d) = (&a[..r], &b[..r], &c[..r], &d[..r]);
    for i in 0..r {
        o[i] = f([a[i], b[i], c[i], d[i]]);
    }
}

/// A `BinChecked` on one row: its wrapped value, or `None` when the op
/// runs on the row and fails there. A row the op does not run on (its
/// predicate is false) yields 0 and never reaches the division.
#[inline(always)]
fn checked_row(op: BinOp, w: Wrap, a: i64, b: i64, runs: bool) -> Option<i64> {
    if !runs {
        return Some(0);
    }
    bin_checked(op, a, b).ok().map(|v| wrap(w, v))
}

/// Commit one lane's array stores: `arena[(base + idx) * k + l] =
/// wrap(v)` per row, or `+= v` when `inc`, on every row or only those
/// where `p` holds. One loop per case keeps the unguarded ones
/// branch-free.
#[inline(never)]
fn store_rows(
    arena: &mut [i64],
    base: usize,
    k: usize,
    l: usize,
    w: Wrap,
    inc: bool,
    (idx, v, p): (&[i64], &[i64], Option<&[i64]>),
) {
    let cells = idx.iter().zip(v);
    macro_rules! store {
        (|$s:ident, $v:ident| $value:expr) => {
            match p {
                None => {
                    for (&i, &$v) in cells {
                        let $s = (base + i as usize) * k + l;
                        arena[$s] = wrap(w, $value);
                    }
                }
                Some(p) => {
                    for ((&i, &$v), _) in cells.zip(p).filter(|&(_, &p)| p != 0) {
                        let $s = (base + i as usize) * k + l;
                        arena[$s] = wrap(w, $value);
                    }
                }
            }
        };
    }
    if inc {
        store!(|s, v| arena[s].wrapping_add(v))
    } else {
        store!(|_s, v| v)
    }
}

/// Push `vals` to `buf`: every row, or only those where `pred` holds.
fn push_rows(buf: &mut Vec<i64>, vals: &[i64], pred: Option<&[i64]>) {
    match pred {
        None => buf.extend_from_slice(vals),
        Some(p) => buf.extend(
            vals.iter()
                .zip(p)
                .filter(|&(_, &p)| p != 0)
                .map(|(&v, _)| v),
        ),
    }
}

/// `steps` a lane's chunk of `rows` rows debits, given the rows each
/// guarded block ran.
fn chunk_steps(cl: &ColLoop, rows: usize, guard_rows: &[u64]) -> u64 {
    let guarded: u64 = cl
        .guards
        .iter()
        .zip(guard_rows)
        .map(|(g, &n)| g.steps * n)
        .sum();
    rows as u64 * cl.base_steps + guarded
}

/// Where a chunk's columns live in `LaneVm::cols` for a batch of `k`
/// lanes: a shared column (a pooled immediate) once, every other column
/// once per lane.
#[derive(Clone, Copy)]
struct ColGeometry {
    shared: usize,
    k: usize,
}

impl ColGeometry {
    fn new(cl: &ColLoop, k: usize) -> ColGeometry {
        ColGeometry {
            shared: cl.shared as usize,
            k,
        }
    }

    /// Offset of column `c`'s rows for lane `l`.
    #[inline(always)]
    fn at(self, c: u16, l: usize) -> usize {
        match c as usize {
            c if c < self.shared => c * CHUNK,
            c => (self.shared + (c - self.shared) * self.k + l) * CHUNK,
        }
    }
}

/// One lane of a [`Recurrence`](crate::compile::Recurrence), row by
/// row: `o` gets the value op's value per row, computed from `ins` with
/// the running value `acc` in operand `S`, or with `S` = 4 in every
/// operand `carry` marks (a fixed operand keeps the row loop free of
/// per-operand selects; a runtime one made `halfProbability` a quarter
/// slower). Where the op runs (`p`), that value becomes the running
/// value (a scan); or, with `cond = Some((g, w))`, it is the condition
/// of a guard whose predicate goes to `g`, and where that holds, `w`'s
/// row becomes the running value (a conditional update).
#[inline(never)]
fn update_rows<const S: usize>(
    o: &mut [i64],
    ins: [&[i64]; 4],
    p: &[i64],
    cond: Option<(&mut [i64], &[i64])>,
    mut acc: i64,
    carry: u8,
    f: impl Fn([i64; 4]) -> i64,
) {
    let operands = |i: usize, acc: i64| {
        let mut v = [ins[0][i], ins[1][i], ins[2][i], ins[3][i]];
        if S < 4 {
            v[S] = acc;
        } else {
            for (s, x) in v.iter_mut().enumerate() {
                if carry >> s & 1 != 0 {
                    *x = acc;
                }
            }
        }
        v
    };
    match cond {
        None => {
            for i in 0..o.len() {
                let x = f(operands(i, acc));
                o[i] = x;
                acc = if p[i] != 0 { x } else { acc };
            }
        }
        Some((g, w)) => {
            for i in 0..o.len() {
                let x = f(operands(i, acc));
                o[i] = x;
                let runs = p[i] != 0 && x != 0;
                g[i] = runs as i64;
                acc = if runs { w[i] } else { acc };
            }
        }
    }
}

impl<'a> LaneVm<'a> {
    /// The error of the op at `pc`, before which a one-lane hot loop
    /// stopped, with the op's effects up to its trap point applied. The
    /// order is the interpreter's: `StepLimit` at the top of the op, then
    /// the op's own check, then a fused op's staged step tick; so
    /// `WriteStream2` pushes its first port before that tick trips, and
    /// `IncIdx` reports `OutOfBounds` before `StepLimit`. Counts the op's
    /// dispatch.
    fn trap(&mut self, pc: usize) -> ExecError {
        debug_assert_eq!(self.k, 1, "a wider batch runs its lanes alone instead");
        let ck = self.ck;
        self.dispatches += 1;
        let step_limit = ExecError::StepLimit(self.limit);
        if self.steps + self.lane_steps[0] + ck.steps[pc] as u64 > self.limit {
            return step_limit;
        }
        let reg = |s: Src| match s {
            Src::Reg(r) => self.regs[r as usize],
            Src::Imm(_) => unreachable!("pooled ops carry no immediates"),
        };
        let in_range = |arr: u16, idx: Src| {
            let info = &ck.arrays[arr as usize];
            match reg(idx) {
                i if i >= 0 && (i as u64) < info.len as u64 => Ok(i),
                index => Err(ExecError::OutOfBounds {
                    array: info.name.clone(),
                    index,
                    len: info.len,
                }),
            }
        };
        const RAN: &str = "the hot loop stops only before an op that traps";
        match ck.lane_ops[pc] {
            Op::BinChecked { op, a, b, .. } => bin_checked(op, reg(a), reg(b)).expect_err(RAN),
            Op::LoadIdx { arr, idx, .. } | Op::StoreIdx { arr, idx, .. } => {
                in_range(arr, idx).expect_err(RAN)
            }
            Op::ReadStream { port, .. } => {
                ExecError::StreamUnderflow(ck.stream_ins[port as usize].clone())
            }
            // In range, the staged tick is what trips.
            Op::IncIdx { arr, idx, .. } | Op::LoadIdxWrite { arr, idx, .. } => {
                in_range(arr, idx).err().unwrap_or(step_limit)
            }
            Op::WriteStream2 { port_a, src_a, .. } => {
                let v = reg(src_a);
                self.out_bufs[port_a as usize].push(v);
                step_limit
            }
            ref op => unreachable!("{op:?} cannot trap"),
        }
    }

    /// The hot loop: executes ops for every lane in lockstep, and hands a
    /// column loop's body start back to the machine loop, which runs it a
    /// chunk at a time. Everything a dispatch needs is hoisted into locals
    /// here, per-lane loops run over the dense `0..k` range of contiguous
    /// SoA rows, and row bases are bounds-proved once per op so the bodies
    /// compile to straight-line (vectorizable) code.
    ///
    /// An op that could trap a lane, trip the step limit, or send the
    /// lanes different ways *bails out*: the loop returns
    /// [`Exit::Bail`] **before committing any effect or tally** of that
    /// op. In a one-lane batch that op traps, and [`LaneVm::trap`]
    /// resolves it; a wider batch runs its lanes alone instead.
    ///
    /// Width-dispatched entry: the common lane counts get a
    /// monomorphized body whose per-lane loops have a compile-time trip
    /// count (fully unrolled and vectorized); anything else runs the
    /// dynamic-width version (`LANES = 0`).
    fn exec_hot(&mut self, pc: usize) -> Exit {
        match self.k {
            1 => self.exec_hot_w::<1>(pc),
            2 => self.exec_hot_w::<2>(pc),
            4 => self.exec_hot_w::<4>(pc),
            8 => self.exec_hot_w::<8>(pc),
            16 => self.exec_hot_w::<16>(pc),
            _ => self.exec_hot_w::<0>(pc),
        }
    }

    /// ISA multiversioning shim: the portable crate targets baseline
    /// x86-64 (SSE2), which has no 64-bit vector multiply and only
    /// 2×i64 registers — the monomorphized per-lane loops barely
    /// vectorize. Compiling the same body with AVX-512DQ makes an
    /// 8-lane row exactly one `zmm` register (with a native `vpmullq`),
    /// and AVX2 covers half a row; the best instantiation the running
    /// CPU supports is picked here, once per hot-loop entry.
    fn exec_hot_w<const LANES: usize>(&mut self, pc: usize) -> Exit {
        #[cfg(target_arch = "x86_64")]
        {
            match hot_isa() {
                // SAFETY: `hot_isa` only reports a tier after runtime
                // feature detection confirmed the CPU supports it.
                HotIsa::Avx512 => return unsafe { self.exec_hot_avx512::<LANES>(pc) },
                HotIsa::Avx2 => return unsafe { self.exec_hot_avx2::<LANES>(pc) },
                HotIsa::Portable => {}
            }
        }
        self.exec_hot_body::<LANES>(pc)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn exec_hot_avx512<const LANES: usize>(&mut self, pc: usize) -> Exit {
        self.exec_hot_body::<LANES>(pc)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn exec_hot_avx2<const LANES: usize>(&mut self, pc: usize) -> Exit {
        self.exec_hot_body::<LANES>(pc)
    }

    /// The hot-loop body proper. `inline(always)` so each
    /// `#[target_feature]` wrapper above gets its own copy compiled
    /// under that wrapper's instruction set.
    #[inline(always)]
    fn exec_hot_body<const LANES: usize>(&mut self, mut pc: usize) -> Exit {
        let ck = self.ck;
        let k = if LANES > 0 { LANES } else { self.k };
        let limit = self.limit;
        let ops = &ck.lane_ops[..];
        let steps_d = &ck.steps[..];
        let n = ops.len();
        let regs = &mut self.regs[..];
        let arena = &mut self.arena[..];
        let in_all = &self.in_all[..];
        let in_end = &self.in_end[..];
        let cursors = &mut self.cursors[..];
        let out_bufs = &mut self.out_bufs[..];
        let counts = &mut self.counts[..];
        let col_at = &ck.col_at[..];
        let vals = &mut self.vals[..];
        // The step limit binds the lane that has run the most steps.
        let peak = self.lane_steps.iter().copied().max().unwrap_or(0);
        let mut steps_acc = self.steps + peak;
        let mut dynb = self.dynb;
        let mut disp = self.dispatches;
        // One proof each for the per-op row accesses below.
        assert!(steps_d.len() == n && counts.len() == n);
        assert!(vals.len() == k && cursors.len() == in_end.len());

        /// Bounds-proved row base: accesses `slice[b + l]` for `l < k`
        /// are check-free after this.
        #[inline(always)]
        fn rowb(len: usize, r: u16, k: usize) -> usize {
            let b = r as usize * k;
            assert!(b + k <= len);
            b
        }

        let ret = 'hot: loop {
            if pc >= n {
                break 'hot Exit::End;
            }
            let d = steps_d[pc] as u64;
            if steps_acc + d > limit {
                break 'hot Exit::Bail(pc);
            }
            disp += 1;

            // Loop-invariant source row base. `lane_ops` is
            // immediate-free by construction (see `imm_seed`), so every
            // operand fetch in the per-lane loops below is a plain
            // check-free row load — no branch, nothing to unswitch.
            macro_rules! srow {
                ($s:expr) => {
                    match $s {
                        Src::Reg(r) => rowb(regs.len(), r, k),
                        Src::Imm(_) => unreachable!("pooled lane ops carry no immediates"),
                    }
                };
            }
            macro_rules! ld {
                ($rs:expr, $l:ident) => {
                    regs[$rs + $l]
                };
            }
            /// The op is definitely executing now: commit its shared
            /// tallies (the limit check already passed above).
            macro_rules! acct {
                () => {{
                    counts[pc] += 1;
                    steps_acc += d;
                }};
            }
            /// This op would trap or send the lanes different ways; undo
            /// the dispatch claim and hand the unexecuted op back.
            macro_rules! bail {
                () => {{
                    disp -= 1;
                    break 'hot Exit::Bail(pc);
                }};
            }

            pc = match &ops[pc] {
                Op::Bin { op, dst, w, a, b } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    for l in 0..k {
                        let av = ld!(ra, l);
                        let bv = ld!(rb, l);
                        regs[db + l] = wrap(*w, bin_infallible(*op, av, bv));
                    }
                    pc + 1
                }
                Op::BinChecked { op, dst, w, a, b } => {
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    let mut ok = true;
                    for l in 0..k {
                        match bin_checked(*op, ld!(ra, l), ld!(rb, l)) {
                            Ok(v) => vals[l] = v,
                            Err(_) => ok = false,
                        }
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, vals[l]);
                    }
                    pc + 1
                }
                Op::Un { op, dst, w, a } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, un_op(*op, ld!(ra, l)));
                    }
                    pc + 1
                }
                Op::Select { dst, w, c, a, b } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let rc = srow!(*c);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    for l in 0..k {
                        let cv = ld!(rc, l);
                        let av = ld!(ra, l);
                        let bv = ld!(rb, l);
                        regs[db + l] = wrap(*w, if cv != 0 { av } else { bv });
                    }
                    pc + 1
                }
                Op::LoadIdx { dst, w, arr, idx } => {
                    let info = &ck.arrays[*arr as usize];
                    let (base, len) = (info.base as usize, info.len);
                    let ri = srow!(*idx);
                    let mut ok = true;
                    for l in 0..k {
                        let iv = ld!(ri, l);
                        ok &= iv >= 0 && (iv as u64) < len as u64;
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    for l in 0..k {
                        let iv = ld!(ri, l) as usize;
                        regs[db + l] = wrap(*w, arena[(base + iv) * k + l]);
                    }
                    pc + 1
                }
                Op::StoreIdx { arr, idx, src: v } => {
                    let info = &ck.arrays[*arr as usize];
                    let (base, len, ty) = (info.base as usize, info.len, info.ty);
                    let ri = srow!(*idx);
                    let mut ok = true;
                    for l in 0..k {
                        let iv = ld!(ri, l);
                        ok &= iv >= 0 && (iv as u64) < len as u64;
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    let rv = srow!(*v);
                    for l in 0..k {
                        let vv = ld!(rv, l);
                        let iv = ld!(ri, l) as usize;
                        arena[(base + iv) * k + l] = wrap(ty, vv);
                    }
                    pc + 1
                }
                Op::StoreVar { dst, ty, src: v } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let rv = srow!(*v);
                    for l in 0..k {
                        regs[db + l] = wrap(*ty, ld!(rv, l));
                    }
                    pc + 1
                }
                Op::ReadStream { dst, w, port } => {
                    let pb = rowb(in_end.len(), *port, k);
                    let mut ok = true;
                    for l in 0..k {
                        ok &= cursors[pb + l] < in_end[pb + l];
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    for l in 0..k {
                        let cur = cursors[pb + l];
                        regs[db + l] = wrap(*w, in_all[cur]);
                        cursors[pb + l] = cur + 1;
                    }
                    pc + 1
                }
                Op::WriteStream { port, src: v } => {
                    acct!();
                    let qb = rowb(out_bufs.len(), *port, k);
                    let rv = srow!(*v);
                    for l in 0..k {
                        out_bufs[qb + l].push(ld!(rv, l));
                    }
                    pc + 1
                }
                Op::LoopInit {
                    var,
                    ty,
                    lo,
                    hi_copy,
                } => {
                    acct!();
                    let vb = rowb(regs.len(), *var, k);
                    let rl = srow!(*lo);
                    // The interpreter's effect order (read `lo`, latch the
                    // bound, write the induction var), staged through
                    // `vals` so the row copies stay alias-safe.
                    vals[..k].copy_from_slice(&regs[rl..rl + k]);
                    if let Some((hr, hs)) = hi_copy {
                        let hb = rowb(regs.len(), *hr, k);
                        let rs = srow!(*hs);
                        for l in 0..k {
                            regs[hb + l] = regs[rs + l];
                        }
                    }
                    for l in 0..k {
                        regs[vb + l] = wrap(*ty, vals[l]);
                    }
                    pc + 1
                }
                Op::LoopHead { var, hi, exit } => {
                    let vb = rowb(regs.len(), *var, k);
                    let rh = srow!(*hi);
                    let (mut all_t, mut all_f) = (true, true);
                    for l in 0..k {
                        let t = regs[vb + l] < ld!(rh, l);
                        if t {
                            all_f = false;
                        } else {
                            all_t = false;
                        }
                    }
                    if all_t {
                        acct!();
                        dynb += 1;
                        if col_at[pc + 1] != NO_LOOP {
                            // A column loop's body: the machine loop
                            // runs it a chunk at a time.
                            break 'hot Exit::Body(pc + 1);
                        }
                        pc + 1
                    } else if all_f {
                        acct!();
                        *exit as usize
                    } else {
                        bail!();
                    }
                }
                Op::LoopBack { var, ty, hi, body } => {
                    let vb = rowb(regs.len(), *var, k);
                    let rh = srow!(*hi);
                    let (mut all_t, mut all_f) = (true, true);
                    for l in 0..k {
                        let nv = wrap(*ty, regs[vb + l].wrapping_add(1));
                        vals[l] = nv;
                        // The bound may name the induction register
                        // itself; the interpreter tests against the
                        // post-increment value then.
                        let hv = if rh == vb { nv } else { ld!(rh, l) };
                        if nv < hv {
                            all_f = false;
                        } else {
                            all_t = false;
                        }
                    }
                    if !all_t && !all_f {
                        bail!();
                    }
                    acct!();
                    regs[vb..vb + k].copy_from_slice(&vals[..k]);
                    if all_t {
                        dynb += 1;
                        if col_at[*body as usize] != NO_LOOP {
                            break 'hot Exit::Body(*body as usize);
                        }
                        *body as usize
                    } else {
                        pc + 1
                    }
                }
                Op::BranchIfZero { cond, target } => {
                    if *target as usize == pc + 1 {
                        acct!();
                        pc + 1
                    } else {
                        let rc = srow!(*cond);
                        let (mut all_t, mut all_f) = (true, true);
                        for l in 0..k {
                            if ld!(rc, l) != 0 {
                                all_f = false;
                            } else {
                                all_t = false;
                            }
                        }
                        if all_t {
                            acct!();
                            pc + 1
                        } else if all_f {
                            acct!();
                            *target as usize
                        } else {
                            bail!();
                        }
                    }
                }
                Op::Jump { target } => {
                    acct!();
                    *target as usize
                }
                Op::ShlPow2 { dst, w, a, k: sh } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, ld!(ra, l).wrapping_shl(*sh as u32));
                    }
                    pc + 1
                }
                Op::ShrImm { dst, w, a, k: sh } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, ld!(ra, l).wrapping_shr(*sh as u32));
                    }
                    pc + 1
                }
                Op::DivPow2 { dst, w, a, k: sh } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, div_pow2(ld!(ra, l), *sh));
                    }
                    pc + 1
                }
                Op::ModPow2 { dst, w, a, k: sh } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, mod_pow2(ld!(ra, l), *sh));
                    }
                    pc + 1
                }
                Op::ShrAnd {
                    dst,
                    w,
                    a,
                    k: sh,
                    mask,
                } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    for l in 0..k {
                        regs[db + l] = wrap(*w, ld!(ra, l).wrapping_shr(*sh as u32) & *mask);
                    }
                    pc + 1
                }
                Op::MulAcc { dst, w, a, b, acc } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    let rc = srow!(*acc);
                    for l in 0..k {
                        let av = ld!(ra, l);
                        let bv = ld!(rb, l);
                        let cv = ld!(rc, l);
                        regs[db + l] = wrap(*w, cv.wrapping_add(av.wrapping_mul(bv)));
                    }
                    pc + 1
                }
                Op::CmpSelect {
                    op,
                    dst,
                    w,
                    x,
                    y,
                    a,
                    b,
                } => {
                    acct!();
                    let db = rowb(regs.len(), *dst, k);
                    let rx = srow!(*x);
                    let ry = srow!(*y);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    for l in 0..k {
                        let c = bin_infallible(*op, ld!(rx, l), ld!(ry, l));
                        let av = ld!(ra, l);
                        let bv = ld!(rb, l);
                        regs[db + l] = wrap(*w, if c != 0 { av } else { bv });
                    }
                    pc + 1
                }
                Op::SelectWrite { port, c, a, b } => {
                    acct!();
                    let rc = srow!(*c);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    let qb = rowb(out_bufs.len(), *port, k);
                    for l in 0..k {
                        let v = if ld!(rc, l) != 0 {
                            ld!(ra, l)
                        } else {
                            ld!(rb, l)
                        };
                        out_bufs[qb + l].push(v);
                    }
                    pc + 1
                }
                Op::CmpSelectWrite {
                    op,
                    port,
                    x,
                    y,
                    a,
                    b,
                } => {
                    acct!();
                    let rx = srow!(*x);
                    let ry = srow!(*y);
                    let ra = srow!(*a);
                    let rb = srow!(*b);
                    let qb = rowb(out_bufs.len(), *port, k);
                    for l in 0..k {
                        let c = bin_infallible(*op, ld!(rx, l), ld!(ry, l));
                        let v = if c != 0 { ld!(ra, l) } else { ld!(rb, l) };
                        out_bufs[qb + l].push(v);
                    }
                    pc + 1
                }
                Op::IncIdx { arr, idx, v, s2 } => {
                    let info = &ck.arrays[*arr as usize];
                    let (base, len, ty) = (info.base as usize, info.len, info.ty);
                    let s2v = *s2 as u64;
                    if steps_acc + d + s2v > limit {
                        bail!();
                    }
                    let ri = srow!(*idx);
                    let mut ok = true;
                    for l in 0..k {
                        let iv = ld!(ri, l);
                        ok &= iv >= 0 && (iv as u64) < len as u64;
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    steps_acc += s2v;
                    let rv = srow!(*v);
                    for l in 0..k {
                        let iv = ld!(ri, l) as usize;
                        let add = ld!(rv, l);
                        let slot = (base + iv) * k + l;
                        arena[slot] = wrap(ty, arena[slot].wrapping_add(add));
                    }
                    pc + 1
                }
                Op::WriteStream2 {
                    port_a,
                    src_a,
                    port_b,
                    src_b,
                    s2,
                } => {
                    let s2v = *s2 as u64;
                    if steps_acc + d + s2v > limit {
                        bail!();
                    }
                    acct!();
                    let qa = rowb(out_bufs.len(), *port_a, k);
                    let ra = srow!(*src_a);
                    for l in 0..k {
                        out_bufs[qa + l].push(ld!(ra, l));
                    }
                    steps_acc += s2v;
                    let qb = rowb(out_bufs.len(), *port_b, k);
                    let rb = srow!(*src_b);
                    for l in 0..k {
                        out_bufs[qb + l].push(ld!(rb, l));
                    }
                    pc + 1
                }
                Op::LoadIdxWrite { arr, idx, port, s2 } => {
                    let info = &ck.arrays[*arr as usize];
                    let (base, len) = (info.base as usize, info.len);
                    let s2v = *s2 as u64;
                    if steps_acc + d + s2v > limit {
                        bail!();
                    }
                    let ri = srow!(*idx);
                    let mut ok = true;
                    for l in 0..k {
                        let iv = ld!(ri, l);
                        ok &= iv >= 0 && (iv as u64) < len as u64;
                    }
                    if !ok {
                        bail!();
                    }
                    acct!();
                    for l in 0..k {
                        let iv = ld!(ri, l) as usize;
                        vals[l] = arena[(base + iv) * k + l];
                    }
                    steps_acc += s2v;
                    let qb = rowb(out_bufs.len(), *port, k);
                    for l in 0..k {
                        out_bufs[qb + l].push(vals[l]);
                    }
                    pc + 1
                }
            };
        };

        self.steps = steps_acc - peak;
        self.dynb = dynb;
        self.dispatches = disp;
        ret
    }

    /// The column loop whose body starts at `pc`, if any.
    fn col_loop(&self, pc: usize) -> Option<&'a ColLoop> {
        let ck: &'a CompiledKernel = self.ck;
        match ck.col_at.get(pc) {
            Some(&i) if i != NO_LOOP => Some(&ck.col_loops[i as usize]),
            _ => None,
        }
    }

    /// Run the next chunk of column loop `cl`, whose body start the lanes
    /// stand at: up to [`CHUNK`] iterations, every body op dispatched once
    /// over the rows of every lane. Returns the next pc; `Ok(None)` with
    /// nothing run when some iteration of the chunk could trap (too few
    /// tokens, an index out of range, the step limit) or its back-edge
    /// would wrap, so that iteration runs op at a time and trap points,
    /// partial effects and `StepLimit` stay the interpreter's; `Err` with
    /// the body start, nothing run, when the lanes would leave the loop
    /// in different chunks or a checked op would fail on different rows.
    /// Compiled per ISA tier like the hot loop ([`LaneVm::exec_hot_w`]).
    fn run_chunk(&mut self, cl: &ColLoop) -> Result<Option<usize>, usize> {
        #[cfg(target_arch = "x86_64")]
        {
            match hot_isa() {
                // SAFETY: `hot_isa` only reports a tier after runtime
                // feature detection confirmed the CPU supports it.
                HotIsa::Avx512 => return unsafe { self.run_chunk_avx512(cl) },
                HotIsa::Avx2 => return unsafe { self.run_chunk_avx2(cl) },
                HotIsa::Portable => {}
            }
        }
        self.run_chunk_body(cl)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn run_chunk_avx512(&mut self, cl: &ColLoop) -> Result<Option<usize>, usize> {
        self.run_chunk_body(cl)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_chunk_avx2(&mut self, cl: &ColLoop) -> Result<Option<usize>, usize> {
        self.run_chunk_body(cl)
    }

    #[inline(always)]
    fn run_chunk_body(&mut self, cl: &ColLoop) -> Result<Option<usize>, usize> {
        let k = self.k;
        let (body, back) = (cl.body as usize, cl.back as usize);
        let (vb, hb) = (cl.var as usize * k, cl.hi as usize * k);
        // The chunk's rows: the rest of the trip count, at most CHUNK,
        // and whether the lanes are still in the loop after it.
        let rows_of = |l: usize| {
            let (v, h) = (self.regs[vb + l], self.regs[hb + l]);
            debug_assert!(v < h, "a loop body starts only after its test passed");
            let trips = h.wrapping_sub(v) as u64;
            (trips.min(CHUNK as u64) as usize, trips > CHUNK as u64)
        };
        let (mut rows, mut stay) = rows_of(0);
        for l in 0..k {
            if self.regs[hb + l] > cl.var_max {
                return Ok(None);
            }
            if rows_of(l) != (rows, stay) {
                return Err(body);
            }
        }
        // Nothing in the chunk may trap, whichever guards hold.
        for l in 0..k {
            for &p in &cl.reads {
                let b = p as usize * k + l;
                if self.in_end[b] - self.cursors[b] < rows {
                    return Ok(None);
                }
            }
            let v = self.regs[vb + l];
            for check in &cl.checks {
                let ok = match *check {
                    IndexCheck::Induction { len } => v >= 0 && v as u64 + rows as u64 <= len as u64,
                    IndexCheck::Invariant { reg, len } => {
                        let x = self.regs[reg as usize * k + l];
                        x >= 0 && (x as u64) < len as u64
                    }
                };
                if !ok {
                    return Ok(None);
                }
            }
            if self.steps + self.lane_steps[l] + rows as u64 * cl.iter_steps > self.limit {
                return Ok(None);
            }
        }
        // A checked op that fails on some row cuts the chunk before that
        // row, and the iteration it fails in runs op at a time and traps
        // there; one that fails on the first row leaves the chunk empty.
        self.chunk_values(cl, rows);
        let cut = self.cut[0];
        if self.cut[1..k].iter().any(|&c| c != cut) {
            return Err(body);
        }
        match cut {
            0 => return Ok(None),
            cut if cut < rows => (rows, stay) = (cut, true),
            _ => {}
        }
        // The rows each guarded block ran, per lane.
        let ng = cl.guards.len();
        if self.guard_rows.len() < k * ng {
            self.guard_rows.resize(k * ng, 0);
        }
        let geo = ColGeometry::new(cl, k);
        for l in 0..k {
            for (g, guard) in cl.guards.iter().enumerate() {
                let p = &self.cols[geo.at(guard.col, l)..][..rows];
                self.guard_rows[l * ng + g] = p.iter().filter(|&&p| p != 0).count() as u64;
            }
        }
        self.chunk_commit(cl, rows);

        // Each pc ran once per row its block's predicate held; the
        // back-edge was taken on every row but the last if the lanes
        // leave. One dispatch per op covers the chunk's rows of every
        // lane.
        let guard_of = |pc: usize| cl.ops.get(pc - body).map_or(NO_COL, |c| c.guard);
        let ops = self.counts.len();
        for l in 0..k {
            let gr = &self.guard_rows[l * ng..][..ng];
            let counts = &mut self.lane_counts[l * ops..][body..=back];
            for (pc, c) in (body..).zip(counts) {
                *c += match guard_of(pc) {
                    NO_COL => rows as u64,
                    g => gr[g as usize],
                };
            }
            self.lane_steps[l] += chunk_steps(cl, rows, gr);
        }
        self.dynb += rows as u64 - !stay as u64;
        self.dispatches += (back - body + 1) as u64;
        Ok(Some(if stay { body } else { back + 1 }))
    }

    /// The first half of a chunk (see [`LaneVm::run_chunk`]): broadcast
    /// the invariants and the induction variable into columns, then
    /// compute every op's value and every block's predicate over each
    /// lane's `r` rows, in body order, running each [`Recurrence`] row by
    /// row once its last op is reached. Commits nothing; `cut[l]` ends as
    /// lane `l`'s first row on which a checked op fails where its
    /// predicate holds, or `r`.
    ///
    /// [`Recurrence`]: crate::compile::Recurrence
    #[inline(always)]
    fn chunk_values(&mut self, cl: &ColLoop, r: usize) {
        let ck = self.ck;
        let k = self.k;
        let geo = ColGeometry::new(cl, k);
        let need = geo.at(cl.cols, 0);
        if self.cols.len() < need {
            self.cols.resize(need, 0);
        }
        let LaneVm {
            regs,
            arena,
            in_all,
            cursors,
            cols,
            cut,
            ..
        } = self;
        cut[..k].fill(r);
        let at = |c: u16, l: usize| geo.at(c, l);

        // A pooled immediate holds the same value in every lane.
        for &(c, reg) in &cl.splats[..geo.shared] {
            cols[at(c, 0)..][..r].fill(regs[reg as usize * k]);
        }
        for &(c, reg) in &cl.splats[geo.shared..] {
            for l in 0..k {
                cols[at(c, l)..][..r].fill(regs[reg as usize * k + l]);
            }
        }
        if let Some(c) = cl.iota {
            for l in 0..k {
                let v = regs[cl.var as usize * k + l];
                for (i, x) in cols[at(c, l)..][..r].iter_mut().enumerate() {
                    *x = v + i as i64;
                }
            }
        }

        let mut recs = cl.recs.iter().peekable();
        for (at_op, cop) in cl.ops.iter().enumerate() {
            // Per lane `l`: `o` is the op's value column, `ins` its operand
            // columns and `p` its predicate; every one of them lies below
            // the value column.
            macro_rules! each_lane {
                (|$l:ident, $o:ident, $ins:ident, $p:ident| $body:expr) => {
                    for $l in 0..k {
                        let (lo, hi) = cols.split_at_mut(at(cop.out, $l));
                        let $o = &mut hi[..r];
                        let col = |c: u16| match c {
                            NO_COL => &ZEROS[..r],
                            c => &lo[at(c, $l)..][..r],
                        };
                        let $ins: [&[i64]; 4] = [
                            col(cop.ins[0]),
                            col(cop.ins[1]),
                            col(cop.ins[2]),
                            col(cop.ins[3]),
                        ];
                        let $p = match cop.guard {
                            NO_COL => &ONES[..r],
                            g => col(cl.guards[g as usize].col),
                        };
                        $body
                    }
                };
            }
            match cop.op {
                _ if cop.in_order || cop.out == NO_COL => {}
                Op::ReadStream { w, port, .. } => each_lane!(|l, o, _ins, _p| {
                    let cur = cursors[port as usize * k + l];
                    for (x, &t) in o.iter_mut().zip(&in_all[cur..cur + r]) {
                        *x = wrap(w, t);
                    }
                }),
                Op::LoadIdx { arr, .. } | Op::LoadIdxWrite { arr, .. } => {
                    let (base, w) = match cop.op {
                        Op::LoadIdx { w, .. } => (ck.arrays[arr as usize].base as usize, w),
                        _ => (ck.arrays[arr as usize].base as usize, Wrap::RAW),
                    };
                    each_lane!(|l, o, ins, _p| {
                        for (x, &i) in o.iter_mut().zip(ins[0]) {
                            *x = wrap(w, arena[(base + i as usize) * k + l]);
                        }
                    })
                }
                Op::BranchIfZero { .. } => each_lane!(|_l, o, ins, p| {
                    for ((x, &c), &p) in o.iter_mut().zip(ins[0]).zip(p) {
                        *x = (p != 0 && c != 0) as i64;
                    }
                }),
                Op::BinChecked { op, w, .. } => {
                    with_binop!(op, OP => each_lane!(|l, o, ins, p| {
                    let mut first = r;
                    for (i, ((x, (&a, &b)), &p)) in o.iter_mut().zip(ins[0].iter().zip(ins[1])).zip(p).enumerate() {
                        *x = checked_row(OP, w, a, b, p != 0).unwrap_or_else(|| {
                            first = first.min(i);
                            0
                        });
                    }
                    cut[l] = cut[l].min(first);
                }); Div Mod Shl Shr)
                }
                ref op => with_value_fn!(op, f => each_lane!(|_l, o, ins, _p| {
                    map_rows(o, ins, f)
                })),
            }
            let Some(rec) = recs.next_if(|rec| rec.last as usize == at_op) else {
                continue;
            };
            let v = &cl.ops[rec.value as usize];
            let reg = cl.carried[rec.slot as usize].reg as usize * k;
            // Per lane, the value's, the guard's and the writer's rows lie
            // in that order above every operand column.
            with_value_fn!(&v.op, f => for l in 0..k {
                let (lo, hi) = cols.split_at_mut(at(v.out, l));
                let (o, hi) = hi.split_at_mut(CHUNK);
                let col = |c: u16| match c {
                    NO_COL => &ZEROS[..r],
                    c => &lo[at(c, l)..][..r],
                };
                let ins = [0, 1, 2, 3].map(|s| match v.carry >> s & 1 {
                    0 => col(v.ins[s]),
                    _ => &ZEROS[..r],
                });
                let p = match v.guard {
                    NO_COL => &ONES[..r],
                    g => col(cl.guards[g as usize].col),
                };
                let cond = (rec.guard != NO_COL).then(|| {
                    let g = at(cl.ops[rec.guard as usize].out, l);
                    let w = at(cl.ops[cl.carried[rec.slot as usize].writer as usize].out, l);
                    let (g_rows, w_rows) = hi[g - at(v.out, l) - CHUNK..].split_at_mut(CHUNK);
                    (&mut g_rows[..r], &w_rows[w - g - CHUNK..][..r])
                });
                let acc = regs[reg + l];
                macro_rules! update_at {
                    ($s:literal) => {
                        update_rows::<$s>(&mut o[..r], ins, p, cond, acc, v.carry, f)
                    };
                }
                match v.carry {
                    0b0001 => update_at!(0),
                    0b0010 => update_at!(1),
                    0b0100 => update_at!(2),
                    0b1000 => update_at!(3),
                    _ => update_at!(4),
                }
            });
        }
    }

    /// The second half of a chunk: commit each lane's first `r` rows —
    /// stream cursors, array stores and stream writes, each on the rows
    /// where its op's predicate holds — then each register the body
    /// writes and the induction variable.
    #[inline(always)]
    fn chunk_commit(&mut self, cl: &ColLoop, r: usize) {
        let ck = self.ck;
        let k = self.k;
        let geo = ColGeometry::new(cl, k);
        let LaneVm {
            regs,
            arena,
            cursors,
            out_bufs,
            cols,
            ..
        } = self;
        let col = |c: u16, l: usize| match c {
            NO_COL => &ZEROS[..r],
            c => &cols[geo.at(c, l)..][..r],
        };
        let pred = |cop: &ColOp, l: usize| match cop.guard {
            NO_COL => None,
            g => Some(col(cl.guards[g as usize].col, l)),
        };
        for cop in &cl.ops {
            for l in 0..k {
                let p = pred(cop, l);
                match cop.op {
                    Op::ReadStream { port, .. } => cursors[port as usize * k + l] += r,
                    Op::StoreIdx { arr, .. } | Op::IncIdx { arr, .. } => {
                        let info = &ck.arrays[arr as usize];
                        let (base, w) = (info.base as usize, Wrap::from(info.ty));
                        let inc = matches!(cop.op, Op::IncIdx { .. });
                        let rows = (col(cop.ins[0], l), col(cop.ins[1], l), p);
                        store_rows(arena, base, k, l, w, inc, rows);
                    }
                    Op::WriteStream { port, .. } => {
                        push_rows(&mut out_bufs[port as usize * k + l], col(cop.ins[0], l), p)
                    }
                    Op::WriteStream2 { port_a, port_b, .. } => {
                        push_rows(
                            &mut out_bufs[port_a as usize * k + l],
                            col(cop.ins[0], l),
                            p,
                        );
                        push_rows(
                            &mut out_bufs[port_b as usize * k + l],
                            col(cop.ins[1], l),
                            p,
                        );
                    }
                    Op::LoadIdxWrite { port, .. }
                    | Op::SelectWrite { port, .. }
                    | Op::CmpSelectWrite { port, .. } => {
                        push_rows(&mut out_bufs[port as usize * k + l], col(cop.out, l), p)
                    }
                    _ => {}
                }
            }
        }

        // A register takes the value its last writer that ran wrote on
        // the last row any of them ran; it keeps its value if none did.
        // Writers are tried last first, so on a row two of them ran the
        // later one wins.
        for (reg, writers) in &cl.writeback {
            for l in 0..k {
                let mut value: Option<(usize, i64)> = None;
                for &w in writers.iter().rev() {
                    let cop = &cl.ops[w as usize];
                    let row = match pred(cop, l) {
                        None => r.checked_sub(1),
                        Some(p) => p.iter().rposition(|&p| p != 0),
                    };
                    if let Some(i) = row.filter(|&i| value.is_none_or(|(at, _)| i > at)) {
                        value = Some((i, col(cop.out, l)[i]));
                    }
                    if row == r.checked_sub(1) {
                        break;
                    }
                }
                if let Some((_, v)) = value {
                    regs[*reg as usize * k + l] = v;
                }
            }
        }
        for l in 0..k {
            regs[cl.var as usize * k + l] += r as i64;
        }
    }

    /// The machine loop: run the program to its end in lockstep, the hot
    /// loop between column loops' chunks. `Err(pc)`: the op at `pc` would
    /// trap, or send the lanes different ways, or the lanes would leave
    /// the column loop whose body starts at `pc` in different chunks;
    /// nothing of it ran.
    fn exec(&mut self) -> Result<(), usize> {
        let mut pc = 0;
        loop {
            // A column loop's body start is an iteration boundary: run the
            // next chunk of iterations, or this one op at a time when the
            // chunk could trap.
            if let Some(cl) = self.col_loop(pc) {
                if let Some(next) = self.run_chunk(cl)? {
                    pc = next;
                    continue;
                }
            }
            pc = match self.exec_hot(pc) {
                Exit::End => return Ok(()),
                Exit::Body(body) => body,
                Exit::Bail(pc) => return Err(pc),
            };
        }
    }
}

impl CompiledKernel {
    /// Batched execution with the default step limit; see
    /// [`CompiledKernel::run_batch_with_step_limit`].
    pub fn run_batch<S: Borrow<HashMap<String, i64>>>(
        &self,
        scalar_inputs: &[S],
        streams: &mut [StreamBundle],
    ) -> BatchOutcome {
        self.run_batch_with_step_limit(scalar_inputs, streams, DEFAULT_STEP_LIMIT)
    }

    /// Run one lane per bundle through a single decoded instruction
    /// stream (see the module docs for the execution model). Lane `l`
    /// reads `scalar_inputs[l]` and `streams[l]`, and
    /// `BatchOutcome::lanes[l]` is bit-identical to the interpreter on
    /// those inputs alone, and to the one-lane
    /// `self.run_with_step_limit(&scalar_inputs[l], &mut streams[l], limit)`.
    /// Each lane's scalar inputs are borrowed (`HashMap`s or references
    /// to them), so callers need not clone their argument maps.
    pub fn run_batch_with_step_limit<S: Borrow<HashMap<String, i64>>>(
        &self,
        scalar_inputs: &[S],
        streams: &mut [StreamBundle],
        limit: u64,
    ) -> BatchOutcome {
        assert_eq!(
            scalar_inputs.len(),
            streams.len(),
            "one scalar-input map per lane bundle"
        );
        match self.run_lockstep(scalar_inputs, streams, limit) {
            Ok(out) => out,
            // Nothing reached the bundles: run each lane alone.
            Err(attempt) => {
                let mut dispatches = attempt;
                let lanes = (0..streams.len())
                    .map(|l| {
                        let mut solo = self
                            .run_lockstep(&scalar_inputs[l..=l], &mut streams[l..=l], limit)
                            .expect("one lane always runs in lockstep");
                        dispatches += solo.dispatches;
                        solo.lanes.pop().expect("one lane, one outcome")
                    })
                    .collect();
                BatchOutcome { lanes, dispatches }
            }
        }
    }

    /// Run every lane in lockstep. `Err` with the dispatches spent, and
    /// nothing committed to `streams`, when the lanes would disagree, an
    /// op would trap in any of them, or a lane lacks a scalar input; a
    /// one-lane batch always returns `Ok`.
    fn run_lockstep<S: Borrow<HashMap<String, i64>>>(
        &self,
        scalar_inputs: &[S],
        streams: &mut [StreamBundle],
        limit: u64,
    ) -> Result<BatchOutcome, u64> {
        let k = streams.len();
        if k == 0 {
            return Ok(BatchOutcome {
                lanes: Vec::new(),
                dispatches: 0,
            });
        }

        let nr = self.lane_regs as usize;
        let np = self.stream_ins.len();
        let nq = self.stream_outs.len();
        let ops = self.lane_ops.len();
        let mut regs = vec![0i64; nr * k];
        // Broadcast the pooled immediates (every op reads its operands
        // from register rows; see `CompiledKernel::imm_seed`).
        for (i, v) in self.imm_seed.iter().enumerate() {
            let b = (self.num_regs as usize + i) * k;
            regs[b..b + k].fill(*v);
        }

        // Seed scalars per lane. A missing input fails the lane before
        // any bundle effect, exactly like the interpreter's early return;
        // the other lanes of a wider batch then run alone.
        for l in 0..k {
            for s in &self.scalar_seed {
                let v = if s.is_input {
                    match scalar_inputs[l].borrow().get(&s.name) {
                        Some(v) => *v,
                        None if k == 1 => {
                            return Ok(BatchOutcome {
                                lanes: vec![Err(ExecError::MissingScalarInput(s.name.clone()))],
                                dispatches: 0,
                            })
                        }
                        None => return Err(0),
                    }
                } else {
                    0
                };
                regs[s.reg as usize * k + l] = s.ty.wrap(v);
            }
        }

        // Resolve ports and snapshot inputs per lane (bundles may differ
        // in which ports they carry).
        let mut in_slots: Vec<Option<usize>> = vec![None; np * k];
        let TokenBufs {
            mut in_all,
            mut out_bufs,
            cols,
        } = TOKEN_BUFS.with(RefCell::take);
        in_all.clear();
        // Only ever grow the set: a narrower batch keeps a wider one's
        // buffers, and their capacity, for the next wide batch.
        if out_bufs.len() < nq * k {
            out_bufs.resize_with(nq * k, Vec::new);
        }
        out_bufs.iter_mut().for_each(Vec::clear);
        let mut in_start: Vec<usize> = vec![0usize; np * k];
        let mut in_end: Vec<usize> = vec![0usize; np * k];
        for (l, bundle) in streams.iter().enumerate() {
            for (p, port) in self.stream_ins.iter().enumerate() {
                if let Some(s) = bundle.input_index(port) {
                    let b = p * k + l;
                    in_slots[b] = Some(s);
                    // Skew each slot's start by a distinct number of
                    // cache lines: lanes advance through their regions
                    // in lockstep, and equal-sized snapshots packed
                    // back-to-back would put every lane's read position
                    // a power-of-two stride apart — all mapping to the
                    // same L1 set and evicting each other on every
                    // gather.
                    let skew = 8 * (b % 63 + 1) - in_all.len() % 8;
                    in_all.resize(in_all.len() + skew, 0);
                    in_start[b] = in_all.len();
                    bundle.input_snapshot_into(s, &mut in_all);
                    in_end[b] = in_all.len();
                }
            }
        }

        let mut vm = LaneVm {
            ck: self,
            k,
            limit,
            regs,
            arena: vec![0i64; self.arena_len as usize * k],
            cursors: in_start.clone(),
            in_all,
            in_start,
            in_end,
            out_bufs,
            counts: vec![0u64; ops],
            steps: 0,
            dynb: 0,
            lane_counts: vec![0u64; ops * k],
            lane_steps: vec![0u64; k],
            dispatches: 0,
            vals: vec![0i64; k],
            cols,
            cut: vec![0; k],
            guard_rows: Vec::new(),
        };
        let end = match vm.exec() {
            Ok(()) => Ok(()),
            Err(pc) if k == 1 => Err(vm.trap(pc)),
            Err(_) => return Err(vm.dispatches),
        };

        // Commit every lane's stream effects, on success and on trap
        // alike — the bundle state mirrors the interpreter's.
        for (l, bundle) in streams.iter_mut().enumerate() {
            for p in 0..np {
                if let Some(s) = in_slots[p * k + l] {
                    let b = p * k + l;
                    bundle.drain_input_at(s, vm.cursors[b] - vm.in_start[b]);
                }
            }
            for (q, port) in self.stream_outs.iter().enumerate() {
                let slot = bundle.ensure_output(port);
                bundle.extend_output_at(slot, &vm.out_bufs[q * k + l]);
            }
        }
        let lanes = match end {
            Err(e) => vec![Err(e)],
            Ok(()) => {
                let mut counts = vec![0u64; ops];
                (0..k)
                    .map(|l| {
                        let lane = &vm.lane_counts[l * ops..][..ops];
                        for ((c, &shared), &own) in counts.iter_mut().zip(&vm.counts).zip(lane) {
                            *c = shared + own;
                        }
                        let acc = self.replay(&counts, vm.dynb);
                        debug_assert_eq!(acc[STAT_STEPS], vm.steps + vm.lane_steps[l]);
                        Ok(self.outcome_for_lane(&vm.regs, k, l, &acc))
                    })
                    .collect()
            }
        };
        Ok(BatchOutcome {
            lanes,
            dispatches: vm.dispatches,
        })
    }

    fn outcome_for_lane(&self, regs: &[i64], k: usize, l: usize, acc: &[u64; 11]) -> ExecOutcome {
        let mut scalar_outputs = HashMap::new();
        for (name, reg) in &self.scalar_outs {
            scalar_outputs.insert(name.clone(), regs[*reg as usize * k + l]);
        }
        ExecOutcome {
            scalar_outputs,
            stats: stats_from(acc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::interp::Interpreter;
    use crate::ir::{Expr, Kernel};
    use crate::types::Ty;

    /// Every lane of a batch must match the interpreter on its inputs
    /// alone, and a one-lane run of them, exactly: result (incl. stats),
    /// error, and final bundle state (outputs and leftover inputs).
    fn assert_batch_equiv(
        k: &Kernel,
        per_lane_inputs: &[Vec<(&str, i64)>],
        per_lane_feeds: &[Vec<(&str, Vec<i64>)>],
        limit: u64,
    ) {
        let ck = CompiledKernel::compile(k);
        let lanes = per_lane_inputs.len();
        assert_eq!(lanes, per_lane_feeds.len());
        let inputs: Vec<HashMap<String, i64>> = per_lane_inputs
            .iter()
            .map(|ins| ins.iter().map(|(n, v)| (n.to_string(), *v)).collect())
            .collect();
        let bundle = |l: usize| {
            let mut b = StreamBundle::new();
            for (p, t) in &per_lane_feeds[l] {
                b.feed(p, t.iter().copied());
            }
            b
        };
        let mut batch_bundles: Vec<StreamBundle> = (0..lanes).map(bundle).collect();
        let out = ck.run_batch_with_step_limit(&inputs, &mut batch_bundles, limit);
        assert_eq!(out.lanes.len(), lanes);

        for l in 0..lanes {
            let mut interp = bundle(l);
            let interp_res = Interpreter::with_step_limit(k, limit).run(&inputs[l], &mut interp);
            let mut solo = bundle(l);
            let solo_res = ck.run_with_step_limit(&inputs[l], &mut solo, limit);
            for (tag, res, got) in [
                ("batch", &out.lanes[l], &batch_bundles[l]),
                ("one-lane", &solo_res, &solo),
            ] {
                match (res, &interp_res) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.scalar_outputs, b.scalar_outputs,
                            "{} {tag} lane {l}",
                            k.name
                        );
                        assert_eq!(a.stats, b.stats, "{} {tag} lane {l}", k.name);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{} {tag} lane {l}", k.name),
                    _ => panic!(
                        "{} {tag} lane {l}: {res:?} vs interp {interp_res:?}",
                        k.name
                    ),
                }
                let go: Vec<_> = got.outputs().collect();
                let io: Vec<_> = interp.outputs().collect();
                assert_eq!(go, io, "{} {tag} lane {l} bundle outputs", k.name);
                for (p, _) in &per_lane_feeds[l] {
                    assert_eq!(
                        got.input_queue(p),
                        interp.input_queue(p),
                        "{} {tag} lane {l} leftover on {p}",
                        k.name
                    );
                }
            }
        }
    }

    fn sum_kernel() -> Kernel {
        KernelBuilder::new("sum")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .scalar_out("acc", Ty::U32)
            .body(vec![
                assign("acc", c(0)),
                for_pipelined(
                    "i",
                    c(0),
                    var("n"),
                    vec![assign("acc", add(var("acc"), read("in")))],
                ),
            ])
            .build()
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let k = sum_kernel();
        let ins: Vec<Vec<(&str, i64)>> = (0..4).map(|_| vec![("n", 4)]).collect();
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = (0..4)
            .map(|l| vec![("in", vec![l, l + 1, l + 2, l + 3])])
            .collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn divergent_loop_bounds_match_scalar() {
        // Different per-lane trip counts send the lanes different ways at
        // a back-edge, so the batch runs each lane alone.
        let k = sum_kernel();
        let ins: Vec<Vec<(&str, i64)>> = vec![
            vec![("n", 1)],
            vec![("n", 5)],
            vec![("n", 3)],
            vec![("n", 0)],
        ];
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = (0..4)
            .map(|_| vec![("in", vec![10, 20, 30, 40, 50])])
            .collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn early_trap_does_not_stall_batch() {
        // Lane 1 underflows mid-loop; lanes 0 and 2 finish normally, each
        // run alone.
        let k = sum_kernel();
        let ins: Vec<Vec<(&str, i64)>> = (0..3).map(|_| vec![("n", 3)]).collect();
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = vec![
            vec![("in", vec![1, 2, 3])],
            vec![("in", vec![9])],
            vec![("in", vec![4, 5, 6])],
        ];
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn missing_scalar_input_retires_before_effects() {
        let k = sum_kernel();
        let ck = CompiledKernel::compile(&k);
        let inputs = vec![
            HashMap::new(), // missing "n"
            [("n".to_string(), 2i64)].into_iter().collect(),
        ];
        let mut bundles = vec![StreamBundle::new(), StreamBundle::new()];
        bundles[0].feed("in", [1, 2, 3]);
        bundles[1].feed("in", [1, 2, 3]);
        let out = ck.run_batch(&inputs, &mut bundles);
        match &out.lanes[0] {
            Err(e) => assert_eq!(*e, ExecError::MissingScalarInput("n".into())),
            Ok(_) => panic!("lane 0 must fail seeding"),
        }
        assert!(out.lanes[1].is_ok());
        // Seed-failed lane: no output entry was created, no input drained.
        assert_eq!(bundles[0].outputs().count(), 0);
        assert_eq!(bundles[0].input_snapshot_at(0).len(), 3);
    }

    #[test]
    fn if_else_divergence_reconverges() {
        // abs-like if/else over per-lane signs, inside a loop: lanes
        // take different sides, so they run alone and must still match.
        let k = KernelBuilder::new("absacc")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::I32)
            .scalar_out("acc", Ty::I32)
            .local("v", Ty::I32)
            .body(vec![
                assign("acc", c(0)),
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("in")),
                        if_else(
                            lt(var("v"), c(0)),
                            vec![assign("acc", sub(var("acc"), var("v")))],
                            vec![assign("acc", add(var("acc"), var("v")))],
                        ),
                    ],
                ),
            ])
            .build();
        let ins: Vec<Vec<(&str, i64)>> = (0..4).map(|_| vec![("n", 4)]).collect();
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = vec![
            vec![("in", vec![1, -2, 3, -4])],
            vec![("in", vec![-1, -2, -3, -4])],
            vec![("in", vec![5, 6, 7, 8])],
            vec![("in", vec![-9, 9, -9, 9])],
        ];
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn step_limit_trips_identically_per_lane() {
        let k = sum_kernel();
        // Lanes with different trip counts trip the limit at different
        // points; each must match its solo twin exactly.
        for limit in [1u64, 5, 9, 17, 33, 1000] {
            let ins: Vec<Vec<(&str, i64)>> = vec![vec![("n", 2)], vec![("n", 8)], vec![("n", 5)]];
            let feeds: Vec<Vec<(&str, Vec<i64>)>> = (0..3)
                .map(|_| vec![("in", vec![1, 1, 1, 1, 1, 1, 1, 1])])
                .collect();
            assert_batch_equiv(&k, &ins, &feeds, limit);
        }
    }

    #[test]
    fn inc_idx_retires_out_of_bounds_lane_mid_op() {
        // `bins[v] = bins[v] + 1` lowers to `IncIdx`. Lane 1's third
        // token indexes -1: it traps there with its earlier increments
        // and reads kept, and lane 0 runs to the end.
        let k = KernelBuilder::new("hist4")
            .scalar_in("n", Ty::U32)
            .stream_in("s", Ty::I8)
            .array("bins", Ty::U32, 4)
            .local("v", Ty::I8)
            .push(for_(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("s")),
                    store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                ],
            ))
            .build();
        let ins: Vec<Vec<(&str, i64)>> = vec![vec![("n", 4)], vec![("n", 4)]];
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = vec![
            vec![("s", vec![0, 1, 2, 3])],
            vec![("s", vec![0, 1, -1, 3])],
        ];
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn load_idx_write_retires_out_of_bounds_lane_mid_op() {
        // A random-kernel case: `write(sout0, arr0[in0 + 27 * loc0])`
        // lowers to `LoadIdxWrite`. Lane 0's `in0` wraps to -1 (out of
        // bounds), lane 1's to 0; lane 0 must trap before the op emits
        // its token.
        let k = KernelBuilder::new("prop")
            .scalar_in("in0", Ty::I8)
            .scalar_out("out0", Ty::unsigned(5))
            .scalar_out("out1", Ty::I32)
            .stream_in("sin0", Ty::I16)
            .stream_out("sout0", Ty::I8)
            .local("loc0", Ty::U8)
            .local("loc1", Ty::unsigned(5))
            .array("arr0", Ty::I8, 5)
            .body(vec![
                write("sout0", c(15)),
                for_(
                    "L0",
                    c(0),
                    c(5),
                    vec![write(
                        "sout0",
                        idx("arr0", add(var("in0"), mul(c(27), var("loc0")))),
                    )],
                ),
                for_("L1", c(0), c(0), vec![write("sout0", c(0))]),
                store(
                    "arr0",
                    var("out1"),
                    gt(
                        var("loc0"),
                        div(neg(c(i64::MAX)), select(c(i64::MAX), var("out1"), c(-7))),
                    ),
                ),
                assign("out0", var("loc1")),
                assign("out1", add(var("loc1"), rem(var("loc1"), var("out0")))),
            ])
            .build();
        let ins: Vec<Vec<(&str, i64)>> = vec![vec![("in0", i64::MAX)], vec![("in0", i64::MIN)]];
        let tokens = vec![-8, -1, 64, 10, 19, i64::MAX, -1, 9, -1, i64::MAX, 32];
        let feeds: Vec<Vec<(&str, Vec<i64>)>> =
            vec![vec![("sin0", tokens.clone())], vec![("sin0", tokens)]];
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    /// A column-safe loop with each kind of body op a chunk runs: a
    /// stream map into a `u8`, a `u8`-indexed scatter (`IncIdx`), an
    /// induction-indexed store, a running sum (a scan), and a two-port
    /// write; then an induction-indexed load loop over the scatter's
    /// bins.
    fn column_kernel() -> Kernel {
        KernelBuilder::new("columns")
            .scalar_in("n", Ty::U32)
            .stream_in("px", Ty::U16)
            .stream_out("a", Ty::U16)
            .stream_out("b", Ty::U32)
            .scalar_out("total", Ty::U32)
            .array("bins", Ty::U16, 256)
            .array("seen", Ty::U8, 4096)
            .local("v", Ty::U8)
            .body(vec![
                assign("total", c(0)),
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("px")),
                        store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                        store("seen", var("i"), sub(var("v"), var("i"))),
                        assign("total", add(var("total"), mul(var("v"), var("i")))),
                        write("a", mul(var("v"), c(3))),
                        write("b", bxor(var("v"), var("total"))),
                    ],
                ),
                for_("j", c(0), c(256), vec![write("a", idx("bins", var("j")))]),
            ])
            .build()
    }

    fn column_feed(n: usize) -> Vec<(&'static str, Vec<i64>)> {
        vec![("px", (0..n as i64).map(|t| (t * 37 + 11) % 1000).collect())]
    }

    #[test]
    fn column_loops_are_found() {
        let ck = CompiledKernel::compile(&column_kernel());
        assert_eq!(ck.col_loops.len(), 2, "{}", ck.disasm());
    }

    #[test]
    fn column_lanes_with_different_trip_counts_match_solo_runs() {
        // Trip counts below, at and past one chunk, and past two: the
        // lanes leave the loop in different chunks, so the batch runs
        // each lane alone.
        let k = column_kernel();
        let trips = [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 88];
        let ins: Vec<Vec<(&str, i64)>> = trips.iter().map(|&n| vec![("n", n as i64)]).collect();
        let feeds: Vec<_> = trips.iter().map(|&n| column_feed(n)).collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
        // Equal trip counts keep the lanes in lockstep.
        let ins: Vec<Vec<(&str, i64)>> = (0..4).map(|_| vec![("n", 600)]).collect();
        let feeds: Vec<_> = (0..4).map(|_| column_feed(600)).collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn column_step_limit_trips_at_the_interpreters_op() {
        // Limits inside the first chunk, at its edges and inside later
        // ones: no chunk may run past the limit, and the iteration that
        // reaches it runs op at a time, so the trap point and the tokens
        // written before it are the interpreter's.
        let k = column_kernel();
        let ck = CompiledKernel::compile(&k);
        let per_iter = ck.col_loops[0].iter_steps;
        let chunk = CHUNK as u64 * per_iter;
        for limit in [
            20,
            500,
            chunk - 1,
            chunk + 3,
            chunk + per_iter + 1,
            2 * chunk + 77,
        ] {
            for lanes in [1, 4] {
                let ins: Vec<Vec<(&str, i64)>> = (0..lanes).map(|l| vec![("n", 600 + l)]).collect();
                let feeds: Vec<_> = (0..lanes).map(|l| column_feed(600 + l as usize)).collect();
                assert_batch_equiv(&k, &ins, &feeds, limit);
            }
        }
        // A lane one token short underflows where the interpreter does.
        let ins: Vec<Vec<(&str, i64)>> = vec![vec![("n", 300)], vec![("n", 300)]];
        let feeds = vec![column_feed(300), column_feed(299)];
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn column_loops_cost_dispatches_per_chunk() {
        // A silent fall-back to op-at-a-time execution costs about seven
        // dispatches per iteration; a chunk costs one per op per CHUNK
        // iterations, at every width.
        let k = column_kernel();
        let ck = CompiledKernel::compile(&k);
        let n = 16 * CHUNK;
        let run = |lanes: usize| {
            let inputs: Vec<HashMap<String, i64>> = (0..lanes)
                .map(|_| [("n".to_string(), n as i64)].into_iter().collect())
                .collect();
            let mut bundles: Vec<StreamBundle> = (0..lanes)
                .map(|_| {
                    let mut b = StreamBundle::new();
                    b.feed("px", column_feed(n)[0].1.iter().copied());
                    b
                })
                .collect();
            let out = ck.run_batch(&inputs, &mut bundles);
            assert!(out.lanes.iter().all(Result::is_ok));
            out.dispatches
        };
        let (d1, d4) = (run(1), run(4));
        assert_eq!(d1, d4, "lanes in lockstep share every chunk's dispatches");
        let span = |cl: &ColLoop| (cl.back - cl.body + 1) as u64;
        let chunks = (n / CHUNK) as u64 * span(&ck.col_loops[0]) + span(&ck.col_loops[1]);
        assert!(
            d1 <= chunks + 16,
            "{d1} dispatches for {chunks} chunked ops"
        );
    }

    /// A column loop with a guarded block: behind `v > lim`, a guarded
    /// write, a division whose divisor `v - lim` is zero only on rows
    /// the guard skips, and a nested conditional argmax (`best`, `at`).
    fn guarded_kernel() -> Kernel {
        KernelBuilder::new("guarded")
            .scalar_in("n", Ty::U32)
            .scalar_in("lim", Ty::I32)
            .stream_in("px", Ty::U16)
            .stream_out("o", Ty::U16)
            .scalar_out("best", Ty::U32)
            .scalar_out("at", Ty::U32)
            .scalar_out("q", Ty::U32)
            .local("v", Ty::U16)
            .body(vec![
                assign("best", c(0)),
                assign("at", c(0)),
                assign("q", c(0)),
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("px")),
                        if_(
                            gt(var("v"), var("lim")),
                            vec![
                                write("o", var("v")),
                                assign("q", div(c(100_000), sub(var("v"), var("lim")))),
                                if_(
                                    gt(var("v"), var("best")),
                                    vec![assign("best", var("v")), assign("at", var("i"))],
                                ),
                            ],
                        ),
                    ],
                ),
            ])
            .build()
    }

    /// Run `guarded_kernel` on 4 lanes of `n` tokens each, lane `l` with
    /// threshold `lims[l]`, against the interpreter and solo runs; the
    /// loop must run in chunks.
    fn check_guarded(lims: [i64; 4], n: usize) {
        let k = guarded_kernel();
        let ck = CompiledKernel::compile(&k);
        assert_eq!(ck.col_loops.len(), 1, "{}", ck.disasm());
        let ins: Vec<Vec<(&str, i64)>> = lims
            .iter()
            .map(|&lim| vec![("n", n as i64), ("lim", lim)])
            .collect();
        let feeds: Vec<_> = (0..4)
            .map(|l| {
                vec![(
                    "px",
                    (0..n as i64).map(|t| (t * 37 + 11 * l) % 1000).collect(),
                )]
            })
            .collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
        let inputs: Vec<HashMap<String, i64>> = ins
            .iter()
            .map(|i| i.iter().map(|(k, v)| (k.to_string(), *v)).collect())
            .collect();
        let mut bundles: Vec<StreamBundle> = feeds
            .iter()
            .map(|f| {
                let mut b = StreamBundle::new();
                b.feed("px", f[0].1.iter().copied());
                b
            })
            .collect();
        let out = ck.run_batch(&inputs, &mut bundles);
        let span = (ck.col_loops[0].back - ck.col_loops[0].body + 1) as u64;
        assert!(
            out.dispatches <= span * n.div_ceil(CHUNK) as u64 + 16,
            "{} dispatches",
            out.dispatches
        );
    }

    #[test]
    fn guard_false_on_every_row_runs_nothing_inside() {
        check_guarded([5000; 4], CHUNK + 44);
    }

    #[test]
    fn guard_true_on_every_row_runs_everything_inside() {
        check_guarded([-1; 4], CHUNK + 44);
    }

    #[test]
    fn guard_mixed_across_lanes_goes_per_lane() {
        // Lanes hold the guard on different rows, so their counts differ
        // and each chunk tallies them per lane, in lockstep; one lane's
        // guard never holds and another's always does.
        check_guarded([500, -1, 5000, 900], 2 * CHUNK + 10);
        check_guarded([0, 999, 998, 500], 7);
    }

    #[test]
    fn guarded_division_traps_at_the_interpreters_row() {
        // `v - lim` is zero on the rows where `v == lim`; with the guard
        // `v >= lim` those rows run the division and trap, at different
        // rows per lane, after each lane's earlier rows are committed:
        // each lane runs alone.
        let k = KernelBuilder::new("trap")
            .scalar_in("n", Ty::U32)
            .scalar_in("lim", Ty::I32)
            .stream_in("px", Ty::U16)
            .stream_out("o", Ty::U16)
            .scalar_out("q", Ty::U32)
            .local("v", Ty::U16)
            .body(vec![
                assign("q", c(0)),
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![
                        assign("v", read("px")),
                        write("o", var("v")),
                        if_(
                            ge(var("v"), var("lim")),
                            vec![assign(
                                "q",
                                add(var("q"), div(c(1000), sub(var("v"), var("lim")))),
                            )],
                        ),
                    ],
                ),
            ])
            .build();
        let n = 2 * CHUNK + 5;
        let ins: Vec<Vec<(&str, i64)>> = [600, 2000, 7, 123]
            .iter()
            .map(|&lim| vec![("n", n as i64), ("lim", lim)])
            .collect();
        let feeds: Vec<_> = (0..4)
            .map(|l| vec![("px", (0..n as i64).map(|t| (t * 7 + l) % 1000).collect())])
            .collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
    }

    #[test]
    fn delta_filters_are_no_conditional_updates() {
        // `prev` is read before its unguarded writer, and the value read
        // from it feeds one single-operand op: a delay line, not an
        // `if x > m { m = x }` update. Each must match the interpreter
        // at widths 1 and 4.
        let ops: [fn(Expr) -> Expr; 4] = [
            neg,
            |d| shr(d, c(1)),
            |d| div(d, c(4)),
            |d| band(d, c(0xff)),
        ];
        for (o, op) in ops.into_iter().enumerate() {
            let k = KernelBuilder::new("delta")
                .scalar_in("n", Ty::U32)
                .stream_in("px", Ty::U16)
                .stream_out("o", Ty::I32)
                .scalar_out("prev", Ty::I32)
                .local("x", Ty::I32)
                .body(vec![
                    assign("prev", c(0)),
                    for_(
                        "i",
                        c(0),
                        var("n"),
                        vec![
                            assign("x", read("px")),
                            write("o", op(sub(var("x"), var("prev")))),
                            assign("prev", var("x")),
                        ],
                    ),
                ])
                .build();
            for (lanes, n) in [(1, CHUNK + 9), (4, 2 * CHUNK + 3)] {
                let ins: Vec<Vec<(&str, i64)>> =
                    (0..lanes).map(|_| vec![("n", n as i64)]).collect();
                let feeds: Vec<_> = (0..lanes)
                    .map(|l| {
                        vec![(
                            "px",
                            (0..n as i64)
                                .map(|t| (t * t * 13 + 7 * l + o as i64) % 1000)
                                .collect(),
                        )]
                    })
                    .collect();
                assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
            }
        }
    }

    #[test]
    fn dispatches_amortize_across_lanes() {
        let k = sum_kernel();
        let ck = CompiledKernel::compile(&k);
        let mk = |lanes: usize| {
            let inputs: Vec<HashMap<String, i64>> = (0..lanes)
                .map(|_| [("n".to_string(), 64i64)].into_iter().collect())
                .collect();
            let mut bundles: Vec<StreamBundle> = (0..lanes)
                .map(|_| {
                    let mut b = StreamBundle::new();
                    b.feed("in", (0..64).map(|v| v & 0xff));
                    b
                })
                .collect();
            ck.run_batch(&inputs, &mut bundles).dispatches
        };
        let d1 = mk(1);
        let d8 = mk(8);
        // Identical control flow: 8 lanes cost the same dispatches as 1.
        assert_eq!(d1, d8, "lanes in lockstep must share dispatches");
    }

    /// Run `ins`/`feeds` as one batch.
    fn run_lanes(
        ck: &CompiledKernel,
        ins: &[Vec<(&str, i64)>],
        feeds: &[Vec<(&str, Vec<i64>)>],
    ) -> BatchOutcome {
        let inputs: Vec<HashMap<String, i64>> = ins
            .iter()
            .map(|i| i.iter().map(|(n, v)| (n.to_string(), *v)).collect())
            .collect();
        let mut bundles: Vec<StreamBundle> = feeds
            .iter()
            .map(|f| {
                let mut b = StreamBundle::new();
                for (p, t) in f {
                    b.feed(p, t.iter().copied());
                }
                b
            })
            .collect();
        ck.run_batch(&inputs, &mut bundles)
    }

    #[test]
    fn host_work_with_and_without_a_restart() {
        // Lanes whose guarded blocks run on different rows stay in
        // lockstep: the batch costs what one lane alone costs.
        let ck = CompiledKernel::compile(&guarded_kernel());
        let n = 2 * CHUNK + 10;
        let ins: Vec<Vec<(&str, i64)>> = [500, -1, 5000, 900]
            .iter()
            .map(|&lim| vec![("n", n as i64), ("lim", lim)])
            .collect();
        let feeds: Vec<_> = (0..4)
            .map(|l| {
                vec![(
                    "px",
                    (0..n as i64).map(|t| (t * 37 + 11 * l) % 1000).collect(),
                )]
            })
            .collect();
        let batch = run_lanes(&ck, &ins, &feeds);
        assert!(batch.lanes.iter().all(Result::is_ok));
        for l in 0..4 {
            let solo = run_lanes(&ck, &ins[l..=l], &feeds[l..=l]);
            assert_eq!(batch.dispatches, solo.dispatches, "lane {l}");
        }

        // Lanes whose trip counts differ leave the column loop in
        // different chunks: the batch abandons its attempt, returns each
        // lane's own run, and counts the attempt's dispatches too.
        let ck = CompiledKernel::compile(&column_kernel());
        let trips = [300, 40, CHUNK, 2 * CHUNK + 1];
        let ins: Vec<Vec<(&str, i64)>> = trips.iter().map(|&n| vec![("n", n as i64)]).collect();
        let feeds: Vec<_> = trips.iter().map(|&n| column_feed(n)).collect();
        let batch = run_lanes(&ck, &ins, &feeds);
        let mut alone = 0;
        for l in 0..4 {
            let solo = run_lanes(&ck, &ins[l..=l], &feeds[l..=l]);
            let (a, b) = (&batch.lanes[l], &solo.lanes[0]);
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!((&a.scalar_outputs, a.stats), (&b.scalar_outputs, b.stats));
            alone += solo.dispatches;
        }
        assert!(
            batch.dispatches > alone,
            "{} dispatches, {alone} alone",
            batch.dispatches
        );
    }

    #[test]
    fn staged_ops_trap_where_the_interpreter_does() {
        // Two writes fuse into `WriteStream2`, which pushes its first
        // port before its staged step tick, and `bins[v] += 1` into
        // `IncIdx`, whose out-of-range index beats that tick. The runs
        // take 75 steps, or trap at step 61 on index -1; every step limit
        // up to 80 puts the trap somewhere else, among them on each
        // staged tick, with the index -1 or in range.
        let k = KernelBuilder::new("staged")
            .scalar_in("n", Ty::U32)
            .stream_in("s", Ty::I8)
            .stream_out("a", Ty::I8)
            .stream_out("b", Ty::I8)
            .array("bins", Ty::U32, 4)
            .local("v", Ty::I8)
            .push(for_(
                "i",
                c(0),
                var("n"),
                vec![
                    assign("v", read("s")),
                    write("a", var("v")),
                    write("b", var("v")),
                    store("bins", var("v"), add(idx("bins", var("v")), c(1))),
                ],
            ))
            .build();
        let listing = CompiledKernel::compile(&k).disasm();
        assert!(
            listing.contains("WriteStream2") && listing.contains("IncIdx"),
            "{listing}"
        );
        let ins: Vec<Vec<(&str, i64)>> = vec![vec![("n", 6)], vec![("n", 6)]];
        let feeds: Vec<Vec<(&str, Vec<i64>)>> = vec![
            vec![("s", vec![0, 1, 2, 3, -1, 2])],
            vec![("s", vec![3, 2, 1, 0, 1, 2])],
        ];
        for limit in 1..=80 {
            assert_batch_equiv(&k, &ins[..1], &feeds[..1], limit);
            assert_batch_equiv(&k, &ins, &feeds, limit);
        }
    }

    #[test]
    fn batches_past_u16_lane_ids_run() {
        // More lanes than a `u16` numbers: each lane must still be its own.
        let k = KernelBuilder::new("inc")
            .scalar_in("a", Ty::I32)
            .scalar_out("o", Ty::I32)
            .push(assign("o", add(var("a"), c(1))))
            .build();
        let ck = CompiledKernel::compile(&k);
        let lanes = u16::MAX as usize + 2;
        let inputs: Vec<HashMap<String, i64>> = (0..lanes)
            .map(|l| [("a".to_string(), l as i64)].into_iter().collect())
            .collect();
        let mut bundles: Vec<StreamBundle> = (0..lanes).map(|_| StreamBundle::new()).collect();
        let out = ck.run_batch(&inputs, &mut bundles);
        assert_eq!(out.lanes.len(), lanes);
        for (l, res) in out.lanes.iter().enumerate() {
            assert_eq!(res.as_ref().unwrap().scalar_outputs["o"], l as i64 + 1);
        }
    }
}
