//! Batch-lane (SIMD-style) execution of [`CompiledKernel`] bytecode.
//!
//! [`CompiledKernel::run_batch`] runs K independent invocations ("lanes")
//! of one kernel through a single decoded instruction stream. Registers
//! and the array arena are structure-of-arrays (`regs[r * K + l]`), so
//! one dispatch — opcode decode, operand resolution, stat bookkeeping —
//! is amortized over all lanes, and the per-lane inner loops are
//! contiguous and branch-free for the infallible ops. Each lane keeps
//! its own stream snapshot, cursor and output buffers, so lanes may
//! consume different numbers of tokens and trap independently.
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
//! # Lockstep, retirement and divergence
//!
//! While every live lane agrees on control flow the VM runs in **shared
//! accounting** mode: all lanes have executed the identical op sequence
//! since pc 0, so one `counts[pc]`/`steps` tally serves the whole group.
//! A lane that traps (out-of-bounds, underflow, divide-by-zero, shift
//! range, step limit) *retires*: it is removed from the active set with
//! its typed error and its committed effects so far; the rest of the
//! batch keeps running without it.
//!
//! When live lanes disagree at a control op the group **splits** and the
//! VM switches to per-lane accounting (counts/steps/branches per lane —
//! lanes are about to execute different op sequences). Splits follow the
//! classic SIMT reconvergence discipline: the fall-through subgroup
//! keeps executing while the other side is parked on a reconvergence
//! stack together with the structured rejoin point (the branch target
//! for a plain `if`/loop exit, the then-side `Jump` target for an
//! `if/else`). A subgroup that reaches the rejoin pc swaps in the
//! pending side, and groups merge back into one active set when both
//! arrive — so data-dependent `if`s inside hot loops cost two masked
//! passes per iteration instead of serializing the whole batch. If
//! control flow ever fails to line up with the structured guess, parked
//! groups simply run to completion sequentially — reconvergence is an
//! optimization, never a correctness requirement.
//!
//! # Column loops
//!
//! A counted loop the compiler found column-safe (a `ColLoop`) runs a
//! *chunk* of up to `CHUNK` (256) iterations per op dispatch instead of
//! one: at the loop's body start each body op runs once, as a tight loop
//! over the rows of every lane in the group (one row per iteration, each
//! lane to its own trip count), and the chunk commits cursors, outputs,
//! the arena, the body's registers from their last rows, `counts[pc] +=
//! rows` for every pc of the loop, the back-edge tallies and `steps`.
//! A chunk starts only when nothing in it can trap — enough tokens on
//! every port the body reads, every index provably in range, the whole
//! step debit under the limit, no wrapping back-edge — and otherwise
//! that iteration runs op at a time, so every counter, trap point,
//! partial effect and `StepLimit` stays the interpreter's. Lanes whose
//! trip counts end in different chunks go on under per-lane accounting,
//! as at a divergent back-edge. One dispatch is counted per op of the
//! loop per chunk, across all lanes, so `dispatches` keeps measuring
//! host decode work.

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
/// batch cost. Converged lanes share every dispatch, so while they stay
/// converged a K-lane batch costs the dispatches of one lane alone —
/// the amortization the batch reports surface — and a column loop
/// costs one dispatch per op per chunk of iterations.
#[derive(Debug)]
pub struct BatchOutcome {
    pub lanes: Vec<Result<ExecOutcome, ExecError>>,
    pub dispatches: u64,
}

/// One lane's terminal state inside the machine.
#[derive(Clone)]
enum LaneState {
    Running,
    /// Failed before execution started (missing scalar input): no
    /// bundle effects at all, matching the interpreter's early return.
    SeedErr(ExecError),
    /// Trapped mid-execution: committed effects up to the trap.
    Trapped(ExecError),
    /// Reached the end under shared accounting.
    DoneShared,
    /// Reached the end under per-lane accounting.
    DonePerLane,
}

/// Per-lane accounting, allocated lazily at the first divergence.
/// `counts` is op-major (`[pc * K + l]`) to keep the per-dispatch lane
/// loop contiguous.
struct PerLane {
    counts: Vec<u64>,
    steps: Vec<u64>,
    dynb: Vec<u64>,
}

/// A reconvergence-stack entry. `parked` lanes wait *at* `rejoin`;
/// `pending` lanes (the not-yet-run side of an `if/else`) wait at their
/// own entry pc and run once the active group reaches `rejoin`.
struct Entry {
    rejoin: usize,
    pending: Option<(Vec<u16>, usize)>,
    parked: Vec<u16>,
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
    // Shared accounting (valid while `pl` is None).
    sh_counts: Vec<u64>,
    sh_steps: u64,
    sh_dyn: u64,
    pl: Option<PerLane>,
    dispatches: u64,
    done: Vec<LaneState>,
    stack: Vec<Entry>,
    /// Per-position condition scratch for control-op partitioning.
    cond: Vec<bool>,
    /// Per-lane value scratch for staged load+write ops.
    vals: Vec<i64>,
    /// Column-loop rows: column `c` of the group's `j`-th lane is
    /// `cols[(c * n + j) * CHUNK..][..rows[j]]` for a group of `n`.
    cols: Vec<i64>,
    /// Per-position iterations of the current chunk.
    rows: Vec<usize>,
    /// Per-position first row of the chunk on which a checked op fails.
    cut: Vec<usize>,
    /// Per-position rows each guarded block of the chunk ran.
    guard_rows: Vec<u64>,
}

#[inline(always)]
fn lsrc(regs: &[i64], k: usize, l: usize, s: Src) -> i64 {
    match s {
        Src::Reg(r) => regs[r as usize * k + l],
        Src::Imm(_) => unreachable!("pooled ops carry no immediates"),
    }
}

/// Merge two ascending lane lists into one.
fn merge_sorted(a: Vec<u16>, b: Vec<u16>) -> Vec<u16> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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

/// Where a chunk's columns live in `LaneVm::cols` for a group of `n`
/// lanes: a shared column (a pooled immediate) once, every other column
/// once per lane.
#[derive(Clone, Copy)]
struct ColGeometry {
    shared: usize,
    n: usize,
}

impl ColGeometry {
    fn new(cl: &ColLoop, n: usize) -> ColGeometry {
        ColGeometry {
            shared: cl.shared as usize,
            n,
        }
    }

    /// Offset of column `c`'s rows for the group's `j`-th lane.
    #[inline(always)]
    fn at(self, c: u16, j: usize) -> usize {
        match c as usize {
            c if c < self.shared => c * CHUNK,
            c => (self.shared + (c - self.shared) * self.n + j) * CHUNK,
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
    /// Retire `lanes[i]` with `err`; removes it from the active list.
    #[inline]
    fn retire(&mut self, lanes: &mut Vec<u16>, i: usize, err: ExecError) {
        let l = lanes.remove(i) as usize;
        self.done[l] = LaneState::Trapped(err);
    }

    /// Tick the data-dependent branch counter for every lane in the
    /// group (uniform taken back-edge / loop entry).
    fn tick_dyn(&mut self, lanes: &[u16]) {
        match &mut self.pl {
            Some(pl) => {
                for &l in lanes {
                    pl.dynb[l as usize] += 1;
                }
            }
            None => self.sh_dyn += 1,
        }
    }

    /// Staged mid-op step tick (the `s2` share of fused ops), checked
    /// against the limit where the interpreter ticks, so the
    /// `OutOfBounds`-vs-`StepLimit` priority is preserved. Returns false
    /// when every lane in the group retired.
    fn tick_s2(&mut self, s2: u32, lanes: &mut Vec<u16>) -> bool {
        let d = s2 as u64;
        if d == 0 {
            // steps unchanged; the top-of-op check already passed.
            return !lanes.is_empty();
        }
        match &mut self.pl {
            Some(pl) => {
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    pl.steps[l] += d;
                    if pl.steps[l] > self.limit {
                        self.done[l] = LaneState::Trapped(ExecError::StepLimit(self.limit));
                        lanes.remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            None => {
                self.sh_steps += d;
                if self.sh_steps > self.limit {
                    for &l in lanes.iter() {
                        self.done[l as usize] =
                            LaneState::Trapped(ExecError::StepLimit(self.limit));
                    }
                    lanes.clear();
                }
            }
        }
        !lanes.is_empty()
    }

    /// Switch from shared to per-lane accounting. Called at the first
    /// divergence, when `lanes` is the only group in flight (the stack
    /// is empty in shared mode), so broadcasting the shared tallies to
    /// exactly these lanes covers every lane that can still finish.
    fn ensure_per_lane(&mut self, lanes: &[u16]) {
        if self.pl.is_some() {
            return;
        }
        debug_assert!(self.stack.is_empty());
        let n = self.ck.lane_ops.len();
        let k = self.k;
        let mut pl = PerLane {
            counts: vec![0u64; n * k],
            steps: vec![0u64; k],
            dynb: vec![0u64; k],
        };
        for &l in lanes {
            let l = l as usize;
            for (i, c) in self.sh_counts.iter().enumerate() {
                pl.counts[i * k + l] = *c;
            }
            pl.steps[l] = self.sh_steps;
            pl.dynb[l] = self.sh_dyn;
        }
        self.pl = Some(pl);
    }

    /// The structured reconvergence point for a mixed `BranchIfZero`
    /// with the given target. The compiler emits `Jump` in exactly one
    /// place — between the then and else blocks of an `if/else` — so a
    /// forward `Jump` immediately before the branch target identifies
    /// the else-start form and its target is the join; otherwise the
    /// target itself (plain `if`) is the join.
    fn reconv(&self, target: u32) -> usize {
        let t = target as usize;
        if t >= 1 {
            if let Some(Op::Jump { target: j }) = self.ck.lane_ops.get(t - 1) {
                if *j as usize >= t {
                    return *j as usize;
                }
            }
        }
        t
    }

    /// Split the active group at a mixed control op: `stay` keeps
    /// executing from `stay_pc`; `park`ed lanes wait at `rejoin` (loop
    /// splits) or run later from `pending_pc` (if/else splits).
    fn split(
        &mut self,
        lanes: &mut Vec<u16>,
        stay: Vec<u16>,
        rejoin: usize,
        pending: Option<(Vec<u16>, usize)>,
        parked: Vec<u16>,
    ) {
        self.stack.push(Entry {
            rejoin,
            pending,
            parked,
        });
        *lanes = stay;
    }

    /// Execute one op for the active group. Returns the next pc; when
    /// the group emptied mid-op the return value is ignored by the
    /// machine loop.
    fn step(&mut self, pc: usize, lanes: &mut Vec<u16>) -> usize {
        let ck = self.ck;
        let k = self.k;
        self.dispatches += 1;

        // Top-of-op accounting + StepLimit check.
        let d = ck.steps[pc] as u64;
        match &mut self.pl {
            Some(pl) => {
                let base = pc * k;
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    pl.counts[base + l] += 1;
                    pl.steps[l] += d;
                    if pl.steps[l] > self.limit {
                        self.done[l] = LaneState::Trapped(ExecError::StepLimit(self.limit));
                        lanes.remove(i);
                    } else {
                        i += 1;
                    }
                }
                if lanes.is_empty() {
                    return pc;
                }
            }
            None => {
                self.sh_counts[pc] += 1;
                self.sh_steps += d;
                if self.sh_steps > self.limit {
                    for &l in lanes.iter() {
                        self.done[l as usize] =
                            LaneState::Trapped(ExecError::StepLimit(self.limit));
                    }
                    lanes.clear();
                    return pc;
                }
            }
        }

        // While every lane is still live (`lanes` is exactly `[0..k)` —
        // it is always a strictly ascending subset, so length alone
        // decides), per-lane loops run over the dense `0..k` range: the
        // SoA rows become contiguous, countable loops the compiler can
        // unroll and vectorize, instead of gathers through the lane
        // list. The test runs at every loop, not once per op: the
        // staged ops (`IncIdx`, `WriteStream2`, `LoadIdxWrite`) can drop
        // lanes between their phases.
        macro_rules! each {
            (|$l:ident| $body:expr) => {
                if lanes.len() == k {
                    for $l in 0..k {
                        $body
                    }
                } else {
                    for &lw in lanes.iter() {
                        let $l = lw as usize;
                        $body
                    }
                }
            };
        }

        match &ck.lane_ops[pc] {
            Op::Bin { op, dst, w, a, b } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    let bv = lsrc(&self.regs, k, l, *b);
                    self.regs[db + l] = wrap(*w, bin_infallible(*op, av, bv));
                });
            }
            Op::BinChecked { op, dst, w, a, b } => {
                let db = *dst as usize * k;
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    let av = lsrc(&self.regs, k, l, *a);
                    let bv = lsrc(&self.regs, k, l, *b);
                    match bin_checked(*op, av, bv) {
                        Ok(v) => {
                            self.regs[db + l] = wrap(*w, v);
                            i += 1;
                        }
                        Err(e) => self.retire(lanes, i, e),
                    }
                }
            }
            Op::Un { op, dst, w, a } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, un_op(*op, av));
                });
            }
            Op::Select { dst, w, c, a, b } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let cv = lsrc(&self.regs, k, l, *c);
                    let av = lsrc(&self.regs, k, l, *a);
                    let bv = lsrc(&self.regs, k, l, *b);
                    self.regs[db + l] = wrap(*w, if cv != 0 { av } else { bv });
                });
            }
            Op::LoadIdx { dst, w, arr, idx } => {
                let info = &ck.arrays[*arr as usize];
                let (base, len) = (info.base as usize, info.len);
                let db = *dst as usize * k;
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    let iv = lsrc(&self.regs, k, l, *idx);
                    if iv < 0 || iv as u64 >= len as u64 {
                        let e = ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: iv,
                            len,
                        };
                        self.retire(lanes, i, e);
                    } else {
                        self.regs[db + l] = wrap(*w, self.arena[(base + iv as usize) * k + l]);
                        i += 1;
                    }
                }
            }
            Op::StoreIdx { arr, idx, src: v } => {
                let info = &ck.arrays[*arr as usize];
                let (base, len, ty) = (info.base as usize, info.len, info.ty);
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    let vv = lsrc(&self.regs, k, l, *v);
                    let iv = lsrc(&self.regs, k, l, *idx);
                    if iv < 0 || iv as u64 >= len as u64 {
                        let e = ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: iv,
                            len,
                        };
                        self.retire(lanes, i, e);
                    } else {
                        self.arena[(base + iv as usize) * k + l] = wrap(ty, vv);
                        i += 1;
                    }
                }
            }
            Op::StoreVar { dst, ty, src: v } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let vv = lsrc(&self.regs, k, l, *v);
                    self.regs[db + l] = wrap(*ty, vv);
                });
            }
            Op::ReadStream { dst, w, port } => {
                self.read_stream(lanes, *dst, *w, *port);
            }
            Op::WriteStream { port, src: v } => {
                let qb = *port as usize * k;
                each!(|l| {
                    let vv = lsrc(&self.regs, k, l, *v);
                    self.out_bufs[qb + l].push(vv);
                });
            }
            Op::LoopInit {
                var,
                ty,
                lo,
                hi_copy,
            } => {
                let vb = *var as usize * k;
                each!(|l| {
                    let lv = lsrc(&self.regs, k, l, *lo);
                    if let Some((hr, hs)) = hi_copy {
                        let hv = lsrc(&self.regs, k, l, *hs);
                        self.regs[*hr as usize * k + l] = hv;
                    }
                    self.regs[vb + l] = wrap(*ty, lv);
                });
            }
            Op::LoopHead { var, hi, exit } => {
                let vb = *var as usize * k;
                let (mut all_t, mut all_f) = (true, true);
                for (i, &lw) in lanes.iter().enumerate() {
                    let l = lw as usize;
                    let t = self.regs[vb + l] < lsrc(&self.regs, k, l, *hi);
                    self.cond[i] = t;
                    if t {
                        all_f = false;
                    } else {
                        all_t = false;
                    }
                }
                if all_t {
                    self.tick_dyn(lanes);
                    return pc + 1;
                }
                if all_f {
                    return *exit as usize;
                }
                self.ensure_per_lane(lanes);
                let (taken, exited) = self.partition(lanes);
                if let Some(pl) = &mut self.pl {
                    for &l in &taken {
                        pl.dynb[l as usize] += 1;
                    }
                }
                self.split(lanes, taken, *exit as usize, None, exited);
                return pc + 1;
            }
            Op::LoopBack { var, ty, hi, body } => {
                let vb = *var as usize * k;
                let (mut all_t, mut all_f) = (true, true);
                for (i, &lw) in lanes.iter().enumerate() {
                    let l = lw as usize;
                    let nv = wrap(*ty, self.regs[vb + l].wrapping_add(1));
                    self.regs[vb + l] = nv;
                    let t = nv < lsrc(&self.regs, k, l, *hi);
                    self.cond[i] = t;
                    if t {
                        all_f = false;
                    } else {
                        all_t = false;
                    }
                }
                if all_t {
                    self.tick_dyn(lanes);
                    return *body as usize;
                }
                if all_f {
                    return pc + 1;
                }
                self.ensure_per_lane(lanes);
                let (taken, exited) = self.partition(lanes);
                if let Some(pl) = &mut self.pl {
                    for &l in &taken {
                        pl.dynb[l as usize] += 1;
                    }
                }
                self.split(lanes, taken, pc + 1, None, exited);
                return *body as usize;
            }
            Op::BranchIfZero { cond, target } => {
                if *target as usize == pc + 1 {
                    // Degenerate empty-then branch: both sides fall
                    // through, nothing to split.
                    return pc + 1;
                }
                let (mut all_t, mut all_f) = (true, true);
                for (i, &lw) in lanes.iter().enumerate() {
                    let l = lw as usize;
                    // "taken" here means the fall-through (non-zero) side.
                    let t = lsrc(&self.regs, k, l, *cond) != 0;
                    self.cond[i] = t;
                    if t {
                        all_f = false;
                    } else {
                        all_t = false;
                    }
                }
                if all_t {
                    return pc + 1;
                }
                if all_f {
                    return *target as usize;
                }
                self.ensure_per_lane(lanes);
                let (nonzero, zero) = self.partition(lanes);
                let rejoin = self.reconv(*target);
                self.split(
                    lanes,
                    nonzero,
                    rejoin,
                    Some((zero, *target as usize)),
                    Vec::new(),
                );
                return pc + 1;
            }
            Op::Jump { target } => {
                return *target as usize;
            }
            Op::ShlPow2 { dst, w, a, k: sh } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, av.wrapping_shl(*sh as u32));
                });
            }
            Op::ShrImm { dst, w, a, k: sh } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, av.wrapping_shr(*sh as u32));
                });
            }
            Op::DivPow2 { dst, w, a, k: sh } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, div_pow2(av, *sh));
                });
            }
            Op::ModPow2 { dst, w, a, k: sh } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, mod_pow2(av, *sh));
                });
            }
            Op::ShrAnd {
                dst,
                w,
                a,
                k: sh,
                mask,
            } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    self.regs[db + l] = wrap(*w, av.wrapping_shr(*sh as u32) & *mask);
                });
            }
            Op::MulAcc { dst, w, a, b, acc } => {
                let db = *dst as usize * k;
                each!(|l| {
                    let av = lsrc(&self.regs, k, l, *a);
                    let bv = lsrc(&self.regs, k, l, *b);
                    let cv = lsrc(&self.regs, k, l, *acc);
                    self.regs[db + l] = wrap(*w, cv.wrapping_add(av.wrapping_mul(bv)));
                });
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
                let db = *dst as usize * k;
                each!(|l| {
                    let c =
                        bin_infallible(*op, lsrc(&self.regs, k, l, *x), lsrc(&self.regs, k, l, *y));
                    let av = lsrc(&self.regs, k, l, *a);
                    let bv = lsrc(&self.regs, k, l, *b);
                    self.regs[db + l] = wrap(*w, if c != 0 { av } else { bv });
                });
            }
            Op::SelectWrite { port, c, a, b } => {
                let qb = *port as usize * k;
                each!(|l| {
                    let v = if lsrc(&self.regs, k, l, *c) != 0 {
                        lsrc(&self.regs, k, l, *a)
                    } else {
                        lsrc(&self.regs, k, l, *b)
                    };
                    self.out_bufs[qb + l].push(v);
                });
            }
            Op::CmpSelectWrite {
                op,
                port,
                x,
                y,
                a,
                b,
            } => {
                let qb = *port as usize * k;
                each!(|l| {
                    let c =
                        bin_infallible(*op, lsrc(&self.regs, k, l, *x), lsrc(&self.regs, k, l, *y));
                    let v = if c != 0 {
                        lsrc(&self.regs, k, l, *a)
                    } else {
                        lsrc(&self.regs, k, l, *b)
                    };
                    self.out_bufs[qb + l].push(v);
                });
            }
            Op::IncIdx { arr, idx, v, s2 } => {
                let info = &ck.arrays[*arr as usize];
                let (base, len, ty) = (info.base as usize, info.len, info.ty);
                // Phase 1: bounds per lane (OutOfBounds beats the staged
                // StepLimit tick, like the interpreter).
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    let iv = lsrc(&self.regs, k, l, *idx);
                    if iv < 0 || iv as u64 >= len as u64 {
                        let e = ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: iv,
                            len,
                        };
                        self.retire(lanes, i, e);
                    } else {
                        i += 1;
                    }
                }
                // Phase 2: staged tick; phase 3: read-modify-write.
                if !self.tick_s2(*s2, lanes) {
                    return pc;
                }
                each!(|l| {
                    let iv = lsrc(&self.regs, k, l, *idx);
                    let add = lsrc(&self.regs, k, l, *v);
                    let slot = (base + iv as usize) * k + l;
                    self.arena[slot] = wrap(ty, self.arena[slot].wrapping_add(add));
                });
            }
            Op::WriteStream2 {
                port_a,
                src_a,
                port_b,
                src_b,
                s2,
            } => {
                let qa = *port_a as usize * k;
                each!(|l| {
                    let vv = lsrc(&self.regs, k, l, *src_a);
                    self.out_bufs[qa + l].push(vv);
                });
                if !self.tick_s2(*s2, lanes) {
                    return pc;
                }
                let qb = *port_b as usize * k;
                each!(|l| {
                    let vv = lsrc(&self.regs, k, l, *src_b);
                    self.out_bufs[qb + l].push(vv);
                });
            }
            Op::LoadIdxWrite { arr, idx, port, s2 } => {
                let info = &ck.arrays[*arr as usize];
                let (base, len) = (info.base as usize, info.len);
                let mut i = 0;
                while i < lanes.len() {
                    let l = lanes[i] as usize;
                    let iv = lsrc(&self.regs, k, l, *idx);
                    if iv < 0 || iv as u64 >= len as u64 {
                        let e = ExecError::OutOfBounds {
                            array: info.name.clone(),
                            index: iv,
                            len,
                        };
                        self.retire(lanes, i, e);
                    } else {
                        self.vals[l] = self.arena[(base + iv as usize) * k + l];
                        i += 1;
                    }
                }
                if !self.tick_s2(*s2, lanes) {
                    return pc;
                }
                let qb = *port as usize * k;
                each!(|l| {
                    self.out_bufs[qb + l].push(self.vals[l]);
                });
            }
        }
        pc + 1
    }

    /// `ReadStream`: per-lane cursor advance; a lane that runs out of
    /// snapshot retires with `StreamUnderflow`.
    fn read_stream(&mut self, lanes: &mut Vec<u16>, dst: u16, w: Wrap, port: u16) {
        let k = self.k;
        let p = port as usize;
        let db = dst as usize * k;
        let mut i = 0;
        while i < lanes.len() {
            let l = lanes[i] as usize;
            let b = p * k + l;
            let cur = self.cursors[b];
            if cur < self.in_end[b] {
                self.regs[db + l] = wrap(w, self.in_all[cur]);
                self.cursors[b] = cur + 1;
                i += 1;
            } else {
                let e = ExecError::StreamUnderflow(self.ck.stream_ins[p].clone());
                self.retire(lanes, i, e);
            }
        }
    }

    /// Partition the group by `self.cond[position]`: (true, false).
    fn partition(&self, lanes: &[u16]) -> (Vec<u16>, Vec<u16>) {
        let mut t = Vec::with_capacity(lanes.len());
        let mut f = Vec::new();
        for (i, &l) in lanes.iter().enumerate() {
            if self.cond[i] {
                t.push(l);
            } else {
                f.push(l);
            }
        }
        (t, f)
    }

    /// Converged hot loop: executes ops while the *whole* batch runs in
    /// lockstep under shared accounting (no retired lane, no divergence,
    /// empty reconvergence stack — the overwhelmingly common state on
    /// data-parallel kernels), and hands a column loop's body start back
    /// to the machine loop, which runs it a chunk at a time. Everything
    /// the general [`LaneVm::step`] must re-derive per dispatch is
    /// hoisted into locals here, per-lane loops run over the dense
    /// `0..k` range of contiguous SoA rows, and row bases are
    /// bounds-proved once per op so the bodies compile to straight-line
    /// (vectorizable) code.
    ///
    /// Any op that could trap a lane, trip the step limit, or split the
    /// group *bails out* — returns `Some(pc)` **before committing any
    /// effect or accounting** for that op — and the machine loop re-runs
    /// that op through the general `step`, which owns all
    /// retirement/divergence machinery. `None` means the program ran to
    /// completion for every lane.
    /// Width-dispatched entry: the common lane counts get a
    /// monomorphized body whose per-lane loops have a compile-time trip
    /// count (fully unrolled and vectorized); anything else runs the
    /// dynamic-width version (`LANES = 0`).
    fn exec_hot(&mut self, pc: usize) -> Option<usize> {
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
    fn exec_hot_w<const LANES: usize>(&mut self, pc: usize) -> Option<usize> {
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
    unsafe fn exec_hot_avx512<const LANES: usize>(&mut self, pc: usize) -> Option<usize> {
        self.exec_hot_body::<LANES>(pc)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn exec_hot_avx2<const LANES: usize>(&mut self, pc: usize) -> Option<usize> {
        self.exec_hot_body::<LANES>(pc)
    }

    /// The hot-loop body proper. `inline(always)` so each
    /// `#[target_feature]` wrapper above gets its own copy compiled
    /// under that wrapper's instruction set.
    #[inline(always)]
    fn exec_hot_body<const LANES: usize>(&mut self, mut pc: usize) -> Option<usize> {
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
        let sh_counts = &mut self.sh_counts[..];
        let col_at = &ck.col_at[..];
        let vals = &mut self.vals[..];
        let mut steps_acc = self.sh_steps;
        let mut dynb = self.sh_dyn;
        let mut disp = self.dispatches;
        // One proof each for the per-op row accesses below.
        assert!(steps_d.len() == n && sh_counts.len() == n);
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
                break 'hot None;
            }
            let d = steps_d[pc] as u64;
            if steps_acc + d > limit {
                break 'hot Some(pc);
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
                    sh_counts[pc] += 1;
                    steps_acc += d;
                }};
            }
            /// This op needs the general machinery; undo the dispatch
            /// claim and hand the unexecuted op back.
            macro_rules! bail {
                () => {{
                    disp -= 1;
                    break 'hot Some(pc);
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
                    // Same per-lane effect order as the general step (read
                    // `lo`, latch the bound, write the induction var),
                    // staged through `vals` so the row copies stay
                    // alias-safe.
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
                            break 'hot Some(pc + 1);
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
                        // itself; the general step tests against the
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
                            break 'hot Some(*body as usize);
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

        self.sh_steps = steps_acc;
        self.sh_dyn = dynb;
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

    /// Run the next chunk of column loop `cl` for the group, which stands
    /// at the loop's body start: up to [`CHUNK`] iterations per lane,
    /// each lane to its own trip count, every body op dispatched once
    /// over all of them. Returns the next pc, or `None` with nothing run
    /// when some iteration of the chunk could trap (too few tokens, an
    /// index out of range, the step limit) or its back-edge would wrap;
    /// that iteration then runs op at a time, so trap points, partial
    /// effects and `StepLimit` stay the interpreter's. Compiled per ISA
    /// tier like the hot loop ([`LaneVm::exec_hot_w`]).
    fn run_chunk(&mut self, cl: &ColLoop, lanes: &mut Vec<u16>) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        {
            match hot_isa() {
                // SAFETY: `hot_isa` only reports a tier after runtime
                // feature detection confirmed the CPU supports it.
                HotIsa::Avx512 => return unsafe { self.run_chunk_avx512(cl, lanes) },
                HotIsa::Avx2 => return unsafe { self.run_chunk_avx2(cl, lanes) },
                HotIsa::Portable => {}
            }
        }
        self.run_chunk_body(cl, lanes)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn run_chunk_avx512(&mut self, cl: &ColLoop, lanes: &mut Vec<u16>) -> Option<usize> {
        self.run_chunk_body(cl, lanes)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_chunk_avx2(&mut self, cl: &ColLoop, lanes: &mut Vec<u16>) -> Option<usize> {
        self.run_chunk_body(cl, lanes)
    }

    #[inline(always)]
    fn run_chunk_body(&mut self, cl: &ColLoop, lanes: &mut Vec<u16>) -> Option<usize> {
        let k = self.k;
        let n = lanes.len();
        let (vb, hb) = (cl.var as usize * k, cl.hi as usize * k);
        // Each lane's rows: the rest of its trip count, at most CHUNK;
        // `cond[j]`: the lane is still in the loop after the chunk.
        for (j, &lw) in lanes.iter().enumerate() {
            let l = lw as usize;
            let (v, h) = (self.regs[vb + l], self.regs[hb + l]);
            debug_assert!(v < h, "a loop body starts only after its test passed");
            if h > cl.var_max {
                return None;
            }
            let trips = h.wrapping_sub(v) as u64;
            let rows = trips.min(CHUNK as u64) as usize;
            self.rows[j] = rows;
            self.cond[j] = (rows as u64) < trips;
        }
        // Nothing in the chunk may trap, whichever guards hold.
        for (j, &lw) in lanes.iter().enumerate() {
            let l = lw as usize;
            let rows = self.rows[j];
            for &p in &cl.reads {
                let b = p as usize * k + l;
                if self.in_end[b] - self.cursors[b] < rows {
                    return None;
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
                    return None;
                }
            }
            let steps = match &self.pl {
                Some(pl) => pl.steps[l],
                None => self.sh_steps,
            };
            if steps + rows as u64 * cl.iter_steps > self.limit {
                return None;
            }
        }
        // A lane whose checked op fails on some row commits the rows
        // before it; an iteration that fails on its first row runs op at
        // a time, and traps there.
        self.chunk_values(cl, lanes);
        for j in 0..n {
            match self.cut[j] {
                0 => return None,
                cut if cut < self.rows[j] => (self.rows[j], self.cond[j]) = (cut, true),
                _ => {}
            }
        }
        // The rows each guarded block ran, per lane. Lanes whose counts
        // differ, or that leave the loop at different points, go on under
        // per-lane accounting, as at a divergent branch.
        let ng = cl.guards.len();
        if self.guard_rows.len() < n * ng {
            self.guard_rows.resize(n * ng, 0);
        }
        let geo = ColGeometry::new(cl, n);
        for j in 0..n {
            for (g, guard) in cl.guards.iter().enumerate() {
                let p = &self.cols[geo.at(guard.col, j)..][..self.rows[j]];
                self.guard_rows[j * ng + g] = p.iter().filter(|&&p| p != 0).count() as u64;
            }
        }
        // Compared element by element: a slice `==` calls `bcmp`, which
        // measured about 300 cycles a call here, three per 4-lane chunk.
        let uniform = (1..n).all(|j| {
            self.rows[j] == self.rows[0]
                && self.cond[j] == self.cond[0]
                && (0..ng).all(|g| self.guard_rows[j * ng + g] == self.guard_rows[g])
        });
        if !uniform {
            self.ensure_per_lane(lanes);
        }
        self.chunk_commit(cl, lanes);

        // Each pc ran once per row its block's predicate held; the
        // back-edge was taken on every row but a leaving lane's last. One
        // dispatch per op covers the chunk's rows of every lane.
        let (body, back) = (cl.body as usize, cl.back as usize);
        let guard_of = |pc: usize| cl.ops.get(pc - body).map_or(NO_COL, |c| c.guard);
        let ran = |rows: usize, gr: &[u64], pc: usize| match guard_of(pc) {
            NO_COL => rows as u64,
            g => gr[g as usize],
        };
        match &mut self.pl {
            None => {
                let (rows, gr) = (self.rows[0], &self.guard_rows[..ng]);
                for pc in body..=back {
                    self.sh_counts[pc] += ran(rows, gr, pc);
                }
                self.sh_steps += chunk_steps(cl, rows, gr);
                self.sh_dyn += rows as u64 - !self.cond[0] as u64;
            }
            Some(pl) => {
                for (j, &lw) in lanes.iter().enumerate() {
                    let l = lw as usize;
                    let (rows, gr) = (self.rows[j], &self.guard_rows[j * ng..][..ng]);
                    for pc in body..=back {
                        pl.counts[pc * k + l] += ran(rows, gr, pc);
                    }
                    pl.steps[l] += chunk_steps(cl, rows, gr);
                    pl.dynb[l] += rows as u64 - !self.cond[j] as u64;
                }
            }
        }
        self.dispatches += (back - body + 1) as u64;

        let exit = back + 1;
        let staying = self.cond[..n].iter().filter(|&&c| c).count();
        if staying == n {
            return Some(body);
        }
        if staying == 0 {
            return Some(exit);
        }
        let (stay, left) = self.partition(lanes);
        self.split(lanes, stay, exit, None, left);
        Some(body)
    }

    /// The first half of a chunk (see [`LaneVm::run_chunk`]): broadcast
    /// the invariants and the induction variable into columns, then
    /// compute every op's value and every block's predicate over each
    /// lane's rows, in body order, running each [`Recurrence`] row by row
    /// once its last op is reached. Commits nothing; `cut[j]` ends as lane
    /// `j`'s first row on which a checked op fails where its predicate
    /// holds, or its rows.
    #[inline(always)]
    fn chunk_values(&mut self, cl: &ColLoop, lanes: &[u16]) {
        let ck = self.ck;
        let (k, n) = (self.k, lanes.len());
        let geo = ColGeometry::new(cl, n);
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
            rows,
            cut,
            ..
        } = self;
        let rows = &rows[..n];
        cut[..n].copy_from_slice(rows);
        let at = |c: u16, j: usize| geo.at(c, j);

        // A pooled immediate holds the same value in every lane.
        let most = rows.iter().copied().max().unwrap_or(0);
        for &(c, r) in &cl.splats[..geo.shared] {
            cols[at(c, 0)..][..most].fill(regs[r as usize * k]);
        }
        for &(c, r) in &cl.splats[geo.shared..] {
            for (j, &lw) in lanes.iter().enumerate() {
                let v = regs[r as usize * k + lw as usize];
                cols[at(c, j)..][..rows[j]].fill(v);
            }
        }
        if let Some(c) = cl.iota {
            for (j, &lw) in lanes.iter().enumerate() {
                let v = regs[cl.var as usize * k + lw as usize];
                for (i, x) in cols[at(c, j)..][..rows[j]].iter_mut().enumerate() {
                    *x = v + i as i64;
                }
            }
        }

        let mut recs = cl.recs.iter().peekable();
        for (at_op, cop) in cl.ops.iter().enumerate() {
            // Per lane `l` (the group's `j`-th) with `r` rows: `o` is the
            // op's value column, `ins` its operand columns and `p` its
            // predicate; every one of them lies below the value column.
            macro_rules! each_lane {
                (|$l:ident, $j:ident, $r:ident, $o:ident, $ins:ident, $p:ident| $body:expr) => {
                    for ($j, &lw) in lanes.iter().enumerate() {
                        let ($l, $r) = (lw as usize, rows[$j]);
                        let (lo, hi) = cols.split_at_mut(at(cop.out, $j));
                        let $o = &mut hi[..$r];
                        let col = |c: u16| match c {
                            NO_COL => &ZEROS[..$r],
                            c => &lo[at(c, $j)..][..$r],
                        };
                        let $ins: [&[i64]; 4] = [
                            col(cop.ins[0]),
                            col(cop.ins[1]),
                            col(cop.ins[2]),
                            col(cop.ins[3]),
                        ];
                        let $p = match cop.guard {
                            NO_COL => &ONES[..$r],
                            g => col(cl.guards[g as usize].col),
                        };
                        $body
                    }
                };
            }
            match cop.op {
                _ if cop.in_order || cop.out == NO_COL => {}
                Op::ReadStream { w, port, .. } => each_lane!(|l, _j, r, o, _ins, _p| {
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
                    each_lane!(|l, _j, _r, o, ins, _p| {
                        for (x, &i) in o.iter_mut().zip(ins[0]) {
                            *x = wrap(w, arena[(base + i as usize) * k + l]);
                        }
                    })
                }
                Op::BranchIfZero { .. } => each_lane!(|_l, _j, _r, o, ins, p| {
                    for ((x, &c), &p) in o.iter_mut().zip(ins[0]).zip(p) {
                        *x = (p != 0 && c != 0) as i64;
                    }
                }),
                Op::BinChecked { op, w, .. } => {
                    with_binop!(op, OP => each_lane!(|_l, j, r, o, ins, p| {
                    let mut first = r;
                    for (i, ((x, (&a, &b)), &p)) in o.iter_mut().zip(ins[0].iter().zip(ins[1])).zip(p).enumerate() {
                        *x = checked_row(OP, w, a, b, p != 0).unwrap_or_else(|| {
                            first = first.min(i);
                            0
                        });
                    }
                    cut[j] = cut[j].min(first);
                }); Div Mod Shl Shr)
                }
                ref op => with_value_fn!(op, f => each_lane!(|_l, _j, _r, o, ins, _p| {
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
            with_value_fn!(&v.op, f => for (j, &lw) in lanes.iter().enumerate() {
                let r = rows[j];
                let (lo, hi) = cols.split_at_mut(at(v.out, j));
                let (o, hi) = hi.split_at_mut(CHUNK);
                let col = |c: u16| match c {
                    NO_COL => &ZEROS[..r],
                    c => &lo[at(c, j)..][..r],
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
                    let g = at(cl.ops[rec.guard as usize].out, j);
                    let w = at(cl.ops[cl.carried[rec.slot as usize].writer as usize].out, j);
                    let (g_rows, w_rows) = hi[g - at(v.out, j) - CHUNK..].split_at_mut(CHUNK);
                    (&mut g_rows[..r], &w_rows[w - g - CHUNK..][..r])
                });
                let acc = regs[reg + lw as usize];
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

    /// The second half of a chunk: commit each lane's first `rows[j]`
    /// rows — stream cursors, array stores and stream writes, each on
    /// the rows where its op's predicate holds — then each register the
    /// body writes and the induction variable.
    #[inline(always)]
    fn chunk_commit(&mut self, cl: &ColLoop, lanes: &[u16]) {
        let ck = self.ck;
        let k = self.k;
        let geo = ColGeometry::new(cl, lanes.len());
        let LaneVm {
            regs,
            arena,
            cursors,
            out_bufs,
            cols,
            rows,
            ..
        } = self;
        let at = |c: u16, j: usize| geo.at(c, j);
        let col = |c: u16, j: usize| match c {
            NO_COL => &ZEROS[..rows[j]],
            c => &cols[at(c, j)..][..rows[j]],
        };
        let pred = |cop: &ColOp, j: usize| match cop.guard {
            NO_COL => None,
            g => Some(col(cl.guards[g as usize].col, j)),
        };
        for cop in &cl.ops {
            for (j, &lw) in lanes.iter().enumerate() {
                let (l, r) = (lw as usize, rows[j]);
                let p = pred(cop, j);
                match cop.op {
                    Op::ReadStream { port, .. } => cursors[port as usize * k + l] += r,
                    Op::StoreIdx { arr, .. } | Op::IncIdx { arr, .. } => {
                        let info = &ck.arrays[arr as usize];
                        let (base, w) = (info.base as usize, Wrap::from(info.ty));
                        let inc = matches!(cop.op, Op::IncIdx { .. });
                        let rows = (col(cop.ins[0], j), col(cop.ins[1], j), p);
                        store_rows(arena, base, k, l, w, inc, rows);
                    }
                    Op::WriteStream { port, .. } => {
                        push_rows(&mut out_bufs[port as usize * k + l], col(cop.ins[0], j), p)
                    }
                    Op::WriteStream2 { port_a, port_b, .. } => {
                        push_rows(
                            &mut out_bufs[port_a as usize * k + l],
                            col(cop.ins[0], j),
                            p,
                        );
                        push_rows(
                            &mut out_bufs[port_b as usize * k + l],
                            col(cop.ins[1], j),
                            p,
                        );
                    }
                    Op::LoadIdxWrite { port, .. }
                    | Op::SelectWrite { port, .. }
                    | Op::CmpSelectWrite { port, .. } => {
                        push_rows(&mut out_bufs[port as usize * k + l], col(cop.out, j), p)
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
            for (j, &lw) in lanes.iter().enumerate() {
                let mut value: Option<(usize, i64)> = None;
                for &w in writers.iter().rev() {
                    let cop = &cl.ops[w as usize];
                    let row = match pred(cop, j) {
                        None => rows[j].checked_sub(1),
                        Some(p) => p.iter().rposition(|&p| p != 0),
                    };
                    if let Some(i) = row.filter(|&i| value.is_none_or(|(at, _)| i > at)) {
                        value = Some((i, col(cop.out, j)[i]));
                    }
                    if row == rows[j].checked_sub(1) {
                        break;
                    }
                }
                if let Some((_, v)) = value {
                    regs[*reg as usize * k + lw as usize] = v;
                }
            }
        }
        for (j, &lw) in lanes.iter().enumerate() {
            regs[cl.var as usize * k + lw as usize] += rows[j] as i64;
        }
    }

    /// The machine loop: run groups to completion, splitting at mixed
    /// control ops and merging at reconvergence points.
    fn exec(&mut self, mut lanes: Vec<u16>) {
        let n = self.ck.lane_ops.len();
        let mut pc = 0usize;
        loop {
            if lanes.is_empty() {
                match self.stack.pop() {
                    None => return,
                    Some(mut e) => {
                        if let Some((pl, ppc)) = e.pending.take() {
                            self.stack.push(e);
                            lanes = pl;
                            pc = ppc;
                        } else {
                            lanes = e.parked;
                            pc = e.rejoin;
                        }
                    }
                }
                continue;
            }
            if pc >= n {
                let st = if self.pl.is_some() {
                    LaneState::DonePerLane
                } else {
                    LaneState::DoneShared
                };
                for &l in &lanes {
                    self.done[l as usize] = st.clone();
                }
                lanes.clear();
                continue;
            }
            if let Some(top) = self.stack.last() {
                if top.rejoin == pc {
                    let e = self.stack.pop().expect("stack top just observed");
                    if let Some((pl, ppc)) = e.pending {
                        // Park the side that arrived; run the pending one.
                        let parked = merge_sorted(e.parked, std::mem::take(&mut lanes));
                        self.stack.push(Entry {
                            rejoin: e.rejoin,
                            pending: None,
                            parked,
                        });
                        lanes = pl;
                        pc = ppc;
                    } else {
                        lanes = merge_sorted(lanes, e.parked);
                    }
                    continue;
                }
            }
            // A column loop's body start is an iteration boundary: run
            // the next chunk of iterations, or this one op at a time
            // when the chunk could trap.
            if let Some(cl) = self.col_loop(pc) {
                pc = match self.run_chunk(cl, &mut lanes) {
                    Some(next) => next,
                    None => self.step(pc, &mut lanes),
                };
                continue;
            }
            // Fully converged batch (all K lanes live, shared
            // accounting): hand the program to the hot loop, which runs
            // until completion, until one op needs the general step's
            // trap/divergence machinery, or until a column loop's body
            // starts. `lanes` is always a strictly ascending subset of
            // `0..k`, so length alone proves it is the identity group.
            if self.pl.is_none() && self.stack.is_empty() && lanes.len() == self.k {
                match self.exec_hot(pc) {
                    None => {
                        for &l in &lanes {
                            self.done[l as usize] = LaneState::DoneShared;
                        }
                        lanes.clear();
                        continue;
                    }
                    Some(p) if self.col_loop(p).is_some() => {
                        pc = p;
                        continue;
                    }
                    Some(p) => pc = p,
                }
            }
            pc = self.step(pc, &mut lanes);
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
        let k = streams.len();
        if k == 0 {
            return BatchOutcome {
                lanes: Vec::new(),
                dispatches: 0,
            };
        }

        let nr = self.lane_regs as usize;
        let np = self.stream_ins.len();
        let nq = self.stream_outs.len();
        let mut regs = vec![0i64; nr * k];
        let mut done = vec![LaneState::Running; k];
        // Broadcast the pooled immediates (every op reads its operands
        // from register rows; see `CompiledKernel::imm_seed`).
        for (i, v) in self.imm_seed.iter().enumerate() {
            let b = (self.num_regs as usize + i) * k;
            regs[b..b + k].fill(*v);
        }

        // Seed scalars per lane; a missing input retires the lane before
        // any bundle effect, exactly like the interpreter's early return.
        let mut live: Vec<u16> = Vec::with_capacity(k);
        for l in 0..k {
            let mut err = None;
            for s in &self.scalar_seed {
                let v = if s.is_input {
                    match scalar_inputs[l].borrow().get(&s.name) {
                        Some(v) => *v,
                        None => {
                            err = Some(ExecError::MissingScalarInput(s.name.clone()));
                            break;
                        }
                    }
                } else {
                    0
                };
                regs[s.reg as usize * k + l] = s.ty.wrap(v);
            }
            match err {
                Some(e) => done[l] = LaneState::SeedErr(e),
                None => live.push(l as u16),
            }
        }

        // Resolve ports and snapshot inputs per live lane (bundles may
        // differ in which ports they carry).
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
        let mut out_slots: Vec<usize> = vec![0usize; nq * k];
        for &l in &live {
            let li = l as usize;
            for (p, port) in self.stream_ins.iter().enumerate() {
                if let Some(s) = streams[li].input_index(port) {
                    let b = p * k + li;
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
                    streams[li].input_snapshot_into(s, &mut in_all);
                    in_end[b] = in_all.len();
                }
            }
            for (q, port) in self.stream_outs.iter().enumerate() {
                out_slots[q * k + li] = streams[li].ensure_output(port);
            }
        }

        let started = live.clone();
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
            sh_counts: vec![0u64; self.lane_ops.len()],
            sh_steps: 0,
            sh_dyn: 0,
            pl: None,
            dispatches: 0,
            done,
            stack: Vec::new(),
            cond: vec![false; k],
            vals: vec![0i64; k],
            cols,
            rows: vec![0; k],
            cut: vec![0; k],
            guard_rows: Vec::new(),
        };
        if !live.is_empty() {
            vm.exec(live);
        }

        // Commit stream effects for every lane that started, on success
        // and on trap alike — the bundle state mirrors the interpreter's.
        for &l in &started {
            let li = l as usize;
            for p in 0..np {
                if let Some(s) = in_slots[p * k + li] {
                    let b = p * k + li;
                    streams[li].drain_input_at(s, vm.cursors[b] - vm.in_start[b]);
                }
            }
            for q in 0..nq {
                streams[li].extend_output_at(out_slots[q * k + li], &vm.out_bufs[q * k + li]);
            }
        }
        TOKEN_BUFS.with(|bufs| {
            *bufs.borrow_mut() = TokenBufs {
                in_all: std::mem::take(&mut vm.in_all),
                out_bufs: std::mem::take(&mut vm.out_bufs),
                cols: std::mem::take(&mut vm.cols),
            }
        });

        let mut counts_col = vec![0u64; self.lane_ops.len()];
        let lanes = (0..k)
            .map(|l| match &vm.done[l] {
                LaneState::SeedErr(e) | LaneState::Trapped(e) => Err(e.clone()),
                LaneState::DoneShared => {
                    let acc = self.replay(&vm.sh_counts, vm.sh_dyn);
                    debug_assert_eq!(acc[STAT_STEPS], vm.sh_steps);
                    Ok(self.outcome_for_lane(&vm.regs, k, l, &acc))
                }
                LaneState::DonePerLane => {
                    let pl = vm.pl.as_ref().expect("per-lane finish implies pl");
                    for (i, c) in counts_col.iter_mut().enumerate() {
                        *c = pl.counts[i * k + l];
                    }
                    let acc = self.replay(&counts_col, pl.dynb[l]);
                    debug_assert_eq!(acc[STAT_STEPS], pl.steps[l]);
                    Ok(self.outcome_for_lane(&vm.regs, k, l, &acc))
                }
                LaneState::Running => unreachable!("machine left a lane running"),
            })
            .collect();

        BatchOutcome {
            lanes,
            dispatches: vm.dispatches,
        }
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
        // Different per-lane trip counts force LoopBack divergence.
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
        // Lane 1 underflows mid-loop; lanes 0 and 2 finish normally.
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
        // take different sides every iteration and must still match.
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
        // (per-lane) points; each must match its solo twin exactly.
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
        // token indexes -1: the op's bounds phase drops that lane, and
        // the read-modify-write phase must then skip it.
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
        // bounds), lane 1's to 0; the write phase must not emit a token
        // for the lane the bounds phase dropped.
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
        // lanes leave the loop in different chunks, so the batch goes
        // on under per-lane accounting.
        let k = column_kernel();
        let trips = [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 88];
        let ins: Vec<Vec<(&str, i64)>> = trips.iter().map(|&n| vec![("n", n as i64)]).collect();
        let feeds: Vec<_> = trips.iter().map(|&n| column_feed(n)).collect();
        assert_batch_equiv(&k, &ins, &feeds, DEFAULT_STEP_LIMIT);
        // Equal trip counts stay under shared accounting.
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
        assert_eq!(d1, d4, "converged lanes share every chunk's dispatches");
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
        // and the batch goes on under per-lane accounting; one lane's
        // guard never holds and another's always does.
        check_guarded([500, -1, 5000, 900], 2 * CHUNK + 10);
        check_guarded([0, 999, 998, 500], 7);
    }

    #[test]
    fn guarded_division_traps_at_the_interpreters_row() {
        // `v - lim` is zero on the rows where `v == lim`; with the guard
        // `v >= lim` those rows run the division and trap, at different
        // rows per lane, after each lane's earlier rows are committed.
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
        assert_eq!(d1, d8, "converged lanes must share dispatches");
    }
}
