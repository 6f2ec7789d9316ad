//! One-time lowering of kernel IR to a flat register bytecode.
//!
//! The tree-walking [`Interpreter`](crate::interp::Interpreter) resolves
//! every variable through a `HashMap<String, Slot>` and re-walks the AST
//! on each invocation; on the hot paths (per-pixel accelerator models)
//! that dominates simulation time. [`CompiledKernel::compile`] pays the
//! name resolution once: scalars become dense register indices, arrays
//! become offsets into one flat arena, stream ports become slot indices,
//! and the statement tree becomes a linear [`Op`] vector with explicit
//! branch targets. The batch-lane VM ([`crate::lanes`]) then executes the
//! program for K lanes at once; [`CompiledKernel::run`] ([`crate::vm`]) is
//! its one-lane entry point.
//!
//! # Stat equivalence
//!
//! The interpreter's [`ExecStats`](crate::interp::ExecStats) counters are
//! part of the observable contract (they calibrate the HLS and CPU cost
//! models), so the bytecode must reproduce them *bit-identically* —
//! including `steps`, whose only observable role is the `StepLimit`
//! error. Every op carries a [`StatDelta`]: the counter increments of all
//! source-level work attributed to it, i.e. everything the interpreter
//! would have ticked between the previous op's side effect and this op's
//! side effect. Merging consecutive ticks is observationally safe exactly
//! when no fallible effect sits between them, and the compiler maintains
//! that invariant by flushing the pending delta into the next emitted op.
//! Counters other than `steps` are only observable on success, so the
//! peephole pass may fold an operation away as long as its class counter
//! still tallies (constant-folded ops count exactly like executed ones).
//!
//! # Peephole rules
//!
//! * **Constant folding** — a binary/unary/select over constant operands
//!   folds at compile time *unless* it could fail at runtime (division by
//!   a zero constant, shift by an out-of-range constant keep their
//!   fallible op so the typed error surfaces at the same point).
//! * **Identity elimination** — `x+0`, `x*1`, `x*0`, `x&0`, `x|0`,
//!   `x^0`, `x<<0`, … reduce to an operand or a constant. The operand's
//!   computation is *never* removed (its ops are already emitted), so
//!   side effects such as stream reads are preserved.
//! * **Strength reduction** — `x * 2^k` becomes a shift, `x / 2^k` and
//!   `x % 2^k` become branchless corrected shift/mask sequences that
//!   preserve C truncation semantics for negative operands and need no
//!   divide-by-zero check; shifts by in-range constants become
//!   infallible immediate-shift ops. The replayed [`StatDelta`] still
//!   counts the source-level `muls`/`divs`.
//! * **Store fusion** — a scalar assignment whose value expression ends
//!   in a producer op points that op's `dst` at the variable and its
//!   [`Wrap`] at the variable's type, eliminating the separate
//!   `StoreVar` (see `Compiler::try_fuse_store` for the safety
//!   conditions).
//! * **Back-edge fusion** — [`Op::LoopBack`] increments, re-tests the
//!   latched bound and jumps to the body itself, so steady-state loop
//!   iterations dispatch one control op instead of two;
//!   [`Op::LoopHead`] only runs the loop-entry test.
//!
//! # Column loops
//!
//! After immediate pooling, every counted loop whose body is
//! straight-line apart from forward if-blocks, and cannot fail once a
//! few per-chunk checks pass except in a checked op, is lowered a
//! second time, to a `ColLoop`: a column program the lane VM runs a
//! chunk of iterations per op dispatch ([`crate::lanes`]). Each
//! if-block becomes a predicate column, and a register carried from the
//! previous iteration a row-by-row recurrence. The op stream is
//! unchanged, so every other loop, and any iteration a chunk cannot
//! take, runs op at a time.

use crate::ir::{BinOp, Expr, Kernel, LValue, ParamKind, Stmt, UnOp};
use crate::types::Ty;
use crate::vm::{bin_checked, bin_infallible, un_op};
use std::collections::{BTreeMap, HashMap};

/// An operand: a register or an inline immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    Reg(u16),
    Imm(i64),
}

/// Counter increments replayed every time the carrying op executes.
/// Mirrors [`crate::interp::ExecStats`] field-for-field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatDelta {
    pub steps: u32,
    pub adds: u32,
    pub muls: u32,
    pub divs: u32,
    pub compares: u32,
    pub bitops: u32,
    pub mem_reads: u32,
    pub mem_writes: u32,
    pub stream_reads: u32,
    pub stream_writes: u32,
    pub branches: u32,
}

impl StatDelta {
    fn take(&mut self) -> StatDelta {
        std::mem::take(self)
    }

    /// Dense form consumed by the VM: one `u64` accumulator lane per
    /// counter, in [`ExecStats`](crate::interp::ExecStats) field order
    /// (`steps` first, `branches` last), so the per-op replay is a plain
    /// widening-add loop the optimizer can vectorize.
    pub fn to_array(&self) -> [u32; 11] {
        [
            self.steps,
            self.adds,
            self.muls,
            self.divs,
            self.compares,
            self.bitops,
            self.mem_reads,
            self.mem_writes,
            self.stream_reads,
            self.stream_writes,
            self.branches,
        ]
    }
}

/// Index of `steps` in [`StatDelta::to_array`] / the VM accumulator.
pub(crate) const STAT_STEPS: usize = 0;
/// Index of `branches` in [`StatDelta::to_array`] / the VM accumulator.
pub(crate) const STAT_BRANCHES: usize = 10;

/// What a producing op does to its result before writing `dst`:
/// [`Ty::wrap`] in [`vm::wrap`](crate::vm)'s shift-pair form, `shift =
/// 64 - bits`. A named variable's wrap is its type's; a temporary's is
/// `Wrap::RAW`, the identity (shift 0), because arithmetic results stay
/// raw 64-bit values until a store wraps them, as in the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wrap {
    pub(crate) shift: u8,
    pub(crate) signed: bool,
}

impl Wrap {
    /// The identity: a temporary keeps the raw 64-bit result.
    pub(crate) const RAW: Wrap = Wrap {
        shift: 0,
        signed: true,
    };

    /// Whether the op stores into a typed variable rather than a
    /// temporary.
    pub(crate) fn is_typed(self) -> bool {
        self.shift != 0
    }
}

impl From<Ty> for Wrap {
    fn from(ty: Ty) -> Wrap {
        Wrap {
            shift: 64 - ty.bits,
            signed: ty.signed,
        }
    }
}

/// One bytecode instruction; `target` / `exit` / `body` fields are
/// absolute indices into the op vector. A producing op (one with `dst`
/// and `w`) writes `w(result)`: the raw 64-bit value into a temporary, or
/// — when store fusion pointed it at a scalar assignment's variable — the
/// value wrapped to that variable's type, which saves the `StoreVar`
/// dispatch and delta replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst = a <op> b` for the infallible operators (everything except
    /// `Div`/`Mod`/`Shl`/`Shr`, which lower to [`Op::BinChecked`]).
    Bin {
        op: BinOp,
        dst: u16,
        w: Wrap,
        a: Src,
        b: Src,
    },
    /// `dst = a <op> b` for `Div`/`Mod` (zero divisor) and `Shl`/`Shr`
    /// (out-of-range amount) — the only binops that can fail.
    BinChecked {
        op: BinOp,
        dst: u16,
        w: Wrap,
        a: Src,
        b: Src,
    },
    /// `dst = <op> a`.
    Un {
        op: UnOp,
        dst: u16,
        w: Wrap,
        a: Src,
    },
    /// `dst = c != 0 ? a : b` (mux: operands already evaluated).
    Select {
        dst: u16,
        w: Wrap,
        c: Src,
        a: Src,
        b: Src,
    },
    /// `dst = arena[arrays[arr] + idx]`, bounds-checked.
    LoadIdx {
        dst: u16,
        w: Wrap,
        arr: u16,
        idx: Src,
    },
    /// `arena[arrays[arr] + idx] = wrap(src)`, bounds-checked.
    StoreIdx {
        arr: u16,
        idx: Src,
        src: Src,
    },
    /// `regs[dst] = ty.wrap(src)` — scalar assignment.
    StoreVar {
        dst: u16,
        ty: Ty,
        src: Src,
    },
    /// Pop one token from input stream slot `port`.
    ReadStream {
        dst: u16,
        w: Wrap,
        port: u16,
    },
    /// Push one token to output stream slot `port`.
    WriteStream {
        port: u16,
        src: Src,
    },
    /// Loop entry: `regs[var] = ty.wrap(lo)`; optionally latch the bound
    /// into a dedicated register (bounds are evaluated once on entry).
    LoopInit {
        var: u16,
        ty: Ty,
        lo: Src,
        hi_copy: Option<(u16, Src)>,
    },
    /// Loop entry test, executed once per loop *entry* (not per
    /// iteration): `if regs[var] < hi { branches += 1 } else { jump
    /// exit }`. Per-iteration re-tests live in [`Op::LoopBack`].
    LoopHead {
        var: u16,
        hi: Src,
        exit: u32,
    },
    /// Fused back-edge: `regs[var] = ty.wrap(regs[var] + 1); if
    /// regs[var] < hi { branches += 1; jump body } else fall through`
    /// (the fall-through is the loop exit). One dispatch per iteration
    /// instead of a back-jump plus a head re-test.
    LoopBack {
        var: u16,
        ty: Ty,
        hi: Src,
        body: u32,
    },
    /// `if cond == 0 { jump target }`.
    BranchIfZero {
        cond: Src,
        target: u32,
    },
    Jump {
        target: u32,
    },
    /// `a << k` for a constant in-range `k` (strength-reduced `a * 2^k`
    /// or a source-level shift by a constant) — infallible.
    ShlPow2 {
        dst: u16,
        w: Wrap,
        a: Src,
        k: u8,
    },
    /// `a >> k` (arithmetic) for a constant in-range `k` — infallible.
    ShrImm {
        dst: u16,
        w: Wrap,
        a: Src,
        k: u8,
    },
    /// Strength-reduced `a / 2^k` (C truncation, branchless fixup).
    DivPow2 {
        dst: u16,
        w: Wrap,
        a: Src,
        k: u8,
    },
    /// Strength-reduced `a % 2^k` (sign-correct mask + fixup).
    ModPow2 {
        dst: u16,
        w: Wrap,
        a: Src,
        k: u8,
    },
    /// Fused byte-extract `dst = (a >> k) & mask` (an [`Op::ShrImm`]
    /// whose result feeds an `And` with a constant mask).
    ShrAnd {
        dst: u16,
        w: Wrap,
        a: Src,
        k: u8,
        mask: i64,
    },
    /// Fused multiply-accumulate `dst = acc + a * b` (an [`Op::Bin`]
    /// multiply whose result feeds an `Add`). Wrapping `+`/`*` are
    /// associative, so the fused form is bit-identical.
    MulAcc {
        dst: u16,
        w: Wrap,
        a: Src,
        b: Src,
        acc: Src,
    },
    /// Fused compare-select `dst = (x <op> y) ? a : b` (a comparison
    /// [`Op::Bin`] whose 0/1 result was a select condition).
    CmpSelect {
        op: BinOp,
        dst: u16,
        w: Wrap,
        x: Src,
        y: Src,
        a: Src,
        b: Src,
    },
    /// Write-fused [`Op::Select`]: push `c != 0 ? a : b` to `port`
    /// (stream writes push raw values, so no wrap is involved).
    SelectWrite {
        port: u16,
        c: Src,
        a: Src,
        b: Src,
    },
    /// Write-fused [`Op::CmpSelect`].
    CmpSelectWrite {
        op: BinOp,
        port: u16,
        x: Src,
        y: Src,
        a: Src,
        b: Src,
    },
    /// Fused read-modify-write `arena[idx] = wrap(arena[idx] + v)` — a
    /// [`Op::LoadIdx`], an add and an [`Op::StoreIdx`] over the same
    /// array cell collapsed into one dispatch (the histogram pattern).
    /// One bounds check covers both accesses: the index operand cannot
    /// change between them. `s2` is the share of this op's `steps`
    /// delta the interpreter ticks *after* the load's bounds check; it
    /// is re-checked against the step limit inside the op so the
    /// `OutOfBounds`-vs-`StepLimit` priority is preserved exactly (see
    /// `Compiler::try_fuse_inc_idx`).
    IncIdx {
        arr: u16,
        idx: Src,
        v: Src,
        s2: u32,
    },
    /// Two consecutive stream-write statements in one dispatch. `s2` is
    /// the second statement's `steps` share, limit-checked between the
    /// pushes so a mid-pair `StepLimit` leaves exactly the first token
    /// pushed, like the interpreter.
    WriteStream2 {
        port_a: u16,
        src_a: Src,
        port_b: u16,
        src_b: Src,
        s2: u32,
    },
    /// Fused `write(port, arena[idx])`. `s2` is the write's `steps`
    /// share, limit-checked between the load and the push.
    LoadIdxWrite {
        arr: u16,
        idx: Src,
        port: u16,
        s2: u32,
    },
}

impl Op {
    /// The destination register and wrap of a producing op.
    fn dest_mut(&mut self) -> Option<(&mut u16, &mut Wrap)> {
        match self {
            Op::Bin { dst, w, .. }
            | Op::BinChecked { dst, w, .. }
            | Op::Un { dst, w, .. }
            | Op::Select { dst, w, .. }
            | Op::LoadIdx { dst, w, .. }
            | Op::ReadStream { dst, w, .. }
            | Op::ShlPow2 { dst, w, .. }
            | Op::ShrImm { dst, w, .. }
            | Op::DivPow2 { dst, w, .. }
            | Op::ModPow2 { dst, w, .. }
            | Op::ShrAnd { dst, w, .. }
            | Op::MulAcc { dst, w, .. }
            | Op::CmpSelect { dst, w, .. } => Some((dst, w)),
            _ => None,
        }
    }
}

/// A local array's place in the flat arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    pub name: String,
    pub ty: Ty,
    pub base: u32,
    pub len: u32,
}

/// A scalar parameter's register binding, in declaration order (the
/// order in which missing inputs are reported).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarSlot {
    pub name: String,
    pub ty: Ty,
    pub reg: u16,
    pub is_input: bool,
}

/// The compile-once artifact: everything the VM needs to execute the
/// kernel with no name lookups on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    pub name: String,
    /// The op stream. Every operand is a register: each immediate is
    /// pooled into a broadcast register (see
    /// [`CompiledKernel::imm_seed`]), so the lane VM's per-lane loops
    /// fetch every operand from an SoA row with no immediate-vs-register
    /// branch.
    pub(crate) lane_ops: Vec<Op>,
    /// Per-op counter increments in [`StatDelta::to_array`] lane order.
    /// Replayed `counts[pc] * delta` on successful exit — counters other
    /// than `steps` are only observable on success, so the hot loop just
    /// counts op executions instead of adding 11 lanes per dispatch.
    pub(crate) deltas: Vec<[u32; 11]>,
    /// `deltas[i][STAT_STEPS]`, split out dense so the per-op `StepLimit`
    /// bookkeeping touches 4 bytes instead of 44.
    pub(crate) steps: Vec<u32>,
    pub(crate) num_regs: u16,
    pub(crate) arena_len: u32,
    pub(crate) arrays: Vec<ArrayInfo>,
    pub(crate) scalar_seed: Vec<ScalarSlot>,
    pub(crate) scalar_outs: Vec<(String, u16)>,
    pub(crate) stream_ins: Vec<String>,
    pub(crate) stream_outs: Vec<String>,
    /// Pooled immediates: `imm_seed[i]` is broadcast into register
    /// `num_regs + i` of every lane before batch execution.
    pub(crate) imm_seed: Vec<i64>,
    /// Register-file size for the lane VM (`num_regs + imm_seed.len()`).
    pub(crate) lane_regs: u16,
    /// The column-safe loops, in program order (see [`ColLoop`]).
    pub(crate) col_loops: Vec<ColLoop>,
    /// `col_at[pc]` is the index into `col_loops` of the loop whose body
    /// starts at `pc`, or [`NO_LOOP`].
    pub(crate) col_at: Vec<u16>,
}

impl CompiledKernel {
    /// Human-readable listing of the program (the pooled immediates'
    /// registers, then per op its `pc`, step cost and op, then each
    /// column loop's program: per body op its value column, operand
    /// columns (`rN` for a carried register's running value), the
    /// predicate column it runs under, and `in-order` for the ops of a
    /// recurrence) — a debugging and tuning aid.
    pub fn disasm(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, v) in self.imm_seed.iter().enumerate() {
            let _ = writeln!(s, "      imm Reg({}) = {v}", self.num_regs as usize + i);
        }
        for (pc, op) in self.lane_ops.iter().enumerate() {
            let _ = writeln!(s, "{pc:4}  [{:2}] {op:?}", self.steps[pc]);
        }
        for cl in &self.col_loops {
            let _ = writeln!(
                s,
                "column loop pcs {}..={}: {} columns, splat (col, reg) {:?} ({} shared), \
                 iota {:?}, {} steps/iteration, checks {:?}, carried (reg, writer pc) {:?}, \
                 write-back (reg, writer pcs) {:?}",
                cl.body,
                cl.back,
                cl.cols,
                cl.splats,
                cl.shared,
                cl.iota,
                cl.iter_steps,
                cl.checks,
                cl.carried
                    .iter()
                    .map(|c| (c.reg, cl.body + c.writer as u32))
                    .collect::<Vec<_>>(),
                cl.writeback
                    .iter()
                    .map(|(r, w)| (
                        *r,
                        w.iter().map(|&w| cl.body + w as u32).collect::<Vec<_>>()
                    ))
                    .collect::<Vec<_>>(),
            );
            let col = |c: u16| match c {
                NO_COL => "-".to_string(),
                c => c.to_string(),
            };
            for (i, c) in cl.ops.iter().enumerate() {
                let ins: Vec<String> = (0..4)
                    .map(|s| match c.carry >> s & 1 {
                        1 => format!("r{}", cl.carried[c.ins[s] as usize].reg),
                        _ => col(c.ins[s]),
                    })
                    .collect();
                let pred = match c.guard {
                    NO_COL => String::new(),
                    g => format!(" if {}", cl.guards[g as usize].col),
                };
                let order = if c.in_order { " in-order" } else { "" };
                let _ = writeln!(
                    s,
                    "      {:4} col {:>2} <- [{}]{pred}{order} {:?}",
                    cl.body as usize + i,
                    col(c.out),
                    ins.join(", "),
                    c.op
                );
            }
        }
        s
    }
}

/// Visit every operand [`Src`] of `op` (used by the immediate-pooling
/// rewrite for the lane VM).
fn for_each_src(op: &mut Op, f: &mut impl FnMut(&mut Src)) {
    match op {
        Op::Bin { a, b, .. } | Op::BinChecked { a, b, .. } => {
            f(a);
            f(b);
        }
        Op::Un { a, .. } => f(a),
        Op::Select { c, a, b, .. } | Op::SelectWrite { c, a, b, .. } => {
            f(c);
            f(a);
            f(b);
        }
        Op::LoadIdx { idx, .. } | Op::LoadIdxWrite { idx, .. } => f(idx),
        Op::StoreIdx { idx, src, .. } => {
            f(idx);
            f(src);
        }
        Op::StoreVar { src, .. } | Op::WriteStream { src, .. } => f(src),
        Op::LoopInit { lo, hi_copy, .. } => {
            f(lo);
            if let Some((_, hs)) = hi_copy {
                f(hs);
            }
        }
        Op::LoopHead { hi, .. } | Op::LoopBack { hi, .. } => f(hi),
        Op::BranchIfZero { cond, .. } => f(cond),
        Op::ShlPow2 { a, .. }
        | Op::ShrImm { a, .. }
        | Op::DivPow2 { a, .. }
        | Op::ModPow2 { a, .. }
        | Op::ShrAnd { a, .. } => f(a),
        Op::MulAcc { a, b, acc, .. } => {
            f(a);
            f(b);
            f(acc);
        }
        Op::CmpSelect { x, y, a, b, .. } | Op::CmpSelectWrite { x, y, a, b, .. } => {
            f(x);
            f(y);
            f(a);
            f(b);
        }
        Op::IncIdx { idx, v, .. } => {
            f(idx);
            f(v);
        }
        Op::WriteStream2 { src_a, src_b, .. } => {
            f(src_a);
            f(src_b);
        }
        Op::ReadStream { .. } | Op::Jump { .. } => {}
    }
}

/// Rewrite every `Src::Imm` operand of `ops` in place into the register
/// of its pooled slot (each distinct immediate gets one register past
/// `num_regs`); returns the pool, in register order.
fn pool_imms(ops: &mut [Op], num_regs: u16) -> Vec<i64> {
    let mut pool: Vec<i64> = Vec::new();
    for op in ops {
        for_each_src(op, &mut |s| {
            if let Src::Imm(v) = *s {
                let i = match pool.iter().position(|p| *p == v) {
                    Some(i) => i,
                    None => {
                        pool.push(v);
                        pool.len() - 1
                    }
                };
                let r = num_regs as usize + i;
                assert!(
                    r < u16::MAX as usize,
                    "immediate pool overflows u16 registers"
                );
                *s = Src::Reg(r as u16);
            }
        });
    }
    pool
}

/// Iterations a column loop runs per lane in one chunk: each body op
/// runs once per chunk, over up to `CHUNK` rows per lane (see
/// [`ColLoop`]).
pub(crate) const CHUNK: usize = 256;

/// [`CompiledKernel::col_at`] entry of a pc that starts no column loop.
pub(crate) const NO_LOOP: u16 = u16::MAX;

/// [`ColOp`] column of an operand slot the op does not have, or of an op
/// without a value; [`ColOp::guard`] of an op outside every guarded
/// block.
pub(crate) const NO_COL: u16 = u16::MAX;

/// How a chunk proves an array index in range before it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexCheck {
    /// The induction variable: the chunk's values `v..v + rows` must lie
    /// in `0..len`.
    Induction { len: u32 },
    /// A loop-invariant register, whose value must lie in `0..len`.
    Invariant { reg: u16, len: u32 },
}

/// One body op of a column loop. Its operands and its value are
/// columns: per lane, one row per iteration of the chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColOp {
    /// The op as the op stream holds it (pooled operands).
    pub(crate) op: Op,
    /// The column of each register operand, in `for_each_src` order, or
    /// for an operand in `carry` its slot in [`ColLoop::carried`].
    pub(crate) ins: [u16; 4],
    /// The column of the op's value: its destination register's, the
    /// value a write-fused op pushes, or a `BranchIfZero`'s predicate.
    pub(crate) out: u16,
    /// The innermost guarded block holding the op, an index into
    /// [`ColLoop::guards`], or [`NO_COL`]: the op takes effect, and is
    /// counted, only on the rows where that block's predicate holds.
    pub(crate) guard: u16,
    /// Bit `s` set: operand `s` reads a carried register's running value.
    pub(crate) carry: u8,
    /// The op runs row by row inside its [`Recurrence`], not over whole
    /// columns.
    pub(crate) in_order: bool,
}

/// A guarded block: the ops from a forward `BranchIfZero` to its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Guard {
    /// The block's predicate column (the `BranchIfZero`'s value): the
    /// enclosing block's predicate and the branch condition, 1 or 0 per
    /// row.
    pub(crate) col: u16,
    /// `steps` the ops directly inside the block debit per row they run.
    pub(crate) steps: u64,
}

/// A loop-carried register: read in an iteration before its one writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Carried {
    pub(crate) reg: u16,
    /// The writer's body index.
    pub(crate) writer: u16,
}

/// A run of body ops evaluated row by row: from the first read of a
/// carried register to its writer (overlapping runs merged). Its
/// in-order ops read the running value, or depend on an op that does;
/// its other ops are plain columns computed as the body order reaches
/// them. A run has one of two shapes, each a single value op `value`
/// on one carried register's running value (any other shape keeps the
/// loop op at a time): a scan, where `value` writes the register itself
/// (`total += h[i]`, guarded or not), or a conditional update, where
/// `value` is the condition of the guard `guard` whose block holds the
/// register's writer, a plain column (`if x > m { m = x; k = i }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recurrence {
    /// Body index of the run's last op; its rows are evaluated right
    /// after it.
    pub(crate) last: u16,
    pub(crate) value: u16,
    /// The `BranchIfZero`'s body index, or [`NO_COL`] for a scan.
    pub(crate) guard: u16,
    /// The carried register's slot in [`ColLoop::carried`].
    pub(crate) slot: u16,
}

/// A column-safe loop: a counted loop whose body the lane VM runs a
/// chunk of iterations per op dispatch instead of one (DESIGN.md §14).
/// Besides the closing `LoopBack`, the body's only branches are forward
/// `BranchIfZero`s to a pc inside it (nested guarded blocks, each a
/// predicate column), and nothing in it can fail once a chunk's
/// preconditions hold, except a `BinChecked`, whose first failing row
/// cuts the chunk there. One op touches each stream port (reads outside
/// every block), each array is only read or touched by exactly one
/// `StoreIdx`/`IncIdx`, every index is provably in range, and every
/// register it reads is loop-invariant, the induction variable, written
/// earlier in the iteration by an op whose block encloses the reader,
/// or carried from the previous iteration with one writer (a
/// [`Recurrence`]). Columns `0..splats.len()` hold the invariant
/// registers, then comes the induction variable's, then the ops' values
/// in body order, so an op only reads columns below its own. The first
/// `shared` splats are pooled immediates, equal in every lane, so a
/// chunk fills one column for all lanes; every other column has one
/// block of rows per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColLoop {
    /// First body pc (the `LoopBack` target).
    pub(crate) body: u32,
    /// The closing `LoopBack`'s pc; the loop exits to `back + 1`.
    pub(crate) back: u32,
    pub(crate) var: u16,
    /// Largest value of the induction variable's type: past a bound
    /// above it the back-edge wraps, so no chunk runs.
    pub(crate) var_max: i64,
    /// The latched bound's register.
    pub(crate) hi: u16,
    /// `steps` one iteration debits when every guard holds: the body
    /// ops' and the back-edge's.
    pub(crate) iter_steps: u64,
    /// `steps` of the pcs outside every guarded block, per row.
    pub(crate) base_steps: u64,
    /// Columns a chunk uses.
    pub(crate) cols: u16,
    /// `(column, register)` of each invariant register the body reads.
    pub(crate) splats: Vec<(u16, u16)>,
    /// How many of the splats are pooled immediates (see above).
    pub(crate) shared: u16,
    /// The induction variable's column, if the body reads it.
    pub(crate) iota: Option<u16>,
    pub(crate) ops: Vec<ColOp>,
    /// The guarded blocks, in body order.
    pub(crate) guards: Vec<Guard>,
    pub(crate) carried: Vec<Carried>,
    /// The in-order runs, in body order.
    pub(crate) recs: Vec<Recurrence>,
    /// Input ports the body reads, one token per iteration each.
    pub(crate) reads: Vec<u16>,
    pub(crate) checks: Vec<IndexCheck>,
    /// Each register the body writes, with its writers' body indices in
    /// order: committed from the last writer that ran on the last row
    /// any of them ran.
    pub(crate) writeback: Vec<(u16, Vec<u16>)>,
}

impl Op {
    /// The destination register and wrap of a value-producing op,
    /// `StoreVar` included.
    pub(crate) fn dest(&self) -> Option<(u16, Wrap)> {
        match self {
            Op::StoreVar { dst, ty, .. } => Some((*dst, (*ty).into())),
            op => op.clone().dest_mut().map(|(d, w)| (*d, *w)),
        }
    }
}

/// The register operands of a pooled op, in `for_each_src` order.
fn src_regs(op: &Op) -> Vec<u16> {
    let mut regs = Vec::new();
    for_each_src(&mut op.clone(), &mut |s| match *s {
        Src::Reg(r) => regs.push(r),
        Src::Imm(_) => unreachable!("pooled ops carry no immediates"),
    });
    regs
}

/// Lower the loop closed by the `LoopBack` at `back` to a column program
/// if it is column-safe (see [`ColLoop`]). `None` for any other op and
/// any other loop; those run op at a time.
fn column_loop(
    ops: &[Op],
    deltas: &[[u32; 11]],
    arrays: &[ArrayInfo],
    num_regs: u16,
    back: usize,
) -> Option<ColLoop> {
    let Op::LoopBack {
        var,
        ty,
        hi: Src::Reg(hi),
        body,
    } = ops[back]
    else {
        return None;
    };
    let span = &ops[body as usize..back];
    if span.is_empty() || hi == var || span.len() >= NO_COL as usize / 2 {
        return None;
    }

    // Guarded blocks: each forward `BranchIfZero` to a pc inside the body
    // (the closing `LoopBack` included) opens one, which must close
    // inside the block it sits in. `guard_of[i]` is op `i`'s innermost
    // block; `parent[g]` block `g`'s enclosing one.
    let mut guard_of = vec![NO_COL; span.len()];
    let mut opens = vec![NO_COL; span.len()];
    let mut parent: Vec<u16> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut open: Vec<u16> = Vec::new();
    for (i, op) in span.iter().enumerate() {
        let pc = body as usize + i;
        while open.last().is_some_and(|&g| ends[g as usize] == pc) {
            open.pop();
        }
        guard_of[i] = open.last().copied().unwrap_or(NO_COL);
        if let Op::BranchIfZero { target, .. } = *op {
            let limit = open.last().map_or(back, |&g| ends[g as usize]);
            if target as usize <= pc || target as usize > limit {
                return None;
            }
            opens[i] = parent.len() as u16;
            parent.push(guard_of[i]);
            ends.push(target as usize);
            open.push(opens[i]);
        }
    }
    // Whether block `outer` holds op `i` (every op is inside NO_COL).
    let encloses = |outer: u16, i: usize| {
        let mut g = guard_of[i];
        while g != outer && g != NO_COL {
            g = parent[g as usize];
        }
        g == outer
    };

    // Effects: no other branch, one op per stream port, no read inside a
    // block, and a written array touched by its writer alone.
    let mut ports_in = Vec::new();
    let mut ports_out = Vec::new();
    let mut touches = vec![(0u32, false); arrays.len()];
    let mut writers: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    for (i, op) in span.iter().enumerate() {
        match *op {
            Op::LoopInit { .. } | Op::LoopHead { .. } | Op::LoopBack { .. } | Op::Jump { .. } => {
                return None
            }
            Op::ReadStream { port, .. } if guard_of[i] == NO_COL => ports_in.push(port),
            Op::ReadStream { .. } => return None,
            Op::WriteStream { port, .. }
            | Op::SelectWrite { port, .. }
            | Op::CmpSelectWrite { port, .. } => ports_out.push(port),
            Op::WriteStream2 { port_a, port_b, .. } => ports_out.extend([port_a, port_b]),
            Op::LoadIdxWrite { arr, port, .. } => {
                ports_out.push(port);
                touches[arr as usize].0 += 1;
            }
            Op::LoadIdx { arr, .. } => touches[arr as usize].0 += 1,
            Op::StoreIdx { arr, .. } | Op::IncIdx { arr, .. } => {
                touches[arr as usize] = (touches[arr as usize].0 + 1, true);
            }
            _ => {}
        }
        if let Some((d, _)) = op.dest() {
            writers.entry(d).or_default().push(i);
        }
    }
    let unique = |ports: &mut Vec<u16>| {
        let n = ports.len();
        ports.sort_unstable();
        ports.dedup();
        ports.len() == n
    };
    if !unique(&mut ports_in)
        || !unique(&mut ports_out)
        || touches.iter().any(|&(n, written)| written && n > 1)
    {
        return None;
    }

    // Where each operand's value comes from, walking the body in order.
    // A value written earlier in the iteration must come from an op
    // whose block encloses the reader, so it ran on every row the
    // reader does; a register read before its writer is carried.
    enum From {
        Var,
        Invariant(u16),
        Op(usize),
        Carry(u16),
    }
    let mut last: BTreeMap<u16, usize> = BTreeMap::new();
    let mut from: Vec<Vec<From>> = Vec::with_capacity(span.len());
    for (i, op) in span.iter().enumerate() {
        let f = src_regs(op)
            .into_iter()
            .map(|r| match (last.get(&r), writers.get(&r).map(Vec::len)) {
                _ if r == var => Some(From::Var),
                (Some(&w), _) => encloses(guard_of[w], i).then_some(From::Op(w)),
                (None, None) => Some(From::Invariant(r)),
                (None, Some(1)) => Some(From::Carry(r)),
                // Carried, but with more than one writer.
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        from.push(f);
        if let Some((d, _)) = op.dest() {
            last.insert(d, i);
        }
    }

    // Every index in range: the induction variable or an invariant,
    // checked per chunk, or an unsigned wrap no wider than the array.
    let mut checks = Vec::new();
    for (op, f) in span.iter().zip(&from) {
        let (Op::LoadIdx { arr, .. }
        | Op::LoadIdxWrite { arr, .. }
        | Op::StoreIdx { arr, .. }
        | Op::IncIdx { arr, .. }) = *op
        else {
            continue;
        };
        let len = arrays[arr as usize].len;
        // The index is each indexed op's first operand.
        match f[0] {
            From::Var => checks.push(IndexCheck::Induction { len }),
            From::Invariant(reg) => checks.push(IndexCheck::Invariant { reg, len }),
            From::Op(w) => {
                let (_, wr) = span[w].dest()?;
                let bits = 64 - wr.shift as u32;
                if wr.signed || !wr.is_typed() || bits > 32 || 1u64 << bits > len as u64 {
                    return None;
                }
            }
            From::Carry(_) => return None,
        }
    }

    // Carried registers, and the runs from each one's first read to its
    // writer, overlapping runs merged.
    let mut carried: Vec<Carried> = Vec::new();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (i, f) in from.iter().enumerate() {
        for f in f {
            let From::Carry(reg) = *f else { continue };
            if carried.iter().all(|c| c.reg != reg) {
                let writer = writers[&reg][0];
                carried.push(Carried {
                    reg,
                    writer: writer as u16,
                });
                runs.push((i, writer));
            }
        }
    }
    runs.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (a, b) in runs {
        match merged.last_mut() {
            Some(m) if a <= m.1 => m.1 = m.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    // In-order ops: those of a run that read a running value, or a value
    // or predicate another in-order op of the run computes.
    let mut in_order = vec![false; span.len()];
    let mut guard_in_order = vec![false; parent.len()];
    let mut recs = Vec::new();
    for &(a, b) in &merged {
        // The run's in-order ops and carried writes, in order.
        let mut ops_in_order = Vec::new();
        let mut commits = Vec::new();
        guard_in_order.fill(false);
        for i in a..=b {
            let reads_rows = from[i].iter().any(|f| match *f {
                From::Carry(_) => true,
                From::Op(w) => w >= a && in_order[w],
                _ => false,
            });
            let guarded_rows = guard_of[i] != NO_COL && guard_in_order[guard_of[i] as usize];
            let reads_carry = from[i].iter().any(|f| matches!(f, From::Carry(_)));
            in_order[i] = match span[i] {
                Op::BranchIfZero { .. } | Op::BinChecked { .. } => reads_rows || guarded_rows,
                // A load's column is computed when the body order reaches
                // it, before the rows are; effects consume whole columns
                // after them, so a running value never reaches them.
                Op::LoadIdx { .. } | Op::LoadIdxWrite { .. } if reads_rows => return None,
                Op::StoreIdx { .. }
                | Op::IncIdx { .. }
                | Op::WriteStream { .. }
                | Op::WriteStream2 { .. }
                    if reads_carry =>
                {
                    return None
                }
                Op::ReadStream { .. }
                | Op::LoadIdx { .. }
                | Op::LoadIdxWrite { .. }
                | Op::StoreIdx { .. }
                | Op::IncIdx { .. }
                | Op::WriteStream { .. }
                | Op::WriteStream2 { .. } => false,
                _ => reads_rows,
            };
            if opens[i] != NO_COL {
                guard_in_order[opens[i] as usize] = in_order[i];
            }
            if in_order[i] {
                ops_in_order.push(i);
            }
            if let Some(s) = carried.iter().position(|c| c.writer as usize == i) {
                commits.push(s as u16);
            }
        }
        let valued = |i: usize| !matches!(span[i], Op::BranchIfZero { .. } | Op::BinChecked { .. });
        let (value, guard, slot) = match (&ops_in_order[..], &commits[..]) {
            (&[v], &[slot]) if valued(v) && carried[slot as usize].writer as usize == v => {
                (v, NO_COL, slot)
            }
            (&[v, g], &[slot]) => {
                // `g` must be the `BranchIfZero` opening the writer's
                // block: a delta filter (`d = x - prev; write(-d); prev =
                // x`) has two such in-order ops but updates every row.
                let w = carried[slot as usize].writer as usize;
                let fits = valued(v)
                    && opens[g] != NO_COL
                    && matches!(from[g][..], [From::Op(c)] if c == v)
                    && guard_of[g] == guard_of[v]
                    && !in_order[w]
                    && guard_of[w] == opens[g];
                if !fits {
                    return None;
                }
                (v, g as u16, slot)
            }
            _ => return None,
        };
        recs.push(Recurrence {
            last: b as u16,
            value: value as u16,
            guard,
            slot,
        });
    }

    // Pooled immediates first: registers from `num_regs` up.
    let mut invariants: Vec<u16> = from
        .iter()
        .flatten()
        .filter_map(|f| match *f {
            From::Invariant(r) => Some(r),
            _ => None,
        })
        .collect();
    invariants.sort_unstable_by_key(|&r| (r < num_regs, r));
    invariants.dedup();
    let shared = invariants.iter().filter(|&&r| r >= num_regs).count() as u16;
    let splats: Vec<(u16, u16)> = invariants
        .into_iter()
        .enumerate()
        .map(|(c, r)| (c as u16, r))
        .collect();
    let mut cols = splats.len() as u16;
    let mut next_col = || {
        cols += 1;
        cols - 1
    };
    let iota = from
        .iter()
        .flatten()
        .any(|f| matches!(f, From::Var))
        .then(&mut next_col);
    let out: Vec<u16> = span
        .iter()
        .map(|op| {
            let valued = op.dest().is_some()
                || matches!(
                    op,
                    Op::SelectWrite { .. }
                        | Op::CmpSelectWrite { .. }
                        | Op::LoadIdxWrite { .. }
                        | Op::BranchIfZero { .. }
                );
            if valued {
                next_col()
            } else {
                NO_COL
            }
        })
        .collect();
    let col_of = |f: &From| match *f {
        From::Var => iota.expect("the body reads the induction variable"),
        From::Invariant(r) => splats.iter().find(|&&(_, s)| s == r).expect("splat").0,
        From::Op(w) => out[w],
        From::Carry(r) => carried.iter().position(|c| c.reg == r).expect("carried") as u16,
    };
    let col_ops = span
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut ins = [NO_COL; 4];
            let mut carry = 0u8;
            for (s, f) in from[i].iter().enumerate() {
                ins[s] = col_of(f);
                if matches!(f, From::Carry(_)) {
                    carry |= 1 << s;
                }
            }
            ColOp {
                op: op.clone(),
                ins,
                out: out[i],
                guard: guard_of[i],
                carry,
                in_order: in_order[i],
            }
        })
        .collect();

    // Steps per row: outside every block, and per block.
    let step_of = |pc: usize| deltas[pc][STAT_STEPS] as u64;
    let mut guards: Vec<Guard> = (0..span.len())
        .filter(|&i| opens[i] != NO_COL)
        .map(|i| Guard {
            col: out[i],
            steps: 0,
        })
        .collect();
    let mut base_steps = step_of(back);
    for (i, &g) in guard_of.iter().enumerate() {
        match g {
            NO_COL => base_steps += step_of(body as usize + i),
            g => guards[g as usize].steps += step_of(body as usize + i),
        }
    }
    Some(ColLoop {
        body,
        back: back as u32,
        var,
        var_max: ty.range().1,
        hi,
        iter_steps: deltas[body as usize..=back]
            .iter()
            .map(|d| d[STAT_STEPS] as u64)
            .sum(),
        base_steps,
        cols,
        splats,
        shared,
        iota,
        ops: col_ops,
        guards,
        carried,
        recs,
        reads: ports_in,
        checks,
        writeback: writers
            .into_iter()
            .map(|(r, w)| (r, w.into_iter().map(|w| w as u16).collect()))
            .collect(),
    })
}

impl CompiledKernel {
    /// Lower a verified kernel to bytecode. The input must satisfy
    /// [`crate::verify::verify`] (which every builder-produced kernel
    /// does); name resolution relies on its guarantees.
    pub fn compile(kernel: &Kernel) -> CompiledKernel {
        Compiler::new(kernel).compile()
    }

    /// Number of bytecode instructions (for introspection/tests).
    pub fn len(&self) -> usize {
        self.lane_ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lane_ops.is_empty()
    }
}

struct Compiler<'k> {
    kernel: &'k Kernel,
    ops: Vec<Op>,
    deltas: Vec<[u32; 11]>,
    pending: StatDelta,
    regs: HashMap<String, u16>,
    tys: HashMap<String, Ty>,
    array_idx: HashMap<String, u16>,
    arrays: Vec<ArrayInfo>,
    stream_in_idx: HashMap<String, u16>,
    stream_out_idx: HashMap<String, u16>,
    next_loop_reg: u16,
    temp_base: u16,
    next_temp: u16,
    max_regs: u16,
    /// Largest op index any jump target points at so far. Cross-statement
    /// fusions (the dual-write peephole) must not merge an op into its
    /// predecessor when a branch can land between the two — the guard is
    /// `ops.len() > fuse_barrier`. Targets assigned later always point
    /// past the current end, so tracking assigned ones suffices.
    fuse_barrier: usize,
}

fn count_loops(stmts: &[Stmt]) -> u16 {
    let mut n = 0u16;
    for s in stmts {
        match s {
            Stmt::For { body, .. } => n += 1 + count_loops(body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => n += count_loops(then_body) + count_loops(else_body),
            _ => {}
        }
    }
    n
}

impl<'k> Compiler<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let mut regs = HashMap::new();
        let mut tys = HashMap::new();
        let mut next = 0u16;
        for p in kernel.params.iter().filter(|p| !p.kind.is_stream()) {
            regs.insert(p.name.clone(), next);
            tys.insert(p.name.clone(), p.ty);
            next += 1;
        }
        for l in kernel.locals.iter().filter(|l| l.len.is_none()) {
            regs.insert(l.name.clone(), next);
            tys.insert(l.name.clone(), l.ty);
            next += 1;
        }
        let mut arrays = Vec::new();
        let mut array_idx = HashMap::new();
        let mut base = 0u32;
        for l in kernel.locals.iter() {
            if let Some(len) = l.len {
                array_idx.insert(l.name.clone(), arrays.len() as u16);
                arrays.push(ArrayInfo {
                    name: l.name.clone(),
                    ty: l.ty,
                    base,
                    len,
                });
                base += len;
            }
        }
        let stream_in_idx = kernel
            .stream_inputs()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i as u16))
            .collect();
        let stream_out_idx = kernel
            .stream_outputs()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i as u16))
            .collect();
        // Loop registers (induction variable + latched bound per loop)
        // live between the named scalars and the expression temporaries.
        let n_loops = count_loops(&kernel.body);
        let temp_base = next + 2 * n_loops;
        Compiler {
            kernel,
            ops: Vec::new(),
            deltas: Vec::new(),
            pending: StatDelta::default(),
            regs,
            tys,
            array_idx,
            arrays,
            stream_in_idx,
            stream_out_idx,
            next_loop_reg: next,
            temp_base,
            next_temp: temp_base,
            max_regs: temp_base,
            fuse_barrier: 0,
        }
    }

    fn compile(mut self) -> CompiledKernel {
        let kernel = self.kernel;
        self.block(&kernel.body);
        debug_assert_eq!(
            self.pending,
            StatDelta::default(),
            "every statement flushes its pending delta"
        );
        let scalar_seed = self
            .kernel
            .params
            .iter()
            .filter(|p| !p.kind.is_stream())
            .map(|p| ScalarSlot {
                name: p.name.clone(),
                ty: p.ty,
                reg: self.regs[&p.name],
                is_input: p.kind.is_input(),
            })
            .collect();
        let scalar_outs = self
            .kernel
            .params
            .iter()
            .filter(|p| p.kind == ParamKind::ScalarOut)
            .map(|p| (p.name.clone(), self.regs[&p.name]))
            .collect();
        let steps = self
            .ops
            .iter()
            .zip(self.deltas.iter())
            .map(|(op, d)| match op {
                // Staged ops re-check `s2` of their steps in-op; the
                // dispatch-top check covers only the remainder.
                Op::IncIdx { s2, .. }
                | Op::WriteStream2 { s2, .. }
                | Op::LoadIdxWrite { s2, .. } => d[STAT_STEPS] - s2,
                _ => d[STAT_STEPS],
            })
            .collect();
        let imm_seed = pool_imms(&mut self.ops, self.max_regs);
        let col_loops: Vec<ColLoop> = (0..self.ops.len())
            .filter_map(|pc| column_loop(&self.ops, &self.deltas, &self.arrays, self.max_regs, pc))
            .collect();
        let mut col_at = vec![NO_LOOP; self.ops.len()];
        for (i, cl) in col_loops.iter().enumerate() {
            col_at[cl.body as usize] = i as u16;
        }
        CompiledKernel {
            name: self.kernel.name.clone(),
            col_loops,
            col_at,
            lane_ops: self.ops,
            lane_regs: self.max_regs + imm_seed.len() as u16,
            imm_seed,
            steps,
            deltas: self.deltas,
            num_regs: self.max_regs,
            arena_len: self.arrays.iter().map(|a| a.len).sum(),
            arrays: self.arrays,
            scalar_seed,
            scalar_outs,
            stream_ins: self
                .kernel
                .stream_inputs()
                .map(|p| p.name.clone())
                .collect(),
            stream_outs: self
                .kernel
                .stream_outputs()
                .map(|p| p.name.clone())
                .collect(),
        }
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
        self.deltas.push(self.pending.take().to_array());
    }

    /// Fold the pending delta into the last emitted op's delta. Used by
    /// the fusion peepholes, which rewrite that op in place; callers
    /// must have established that moving the pending ticks before the
    /// op is unobservable (see [`Compiler::try_fuse_store`]).
    fn absorb_pending_into_last(&mut self) {
        let p = self.pending.take().to_array();
        let slot = self.deltas.last_mut().expect("delta parallel to op");
        for (s, d) in slot.iter_mut().zip(p) {
            *s += d;
        }
    }

    /// Store fusion: point the op that produced temporary `v` at named
    /// register `dst` with `ty`'s wrap, absorbing the store's pending
    /// ticks into that op's delta.
    ///
    /// Safe only when (a) `v` is a temporary and the *last* emitted op
    /// wrote it — temporaries are written exactly once per statement, so
    /// a dst match proves the last op is the producer — and (b) moving
    /// the pending ticks from after the producer to before it is
    /// unobservable. Class counters may always move (they only surface
    /// on success); pending `steps` may cross a *pure* producer (the
    /// `StepLimit` trip point shifts past an effect-free, infallible op)
    /// but not a fallible/effectful one (`ReadStream`, `LoadIdx`,
    /// `BinChecked`), where it would reorder the `StepLimit` error
    /// against the op's effect or typed error.
    fn try_fuse_store(&mut self, dst: u16, ty: Ty, v: Src) -> bool {
        let Src::Reg(t) = v else { return false };
        if t < self.temp_base {
            return false;
        }
        let pending_steps = self.pending.steps;
        let Some(last) = self.ops.last_mut() else {
            return false;
        };
        let impure = matches!(
            last,
            Op::BinChecked { .. } | Op::LoadIdx { .. } | Op::ReadStream { .. }
        );
        let Some((d, w)) = last.dest_mut() else {
            return false;
        };
        if *d != t || impure && pending_steps != 0 {
            return false;
        }
        (*d, *w) = (dst, ty.into());
        self.absorb_pending_into_last();
        true
    }

    /// Read-modify-write fusion: `a[i] = a[i] + v` (either add operand
    /// order), where the load of the same cell and the add are the last
    /// two emitted ops, collapses to one [`Op::IncIdx`]. The load's
    /// bounds check covers the store: same array, same index operand,
    /// and the only op between them writes the add's fresh temporary,
    /// so a register index cannot have changed. Both popped deltas fold
    /// into the fused op; the ticks the interpreter performs after the
    /// load's bounds check (the add's share plus the store's pending)
    /// become the staged `s2` re-checked inside the op, so no `steps`
    /// tick moves across the bounds check in either direction.
    fn try_fuse_inc_idx(&mut self, arr: u16, idx: Src, v: Src) -> bool {
        let Src::Reg(t2) = v else { return false };
        let n = self.ops.len();
        if t2 < self.temp_base || n < 2 {
            return false;
        }
        let (
            Op::LoadIdx {
                dst: lt,
                arr: larr,
                idx: lidx,
                ..
            },
            Op::Bin {
                op: BinOp::Add,
                dst,
                a,
                b,
                ..
            },
        ) = (&self.ops[n - 2], &self.ops[n - 1])
        else {
            return false;
        };
        if *dst != t2 || *larr != arr || *lidx != idx || *lt < self.temp_base {
            return false;
        }
        let t = *lt;
        let addend = match (*a, *b) {
            (Src::Reg(r), other) if r == t => other,
            (other, Src::Reg(r)) if r == t => other,
            _ => return false,
        };
        // `a[i] + a[i]` loads twice; the second load is the matched one
        // and the first's temporary remains a valid operand. But if the
        // addend IS the matched load's temp, fusing would read a stale
        // register — bail out.
        if addend == Src::Reg(t) {
            return false;
        }
        self.ops.truncate(n - 2);
        let d_add = self.deltas.pop().expect("delta parallel to op");
        let d_load = self.deltas.pop().expect("delta parallel to op");
        let s2 = d_add[STAT_STEPS] + self.pending.steps;
        self.emit(Op::IncIdx {
            arr,
            idx,
            v: addend,
            s2,
        });
        let slot = self.deltas.last_mut().expect("just emitted");
        for (s, (dl, da)) in slot.iter_mut().zip(d_load.iter().zip(d_add.iter())) {
            *s += dl + da;
        }
        true
    }

    fn temp(&mut self) -> u16 {
        let r = self.next_temp;
        self.next_temp = self
            .next_temp
            .checked_add(1)
            .expect("register file overflow");
        if self.next_temp > self.max_regs {
            self.max_regs = self.next_temp;
        }
        r
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        self.next_temp = self.temp_base;
        self.pending.steps += 1; // exec_stmt tick
        match stmt {
            Stmt::Assign { dst, value } => {
                let v = self.expr(value);
                match dst {
                    LValue::Var(name) => {
                        self.pending.mem_writes += 1;
                        let dst = self.regs[name];
                        let ty = self.tys[name];
                        if !self.try_fuse_store(dst, ty, v) {
                            self.emit(Op::StoreVar { dst, ty, src: v });
                        }
                    }
                    LValue::Index(name, index) => {
                        let i = self.expr(index);
                        self.pending.mem_writes += 1;
                        let arr = self.array_idx[name];
                        if !self.try_fuse_inc_idx(arr, i, v) {
                            self.emit(Op::StoreIdx {
                                arr,
                                idx: i,
                                src: v,
                            });
                        }
                    }
                }
            }
            Stmt::For {
                var,
                ty,
                start,
                end,
                body,
                ..
            } => {
                let lo = self.expr(start);
                let hi = self.expr(end);
                let var_reg = self.next_loop_reg;
                let hi_reg = self.next_loop_reg + 1;
                self.next_loop_reg += 2;
                // Bounds are evaluated once on entry: a register-held
                // bound must be latched, because temporaries are reused
                // by body statements and named scalars may be reassigned
                // inside the loop.
                let (hi_src, hi_copy) = match hi {
                    Src::Imm(v) => (Src::Imm(v), None),
                    Src::Reg(_) => (Src::Reg(hi_reg), Some((hi_reg, hi))),
                };
                self.emit(Op::LoopInit {
                    var: var_reg,
                    ty: *ty,
                    lo,
                    hi_copy,
                });
                let head = self.ops.len() as u32;
                self.emit(Op::LoopHead {
                    var: var_reg,
                    hi: hi_src,
                    exit: u32::MAX, // patched below
                });
                let head_idx = self.ops.len() - 1;
                self.fuse_barrier = self.ops.len(); // back-edge target
                let shadowed = self.regs.insert(var.clone(), var_reg);
                let shadowed_ty = self.tys.insert(var.clone(), *ty);
                self.block(body);
                match shadowed {
                    Some(r) => {
                        self.regs.insert(var.clone(), r);
                    }
                    None => {
                        self.regs.remove(var);
                    }
                }
                match shadowed_ty {
                    Some(t) => {
                        self.tys.insert(var.clone(), t);
                    }
                    None => {
                        self.tys.remove(var);
                    }
                }
                self.emit(Op::LoopBack {
                    var: var_reg,
                    ty: *ty,
                    hi: hi_src,
                    body: head + 1,
                });
                let exit = self.ops.len() as u32;
                if let Op::LoopHead { exit: e, .. } = &mut self.ops[head_idx] {
                    *e = exit;
                }
                self.fuse_barrier = self.ops.len();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond);
                self.pending.branches += 1;
                let branch_idx = self.ops.len();
                self.emit(Op::BranchIfZero {
                    cond: c,
                    target: u32::MAX, // patched below
                });
                self.block(then_body);
                if else_body.is_empty() {
                    let end = self.ops.len() as u32;
                    if let Op::BranchIfZero { target, .. } = &mut self.ops[branch_idx] {
                        *target = end;
                    }
                } else {
                    let jump_idx = self.ops.len();
                    self.emit(Op::Jump { target: u32::MAX });
                    let else_start = self.ops.len() as u32;
                    if let Op::BranchIfZero { target, .. } = &mut self.ops[branch_idx] {
                        *target = else_start;
                    }
                    self.block(else_body);
                    let end = self.ops.len() as u32;
                    if let Op::Jump { target } = &mut self.ops[jump_idx] {
                        *target = end;
                    }
                }
                self.fuse_barrier = self.ops.len();
            }
            Stmt::StreamWrite { port, value } => {
                let v = self.expr(value);
                self.pending.stream_writes += 1;
                let port = self.stream_out_idx[port];
                // Dual-write fusion: two consecutive write statements
                // collapse into one dispatch when no jump target can
                // land between them (the barrier tracks control-flow
                // joins). No op was emitted since the first write —
                // expressions never emit writes — so its operand is
                // unchanged; the second statement's ticks become the
                // staged `s2` checked between the pushes.
                if self.ops.len() > self.fuse_barrier {
                    if let Some(Op::WriteStream { port: p0, src: s0 }) = self.ops.last() {
                        let (p0, s0) = (*p0, *s0);
                        let s2 = self.pending.steps;
                        *self.ops.last_mut().expect("just matched") = Op::WriteStream2 {
                            port_a: p0,
                            src_a: s0,
                            port_b: port,
                            src_b: v,
                            s2,
                        };
                        self.absorb_pending_into_last();
                        return;
                    }
                }
                // Write fusion: a select whose result is pushed straight
                // to a stream skips the intermediate register. Both
                // select forms are pure, so the delta absorb is safe;
                // stream writes push the raw (unwrapped) value, matching
                // the interpreter. A load feeding a write fuses too, with
                // its write ticks staged after the bounds check.
                if let Src::Reg(t) = v {
                    if t >= self.temp_base {
                        match self.ops.last() {
                            Some(Op::Select { dst, c, a, b, .. }) if *dst == t => {
                                let (c, a, b) = (*c, *a, *b);
                                *self.ops.last_mut().expect("just matched") =
                                    Op::SelectWrite { port, c, a, b };
                                self.absorb_pending_into_last();
                                return;
                            }
                            Some(Op::CmpSelect {
                                op,
                                dst,
                                x,
                                y,
                                a,
                                b,
                                ..
                            }) if *dst == t => {
                                let (op, x, y, a, b) = (*op, *x, *y, *a, *b);
                                *self.ops.last_mut().expect("just matched") = Op::CmpSelectWrite {
                                    op,
                                    port,
                                    x,
                                    y,
                                    a,
                                    b,
                                };
                                self.absorb_pending_into_last();
                                return;
                            }
                            Some(Op::LoadIdx { dst, arr, idx, .. }) if *dst == t => {
                                let (arr, idx) = (*arr, *idx);
                                let s2 = self.pending.steps;
                                *self.ops.last_mut().expect("just matched") =
                                    Op::LoadIdxWrite { arr, idx, port, s2 };
                                self.absorb_pending_into_last();
                                return;
                            }
                            _ => {}
                        }
                    }
                }
                self.emit(Op::WriteStream { port, src: v });
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Src {
        self.pending.steps += 1; // eval() tick for this node
        match e {
            Expr::Const(v) => Src::Imm(*v),
            Expr::Var(name) => {
                self.pending.mem_reads += 1;
                Src::Reg(self.regs[name])
            }
            Expr::Index(name, index) => {
                let idx = self.expr(index);
                self.pending.mem_reads += 1;
                let arr = self.array_idx[name];
                let dst = self.temp();
                self.emit(Op::LoadIdx {
                    dst,
                    w: Wrap::RAW,
                    arr,
                    idx,
                });
                Src::Reg(dst)
            }
            Expr::Unary(op, a) => {
                let av = self.expr(a);
                self.pending.bitops += 1;
                if let Src::Imm(v) = av {
                    return Src::Imm(un_op(*op, v));
                }
                let dst = self.temp();
                self.emit(Op::Un {
                    op: *op,
                    dst,
                    w: Wrap::RAW,
                    a: av,
                });
                Src::Reg(dst)
            }
            Expr::Binary(op, a, b) => {
                let av = self.expr(a);
                let bv = self.expr(b);
                self.binop(*op, av, bv)
            }
            Expr::StreamRead(port) => {
                self.pending.stream_reads += 1;
                let port = self.stream_in_idx[port];
                let dst = self.temp();
                self.emit(Op::ReadStream {
                    dst,
                    w: Wrap::RAW,
                    port,
                });
                Src::Reg(dst)
            }
            Expr::Select(c0, a, b) => {
                // Mux semantics: all three operands are evaluated (and
                // their ops already emitted), then one value is chosen.
                let cv = self.expr(c0);
                let av = self.expr(a);
                let bv = self.expr(b);
                self.pending.compares += 1;
                if let Src::Imm(c) = cv {
                    return if c != 0 { av } else { bv };
                }
                // Fused compare-select: the condition is the 0/1 result
                // of the comparison just emitted (pure, so the delta
                // absorb is safe). The arms' temps are distinct from the
                // condition's by construction — each expr node gets a
                // fresh temp — so dropping the materialized 0/1 value
                // cannot be observed.
                if let Src::Reg(t) = cv {
                    if t >= self.temp_base {
                        if let Some(Op::Bin {
                            op,
                            dst,
                            w,
                            a: x,
                            b: y,
                        }) = self.ops.last()
                        {
                            use BinOp::*;
                            if *dst == t && matches!(op, Lt | Le | Gt | Ge | Eq | Ne) {
                                let (op, dst, w, x, y) = (*op, *dst, *w, *x, *y);
                                debug_assert!(av != cv && bv != cv);
                                *self.ops.last_mut().expect("just matched") = Op::CmpSelect {
                                    op,
                                    dst,
                                    w,
                                    x,
                                    y,
                                    a: av,
                                    b: bv,
                                };
                                self.absorb_pending_into_last();
                                return Src::Reg(dst);
                            }
                        }
                    }
                }
                let dst = self.temp();
                self.emit(Op::Select {
                    dst,
                    w: Wrap::RAW,
                    c: cv,
                    a: av,
                    b: bv,
                });
                Src::Reg(dst)
            }
        }
    }

    /// Emit (or fold) one binary operation. The source-level class
    /// counter always tallies, folded or not.
    fn binop(&mut self, op: BinOp, a: Src, b: Src) -> Src {
        use BinOp::*;
        use Src::Imm;
        match op {
            Add | Sub => self.pending.adds += 1,
            Mul => self.pending.muls += 1,
            Div | Mod => self.pending.divs += 1,
            Shl | Shr | And | Or | Xor => self.pending.bitops += 1,
            Lt | Le | Gt | Ge | Eq | Ne => self.pending.compares += 1,
        }
        let checked = matches!(op, Div | Mod | Shl | Shr);
        // Constant folding through the VM's own op helpers — unless the
        // op fails on these exact values (a constant division by zero or
        // out-of-range shift must still raise its typed error at runtime).
        if let (Imm(x), Imm(y)) = (a, b) {
            let folded = if checked {
                bin_checked(op, x, y).ok()
            } else {
                Some(bin_infallible(op, x, y))
            };
            if let Some(v) = folded {
                return Imm(v);
            }
        }
        // Identity elimination: the surviving operand's ops (and side
        // effects) are already emitted; only the combining op vanishes.
        match (op, a, b) {
            (Add, x, Imm(0)) | (Add, Imm(0), x) | (Sub, x, Imm(0)) => return x,
            (Mul, _, Imm(0)) | (Mul, Imm(0), _) => return Imm(0),
            (Mul, x, Imm(1)) | (Mul, Imm(1), x) => return x,
            (Div, x, Imm(1)) => return x,
            (Mod, _, Imm(1)) => return Imm(0),
            (Shl, x, Imm(0)) | (Shr, x, Imm(0)) => return x,
            (And, _, Imm(0)) | (And, Imm(0), _) => return Imm(0),
            (And, x, Imm(-1)) | (And, Imm(-1), x) => return x,
            (Or, x, Imm(0)) | (Or, Imm(0), x) => return x,
            (Or, _, Imm(-1)) | (Or, Imm(-1), _) => return Imm(-1),
            (Xor, x, Imm(0)) | (Xor, Imm(0), x) => return x,
            _ => {}
        }
        // Fused byte-extract: `(v >> k) & mask` where the shift is the
        // op just emitted. The shift is pure, so absorbing the pending
        // ticks (the mask constant's eval, this `And`'s class tick) into
        // it is unobservable.
        if op == And {
            let rm = match (a, b) {
                (Src::Reg(t), Imm(m)) | (Imm(m), Src::Reg(t)) => Some((t, m)),
                _ => None,
            };
            if let Some((t, m)) = rm {
                if t >= self.temp_base {
                    if let Some(Op::ShrImm {
                        dst,
                        w,
                        a: inner,
                        k,
                    }) = self.ops.last()
                    {
                        if *dst == t {
                            let (dst, w, inner, k) = (*dst, *w, *inner, *k);
                            *self.ops.last_mut().expect("just matched") = Op::ShrAnd {
                                dst,
                                w,
                                a: inner,
                                k,
                                mask: m,
                            };
                            self.absorb_pending_into_last();
                            return Src::Reg(dst);
                        }
                    }
                }
            }
        }
        // Fused multiply-accumulate: `x + (p * q)` (either operand
        // order) where the multiply is the op just emitted. Wrapping
        // `+`/`*` compose associatively, so folding is bit-identical;
        // the multiply is pure, so the delta absorb is safe.
        if op == Add {
            for (prod, acc) in [(b, a), (a, b)] {
                if let Src::Reg(t) = prod {
                    if t >= self.temp_base {
                        if let Some(Op::Bin {
                            op: Mul,
                            dst,
                            w,
                            a: ma,
                            b: mb,
                        }) = self.ops.last()
                        {
                            if *dst == t {
                                let (dst, w, ma, mb) = (*dst, *w, *ma, *mb);
                                *self.ops.last_mut().expect("just matched") = Op::MulAcc {
                                    dst,
                                    w,
                                    a: ma,
                                    b: mb,
                                    acc,
                                };
                                self.absorb_pending_into_last();
                                return Src::Reg(dst);
                            }
                        }
                    }
                }
            }
        }
        // Strength reduction for power-of-two constants (`d == 1` was
        // handled by the identities above), and infallible immediate
        // shifts for in-range constant amounts (`0` was eliminated above;
        // out-of-range constants keep the checked op for its error).
        let pow2 = |v: i64| v > 0 && v & (v - 1) == 0;
        let log2 = |v: i64| v.trailing_zeros() as u8;
        let (dst, w) = (self.temp(), Wrap::RAW);
        self.emit(match (op, a, b) {
            (Mul, a, Imm(d)) if pow2(d) => Op::ShlPow2 {
                dst,
                w,
                a,
                k: log2(d),
            },
            (Div, a, Imm(d)) if pow2(d) => Op::DivPow2 {
                dst,
                w,
                a,
                k: log2(d),
            },
            (Mod, a, Imm(d)) if pow2(d) => Op::ModPow2 {
                dst,
                w,
                a,
                k: log2(d),
            },
            (Mul, Imm(m), b) if pow2(m) => Op::ShlPow2 {
                dst,
                w,
                a: b,
                k: log2(m),
            },
            (Shl, a, Imm(s)) if (0..64).contains(&s) => Op::ShlPow2 {
                dst,
                w,
                a,
                k: s as u8,
            },
            (Shr, a, Imm(s)) if (0..64).contains(&s) => Op::ShrImm {
                dst,
                w,
                a,
                k: s as u8,
            },
            _ if checked => Op::BinChecked { op, dst, w, a, b },
            _ => Op::Bin { op, dst, w, a, b },
        });
        Src::Reg(dst)
    }
}
