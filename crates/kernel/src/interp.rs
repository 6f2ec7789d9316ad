//! Kernel interpreter — the analogue of HLS "C simulation".
//!
//! The same functional model later animates the accelerators inside the
//! platform simulator, which is how we can check that every generated
//! architecture computes pixel-identical results to the software reference.

use crate::ir::{BinOp, Expr, Kernel, LValue, Stmt, UnOp};
use crate::types::Ty;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Stream state surrounding one kernel invocation: input queues the kernel
/// may consume and output vectors it appends to.
///
/// Storage is insertion-ordered and index-addressable: the compiled-kernel
/// VM resolves each port name to a slot index once per run and then moves
/// tokens by index, while the original string-keyed API (`feed` / `output`
/// / `pipe`) survives as a thin wrapper that only allocates when a port is
/// seen for the first time. A bundle reused across invocations
/// ([`StreamBundle::clear`], [`StreamBundle::take_output_into`]) keeps
/// its ports and buffers, so a steady stream of same-sized invocations
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct StreamBundle {
    inputs: Vec<(String, VecDeque<i64>)>,
    outputs: Vec<(String, Vec<i64>)>,
}

impl StreamBundle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Preload an input stream with tokens.
    pub fn feed<I: IntoIterator<Item = i64>>(&mut self, port: &str, tokens: I) {
        match self.input_index(port) {
            Some(i) => self.inputs[i].1.extend(tokens),
            None => self
                .inputs
                .push((port.to_string(), tokens.into_iter().collect())),
        }
    }

    /// Move `tokens` onto the end of input `port`, leaving `tokens`
    /// empty. When the port's queue is empty (or the port is new) the
    /// two buffers trade places instead of copying, so a caller that
    /// feeds the same port from the same buffer phase after phase keeps
    /// both buffers and allocates nothing.
    pub fn feed_from(&mut self, port: &str, tokens: &mut Vec<i64>) {
        match self.input_index(port) {
            Some(i) if self.inputs[i].1.is_empty() => {
                let queue = std::mem::take(&mut self.inputs[i].1);
                let fed = std::mem::replace(tokens, Vec::from(queue));
                self.inputs[i].1 = VecDeque::from(fed);
            }
            Some(i) => self.inputs[i].1.extend(tokens.drain(..)),
            None => self
                .inputs
                .push((port.to_string(), VecDeque::from(std::mem::take(tokens)))),
        }
    }

    pub fn output(&self, port: &str) -> &[i64] {
        self.outputs
            .iter()
            .find(|(p, _)| p == port)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Move an output of one kernel to the input of a later one (software
    /// emulation of a stream link).
    pub fn pipe(&mut self, from_port: &str, into: &mut StreamBundle, to_port: &str) {
        if let Some(tokens) = self.take_output(from_port) {
            into.feed(to_port, tokens);
        }
    }

    /// Remove an output port's tokens, if the port has produced any.
    pub fn take_output(&mut self, port: &str) -> Option<Vec<i64>> {
        let i = self.outputs.iter().position(|(p, _)| p == port)?;
        Some(self.outputs.remove(i).1)
    }

    /// Empty every input and output stream, keeping each port and its
    /// buffer's capacity for the next invocation. A cleared port behaves
    /// like an absent one: an empty input underflows on its first read,
    /// and an empty output reads as `&[]`.
    pub fn clear(&mut self) {
        self.inputs.iter_mut().for_each(|(_, q)| q.clear());
        self.outputs.iter_mut().for_each(|(_, v)| v.clear());
    }

    /// Move an output port's tokens onto the end of `dest`, keeping the
    /// port and a buffer in the bundle; returns how many moved (0 for a
    /// port that has produced nothing). When `dest` is empty the two
    /// buffers trade places instead of copying.
    pub fn take_output_into(&mut self, port: &str, dest: &mut Vec<i64>) -> usize {
        let Some((_, v)) = self.outputs.iter_mut().find(|(p, _)| p == port) else {
            return 0;
        };
        let n = v.len();
        if dest.is_empty() {
            std::mem::swap(dest, v);
        } else {
            dest.append(v);
        }
        n
    }

    /// Slot index of an input port, if it exists. Indices stay valid for
    /// the duration of a kernel run (inputs are only drained, never
    /// removed).
    pub fn input_index(&self, port: &str) -> Option<usize> {
        self.inputs.iter().position(|(p, _)| p == port)
    }

    /// Slot index of an output port, creating an empty entry if absent.
    pub fn ensure_output(&mut self, port: &str) -> usize {
        match self.outputs.iter().position(|(p, _)| p == port) {
            Some(i) => i,
            None => {
                self.outputs.push((port.to_string(), Vec::new()));
                self.outputs.len() - 1
            }
        }
    }

    /// Pop the next token of the input slot at `idx`.
    #[inline]
    pub fn pop_input_at(&mut self, idx: usize) -> Option<i64> {
        self.inputs[idx].1.pop_front()
    }

    /// Contiguous snapshot of the input queue at `idx`. The VM reads
    /// tokens through a snapshot + cursor and commits the consumption
    /// once per run via [`StreamBundle::drain_input_at`], instead of
    /// popping through the bundle on every token.
    pub fn input_snapshot_at(&self, idx: usize) -> Vec<i64> {
        let q = &self.inputs[idx].1;
        let (a, b) = q.as_slices();
        let mut v = Vec::with_capacity(q.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        v
    }

    /// Append a snapshot of the input queue at `idx` onto `out` — the
    /// same tokens as [`StreamBundle::input_snapshot_at`], without the
    /// intermediate allocation. The batch-lane VM packs every lane's
    /// snapshot into one contiguous arena this way.
    pub fn input_snapshot_into(&self, idx: usize, out: &mut Vec<i64>) {
        let q = &self.inputs[idx].1;
        let (a, b) = q.as_slices();
        out.reserve(q.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b);
    }

    /// Drop the first `n` tokens of the input slot at `idx` (commit of a
    /// snapshot-cursor read position).
    pub fn drain_input_at(&mut self, idx: usize, n: usize) {
        self.inputs[idx].1.drain(..n);
    }

    /// Append a batch of tokens to the output slot at `idx`.
    pub fn extend_output_at(&mut self, idx: usize, tokens: &[i64]) {
        self.outputs[idx].1.extend_from_slice(tokens);
    }

    /// Append a token to the output slot at `idx`.
    #[inline]
    pub fn push_output_at(&mut self, idx: usize, v: i64) {
        self.outputs[idx].1.push(v);
    }

    /// Pop the next token of `port` (string-keyed interpreter path).
    pub fn pop_input(&mut self, port: &str) -> Option<i64> {
        let i = self.input_index(port)?;
        self.pop_input_at(i)
    }

    /// Append a token to `port`, creating the entry if absent
    /// (string-keyed interpreter path).
    pub fn push_output(&mut self, port: &str, v: i64) {
        let i = self.ensure_output(port);
        self.push_output_at(i, v);
    }

    /// Tokens currently queued across all input ports.
    pub fn input_tokens(&self) -> u64 {
        self.inputs.iter().map(|(_, q)| q.len() as u64).sum()
    }

    /// Tokens produced so far across all output ports.
    pub fn output_tokens(&self) -> u64 {
        self.outputs.iter().map(|(_, v)| v.len() as u64).sum()
    }

    /// The queue behind an input port, if the port exists.
    pub fn input_queue(&self, port: &str) -> Option<&VecDeque<i64>> {
        self.inputs.iter().find(|(p, _)| p == port).map(|(_, q)| q)
    }

    /// Output ports in insertion order with their tokens.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, &[i64])> {
        self.outputs.iter().map(|(p, v)| (p.as_str(), v.as_slice()))
    }
}

/// Dynamic operation counters, used to calibrate both the HLS estimates and
/// the CPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Interpreter steps executed (statements + expression nodes).
    pub steps: u64,
    pub adds: u64,
    pub muls: u64,
    pub divs: u64,
    pub compares: u64,
    pub bitops: u64,
    pub mem_reads: u64,
    pub mem_writes: u64,
    pub stream_reads: u64,
    pub stream_writes: u64,
    pub branches: u64,
}

impl ExecStats {
    /// Total arithmetic operations.
    pub fn total_ops(&self) -> u64 {
        self.adds + self.muls + self.divs + self.compares + self.bitops
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    MissingScalarInput(String),
    StreamUnderflow(String),
    DivideByZero,
    OutOfBounds { array: String, index: i64, len: u32 },
    ShiftOutOfRange(i64),
    StepLimit(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingScalarInput(p) => write!(f, "missing scalar input `{p}`"),
            ExecError::StreamUnderflow(p) => {
                write!(
                    f,
                    "stream `{p}` underflow: kernel read past available tokens"
                )
            }
            ExecError::DivideByZero => write!(f, "division by zero"),
            ExecError::OutOfBounds { array, index, len } => {
                write!(f, "array `{array}` index {index} out of bounds (len {len})")
            }
            ExecError::ShiftOutOfRange(s) => write!(f, "shift amount {s} out of range"),
            ExecError::StepLimit(l) => write!(f, "step limit {l} exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of running a kernel once.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub scalar_outputs: HashMap<String, i64>,
    pub stats: ExecStats,
}

enum Slot {
    Scalar(Ty, i64),
    Array(Ty, Vec<i64>),
}

/// Interprets one kernel invocation.
pub struct Interpreter<'k> {
    kernel: &'k Kernel,
    step_limit: u64,
}

impl<'k> Interpreter<'k> {
    pub fn new(kernel: &'k Kernel) -> Self {
        Interpreter {
            kernel,
            step_limit: 500_000_000,
        }
    }

    pub fn with_step_limit(kernel: &'k Kernel, step_limit: u64) -> Self {
        Interpreter { kernel, step_limit }
    }

    /// Execute the kernel with the given scalar inputs and stream state.
    pub fn run(
        &self,
        scalar_inputs: &HashMap<String, i64>,
        streams: &mut StreamBundle,
    ) -> Result<ExecOutcome, ExecError> {
        let mut env: HashMap<String, Slot> = HashMap::new();
        for p in self.kernel.params.iter().filter(|p| !p.kind.is_stream()) {
            let v = if p.kind.is_input() {
                *scalar_inputs
                    .get(&p.name)
                    .ok_or_else(|| ExecError::MissingScalarInput(p.name.clone()))?
            } else {
                0
            };
            env.insert(p.name.clone(), Slot::Scalar(p.ty, p.ty.wrap(v)));
        }
        for l in &self.kernel.locals {
            let slot = match l.len {
                None => Slot::Scalar(l.ty, 0),
                Some(n) => Slot::Array(l.ty, vec![0; n as usize]),
            };
            env.insert(l.name.clone(), slot);
        }
        for p in self.kernel.stream_outputs() {
            streams.ensure_output(&p.name);
        }

        let mut st = State {
            env,
            streams,
            stats: ExecStats::default(),
            limit: self.step_limit,
        };
        exec_block(&mut st, &self.kernel.body)?;

        let mut scalar_outputs = HashMap::new();
        for p in self
            .kernel
            .params
            .iter()
            .filter(|p| p.kind == crate::ir::ParamKind::ScalarOut)
        {
            if let Some(Slot::Scalar(_, v)) = st.env.get(&p.name) {
                scalar_outputs.insert(p.name.clone(), *v);
            }
        }
        Ok(ExecOutcome {
            scalar_outputs,
            stats: st.stats,
        })
    }
}

struct State<'a> {
    env: HashMap<String, Slot>,
    streams: &'a mut StreamBundle,
    stats: ExecStats,
    limit: u64,
}

impl State<'_> {
    fn tick(&mut self) -> Result<(), ExecError> {
        self.stats.steps += 1;
        if self.stats.steps > self.limit {
            Err(ExecError::StepLimit(self.limit))
        } else {
            Ok(())
        }
    }
}

fn exec_block(st: &mut State, stmts: &[Stmt]) -> Result<(), ExecError> {
    for s in stmts {
        exec_stmt(st, s)?;
    }
    Ok(())
}

fn exec_stmt(st: &mut State, stmt: &Stmt) -> Result<(), ExecError> {
    st.tick()?;
    match stmt {
        Stmt::Assign { dst, value } => {
            let v = eval(st, value)?;
            match dst {
                LValue::Var(name) => {
                    st.stats.mem_writes += 1;
                    if let Some(Slot::Scalar(ty, slot)) = st.env.get_mut(name) {
                        *slot = ty.wrap(v);
                    }
                }
                LValue::Index(name, index) => {
                    let i = eval(st, index)?;
                    st.stats.mem_writes += 1;
                    if let Some(Slot::Array(ty, data)) = st.env.get_mut(name) {
                        let len = data.len() as u32;
                        if i < 0 || i as usize >= data.len() {
                            return Err(ExecError::OutOfBounds {
                                array: name.clone(),
                                index: i,
                                len,
                            });
                        }
                        data[i as usize] = ty.wrap(v);
                    }
                }
            }
            Ok(())
        }
        Stmt::For {
            var,
            ty,
            start,
            end,
            body,
            ..
        } => {
            let lo = ty.wrap(eval(st, start)?);
            let hi = eval(st, end)?;
            st.env.insert(var.clone(), Slot::Scalar(*ty, lo));
            let mut i = lo;
            while i < hi {
                if let Some(Slot::Scalar(_, v)) = st.env.get_mut(var) {
                    *v = i;
                }
                st.stats.branches += 1;
                exec_block(st, body)?;
                i = ty.wrap(i.wrapping_add(1));
            }
            st.env.remove(var);
            Ok(())
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let cv = eval(st, cond)?;
            st.stats.branches += 1;
            if cv != 0 {
                exec_block(st, then_body)
            } else {
                exec_block(st, else_body)
            }
        }
        Stmt::StreamWrite { port, value } => {
            let v = eval(st, value)?;
            st.stats.stream_writes += 1;
            st.streams.push_output(port, v);
            Ok(())
        }
    }
}

fn eval(st: &mut State, e: &Expr) -> Result<i64, ExecError> {
    st.tick()?;
    match e {
        Expr::Const(v) => Ok(*v),
        Expr::Var(name) => {
            st.stats.mem_reads += 1;
            match st.env.get(name) {
                Some(Slot::Scalar(_, v)) => Ok(*v),
                _ => unreachable!("verifier guarantees `{name}` is a scalar"),
            }
        }
        Expr::Index(name, index) => {
            let i = eval(st, index)?;
            st.stats.mem_reads += 1;
            match st.env.get(name) {
                Some(Slot::Array(_, data)) => {
                    if i < 0 || i as usize >= data.len() {
                        Err(ExecError::OutOfBounds {
                            array: name.clone(),
                            index: i,
                            len: data.len() as u32,
                        })
                    } else {
                        Ok(data[i as usize])
                    }
                }
                _ => unreachable!("verifier guarantees `{name}` is an array"),
            }
        }
        Expr::Unary(op, a) => {
            let av = eval(st, a)?;
            st.stats.bitops += 1;
            Ok(match op {
                UnOp::Neg => av.wrapping_neg(),
                UnOp::Not => !av,
            })
        }
        Expr::Binary(op, a, b) => {
            let av = eval(st, a)?;
            let bv = eval(st, b)?;
            apply_binop(st, *op, av, bv)
        }
        Expr::StreamRead(port) => {
            st.stats.stream_reads += 1;
            st.streams
                .pop_input(port)
                .ok_or_else(|| ExecError::StreamUnderflow(port.clone()))
        }
        Expr::Select(c0, a, b) => {
            // Mux semantics: all three evaluated.
            let cv = eval(st, c0)?;
            let av = eval(st, a)?;
            let bv = eval(st, b)?;
            st.stats.compares += 1;
            Ok(if cv != 0 { av } else { bv })
        }
    }
}

fn apply_binop(st: &mut State, op: BinOp, a: i64, b: i64) -> Result<i64, ExecError> {
    use BinOp::*;
    let v = match op {
        Add => {
            st.stats.adds += 1;
            a.wrapping_add(b)
        }
        Sub => {
            st.stats.adds += 1;
            a.wrapping_sub(b)
        }
        Mul => {
            st.stats.muls += 1;
            a.wrapping_mul(b)
        }
        Div => {
            st.stats.divs += 1;
            if b == 0 {
                return Err(ExecError::DivideByZero);
            }
            a.wrapping_div(b)
        }
        Mod => {
            st.stats.divs += 1;
            if b == 0 {
                return Err(ExecError::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        Shl | Shr => {
            st.stats.bitops += 1;
            if !(0..64).contains(&b) {
                return Err(ExecError::ShiftOutOfRange(b));
            }
            if op == Shl {
                a.wrapping_shl(b as u32)
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        And => {
            st.stats.bitops += 1;
            a & b
        }
        Or => {
            st.stats.bitops += 1;
            a | b
        }
        Xor => {
            st.stats.bitops += 1;
            a ^ b
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            st.stats.compares += 1;
            let r = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                Eq => a == b,
                _ => a != b,
            };
            r as i64
        }
    };
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::types::Ty;

    fn run_scalars(k: &Kernel, ins: &[(&str, i64)]) -> HashMap<String, i64> {
        let inputs: HashMap<String, i64> = ins.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let mut streams = StreamBundle::new();
        Interpreter::new(k)
            .run(&inputs, &mut streams)
            .unwrap()
            .scalar_outputs
    }

    #[test]
    fn scalar_adder() {
        let k = KernelBuilder::new("add")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("ret", Ty::U32)
            .push(assign("ret", add(var("a"), var("b"))))
            .build();
        let out = run_scalars(&k, &[("a", 40), ("b", 2)]);
        assert_eq!(out["ret"], 42);
    }

    #[test]
    fn wrapping_semantics_on_assignment() {
        let k = KernelBuilder::new("wrap")
            .scalar_in("a", Ty::U8)
            .scalar_out("ret", Ty::U8)
            .push(assign("ret", add(var("a"), c(1))))
            .build();
        let out = run_scalars(&k, &[("a", 255)]);
        assert_eq!(out["ret"], 0);
    }

    #[test]
    fn stream_copy_kernel() {
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
        let mut streams = StreamBundle::new();
        streams.feed("in", [1, 2, 3, 4]);
        let inputs = HashMap::from([("n".to_string(), 4i64)]);
        let outcome = Interpreter::new(&k).run(&inputs, &mut streams).unwrap();
        assert_eq!(streams.output("out"), &[1, 2, 3, 4]);
        assert_eq!(outcome.stats.stream_reads, 4);
        assert_eq!(outcome.stats.stream_writes, 4);
    }

    #[test]
    fn stream_underflow_detected() {
        let k = KernelBuilder::new("over")
            .scalar_in("n", Ty::U32)
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .push(for_("i", c(0), var("n"), vec![write("out", read("in"))]))
            .build();
        let mut streams = StreamBundle::new();
        streams.feed("in", [1, 2]);
        let inputs = HashMap::from([("n".to_string(), 3i64)]);
        let err = Interpreter::new(&k).run(&inputs, &mut streams).unwrap_err();
        assert_eq!(err, ExecError::StreamUnderflow("in".into()));
    }

    #[test]
    fn histogram_via_array() {
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
        let mut streams = StreamBundle::new();
        streams.feed("px", [0, 1, 1, 7, 7, 7]);
        let inputs = HashMap::from([("n".to_string(), 6i64)]);
        Interpreter::new(&k).run(&inputs, &mut streams).unwrap();
        assert_eq!(streams.output("hist"), &[1, 2, 0, 0, 0, 0, 0, 3]);
    }

    #[test]
    fn division_by_zero_detected() {
        let k = KernelBuilder::new("divz")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", div(var("a"), var("b"))))
            .build();
        let inputs = HashMap::from([("a".to_string(), 1i64), ("b".to_string(), 0i64)]);
        let mut s = StreamBundle::new();
        assert_eq!(
            Interpreter::new(&k).run(&inputs, &mut s).unwrap_err(),
            ExecError::DivideByZero
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let k = KernelBuilder::new("oob")
            .scalar_in("i", Ty::U32)
            .scalar_out("r", Ty::U32)
            .array("a", Ty::U32, 4)
            .push(assign("r", idx("a", var("i"))))
            .build();
        let inputs = HashMap::from([("i".to_string(), 9i64)]);
        let mut s = StreamBundle::new();
        let err = Interpreter::new(&k).run(&inputs, &mut s).unwrap_err();
        assert_eq!(
            err,
            ExecError::OutOfBounds {
                array: "a".into(),
                index: 9,
                len: 4
            }
        );
    }

    #[test]
    fn step_limit_halts_runaway_loop() {
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
        let mut s = StreamBundle::new();
        let err = Interpreter::with_step_limit(&k, 1000)
            .run(&HashMap::new(), &mut s)
            .unwrap_err();
        assert!(matches!(err, ExecError::StepLimit(1000)));
    }

    #[test]
    fn select_and_compare() {
        let k = KernelBuilder::new("max")
            .scalar_in("a", Ty::I32)
            .scalar_in("b", Ty::I32)
            .scalar_out("m", Ty::I32)
            .push(assign(
                "m",
                select(gt(var("a"), var("b")), var("a"), var("b")),
            ))
            .build();
        assert_eq!(run_scalars(&k, &[("a", -5), ("b", 3)])["m"], 3);
        assert_eq!(run_scalars(&k, &[("a", 7), ("b", 3)])["m"], 7);
    }

    #[test]
    fn missing_scalar_input_detected() {
        let k = KernelBuilder::new("needs_a")
            .scalar_in("a", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", var("a")))
            .build();
        let mut s = StreamBundle::new();
        assert_eq!(
            Interpreter::new(&k)
                .run(&HashMap::new(), &mut s)
                .unwrap_err(),
            ExecError::MissingScalarInput("a".into())
        );
    }

    #[test]
    fn stats_count_op_classes() {
        let k = KernelBuilder::new("ops")
            .scalar_in("a", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", mul(add(var("a"), c(1)), sub(var("a"), c(1)))))
            .build();
        let inputs = HashMap::from([("a".to_string(), 5i64)]);
        let mut s = StreamBundle::new();
        let out = Interpreter::new(&k).run(&inputs, &mut s).unwrap();
        assert_eq!(out.stats.muls, 1);
        assert_eq!(out.stats.adds, 2); // add + sub share the adder counter
        assert_eq!(out.scalar_outputs["r"], 24);
    }

    #[test]
    fn pipe_moves_tokens_between_bundles() {
        let mut a = StreamBundle::new();
        for v in [1, 2, 3] {
            a.push_output("out", v);
        }
        let mut b = StreamBundle::new();
        a.pipe("out", &mut b, "in");
        assert_eq!(b.input_queue("in").unwrap(), &VecDeque::from([1, 2, 3]));
        assert!(a.take_output("out").is_none());
    }

    #[test]
    fn feed_from_trades_buffers_into_an_empty_queue() {
        let mut s = StreamBundle::new();
        let mut tokens = vec![1, 2, 3];
        let fed = tokens.as_ptr();
        s.feed_from("in", &mut tokens);
        assert!(tokens.is_empty());
        assert_eq!(s.input_queue("in").unwrap().as_slices().0.as_ptr(), fed);
        // A queue that still holds tokens takes the new ones behind them
        // and leaves the caller its buffer.
        tokens.extend([4, 5]);
        let kept = tokens.as_ptr();
        s.feed_from("in", &mut tokens);
        assert_eq!(
            s.input_queue("in").unwrap(),
            &VecDeque::from([1, 2, 3, 4, 5])
        );
        assert!(tokens.is_empty());
        assert_eq!(tokens.as_ptr(), kept);
        // Drained and fed again: the caller gets the queue's buffer back.
        let queue = s.input_queue("in").unwrap().as_slices().0.as_ptr();
        s.clear();
        tokens.extend([6]);
        s.feed_from("in", &mut tokens);
        assert_eq!(s.pop_input("in"), Some(6));
        assert_eq!(tokens.as_ptr(), queue);
        assert!(tokens.capacity() >= 5);
    }

    #[test]
    fn slot_indices_address_streams_without_lookups() {
        let mut s = StreamBundle::new();
        s.feed("in", [10, 20]);
        let i = s.input_index("in").unwrap();
        let o = s.ensure_output("out");
        assert_eq!(s.pop_input_at(i), Some(10));
        s.push_output_at(o, 7);
        assert_eq!(s.pop_input_at(i), Some(20));
        assert_eq!(s.pop_input_at(i), None);
        assert_eq!(s.output("out"), &[7]);
        assert_eq!(s.input_index("absent"), None);
        assert_eq!(s.input_tokens(), 0);
        assert_eq!(s.output_tokens(), 1);
    }
}
