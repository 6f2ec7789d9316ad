//! Lowering kernel IR to hierarchical operation dataflow graphs.
//!
//! A kernel body becomes a [`Region`]: an ordered list of straight-line
//! segments (each a [`RegionDfg`] of operation nodes with dependence edges)
//! and nested loops. Control flow inside a segment is if-converted:
//! both branches are lowered speculatively and merged through [`OpClass::Mux`]
//! nodes, which matches how HLS datapaths realise short conditionals.

use accelsoc_kernel::ir::{BinOp, Expr, Kernel, LValue, Stmt};
use accelsoc_kernel::types::Ty;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Operation classes after lowering. `Const` and `Phi` (live-in values)
/// are free; everything else occupies a functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    Const,
    /// Live-in value (parameter, loop variable, or value defined in an
    /// earlier segment).
    Phi,
    Add,
    Mul,
    Div,
    Compare,
    Bit,
    Mux,
    MemRead,
    MemWrite,
    StreamRead,
    StreamWrite,
}

/// One operation node in a straight-line DFG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpNode {
    pub class: OpClass,
    /// Operand width in bits (drives per-op cost).
    pub bits: u8,
    /// Indices of operations this one depends on.
    pub deps: Vec<usize>,
    /// For memory ops: the array accessed. For stream ops: the port.
    pub target: Option<String>,
}

/// A straight-line dataflow graph (one schedule region).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegionDfg {
    pub ops: Vec<OpNode>,
}

impl RegionDfg {
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Sanity invariant: deps always point backwards (acyclic by
    /// construction).
    pub fn is_topologically_ordered(&self) -> bool {
        self.ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.deps.iter().all(|&d| d < i))
    }
}

/// Loop attributes carried from the IR.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopAttrs {
    pub var: String,
    /// Trip count if statically known.
    pub trip: Option<u64>,
    pub pipelined: bool,
}

/// One item of a region: straight-line code or a nested loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RegionItem {
    Straight(RegionDfg),
    Loop { attrs: LoopAttrs, body: Box<Region> },
}

/// A hierarchical region (kernel body or loop body).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Region {
    pub label: String,
    pub items: Vec<RegionItem>,
}

impl Region {
    /// All straight-line DFGs in this region, recursively.
    pub fn segments(&self) -> Vec<&RegionDfg> {
        let mut out = Vec::new();
        self.collect_segments(&mut out);
        out
    }

    fn collect_segments<'a>(&'a self, out: &mut Vec<&'a RegionDfg>) {
        for item in &self.items {
            match item {
                RegionItem::Straight(d) => out.push(d),
                RegionItem::Loop { body, .. } => body.collect_segments(out),
            }
        }
    }

    /// Total operation count, recursively.
    pub fn total_ops(&self) -> usize {
        self.segments().iter().map(|d| d.op_count()).sum()
    }

    /// Arrays that are both read and written somewhere inside this region
    /// (loop-carried recurrence candidates).
    pub fn read_write_arrays(&self) -> Vec<String> {
        let mut reads = std::collections::HashSet::new();
        let mut writes = std::collections::HashSet::new();
        for seg in self.segments() {
            for op in &seg.ops {
                match op.class {
                    OpClass::MemRead => {
                        reads.insert(op.target.clone().unwrap_or_default());
                    }
                    OpClass::MemWrite => {
                        writes.insert(op.target.clone().unwrap_or_default());
                    }
                    _ => {}
                }
            }
        }
        let mut v: Vec<String> = reads.intersection(&writes).cloned().collect();
        v.sort();
        v
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfgError {
    /// The verifier should have caught this; reported defensively.
    Malformed(String),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::Malformed(m) => write!(f, "malformed kernel: {m}"),
        }
    }
}

impl std::error::Error for DfgError {}

/// Lower a verified kernel into its hierarchical region tree.
pub fn lower(kernel: &Kernel) -> Result<Region, DfgError> {
    let mut lw = Lowerer { kernel };
    lw.lower_region(&kernel.body, kernel.name.clone())
}

struct Lowerer<'k> {
    kernel: &'k Kernel,
}

/// Per-segment lowering state.
struct SegCtx {
    dfg: RegionDfg,
    /// Variable -> op index currently producing its value.
    env: HashMap<String, usize>,
    /// Per-array ordering state.
    mem: HashMap<String, MemState>,
    /// Per-stream-port ordering chain.
    stream_last: HashMap<String, usize>,
}

#[derive(Default, Clone)]
struct MemState {
    last_write: Option<usize>,
    reads_since_write: Vec<usize>,
}

impl SegCtx {
    fn new() -> Self {
        SegCtx {
            dfg: RegionDfg::default(),
            env: HashMap::new(),
            mem: HashMap::new(),
            stream_last: HashMap::new(),
        }
    }

    fn push(
        &mut self,
        class: OpClass,
        bits: u8,
        deps: Vec<usize>,
        target: Option<String>,
    ) -> usize {
        let id = self.dfg.ops.len();
        self.dfg.ops.push(OpNode {
            class,
            bits,
            deps,
            target,
        });
        id
    }

    /// Op index for a variable's current value, creating a live-in Phi on
    /// first reference.
    fn value_of(&mut self, name: &str, bits: u8) -> usize {
        if let Some(&id) = self.env.get(name) {
            return id;
        }
        let id = self.push(OpClass::Phi, bits, vec![], Some(name.to_string()));
        self.env.insert(name.to_string(), id);
        id
    }
}

impl<'k> Lowerer<'k> {
    fn lower_region(&mut self, stmts: &[Stmt], label: String) -> Result<Region, DfgError> {
        let mut region = Region {
            label,
            items: Vec::new(),
        };
        let mut seg = SegCtx::new();
        self.lower_stmts(stmts, &mut seg, &mut region, None)?;
        if !seg.dfg.ops.is_empty() {
            region.items.push(RegionItem::Straight(seg.dfg));
        }
        Ok(region)
    }

    /// Lower statements into `seg`; loops flush the current segment and
    /// recurse. `pred` is the predication condition op (from an enclosing
    /// `if`), threaded so memory/stream side effects depend on it.
    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        seg: &mut SegCtx,
        region: &mut Region,
        pred: Option<usize>,
    ) -> Result<(), DfgError> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { dst, value } => {
                    let v = self.lower_expr(value, seg)?;
                    match dst {
                        LValue::Var(name) => {
                            let v = match pred {
                                // Predicated scalar write: mux(old, new).
                                Some(p) => {
                                    let bits = self.var_bits(name);
                                    let old = seg.value_of(name, bits);
                                    seg.push(OpClass::Mux, bits, vec![p, v, old], None)
                                }
                                None => v,
                            };
                            seg.env.insert(name.clone(), v);
                        }
                        LValue::Index(name, index) => {
                            let i = self.lower_expr(index, seg)?;
                            let bits = self.array_bits(name);
                            let mut deps = vec![i, v];
                            if let Some(p) = pred {
                                deps.push(p);
                            }
                            let m = seg.mem.entry(name.clone()).or_default();
                            if let Some(w) = m.last_write {
                                deps.push(w);
                            }
                            deps.extend(m.reads_since_write.iter().copied());
                            let id = seg.push(OpClass::MemWrite, bits, deps, Some(name.clone()));
                            let m = seg.mem.get_mut(name).unwrap();
                            m.last_write = Some(id);
                            m.reads_since_write.clear();
                        }
                    }
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                    pipeline,
                    ..
                } => {
                    // Flush the running segment, then lower the loop body
                    // as its own region.
                    if !seg.dfg.ops.is_empty() {
                        region
                            .items
                            .push(RegionItem::Straight(std::mem::take(&mut seg.dfg)));
                        *seg = SegCtx::new();
                    }
                    let trip = match (const_of(start), const_of(end)) {
                        (Some(lo), Some(hi)) if hi > lo => Some((hi - lo) as u64),
                        (Some(lo), Some(hi)) if hi <= lo => Some(0),
                        _ => None,
                    };
                    let body_region =
                        self.lower_region(body, format!("{}_{}", region.label, var))?;
                    region.items.push(RegionItem::Loop {
                        attrs: LoopAttrs {
                            var: var.clone(),
                            trip,
                            pipelined: *pipeline,
                        },
                        body: Box::new(body_region),
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let c = self.lower_expr(cond, seg)?;
                    let combined = match pred {
                        Some(p) => seg.push(OpClass::Bit, 1, vec![p, c], None),
                        None => c,
                    };
                    // If either branch contains a loop we cannot if-convert;
                    // hoist conservatively: lower each branch as its own
                    // (unconditioned) region items.
                    let has_loop = then_body.iter().chain(else_body).any(contains_loop);
                    if has_loop {
                        self.lower_stmts(then_body, seg, region, Some(combined))?;
                        self.lower_stmts(else_body, seg, region, Some(combined))?;
                        continue;
                    }
                    // Speculative lowering with env merge through muxes.
                    let snapshot = seg.env.clone();
                    self.lower_stmts(then_body, seg, region, Some(combined))?;
                    let then_env = seg.env.clone();
                    seg.env = snapshot.clone();
                    self.lower_stmts(else_body, seg, region, Some(combined))?;
                    let else_env = seg.env.clone();
                    // Merge: variables whose binding differs get a mux.
                    let mut merged = snapshot;
                    let mut names: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
                    names.sort();
                    names.dedup();
                    for name in names {
                        let t = then_env.get(name).copied();
                        let e = else_env.get(name).copied();
                        match (t, e) {
                            (Some(tv), Some(ev)) if tv != ev => {
                                let bits = self.var_bits(name);
                                let m = seg.push(OpClass::Mux, bits, vec![combined, tv, ev], None);
                                merged.insert(name.clone(), m);
                            }
                            (Some(v), _) | (_, Some(v)) => {
                                merged.insert(name.clone(), v);
                            }
                            (None, None) => {}
                        }
                    }
                    seg.env = merged;
                }
                Stmt::StreamWrite { port, value } => {
                    let v = self.lower_expr(value, seg)?;
                    let bits = self.port_bits(port);
                    let mut deps = vec![v];
                    if let Some(p) = pred {
                        deps.push(p);
                    }
                    if let Some(&prev) = seg.stream_last.get(port) {
                        deps.push(prev);
                    }
                    let id = seg.push(OpClass::StreamWrite, bits, deps, Some(port.clone()));
                    seg.stream_last.insert(port.clone(), id);
                }
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, e: &Expr, seg: &mut SegCtx) -> Result<usize, DfgError> {
        Ok(match e {
            Expr::Const(_) => seg.push(OpClass::Const, 32, vec![], None),
            Expr::Var(name) => {
                let bits = self.var_bits(name);
                seg.value_of(name, bits)
            }
            Expr::Index(name, index) => {
                let i = self.lower_expr(index, seg)?;
                let bits = self.array_bits(name);
                let mut deps = vec![i];
                let m = seg.mem.entry(name.clone()).or_default();
                if let Some(w) = m.last_write {
                    deps.push(w);
                }
                let id = seg.push(OpClass::MemRead, bits, deps, Some(name.clone()));
                seg.mem.get_mut(name).unwrap().reads_since_write.push(id);
                id
            }
            Expr::Unary(_, a) => {
                let av = self.lower_expr(a, seg)?;
                let bits = seg.dfg.ops[av].bits;
                seg.push(OpClass::Bit, bits, vec![av], None)
            }
            Expr::Binary(op, a, b) => {
                let av = self.lower_expr(a, seg)?;
                let bv = self.lower_expr(b, seg)?;
                let bits = seg.dfg.ops[av].bits.max(seg.dfg.ops[bv].bits);
                // Strength reduction: multiplication by a compile-time
                // constant maps to a shift-add network (no DSP), exactly
                // as HLS tools implement it.
                let const_mul = matches!(op, BinOp::Mul)
                    && (matches!(**a, Expr::Const(_)) || matches!(**b, Expr::Const(_)));
                let class = match op {
                    BinOp::Add | BinOp::Sub => OpClass::Add,
                    BinOp::Mul if const_mul => OpClass::Add,
                    BinOp::Mul => OpClass::Mul,
                    BinOp::Div | BinOp::Mod => OpClass::Div,
                    op if op.is_compare() => OpClass::Compare,
                    _ => OpClass::Bit,
                };
                seg.push(class, bits, vec![av, bv], None)
            }
            Expr::StreamRead(port) => {
                let bits = self.port_bits(port);
                let deps = seg.stream_last.get(port).copied().into_iter().collect();
                let id = seg.push(OpClass::StreamRead, bits, deps, Some(port.clone()));
                seg.stream_last.insert(port.clone(), id);
                id
            }
            Expr::Select(c0, a, b) => {
                let cv = self.lower_expr(c0, seg)?;
                let av = self.lower_expr(a, seg)?;
                let bv = self.lower_expr(b, seg)?;
                let bits = seg.dfg.ops[av].bits.max(seg.dfg.ops[bv].bits);
                seg.push(OpClass::Mux, bits, vec![cv, av, bv], None)
            }
        })
    }

    fn var_bits(&self, name: &str) -> u8 {
        self.kernel
            .param(name)
            .map(|p| p.ty)
            .or_else(|| self.kernel.local(name).map(|l| l.ty))
            .unwrap_or(Ty::U32)
            .bits
    }

    fn array_bits(&self, name: &str) -> u8 {
        self.kernel.local(name).map(|l| l.ty.bits).unwrap_or(32)
    }

    fn port_bits(&self, name: &str) -> u8 {
        self.kernel.param(name).map(|p| p.ty.bits).unwrap_or(32)
    }
}

fn contains_loop(s: &Stmt) -> bool {
    match s {
        Stmt::For { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => then_body.iter().chain(else_body).any(contains_loop),
        _ => false,
    }
}

fn const_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelsoc_kernel::builder::*;
    use accelsoc_kernel::types::Ty;

    #[test]
    fn straight_line_kernel_one_segment() {
        let k = KernelBuilder::new("add")
            .scalar_in("a", Ty::U32)
            .scalar_in("b", Ty::U32)
            .scalar_out("r", Ty::U32)
            .push(assign("r", add(var("a"), var("b"))))
            .build();
        let region = lower(&k).unwrap();
        assert_eq!(region.items.len(), 1);
        let seg = region.segments()[0];
        // 2 phis + 1 add.
        assert_eq!(seg.op_count(), 3);
        assert!(seg.is_topologically_ordered());
        assert!(seg.ops.iter().any(|o| o.class == OpClass::Add));
    }

    #[test]
    fn loop_becomes_nested_region() {
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
        let region = lower(&k).unwrap();
        assert_eq!(region.items.len(), 1);
        match &region.items[0] {
            RegionItem::Loop { attrs, body } => {
                assert!(attrs.pipelined);
                assert_eq!(attrs.trip, None);
                assert_eq!(body.total_ops(), 2); // stream read + write
            }
            _ => panic!("expected loop"),
        }
    }

    #[test]
    fn constant_trip_counts_extracted() {
        let k = KernelBuilder::new("k")
            .scalar_out("r", Ty::U32)
            .local("acc", Ty::U32)
            .body(vec![
                for_("i", c(2), c(10), vec![assign("acc", add(var("acc"), c(1)))]),
                assign("r", var("acc")),
            ])
            .build();
        let region = lower(&k).unwrap();
        match &region.items[0] {
            RegionItem::Loop { attrs, .. } => assert_eq!(attrs.trip, Some(8)),
            _ => panic!("expected loop first"),
        }
    }

    #[test]
    fn stream_ops_are_chained_in_order() {
        let k = KernelBuilder::new("k")
            .stream_in("in", Ty::U8)
            .stream_out("out", Ty::U8)
            .body(vec![write("out", read("in")), write("out", read("in"))])
            .build();
        let region = lower(&k).unwrap();
        let seg = region.segments()[0];
        let writes: Vec<usize> = seg
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.class == OpClass::StreamWrite)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(writes.len(), 2);
        // Second write depends (transitively) on the first.
        assert!(seg.ops[writes[1]].deps.contains(&writes[0]));
        let reads: Vec<usize> = seg
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.class == OpClass::StreamRead)
            .map(|(i, _)| i)
            .collect();
        assert!(seg.ops[reads[1]].deps.contains(&reads[0]));
    }

    #[test]
    fn memory_raw_dependences_respected() {
        // a[0] = x; y = a[0]  -> the read depends on the write.
        let k = KernelBuilder::new("k")
            .scalar_in("x", Ty::U32)
            .scalar_out("r", Ty::U32)
            .array("a", Ty::U32, 4)
            .body(vec![
                store("a", c(0), var("x")),
                assign("r", idx("a", c(0))),
            ])
            .build();
        let region = lower(&k).unwrap();
        let seg = region.segments()[0];
        let w = seg
            .ops
            .iter()
            .position(|o| o.class == OpClass::MemWrite)
            .unwrap();
        let r = seg
            .ops
            .iter()
            .position(|o| o.class == OpClass::MemRead)
            .unwrap();
        assert!(seg.ops[r].deps.contains(&w));
    }

    #[test]
    fn if_conversion_inserts_mux() {
        let k = KernelBuilder::new("k")
            .scalar_in("x", Ty::U32)
            .scalar_out("r", Ty::U32)
            .local("t", Ty::U32)
            .body(vec![
                if_else(
                    gt(var("x"), c(10)),
                    vec![assign("t", add(var("x"), c(1)))],
                    vec![assign("t", sub(var("x"), c(1)))],
                ),
                assign("r", var("t")),
            ])
            .build();
        let region = lower(&k).unwrap();
        let seg = region.segments()[0];
        assert!(seg.ops.iter().any(|o| o.class == OpClass::Mux));
        assert!(seg.is_topologically_ordered());
    }

    #[test]
    fn read_write_arrays_detects_recurrence() {
        let k = KernelBuilder::new("hist")
            .scalar_in("n", Ty::U32)
            .stream_in("px", Ty::U8)
            .stream_out("h", Ty::U32)
            .array("bins", Ty::U32, 16)
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
                for_("i", c(0), c(16), vec![write("h", idx("bins", var("i")))]),
            ])
            .build();
        let region = lower(&k).unwrap();
        match &region.items[0] {
            RegionItem::Loop { body, .. } => {
                assert_eq!(body.read_write_arrays(), vec!["bins".to_string()]);
            }
            _ => panic!("expected loop"),
        }
        // Whole-kernel view also sees it.
        assert_eq!(region.read_write_arrays(), vec!["bins".to_string()]);
    }

    #[test]
    fn all_segments_topologically_ordered() {
        let k = KernelBuilder::new("mix")
            .scalar_in("n", Ty::U32)
            .scalar_out("r", Ty::U32)
            .local("acc", Ty::U32)
            .body(vec![
                assign("acc", c(0)),
                for_(
                    "i",
                    c(0),
                    var("n"),
                    vec![if_(
                        gt(var("i"), c(2)),
                        vec![assign("acc", add(var("acc"), var("i")))],
                    )],
                ),
                assign("r", var("acc")),
            ])
            .build();
        let region = lower(&k).unwrap();
        for seg in region.segments() {
            assert!(seg.is_topologically_ordered());
        }
    }
}
