//! Differential property test: compiled kernels are observationally
//! identical to the tree-walking interpreter on randomly generated
//! well-typed kernels — same scalar outputs, same stream contents
//! (including tokens left unconsumed on input streams), same
//! [`ExecStats`], and the same typed error when execution fails
//! (underflow, out-of-bounds, divide-by-zero, shift range, missing
//! scalar input, step limit).
//!
//! Every compiled run executes on the batch-lane VM. The first property
//! checks single invocations (`CompiledKernel::run*`, a one-lane batch);
//! the second runs each kernel as a batch of 2, 3, 4 and 8 lanes, every
//! lane on its own variant of the inputs, and checks each lane against
//! the interpreter on that lane's inputs alone — so lanes diverge and
//! trap at different points, and the batch runs each lane alone.
//!
//! The generator only produces kernels the verifier accepts: every name
//! it references is declared, writes go to scalar-out params and
//! locals, and loop variables are globally unique (nested loops reusing
//! one variable name pass the verifier but are degenerate — see the
//! caveat in DESIGN.md §11).

use accelsoc_kernel::builder::*;
use accelsoc_kernel::compile::CompiledKernel;
use accelsoc_kernel::interp::{ExecError, ExecOutcome, Interpreter, StreamBundle};
use accelsoc_kernel::ir::{Expr, Kernel, Stmt};
use accelsoc_kernel::types::Ty;
use proptest::prelude::*;
use std::collections::HashMap;

/// Splitmix64 over the proptest-supplied case seed, so one `u64`
/// strategy drives the whole structured generation.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn ty(&mut self) -> Ty {
        *self.pick(&[
            Ty::U8,
            Ty::U16,
            Ty::U32,
            Ty::I8,
            Ty::I16,
            Ty::I32,
            Ty::signed(63),
            Ty::unsigned(5),
        ])
    }

    /// Small signed constant, occasionally extreme to stress wrapping
    /// and the non-folded fallible paths (div by 0, shift by 64).
    fn konst(&mut self) -> i64 {
        match self.below(10) {
            0 => 0,
            1 => i64::MAX,
            2 => -1,
            3 => 64,
            4 => 1 << self.below(12),
            _ => self.below(40) as i64 - 8,
        }
    }
}

/// Names available to expression/statement generation.
struct Scope {
    readable: Vec<String>,
    writable: Vec<String>,
    arrays: Vec<(String, u32)>,
    stream_ins: Vec<String>,
    stream_outs: Vec<String>,
    next_loop: u32,
}

fn expr(g: &mut Gen, sc: &Scope, depth: u32) -> Expr {
    if depth == 0 || g.chance(30) {
        return if g.chance(55) && !sc.readable.is_empty() {
            var(g.pick(&sc.readable).as_str())
        } else {
            c(g.konst())
        };
    }
    match g.below(12) {
        0 | 1 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[add, sub, mul];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        2 => div(expr(g, sc, depth - 1), expr(g, sc, depth - 1)),
        3 => rem(expr(g, sc, depth - 1), expr(g, sc, depth - 1)),
        4 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[shl, shr];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        5 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[band, bor, bxor];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        6 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[lt, le, gt, ge, eq, ne];
            g.pick(ops)(expr(g, sc, depth - 1), expr(g, sc, depth - 1))
        }
        7 => {
            if g.chance(50) {
                neg(expr(g, sc, depth - 1))
            } else {
                bnot(expr(g, sc, depth - 1))
            }
        }
        8 => select(
            expr(g, sc, depth - 1),
            expr(g, sc, depth - 1),
            expr(g, sc, depth - 1),
        ),
        9 if !sc.arrays.is_empty() => {
            let (name, len) = g.pick(&sc.arrays).clone();
            // Mostly in-bounds indices; out-of-bounds ones exercise the
            // identical-typed-error property.
            let ix = if g.chance(80) {
                c(g.below(len as u64) as i64)
            } else {
                expr(g, sc, depth - 1)
            };
            idx(&name, ix)
        }
        10 if !sc.stream_ins.is_empty() => read(g.pick(&sc.stream_ins).as_str()),
        _ => expr(g, sc, depth - 1),
    }
}

fn stmt(g: &mut Gen, sc: &mut Scope, depth: u32) -> Stmt {
    match g.below(10) {
        0..=2 if !sc.writable.is_empty() => {
            let dst = g.pick(&sc.writable).clone();
            assign(&dst, expr(g, sc, 3))
        }
        3 | 4 if !sc.arrays.is_empty() => {
            let (name, len) = g.pick(&sc.arrays).clone();
            if g.chance(30) && !sc.readable.is_empty() {
                // `a[x] = a[x] + e` lowers to the fused read-modify-write
                // `IncIdx`; a variable index makes its bounds check
                // data-dependent.
                let x = g.pick(&sc.readable).clone();
                let e = expr(g, sc, 0);
                return store(&name, var(&x), add(idx(&name, var(&x)), e));
            }
            let ix = if g.chance(85) {
                c(g.below(len as u64) as i64)
            } else {
                expr(g, sc, 2)
            };
            store(&name, ix, expr(g, sc, 3))
        }
        5 | 6 if !sc.stream_outs.is_empty() => {
            let port = g.pick(&sc.stream_outs).clone();
            write(&port, expr(g, sc, 3))
        }
        7 if depth > 0 => {
            let v = format!("L{}", sc.next_loop);
            sc.next_loop += 1;
            let hi = g.below(6) as i64;
            let body_len = 1 + g.below(3);
            // The loop var is readable inside the body. Typed loop vars
            // (satellite 6) are part of the generated space.
            sc.readable.push(v.clone());
            let body: Vec<Stmt> = (0..body_len).map(|_| stmt(g, sc, depth - 1)).collect();
            sc.readable.pop();
            if g.chance(30) {
                for_typed(&v, g.ty(), c(0), c(hi), body)
            } else {
                for_(&v, c(0), c(hi), body)
            }
        }
        8 if depth > 0 => {
            let then_len = 1 + g.below(2);
            let then: Vec<Stmt> = (0..then_len).map(|_| stmt(g, sc, depth - 1)).collect();
            if g.chance(50) {
                if_(expr(g, sc, 2), then)
            } else {
                let else_len = 1 + g.below(2);
                let els: Vec<Stmt> = (0..else_len).map(|_| stmt(g, sc, depth - 1)).collect();
                if_else(expr(g, sc, 2), then, els)
            }
        }
        _ => {
            // Fallback keeps every draw productive even when a branch's
            // precondition (e.g. "has arrays") fails.
            if sc.writable.is_empty() {
                if_(c(0), vec![write_or_nop(sc)])
            } else {
                let dst = g.pick(&sc.writable).clone();
                assign(&dst, expr(g, sc, 2))
            }
        }
    }
}

fn write_or_nop(sc: &Scope) -> Stmt {
    match sc.stream_outs.first() {
        Some(p) => write(p, c(0)),
        None => if_(c(0), vec![]),
    }
}

/// Tokens fed to each input stream, by port name.
type Feeds = Vec<(String, Vec<i64>)>;

/// One random well-typed kernel plus matching inputs.
fn kernel_case(seed: u64) -> (Kernel, HashMap<String, i64>, Feeds) {
    let mut g = Gen::new(seed);
    let mut b = KernelBuilder::new("prop");
    let mut sc = Scope {
        readable: vec![],
        writable: vec![],
        arrays: vec![],
        stream_ins: vec![],
        stream_outs: vec![],
        next_loop: 0,
    };
    let mut inputs = HashMap::new();
    for i in 0..g.below(3) {
        let name = format!("in{i}");
        b = b.scalar_in(&name, g.ty());
        // Occasionally leave a declared input unset to hit the
        // MissingScalarInput path identically in both engines.
        if g.chance(92) {
            inputs.insert(name.clone(), g.konst());
        }
        sc.readable.push(name);
    }
    let outs = 1 + g.below(2);
    for i in 0..outs {
        let name = format!("out{i}");
        b = b.scalar_out(&name, g.ty());
        sc.readable.push(name.clone());
        sc.writable.push(name);
    }
    for i in 0..g.below(3) {
        let name = format!("loc{i}");
        b = b.local(&name, g.ty());
        sc.readable.push(name.clone());
        sc.writable.push(name);
    }
    for i in 0..g.below(2) {
        let name = format!("arr{i}");
        let len = 2 + g.below(6) as u32;
        b = b.array(&name, g.ty(), len);
        sc.arrays.push((name, len));
    }
    let mut feeds = Vec::new();
    for i in 0..g.below(2) {
        let name = format!("sin{i}");
        b = b.stream_in(&name, g.ty());
        // Sometimes under-feed (underflow path), sometimes not at all.
        let tokens: Vec<i64> = (0..g.below(12)).map(|_| g.konst()).collect();
        if g.chance(85) {
            feeds.push((name.clone(), tokens));
        }
        sc.stream_ins.push(name);
    }
    for i in 0..g.below(2) {
        let name = format!("sout{i}");
        b = b.stream_out(&name, g.ty());
        sc.stream_outs.push(name);
    }
    let body_len = 1 + g.below(6);
    let mut body = Vec::new();
    for _ in 0..body_len {
        body.push(stmt(&mut g, &mut sc, 2));
    }
    // The verifier rejects scalar outputs that are never written;
    // close every one with a final assignment.
    for i in 0..outs {
        let mut e = expr(&mut g, &sc, 2);
        // Random expressions may still miss an out; force the write.
        if g.chance(40) {
            e = add(e, var(&format!("out{i}")));
        }
        body.push(assign(&format!("out{i}"), e));
    }
    let kernel = b
        .body(body)
        .try_build()
        .unwrap_or_else(|e| panic!("seed {seed}: generator emitted unverifiable kernel: {e:?}"));
    (kernel, inputs, feeds)
}

/// Loop trip counts for column cases: below, at and past the lane VM's
/// 256-iteration chunk, and past two chunks.
const TRIPS: [i64; 8] = [1, 3, 40, 255, 256, 257, 300, 600];

/// A random expression over `names` that lowers to infallible ops only
/// (no division, remainder or shift by a non-constant), so a loop body
/// built from it can be column-safe.
fn col_expr(g: &mut Gen, names: &[String], depth: u32) -> Expr {
    if depth == 0 || g.chance(30) {
        return if g.chance(70) && !names.is_empty() {
            var(g.pick(names).as_str())
        } else {
            c(g.konst())
        };
    }
    let e = |g: &mut Gen| col_expr(g, names, depth - 1);
    match g.below(9) {
        0 | 1 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[add, sub, mul, band, bor, bxor];
            g.pick(ops)(e(g), e(g))
        }
        2 => {
            let ops: &[fn(Expr, Expr) -> Expr] = &[lt, le, gt, ge, eq, ne];
            g.pick(ops)(e(g), e(g))
        }
        3 => select(e(g), e(g), e(g)),
        4 => {
            let (x, k) = (e(g), c(g.below(64) as i64));
            if g.chance(50) {
                shr(x, k)
            } else {
                shl(x, k)
            }
        }
        5 => {
            let (x, d) = (e(g), c(1 << g.below(8)));
            if g.chance(50) {
                div(x, d)
            } else {
                rem(x, d)
            }
        }
        6 => band(shr(e(g), c(g.below(24) as i64)), c(255)),
        7 => {
            if g.chance(50) {
                neg(e(g))
            } else {
                bnot(e(g))
            }
        }
        _ => add(e(g), mul(e(g), e(g))),
    }
}

/// A guard condition over `names`: a comparison, `x != 0`, or two
/// comparisons joined by `&` (the `wB > 0 && wF > 0` shape).
fn guard_cond(g: &mut Gen, names: &[String]) -> Expr {
    let cmp = |g: &mut Gen| {
        let ops: &[fn(Expr, Expr) -> Expr] = &[lt, le, gt, ge, eq, ne];
        let (a, b) = (col_expr(g, names, 1), c(g.below(9) as i64 - 2));
        g.pick(ops)(a, b)
    };
    match g.below(3) {
        0 => ne(col_expr(g, names, 1), c(0)),
        1 => cmp(g),
        _ => band(cmp(g), cmp(g)),
    }
}

/// A kernel built around loops the lane VM can run a chunk of
/// iterations per dispatch: a stream map into a local, a `u8`-indexed
/// scatter (`IncIdx`), a self-recurrent accumulator, an
/// induction-indexed store and load, a two-port write, a guarded block
/// (a guarded write and store, sometimes a nested block), a checked
/// division (guarded by its divisor, by an unrelated condition, or not
/// at all, with divisors that are zero on some rows) and a conditional
/// argmax (`if x > m { m = x; k = i }`) — each body statement drawn with
/// some chance and in random order, so some bodies lose their
/// eligibility (a loop-carried read, a second writer) and run op at a
/// time. `n` sets the trip count; the streams carry about `n` tokens,
/// sometimes one short.
fn column_case(seed: u64) -> (Kernel, HashMap<String, i64>, Feeds) {
    let mut g = Gen::new(seed);
    let n = *g.pick(&TRIPS);
    let tab_len = (n + g.below(3) as i64 - 1).max(1) as u32;
    let byte_ty = if g.chance(85) { Ty::U8 } else { g.ty() };
    let b = KernelBuilder::new("cols")
        .scalar_in("n", Ty::U32)
        .scalar_in("k0", g.ty())
        .scalar_out("acc", g.ty())
        .scalar_out("out1", g.ty())
        .stream_in("s0", g.ty())
        .stream_in("s1", g.ty())
        .stream_out("o0", g.ty())
        .stream_out("o1", g.ty())
        .stream_out("o2", g.ty())
        .local("t0", g.ty())
        .local("t1", g.ty())
        .local("byte", byte_ty)
        .local("g0", g.ty())
        .local("g1", g.ty())
        .local("q", g.ty())
        .local("m", g.ty())
        .local("kx", g.ty())
        .array("hist", g.ty(), 256)
        .array("tab", g.ty(), tab_len)
        .array("gtab", g.ty(), tab_len);

    // The main loop: statements in random order over what the body has
    // written so far, the invariants and the induction variable.
    let mut names: Vec<String> = vec!["k0".into(), "n".into(), "i".into()];
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut order: Vec<u64> = (0..9).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, g.below(i as u64 + 1) as usize);
    }
    for kind in order {
        if !g.chance(75) {
            continue;
        }
        match kind {
            0 => {
                let e = if g.chance(70) {
                    read("s0")
                } else {
                    col_expr(&mut g, &names, 2)
                };
                stmts.push(assign("t0", e));
                names.push("t0".into());
            }
            1 => {
                let e = if g.chance(60) {
                    read("s1")
                } else {
                    col_expr(&mut g, &names, 2)
                };
                stmts.push(assign("byte", e));
                // A leaf addend keeps the load and the add adjacent, so
                // they fuse into `IncIdx`.
                let depth = if g.chance(80) { 0 } else { 1 };
                let v = col_expr(&mut g, &names, depth);
                stmts.push(store("hist", var("byte"), add(idx("hist", var("byte")), v)));
                names.push("byte".into());
            }
            2 => {
                let e = col_expr(&mut g, &names, 2);
                stmts.push(assign("acc", add(var("acc"), e)));
            }
            3 => stmts.push(store("tab", var("i"), col_expr(&mut g, &names, 2))),
            4 => {
                stmts.push(write("o0", col_expr(&mut g, &names, 2)));
                stmts.push(write("o1", col_expr(&mut g, &names, 2)));
            }
            5 => {
                // A loop-carried read now and then: `t1` read before
                // the body writes it makes it a recurrence.
                let mut from = names.clone();
                if g.chance(20) {
                    from.push("t1".into());
                }
                stmts.push(assign("t1", col_expr(&mut g, &from, 2)));
                names.push("t1".into());
            }
            6 => {
                // A guarded block: its writes are read inside it only.
                let mut inner = names.clone();
                let mut block = vec![assign("g0", col_expr(&mut g, &inner, 2))];
                inner.push("g0".into());
                if g.chance(50) {
                    block.push(write("o2", col_expr(&mut g, &inner, 2)));
                }
                if g.chance(40) {
                    block.push(store("gtab", var("i"), col_expr(&mut g, &inner, 1)));
                }
                if g.chance(50) {
                    let cond = guard_cond(&mut g, &inner);
                    block.push(if_(cond, vec![assign("g1", col_expr(&mut g, &inner, 2))]));
                }
                stmts.push(if_(guard_cond(&mut g, &names), block));
            }
            7 => {
                // A division whose divisor is zero on some rows: guarded
                // by the divisor, by an unrelated condition (a guarded
                // row may trap), or not at all.
                let d = match g.below(3) {
                    0 => sub(var("i"), c(g.below(300) as i64)),
                    1 => band(col_expr(&mut g, &names, 1), c(3)),
                    _ => col_expr(&mut g, &names, 1),
                };
                let x = col_expr(&mut g, &names, 2);
                let q = if g.chance(50) {
                    div(x, d.clone())
                } else {
                    rem(x, d.clone())
                };
                stmts.push(match g.below(10) {
                    0..=5 => if_(ne(d, c(0)), vec![assign("q", q)]),
                    6..=8 => if_(guard_cond(&mut g, &names), vec![assign("q", q)]),
                    _ => assign("q", q),
                });
            }
            _ => {
                // A conditional argmax: `m` carried, written only where
                // the comparison with its running value holds.
                let x = col_expr(&mut g, &names, 2);
                let ops: &[fn(Expr, Expr) -> Expr] = &[gt, ge, lt];
                let cond = g.pick(ops)(x.clone(), var("m"));
                let mut block = vec![assign("m", x), assign("kx", var("i"))];
                if g.chance(30) {
                    block.reverse();
                }
                stmts.push(if_(cond, block));
            }
        }
    }
    if stmts.is_empty() {
        stmts.push(write("o0", var("i")));
    }
    let mut body = vec![
        assign("acc", col_expr(&mut g, &["k0".into()], 1)),
        assign("m", c(g.konst())),
        assign("kx", c(0)),
        for_("i", c(0), var("n"), stmts),
    ];
    // An induction-indexed load loop over the table, and the bins.
    if g.chance(60) {
        let e = add(
            idx("tab", var("j")),
            col_expr(&mut g, &["j".into(), "k0".into()], 1),
        );
        body.push(for_("j", c(0), var("n"), vec![write("o1", e)]));
    }
    if g.chance(40) {
        body.push(for_(
            "h",
            c(0),
            c(256),
            vec![assign("out1", add(var("out1"), idx("hist", var("h"))))],
        ));
    }
    // Every register the loop writes is observed after it.
    let written = ["acc", "t0", "t1", "g0", "g1", "q", "m", "kx"];
    let sum = written.iter().fold(var("out1"), |e, v| add(e, var(v)));
    body.push(assign("out1", sum));

    let kernel = b
        .body(body)
        .try_build()
        .unwrap_or_else(|e| panic!("seed {seed}: generator emitted unverifiable kernel: {e:?}"));
    let mut inputs = HashMap::new();
    inputs.insert("n".to_string(), n);
    inputs.insert("k0".to_string(), g.konst());
    let short = g.chance(20) as i64;
    let mut feeds = Vec::new();
    for port in ["s0", "s1"] {
        let len = (n - short).max(0) + g.below(3) as i64;
        feeds.push((port.to_string(), (0..len).map(|_| g.konst()).collect()));
    }
    (kernel, inputs, feeds)
}

const STEP_LIMIT: u64 = 200_000;

fn bundle(feeds: &[(String, Vec<i64>)]) -> StreamBundle {
    let mut b = StreamBundle::new();
    for (port, tokens) in feeds {
        b.feed(port, tokens.iter().copied());
    }
    b
}

/// A lane's variant of the case's inputs: the scalar inputs plus one,
/// the last token of every fed stream dropped, or every token remapped.
/// Each moves a lane's loop bounds, indices, trap points or token counts
/// away from its siblings'.
fn lane_variant(
    g: &mut Gen,
    inputs: &HashMap<String, i64>,
    feeds: &[(String, Vec<i64>)],
) -> (HashMap<String, i64>, Feeds) {
    let mut inputs = inputs.clone();
    let mut feeds = feeds.to_vec();
    match g.below(3) {
        0 => inputs.values_mut().for_each(|v| *v = v.wrapping_add(1)),
        1 => feeds.iter_mut().for_each(|(_, t)| {
            t.pop();
        }),
        _ => {
            let maps: [fn(i64) -> i64; 3] = [
                |t| t.wrapping_add(1),
                |t| t.wrapping_sub(1),
                i64::wrapping_neg,
            ];
            let map = *g.pick(&maps);
            feeds
                .iter_mut()
                .for_each(|(_, t)| t.iter_mut().for_each(|v| *v = map(*v)));
        }
    }
    (inputs, feeds)
}

/// Check a compiled run (`got`, which left `got_bundle` behind) against
/// the interpreter on the same inputs: result, output streams and the
/// tokens left on every fed input stream.
fn assert_matches_interpreter(
    tag: &str,
    kernel: &Kernel,
    inputs: &HashMap<String, i64>,
    feeds: &[(String, Vec<i64>)],
    got: &Result<ExecOutcome, ExecError>,
    got_bundle: &StreamBundle,
) {
    assert_matches_interpreter_at(tag, kernel, inputs, feeds, got, got_bundle, STEP_LIMIT);
}

/// [`assert_matches_interpreter`] with the interpreter under `limit`.
fn assert_matches_interpreter_at(
    tag: &str,
    kernel: &Kernel,
    inputs: &HashMap<String, i64>,
    feeds: &[(String, Vec<i64>)],
    got: &Result<ExecOutcome, ExecError>,
    got_bundle: &StreamBundle,
    limit: u64,
) {
    let mut si = bundle(feeds);
    let ri = Interpreter::with_step_limit(kernel, limit).run(inputs, &mut si);
    match (&ri, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.scalar_outputs, &b.scalar_outputs, "{}", tag);
            prop_assert_eq!(&a.stats, &b.stats, "{}", tag);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", tag),
        _ => panic!("{tag}: interp {ri:?} vs compiled {got:?}"),
    }
    // Output streams: same ports in the same order, same tokens.
    let io: Vec<_> = si.outputs().collect();
    let vo: Vec<_> = got_bundle.outputs().collect();
    prop_assert_eq!(io, vo, "{}", tag);
    // Input streams: identical leftover tokens (the engines must consume
    // exactly the same prefix, even on error paths).
    for (port, _) in feeds {
        prop_assert_eq!(
            si.input_queue(port),
            got_bundle.input_queue(port),
            "{} leftover on {}",
            tag,
            port
        );
    }
}

/// Run a column case at widths 1, 2 and 4 under `limit`, each lane on
/// its own variant of the inputs (a trip count one higher, the last
/// token dropped, or remapped tokens), against the interpreter.
fn check_column_case(seed: u64, limit: u64) {
    let (kernel, inputs, feeds) = column_case(seed);
    let ck = CompiledKernel::compile(&kernel);
    let mut g = Gen::new(!seed);
    for k in [1usize, 2, 4] {
        let lanes: Vec<_> = (0..k)
            .map(|l| match l {
                0 => (inputs.clone(), feeds.clone()),
                _ => lane_variant(&mut g, &inputs, &feeds),
            })
            .collect();
        let ins: Vec<HashMap<String, i64>> = lanes.iter().map(|(i, _)| i.clone()).collect();
        let mut bundles: Vec<StreamBundle> = lanes.iter().map(|(_, f)| bundle(f)).collect();
        let out = ck.run_batch_with_step_limit(&ins, &mut bundles, limit);
        for (l, (li, lf)) in lanes.iter().enumerate() {
            let tag = format!("column seed {seed} limit {limit} k{k} lane{l}");
            assert_matches_interpreter_at(&tag, &kernel, li, lf, &out.lanes[l], &bundles[l], limit);
        }
    }
}

/// The main loop's body pcs in a listing: its back-edge is the first
/// `LoopBack`, and the pcs from that op's `body` target up to it.
fn main_loop(listing: &str) -> (usize, usize) {
    let line = listing
        .lines()
        .find(|l| l.contains("LoopBack"))
        .expect("every column case has a loop");
    let back = line.split_whitespace().next().unwrap().parse().unwrap();
    let body = line[line.find("body: ").unwrap() + 6..]
        .trim_end_matches([' ', '}'])
        .parse()
        .unwrap();
    (body, back)
}

/// Most column cases' main loop must compile to a column loop, or the
/// properties below would mostly test the op-at-a-time path again; so
/// must most of those whose loop holds a guarded block. And the loops
/// must really run in chunks: a run of `n` iterations op at a time costs
/// at least `n` dispatches.
#[test]
fn column_cases_mostly_chunk_their_main_loop() {
    let (mut chunked, mut guarded, mut guarded_chunked, mut long, mut long_fast) = (0, 0, 0, 0, 0);
    for seed in 0..200u64 {
        let (kernel, inputs, feeds) = column_case(seed);
        let ck = CompiledKernel::compile(&kernel);
        let listing = ck.disasm();
        let (body, back) = main_loop(&listing);
        let is_chunked = listing
            .lines()
            .any(|l| l.starts_with("column loop") && l.contains(&format!("..={back}:")));
        let has_guard = listing.lines().any(|l| {
            let pc = l
                .split_whitespace()
                .next()
                .and_then(|w| w.parse::<usize>().ok());
            pc.is_some_and(|pc| (body..back).contains(&pc)) && l.contains("] BranchIfZero")
        });
        chunked += is_chunked as u32;
        guarded += has_guard as u32;
        guarded_chunked += (has_guard && is_chunked) as u32;
        // A run that succeeds: op at a time it would cost at least one
        // dispatch per body op per iteration of the main loop.
        let n = inputs["n"] as u64;
        let mut b = bundle(&feeds);
        let out = ck.run_batch(std::slice::from_ref(&inputs), std::slice::from_mut(&mut b));
        if is_chunked && n >= 40 && out.lanes[0].is_ok() {
            long += 1;
            long_fast += (out.dispatches < n * (back - body) as u64 / 2) as u32;
        }
    }
    assert!(chunked >= 120, "{chunked} of 200 main loops chunk");
    assert!(
        guarded_chunked * 4 >= guarded * 3,
        "{guarded_chunked} of {guarded} guarded main loops chunk"
    );
    assert!(
        long_fast * 10 >= long * 9,
        "{long_fast} of {long} long runs run in chunks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn column_loops_are_observationally_identical_to_interpreter(seed in any::<u64>()) {
        check_column_case(seed, STEP_LIMIT);
    }

    /// Step limits anywhere in the run, mostly inside a chunk of some
    /// lane's loop: the limit is drawn below the steps lane 0 needs.
    #[test]
    fn column_step_limits_trip_where_the_interpreter_does(seed in any::<u64>()) {
        let (kernel, inputs, feeds) = column_case(seed);
        let mut b = bundle(&feeds);
        let steps = match Interpreter::with_step_limit(&kernel, STEP_LIMIT).run(&inputs, &mut b) {
            Ok(o) => o.stats.steps,
            Err(_) => STEP_LIMIT,
        };
        check_column_case(seed, 1 + Gen::new(seed ^ 0x5eed).below(steps));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn vm_is_observationally_identical_to_interpreter(seed in any::<u64>()) {
        let (kernel, inputs, feeds) = kernel_case(seed);
        let mut sv = bundle(&feeds);
        let rv = CompiledKernel::compile(&kernel).run_with_step_limit(&inputs, &mut sv, STEP_LIMIT);
        assert_matches_interpreter(&format!("seed {seed}"), &kernel, &inputs, &feeds, &rv, &sv);
    }
}

proptest! {
    // About one generated kernel in 170 drops a lane in the middle of
    // a staged op (`IncIdx`, `LoadIdxWrite`), which a one-lane run
    // cannot do; 2 000 cases reach that path about a dozen times.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn lanes_are_observationally_identical_to_interpreter(seed in any::<u64>()) {
        let (kernel, inputs, feeds) = kernel_case(seed);
        let ck = CompiledKernel::compile(&kernel);
        let mut g = Gen::new(!seed);
        for k in [2usize, 3, 4, 8] {
            // Lane 0 runs the case as generated; the others run variants.
            let lanes: Vec<_> = (0..k)
                .map(|l| match l {
                    0 => (inputs.clone(), feeds.clone()),
                    _ => lane_variant(&mut g, &inputs, &feeds),
                })
                .collect();
            let ins: Vec<HashMap<String, i64>> = lanes.iter().map(|(i, _)| i.clone()).collect();
            let mut bundles: Vec<StreamBundle> = lanes.iter().map(|(_, f)| bundle(f)).collect();
            let out = ck.run_batch_with_step_limit(&ins, &mut bundles, STEP_LIMIT);
            for (l, (li, lf)) in lanes.iter().enumerate() {
                let tag = format!("seed {seed} k{k} lane{l}");
                assert_matches_interpreter(&tag, &kernel, li, lf, &out.lanes[l], &bundles[l]);
            }
        }
    }
}
