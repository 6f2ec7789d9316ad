//! Property-based round-trip tests over the three DSL front-ends.

use accelsoc::core::dsl::{parse, print, PrintStyle};
use accelsoc::core::graph::{DslEdge, DslNode, InterfaceKind, LinkEnd, Port, TaskGraph};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,10}".prop_map(|s| s)
}

/// Random, structurally well-formed task graphs (names unique, all link
/// endpoints refer to declared stream ports — not necessarily
/// semantically valid, which is exactly what a parser round-trip needs).
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (
        ident(),
        proptest::collection::vec(
            (
                ident(),
                proptest::collection::vec((ident(), any::<bool>()), 1..5),
            ),
            1..6,
        ),
    )
        .prop_map(|(project, raw_nodes)| {
            let mut g = TaskGraph::new(&project);
            for (i, (name, ports)) in raw_nodes.into_iter().enumerate() {
                let name = format!("{name}_{i}"); // force uniqueness
                let ports = ports
                    .into_iter()
                    .enumerate()
                    .map(|(j, (pname, stream))| Port {
                        name: format!("{pname}_{j}"),
                        kind: if stream {
                            InterfaceKind::Stream
                        } else {
                            InterfaceKind::Lite
                        },
                    })
                    .collect();
                g.nodes.push(DslNode { name, ports });
            }
            // Edges: connect every node with a lite port, link first
            // stream port of each node from 'soc.
            let nodes = g.nodes.clone();
            for n in &nodes {
                if n.ports.iter().any(|p| p.kind == InterfaceKind::Lite) {
                    g.edges.push(DslEdge::Connect {
                        node: n.name.clone(),
                    });
                }
                if let Some(p) = n.ports.iter().find(|p| p.kind == InterfaceKind::Stream) {
                    g.edges.push(DslEdge::Link {
                        from: LinkEnd::Soc,
                        to: LinkEnd::Port {
                            node: n.name.clone(),
                            port: p.name.clone(),
                        },
                    });
                }
            }
            if g.edges.is_empty() {
                // Grammar requires at least one edge.
                let n = &g.nodes[0];
                g.edges.push(DslEdge::Connect {
                    node: n.name.clone(),
                });
            }
            g
        })
}

proptest! {
    /// print → parse is the identity in ScalaObject style.
    #[test]
    fn print_parse_roundtrip(g in arb_graph()) {
        let text = print(&g, PrintStyle::ScalaObject);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(back, g);
    }

    /// Bare style loses only the project name.
    #[test]
    fn bare_roundtrip_preserves_structure(g in arb_graph()) {
        let text = print(&g, PrintStyle::Bare);
        let mut back = parse(&text).unwrap();
        prop_assert_eq!(back.project.as_str(), "anonymous");
        back.project = g.project.clone();
        prop_assert_eq!(back, g);
    }

    /// Printing is deterministic and parsing is a function (idempotent
    /// round trip: print(parse(print(g))) == print(g)).
    #[test]
    fn print_is_stable(g in arb_graph()) {
        let t1 = print(&g, PrintStyle::ScalaObject);
        let t2 = print(&parse(&t1).unwrap(), PrintStyle::ScalaObject);
        prop_assert_eq!(t1, t2);
    }

    /// Whitespace injection between tokens never changes the parse.
    #[test]
    fn whitespace_insensitive(g in arb_graph(), pad in 1usize..4) {
        let text = print(&g, PrintStyle::ScalaObject);
        let spaced: String = text
            .chars()
            .flat_map(|c| {
                let pad_str = if c == ';' { " ".repeat(pad) } else { String::new() };
                std::iter::once(c).chain(pad_str.chars().collect::<Vec<_>>())
            })
            .collect();
        prop_assert_eq!(parse(&spaced).unwrap(), g);
    }
}

#[test]
fn paper_listing4_roundtrips_verbatim() {
    let src = accelsoc::apps::archs::arch_dsl_source(accelsoc::apps::archs::Arch::Arch4);
    let g = parse(&src).unwrap();
    let printed = print(&g, PrintStyle::ScalaObject);
    assert_eq!(parse(&printed).unwrap(), g);
    // Node names of Listing 4 survive.
    for n in [
        "grayScale",
        "computeHistogram",
        "halfProbability",
        "segment",
    ] {
        assert!(printed.contains(n));
    }
}

/// Grammar tokens, quotes, brackets and non-ASCII text the mutator
/// splices into valid programs.
const TOKENS: &[&str] = &[
    "tg",
    "node",
    "is",
    "link",
    "to",
    "end",
    "'soc",
    "\"",
    "'",
    "(",
    ")",
    ",",
    ";",
    "{",
    "}",
    "nodes",
    "end_edges",
    "é",
    "→",
    "\u{1F600}",
    "\u{0}",
];

/// One edit of a program's bytes; positions wrap to the program length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Delete up to `len` bytes starting at `at`.
    Delete { at: usize, len: usize },
    /// Overwrite the byte at `at` (any value: the result may not be
    /// UTF-8, and is then read lossily, as a file would be).
    Replace { at: usize, byte: u8 },
    /// Insert `TOKENS[token]` at `at`.
    Insert { at: usize, token: usize },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..3,
        0usize..4096,
        1usize..24,
        any::<u8>(),
        0..TOKENS.len(),
    )
        .prop_map(|(kind, at, len, byte, token)| match kind {
            0 => Mutation::Delete { at, len },
            1 => Mutation::Replace { at, byte },
            _ => Mutation::Insert { at, token },
        })
}

fn mutate(src: &str, mutations: &[Mutation]) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for &m in mutations {
        let n = bytes.len();
        match m {
            Mutation::Delete { at, len } => {
                let at = at % (n + 1);
                bytes.drain(at..(at + len).min(n));
            }
            Mutation::Replace { at, byte } if n > 0 => bytes[at % n] = byte,
            Mutation::Replace { .. } => {}
            Mutation::Insert { at, token } => {
                let at = at % (n + 1);
                bytes.splice(at..at, TOKENS[token].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

thread_local! {
    /// One engine for every case, as `accelsoc build` runs one per
    /// program: it knows the Otsu kernels, so a mutant that still names
    /// them flows through HLS, integration and software generation.
    static ENGINE: std::cell::RefCell<accelsoc::core::flow::FlowEngine> =
        std::cell::RefCell::new(accelsoc::apps::archs::otsu_flow_engine());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Malformed programs reach `parse` (what `accelsoc check` and
    /// `accelsoc fmt` run) and `FlowEngine::run_source` (what `accelsoc
    /// build` runs) as a value or a typed error, never a panic. Each
    /// case mutates one of the four Listing-4 programs, rendered in
    /// either print style, with up to four byte deletions, byte
    /// replacements and token insertions.
    #[test]
    fn mutated_programs_fail_typed_never_panic(
        program in 0usize..8,
        mutations in proptest::collection::vec(arb_mutation(), 1..5),
    ) {
        use accelsoc::apps::archs::{arch_dsl_source, Arch};
        use accelsoc::core::flow::FlowError;

        let arch = Arch::all()[program % 4];
        let style = if program < 4 { PrintStyle::ScalaObject } else { PrintStyle::Bare };
        let valid = print(&parse(&arch_dsl_source(arch)).unwrap(), style);
        let src = mutate(&valid, &mutations);

        let parsed = parse(&src);
        if let Err(e) = &parsed {
            prop_assert!(!e.to_string().is_empty());
        }
        let flowed = ENGINE.with(|e| e.borrow_mut().run_source(&src));
        // Both front doors agree on whether the text parses.
        prop_assert_eq!(
            parsed.is_ok(),
            !matches!(flowed, Err(FlowError::Parse(_))),
            "{:?}",
            src
        );
    }
}
