//! # accelsoc-htg — Hierarchical Task Graph model
//!
//! The input to the accelsoc flow is a *two-level Hierarchical Task Graph*
//! (HTG), following Girkar & Polychronopoulos' formulation as used by the
//! paper (Fig. 1):
//!
//! * **Top level** — nodes are either *simple tasks* (a unit of work mapped
//!   wholly to hardware or software) or *phases*. Edges between top-level
//!   nodes are precedence constraints realised through shared memory: a
//!   successor only starts once its predecessors have committed their
//!   results to DRAM.
//! * **Phase level** — each phase contains a *dataflow graph* whose actors
//!   exchange data through streams; an actor fires as soon as the minimum
//!   amount of data is available on its inputs, so actor execution overlaps
//!   with communication.
//!
//! Hardware/software partitioning is performed **only at the top level**: a
//! phase is mapped entirely to hardware or entirely to software.
//!
//! This crate provides the graph data structures, validation (acyclicity,
//! port consistency, dataflow rate balance), HW/SW partitioning bookkeeping,
//! topological scheduling orders, and Graphviz export used by the rest of
//! the workspace.

pub mod dataflow;
pub mod dot;
pub mod graph;
pub mod partition;
pub mod validate;

pub use dataflow::{Actor, ActorId, DataflowGraph, Rate, StreamEdge, StreamId};
pub use graph::{Htg, HtgError, NodeId, NodeKind, TaskNode, TopEdge, TransferKind};
pub use partition::{Mapping, Partition, PartitionError};
pub use validate::{ValidationError, ValidationReport};
