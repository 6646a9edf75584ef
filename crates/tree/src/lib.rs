//! Hierarchical floorplan trees for area optimization.
//!
//! A floorplan for `m` modules is an enveloping rectangle recursively
//! partitioned into `m` basic rectangles (paper §2, Figure 1). This crate
//! provides:
//!
//! * [`Module`] / [`ModuleLibrary`] — modules with finite sets of
//!   non-redundant implementations, plus seeded generators.
//! * [`FloorplanTree`] — the hierarchical description: slicing nodes
//!   (horizontal/vertical cut lines, any arity) and order-5 **wheel** nodes
//!   (the smallest non-slicing pattern), over module leaves. It is stored
//!   flat — one [`NodeKind`] per node and every child id in one array —
//!   and [`FloorplanTree::node`] lends a node as a [`Node`] view.
//! * [`restructure`] — the Figure-3 transformation of a floorplan tree `T`
//!   into a binary tree `T'` whose internal nodes are rectangular or
//!   L-shaped blocks, the form the bottom-up optimizer consumes.
//! * [`wheel`] — the closed-form minimal enveloping rectangle and cut
//!   positions of a wheel given its five children's sizes (the ground truth
//!   the optimizer's incremental L-shape joins must reproduce).
//! * [`layout`] — realization of an implementation choice into placed
//!   rectangles, with overlap/containment validation and whitespace
//!   polygonization.
//! * [`ost`] — orderly-spanning-tree style initial topologies (grid-shaped
//!   deterministic seeds for the annealer).
//! * [`generators`] — the FP1–FP4 benchmark floorplans of paper §5
//!   (Figure 8) and seeded random floorplans.
//!
//! # Example
//!
//! ```
//! use fp_tree::{generators, layout};
//!
//! let fp = generators::fp1();                       // 25-module wheel of wheels
//! assert_eq!(fp.tree.module_count(), 25);
//! let lib = generators::module_library(&fp.tree, 4, 42); // 4 impls per module
//! assert_eq!(lib.len(), 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod export;
pub mod fingerprint;
pub mod format;
pub mod generators;
pub mod layout;
pub mod mega;
mod module;
pub mod ost;
pub mod restructure;
mod tree;
pub mod wheel;

pub use module::{
    soft_library, soft_module, soft_module_spread, spread_library, Module, ModuleId, ModuleLibrary,
};
pub use tree::{Chirality, CutDir, FloorplanTree, Node, NodeId, NodeKind, TreeError};
