//! # xlayer-amr — block-structured adaptive mesh refinement
//!
//! A from-scratch, Chombo-like AMR substrate: the dynamic simulation side of
//! the coupled workflow in *Jin et al., "Using Cross-Layer Adaptations for
//! Dynamic Data Management in Large Scale Coupled Scientific Workflows"*
//! (SC '13).
//!
//! The crate provides:
//! * box calculus over 3-D index space ([`boxes::IBox`], [`intvect::IntVect`]),
//! * distributed level data with ghost exchange ([`level_data::LevelData`]),
//!   scheduled through a cached, parallel copier ([`copier::ExchangeCopier`]),
//! * tag-driven grid generation (Berger–Rigoutsos, [`cluster`]),
//! * a dynamic level hierarchy with regridding ([`hierarchy::AmrHierarchy`]),
//! * load balancing strategies ([`balance`]),
//! * the per-rank memory observables the adaptation runtime monitors
//!   ([`memory`], with real allocation accounting in [`fab`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod boxes;
pub mod cluster;
mod coarse_fine;
pub mod copier;
pub mod domain;
pub mod fab;
pub mod hierarchy;
pub mod intvect;
pub mod layout;
pub mod level_data;
pub mod memory;
pub mod plotfile;
pub mod tagging;

pub use boxes::IBox;
pub use copier::ExchangeCopier;
pub use domain::ProblemDomain;
pub use fab::Fab;
pub use hierarchy::{AmrHierarchy, HierarchyConfig};
pub use intvect::{IntVect, DIM};
pub use layout::BoxLayout;
pub use level_data::LevelData;
pub use tagging::IntVectSet;
