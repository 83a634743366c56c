//! # xlayer-viz — the visualization / analysis service
//!
//! The analysis side of the paper's coupled workflow (§5.1):
//!
//! * [`marching_cubes`] — communication-free isosurface extraction over AMR
//!   level data (the paper's visualization service),
//! * [`entropy`] — per-block Shannon entropy (Eq. 11), driving the
//!   entropy-based application-layer adaptation (Fig. 6),
//! * [`downsample`] — the `f_data_reduce(S_data, X)` reduction operator
//!   (Eq. 1),
//! * [`stats`] — descriptive statistics of a block (§5.2.4),
//! * [`mesh`] — triangle meshes with size accounting for the data-movement
//!   bookkeeping (Figs. 8, 11).
//!
//! The per-cell twins of the flat kernels live in the hidden `reference`
//! module, out of the API; only tests and the kernel benches call them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod downsample;
pub mod entropy;
pub mod marching_cubes;
pub mod mesh;
#[doc(hidden)]
pub mod reference;
pub mod stats;

pub use downsample::{downsample_fab, downsample_region};
pub use entropy::{block_entropy, block_entropy_scratch, factors_from_entropy, level_entropies};
pub use marching_cubes::{
    extract_block, extract_level, extract_payload_into, merge_surfaces, GridSurface,
};
pub use mesh::TriMesh;
pub use stats::BlockStats;
