//! Spatial access substrate for proximity rank join.
//!
//! The paper assumes that every input relation can be consumed through
//! *sorted access*: either by increasing distance from the query point
//! (distance-based access, e.g. a location-aware search service) or by
//! decreasing score (score-based access, e.g. a ratings service). The paper's
//! prototype delegates this to remote Web services; this reproduction builds
//! the substrate itself. Score-based access needs only a score-sorted array
//! (`prj-access`'s score lane); distance-based access needs the index here:
//!
//! * [`rtree::RTree`] — an in-memory R-tree over `d`-dimensional points with
//!   Sort-Tile-Recursive-style bulk loading, quadratic-split insertion, range
//!   and k-nearest-neighbour queries, and — most importantly for proximity
//!   rank join — a **best-first incremental nearest-neighbour iterator**
//!   ([`rtree::RTree::nearest_iter`]) that yields points in non-decreasing
//!   distance from a query point without materialising the full ordering.
//!   This is exactly the access path a distance-sorted relation needs. The
//!   tree also exposes a low-level arena traversal API so that external
//!   cursors (e.g. `prj-access`'s relation sources) can run their own
//!   incremental searches without holding borrows.
//! * [`cursor::NearestCursor`] — a detached incremental nearest-neighbour
//!   cursor built on that arena API: it owns only its traversal frontier and
//!   borrows the tree per call, so many concurrent queries can walk one
//!   immutable tree shared behind an `Arc` (the access path used by the
//!   `prj-engine` catalog).
//!
//! The R-tree is generic over the payload type `T` carried by each point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cursor;
pub mod rtree;

pub use arena::{ArenaError, NodeId};
pub use cursor::NearestCursor;
pub use rtree::{NearestIter, NearestNeighbor, RTree, RTreeConfig};
