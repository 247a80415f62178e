//! The /proc statistics-gathering substrate (paper §5.3.1).
//!
//! ClusterWorX rejects rstatd/SNMP ("limited information... slow and
//! inefficient") and gathers every node statistic straight from the
//! `/proc` virtual filesystem. The paper's key observation is that each
//! `read()` on a proc file invokes a kernel handler that regenerates the
//! *entire* file, so how you read matters enormously. Its measured ladder
//! on a 1 GHz Pentium III (Linux 2.4.18, `/proc/meminfo`):
//!
//! | step | technique | samples/s |
//! |---|---|---|
//! | L0 | naive read/parse | 85 |
//! | L1 | single read into a buffer, parse in the buffer | 4 173 |
//! | L2 | + a-priori knowledge of the output format | 14 031 |
//! | L3 | + keep the file open, rewind between samples | 33 855 |
//!
//! This crate reproduces all four levels as distinct gatherer
//! implementations ([`gather`]), over two interchangeable backends:
//!
//! * [`source::RealProc`] — the actual `/proc` of the machine we run on
//!   (the benchmarks use this), and
//! * [`synthetic::SyntheticProc`] — an in-memory /proc whose files are
//!   regenerated on every read exactly like the kernel handlers, driven
//!   by a mutable [`synthetic::SyntheticState`]. The cluster simulator
//!   plugs node activity into this state, and tests get determinism.
//!
//! An agent reads its node through [`ProcSource::node_reader`]: the
//! keep-open gatherers over the text by default (a real `/proc`), while
//! a simulated node hands over the values its files would be rendered
//! from, equal bit for bit to what the gatherers parse out of them, so
//! a simulated fleet pays for neither the text nor the read buffers. The
//! text ladder is what E1/E2 and `RealProc` agents run.
//!
//! Typed parsers for the five files the paper names (`meminfo`, `stat`,
//! `loadavg`, `uptime`, `net/dev`) and `diskstats` live in their own
//! modules, each with a
//! generic allocating parser (the "before" in the paper's story) and a
//! zero-allocation a-priori parser (the "after").

#![warn(missing_docs)]

pub mod diskstats;
pub mod gather;
pub mod loadavg;
pub mod meminfo;
pub mod netdev;
pub mod parse;
pub mod rstatd;
pub mod source;
pub mod stat;
pub mod synthetic;
pub mod uptime;

pub use gather::{GatherLevel, MemInfoGatherer};
pub use source::{ProcHandle, ProcSource, RealProc};
pub use synthetic::{SyntheticProc, SyntheticState};
