//! The ClusterWorX monitoring pipeline (paper §5.1 and §5.3).
//!
//! "To address these two issues [CPU cycles and network bandwidth], we
//! divide cluster monitoring into three stages: gathering, consolidation,
//! and transmission."
//!
//! * **Gathering** ([`snapshot`], using `cwx-proc`): the agent reads
//!   `/proc` with the keep-open zero-allocation gatherers (a simulated
//!   node hands over the same values without rendering text) and samples
//!   the hardware sensors, producing one [`snapshot::Snapshot`] per tick.
//! * **Consolidation** ([`consolidate`]): monitors extract values from
//!   the snapshot; the consolidator splits them into static and dynamic
//!   data, transmits "only data that has changed since the last
//!   transmission", and caches the snapshot so simultaneous requests are
//!   served from the same data.
//! * **Transmission** ([`transmit`]): changed values are rendered in a
//!   human-readable text wire format ("we leave the data in text form
//!   because of platform independency") and compressed with the LZSS
//!   coder from `cwx-util`.
//!
//! [`monitor`] holds the monitor registry: the 40+ built-in monitors the
//! product shipped with ("comes standard with over 40 monitors built
//! in") plus the plug-in mechanism ("a plugin itself can be any program
//! or script ... it will be recognized by the system automatically").
//! [`agent`] ties the stages into the per-node agent. What the server
//! does with a report — history, events — lives in `clusterworx`; the
//! history it writes is a `cwx_store::Store`.

#![warn(missing_docs)]

pub mod agent;
pub mod consolidate;
pub mod fault;
pub mod monitor;
pub mod plugins;
pub mod snapshot;
pub mod transmit;

pub use agent::{Agent, AgentConfig, AgentStats};
pub use fault::AgentFault;
pub use monitor::{MonitorClass, MonitorDef, MonitorKey, Registry, Value};
pub use snapshot::{Sensors, Snapshot};
