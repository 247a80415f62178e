//! Experiment drivers for every quantitative claim in the paper.
//!
//! Each module implements one experiment from the index in `DESIGN.md`
//! and returns structured results; the `experiments` binary renders them
//! as paper-vs-measured tables (and `--markdown` emits the body of
//! `EXPERIMENTS.md`).

pub mod measure;

pub mod e10_icebox;
pub mod e11_scale;
pub mod e12_slurm;
pub mod e13_control;
pub mod e14_chaos;
pub mod e15_federation;
pub mod e16_ingest;
pub mod e17_query;
pub mod e1_gathering;
pub mod e5_boot;
pub mod e6_cloning;
pub mod e7_pipeline;
pub mod e8_compress;
pub mod e9_events;
