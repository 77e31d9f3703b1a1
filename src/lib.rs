//! Umbrella crate for the Arthas (EuroSys 21) reproduction.
pub mod cli;
pub mod reproduce;

pub use arthas;
pub use baselines;
pub use inject;
pub use pir;
pub use pir_analysis;
pub use pm_apps;
pub use pm_workload;
pub use pmemsim;
