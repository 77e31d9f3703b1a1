//! `serve` — a TCP cache front-end over the PM apps with online
//! hard-fault mitigation.
//!
//! The paper measures detection and mitigation on offline workload
//! replays; this crate promotes the same pipeline to the recovery path
//! of a running server. A listener + worker-thread runtime (std only)
//! speaks the memcached text protocol and a RESP subset over
//! [`pm_apps::kvcache`] / [`pm_apps::segcache`]; when a hard fault is
//! armed mid-run, the [`arthas`] detector observes the recurring
//! failure across an in-process restart and the reactor reverts the
//! corrupting checkpoint entries **online** — connections see bounded
//! errors and latency instead of a dead process.
//!
//! Layering:
//!
//! * [`command`] — the protocol-independent command/reply model.
//! * [`memcached`] / [`resp`] — incremental wire codecs, both
//!   directions (server parse/encode and client encode/parse).
//! * [`engine`] — the single-threaded serving engine: VM + checkpoint
//!   log + detector + reactor, with the online-mitigation failure path.
//! * [`server`] — the TCP runtime: listener, worker threads blocked in
//!   a `poll(2)` readiness wait, per-connection protocol autodetection,
//!   and the degraded-mode fast path.
//! * [`stats`] — the schema guard over the `stats` reply surface.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod command;
pub mod engine;
pub mod memcached;
pub mod resp;
pub mod server;
pub mod stats;
// The `extern "C"` declaration of `poll(2)` and its one call site: the
// only module in the workspace allowed to contain `unsafe`.
#[allow(unsafe_code)]
mod sys;

pub use command::{key_id, Cmd, Parse, Reply, MAX_KEY_LEN, MAX_VALUE_LEN};
pub use engine::{BackendKind, Engine, EngineConfig, EngineStats, SERVABLE};
pub use server::{Server, ServerConfig, ServerHandle, ServerReport};
pub use stats::{stats_json, stats_schema, validate_stats};
