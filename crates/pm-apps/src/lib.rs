//! # pm-apps — the five target persistent-memory systems
//!
//! Miniature but faithful pir implementations of the five systems the
//! Arthas paper evaluates on, each containing the real bug patterns of
//! Table 2:
//!
//! - [`kvcache`] — Memcached-like cache (f1–f5);
//! - [`listdb`] — Redis-like store with listpacks, shared objects and a
//!   slowlog (f6–f8);
//! - [`cceh`] — the CCEH dynamic hashing scheme (f9);
//! - [`segcache`] — Pelikan-like segment cache (f10, f11);
//! - [`pmkv`] — PMEMKV-like engine with asynchronous lazy free (f12).
//!
//! Plus [`fixture`], a seeded-bug ordered buffer (fx1) whose deliberate
//! persist-order violation only the mined-invariant oracle catches — the
//! regression target for `inject --invariants`.

pub mod cceh;
pub mod fixture;
pub mod kvcache;
pub mod listdb;
pub mod pmkv;
pub mod segcache;
pub mod stress;
pub mod util;
