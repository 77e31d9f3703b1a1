//! The 12 reproduced hard faults (Table 2 of the paper), as [`Scenario`]
//! implementations driving the five pm-apps systems.
//!
//! Each scenario follows the paper's methodology (§6.1): ~300 logical
//! seconds of workload; for externally controllable bugs the trigger is
//! applied around the half-way point; f3's race and f8's leak onset occur
//! "naturally" (the latter at a seed-randomized time, which is what makes
//! pmCRIU's outcome probabilistic in Table 3).

use pir::ir::Module;
use pir::vm::{Vm, VmError};
use pm_apps::{cceh, fixture, kvcache, listdb, pmkv, segcache, util};

use arthas::FailureRecord;

use crate::harness::{Drive, RunCtx, Scenario};

/// All twelve scenarios, in paper order. The seeded-bug fixture (fx1) is
/// deliberately *not* part of this set: the 12-scenario gates (zero false
/// positives, paper tables) quantify over exactly these, and the fixture
/// exists to be convicted, not to pass.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(F1RefcountOverflow),
        Box::new(F2FlushAll),
        Box::new(F3HashtableRace),
        Box::new(F4AppendOverflow),
        Box::new(F5RehashBitflip),
        Box::new(F6ListpackOverflow),
        Box::new(F7RefcountLogic),
        Box::new(F8SlowlogLeak),
        Box::new(F9DirectoryDoubling),
        Box::new(F10VlenOverflow),
        Box::new(F11NullStats),
        Box::new(F12AsyncFreeLeak),
    ]
}

/// Looks a scenario up by id ("f1".."f12", or the "fx1" seeded-bug
/// fixture).
pub fn by_id(id: &str) -> Option<Box<dyn Scenario>> {
    if id == "fx1" {
        return Some(Box::new(FxUnorderedPublish));
    }
    all().into_iter().find(|s| s.id() == id)
}

/// Resolves a list of scenario ids in order, failing on the first
/// unknown id — the resume path reconstructing a campaign's scenario
/// set from a journal header must not silently drop entries.
pub fn by_ids<S: AsRef<str>>(ids: &[S]) -> Result<Vec<Box<dyn Scenario>>, String> {
    ids.iter()
        .map(|id| {
            let id = id.as_ref();
            by_id(id).ok_or_else(|| format!("unknown scenario id `{id}`"))
        })
        .collect()
}

/// The single scenario-resolution entry point for CLI positionals:
/// `all` expands to every Table 2 scenario, anything else (`fN`, `fx1`)
/// resolves through [`by_ids`] as a one-element list.
pub fn select(spec: &str) -> Result<Vec<Box<dyn Scenario>>, String> {
    if spec == "all" {
        Ok(all())
    } else {
        by_ids(&[spec])
    }
}

fn call(vm: &mut Vm, name: &str, args: &[u64]) -> Result<(), VmError> {
    vm.call(name, args).map(|_| ())
}

fn vcall(vm: &mut Vm, name: &str, args: &[u64]) -> Result<(), FailureRecord> {
    vm.call(name, args)
        .map(|_| ())
        .map_err(|e| FailureRecord::from_vm(&e))
}

fn hash_seed(seed: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ======================================================================
// kvcache scenarios (f1–f5)
// ======================================================================

fn kv_items(vm: &mut Vm) -> u64 {
    vm.call("stored_count", &[]).ok().flatten().unwrap_or(0)
}

fn kv_benign_verify(vm: &mut Vm) -> Result<(), FailureRecord> {
    // A fresh put/get round trip proves basic operability.
    vcall(vm, "put", &[999_999, 0x3C, 16])?;
    let v = vm
        .call("get", &[999_999])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    if v != Some(u64::from_le_bytes([0x3C; 8])) {
        return Err(FailureRecord::wrong_result("roundtrip value mismatch"));
    }
    Ok(())
}

fn kv_consistency(vm: &mut Vm) -> Vec<String> {
    let mut issues = Vec::new();
    if let Err(e) = vm.call("check_invariant", &[]) {
        issues.push(format!("item-count invariant: {e}"));
    }
    issues
}

/// f1 — Memcached refcount overflow → repeated hang (deadlocked lookups).
pub struct F1RefcountOverflow;

impl Scenario for F1RefcountOverflow {
    fn id(&self) -> &'static str {
        "f1"
    }
    fn system(&self) -> &'static str {
        "Memcached (kvcache)"
    }
    fn fault(&self) -> &'static str {
        "Refcount overflow"
    }
    fn consequence(&self) -> &'static str {
        "Deadlock"
    }
    fn build_module(&self) -> Module {
        kvcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "kv_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0 => {
                call(vm, "put", &[16, 1, 8])?;
                call(vm, "put", &[32, 2, 8])?;
            }
            1..=99 => {
                // Benign background load: a rotating 10-key working set
                // in bucket 3 (keeps the table below its expansion
                // threshold so bucket geometry stays put).
                let k = 1003 + (t % 10) * 16;
                call(vm, "put", &[k, (k & 0x7F).max(1), 16])?;
                call(vm, "get", &[k])?;
            }
            100..=150 => {
                // Concurrent clients holding references to key 16: the
                // 8-bit refcount wraps (1 + 255 holds ≡ 0).
                for _ in 0..5 {
                    if ctx.get("holds") < 255 {
                        call(vm, "get_hold", &[16])?;
                        ctx.bump("holds", 1);
                    }
                }
                // Reads only in this window (no reaper interference).
                call(vm, "get", &[16])?;
            }
            151 => {
                // Two puts: the first one's reaper frees the still-linked
                // refcount-0 item, the second reuses its address and
                // self-loops the chain.
                call(vm, "put", &[48, 3, 8])?;
                call(vm, "put", &[64, 4, 8])?;
            }
            _ => {
                // Lookups in bucket 0 now walk the cycle: hang.
                call(vm, "get", &[80])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        // The previously hanging request, a chain-walking miss, and the
        // keys acknowledged right before the failure.
        vcall(vm, "get", &[80])?;
        for k in [32u64, 48, 64] {
            let v = vm
                .call("get", &[k])
                .map_err(|e| FailureRecord::from_vm(&e))?;
            if v == Some(kvcache::MISS) {
                return Err(FailureRecord::wrong_result(format!(
                    "acknowledged key {k} missing"
                )));
            }
        }
        kv_benign_verify(vm)
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        kv_consistency(vm)
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("check_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        kv_items(vm)
    }
    fn invariant_detectable(&self) -> bool {
        // A chain-integrity walk (reachable == stored count) flags the
        // freed-but-linked item.
        true
    }
}

/// f2 — Memcached `flush_all` future-time logic bug → data loss.
pub struct F2FlushAll;

impl Scenario for F2FlushAll {
    fn id(&self) -> &'static str {
        "f2"
    }
    fn system(&self) -> &'static str {
        "Memcached (kvcache)"
    }
    fn fault(&self) -> &'static str {
        "flush_all logic bug"
    }
    fn consequence(&self) -> &'static str {
        "Data loss"
    }
    fn build_module(&self) -> Module {
        kvcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "kv_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0..=149 => {
                let k = 1 + t;
                call(vm, "put", &[k, (k & 0x7F).max(1), 16])?;
                if t > 2 {
                    call(vm, "get", &[1 + (t % 50)])?;
                }
            }
            150 => {
                // flush_all scheduled 100 seconds in the future: nothing
                // should be dropped yet...
                call(vm, "flush_all", &[100])?;
            }
            _ => {
                // ...but the buggy check drops valid items immediately.
                call(vm, "check_keys", &[1, 40])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "check_keys", &[1, 40])?;
        kv_benign_verify(vm)
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        kv_consistency(vm)
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("check_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        kv_items(vm)
    }
}

/// f3 — Memcached hash-table expansion race → lost insert (data loss).
pub struct F3HashtableRace;

impl Scenario for F3HashtableRace {
    fn id(&self) -> &'static str {
        "f3"
    }
    fn system(&self) -> &'static str {
        "Memcached (kvcache)"
    }
    fn fault(&self) -> &'static str {
        "Hashtable lock data race"
    }
    fn consequence(&self) -> &'static str {
        "Data loss"
    }
    fn build_module(&self) -> Module {
        kvcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "kv_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        // The race happens *naturally* and early: the table expands as
        // soon as the initial load fills it (before pmCRIU's first
        // snapshot — which is why pmCRIU cannot mitigate this one).
        match t {
            0..=7 => {
                for i in 0..4 {
                    let k = 1000 + t * 4 + i;
                    call(vm, "put", &[k, 1, 8])?;
                }
            }
            8 => {
                // count is now 32 (> 2×16): this put triggers expansion
                // while the concurrent client inserts key 64 (old-table
                // bucket 0, migrated first).
                call(vm, "concurrent_put", &[33_000, 64])?;
            }
            9 => {
                call(vm, "check_invariant", &[])?;
            }
            _ => {
                let k = 2000 + t;
                call(vm, "put", &[k, 1, 8])?;
                call(vm, "get", &[k])?;
                if t.is_multiple_of(20) {
                    call(vm, "check_invariant", &[])?;
                }
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "check_invariant", &[])?;
        kv_benign_verify(vm)
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        kv_consistency(vm)
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("check_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        kv_items(vm)
    }
}

/// f4 — Memcached append length overflow → segfault.
pub struct F4AppendOverflow;

impl Scenario for F4AppendOverflow {
    fn id(&self) -> &'static str {
        "f4"
    }
    fn system(&self) -> &'static str {
        "Memcached (kvcache)"
    }
    fn fault(&self) -> &'static str {
        "Integer overflow in append"
    }
    fn consequence(&self) -> &'static str {
        "Segfault"
    }
    fn build_module(&self) -> Module {
        kvcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "kv_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0 => {
                call(vm, "put", &[16, 1, 8])?;
                call(vm, "put", &[32, 2, 8])?;
            }
            1..=149 => {
                // Rotating benign working set in bucket 3 (no expansion).
                let k = 1003 + (t % 10) * 16;
                call(vm, "put", &[k, (k & 0x7F).max(1), 16])?;
                call(vm, "get", &[k])?;
            }
            150 => {
                // Grow the value, then the 8-bit-length append overruns
                // the chain pointer with 0x41 bytes.
                call(vm, "put", &[16, 1, 150])?;
                call(vm, "append", &[16, 120, 0x41])?;
            }
            _ => {
                // Any miss in bucket 0 dereferences the corrupt pointer.
                call(vm, "get", &[48])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "get", &[48])?;
        vcall(vm, "get", &[32])?;
        kv_benign_verify(vm)
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        kv_consistency(vm)
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("check_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        kv_items(vm)
    }
    fn invariant_detectable(&self) -> bool {
        // A chain-pointer sanity walk detects the corrupt h_next.
        true
    }
}

/// f5 — Memcached rehashing-flag bit flip (hardware fault) → data loss.
pub struct F5RehashBitflip;

impl F5RehashBitflip {
    /// Seed-randomized trigger time, mostly before pmCRIU's first
    /// snapshot (the paper observes pmCRIU succeeding in 1/10 runs).
    fn trigger_at(seed: u64) -> u64 {
        10 + hash_seed(seed) % 55
    }
}

impl Scenario for F5RehashBitflip {
    fn id(&self) -> &'static str {
        "f5"
    }
    fn system(&self) -> &'static str {
        "Memcached (kvcache)"
    }
    fn fault(&self) -> &'static str {
        "Rehashing flag bit flip"
    }
    fn consequence(&self) -> &'static str {
        "Data loss"
    }
    fn build_module(&self) -> Module {
        kvcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "kv_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError> {
        let trigger = Self::trigger_at(ctx.seed());
        match t {
            0..=4 => {
                // Fast initial fill: force a completed expansion so the
                // stale old table exists.
                for i in 0..20 {
                    let k = t * 20 + i;
                    call(vm, "put", &[k, 1, 8])?;
                }
            }
            _ if t == trigger => {
                // The hardware fault: flip bit 0 of the persistent
                // rehashing flag (once — the harness re-drives this tick
                // after the first restart).
                if ctx.get("flipped") == 0 {
                    ctx.bump("flipped", 1);
                    let root = vm.pool_mut().root_offset().expect("root exists");
                    vm.pool_mut()
                        .corrupt_bit(root + kvcache::root::REHASH as u64, 0)
                        .expect("flip");
                }
                call(vm, "check_keys", &[0, 50])?;
            }
            _ => {
                call(vm, "get", &[t % 100])?;
                if t.is_multiple_of(10) {
                    call(vm, "check_keys", &[0, 50])?;
                }
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "check_keys", &[0, 50])?;
        kv_benign_verify(vm)
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        kv_consistency(vm)
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("check_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        kv_items(vm)
    }
    fn randomized(&self) -> bool {
        true
    }
    fn checksum_detectable(&self) -> bool {
        // The only studied case a checksum catches: raw value corruption
        // of a persisted field (§6.6).
        true
    }
}

// ======================================================================
// listdb scenarios (f6–f8)
// ======================================================================

fn ldb_items(vm: &mut Vm) -> u64 {
    // Lists present = keys 2..=6 benign + key 1; count via llast misses.
    let mut n = 0;
    for k in 1..20u64 {
        if let Ok(Some(v)) = vm.call("llast", &[k]) {
            if v != listdb::MISS {
                n += 1;
            }
        }
    }
    n
}

/// f6 — Redis listpack buffer overflow → segfault.
pub struct F6ListpackOverflow;

impl Scenario for F6ListpackOverflow {
    fn id(&self) -> &'static str {
        "f6"
    }
    fn system(&self) -> &'static str {
        "Redis (listdb)"
    }
    fn fault(&self) -> &'static str {
        "Listpack buffer overflow"
    }
    fn consequence(&self) -> &'static str {
        "Segfault"
    }
    fn build_module(&self) -> Module {
        listdb::build()
    }
    fn recover_call(&self) -> &'static str {
        "ldb_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0..=139 => {
                let k = 2 + (t % 5);
                call(vm, "rpush", &[k, 40, (t & 0x7F).max(1)])?;
                call(vm, "llast", &[k])?;
            }
            140..=152 => {
                // Large 0x7F-filled entries: the 13th crosses 4096 bytes
                // and the encoder stores a truncated length.
                call(vm, "rpush", &[1, 300, 0x7F])?;
            }
            153 | 154 => {
                call(vm, "rpush", &[1, 50, 0x11])?;
            }
            _ => {
                // Reading the list walks through the corrupt entry.
                call(vm, "llast", &[1])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "llast", &[1])?;
        vcall(vm, "check_lists", &[2, 7])?;
        vcall(vm, "rpush", &[9_999, 16, 0x2A])
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("obj_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        ldb_items(vm)
    }
    fn invariant_detectable(&self) -> bool {
        // A listpack bounds check (entry walk stays inside total_bytes)
        // flags the corruption.
        true
    }
}

/// f7 — Redis shared-object refcount logic bug → server panic.
pub struct F7RefcountLogic;

impl Scenario for F7RefcountLogic {
    fn id(&self) -> &'static str {
        "f7"
    }
    fn system(&self) -> &'static str {
        "Redis (listdb)"
    }
    fn fault(&self) -> &'static str {
        "Logic bug in refcount"
    }
    fn consequence(&self) -> &'static str {
        "Server panic"
    }
    fn build_module(&self) -> Module {
        listdb::build()
    }
    fn recover_call(&self) -> &'static str {
        "ldb_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0..=149 => {
                let k = 10 + (t % 30);
                call(vm, "obj_set", &[k, k * 7])?;
                call(vm, "obj_get", &[k])?;
                call(vm, "rpush", &[2, 24, 1])?;
            }
            150 => {
                // The shared object reaches refcount 2; the buggy release
                // double-decrements and unlinks it while still held.
                call(vm, "obj_set", &[5, 42])?;
                call(vm, "obj_retain", &[5])?;
                call(vm, "obj_release", &[5])?;
            }
            _ => {
                // The holder touches its object again: panic.
                call(vm, "obj_retain", &[5])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "obj_retain", &[5])?;
        let v = vm
            .call("obj_get", &[5])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        if v == Some(listdb::MISS) {
            return Err(FailureRecord::wrong_result("object 5 still missing"));
        }
        vcall(vm, "obj_set", &[9_999, 1])
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        let mut issues = Vec::new();
        if let Err(e) = vm.call("obj_invariant", &[]) {
            issues.push(format!("linked-implies-referenced invariant: {e}"));
        }
        issues
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("obj_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        let mut n = 0;
        for k in 1..60u64 {
            if let Ok(Some(v)) = vm.call("obj_get", &[k]) {
                if v != listdb::MISS {
                    n += 1;
                }
            }
        }
        n
    }
}

/// f8 — Redis slowlog entry leak → persistent leak.
pub struct F8SlowlogLeak;

impl F8SlowlogLeak {
    /// Seed-randomized leak onset; pmCRIU recovers only when a snapshot
    /// precedes it (the paper observes 4/10).
    fn onset(seed: u64) -> u64 {
        10 + hash_seed(seed.wrapping_mul(31)) % 60
    }
    /// Healthy PM utilisation bound used by verification.
    const THRESHOLD: u64 = 26_000;
}

impl Scenario for F8SlowlogLeak {
    fn id(&self) -> &'static str {
        "f8"
    }
    fn system(&self) -> &'static str {
        "Redis (listdb)"
    }
    fn fault(&self) -> &'static str {
        "slowlogEntry leak"
    }
    fn consequence(&self) -> &'static str {
        "Persistent leak"
    }
    fn build_module(&self) -> Module {
        listdb::build()
    }
    fn recover_call(&self) -> &'static str {
        "ldb_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError> {
        let onset = Self::onset(ctx.seed());
        // Benign foreground traffic.
        let k = 2 + (t % 4);
        call(vm, "rpush", &[k, 24, (t & 0x7F).max(1)])?;
        call(vm, "command", &[3])?; // fast command, no slowlog entry
        if t >= onset {
            // Slow commands accumulate, and the trim path leaks.
            for _ in 0..4 {
                call(vm, "command", &[50])?;
            }
        }
        // Periodic restarts let the PM usage monitor observe growth that
        // restarts cannot reclaim.
        if t % 90 == 89 {
            return Ok(Drive::CrashNow);
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "command", &[50])?;
        vcall(vm, "rpush", &[2, 16, 0x2A])?;
        let used = vm.pool_mut().allocated_bytes().unwrap_or(u64::MAX);
        if used > Self::THRESHOLD {
            return Err(FailureRecord::leak(format!(
                "PM utilisation {used} exceeds healthy bound {}",
                Self::THRESHOLD
            )));
        }
        Ok(())
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn invariant_call(&self) -> Option<&'static str> {
        Some("obj_invariant")
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        ldb_items(vm)
    }
    fn is_leak(&self) -> bool {
        true
    }
    fn randomized(&self) -> bool {
        true
    }
}

// ======================================================================
// cceh scenario (f9)
// ======================================================================

/// f9 — CCEH directory doubling bug → infinite loop.
pub struct F9DirectoryDoubling;

impl Scenario for F9DirectoryDoubling {
    fn id(&self) -> &'static str {
        "f9"
    }
    fn system(&self) -> &'static str {
        "CCEH"
    }
    fn fault(&self) -> &'static str {
        "Directory doubling bug"
    }
    fn consequence(&self) -> &'static str {
        "Infinite loop"
    }
    fn build_module(&self) -> Module {
        cceh::build()
    }
    fn recover_call(&self) -> &'static str {
        "cceh_recover"
    }
    fn on_start(&self, vm: &mut Vm, ctx: &mut RunCtx) {
        if ctx.restarts == 0 {
            // The untimely crash: between the directory-pointer persist
            // and the global-depth persist of the first doubling.
            let target = util::find_inst(vm.module(), "insert", "cceh.c:depth-persist", |op| {
                matches!(op, pir::ir::Op::Store { .. })
            })
            .expect("depth-persist store");
            vm.inject_crash(target, 1);
        }
    }
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError> {
        // Inserts into directory region 1 (keys ≡ 1 mod 4), paced so the
        // first doubling (5th key) lands near the half-way point; benign
        // lookups in between.
        if t.is_multiple_of(30) {
            let n = ctx.bump("inserted", 1);
            let k = 1 + (n - 1) * 4;
            call(vm, "insert", &[k, k * 10])?;
        } else {
            let n = ctx.get("inserted").max(1);
            let k = 1 + ((t % n.max(1)) * 4);
            call(vm, "lookup", &[k])?;
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        // The previously hanging insert region must accept keys again.
        vcall(vm, "insert", &[41, 410])?;
        vcall(vm, "insert", &[45, 450])?;
        let v = vm
            .call("lookup", &[41])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        if v != Some(410) {
            return Err(FailureRecord::wrong_result("lookup after insert failed"));
        }
        Ok(())
    }
    fn consistency(&self, vm: &mut Vm) -> Vec<String> {
        // Directory sanity: every key inserted by verify is findable.
        let mut issues = Vec::new();
        if !matches!(vm.call("lookup", &[41]), Ok(Some(410))) {
            issues.push("directory/depth mismatch after recovery".into());
        }
        issues
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        let mut n = 0;
        for i in 0..40u64 {
            let k = 1 + i * 4;
            if let Ok(Some(v)) = vm.call("lookup", &[k]) {
                if v != cceh::MISS {
                    n += 1;
                }
            }
        }
        n
    }
}

// ======================================================================
// segcache scenarios (f10, f11)
// ======================================================================

fn sc_items(vm: &mut Vm) -> u64 {
    vm.call("sc_init", &[]).ok();
    // Stored count lives in the root.
    let root = vm.pool_mut().root_offset().unwrap_or(0);
    if root == 0 {
        return 0;
    }
    vm.pool_mut()
        .read_u64(root + segcache::root::COUNT as u64)
        .unwrap_or(0)
}

/// f10 — Pelikan value length overflow → segfault.
pub struct F10VlenOverflow;

impl Scenario for F10VlenOverflow {
    fn id(&self) -> &'static str {
        "f10"
    }
    fn system(&self) -> &'static str {
        "Pelikan (segcache)"
    }
    fn fault(&self) -> &'static str {
        "Value length overflow"
    }
    fn consequence(&self) -> &'static str {
        "Segfault"
    }
    fn build_module(&self) -> Module {
        segcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "sc_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0..=149 => {
                let k = 1 + (t % 40);
                call(vm, "set", &[k, 16 + (t % 64), (k & 0x7F).max(1)])?;
                call(vm, "get", &[k])?;
            }
            150 => {
                // The oversized value: stored length 450 & 0xFF passes the
                // check, the write overruns the chain pointer.
                call(vm, "set", &[7_777, 450, 0x6B])?;
            }
            _ => {
                call(vm, "get", &[1])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "get", &[1])?;
        vcall(vm, "set", &[9_999, 16, 0x2A])?;
        let v = vm
            .call("get", &[9_999])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        if v != Some(u64::from_le_bytes([0x2A; 8])) {
            return Err(FailureRecord::wrong_result("roundtrip failed"));
        }
        Ok(())
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        sc_items(vm)
    }
    fn invariant_detectable(&self) -> bool {
        // A chain-pointer bounds walk detects the corrupt next pointer.
        true
    }
}

/// f11 — Pelikan null stats response → segfault.
pub struct F11NullStats;

impl Scenario for F11NullStats {
    fn id(&self) -> &'static str {
        "f11"
    }
    fn system(&self) -> &'static str {
        "Pelikan (segcache)"
    }
    fn fault(&self) -> &'static str {
        "Null stats response"
    }
    fn consequence(&self) -> &'static str {
        "Segfault"
    }
    fn build_module(&self) -> Module {
        segcache::build()
    }
    fn recover_call(&self) -> &'static str {
        "sc_recover"
    }
    fn on_start(&self, vm: &mut Vm, ctx: &mut RunCtx) {
        if ctx.restarts == 0 {
            // Crash between the metrics-flag persist and the stats-block
            // pointer persist.
            let target =
                util::find_inst(vm.module(), "enable_metrics", "stats.c:ptr-store", |op| {
                    matches!(op, pir::ir::Op::Store { .. })
                })
                .expect("ptr-store");
            vm.inject_crash(target, 1);
        }
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        match t {
            0..=149 => {
                let k = 1 + (t % 40);
                call(vm, "set", &[k, 16, (k & 0x7F).max(1)])?;
                call(vm, "get", &[k])?;
            }
            150 => {
                // The injected crash fires inside enable_metrics.
                call(vm, "enable_metrics", &[])?;
            }
            _ => {
                call(vm, "stats", &[])?;
            }
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "stats", &[])?;
        vcall(vm, "set", &[9_999, 16, 0x2A])
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        sc_items(vm)
    }
}

// ======================================================================
// pmkv scenario (f12)
// ======================================================================

/// f12 — PMEMKV asynchronous lazy free → persistent leak.
pub struct F12AsyncFreeLeak;

impl F12AsyncFreeLeak {
    /// Healthy PM utilisation bound used by verification.
    const THRESHOLD: u64 = 8_000;
}

impl Scenario for F12AsyncFreeLeak {
    fn id(&self) -> &'static str {
        "f12"
    }
    fn system(&self) -> &'static str {
        "PMEMKV (pmkv)"
    }
    fn fault(&self) -> &'static str {
        "Asynchronous lazy free"
    }
    fn consequence(&self) -> &'static str {
        "Persistent leak"
    }
    fn build_module(&self) -> Module {
        pmkv::build()
    }
    fn recover_call(&self) -> &'static str {
        "pmkv_recover"
    }
    fn on_start(&self, vm: &mut Vm, _ctx: &mut RunCtx) {
        vm.call("start_worker", &[]).expect("spawn free worker");
    }
    fn drive(&self, vm: &mut Vm, t: u64, _ctx: &mut RunCtx) -> Result<Drive, VmError> {
        // A rotating working set of 50 keys.
        let k = 1 + (t % 50);
        call(vm, "kv_put", &[k, t])?;
        call(vm, "kv_get", &[k])?;
        // At t = 150, 200, 250: delete a batch and crash before the lazy
        // free worker's next drain tick.
        if t >= 150 && t.is_multiple_of(50) {
            for i in 0..20u64 {
                call(vm, "kv_del", &[1 + i])?;
            }
            return Ok(Drive::CrashNow);
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        vcall(vm, "kv_put", &[9_999, 1])?;
        let v = vm
            .call("kv_get", &[9_999])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        if v != Some(1) {
            return Err(FailureRecord::wrong_result("roundtrip failed"));
        }
        let used = vm.pool_mut().allocated_bytes().unwrap_or(u64::MAX);
        if used > Self::THRESHOLD {
            return Err(FailureRecord::leak(format!(
                "PM utilisation {used} exceeds healthy bound {}",
                Self::THRESHOLD
            )));
        }
        Ok(())
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        vm.call("live_count", &[]).ok().flatten().unwrap_or(0)
    }
    fn is_leak(&self) -> bool {
        true
    }
}

// ======================================================================
// Seeded-bug fixture (fx1) — not one of the paper's 12 scenarios
// ======================================================================

/// fx1: the fixture app's deliberate persist-order bug. `ob_put`
/// publishes a cell (link, tag, head, count all persisted) before its
/// payload ever reaches media. The workload itself never fails — the run
/// completes, recovery always succeeds, and there is no domain invariant
/// routine to object — so every crash trial in the window classifies as
/// clean recovery. Only the mined-invariant oracle (`inject
/// --invariants`) convicts the image: the promoted `payload
/// persists-before tag` invariant is broken whenever a crash lands
/// between the tag persist and the final payload persist.
pub struct FxUnorderedPublish;

impl FxUnorderedPublish {
    /// Ticks that issue a put (enough sites for a strided campaign while
    /// keeping trials cheap).
    const PUTS: u64 = 40;
}

impl Scenario for FxUnorderedPublish {
    fn id(&self) -> &'static str {
        "fx1"
    }
    fn system(&self) -> &'static str {
        "fixture (obuf)"
    }
    fn fault(&self) -> &'static str {
        "Dependent store persisted before its source"
    }
    fn consequence(&self) -> &'static str {
        "Silent corruption"
    }
    fn build_module(&self) -> Module {
        fixture::build()
    }
    fn recover_call(&self) -> &'static str {
        "ob_recover"
    }
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError> {
        if t < Self::PUTS {
            // Seed-dependent non-zero payloads, deterministic per tick.
            let k = 1 + hash_seed(ctx.seed() ^ t) % 997;
            call(vm, "ob_put", &[k])?;
        } else {
            let k = 1 + hash_seed(ctx.seed() ^ (t % Self::PUTS)) % 997;
            call(vm, "ob_get", &[k])?;
        }
        Ok(Drive::Continue)
    }
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord> {
        let before = self.count_items(vm);
        vcall(vm, "ob_put", &[4242])?;
        let tag = vm
            .call("ob_get", &[4242])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        if tag != Some(4243) {
            return Err(FailureRecord::wrong_result("tag roundtrip failed"));
        }
        if self.count_items(vm) != before + 1 {
            return Err(FailureRecord::wrong_result("count did not advance"));
        }
        Ok(())
    }
    fn consistency(&self, _vm: &mut Vm) -> Vec<String> {
        Vec::new()
    }
    fn count_items(&self, vm: &mut Vm) -> u64 {
        vm.call("ob_count", &[]).ok().flatten().unwrap_or(0)
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;

    #[test]
    fn select_resolves_all_ids_and_the_all_alias() {
        assert_eq!(select("all").unwrap().len(), all().len());
        assert_eq!(select("f4").unwrap().len(), 1);
        assert_eq!(select("f4").unwrap()[0].id(), "f4");
        assert_eq!(select("fx1").unwrap()[0].id(), "fx1");
        assert!(select("f99").is_err());
        assert!(select("").is_err());
    }
}
