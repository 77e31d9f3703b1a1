//! What every workload's run shares: the time budget, unit repetition,
//! the process's peak memory, and the two things that keep a run from
//! measuring the host: the allocator's thresholds and awake processors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

/// How long to measure, and by how much to shrink the fixed sizes
/// (`--quick` divides them; a full run uses 1).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub scale: usize,
}

impl Budget {
    fn quick(&self) -> bool {
        self.scale > 1
    }

    /// Warm-up units to drop; a quick run keeps everything.
    pub fn warmup(&self, full: u64) -> u64 {
        if self.quick() {
            0
        } else {
            full
        }
    }

    /// Units a run must keep whatever the time budget.
    pub fn at_least(&self, full: usize, quick: usize) -> usize {
        if self.quick() {
            quick
        } else {
            full
        }
    }
}

/// Runs `unit(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_kept` results are kept. The first `warmup` results are
/// dropped: a fresh process pays page faults on memory that later
/// units reuse.
pub fn repeat<T>(
    seconds: f64,
    warmup: u64,
    min_kept: usize,
    mut unit: impl FnMut(u64) -> Result<T, String>,
) -> Result<Units<T>, String> {
    let start = Instant::now();
    let mut kept = Vec::new();
    let mut peaks = Vec::new();
    for i in 0.. {
        reset_peak_rss();
        let out = unit(i)?;
        if i >= warmup {
            kept.push(out);
            peaks.push(peak_rss_mb()?);
        }
        if kept.len() >= min_kept && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Units {
        kept,
        peak_rss_mb: median(&peaks),
    })
}

/// The kept units of a run and the median of their peak memory.
pub struct Units<T> {
    pub kept: Vec<T>,
    pub peak_rss_mb: f64,
}

/// Restarts the kernel's high-water mark at the current resident size,
/// so that each unit reports its own peak. Where the kernel refuses,
/// every unit reports the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Fixes glibc's mmap and trim thresholds, which also switches off
/// their dynamic adjustment, so that a copy of the 8 MiB pool image
/// always comes from a heap that is never handed back; with
/// `one_arena`, from the one heap all threads share.
///
/// Left alone, the first `free` of a pool image raises the mmap
/// threshold above 8 MiB, and from then on the heap's history decides
/// whether a pool copy reuses touched memory or maps fresh pages and
/// pays about 2 000 page faults. On the reference host that made one
/// `recover-f10` episode's outage read 17 ms or 35 ms, in phases that
/// lasted whole runs (run medians 28–42 ms for one seed).
///
/// Always on fresh pages (glibc's 128 KiB defaults, fixed) is what a
/// server's first recovery pays, and it is more than half of it: the
/// same `recover-f4` run reads 142 ms on fresh pages and 69 ms on the
/// reused heap, `recover-f10` 63 ms and 23 ms. But what a page fault
/// costs belongs to the kernel and the hypervisor, and on this VM it
/// moved by a third within the hour (one seed's `recover-f4` on fresh
/// pages: 127, 178, 142 ms, while `kv-write` stayed at 2 000 ops/s).
/// The benchmark judges changes to the program, so every workload runs
/// on touched memory and the warm-up unit pays the faults.
///
/// One arena where every unit starts new server threads (kv, recover):
/// with an arena per thread, what a worker frees waits in its arena for
/// a later thread that happens to inherit it, and the resident peak of
/// the same `recover-f4` run read 71, 78 or 84 MiB depending on the
/// seed. With one arena it reads 34 MiB on every seed, at the same
/// speed or better. `offline-recover` has one thread and so one arena
/// either way; its peak still reads 63.8 MiB in five processes of six
/// and 72.0 MiB (one more pool image) in the sixth, whatever the seed
/// and with address randomisation off, settled in the first pass and
/// constant from then on. The campaign keeps glibc's arenas: its
/// workers allocate in parallel for a whole unit, and sharing one arena
/// cost a tenth of its throughput (172 to 155 trials/s) and made its
/// peak follow how the workers' allocations interleave (quartile spread
/// 4 % to 12 %).
pub fn pin_allocator(one_arena: bool) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's own tuning entry point, takes plain
    // integers and locks the allocator itself; it is called at the
    // start of `main`, before any other thread exists.
    unsafe {
        // The largest mmap threshold glibc accepts.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        if one_arena {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Whether the spinners of [`start_spinners`] spin or doze.
static AWAKE: AtomicBool = AtomicBool::new(false);

/// Starts `idle` threads of the lowest scheduling class that spin
/// while [`keep_awake`] says so, so that no virtual processor halts
/// while a request is timed; one for each processor the workload leaves
/// without a thread that is always runnable.
///
/// The server's workers sleep 200 µs between polls of an idle socket,
/// and a processor with nothing else to run halts on each of those
/// sleeps. Waking a halted virtual processor is the hypervisor's work,
/// and how long it takes follows the load of the machine underneath:
/// on the reference host `kv-write` read 2 000–2 200 requests/s for
/// half an hour, then 500–1 400 for eight minutes (median latency up by
/// a sixth, the ninetieth percentile doubled from 0.55 ms to 1.0 ms),
/// then 2 100 again, with nothing else running in the VM. With a
/// `SCHED_IDLE` thread on the otherwise idle processor the timer
/// interrupt finds it running, and the worker pre-empts the spinner at
/// once: alternating runs in such a phase read 1 310–1 870 requests/s
/// without and 1 880–1 990 with, and in a calmer one 1 870–1 970 and
/// 2 180–2 400.
///
/// `SCHED_IDLE` runs only when nothing else wants the processor, but
/// one busy thread is still slower next to a spinner (the two virtual
/// processors may well share a core): a unit's set-up took a fifth
/// longer, and an outage, which is one busy worker, read 71.6 ms with
/// quartiles 9 % apart against 67.8 ms and 5 % (ten alternating pairs
/// of `recover-f4`). So the driver lets them spin only while a client
/// spins on its socket, and they doze through set-up and, once the
/// client starts napping, through a recovery. They hold nothing and end
/// with the process.
pub fn start_spinners(idle: usize) {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    for _ in 0..idle {
        std::thread::spawn(|| {
            // SAFETY: glibc's wrapper of the system call; pid 0 is the
            // calling thread and `param` points to a live `sched_param`
            // holding priority 0, which `SCHED_IDLE` requires.
            let idle_class =
                unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) }
                    == 0;
            // At normal priority a spinner would take a processor from
            // the program, so where the kernel refuses it never spins.
            loop {
                if idle_class && AWAKE.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
    }
}

/// Lets the spinners spin (a client is waiting for a reply it expects
/// within microseconds) or doze (nobody is, or the reply is a
/// recovery's and the worker wants the core to itself).
pub fn keep_awake(on: bool) {
    AWAKE.store(on, Ordering::Relaxed);
}
