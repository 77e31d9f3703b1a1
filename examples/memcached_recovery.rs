//! The paper's flagship case (f1): the Memcached refcount-overflow bug
//! turning into a recurring hang in a persistent Memcached, mitigated by
//! Arthas with minimal data loss.
//!
//! ```text
//! cargo run --release --example memcached_recovery
//! ```
//!
//! This drives the full evaluation harness for scenario f1: a 300-second
//! logical production run (concurrent clients wrap the item's 8-bit
//! refcount; the reaper frees the still-linked item; address reuse
//! self-loops the hash chain), restart-based hard-failure detection, and
//! Arthas mitigation — compared against the pmCRIU baseline.

use arthas::ReactorConfig;
use pm_workload::{mitigate, run_production, scenarios, AppSetup, RunConfig, Solution};

fn main() {
    let scn = scenarios::by_id("f1").expect("scenario f1");
    println!("scenario {}: {} — {}", scn.id(), scn.system(), scn.fault());

    println!("\n-- static analysis + instrumentation --");
    let setup = AppSetup::new(scn.build_module());
    println!(
        "{} instructions; {} PM-update sites instrumented; analysis {:.1} ms",
        setup.module.inst_count(),
        setup.guid_map.len(),
        setup.analysis.analysis_time.as_secs_f64() * 1e3
    );

    println!("\n-- production run to a detected hard failure --");
    let cfg = RunConfig::default();
    let prod = run_production(scn.as_ref(), &setup, &cfg).expect("hard failure detected");
    println!(
        "failure: {:?} (exit code {}), detected after {} restart(s); {} PM updates checkpointed",
        prod.failure.kind,
        prod.failure.exit_code,
        prod.restarts,
        prod.log.total_updates()
    );

    println!("\n-- Arthas mitigation --");
    let mut prod_arthas = run_production(scn.as_ref(), &setup, &cfg).expect("reproducible");
    let arthas = mitigate(
        &mut prod_arthas,
        scn.as_ref(),
        &setup,
        Solution::Arthas(ReactorConfig::default()),
    );
    println!(
        "recovered={} in {} attempts; discarded {}/{} updates ({:.3}%); consistent={:?}",
        arthas.recovered,
        arthas.attempts,
        arthas.discarded_updates,
        arthas.total_updates,
        100.0 * arthas.discarded_updates as f64 / arthas.total_updates.max(1) as f64,
        arthas.consistent
    );

    println!("\n-- pmCRIU baseline --");
    let mut prod_criu = run_production(scn.as_ref(), &setup, &cfg).expect("reproducible");
    let criu = mitigate(&mut prod_criu, scn.as_ref(), &setup, Solution::PmCriu);
    println!(
        "recovered={}; item loss {:.1}% (coarse snapshot rollback)",
        criu.recovered,
        100.0 * criu.item_loss_frac
    );
}
