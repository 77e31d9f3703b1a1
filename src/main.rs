//! Command-line interface to the Arthas reproduction.
//!
//! ```text
//! arthas-repro list                      # the 12 fault scenarios
//! arthas-repro run f6 [arthas|pmcriu|arckpt|…] [seed]
//! arthas-repro reproduce [--json]        # every table and figure, one document
//! arthas-repro report f6 [--json]        # observed run: timeline / JSON
//! arthas-repro report all --out reports  # one JSON document per scenario
//! arthas-repro serve f4 --drive --conns 64 --fault-at 5000
//!                                        # live traffic + online mitigation
//! arthas-repro inject f6 --stride 8      # crash-point injection campaign
//! arthas-repro inject fx1 --invariants   # campaign with the mined-invariant oracle
//! arthas-repro study                     # the S2 empirical-study stats
//! arthas-repro analyze kvcache           # analyzer summary for an app
//! arthas-repro lint kvcache [--json]     # crash-consistency lint report
//! arthas-repro disasm cceh [insert]      # IR disassembly
//! ```
//!
//! Every subcommand's arguments are declared once as a
//! [`cli::CommandSpec`]; parsing and `--help` derive from the
//! declaration.

use arthas_repro::cli::{CliContext, CommandSpec, Parsed, COMMANDS};
use arthas_repro::reproduce;
use pm_workload::{run_cell, scenarios, AppSetup, RunConfig, Solution};

fn spec(name: &str) -> &'static CommandSpec {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .expect("spec declared")
}

fn build_app(name: &str) -> Option<pir::ir::Module> {
    match name {
        "kvcache" | "memcached" => Some(pm_apps::kvcache::build()),
        "listdb" | "redis" => Some(pm_apps::listdb::build()),
        "cceh" => Some(pm_apps::cceh::build()),
        "segcache" | "pelikan" => Some(pm_apps::segcache::build()),
        "pmkv" | "pmemkv" => Some(pm_apps::pmkv::build()),
        "fixture" | "obuf" => Some(pm_apps::fixture::build()),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!("usage: arthas-repro <command> [args]\n\ncommands:");
    for c in COMMANDS {
        eprintln!("{}", c.summary_line());
    }
    eprintln!("\nrun `arthas-repro <command> --help` for per-command flags");
    std::process::exit(2);
}

/// Parses a subcommand's arguments or exits with the spec's message:
/// `--help` prints the generated usage to stdout and exits 0, parse
/// errors go to stderr and exit 2.
fn parse_or_exit(name: &str, args: &[String]) -> Parsed {
    spec(name).parse(args).unwrap_or_else(|msg| {
        if msg.starts_with("usage:") {
            println!("{msg}");
            std::process::exit(0);
        }
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Resolves the shared cache/recorder flags into a [`CliContext`] or
/// exits with its message.
fn context_or_exit(p: &Parsed) -> CliContext {
    CliContext::from_parsed(p).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Resolves a scenario positional through the single entry point
/// [`scenarios::select`] (`fN`, `fx1` or `all`) or exits.
fn select_or_exit(which: &str) -> Vec<Box<dyn pm_workload::Scenario>> {
    scenarios::select(which).unwrap_or_else(|e| {
        eprintln!("{e} (try `arthas-repro list`)");
        std::process::exit(1);
    })
}

/// `get_u64` with the parse-error exit path.
fn flag_u64(p: &Parsed, flag: &str, default: u64) -> u64 {
    match p.get_u64(flag) {
        Ok(v) => v.unwrap_or(default),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

fn flag_f64(p: &Parsed, flag: &str, default: f64) -> f64 {
    match p.get(flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a number, got `{v}`");
            std::process::exit(2);
        }),
    }
}

fn main() {
    // Exit quietly with the conventional 141 status when stdout closes
    // early (e.g. `arthas-repro list | head`), instead of panicking.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(141);
        }
        eprintln!("{msg}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // `list` is Table 2 and `study` the §2 tables, as `reproduce` renders them.
        Some(cmd @ ("list" | "study")) => {
            let section = if cmd == "list" { "table2" } else { cmd };
            print!(
                "{}",
                reproduce::render(section, &reproduce::static_document())
            )
        }
        Some("run") => cmd_run(parse_or_exit("run", &args[1..])),
        Some("report") => cmd_report(parse_or_exit("report", &args[1..])),
        Some("serve") => cmd_serve(parse_or_exit("serve", &args[1..])),
        Some("inject") => cmd_inject(parse_or_exit("inject", &args[1..])),
        Some("reproduce") => cmd_reproduce(parse_or_exit("reproduce", &args[1..])),
        Some("analyze") => cmd_analyze(parse_or_exit("analyze", &args[1..])),
        Some("lint") => cmd_lint(parse_or_exit("lint", &args[1..])),
        Some("disasm") => cmd_disasm(parse_or_exit("disasm", &args[1..])),
        _ => usage(),
    }
}

/// Parses the optional solution positional ([`Solution::parse`]; default
/// `arthas`) or exits with its message.
fn solution_or_exit(name: Option<&str>) -> Solution {
    Solution::parse(name.unwrap_or("arthas")).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn cmd_run(p: Parsed) {
    let which = p.pos(0).expect("required");
    let targets = select_or_exit(which);
    let solution = solution_or_exit(p.pos(1));
    let seed: u64 = match p.pos(2).map(str::parse) {
        None => 1,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("seed expects a number, got `{}`", p.pos(2).unwrap_or(""));
            std::process::exit(2);
        }
    };
    let ctx = context_or_exit(&p);

    let mut failed = 0u32;
    for scn in &targets {
        println!("== {}: {} — {} ==", scn.id(), scn.system(), scn.fault());
        let setup = AppSetup::new_with_cache(scn.build_module(), ctx.cache());
        println!(
            "analyzer: {} instructions, {} PM sites instrumented, PDG {} edges ({:.1} ms)",
            setup.module.inst_count(),
            setup.guid_map.len(),
            setup.analysis.pdg.n_edges,
            setup.analysis.analysis_time.as_secs_f64() * 1e3,
        );
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let cell = run_cell(scn.as_ref(), &setup, solution, &cfg, |prod| {
            println!(
                "production: {:?} (exit code {}) after {} restart(s); {} updates checkpointed",
                prod.failure.kind,
                prod.failure.exit_code,
                prod.restarts,
                prod.log.total_updates(),
            )
        });
        let Some((_, res)) = cell else {
            eprintln!(
                "{}: production completed with no detected hard failure",
                scn.id()
            );
            failed += 1;
            continue;
        };
        println!("{res}");
        if !res.recovered {
            failed += 1;
        }
    }
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

fn cmd_report(p: Parsed) {
    let which = p.pos(0).expect("required");
    let seed = flag_u64(&p, "--seed", 1);
    let json = p.has("--json");
    let out_dir = p.get("--out");
    let targets = select_or_exit(which);
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }

    let solution = solution_or_exit(p.pos(1));
    let ctx = context_or_exit(&p);
    let mut failed = 0u32;
    for scn in &targets {
        let Some(report) =
            pm_workload::report::run_report(scn.as_ref(), solution, seed, ctx.cache())
        else {
            eprintln!(
                "{}: production completed with no detected hard failure",
                scn.id()
            );
            failed += 1;
            continue;
        };
        // Every document self-validates against the embedded schema;
        // drift (member removal, type change) fails the run.
        if let Err(errors) = report.validate_rendered() {
            eprintln!("{}: report JSON failed schema validation:", scn.id());
            for e in errors {
                eprintln!("  {e}");
            }
            failed += 1;
            continue;
        }
        if json {
            println!("{}", report.json.render_pretty());
        } else {
            print!("{}", report.render_timeline());
        }
        if let Some(dir) = out_dir {
            let path = format!("{dir}/{}.json", scn.id());
            if let Err(e) = std::fs::write(&path, report.json.render_pretty() + "\n") {
                eprintln!("cannot write {path}: {e}");
                failed += 1;
            } else {
                eprintln!("wrote {path}");
            }
        }
    }
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

/// The `serve` subcommand: a live memcached/RESP front-end over the PM
/// apps whose failure path runs the detector/reactor **online**.
///
/// Three modes:
/// * server (default): bind, print the address, serve until killed;
/// * `--drive`: in-process server + load driver, then the serving report
///   with the online-recovery gates (exit 1 on a gate failure);
/// * `--connect ADDR`: client-only load run against a server started
///   elsewhere (the two-process smoke test).
fn cmd_serve(p: Parsed) {
    let ctx = context_or_exit(&p);
    let ops = flag_u64(&p, "--ops", 10_000);
    let fault_at = p.get("--fault-at").map(|_| flag_u64(&p, "--fault-at", 0));
    if let Some(at) = fault_at {
        if at >= ops {
            eprintln!("--fault-at {at} must be below --ops {ops} to land inside the run");
            std::process::exit(2);
        }
    }
    let skew = flag_f64(&p, "--skew", 0.0);
    if !(0.0..1.0).contains(&skew) {
        eprintln!("--skew must be in [0, 1), got {skew}");
        std::process::exit(2);
    }
    let load_cfg = pm_workload::LoadConfig {
        conns: flag_u64(&p, "--conns", 16).max(1) as usize,
        ops,
        read_pct: flag_u64(&p, "--read-pct", 50).min(100) as u32,
        resp_pct: flag_u64(&p, "--resp-pct", 50).min(100) as u32,
        key_space: flag_u64(&p, "--key-space", 512).max(1),
        seed: flag_u64(&p, "--seed", 1),
        skew,
        fault_at,
        ..pm_workload::LoadConfig::default()
    };

    if let Some(addr) = p.get("--connect") {
        let addr: std::net::SocketAddr = addr.parse().unwrap_or_else(|_| {
            eprintln!("--connect expects HOST:PORT, got `{addr}`");
            std::process::exit(2);
        });
        let report = pm_workload::run_load(addr, &load_cfg).unwrap_or_else(|e| {
            eprintln!("load run failed: {e}");
            std::process::exit(1);
        });
        finish_load(&p, &load_cfg, report, None);
    }

    let Some(scenario) = p.pos(0) else {
        eprintln!("missing required argument <scenario> (or --connect ADDR)");
        std::process::exit(2);
    };
    let server_cfg = serve::ServerConfig {
        addr: p.get("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flag_u64(&p, "--workers", 4).max(1) as usize,
        engine: serve::EngineConfig {
            scenario: scenario.to_string(),
            replicas: flag_u64(&p, "--replicas", 0) as usize,
            standby_lag: flag_u64(&p, "--standby-lag", 2048),
            ..serve::EngineConfig::default()
        },
    };
    let workers = server_cfg.workers;
    let handle =
        serve::Server::start(server_cfg, ctx.cache(), ctx.recorder()).unwrap_or_else(|e| {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        });

    if p.has("--drive") {
        let report = pm_workload::run_load(handle.addr(), &load_cfg).unwrap_or_else(|e| {
            eprintln!("load run failed: {e}");
            std::process::exit(1);
        });
        let srv = handle.shutdown();
        finish_load(&p, &load_cfg, report, Some(srv));
    }

    println!(
        "serving {scenario} on {} ({workers} worker(s), memcached + RESP); Ctrl-C to stop",
        handle.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Renders a load run (`--json` or human-readable), applies the
/// online-recovery gates and exits with the verdict.
fn finish_load(
    p: &Parsed,
    cfg: &pm_workload::LoadConfig,
    report: pm_workload::LoadReport,
    server: Option<serve::ServerReport>,
) -> ! {
    let discarded = report.stat_u64("discarded_updates");
    let total = report.stat_u64("total_updates");
    if p.has("--json") {
        // The document self-validates against the load-report schema
        // before being emitted; drift is a bug, not an output.
        if let Err(errors) = report.validate_rendered(server.as_ref()) {
            eprintln!("internal error: load report does not match its schema:");
            for e in errors {
                eprintln!("  {e}");
            }
            std::process::exit(1);
        }
        println!("{}", report.to_json(server.as_ref()).render_pretty());
    } else {
        println!("== serving load report ==");
        println!(
            "ops: {} attempted, {} ok, {} server errors, {} client errors, {} codec errors, {} io errors",
            report.ops_attempted,
            report.ops_ok,
            report.server_errors,
            report.client_errors,
            report.codec_errors,
            report.io_errors,
        );
        println!(
            "throughput: {:.0} ops/s over {:.1} ms",
            report.throughput_ops_s,
            report.wall.as_secs_f64() * 1e3,
        );
        println!(
            "latency: p50 {} µs, p99 {} µs, max {} µs",
            report.p50_us, report.p99_us, report.max_us
        );
        match (report.fault_armed_at_us, report.recovered_at_us) {
            (Some(t0), Some(t1)) => {
                println!(
                    "fault: armed at {:.1} ms, mitigated online by {:.1} ms (outage ≤ {:.1} ms)",
                    t0 as f64 / 1e3,
                    t1 as f64 / 1e3,
                    (t1 - t0) as f64 / 1e3,
                );
                println!(
                    "  p99 during mitigation: {} over {} in-window ops",
                    report
                        .p99_during_mitigation_us
                        .map(|v| format!("{v} µs"))
                        .unwrap_or_else(|| "n/a".to_string()),
                    report.mitigation_window_ops,
                );
            }
            (Some(t0), None) => println!(
                "fault: armed at {:.1} ms, NOT recovered within the timeout",
                t0 as f64 / 1e3
            ),
            _ => println!("fault: none armed (clean run)"),
        }
        println!(
            "loss: {} tracked sets acked, {} lost{}; server discarded {}/{} checkpointed updates (fig9)",
            report.tracked_acked,
            report.tracked_lost,
            if report.lost_keys.is_empty() {
                String::new()
            } else {
                format!(" (keys {:?})", report.lost_keys)
            },
            discarded.unwrap_or(0),
            total.unwrap_or(0),
        );
        if let Some(s) = &server {
            println!(
                "server: {} connection(s), {} protocol error(s), {} busy rejection(s)",
                s.connections, s.protocol_errors, s.busy_rejections
            );
        }
    }

    let bad = report.gate_failures(cfg, server.as_ref());
    if !bad.is_empty() {
        eprintln!("serving gate FAILED: {}", bad.join("; "));
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Builds the resumed campaign from a journal header: scenario set,
/// policies and every matrix-determining knob come from the journal, so
/// supplying any of them on the resume command line is a contradiction
/// and rejected up front.
fn resume_campaign(
    p: &Parsed,
    ctx: &CliContext,
    dir: &str,
) -> (inject::CampaignConfig, Vec<Box<dyn pm_workload::Scenario>>) {
    const MATRIX_FLAGS: &[&str] = &[
        "--stride",
        "--budget",
        "--runners",
        "--policies",
        "--seeds",
        "--seed",
        "--invariants",
        "--replicas",
        "--replica-fault",
    ];
    for f in MATRIX_FLAGS {
        if p.get(f).is_some() || p.has(f) {
            eprintln!("{f} conflicts with --resume: the journal header fixes it");
            std::process::exit(2);
        }
    }
    if p.pos(0).is_some() {
        eprintln!("a scenario argument conflicts with --resume: the journal header fixes the scenario set");
        std::process::exit(2);
    }
    let header = inject::read_header(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("cannot resume from {dir}: {e}");
        std::process::exit(1);
    });
    let targets = scenarios::by_ids(&header.scenarios).unwrap_or_else(|e| {
        eprintln!("cannot resume from {dir}: {e}");
        std::process::exit(1);
    });
    let cfg = header.campaign_config(ctx.cache_arc()).unwrap_or_else(|e| {
        eprintln!("cannot resume from {dir}: {e}");
        std::process::exit(1);
    });
    (cfg, targets)
}

fn cmd_inject(p: Parsed) {
    let ctx = context_or_exit(&p);
    let resume_dir = p.get("--resume").map(str::to_string);
    let (cfg, targets) = if let Some(dir) = &resume_dir {
        resume_campaign(&p, &ctx, dir)
    } else {
        let Some(which) = p.pos(0) else {
            eprintln!("missing required argument <scenario> (or --resume DIR)");
            std::process::exit(2);
        };
        let seed = flag_u64(&p, "--seed", 1);
        let seeds = flag_u64(&p, "--seeds", 2) as u32;
        let policies =
            inject::parse_policies(p.get("--policies").unwrap_or("drop,keep"), seeds, seed)
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
        let replica_fault = match p.get("--replica-fault") {
            None => None,
            Some(s) => match inject::ReplicaFault::parse(s) {
                Some(f) => Some(f),
                None => {
                    eprintln!(
                        "unknown replica fault `{s}` (expected correlated, independent or torn)"
                    );
                    std::process::exit(2);
                }
            },
        };
        let cfg = inject::CampaignConfig::builder()
            .stride(flag_u64(&p, "--stride", 1))
            .budget(flag_u64(&p, "--budget", 400) as usize)
            .runners(flag_u64(&p, "--runners", 1) as usize)
            .seed(seed)
            .policies(policies)
            .invariants(p.has("--invariants"))
            .replicas(flag_u64(&p, "--replicas", 0) as usize)
            .replica_fault(replica_fault)
            .analysis_cache(ctx.cache_arc())
            .build()
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        (cfg, select_or_exit(which))
    };

    if let (Some(r), Some(j)) = (&resume_dir, p.get("--journal")) {
        if r != j {
            eprintln!("--journal {j} conflicts with --resume {r}: a resume appends to the journal it resumes from");
            std::process::exit(2);
        }
    }
    let journal_dir = resume_dir
        .clone()
        .or_else(|| p.get("--journal").map(str::to_string));
    let mut b = inject::FleetConfig::builder(cfg)
        .resume(resume_dir.is_some())
        .fsync_batch(flag_u64(&p, "--fsync-batch", obs::DEFAULT_FSYNC_BATCH as u64) as usize)
        .trial_limit(
            p.get("--trial-limit")
                .map(|_| flag_u64(&p, "--trial-limit", 0)),
        );
    if let Some(dir) = &journal_dir {
        b = b.journal_dir(dir);
    }
    let fcfg = b.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fleet = inject::run_fleet(&targets, &fcfg).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });
    eprint!("{}", fleet.render_summary());
    if !fleet.complete {
        // A trial-limited run intentionally stops mid-queue; the
        // journal holds the progress and `--resume` finishes it. An
        // incomplete matrix must never be published or gated on.
        match &journal_dir {
            Some(dir) => {
                eprintln!("campaign incomplete; resume with: arthas-repro inject --resume {dir}")
            }
            None => eprintln!(
                "campaign incomplete and not journaled: --trial-limit without --journal \
                 keeps no progress"
            ),
        }
        std::process::exit(0);
    }
    let report = fleet.campaign;
    if let Err(errors) = report.validate_rendered() {
        eprintln!("campaign matrix failed schema validation:");
        for e in errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    if p.has("--json") {
        println!("{}", report.json().render_pretty());
    } else {
        print!("{}", report.render_table());
    }
    if let Some(path) = p.get("--out") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.json().render_pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    // Gate: silent durability loss (or a replay-determinism bug) fails
    // the campaign, as does any mined-invariant conviction.
    let bad = report.invariant_violations() + report.silent_corruptions() + report.not_reached();
    std::process::exit(if bad > 0 { 1 } else { 0 });
}

/// The `reproduce` subcommand: the whole evaluation, once. Prints every
/// table and figure as markdown — the count sections are the blocks
/// `EXPERIMENTS.md` carries — or, with `--json`, the document itself.
fn cmd_reproduce(p: Parsed) {
    let ctx = context_or_exit(&p);
    let doc = reproduce::run(ctx.cache()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    if p.has("--json") {
        print!("{}", doc.render_pretty());
        return;
    }
    for (name, title) in reproduce::sections() {
        println!("## {title}\n\n{}", reproduce::render(&name, &doc));
    }
}

fn cmd_analyze(p: Parsed) {
    let name = p.pos(0).expect("required");
    let Some(module) = build_app(name) else {
        eprintln!("unknown app {name}");
        std::process::exit(1);
    };
    let ctx = context_or_exit(&p);
    let setup = AppSetup::new_with_cache(module, ctx.cache());
    println!("app: {name}");
    println!("functions: {}", setup.module.funcs.len());
    println!("instructions: {}", setup.module.inst_count());
    println!("pm-update sites (GUIDs): {}", setup.guid_map.len());
    println!("pdg edges: {}", setup.analysis.pdg.n_edges);
    println!(
        "points-to solver passes: {}",
        setup.analysis.pointsto.passes
    );
    println!(
        "analysis {:.2} ms, instrumentation {:.2} ms",
        setup.analysis.analysis_time.as_secs_f64() * 1e3,
        setup.instrument_time.as_secs_f64() * 1e3,
    );
    if let Some(summary) = ctx.cache_summary() {
        println!("{summary}");
    }
    println!("instrumented sites by function:");
    let mut per_fn: std::collections::BTreeMap<&str, usize> = Default::default();
    for meta in setup.guid_map.iter() {
        let name = &setup.module.func(meta.at.func).name;
        *per_fn.entry(name).or_default() += 1;
    }
    for (f, n) in per_fn {
        println!("  {f:<24} {n}");
    }
}

fn cmd_lint(p: Parsed) {
    let name = p.pos(0).expect("required");
    let json = p.has("--json");
    let Some(module) = build_app(name) else {
        eprintln!("unknown app {name}");
        std::process::exit(1);
    };
    let ctx = context_or_exit(&p);
    let setup = AppSetup::new_with_cache(module, ctx.cache());
    let mut guids = std::collections::HashMap::new();
    for meta in setup.guid_map.iter() {
        guids.insert(meta.at, meta.guid);
    }
    // Seeded Table 2 bugs are intentional lint findings: keep them visible
    // as "allowed" instead of failing the gate.
    let suppressions = pm_apps::lint_allow(name)
        .iter()
        .map(|(check, loc, reason)| {
            pir_lint::Suppression::new(pir_lint::Check::parse(check), loc, reason)
        })
        .collect();
    let opts = pir_lint::LintOptions {
        suppressions,
        guids,
    };
    let report = pir_lint::lint_module(&setup.module, &setup.analysis, &opts);
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    std::process::exit(if report.error_count() > 0 { 1 } else { 0 });
}

fn cmd_disasm(p: Parsed) {
    let name = p.pos(0).expect("required");
    let Some(module) = build_app(name) else {
        eprintln!("unknown app {name}");
        std::process::exit(1);
    };
    match p.pos(1) {
        Some(fname) => match module.func_by_name(fname) {
            Some(fid) => print!(
                "{}",
                pir::printer::format_function(&module, module.func(fid))
            ),
            None => {
                eprintln!("no function {fname} in {name}; available:");
                for f in &module.funcs {
                    eprintln!("  {}", f.name);
                }
                std::process::exit(1);
            }
        },
        None => print!("{}", pir::printer::format_module(&module)),
    }
}
