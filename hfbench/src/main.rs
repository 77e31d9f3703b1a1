//! hfbench — one seeded, machine-readable benchmark of serving, online
//! recovery, offline mitigation and injection campaigns.
//!
//! ```text
//! hfbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     One run of one workload. Prints `name unit value` per metric and,
//!     as the last line, the result object. --trace 0 measures the
//!     end-to-end metrics with tracing off; --trace 1 is the traced run
//!     that yields the per-layer metrics.
//! hfbench run [--seed N] [--seconds S] [--repeat K] [--quick] [--out FILE]
//!     Every workload, each run in a child process of its own (so peak
//!     memory is per workload), untraced then traced; writes one
//!     schema-validated document.
//! hfbench trace [--seed N] [--seconds S] [--quick]
//!     The traced runs only.
//! hfbench compare A.json B.json
//!     Applies every bound and exact count; exits 1 on a `worse` row.
//! hfbench manifest
//!     Prints `BENCHMARK.json` from the tables in `metrics.rs`.
//! ```
//!
//! See the README next to this package for workloads, metrics and the
//! layer → end-to-end map.

mod campaign;
mod doc;
mod driver;
mod gen;
mod kv;
mod layers;
mod metrics;
mod offline;
mod recover;
mod run;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use obs::Json;

use metrics::{measured, Better, Kind, RunResult, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use run::Budget;
use span::Tracer;

/// Default measuring time of one run; `BENCHMARK.json` says the same.
const RUN_SECONDS: u64 = 10;
/// `--quick` divides the fixed sizes by this.
const QUICK_SCALE: usize = 50;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the benchmark writes: span files, the document, temporary
/// caches. Inside the build directory, which the checkout ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("hfbench")
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// `--flag value` pairs and positionals; `--quick` takes no value.
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("quick") => {
                    args.flags.insert("quick".into(), "1".into());
                }
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.insert(name.into(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
        }
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }

    fn budget(&self) -> Result<Budget, String> {
        let default = if self.quick() { 1 } else { RUN_SECONDS };
        Ok(Budget {
            seconds: self.number("seconds", default)? as f64,
            scale: if self.quick() { QUICK_SCALE } else { 1 },
        })
    }
}

/// One run of one workload in this process.
fn run_workload(
    workload: &Workload,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Result<RunResult, String> {
    let name = workload.name;
    let dir = out_dir();
    let mut spans: Vec<Tracer> = Vec::new();
    let result = match (workload.kind, traced) {
        (Kind::Kv, false) => kv::run(name, seed, budget),
        (Kind::Kv, true) => kv::run_traced(name, seed, budget, &mut spans),
        (Kind::Recover, false) => recover::run(name, seed, budget),
        (Kind::Recover, true) => recover::run_traced(name, seed, budget),
        (Kind::Offline, false) => offline::run(seed, budget),
        (Kind::Offline, true) => {
            let scratch = dir.join(format!("tmp-{}", std::process::id()));
            let result = offline::run_traced(seed, budget, &scratch);
            let _ = std::fs::remove_dir_all(&scratch);
            result
        }
        (Kind::Campaign, false) => campaign::run(seed, budget),
        (Kind::Campaign, true) => campaign::run_traced(seed, budget),
    }?;
    if !spans.is_empty() {
        let path = dir.join(format!("spans-{name}-seed{seed}.txt"));
        let _ = std::fs::remove_file(&path);
        for t in &spans {
            t.write_to(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(result)
}

/// The contract run: metric lines, then the result object last.
fn one_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    run::pin_allocator(workload.kind != Kind::Campaign);
    // The serving workloads' clients spin on their sockets while the
    // server's workers sleep between polls; the batch workloads keep
    // every processor they use busy themselves.
    match workload.kind {
        Kind::Kv => run::start_spinners(nproc().saturating_sub(kv::connections())),
        Kind::Recover => run::start_spinners(nproc().saturating_sub(1)),
        Kind::Offline | Kind::Campaign => {}
    }
    let traced = match args.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let mut result = run_workload(workload, args.number("seed", 1)?, args.budget()?, traced)?;
    if let Some(dropped) = result.values.get("obs.ring.dropped").filter(|&d| d > 0.0) {
        result.problems.push(format!(
            "a recorder ring dropped {dropped} events: the traced counts and splits are incomplete"
        ));
    }
    for problem in &result.problems {
        eprintln!("hfbench: {name}: output check failed: {problem}");
    }
    let json = result.to_json(traced)?;
    for (metric, (value, unit)) in metric_values(&json) {
        println!("{metric} {unit} {value}");
    }
    println!("{}", json.render());
    Ok(exit_code(result.problems.is_empty()))
}

/// Runs one workload in a child process and returns its result object.
fn child_run(workload: &str, seed: u64, args: &Args, traced: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let budget = args.budget()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &(budget.seconds as u64).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick() {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: the run printed no result"))?;
    let json = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok((json, out.status.success()))
}

fn metric_values(result: &Json) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.insert(name.clone(), (value, unit.to_string()));
        }
    }
    out
}

fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model)),
    ])
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The fixed sizes behind each workload's unit of work.
fn sizes_json(scale: usize) -> Json {
    let uints = |pairs: &[(&str, u64)]| Json::obj(pairs.iter().map(|&(k, v)| (k, Json::U64(v))));
    let kv = |name: &str| {
        let p = kv::params(name, scale);
        uints(&[
            ("keys", p.mix.keys),
            ("ops_per_unit", p.ops as u64),
            ("read_pct", u64::from(p.mix.read_pct)),
            ("connections", kv::connections() as u64),
        ])
    };
    let recover = uints(&[
        ("keys", recover::KEYS),
        ("ops_before_arm", recover::OPS_BEFORE_ARM as u64),
        ("ops_after_arm", recover::OPS_AFTER_ARM as u64),
        ("tracked_every", recover::TRACKED_EVERY as u64),
        ("connections", 1),
    ]);
    Json::obj(WORKLOADS.iter().map(|w| {
        let sizes = match w.kind {
            Kind::Kv => kv(w.name),
            Kind::Recover => recover.clone(),
            Kind::Offline => uints(&[("scenarios", 12)]),
            Kind::Campaign => campaign::sizes(scale),
        };
        (w.name, sizes)
    }))
}

/// `run` and `trace`: every workload in child processes, one document.
fn run_all(args: &Args, end_to_end: bool) -> Result<ExitCode, String> {
    let seed = args.number("seed", 1)?;
    let repeat = args.number("repeat", 1)?.max(1);
    let budget = args.budget()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut attempted = 0;
        let mut failed = 0;
        let mut correct = true;
        let mut absorb = |result: &Json, ok: bool| {
            attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            correct &= ok && result.get("correct").and_then(Json::as_bool) == Some(true);
        };

        let mut e2e = Vec::new();
        if end_to_end {
            let mut runs: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
            for _ in 0..repeat {
                let (result, ok) = child_run(w.name, seed, args, false)?;
                absorb(&result, ok);
                for (name, (value, unit)) in metric_values(&result) {
                    let slot = runs.entry(name).or_insert_with(|| (Vec::new(), unit));
                    slot.0.push(value);
                }
            }
            for m in END_TO_END {
                let (values, unit) = runs
                    .get(m.name)
                    .ok_or(format!("{}: no {} in the result", w.name, m.name))?;
                let value = stats::median(values);
                println!("{} {} {} {value}", w.name, m.name, unit);
                let mut fields = measured(value, unit);
                if repeat > 1 {
                    println!(
                        "{} {} spread {:.4} over {repeat} runs (bound {})",
                        w.name,
                        m.name,
                        doc::spread(values),
                        m.bound
                    );
                    fields.push((
                        "runs",
                        Json::Arr(values.iter().map(|&v| Json::F64(v)).collect()),
                    ));
                }
                e2e.push((m.name, Json::obj(fields)));
            }
        }
        let (result, ok) = child_run(w.name, seed, args, true)?;
        absorb(&result, ok);
        let layers = metric_values(&result);
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let (value, unit) = layers
                .get(m.name)
                .ok_or(format!("{}: no {} in the traced result", w.name, m.name))?;
            println!("{} {} {} {value}", w.name, m.name, unit);
            per_layer.push((m.name, Json::obj(measured(*value, unit))));
        }
        all_correct &= correct;
        let entry = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(attempted)),
            ("failed", Json::U64(failed)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(per_layer)),
        ]);
        workloads.push((w.name, entry));
    }
    if !end_to_end {
        return Ok(exit_code(all_correct));
    }

    let document = Json::obj([
        ("schema_version", Json::U64(doc::SCHEMA_VERSION)),
        ("benchmark", Json::Str("hfbench".into())),
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(budget.seconds as u64)),
        ("quick", Json::Bool(args.quick())),
        ("host", host_json()),
        ("git_rev", Json::Str(git_rev())),
        ("sizes", sizes_json(budget.scale)),
        ("workloads", Json::obj(workloads)),
    ]);
    let reparsed = Json::parse(&document.render()).map_err(|e| format!("document: {e}"))?;
    doc::validate(&reparsed).map_err(|e| format!("document is not schema-valid: {e:?}"))?;
    let path = match args.flags.get("out") {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!("hfbench-seed{seed}.json")),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, document.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(exit_code(all_correct))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: hfbench compare A.json B.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let any_worse = doc::compare(&load(a)?, &load(b)?)?;
    Ok(exit_code(!any_worse))
}

/// `BENCHMARK.json`, from the same tables the runs report from.
fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let str_field = |s: &str| Json::Str(s.to_string());
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", str_field(name)),
            ("unit", str_field(unit)),
            ("better", str_field(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "hfbench/Cargo.toml",
                "--bin",
                "hfbench",
                "--",
            ]),
        ),
        ("paths", strings(&["hfbench"])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", str_field(w.name)), ("why", str_field(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Json::F64(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => one_run(&args),
            Some("run") => run_all(&args, true),
            Some("trace") => run_all(&args, false),
            Some("compare") => compare(&args),
            Some("manifest") => {
                print!("{}", manifest().render_pretty());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other:?}; see the module docs")),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("hfbench: {why}");
            ExitCode::from(2)
        }
    }
}
