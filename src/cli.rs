//! A small declarative flag parser for the `arthas-repro` subcommands.
//!
//! Each subcommand declares its positional arguments and flags once as a
//! [`CommandSpec`]; parsing, validation, and `--help` text all derive
//! from that declaration, replacing the previous per-command hand-rolled
//! loops. No external dependencies.
//!
//! ```
//! use arthas_repro::cli::{ArgSpec, CommandSpec, FlagSpec};
//!
//! const SPEC: CommandSpec = CommandSpec {
//!     name: "frob",
//!     summary: "frobnicate a widget",
//!     args: &[ArgSpec { name: "widget", required: true, help: "widget id" }],
//!     flags: &[
//!         FlagSpec { name: "--count", value: Some("N"), help: "how many times" },
//!         FlagSpec { name: "--json", value: None, help: "machine-readable output" },
//!     ],
//! };
//! let parsed = SPEC
//!     .parse(&["w1".to_string(), "--count".to_string(), "3".to_string()])
//!     .unwrap();
//! assert_eq!(parsed.pos(0), Some("w1"));
//! assert_eq!(parsed.get_u64("--count").unwrap(), Some(3));
//! assert!(!parsed.has("--json"));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use arthas::AnalysisCache;
use obs::RingRecorder;

/// A positional argument declaration.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Name shown in usage text, e.g. `"scenario"`.
    pub name: &'static str,
    /// Whether omitting it is a parse error.
    pub required: bool,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// A flag declaration. `value: Some("N")` makes it a valued flag
/// (`--seed 7`); `None` makes it a boolean switch (`--json`).
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The flag itself, including dashes, e.g. `"--seed"`.
    pub name: &'static str,
    /// Placeholder for the value in usage text; `None` for switches.
    pub value: Option<&'static str>,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// Shared `--analysis-cache DIR` declaration for every subcommand that
/// runs the analyzer pipeline: point it at a directory and the
/// `ModuleAnalysis` is loaded from (or saved to) fingerprint-keyed files
/// there, making warm restarts skip static analysis.
pub const ANALYSIS_CACHE_FLAG: FlagSpec = FlagSpec {
    name: "--analysis-cache",
    value: Some("DIR"),
    help: "persistent analysis cache directory (or $ARTHAS_ANALYSIS_CACHE)",
};

/// Companion switch disabling the analysis cache even when
/// `--analysis-cache` or `ARTHAS_ANALYSIS_CACHE` is set.
pub const NO_ANALYSIS_CACHE_FLAG: FlagSpec = FlagSpec {
    name: "--no-analysis-cache",
    value: None,
    help: "always recompute the analysis (overrides --analysis-cache)",
};

/// Help text of the `solution` positional; `pm_workload::Solution::parse`
/// owns the names and lists them when it rejects one.
const SOLUTION_HELP: &str = "arthas (default) | arthas-spec[:k] | arckpt | pmcriu | ...";

/// One subcommand's full argument declaration.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// Subcommand name, e.g. `"report"`.
    pub name: &'static str,
    /// One-line summary for the top-level usage listing.
    pub summary: &'static str,
    /// Positional arguments, in order; required ones must precede
    /// optional ones.
    pub args: &'static [ArgSpec],
    /// Accepted flags.
    pub flags: &'static [FlagSpec],
}

/// Every `arthas-repro` subcommand, declared once: `main` dispatches on
/// this table and the usage listing prints it.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "list",
        summary: "list the 12 fault scenarios (Table 2)",
        args: &[],
        flags: &[],
    },
    CommandSpec {
        name: "run",
        summary: "run one scenario to failure and mitigate it",
        args: &[
            ArgSpec {
                name: "scenario",
                required: true,
                help: "scenario id (f1..f12; see `list`), or `all`",
            },
            ArgSpec {
                name: "solution",
                required: false,
                help: SOLUTION_HELP,
            },
            ArgSpec {
                name: "seed",
                required: false,
                help: "workload seed (default 1)",
            },
        ],
        flags: &[ANALYSIS_CACHE_FLAG, NO_ANALYSIS_CACHE_FLAG],
    },
    CommandSpec {
        name: "report",
        summary: "observed run: recovery timeline or schema-validated JSON",
        args: &[
            ArgSpec {
                name: "scenario",
                required: true,
                help: "scenario id, or `all`",
            },
            ArgSpec {
                name: "solution",
                required: false,
                help: SOLUTION_HELP,
            },
        ],
        flags: &[
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "workload seed (default 1)",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "print the JSON document instead of the timeline",
            },
            FlagSpec {
                name: "--out",
                value: Some("DIR"),
                help: "also write one <id>.json per scenario into DIR",
            },
            ANALYSIS_CACHE_FLAG,
            NO_ANALYSIS_CACHE_FLAG,
        ],
    },
    CommandSpec {
        name: "serve",
        summary: "TCP cache front-end (memcached/RESP) with online hard-fault mitigation",
        args: &[ArgSpec {
            name: "scenario",
            required: false,
            help: "served fault scenario: f4 | f5 | f10 (required unless --connect)",
        }],
        flags: &[
            FlagSpec {
                name: "--addr",
                value: Some("HOST:PORT"),
                help: "bind address (default 127.0.0.1:0 = any free port)",
            },
            FlagSpec {
                name: "--workers",
                value: Some("N"),
                help: "connection worker threads (default 4)",
            },
            FlagSpec {
                name: "--drive",
                value: None,
                help: "run the load driver in-process and print the serving report",
            },
            FlagSpec {
                name: "--connect",
                value: Some("ADDR"),
                help: "client-only: drive an already-running server at ADDR",
            },
            FlagSpec {
                name: "--conns",
                value: Some("N"),
                help: "load-driver connections (default 16)",
            },
            FlagSpec {
                name: "--ops",
                value: Some("N"),
                help: "total load-driver ops (default 10000)",
            },
            FlagSpec {
                name: "--fault-at",
                value: Some("N"),
                help: "arm the scenario's hard fault at global op N (driver modes)",
            },
            FlagSpec {
                name: "--read-pct",
                value: Some("N"),
                help: "read share of the YCSB mix (default 50)",
            },
            FlagSpec {
                name: "--resp-pct",
                value: Some("N"),
                help: "share of connections speaking RESP (default 50)",
            },
            FlagSpec {
                name: "--key-space",
                value: Some("N"),
                help: "zipfian key-space size (default 512)",
            },
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "workload seed (default 1)",
            },
            FlagSpec {
                name: "--skew",
                value: Some("THETA"),
                help: "zipfian skew of the traffic keys: 0 = uniform (default), \
                       0.99 = YCSB hot-key popularity",
            },
            FlagSpec {
                name: "--replicas",
                value: Some("N"),
                help: "hot-standby replica pools fed from the checkpoint stream \
                       (default 0 = single-pool mitigation only)",
            },
            FlagSpec {
                name: "--standby-lag",
                value: Some("N"),
                help: "seqs the standbys are held behind the primary (default 2048)",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "machine-readable load report (schema-validated)",
            },
            ANALYSIS_CACHE_FLAG,
            NO_ANALYSIS_CACHE_FLAG,
        ],
    },
    CommandSpec {
        name: "inject",
        summary: "crash-point injection campaign over a scenario's durability boundaries",
        args: &[ArgSpec {
            name: "scenario",
            required: false,
            help: "scenario id (f1..f12, fx1), or `all` (required unless --resume)",
        }],
        flags: &[
            FlagSpec {
                name: "--stride",
                value: Some("N"),
                help: "test every N-th site (default 1 = exhaustive)",
            },
            FlagSpec {
                name: "--budget",
                value: Some("N"),
                help: "max trials per scenario (default 400)",
            },
            FlagSpec {
                name: "--runners",
                value: Some("N"),
                help: "parallel trial runners (default 1)",
            },
            FlagSpec {
                name: "--policies",
                value: Some("LIST"),
                help: "comma list of drop, keep, random (default drop,keep)",
            },
            FlagSpec {
                name: "--seeds",
                value: Some("K"),
                help: "RandomStaged seeds when `random` is listed (default 2)",
            },
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "workload seed (default 1)",
            },
            FlagSpec {
                name: "--invariants",
                value: None,
                help: "mine likely invariants from passing runs and convict clean-looking \
                       images that break them (silent_corruption verdicts)",
            },
            FlagSpec {
                name: "--replicas",
                value: Some("N"),
                help: "hot-standby replica pools behind every trial, fed from the \
                       checkpoint stream (default 0 = single-pool campaign; the matrix \
                       is byte-identical at 0)",
            },
            FlagSpec {
                name: "--replica-fault",
                value: Some("MODE"),
                help: "replica-side fault per trial: correlated, independent or torn \
                       (requires --replicas >= 1)",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "print the matrix JSON instead of the coverage table",
            },
            FlagSpec {
                name: "--out",
                value: Some("FILE"),
                help: "write the matrix JSON to FILE",
            },
            FlagSpec {
                name: "--journal",
                value: Some("DIR"),
                help: "journal per-trial progress under DIR; a killed campaign resumes \
                       with --resume DIR",
            },
            FlagSpec {
                name: "--resume",
                value: Some("DIR"),
                help: "resume from the journal under DIR: the campaign configuration is \
                       reconstructed from its header and finished trials are not re-run",
            },
            FlagSpec {
                name: "--fsync-batch",
                value: Some("N"),
                help: "journal lines between fsyncs (default 32)",
            },
            FlagSpec {
                name: "--trial-limit",
                value: Some("N"),
                help: "stop after executing N new trials (mid-queue-kill simulation; \
                       progress stays in the journal)",
            },
            ANALYSIS_CACHE_FLAG,
            NO_ANALYSIS_CACHE_FLAG,
        ],
    },
    CommandSpec {
        name: "study",
        summary: "print the empirical-study statistics (S2)",
        args: &[],
        flags: &[],
    },
    CommandSpec {
        name: "reproduce",
        summary:
            "the paper's evaluation as one document: every table and figure, each cell run once",
        args: &[],
        flags: &[
            FlagSpec {
                name: "--json",
                value: None,
                help: "print the {counts, timings} document instead of the markdown tables",
            },
            ANALYSIS_CACHE_FLAG,
            NO_ANALYSIS_CACHE_FLAG,
        ],
    },
    CommandSpec {
        name: "analyze",
        summary: "analyzer summary for an application module",
        args: &[ArgSpec {
            name: "app",
            required: true,
            help: "kvcache | listdb | cceh | segcache | pmkv",
        }],
        flags: &[ANALYSIS_CACHE_FLAG, NO_ANALYSIS_CACHE_FLAG],
    },
    CommandSpec {
        name: "lint",
        summary: "crash-consistency lint checks (L1-L6); exits 1 on errors",
        args: &[ArgSpec {
            name: "app",
            required: true,
            help: "kvcache | listdb | cceh | segcache | pmkv | fixture",
        }],
        flags: &[
            FlagSpec {
                name: "--json",
                value: None,
                help: "machine-readable report",
            },
            ANALYSIS_CACHE_FLAG,
            NO_ANALYSIS_CACHE_FLAG,
        ],
    },
    CommandSpec {
        name: "disasm",
        summary: "disassemble an application module",
        args: &[
            ArgSpec {
                name: "app",
                required: true,
                help: "kvcache | listdb | cceh | segcache | pmkv",
            },
            ArgSpec {
                name: "function",
                required: false,
                help: "single function to print (default: whole module)",
            },
        ],
        flags: &[],
    },
];

/// Parsed arguments for one subcommand invocation.
#[derive(Debug, Default)]
pub struct Parsed {
    positionals: Vec<String>,
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The value of a valued flag, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of a valued flag parsed as `u64`; `Err` carries a
    /// user-facing message when the value is present but not a number.
    pub fn get_u64(&self, flag: &str) -> Result<Option<u64>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag} expects a number, got `{v}`")),
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Per-invocation context shared by every analyzer-driven subcommand:
/// the resolved analysis cache and a ring recorder for observability.
/// Replaces the per-command `resolve_cache` + recorder boilerplate that
/// used to live in each `cmd_*` function.
pub struct CliContext {
    cache: Option<Arc<AnalysisCache>>,
    recorder: Arc<RingRecorder>,
}

impl CliContext {
    /// Ring-recorder capacity for CLI invocations; large enough to keep
    /// a whole mitigation timeline.
    pub const RECORDER_CAPACITY: usize = 8192;

    /// Resolves the shared flags of a parsed invocation:
    /// `--no-analysis-cache` wins, then `--analysis-cache DIR`, then the
    /// `ARTHAS_ANALYSIS_CACHE` environment variable; with none of them
    /// the analysis is recomputed every run (the pre-cache behaviour).
    /// `Err` carries a user-facing message (unopenable cache directory).
    pub fn from_parsed(p: &Parsed) -> Result<CliContext, String> {
        Self::with_env(p, std::env::var("ARTHAS_ANALYSIS_CACHE").ok())
    }

    /// [`CliContext::from_parsed`] with the environment fallback passed
    /// explicitly (testable without mutating process state).
    fn with_env(p: &Parsed, env_dir: Option<String>) -> Result<CliContext, String> {
        let cache = if p.has(NO_ANALYSIS_CACHE_FLAG.name) {
            None
        } else {
            let dir = p
                .get(ANALYSIS_CACHE_FLAG.name)
                .map(str::to_string)
                .or(env_dir)
                .filter(|d| !d.is_empty());
            match dir {
                None => None,
                Some(dir) => {
                    Some(Arc::new(AnalysisCache::persistent(&dir).map_err(|e| {
                        format!("cannot open analysis cache {dir}: {e}")
                    })?))
                }
            }
        };
        Ok(CliContext {
            cache,
            recorder: Arc::new(RingRecorder::new(Self::RECORDER_CAPACITY)),
        })
    }

    /// The resolved cache, borrowed (what `AppSetup::new_with_cache`
    /// takes).
    pub fn cache(&self) -> Option<&AnalysisCache> {
        self.cache.as_deref()
    }

    /// The resolved cache, shared (what builder-style configs take).
    pub fn cache_arc(&self) -> Option<Arc<AnalysisCache>> {
        self.cache.clone()
    }

    /// The invocation's ring recorder, for wiring into `obs::Instrument`
    /// layers.
    pub fn recorder(&self) -> Arc<RingRecorder> {
        self.recorder.clone()
    }

    /// One-line cache summary (`None` when no cache is configured).
    pub fn cache_summary(&self) -> Option<String> {
        let cache = self.cache.as_ref()?;
        Some(format!(
            "analysis cache: {} ({} hit(s), {} miss(es), {} invalid)",
            cache
                .dir()
                .map(|d| d.display().to_string())
                .unwrap_or_else(|| "in-memory".to_string()),
            cache.hits(),
            cache.misses(),
            cache.invalidations(),
        ))
    }
}

impl CommandSpec {
    /// Parses `args` (everything after the subcommand name) against this
    /// declaration. `Err` carries a user-facing message; `--help` yields
    /// the generated usage text as an `Err` so callers print-and-exit on
    /// one path.
    pub fn parse(&self, args: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Err(self.usage());
            }
            if a.starts_with("--") {
                let Some(spec) = self.flags.iter().find(|f| f.name == a.as_str()) else {
                    return Err(format!(
                        "unknown flag {a} for `{}`\n\n{}",
                        self.name,
                        self.usage()
                    ));
                };
                if spec.value.is_some() {
                    let Some(v) = it.next() else {
                        return Err(format!("{} needs a value ({})", spec.name, spec.help));
                    };
                    out.values.insert(spec.name, v.clone());
                } else if !out.switches.contains(&spec.name) {
                    out.switches.push(spec.name);
                }
            } else {
                if out.positionals.len() >= self.args.len() {
                    return Err(format!(
                        "unexpected argument `{a}` for `{}`\n\n{}",
                        self.name,
                        self.usage()
                    ));
                }
                out.positionals.push(a.clone());
            }
        }
        for (i, spec) in self.args.iter().enumerate() {
            if spec.required && out.positionals.len() <= i {
                return Err(format!(
                    "missing required argument <{}>\n\n{}",
                    spec.name,
                    self.usage()
                ));
            }
        }
        Ok(out)
    }

    /// Usage text generated from the declaration.
    pub fn usage(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!("usage: arthas-repro {}", self.name);
        for a in self.args {
            if a.required {
                let _ = write!(line, " <{}>", a.name);
            } else {
                let _ = write!(line, " [{}]", a.name);
            }
        }
        if !self.flags.is_empty() {
            line.push_str(" [flags]");
        }
        let mut out = format!("{line}\n\n{}\n", self.summary);
        if !self.args.is_empty() {
            out.push_str("\narguments:\n");
            for a in self.args {
                let _ = writeln!(out, "  {:<18} {}", a.name, a.help);
            }
        }
        if !self.flags.is_empty() {
            out.push_str("\nflags:\n");
            for f in self.flags {
                let shown = match f.value {
                    Some(v) => format!("{} {}", f.name, v),
                    None => f.name.to_string(),
                };
                let _ = writeln!(out, "  {shown:<18} {}", f.help);
            }
        }
        out
    }

    /// The one-line entry for the top-level command listing.
    pub fn summary_line(&self) -> String {
        format!("  {:<10} {}", self.name, self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CommandSpec = CommandSpec {
        name: "demo",
        summary: "demo command",
        args: &[
            ArgSpec {
                name: "target",
                required: true,
                help: "what to demo",
            },
            ArgSpec {
                name: "extra",
                required: false,
                help: "optional extra",
            },
        ],
        flags: &[
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "run seed",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "JSON output",
            },
        ],
    };

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_flags_mix_in_any_order() {
        let p = SPEC
            .parse(&sv(&["--json", "t1", "--seed", "9", "x"]))
            .unwrap();
        assert_eq!(p.pos(0), Some("t1"));
        assert_eq!(p.pos(1), Some("x"));
        assert_eq!(p.get_u64("--seed").unwrap(), Some(9));
        assert!(p.has("--json"));
    }

    #[test]
    fn missing_required_positional_is_an_error() {
        let e = SPEC.parse(&sv(&["--json"])).unwrap_err();
        assert!(e.contains("missing required argument <target>"), "{e}");
    }

    #[test]
    fn unknown_flag_and_excess_positional_are_errors() {
        assert!(SPEC.parse(&sv(&["t", "--bogus"])).is_err());
        assert!(SPEC.parse(&sv(&["t", "x", "y"])).is_err());
    }

    /// `inject` has one campaign runtime and no switch that selects it,
    /// and one switch per boolean: the removed `--fleet` and
    /// `--no-invariants` are rejected like any unknown flag, and the
    /// journal flags stand on their own.
    #[test]
    fn inject_rejects_the_removed_fleet_flag() {
        let inject = COMMANDS.iter().find(|c| c.name == "inject").unwrap();
        for removed in ["--fleet", "--no-invariants"] {
            let e = inject.parse(&sv(&["all", removed])).unwrap_err();
            assert!(e.contains(&format!("unknown flag {removed}")), "{e}");
            assert!(e.contains("usage: arthas-repro inject"), "{e}");
        }
        let p = inject.parse(&sv(&["all", "--journal", "dir"])).unwrap();
        assert_eq!(p.get("--journal"), Some("dir"));
        assert!(inject.flags.iter().all(|f| !f.help.contains("--fleet")));
    }

    #[test]
    fn valued_flag_without_value_is_an_error() {
        let e = SPEC.parse(&sv(&["t", "--seed"])).unwrap_err();
        assert!(e.contains("--seed needs a value"), "{e}");
    }

    #[test]
    fn bad_number_reports_the_flag() {
        let p = SPEC.parse(&sv(&["t", "--seed", "abc"])).unwrap();
        let e = p.get_u64("--seed").unwrap_err();
        assert!(e.contains("--seed expects a number"), "{e}");
    }

    #[test]
    fn help_is_generated_from_the_declaration() {
        let e = SPEC.parse(&sv(&["--help"])).unwrap_err();
        assert!(e.contains("usage: arthas-repro demo <target> [extra] [flags]"));
        assert!(e.contains("--seed N"));
        assert!(e.contains("run seed"));
    }

    const CACHED: CommandSpec = CommandSpec {
        name: "cached",
        summary: "demo with cache flags",
        args: &[],
        flags: &[ANALYSIS_CACHE_FLAG, NO_ANALYSIS_CACHE_FLAG],
    };

    fn temp_cache_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("arthas-cli-ctx-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.display().to_string()
    }

    #[test]
    fn context_without_flags_or_env_has_no_cache() {
        let p = CACHED.parse(&[]).unwrap();
        let ctx = CliContext::with_env(&p, None).unwrap();
        assert!(ctx.cache().is_none());
        assert!(ctx.cache_arc().is_none());
        assert!(ctx.cache_summary().is_none());
        assert!(ctx.recorder().events().is_empty());
    }

    #[test]
    fn context_flag_opens_a_persistent_cache() {
        let dir = temp_cache_dir("flag");
        let p = CACHED.parse(&sv(&["--analysis-cache", &dir])).unwrap();
        let ctx = CliContext::with_env(&p, None).unwrap();
        let summary = ctx.cache_summary().expect("cache configured");
        assert!(summary.contains(&dir), "{summary}");
        assert!(ctx.cache().is_some());
    }

    #[test]
    fn context_env_is_the_fallback_and_empty_env_means_none() {
        let dir = temp_cache_dir("env");
        let p = CACHED.parse(&[]).unwrap();
        let ctx = CliContext::with_env(&p, Some(dir.clone())).unwrap();
        assert!(ctx.cache().is_some());
        let ctx = CliContext::with_env(&p, Some(String::new())).unwrap();
        assert!(ctx.cache().is_none());
    }

    #[test]
    fn context_no_cache_switch_wins_over_flag_and_env() {
        let dir = temp_cache_dir("off");
        let p = CACHED
            .parse(&sv(&["--analysis-cache", &dir, "--no-analysis-cache"]))
            .unwrap();
        let ctx = CliContext::with_env(&p, Some(dir)).unwrap();
        assert!(ctx.cache().is_none());
    }

    #[test]
    fn context_reports_unopenable_cache_dirs() {
        // A file (not a directory) is not a usable cache root.
        let path = std::env::temp_dir().join(format!("arthas-cli-ctx-file-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        let dir = path.display().to_string();
        let p = CACHED.parse(&sv(&["--analysis-cache", &dir])).unwrap();
        let e = match CliContext::with_env(&p, None) {
            Err(e) => e,
            Ok(_) => panic!("a file as cache root must not open"),
        };
        assert!(e.contains("cannot open analysis cache"), "{e}");
        let _ = std::fs::remove_file(&path);
    }
}
