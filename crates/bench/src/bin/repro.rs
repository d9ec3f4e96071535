//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! Usage: repro <subcommand> [flags]
//!   repro sweep  [<target>...]     all paper artifacts (default: all)
//!   repro figure <target>...       specific figures/tables
//!   repro faults <profile>         baseline-vs-faulted degradation report
//!   repro crash  <class>...        kill-at-any-point durability verifier
//!   repro perf                     host-side simulator micro-benchmark
//!   repro serve  --scenario <name> overload-robust service mode
//!   repro cache  [--gc]            result-cache usage report / GC
//!   repro topo   [flags]           deployment-topology experiments
//! Global flags: [--profile quick|full] [--quick] [--no-cache]
//!               [--json PATH] [--seed S] [--points N] [--baseline PATH]
//!               [--no-shed] [--max-mb N]
//! Targets: table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!          write_limits ablation all
//! Fault profiles: ssd-brownout core-loss dram-brownout
//! Crash classes: oltp olap htap all
//! Serve scenarios: overload noisy-neighbor tenant-burst
//! ```
//!
//! The pre-subcommand spellings (`repro <target>...`, `--faults
//! <profile>`, `--crash <class>`) keep working as hidden deprecated
//! aliases; they print a deprecation warning to stderr and behave
//! exactly as before, so existing CI invocations are unaffected.
//!
//! Output goes to stdout; progress goes to stderr; machine-readable
//! artifacts land in `results/`, with memoized experiment results under
//! `results/cache/` (bypass with `--no-cache`, clear by deleting the
//! directory). `repro faults <profile>` runs the baseline-vs-faulted
//! degradation report; combined with targets (legacy spelling) the
//! figures run alongside it. `repro crash <class>` runs the
//! kill-at-any-point crash-consistency verifier over that workload class
//! (200 seeded kill points by default, 25 under `--quick`, override with
//! `--points`; every point is deterministic in `--seed`). `repro perf`
//! runs the host-side simulator micro-benchmark (a frozen fixed-seed
//! sweep over both analytical executors) and writes its machine-readable
//! report to `--json PATH` (default `results/perf.json`, so a bare run
//! never overwrites a committed `BENCH_*.json`); `--baseline PATH`
//! embeds a previous report and computes the speedup. `perf` exits 1
//! only on a correctness violation — same-seed digests differing between
//! its paired runs, push/pull executors disagreeing on query results, or
//! digests drifting from the baseline's — never on timing. `repro serve
//! --scenario <name>` runs the overload-robust service mode: an
//! open-loop multi-tenant arrival stream simulated three ways (a 0.8×
//! baseline, the scenario's stress shape, and the stress shape with
//! shedding disarmed) and gated on p99/goodput acceptance bounds;
//! `--no-shed` runs just the disarmed stress run, and every decision the
//! admission path takes folds into a trace digest that is bit-identical
//! for the same `(--seed, scenario)`. `repro cache` prints result-cache
//! usage; `--gc` evicts least-recently-used entries down to the cap
//! (`--max-mb`, default 512 MiB). `--json` is shared: `faults`, `crash`,
//! and `serve` also write their reports to the given path. Unknown
//! flags, profiles, or targets exit with code 2; a failing
//! experiment or durability violation is reported per-slot and exits
//! with code 1 after the remaining targets run (degraded fault runs are
//! expected and do not fail the process).

use dbsens_bench::alloc_counter::CountingAlloc;
use dbsens_bench::degradation;
use dbsens_bench::figures;
use dbsens_bench::perf;
use dbsens_bench::profile::{fault_profile, profile_from_name, Profile, FAULT_PROFILES};
use dbsens_bench::save_json;
use dbsens_bench::sqlcmd;
use dbsens_bench::topo::{self, TopoFault};
use dbsens_core::cache::{ResultCache, DEFAULT_CACHE_CAP_BYTES};
use dbsens_core::crashverify::{self, ClassReport, CrashClass, CrashVerifyConfig};
use dbsens_core::progress::StderrReporter;
use dbsens_core::runner::{ExperimentError, GuardedRunner, Runner};
use dbsens_core::serve::{Scenario, ServeConfig, ServiceHarness};
use dbsens_core::sqlexp::SweepAxis;
use dbsens_core::topoexp::render_crossover;
use dbsens_engine::governor::ExecMode;
use dbsens_hwsim::faults::FaultSpec;
use dbsens_hwsim::topology::Deployment;
use std::sync::Arc;
use std::time::Duration;

/// Counting allocator so `repro perf` can report allocation counts; it
/// delegates to the system allocator and costs two relaxed atomic adds
/// per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The subcommands of the restructured CLI; the bare legacy spellings
/// keep working as hidden deprecated aliases.
const SUBCOMMANDS: &[&str] = &[
    "sweep", "faults", "crash", "perf", "figure", "serve", "cache", "sql", "topo",
];

/// Every valid target, in presentation order.
const TARGETS: &[&str] = &[
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "write_limits",
    "ablation",
    "all",
];

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    profile: Profile,
    targets: Vec<String>,
    no_cache: bool,
    help: bool,
    /// Fault profile name and spec when `--faults` was given.
    faults: Option<(String, FaultSpec)>,
    /// Crash-verifier classes when `--crash` was given.
    crash: Vec<CrashClass>,
    /// Kill points per class (`--points`); defaults by profile.
    crash_points: Option<u64>,
    /// Shared seed flag (`--seed`); today it seeds the crash verifier.
    seed: u64,
    /// Whether the quick profile was selected (fewer default kill points).
    quick: bool,
    /// Whether the `perf` micro-benchmark was requested.
    perf: bool,
    /// Shared machine-readable output path (`--json`): the perf report's
    /// destination, and an extra copy of the faults/crash reports.
    json: Option<String>,
    /// Prior perf report to compare against (`--baseline`).
    perf_baseline: Option<String>,
    /// Restrict `perf` to one phase (`--phase`).
    perf_phase: Option<String>,
    /// Repetitions per perf phase with median-of-N reporting (`--iters`).
    perf_iters: usize,
    /// Service-mode scenario when `serve` was requested.
    serve: Option<Scenario>,
    /// Whether `serve` should run only the shedding-disarmed stress run.
    no_shed: bool,
    /// Whether the `cache` usage report was requested.
    cache_cmd: bool,
    /// Whether `cache` should garbage-collect down to the cap.
    cache_gc: bool,
    /// Cache size cap override in MiB (`--max-mb`).
    cache_max_mb: Option<u64>,
    /// SQL text when `sql --query` was given.
    sql_query: Option<String>,
    /// SQL file path when `sql -f` was given.
    sql_file: Option<String>,
    /// Knob axes for the `sql` sweep (`--sweep`, default dop).
    sql_axes: Vec<SweepAxis>,
    /// Executor path for the `sql` sweep (`--exec`, default morsel).
    sql_exec: ExecMode,
    /// Whether the `sql` subcommand was requested.
    sql_cmd: bool,
    /// Whether the `topo` subcommand was requested.
    topo_cmd: bool,
    /// Deployment for a single `topo` run (`--deploy`); `None` runs the
    /// crossover sweep.
    topo_deploy: Option<Deployment>,
    /// Cluster node count for `topo` (`--nodes`, default 4).
    topo_nodes: usize,
    /// Cluster fault shape for `topo` (`--faults node-crash|partition`).
    topo_fault: Option<TopoFault>,
    /// Whether `topo` should run the Hardware Islands crossover sweep
    /// (`--sweep dop,deploy`; also the default with no `--deploy`).
    topo_sweep: bool,
    /// Whether `topo` should run the distributed chaos verifier
    /// (`--verify`; kill points from `--points`).
    topo_verify: bool,
    /// Deprecation warnings to print before running (legacy spellings).
    warnings: Vec<String>,
}

fn usage() -> String {
    format!(
        "Usage: repro <subcommand> [flags]\n\
         \x20 repro sweep  [<target>...]   all paper artifacts (default: all)\n\
         \x20 repro figure <target>...     specific figures/tables\n\
         \x20 repro faults <profile>       degradation report under faults\n\
         \x20 repro crash  <class>...      kill-at-any-point durability verifier\n\
         \x20 repro perf [--phase NAME] [--iters N]\n\
         \x20                              host-side simulator micro-benchmark\n\
         \x20 repro serve --scenario NAME  overload-robust service mode\n\
         \x20 repro cache [--gc]           result-cache usage report / GC\n\
         \x20 repro sql --query SQL | -f FILE\n\
         \x20           [--sweep dop,grant,llc] [--exec morsel|volcano]\n\
         \x20                              ad-hoc query sensitivity sweep\n\
         \x20 repro topo [--deploy shared|islands|sharded] [--nodes N]\n\
         \x20           [--faults node-crash|partition] [--sweep dop,deploy]\n\
         \x20           [--verify]         deployment-topology experiments\n\
         Global flags: [--profile quick|full] [--quick] [--no-cache]\n\
         \x20             [--json PATH] [--seed S] [--points N] [--baseline PATH]\n\
         \x20             [--no-shed] [--max-mb N]\n\
         Targets: {}\n\
         Fault profiles: {}\n\
         Crash classes: oltp olap htap all\n\
         Serve scenarios: {}\n\
         Cached experiment results live under results/cache/; delete the\n\
         directory to clear them or pass --no-cache to bypass.\n\
         faults runs the baseline-vs-faulted degradation report. Fault\n\
         schedules are seeded, so the same profile always degrades the\n\
         same way.\n\
         crash runs the kill-at-any-point crash-consistency verifier\n\
         (200 kill points per class, 25 under --quick, or --points N);\n\
         every point is deterministic in (--seed, point index).\n\
         perf runs the frozen fixed-seed simulator micro-benchmark over\n\
         both analytical executors and writes the report to --json PATH\n\
         (default results/perf.json); --baseline PATH embeds a prior report\n\
         and computes the speedup; --phase NAME runs a single phase and\n\
         --iters N repeats each phase N times, reporting the median\n\
         warm run. It fails (exit 1) only on a correctness violation,\n\
         not timing.\n\
         serve runs the overload-robust service mode: a seeded open-loop\n\
         multi-tenant arrival stream simulated three ways (0.8x baseline,\n\
         the scenario's stress shape, and the stress shape with shedding\n\
         disarmed) and gated on p99/goodput acceptance bounds; --no-shed\n\
         runs just the disarmed stress run. Decision traces are\n\
         bit-identical in (--seed, scenario). Exits 1 if the acceptance\n\
         gate fails.\n\
         cache prints result-cache usage; --gc evicts least-recently-used\n\
         entries down to the cap (--max-mb, default 512 MiB).\n\
         sql compiles a hand-written statement against the TPC-H catalog\n\
         and sweeps it over the requested knob axes (default dop),\n\
         reporting per-point runtimes, the knee, and the baseline plan;\n\
         --quick uses a 3-point grid per axis. See docs/SQL.md.\n\
         topo runs deployment-topology experiments (see docs/TOPOLOGY.md):\n\
         bare (or --sweep dop,deploy) it reproduces the Hardware Islands\n\
         crossover over shared/islands/sharded and fails (exit 1) if the\n\
         deployment swing does not beat doubling cores; --deploy runs one\n\
         deployment (--faults injects node-crash or partition windows);\n\
         --verify runs the distributed chaos verifier (kill any node at\n\
         any 2PC step, --points kill points, deterministic in --seed).\n\
         The pre-subcommand spellings (bare targets, --faults, --crash)\n\
         still work but are deprecated.",
        TARGETS.join(" "),
        FAULT_PROFILES.join(" "),
        Scenario::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Parses one crash-class positional into `crash`.
fn parse_crash_class(name: &str, crash: &mut Vec<CrashClass>) -> Result<(), String> {
    if name == "all" {
        *crash = CrashClass::ALL.to_vec();
    } else {
        crash.push(CrashClass::parse(name).ok_or_else(|| {
            format!("unknown crash class '{name}' (expected oltp|olap|htap|all)")
        })?);
    }
    Ok(())
}

/// Parses a serve-scenario name.
fn parse_scenario(name: &str) -> Result<Scenario, String> {
    Scenario::from_name(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}' (expected one of: {})",
            Scenario::ALL
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(" ")
        )
    })
}

/// Parses a fault-profile name into the `(name, spec)` pair.
fn parse_fault_profile(name: &str) -> Result<(String, FaultSpec), String> {
    let spec = fault_profile(name).ok_or_else(|| {
        format!(
            "unknown fault profile '{name}' (expected one of: {})",
            FAULT_PROFILES.join(" ")
        )
    })?;
    Ok((name.to_string(), spec))
}

/// Parses arguments; errors name the offending flag/target so main can
/// print them with the usage text and exit 2 (never panic).
///
/// The first argument may name a subcommand (`sweep`, `figure`,
/// `faults`, `crash`, `perf`); the legacy flat spellings parse to the
/// same [`Cli`] but collect deprecation warnings.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut profile = Profile::quick();
    let mut targets: Vec<String> = Vec::new();
    let mut no_cache = false;
    let mut help = false;
    let mut faults = None;
    let mut crash: Vec<CrashClass> = Vec::new();
    let mut crash_points = None;
    let mut seed = 42u64;
    let mut quick = false;
    let mut perf = false;
    let mut json = None;
    let mut perf_baseline = None;
    let mut perf_phase: Option<String> = None;
    let mut perf_iters = 1usize;
    let mut serve = None;
    let mut no_shed = false;
    let mut cache_cmd = false;
    let mut cache_gc = false;
    let mut cache_max_mb = None;
    let mut sql_query = None;
    let mut sql_file = None;
    let mut sql_axes: Vec<SweepAxis> = Vec::new();
    let mut sql_exec = ExecMode::Morsel;
    let mut topo_deploy = None;
    let mut topo_nodes = 4usize;
    let mut topo_fault = None;
    let mut topo_sweep = false;
    let mut topo_verify = false;
    let mut warnings: Vec<String> = Vec::new();

    let sub = args
        .first()
        .map(String::as_str)
        .filter(|s| SUBCOMMANDS.contains(s));
    let rest = if sub.is_some() { &args[1..] } else { args };
    if sub == Some("perf") {
        perf = true;
    }
    if sub == Some("cache") {
        cache_cmd = true;
    }
    let sql_cmd = sub == Some("sql");
    let topo_cmd = sub == Some("topo");

    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => {
                let name = it.next().ok_or("--profile requires a value (quick|full)")?;
                profile = profile_from_name(name)
                    .ok_or_else(|| format!("unknown profile '{name}' (expected quick|full)"))?;
                quick = name == "quick";
            }
            "--quick" => {
                profile = Profile::quick();
                quick = true;
            }
            "--crash" => {
                if sub.is_none() {
                    warnings
                        .push("--crash <class> is deprecated; use `repro crash <class>`".into());
                }
                let name = it
                    .next()
                    .ok_or("--crash requires a value (oltp|olap|htap|all)")?;
                parse_crash_class(name, &mut crash)?;
            }
            "--points" => {
                let n = it.next().ok_or("--points requires a number")?;
                crash_points = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--points: '{n}' is not a number"))?,
                );
            }
            "--seed" => {
                let n = it.next().ok_or("--seed requires a number")?;
                seed = n
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: '{n}' is not a number"))?;
            }
            "--faults" => {
                if topo_cmd {
                    let name = it
                        .next()
                        .ok_or("--faults requires a value (node-crash|partition)")?;
                    topo_fault = Some(TopoFault::parse(name).ok_or_else(|| {
                        format!("unknown topo fault '{name}' (expected node-crash|partition)")
                    })?);
                    continue;
                }
                if sub.is_none() {
                    warnings.push(
                        "--faults <profile> is deprecated; use `repro faults <profile>`".into(),
                    );
                }
                let name = it.next().ok_or_else(|| {
                    format!("--faults requires a value ({})", FAULT_PROFILES.join("|"))
                })?;
                faults = Some(parse_fault_profile(name)?);
            }
            "--scenario" => {
                let name = it
                    .next()
                    .ok_or("--scenario requires a value (overload|noisy-neighbor|tenant-burst)")?;
                serve = Some(parse_scenario(name)?);
            }
            "--no-shed" => no_shed = true,
            "--query" => {
                if !sql_cmd {
                    return Err("--query only applies to `repro sql`".into());
                }
                let q = it.next().ok_or("--query requires a SQL string")?;
                sql_query = Some(q.clone());
            }
            "-f" | "--file" => {
                if !sql_cmd {
                    return Err(format!("{a} only applies to `repro sql`"));
                }
                let path = it.next().ok_or("-f requires a path to a .sql file")?;
                sql_file = Some(path.clone());
            }
            "--sweep" => {
                if topo_cmd {
                    let spec = it
                        .next()
                        .ok_or("--sweep requires a comma-separated axis list (dop|deploy)")?;
                    for axis in spec.split(',').filter(|a| !a.is_empty()) {
                        if axis != "dop" && axis != "deploy" {
                            return Err(format!(
                                "unknown topo sweep axis '{axis}' (expected dop|deploy)"
                            ));
                        }
                    }
                    topo_sweep = true;
                    continue;
                }
                if !sql_cmd {
                    return Err("--sweep only applies to `repro sql` or `repro topo`".into());
                }
                let spec = it
                    .next()
                    .ok_or("--sweep requires a comma-separated axis list (dop|grant|llc)")?;
                sql_axes = sqlcmd::parse_axes(spec)?;
            }
            "--deploy" => {
                if !topo_cmd {
                    return Err("--deploy only applies to `repro topo`".into());
                }
                let name = it
                    .next()
                    .ok_or("--deploy requires a value (shared|islands|sharded)")?;
                topo_deploy = Some(Deployment::parse(name).ok_or_else(|| {
                    format!("unknown deployment '{name}' (expected shared|islands|sharded)")
                })?);
            }
            "--nodes" => {
                if !topo_cmd {
                    return Err("--nodes only applies to `repro topo`".into());
                }
                let n = it.next().ok_or("--nodes requires a number")?;
                topo_nodes = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--nodes: '{n}' is not a positive number"))?;
            }
            "--verify" => {
                if !topo_cmd {
                    return Err("--verify only applies to `repro topo`".into());
                }
                topo_verify = true;
            }
            "--exec" => {
                if !sql_cmd {
                    return Err("--exec only applies to `repro sql`".into());
                }
                let name = it
                    .next()
                    .ok_or("--exec requires a value (morsel|volcano)")?;
                sql_exec = sqlcmd::parse_exec(name).ok_or_else(|| {
                    format!("unknown executor '{name}' (expected morsel|volcano)")
                })?;
            }
            "--gc" => {
                if sub != Some("cache") {
                    return Err("--gc only applies to `repro cache`".into());
                }
                cache_gc = true;
            }
            "--max-mb" => {
                let n = it.next().ok_or("--max-mb requires a number")?;
                cache_max_mb = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--max-mb: '{n}' is not a number"))?,
                );
            }
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                json = Some(path.clone());
            }
            "--baseline" => {
                let path = it.next().ok_or("--baseline requires a path")?;
                perf_baseline = Some(path.clone());
            }
            "--phase" => {
                if !perf {
                    return Err("--phase only applies to `repro perf`".into());
                }
                let name = it.next().ok_or_else(|| {
                    format!(
                        "--phase requires a value ({})",
                        perf::phase_names().join("|")
                    )
                })?;
                if !perf::phase_names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown perf phase '{name}' (expected one of: {})",
                        perf::phase_names().join(" ")
                    ));
                }
                perf_phase = Some(name.clone());
            }
            "--iters" => {
                if !perf {
                    return Err("--iters only applies to `repro perf`".into());
                }
                let n = it.next().ok_or("--iters requires a number")?;
                perf_iters = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--iters: '{n}' is not a positive number"))?;
            }
            "--no-cache" => no_cache = true,
            "--help" | "-h" => help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            pos => match sub {
                Some("faults") => faults = Some(parse_fault_profile(pos)?),
                Some("crash") => parse_crash_class(pos, &mut crash)?,
                Some("serve") => serve = Some(parse_scenario(pos)?),
                Some("cache") => {
                    return Err(format!("cache takes no positional argument (got '{pos}')"));
                }
                Some("sql") => {
                    return Err(format!(
                        "sql takes no positional argument (got '{pos}'); \
                         pass the statement with --query or -f"
                    ));
                }
                Some("topo") => {
                    topo_deploy = Some(Deployment::parse(pos).ok_or_else(|| {
                        format!("unknown deployment '{pos}' (expected shared|islands|sharded)")
                    })?);
                }
                Some("sweep") | Some("figure") => {
                    if !TARGETS.contains(&pos) {
                        return Err(format!(
                            "unknown target '{pos}' (expected one of: {})",
                            TARGETS.join(" ")
                        ));
                    }
                    targets.push(pos.to_string());
                }
                _ => {
                    if pos == "perf" {
                        // Same spelling as the subcommand; not deprecated.
                        perf = true;
                    } else if TARGETS.contains(&pos) {
                        if sub.is_none() {
                            warnings.push(format!(
                                "bare target '{pos}' is deprecated; use `repro figure {pos}` \
                                 (or `repro sweep`)"
                            ));
                        }
                        targets.push(pos.to_string());
                    } else {
                        return Err(format!(
                            "unknown target '{pos}' (expected one of: {})",
                            TARGETS.join(" ")
                        ));
                    }
                }
            },
        }
    }

    match sub {
        Some("sweep") if targets.is_empty() => targets.push("all".into()),
        Some("figure") if targets.is_empty() => {
            return Err(format!(
                "figure requires at least one target (expected one of: {})",
                TARGETS.join(" ")
            ));
        }
        Some("faults") if faults.is_none() => {
            return Err(format!(
                "faults requires a profile ({})",
                FAULT_PROFILES.join("|")
            ));
        }
        Some("crash") if crash.is_empty() => {
            return Err("crash requires a class (oltp|olap|htap|all)".into());
        }
        Some("serve") if serve.is_none() => {
            return Err(
                "serve requires a scenario (--scenario overload|noisy-neighbor|tenant-burst)"
                    .into(),
            );
        }
        Some("sql") if sql_query.is_none() && sql_file.is_none() => {
            return Err("sql requires a statement (--query 'SELECT ...' or -f FILE.sql)".into());
        }
        Some("sql") if sql_query.is_some() && sql_file.is_some() => {
            return Err("sql takes --query or -f, not both".into());
        }
        _ => {}
    }
    if sql_axes.is_empty() {
        sql_axes.push(SweepAxis::Dop);
    }
    // A bare `repro topo` runs the headline artifact: the crossover sweep.
    if topo_cmd && topo_deploy.is_none() && !topo_verify {
        topo_sweep = true;
    }
    // A bare `--faults`, `--crash`, or `perf` run means "just that
    // report"; figure targets still default to `all` otherwise.
    if sub.is_none()
        && targets.is_empty()
        && faults.is_none()
        && crash.is_empty()
        && !perf
        && serve.is_none()
    {
        targets.push("all".into());
    }
    crash.dedup();
    Ok(Cli {
        profile,
        targets,
        no_cache,
        help,
        faults,
        crash,
        crash_points,
        seed,
        quick,
        perf,
        json,
        perf_baseline,
        perf_phase,
        perf_iters,
        serve,
        no_shed,
        cache_cmd,
        cache_gc,
        cache_max_mb,
        sql_query,
        sql_file,
        sql_axes,
        sql_exec,
        sql_cmd,
        topo_cmd,
        topo_deploy,
        topo_nodes,
        topo_fault,
        topo_sweep,
        topo_verify,
        warnings,
    })
}

/// Writes `value` as pretty JSON to `path`, reporting (not aborting) on
/// failure.
/// Where `repro perf` writes its report without `--json`: under
/// `results/`, never over a committed `BENCH_*.json` artifact.
const PERF_DEFAULT_JSON: &str = "results/perf.json";

/// The `repro perf` report path: `--json PATH`, else [`PERF_DEFAULT_JSON`].
fn perf_json_path(cli: &Cli) -> &str {
    cli.json.as_deref().unwrap_or(PERF_DEFAULT_JSON)
}

fn write_json_to(path: &str, value: &impl serde::Serialize) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                // Best effort: a missing directory surfaces as the write error.
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("[repro] failed to write {path}: {e}");
            } else {
                eprintln!("[repro] report written to {path}");
            }
        }
        Err(e) => eprintln!("[repro] failed to serialize report: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if cli.help {
        println!("{}", usage());
        return;
    }
    for w in &cli.warnings {
        eprintln!("[repro] warning: {w}");
    }

    if cli.cache_cmd {
        let mut cache = ResultCache::at_default();
        if let Some(mb) = cli.cache_max_mb {
            cache = cache.with_capacity_bytes(mb << 20);
        }
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        let cap = cache.capacity_bytes().unwrap_or(DEFAULT_CACHE_CAP_BYTES);
        println!("result cache: {}", cache.dir().display());
        println!(
            "  {} entries, {:.1} MiB on disk (cap {:.0} MiB)",
            cache.len(),
            mib(cache.total_bytes()),
            mib(cap),
        );
        if cli.cache_gc {
            let s = cache.gc();
            println!(
                "  gc: evicted {} of {} entries ({:.1} MiB -> {:.1} MiB)",
                s.evicted,
                s.entries_before,
                mib(s.bytes_before),
                mib(s.bytes_after),
            );
        } else {
            println!("  (run `repro cache --gc` to evict down to the cap)");
        }
        return;
    }

    if cli.sql_cmd {
        let sql = match (&cli.sql_query, &cli.sql_file) {
            (Some(q), _) => q.clone(),
            (None, Some(path)) => match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: -f {path}: {e}");
                    std::process::exit(2);
                }
            },
            (None, None) => unreachable!("parse_args requires --query or -f"),
        };
        let axes: Vec<String> = cli.sql_axes.iter().map(|a| a.name().to_string()).collect();
        eprintln!(
            "[repro] sql sweep over {} ({} executor)...",
            axes.join(","),
            if cli.sql_exec == ExecMode::Morsel {
                "morsel"
            } else {
                "volcano"
            }
        );
        match sqlcmd::run_sql(&cli.profile, &sql, &cli.sql_axes, cli.sql_exec, cli.quick) {
            Ok(report) => {
                save_json("sql_sweep", &report);
                if let Some(path) = cli.json.as_deref() {
                    write_json_to(path, &report);
                }
                println!("{}", sqlcmd::render(&report));
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    if cli.topo_cmd {
        /// Combined machine-readable `repro topo` report for `--json`.
        #[derive(serde::Serialize)]
        struct TopoJson {
            run: Option<dbsens_core::topoexp::TopoOutcome>,
            crossover: Option<dbsens_core::topoexp::CrossoverReport>,
            dist_verify: Option<dbsens_core::crashverify::DistReport>,
        }
        let mut topo_failed = false;
        let mut json_parts = TopoJson {
            run: None,
            crossover: None,
            dist_verify: None,
        };
        if let Some(deploy) = cli.topo_deploy {
            eprintln!(
                "[repro] topo run: {} x{} nodes{} (seed {})...",
                deploy.name(),
                cli.topo_nodes,
                cli.topo_fault
                    .map(|f| format!(" under {} faults", f.name()))
                    .unwrap_or_default(),
                cli.seed
            );
            let out = topo::run_single(deploy, cli.topo_nodes, cli.topo_fault, cli.seed, cli.quick);
            save_json(&format!("topo_{}", deploy.name()), &out);
            println!("{}", topo::render_outcome(&out));
            json_parts.run = Some(out);
        }
        if cli.topo_sweep {
            eprintln!(
                "[repro] topo crossover sweep: {} shards, all deployments (seed {})...",
                cli.topo_nodes, cli.seed
            );
            let report = topo::run_crossover(cli.topo_nodes, cli.seed, cli.quick);
            save_json("topo_crossover", &report);
            println!("{}", render_crossover(&report));
            if !report.islands_claim_holds() {
                eprintln!(
                    "[repro] Hardware Islands claim failed: deployment swing did not \
                     exceed the doubled-cores gain"
                );
                topo_failed = true;
            }
            json_parts.crossover = Some(report);
        }
        if cli.topo_verify {
            let points = cli.crash_points.unwrap_or(if cli.quick { 25 } else { 200 });
            eprintln!(
                "[repro] distributed chaos verifier: {} shards x{points} kill points (seed {})...",
                cli.topo_nodes.max(2),
                cli.seed
            );
            let report = topo::run_dist_verify(cli.topo_nodes, points, cli.seed);
            save_json("topo_dist_verify", &report);
            println!("{}", crashverify::render_dist_report(&report));
            if !report.passed() {
                eprintln!("[repro] distributed verifier found atomicity violations");
                topo_failed = true;
            }
            json_parts.dist_verify = Some(report);
        }
        if let Some(path) = cli.json.as_deref() {
            write_json_to(path, &json_parts);
        }
        if topo_failed {
            std::process::exit(1);
        }
        return;
    }

    let profile = &cli.profile;
    let mut runner = Runner::new()
        .threads(profile.threads)
        .progress(Arc::new(StderrReporter::new("repro")));
    if cli.no_cache {
        eprintln!("[repro] result cache bypassed (--no-cache)");
    } else {
        let cache = ResultCache::at_default();
        eprintln!("[repro] result cache: {}", cache.dir().display());
        runner = runner.cache(cache);
    }

    let all = cli.targets.iter().any(|t| t == "all");
    let want = |t: &str| all || cli.targets.iter().any(|x| x == t);
    // A failing experiment skips its artifact and flips the exit code to
    // 1, but the remaining targets still run.
    let mut failures: Vec<ExperimentError> = Vec::new();
    let mut degradation_failed = false;
    let mut crash_failed = false;
    let mut perf_failed = false;
    let mut serve_failed = false;

    if let Some(scenario) = cli.serve {
        // The simulation itself is pure virtual time; the harness still
        // demands a GuardedRunner so any real (calibration) execution on
        // behalf of the service carries an armed watchdog.
        let harness = ServiceHarness::new(GuardedRunner::new(Duration::from_secs(600)));
        if cli.no_shed {
            eprintln!(
                "[repro] service run: '{}' stress with shedding disarmed (seed {})...",
                scenario.name(),
                cli.seed
            );
            let dur = if cli.quick { 20.0 } else { 60.0 };
            let out = harness.run(
                &ServeConfig::scenario_stress(scenario, cli.seed)
                    .with_duration_secs(dur)
                    .without_shedding(),
            );
            save_json(&format!("serve_{}_noshed", scenario.name()), &out);
            if let Some(path) = cli.json.as_deref().filter(|_| !cli.perf) {
                write_json_to(path, &out);
            }
            println!("{}", dbsens_bench::serve::render_outcome(&out));
        } else {
            eprintln!(
                "[repro] service scenario '{}': baseline, stress, no-shed (seed {})...",
                scenario.name(),
                cli.seed
            );
            let report = harness.run_scenario(scenario, cli.seed, cli.quick);
            save_json(&format!("serve_{}", scenario.name()), &report);
            if let Some(path) = cli.json.as_deref().filter(|_| !cli.perf) {
                write_json_to(path, &report);
            }
            println!("{}", dbsens_bench::serve::render(&report));
            if !report.acceptance.pass {
                eprintln!("[repro] service acceptance gate failed");
                serve_failed = true;
            }
        }
    }

    if cli.perf {
        let baseline = cli.perf_baseline.as_ref().map(|path| {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("error: --baseline {path}: {e}");
                std::process::exit(2);
            });
            serde_json::from_slice::<perf::PerfReport>(&bytes).unwrap_or_else(|e| {
                eprintln!("error: --baseline {path}: not a perf report: {e}");
                std::process::exit(2);
            })
        });
        eprintln!("[repro] perf micro-sweep (fixed seeds, paired determinism check)...");
        let mut report =
            perf::run_micro_sweep_filtered(cli.perf_phase.as_deref(), cli.perf_iters, |line| {
                eprintln!("[repro] {line}")
            });
        if let Some(b) = baseline {
            perf::attach_baseline(&mut report, b);
        }
        write_json_to(perf_json_path(&cli), &report);
        println!("{}", perf::render(&report));
        if !perf::verdict_ok(&report) {
            eprintln!("[repro] perf micro-sweep found a correctness violation");
            perf_failed = true;
        }
    }

    if !cli.crash.is_empty() {
        let points = cli.crash_points.unwrap_or(if cli.quick { 25 } else { 200 });
        let mut reports: Vec<ClassReport> = Vec::new();
        for class in &cli.crash {
            eprintln!(
                "[repro] crash verifier: {} x{points} kill points (seed {})...",
                class.name(),
                cli.seed
            );
            let report = crashverify::verify_class(&CrashVerifyConfig {
                class: *class,
                points,
                seed: cli.seed,
            });
            eprintln!(
                "[repro]   {}: {}/{} points passed ({} mid-flush, {} mid-recovery, {} torn)",
                report.class,
                report.points.iter().filter(|p| p.passed()).count(),
                report.points.len(),
                report.mid_flush_count(),
                report.mid_recovery_count(),
                report.torn_count(),
            );
            reports.push(report);
        }
        save_json("crash_verify", &reports);
        if let Some(path) = cli
            .json
            .as_deref()
            .filter(|_| !cli.perf && cli.serve.is_none())
        {
            write_json_to(path, &reports);
        }
        println!("{}", crashverify::render_report(&reports));
        if reports.iter().any(|r| !r.passed()) {
            eprintln!("[repro] crash verifier found durability violations");
            crash_failed = true;
        }
    }

    if let Some((name, spec)) = &cli.faults {
        eprintln!("[repro] degradation report: baseline vs '{name}' faults...");
        let report = degradation::run_degradation(profile, &runner, name, spec);
        save_json(&format!("degradation_{name}"), &report);
        if let Some(path) = cli
            .json
            .as_deref()
            .filter(|_| !cli.perf && cli.crash.is_empty() && cli.serve.is_none())
        {
            write_json_to(path, &report);
        }
        println!("{}", degradation::render_degradation(&report));
        eprintln!(
            "[repro] fault profile '{name}': {} of {} workloads degraded gracefully",
            report.degraded_count(),
            report.rows.len()
        );
        if report.any_failed() {
            eprintln!("[repro] degradation report has failed (not degraded) runs");
            degradation_failed = true;
        }
    }

    // Figure 2's sweeps feed Table 4, Figure 3, and Figure 4; run once
    // (and, cached, they are shared across invocations too).
    let needs_fig2 = ["fig2", "fig3", "fig4", "table4"].iter().any(|t| want(t));
    let fig2 = if needs_fig2 {
        eprintln!("[repro] running Figure 2 sweeps (shared by Table 4, Figures 3-4)...");
        match figures::run_fig2(profile, &runner) {
            Ok(d) => {
                save_json("fig2", &d);
                Some(d)
            }
            Err(e) => {
                eprintln!("[repro] Figure 2 sweeps failed: {e}");
                failures.push(e);
                None
            }
        }
    } else {
        None
    };

    if want("table2") {
        eprintln!("[repro] Table 2...");
        let rows = figures::run_table2(profile);
        save_json("table2", &rows);
        println!("{}", figures::render_table2(&rows));
    }
    if let Some(d) = &fig2 {
        if want("fig2") {
            println!("{}", figures::render_fig2(d));
        }
        if want("table4") {
            println!("{}", figures::render_table4(d));
        }
        if want("fig3") {
            println!("{}", figures::render_fig3(d));
        }
        if want("fig4") {
            println!("{}", figures::render_fig4(d));
        }
    }
    if want("table3") {
        eprintln!("[repro] Table 3...");
        match figures::run_table3(profile, &runner) {
            Ok((small, large)) => {
                save_json("table3", &(&small, &large));
                println!("{}", figures::render_table3(&small, &large));
            }
            Err(e) => {
                eprintln!("[repro] Table 3 failed: {e}");
                failures.push(e);
            }
        }
    }
    if want("fig5") {
        eprintln!("[repro] Figure 5...");
        match figures::run_fig5(profile, &runner) {
            Ok(d) => {
                save_json("fig5", &d);
                println!("{}", figures::render_fig5(&d));
            }
            Err(e) => {
                eprintln!("[repro] Figure 5 failed: {e}");
                failures.push(e);
            }
        }
    }
    if want("fig6") {
        for &sf in &profile.fig6_sfs {
            eprintln!("[repro] Figure 6 (SF={sf})...");
            let d = figures::run_fig6_sf(profile, sf);
            save_json(&format!("fig6_sf{sf}"), &d);
            println!("{}", figures::render_fig6(&d));
        }
    }
    if want("fig7") {
        eprintln!("[repro] Figure 7...");
        let d = figures::run_fig7(profile);
        save_json("fig7", &d);
        println!("{}", figures::render_fig7(&d));
    }
    if want("fig8") {
        eprintln!("[repro] Figure 8...");
        let sf = if profile.tpch_sfs.contains(&100.0) {
            100.0
        } else {
            profile.tpch_sfs.last().copied().unwrap_or(100.0)
        };
        let d = figures::run_fig8(profile, sf);
        save_json("fig8", &d);
        println!("{}", figures::render_fig8(&d));
    }
    if want("ablation") {
        eprintln!("[repro] warmup ablation...");
        match figures::run_warmup_ablation(profile, &runner) {
            Ok(rows) => {
                save_json("ablation_warmup", &rows);
                println!("{}", figures::render_warmup_ablation(&rows));
            }
            Err(e) => {
                eprintln!("[repro] warmup ablation failed: {e}");
                failures.push(e);
            }
        }
    }
    if want("write_limits") {
        eprintln!("[repro] write limits...");
        match figures::run_write_limits(profile, &runner) {
            Ok(rows) => {
                save_json("write_limits", &rows);
                println!("{}", figures::render_write_limits(&rows));
            }
            Err(e) => {
                eprintln!("[repro] write limits failed: {e}");
                failures.push(e);
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("[repro] {} experiment group(s) failed:", failures.len());
        for e in &failures {
            eprintln!("[repro]   {e}");
        }
    }
    if !failures.is_empty() || degradation_failed || crash_failed || perf_failed || serve_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_to_all_targets_with_cache() {
        let cli = parse_args(&[]).unwrap();
        assert_eq!(cli.targets, vec!["all".to_string()]);
        assert!(!cli.no_cache);
        assert!(!cli.help);
    }

    #[test]
    fn parses_profile_targets_and_no_cache() {
        let cli = parse_args(&args(&[
            "--profile",
            "full",
            "--no-cache",
            "fig2",
            "table3",
        ]))
        .unwrap();
        assert!(cli.no_cache);
        assert_eq!(cli.targets, vec!["fig2".to_string(), "table3".to_string()]);
        // The full profile covers all four Figure 6 scale factors.
        assert_eq!(cli.profile.fig6_sfs.len(), 4);
    }

    #[test]
    fn unknown_profile_is_an_error() {
        let err = parse_args(&args(&["--profile", "turbo"])).unwrap_err();
        assert!(err.contains("turbo"), "{err}");
        let err = parse_args(&args(&["--profile"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn unknown_target_is_an_error() {
        let err = parse_args(&args(&["fig99"])).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        assert!(err.contains("expected one of"), "{err}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn parses_fault_profile_and_defaults_to_report_only() {
        let cli = parse_args(&args(&["--faults", "ssd-brownout", "--quick"])).unwrap();
        let (name, spec) = cli.faults.unwrap();
        assert_eq!(name, "ssd-brownout");
        assert!(!spec.is_none());
        // Bare --faults runs only the degradation report.
        assert!(cli.targets.is_empty());
    }

    #[test]
    fn faults_plus_targets_runs_both() {
        let cli = parse_args(&args(&["--faults", "core-loss", "fig2"])).unwrap();
        assert!(cli.faults.is_some());
        assert_eq!(cli.targets, vec!["fig2".to_string()]);
    }

    #[test]
    fn unknown_fault_profile_is_an_error() {
        let err = parse_args(&args(&["--faults", "meteor-strike"])).unwrap_err();
        assert!(err.contains("meteor-strike"), "{err}");
        assert!(err.contains("ssd-brownout"), "{err}");
        let err = parse_args(&args(&["--faults"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn help_flag_is_recognized() {
        let cli = parse_args(&args(&["-h"])).unwrap();
        assert!(cli.help);
        assert!(usage().contains("--no-cache"));
        assert!(usage().contains("--crash"));
    }

    #[test]
    fn parses_crash_classes_and_defaults_to_report_only() {
        let cli = parse_args(&args(&["--crash", "oltp"])).unwrap();
        assert_eq!(cli.crash, vec![CrashClass::Oltp]);
        assert!(
            cli.targets.is_empty(),
            "bare --crash must run only the durability report"
        );
        assert_eq!(cli.seed, 42);
        assert!(cli.crash_points.is_none());
        let cli = parse_args(&args(&["--crash", "all", "--points", "50", "--seed", "7"])).unwrap();
        assert_eq!(cli.crash.len(), 3);
        assert_eq!(cli.crash_points, Some(50));
        assert_eq!(cli.seed, 7);
    }

    #[test]
    fn quick_flag_is_tracked_for_crash_defaults() {
        assert!(!parse_args(&args(&["--crash", "oltp"])).unwrap().quick);
        assert!(
            parse_args(&args(&["--crash", "oltp", "--quick"]))
                .unwrap()
                .quick
        );
        assert!(
            parse_args(&args(&["--profile", "quick", "--crash", "htap"]))
                .unwrap()
                .quick
        );
    }

    #[test]
    fn parses_perf_and_defaults_to_report_only() {
        let cli = parse_args(&args(&["perf"])).unwrap();
        assert!(cli.perf);
        assert!(
            cli.targets.is_empty(),
            "bare perf must run only the micro-benchmark"
        );
        assert!(cli.json.is_none());
        assert!(cli.perf_baseline.is_none());
        let cli = parse_args(&args(&[
            "perf",
            "--json",
            "out.json",
            "--baseline",
            "BENCH_base.json",
        ]))
        .unwrap();
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert_eq!(cli.perf_baseline.as_deref(), Some("BENCH_base.json"));
        let err = parse_args(&args(&["perf", "--json"])).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
    }

    #[test]
    fn bare_perf_never_writes_a_committed_bench_artifact() {
        for argv in [
            &["perf"][..],
            &["perf", "--quick"],
            &["perf", "--baseline", "BENCH_10.json"],
            &["perf", "--phase", "oltp", "--iters", "3"],
            &["perf", "fig2"],
        ] {
            let cli = parse_args(&args(argv)).unwrap();
            let path = std::path::Path::new(perf_json_path(&cli));
            assert_eq!(path, std::path::Path::new("results/perf.json"), "{argv:?}");
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(!name.starts_with("BENCH_"), "{argv:?} writes {name}");
        }
        let cli = parse_args(&args(&["perf", "--json", "BENCH_13.json"])).unwrap();
        assert_eq!(
            perf_json_path(&cli),
            "BENCH_13.json",
            "explicit --json wins"
        );
    }

    #[test]
    fn perf_plus_targets_runs_both() {
        let cli = parse_args(&args(&["perf", "fig2"])).unwrap();
        assert!(cli.perf);
        assert_eq!(cli.targets, vec!["fig2".to_string()]);
    }

    #[test]
    fn subcommands_parse_without_warnings() {
        let cli = parse_args(&args(&["sweep"])).unwrap();
        assert_eq!(cli.targets, vec!["all".to_string()]);
        assert!(cli.warnings.is_empty());

        let cli = parse_args(&args(&["figure", "fig6", "fig8"])).unwrap();
        assert_eq!(cli.targets, vec!["fig6".to_string(), "fig8".to_string()]);
        assert!(cli.warnings.is_empty());

        let cli = parse_args(&args(&["faults", "ssd-brownout", "--quick"])).unwrap();
        assert_eq!(cli.faults.as_ref().unwrap().0, "ssd-brownout");
        assert!(cli.quick);
        assert!(cli.targets.is_empty(), "faults subcommand is report-only");
        assert!(cli.warnings.is_empty());

        let cli = parse_args(&args(&["crash", "oltp", "--seed", "9"])).unwrap();
        assert_eq!(cli.crash, vec![CrashClass::Oltp]);
        assert_eq!(cli.seed, 9);
        assert!(cli.warnings.is_empty());

        let cli = parse_args(&args(&["perf", "--json", "out.json"])).unwrap();
        assert!(cli.perf);
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert!(cli.warnings.is_empty());
    }

    #[test]
    fn subcommands_require_their_positionals() {
        let err = parse_args(&args(&["figure"])).unwrap_err();
        assert!(err.contains("at least one target"), "{err}");
        let err = parse_args(&args(&["faults"])).unwrap_err();
        assert!(err.contains("requires a profile"), "{err}");
        let err = parse_args(&args(&["crash"])).unwrap_err();
        assert!(err.contains("requires a class"), "{err}");
    }

    #[test]
    fn legacy_spellings_still_parse_but_warn() {
        // The CI invocation that predates subcommands must keep working.
        let cli = parse_args(&args(&[
            "--faults",
            "ssd-brownout",
            "--quick",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(cli.faults.as_ref().unwrap().0, "ssd-brownout");
        assert!(cli.quick && cli.no_cache);
        assert!(cli.targets.is_empty());
        assert!(cli.warnings.iter().any(|w| w.contains("repro faults")));

        let cli = parse_args(&args(&["fig2"])).unwrap();
        assert_eq!(cli.targets, vec!["fig2".to_string()]);
        assert!(cli.warnings.iter().any(|w| w.contains("repro figure fig2")));

        let cli = parse_args(&args(&["--crash", "oltp"])).unwrap();
        assert!(cli.warnings.iter().any(|w| w.contains("repro crash")));

        // Bare `perf` is the same spelling as the subcommand: no warning.
        assert!(parse_args(&args(&["perf"])).unwrap().warnings.is_empty());
    }

    #[test]
    fn parses_serve_scenarios_and_flags() {
        let cli = parse_args(&args(&["serve", "--scenario", "overload", "--quick"])).unwrap();
        assert_eq!(cli.serve, Some(Scenario::Overload));
        assert!(cli.quick && !cli.no_shed);
        assert!(cli.targets.is_empty(), "serve is report-only");
        assert!(cli.warnings.is_empty());

        // Positional spelling and --no-shed.
        let cli = parse_args(&args(&[
            "serve",
            "noisy-neighbor",
            "--no-shed",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(cli.serve, Some(Scenario::NoisyNeighbor));
        assert!(cli.no_shed);
        assert_eq!(cli.seed, 7);

        let err = parse_args(&args(&["serve"])).unwrap_err();
        assert!(err.contains("requires a scenario"), "{err}");
        let err = parse_args(&args(&["serve", "--scenario", "meltdown"])).unwrap_err();
        assert!(err.contains("meltdown"), "{err}");
        assert!(err.contains("tenant-burst"), "{err}");
    }

    #[test]
    fn parses_cache_report_and_gc() {
        let cli = parse_args(&args(&["cache"])).unwrap();
        assert!(cli.cache_cmd && !cli.cache_gc);
        assert!(cli.targets.is_empty(), "cache is report-only");

        let cli = parse_args(&args(&["cache", "--gc", "--max-mb", "128"])).unwrap();
        assert!(cli.cache_gc);
        assert_eq!(cli.cache_max_mb, Some(128));

        let err = parse_args(&args(&["cache", "everything"])).unwrap_err();
        assert!(err.contains("no positional"), "{err}");
        let err = parse_args(&args(&["cache", "--max-mb", "lots"])).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = parse_args(&args(&["--gc"])).unwrap_err();
        assert!(err.contains("repro cache"), "{err}");
    }

    #[test]
    fn parses_sql_subcommand() {
        let cli = parse_args(&args(&["sql", "--query", "SELECT 1 FROM region"])).unwrap();
        assert!(cli.sql_cmd);
        assert_eq!(cli.sql_query.as_deref(), Some("SELECT 1 FROM region"));
        assert_eq!(cli.sql_axes, vec![SweepAxis::Dop], "default axis is dop");
        assert_eq!(cli.sql_exec, ExecMode::Morsel);
        assert!(cli.targets.is_empty(), "sql is report-only");

        let cli = parse_args(&args(&[
            "sql",
            "-f",
            "q.sql",
            "--sweep",
            "dop,grant,llc",
            "--exec",
            "volcano",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(cli.sql_file.as_deref(), Some("q.sql"));
        assert_eq!(
            cli.sql_axes,
            vec![SweepAxis::Dop, SweepAxis::Grant, SweepAxis::Llc]
        );
        assert_eq!(cli.sql_exec, ExecMode::Volcano);
        assert!(cli.quick);
    }

    #[test]
    fn sql_subcommand_validates_its_flags() {
        let err = parse_args(&args(&["sql"])).unwrap_err();
        assert!(err.contains("--query"), "{err}");
        let err = parse_args(&args(&["sql", "--query", "a", "-f", "b"])).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        let err = parse_args(&args(&["sql", "--query", "a", "--sweep", "turbo"])).unwrap_err();
        assert!(err.contains("turbo"), "{err}");
        let err = parse_args(&args(&["sql", "--query", "a", "--exec", "jit"])).unwrap_err();
        assert!(err.contains("jit"), "{err}");
        let err = parse_args(&args(&["sql", "stray"])).unwrap_err();
        assert!(err.contains("positional"), "{err}");
        let err = parse_args(&args(&["--query", "SELECT 1"])).unwrap_err();
        assert!(err.contains("repro sql"), "{err}");
    }

    #[test]
    fn parses_topo_subcommand() {
        // Bare topo defaults to the crossover sweep.
        let cli = parse_args(&args(&["topo"])).unwrap();
        assert!(cli.topo_cmd && cli.topo_sweep && !cli.topo_verify);
        assert!(cli.topo_deploy.is_none());
        assert_eq!(cli.topo_nodes, 4);
        assert!(cli.targets.is_empty(), "topo is report-only");
        assert!(cli.warnings.is_empty());

        let cli = parse_args(&args(&[
            "topo",
            "--deploy",
            "sharded",
            "--nodes",
            "3",
            "--faults",
            "node-crash",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(cli.topo_deploy, Some(Deployment::Sharded));
        assert_eq!(cli.topo_nodes, 3);
        assert_eq!(cli.topo_fault, Some(TopoFault::NodeCrash));
        assert!(!cli.topo_sweep, "--deploy suppresses the default sweep");

        // Positional deployment, explicit sweep axes, verifier.
        let cli = parse_args(&args(&["topo", "islands", "--sweep", "dop,deploy"])).unwrap();
        assert_eq!(cli.topo_deploy, Some(Deployment::Islands));
        assert!(cli.topo_sweep);

        let cli = parse_args(&args(&[
            "topo", "--verify", "--points", "25", "--seed", "7",
        ]))
        .unwrap();
        assert!(cli.topo_verify && !cli.topo_sweep);
        assert_eq!(cli.crash_points, Some(25));
        assert_eq!(cli.seed, 7);
    }

    #[test]
    fn topo_flags_are_validated() {
        let err = parse_args(&args(&["topo", "--deploy", "mainframe"])).unwrap_err();
        assert!(err.contains("mainframe"), "{err}");
        let err = parse_args(&args(&["topo", "--faults", "meteor"])).unwrap_err();
        assert!(err.contains("node-crash"), "{err}");
        let err = parse_args(&args(&["topo", "--sweep", "llc"])).unwrap_err();
        assert!(err.contains("dop|deploy"), "{err}");
        let err = parse_args(&args(&["topo", "--nodes", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_args(&args(&["--deploy", "sharded"])).unwrap_err();
        assert!(err.contains("repro topo"), "{err}");
        let err = parse_args(&args(&["--verify"])).unwrap_err();
        assert!(err.contains("repro topo"), "{err}");
    }

    #[test]
    fn unknown_crash_class_is_an_error() {
        let err = parse_args(&args(&["--crash", "olap2"])).unwrap_err();
        assert!(err.contains("olap2"), "{err}");
        let err = parse_args(&args(&["--points", "many"])).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }
}
