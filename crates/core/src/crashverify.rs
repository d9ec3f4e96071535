//! Kill-at-any-point crash-consistency verifier.
//!
//! For each seeded kill point the verifier builds a workload with
//! crash-consistency capture enabled, halts the simulator kernel at a
//! chosen event ([`CrashPoint`]), renders the surviving disk state (durable
//! WAL prefix plus a seeded torn tail of the in-flight flush), runs
//! ARIES-lite [`recover`], and checks the recovered database against a
//! committed-transactions-only oracle replay:
//!
//! * every committed transaction's effects are present;
//! * no in-flight (loser) or aborted transaction left any effect;
//! * every B-tree index satisfies its structural invariants and agrees
//!   with the heap; columnstores agree with the heap;
//! * the recovered WAL's checksum chain is intact end to end;
//! * recovery leaves no open transactions.
//!
//! Every third point also kills recovery itself partway through the undo
//! pass (a bounded undo budget) and restarts it, verifying that recovery
//! is idempotent. Point outcomes are deterministic in `(seed, point)`.

use crate::knobs::ResourceKnobs;
use dbsens_engine::db::{Database, TableId};
use dbsens_engine::recovery::{recover, resolve_indoubt, CrashImage, InDoubt};
use dbsens_engine::Governor;
use dbsens_hwsim::kernel::{CrashPoint, Kernel};
use dbsens_hwsim::rng::SimRng;
use dbsens_hwsim::ssd::torn_sector_prefix;
use dbsens_hwsim::time::SimTime;
use dbsens_storage::btree::RowId;
use dbsens_storage::lock::TxnId;
use dbsens_storage::schema::{ColType, Schema};
use dbsens_storage::value::Value;
use dbsens_storage::wal::{scan_log, LogScan, WalRecord};
use dbsens_workloads::driver::{build_workload, WorkloadSpec};
use dbsens_workloads::scale::ScaleCfg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Workload classes the verifier covers (paper §3 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashClass {
    /// Transactional: ASDB clients (inserts/updates/deletes under 2PL).
    Oltp,
    /// Analytical: TPC-H streams (read-only; recovery must be a no-op).
    Olap,
    /// Mixed: TPC-E users plus an analytical stream over columnstores.
    Htap,
}

impl CrashClass {
    /// All classes, in report order.
    pub const ALL: [CrashClass; 3] = [CrashClass::Oltp, CrashClass::Olap, CrashClass::Htap];

    /// Class name as used on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            CrashClass::Oltp => "oltp",
            CrashClass::Olap => "olap",
            CrashClass::Htap => "htap",
        }
    }

    /// Parses a CLI class name.
    pub fn parse(s: &str) -> Option<CrashClass> {
        CrashClass::ALL.iter().copied().find(|c| c.name() == s)
    }

    fn salt(&self) -> u64 {
        match self {
            CrashClass::Oltp => 0xC7A5_0001,
            CrashClass::Olap => 0xC7A5_0002,
            CrashClass::Htap => 0xC7A5_0003,
        }
    }

    /// A deliberately small workload: each kill point rebuilds and reruns
    /// it from scratch, so hundreds of points must stay cheap.
    fn spec(&self) -> WorkloadSpec {
        match self {
            CrashClass::Oltp => WorkloadSpec::Asdb {
                sf: 50.0,
                clients: 8,
            },
            CrashClass::Olap => WorkloadSpec::TpchThroughput {
                sf: 1.0,
                streams: 2,
            },
            CrashClass::Htap => WorkloadSpec::Htap {
                sf: 200.0,
                users: 6,
            },
        }
    }

    /// Virtual seconds per run — long enough to cross at least one fuzzy
    /// checkpoint (the engine checkpoints every 5 virtual seconds).
    fn run_secs(&self) -> u64 {
        match self {
            CrashClass::Oltp => 8,
            CrashClass::Olap => 6,
            CrashClass::Htap => 7,
        }
    }
}

/// Verifier configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashVerifyConfig {
    /// Workload class to kill.
    pub class: CrashClass,
    /// Number of seeded kill points.
    pub points: u64,
    /// Master seed; outcomes are deterministic in `(seed, point index)`.
    pub seed: u64,
}

/// Outcome of one kill point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointResult {
    /// Point index.
    pub point: u64,
    /// Kernel event index the crash halted at.
    pub kill_event: u64,
    /// Whether a WAL flush was in flight at the kill (mid-flush crash).
    pub mid_flush: bool,
    /// Whether recovery itself was killed and restarted at this point.
    pub mid_recovery: bool,
    /// Whether the surviving log ended in a torn frame.
    pub torn_tail: bool,
    /// Committed transactions recovered.
    pub committed: u64,
    /// Undo actions performed across all recovery rounds.
    pub undone: u64,
    /// Recovery rounds (1 unless recovery was killed mid-undo).
    pub recovery_rounds: u64,
    /// Invariant violations (empty = point passed).
    pub violations: Vec<String>,
    /// Digest of the recovered state, for determinism checks.
    pub digest: u64,
}

impl PointResult {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifier report for one workload class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class name.
    pub class: String,
    /// Events the healthy probe run dispatched (kill points are drawn
    /// from `[probe_events/10, probe_events)`).
    pub probe_events: u64,
    /// Per-point outcomes.
    pub points: Vec<PointResult>,
    /// Whether re-running point 0 reproduced its digest exactly.
    pub determinism_ok: bool,
}

impl ClassReport {
    /// Whether every point passed and determinism held.
    pub fn passed(&self) -> bool {
        self.determinism_ok && self.points.iter().all(|p| p.passed())
    }

    /// Points that failed at least one invariant.
    pub fn failures(&self) -> impl Iterator<Item = &PointResult> {
        self.points.iter().filter(|p| !p.passed())
    }

    /// Points that killed the kernel with a WAL flush in flight.
    pub fn mid_flush_count(&self) -> usize {
        self.points.iter().filter(|p| p.mid_flush).count()
    }

    /// Points that killed recovery itself.
    pub fn mid_recovery_count(&self) -> usize {
        self.points.iter().filter(|p| p.mid_recovery).count()
    }

    /// Points whose surviving log had a torn tail.
    pub fn torn_count(&self) -> usize {
        self.points.iter().filter(|p| p.torn_tail).count()
    }

    /// Committed transactions verified present, summed over points.
    pub fn committed_total(&self) -> u64 {
        self.points.iter().map(|p| p.committed).sum()
    }

    /// Undo actions verified, summed over points.
    pub fn undone_total(&self) -> u64 {
        self.points.iter().map(|p| p.undone).sum()
    }
}

fn knobs_for(class: CrashClass, seed: u64) -> ResourceKnobs {
    ResourceKnobs::paper_full()
        .with_cores(8)
        .with_maxdop(4)
        .with_seed(seed)
        .with_run_secs(class.run_secs())
}

/// Builds the class workload with capture on and runs it to `crash` (or to
/// the full duration when `crash` is `None`). Returns the database and the
/// kernel at the moment of the halt.
fn run_to_crash(
    class: CrashClass,
    seed: u64,
    crash: Option<CrashPoint>,
) -> (std::rc::Rc<std::cell::RefCell<Database>>, Kernel) {
    let knobs = knobs_for(class, seed);
    let scale = ScaleCfg {
        seed,
        ..ScaleCfg::test()
    };
    let governor: Governor = knobs.governor();
    let mut built = build_workload(&class.spec(), &scale, &governor);
    built.db.borrow_mut().enable_crash_consistency();
    let mut cfg = knobs.sim_config();
    cfg.crash = crash;
    let mut kernel = Kernel::new(cfg);
    for t in built.tasks.drain(..) {
        kernel.spawn(t);
    }
    kernel.run_until(SimTime::ZERO + knobs.run_duration());
    (built.db, kernel)
}

/// Sorted row multiset of a table, as comparable strings.
fn sorted_rows(t: &dbsens_engine::db::Table) -> Vec<String> {
    let mut rows: Vec<String> = t.heap.iter().map(|(_, r)| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Replays only committed transactions' data records, in LSN order, onto
/// the pre-run state: the ground truth a recovered database must match.
fn oracle_replay(base: &Database, scan: &LogScan) -> Database {
    let committed: BTreeSet<u64> = scan
        .records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    replay_committed(base, scan, &committed)
}

/// Replays the data records of `committed` transactions, in LSN order,
/// onto the pre-run state.
fn replay_committed(base: &Database, scan: &LogScan, committed: &BTreeSet<u64>) -> Database {
    let mut db = base.clone();
    for (lsn, rec) in &scan.records {
        match rec {
            WalRecord::Insert {
                txn,
                table,
                rid,
                row,
            } if committed.contains(txn) => {
                assert!(
                    db.restore_row(TableId(*table as usize), RowId(*rid), row.clone()),
                    "oracle replay: insert collision at lsn {}",
                    lsn.0
                );
            }
            WalRecord::Update {
                txn,
                table,
                rid,
                after,
                ..
            } if committed.contains(txn) => {
                let image = after.clone();
                assert!(
                    db.update_row(TableId(*table as usize), RowId(*rid), |r| *r = image),
                    "oracle replay: update target missing at lsn {}",
                    lsn.0
                );
            }
            WalRecord::Delete {
                txn, table, rid, ..
            } if committed.contains(txn) => {
                assert!(
                    db.delete_row(TableId(*table as usize), RowId(*rid))
                        .is_some(),
                    "oracle replay: delete target missing at lsn {}",
                    lsn.0
                );
            }
            _ => {}
        }
    }
    db
}

/// Checks every durability invariant of a recovered database and appends
/// human-readable violations.
fn check_invariants(rec: &Database, oracle: &Database, violations: &mut Vec<String>) {
    for (tid, (t_rec, t_orc)) in rec.tables().iter().zip(oracle.tables().iter()).enumerate() {
        let got = sorted_rows(t_rec);
        let want = sorted_rows(t_orc);
        if got != want {
            violations.push(format!(
                "table {tid}: recovered rows diverge from committed-only oracle \
                 ({} recovered vs {} expected)",
                got.len(),
                want.len()
            ));
        }
        for idx in &t_rec.indexes {
            idx.btree.check_invariants();
            if idx.btree.len() != t_rec.heap.len() {
                violations.push(format!(
                    "table {tid} index {}: {} entries vs {} heap rows",
                    idx.name,
                    idx.btree.len(),
                    t_rec.heap.len()
                ));
            }
            for (rid, row) in t_rec.heap.iter() {
                let key = idx.key_of(row);
                if !idx.btree.get(&key).any(|r| r == rid) {
                    violations.push(format!(
                        "table {tid} index {}: heap row {} unreachable through the index",
                        idx.name, rid.0
                    ));
                    break;
                }
            }
        }
        if let Some(cs) = &t_rec.columnstore {
            if cs.store.total_rows() != t_rec.heap.len() {
                violations.push(format!(
                    "table {tid} columnstore: {} rows vs {} heap rows",
                    cs.store.total_rows(),
                    t_rec.heap.len()
                ));
            }
        }
    }
    let chain = scan_log(rec.wal.image());
    if chain.torn {
        violations.push("recovered WAL checksum chain is torn".to_string());
    }
    if !rec.active_logged_txns().is_empty() {
        violations.push(format!(
            "recovery left {} open transactions",
            rec.active_logged_txns().len()
        ));
    }
}

/// Runs one kill point end to end. Deterministic in `(seed, point)`.
fn run_point(class: CrashClass, seed: u64, point: u64, kill_event: u64) -> PointResult {
    let mut rng =
        SimRng::new(seed ^ class.salt() ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    let mid_recovery = point % 3 == 2;

    let (db, kernel) = run_to_crash(class, seed, Some(CrashPoint::AtEvent(kill_event)));
    let mut violations = Vec::new();
    if !kernel.halted() {
        violations.push(format!(
            "kill event {kill_event} never reached (run dispatched {} events)",
            kernel.dispatched_events()
        ));
    }
    let mid_flush = db.borrow().wal.has_inflight_flush();
    let image = CrashImage::extract(&mut db.borrow_mut(), |sectors| {
        torn_sector_prefix(seed, point, sectors)
    });
    // The halted run is dead; free it before recovery builds a new one.
    drop((db, kernel));
    // The committed-only oracle replays the surviving log onto the pre-run
    // state (snapshot 0) before recovery consumes the image.
    let oracle = oracle_replay(&image.snapshots[0].1, &scan_log(&image.wal_image));

    // Recover — for mid-recovery points, in budget-limited rounds with a
    // fresh crash image between rounds (recovery killed and restarted).
    let mut rounds = 0u64;
    let mut undone = 0u64;
    let mut committed = 0u64;
    let mut torn_tail = false;
    let mut img = image;
    let recovered = loop {
        let budget = if mid_recovery && rounds < 64 {
            Some(1 + rng.next_below(3) as usize)
        } else {
            None
        };
        let (mut d, r) = recover(img, budget);
        if rounds == 0 {
            torn_tail = r.torn_tail;
            committed = r.committed_txns;
        }
        rounds += 1;
        undone += r.undo_records;
        if r.completed {
            break d;
        }
        img = CrashImage::extract(&mut d, |_| 0);
    };

    check_invariants(&recovered, &oracle, &mut violations);

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for t in recovered.tables() {
        for row in sorted_rows(t) {
            digest = fnv(digest, row.as_bytes());
        }
    }
    digest = fnv(digest, &committed.to_le_bytes());
    digest = fnv(digest, &undone.to_le_bytes());

    PointResult {
        point,
        kill_event,
        mid_flush,
        mid_recovery,
        torn_tail,
        committed,
        undone,
        recovery_rounds: rounds,
        violations,
        digest,
    }
}

/// Runs the crash verifier for one workload class.
///
/// A healthy probe run first measures how many kernel events the workload
/// dispatches; kill points are then drawn uniformly (seeded) from the last
/// 90% of that range so every phase — warm-up, steady state, checkpoints,
/// group-commit flushes — gets killed.
pub fn verify_class(cfg: &CrashVerifyConfig) -> ClassReport {
    let (_, kernel) = run_to_crash(cfg.class, cfg.seed, None);
    let probe_events = kernel.dispatched_events();
    assert!(
        probe_events >= 20,
        "probe run dispatched only {probe_events} events"
    );
    let lo = (probe_events / 10).max(1);

    let point_at = |i: u64| {
        let mut rng =
            SimRng::new(cfg.seed ^ cfg.class.salt() ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        lo + rng.next_below(probe_events - lo)
    };
    let run_guarded = |i: u64, kill: u64| {
        catch_unwind(AssertUnwindSafe(|| run_point(cfg.class, cfg.seed, i, kill))).unwrap_or_else(
            |panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic".to_string());
                PointResult {
                    point: i,
                    kill_event: kill,
                    mid_flush: false,
                    mid_recovery: i % 3 == 2,
                    torn_tail: false,
                    committed: 0,
                    undone: 0,
                    recovery_rounds: 0,
                    violations: vec![format!("panic: {msg}")],
                    digest: 0,
                }
            },
        )
    };

    let points: Vec<PointResult> = (0..cfg.points)
        .map(|i| run_guarded(i, point_at(i)))
        .collect();
    let determinism_ok = match points.first() {
        Some(first) => {
            let again = run_guarded(0, point_at(0));
            again.digest == first.digest && again.violations == first.violations
        }
        None => true,
    };

    ClassReport {
        class: cfg.class.name().to_string(),
        probe_events,
        points,
        determinism_ok,
    }
}

/// Renders a pass/fail durability report over one or more classes.
pub fn render_report(reports: &[ClassReport]) -> String {
    let mut out = String::new();
    out.push_str("Crash-consistency verification\n");
    out.push_str("==============================\n");
    out.push_str(
        "class  points  pass  mid-flush  mid-recovery  torn  committed  undone  deterministic\n",
    );
    for r in reports {
        let pass = r.points.iter().filter(|p| p.passed()).count();
        out.push_str(&format!(
            "{:<6} {:>6}  {:>4}  {:>9}  {:>12}  {:>4}  {:>9}  {:>6}  {}\n",
            r.class,
            r.points.len(),
            pass,
            r.mid_flush_count(),
            r.mid_recovery_count(),
            r.torn_count(),
            r.committed_total(),
            r.undone_total(),
            if r.determinism_ok { "yes" } else { "NO" },
        ));
        for p in r.failures() {
            out.push_str(&format!(
                "  FAIL point {} (event {}):\n",
                p.point, p.kill_event
            ));
            for v in &p.violations {
                out.push_str(&format!("    - {v}\n"));
            }
        }
    }
    let all_pass = reports.iter().all(|r| r.passed());
    out.push_str(if all_pass {
        "result: PASS — every kill point recovered to a consistent state\n"
    } else {
        "result: FAIL — durability violations found\n"
    });
    out
}

// ---------------------------------------------------------------------------
// Distributed chaos verifier
// ---------------------------------------------------------------------------

/// Seed salt separating distributed kill schedules from single-node ones.
const DIST_SALT: u64 = 0xD157_C7A5_2FC0_77E7;

/// Configuration of the distributed chaos verifier.
///
/// The verifier scripts a deterministic stream of single-site and
/// multisite (presumed-abort 2PC) transactions over `nodes` real databases
/// with crash-consistency capture on, kills exactly one node at a seeded
/// protocol step — coordinator or participant, before or after its force —
/// then lets survivors finish via presumed abort, recovers the victim with
/// ARIES (re-killed mid-undo on every third point), resolves its in-doubt
/// branches against the coordinators' durable decisions, and checks
/// *cross-shard atomicity*: every multisite transaction's effects must be
/// present on both shards or neither, with each shard matching a
/// committed-only oracle replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistVerifyConfig {
    /// Shard (node) count; one database per shard.
    pub nodes: usize,
    /// Scripted transactions per run.
    pub txns: u64,
    /// Number of seeded kill points.
    pub points: u64,
    /// Master seed; outcomes are deterministic in `(seed, point index)`.
    pub seed: u64,
}

impl DistVerifyConfig {
    /// CI-shaped default: 3 shards, 48 transactions per run.
    pub fn paper_default(points: u64, seed: u64) -> Self {
        DistVerifyConfig {
            nodes: 3,
            txns: 48,
            points,
            seed,
        }
    }
}

/// Outcome of one distributed kill point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistPointResult {
    /// Point index.
    pub point: u64,
    /// Protocol step the kill landed on.
    pub kill_step: u64,
    /// Node that was killed.
    pub victim: usize,
    /// Whether the victim was acting as coordinator at the kill.
    pub victim_was_coordinator: bool,
    /// Whether recovery itself was killed and restarted at this point.
    pub mid_recovery: bool,
    /// Recovery rounds on the victim (1 unless recovery was re-killed).
    pub recovery_rounds: u64,
    /// Transactions acknowledged committed during the run.
    pub committed: u64,
    /// Transactions aborted (vote NO, timeouts, crash losses).
    pub aborted: u64,
    /// Transactions skipped because a required shard was down.
    pub skipped_down: u64,
    /// In-doubt branches resolved to commit.
    pub indoubt_commits: u64,
    /// In-doubt branches resolved to abort (presumed abort).
    pub indoubt_aborts: u64,
    /// Invariant violations (empty = point passed).
    pub violations: Vec<String>,
    /// Hex digest of the final cluster state, for determinism checks
    /// (a string so JSON tooling never rounds high bits away).
    pub digest: String,
}

impl DistPointResult {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Distributed chaos verifier report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistReport {
    /// Shard count.
    pub nodes: usize,
    /// Steps the healthy probe run executed (kills are drawn from
    /// `[steps/10, steps)`).
    pub probe_steps: u64,
    /// Per-point outcomes.
    pub points: Vec<DistPointResult>,
    /// Whether re-running point 0 reproduced its digest exactly.
    pub determinism_ok: bool,
}

impl DistReport {
    /// Whether every point passed and determinism held.
    pub fn passed(&self) -> bool {
        self.determinism_ok && self.points.iter().all(|p| p.passed())
    }

    /// Points that failed at least one invariant.
    pub fn failures(&self) -> impl Iterator<Item = &DistPointResult> {
        self.points.iter().filter(|p| !p.passed())
    }

    /// Points that killed the acting coordinator.
    pub fn coordinator_kills(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.victim_was_coordinator)
            .count()
    }

    /// Points that killed a participant.
    pub fn participant_kills(&self) -> usize {
        self.points
            .iter()
            .filter(|p| !p.victim_was_coordinator)
            .count()
    }

    /// Points that re-killed recovery mid-undo.
    pub fn mid_recovery_count(&self) -> usize {
        self.points.iter().filter(|p| p.mid_recovery).count()
    }

    /// In-doubt resolutions across all points (commits + aborts).
    pub fn indoubt_total(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.indoubt_commits + p.indoubt_aborts)
            .sum()
    }
}

/// One scripted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Single-site transaction on one shard.
    Single { shard: usize },
    /// Multisite transaction that reaches a commit decision via 2PC.
    Commit { coord: usize, part: usize },
    /// Multisite transaction whose participant votes NO.
    VoteNo { coord: usize, part: usize },
}

/// Deterministic transaction script for a cluster size.
fn dist_script(nodes: usize, txns: u64, seed: u64) -> Vec<Flow> {
    let mut rng = SimRng::new(seed ^ DIST_SALT);
    (0..txns)
        .map(|k| {
            let c = rng.next_below(nodes as u64) as usize;
            if nodes == 1 || k % 4 == 3 {
                Flow::Single { shard: c }
            } else {
                let mut p = rng.next_below(nodes as u64 - 1) as usize;
                if p >= c {
                    p += 1;
                }
                if k % 7 == 5 {
                    Flow::VoteNo { coord: c, part: p }
                } else {
                    Flow::Commit { coord: c, part: p }
                }
            }
        })
        .collect()
}

struct DistCluster {
    dbs: Vec<Database>,
    tables: Vec<TableId>,
    rids: Vec<Vec<RowId>>,
    initial: Vec<Database>,
    up: Vec<bool>,
}

/// Builds one database per shard with `rows` account rows each. Callers
/// size `rows >= txns` so every scripted transaction touches a distinct
/// row: a prepared (in-doubt) branch holds its row locks until the 2PC
/// decision, so no later transaction could have written the same row —
/// distinct rows model that exclusion without a cross-shard lock table.
fn build_cluster(nodes: usize, rows: usize) -> DistCluster {
    let mut cl = DistCluster {
        dbs: Vec::new(),
        tables: Vec::new(),
        rids: Vec::new(),
        initial: Vec::new(),
        up: vec![true; nodes],
    };
    for s in 0..nodes {
        let mut db = Database::new(100.0, 1 << 30);
        let schema = Schema::new(&[("id", ColType::Int), ("bal", ColType::Int)]);
        let rows: Vec<Vec<Value>> = (0..rows)
            .map(|i| vec![Value::Int((s * 100_000 + i) as i64), Value::Int(1000)])
            .collect();
        let t = db.create_table("acct", schema, rows);
        db.create_index(t, "pk", &[0]);
        cl.initial.push(db.clone());
        db.enable_crash_consistency();
        let r: Vec<RowId> = db.tables()[t.0].heap.iter().map(|(rid, _)| rid).collect();
        cl.dbs.push(db);
        cl.tables.push(t);
        cl.rids.push(r);
    }
    cl
}

/// Driver state for one scripted distributed run.
struct DistRun {
    cl: DistCluster,
    step: u64,
    kill_at: Option<u64>,
    torn_seed: (u64, u64),
    victim: Option<usize>,
    victim_is_coord: bool,
    kill_step: u64,
    crash_img: Option<CrashImage>,
    /// Live prepared branches waiting on a dead coordinator's recovery:
    /// `(txn, participant shard, coordinator shard)`.
    deferred: Vec<(u64, usize, usize)>,
    /// Transactions acknowledged committed during the script, with the
    /// shards whose WALs must prove them after recovery.
    acked: Vec<(u64, Vec<usize>)>,
    committed: u64,
    aborted: u64,
    skipped_down: u64,
}

impl DistRun {
    /// Advances the global step counter for a protocol action performed by
    /// `performer`. Returns `false` when the performer is killed at this
    /// very step (the action does NOT happen — the process died first).
    fn tick(&mut self, performer: usize, is_coord: bool) -> bool {
        let s = self.step;
        self.step += 1;
        if Some(s) == self.kill_at && self.victim.is_none() {
            let (seed, point) = self.torn_seed;
            self.cl.up[performer] = false;
            let img = CrashImage::extract(&mut self.cl.dbs[performer], |sectors| {
                torn_sector_prefix(seed, point, sectors)
            });
            self.victim = Some(performer);
            self.victim_is_coord = is_coord;
            self.kill_step = s;
            self.crash_img = Some(img);
            return false;
        }
        self.cl.up[performer]
    }

    /// Branch work: begin (if first touch) plus one logged balance update.
    fn work(&mut self, shard: usize, txn: u64, begin: bool) {
        let t = self.cl.tables[shard];
        let rid = self.cl.rids[shard][(txn as usize - 1) % self.cl.rids[shard].len()];
        let id = TxnId(txn);
        let delta = txn as i64;
        if begin {
            self.cl.dbs[shard].begin_txn_logged(id);
        }
        self.cl.dbs[shard].update_row_logged(id, t, rid, |r| {
            if let Value::Int(b) = &r[1] {
                let nb = *b + delta;
                r[1] = Value::Int(nb);
            }
        });
    }

    fn commit_forced(&mut self, shard: usize, txn: u64) {
        self.cl.dbs[shard].commit_txn_logged(TxnId(txn));
        self.cl.dbs[shard].wal.force_durable();
    }
}

/// Executes one scripted transaction, killing the configured node if its
/// step comes up. Mirrors the presumed-abort protocol: survivor-side
/// timeouts abort anything without a durable decision; prepared branches
/// whose coordinator died wait for its recovery (`deferred`).
fn run_dist_txn(run: &mut DistRun, k: u64, flow: Flow) {
    let id = k + 1;
    match flow {
        Flow::Single { shard } => {
            if !run.cl.up[shard] {
                run.skipped_down += 1;
                return;
            }
            if !run.tick(shard, true) {
                run.aborted += 1;
                return;
            }
            run.work(shard, id, true);
            if !run.tick(shard, true) {
                // Killed before the group-commit force: never acked.
                run.aborted += 1;
                return;
            }
            run.commit_forced(shard, id);
            run.committed += 1;
            run.acked.push((id, vec![shard]));
        }
        Flow::Commit { coord: c, part: p } => {
            if !run.cl.up[c] || !run.cl.up[p] {
                run.skipped_down += 1;
                return;
            }
            // Branch work on both shards.
            if !run.tick(c, true) {
                run.aborted += 1;
                return;
            }
            run.work(c, id, true);
            if !run.tick(p, false) {
                // Participant died before working: coordinator vote
                // timeout presumes abort.
                run.cl.dbs[c].rollback_txn(TxnId(id));
                run.aborted += 1;
                return;
            }
            run.work(p, id, true);
            // Participant force-logs Prepare and votes YES.
            if !run.tick(p, false) {
                run.cl.dbs[c].rollback_txn(TxnId(id));
                run.aborted += 1;
                return;
            }
            run.cl.dbs[p].prepare_txn_logged(TxnId(id), c as u32);
            // Coordinator force-logs the commit decision.
            if !run.tick(c, true) {
                // Coordinator died before the decision was durable: the
                // prepared branch stays in doubt until the coordinator
                // recovers (presumed abort will kill it).
                run.deferred.push((id, p, c));
                return;
            }
            run.cl.dbs[c].log_coord_commit(id, vec![p as u32]);
            // Coordinator's local branch commits.
            if !run.tick(c, true) {
                // Decision IS durable; the live prepared branch learns it
                // from the recovered coordinator.
                run.deferred.push((id, p, c));
                return;
            }
            run.commit_forced(c, id);
            // Participant applies the decision.
            if !run.tick(p, false) {
                // Participant died in doubt with a durable commit decision
                // at the coordinator: its recovery resolves to commit.
                return;
            }
            run.commit_forced(p, id);
            run.committed += 1;
            run.acked.push((id, vec![c, p]));
            // Lazy forget record.
            if run.tick(c, true) {
                run.cl.dbs[c].log_coord_end(id);
            }
        }
        Flow::VoteNo { coord: c, part: p } => {
            if !run.cl.up[c] || !run.cl.up[p] {
                run.skipped_down += 1;
                return;
            }
            if !run.tick(c, true) {
                run.aborted += 1;
                return;
            }
            run.work(c, id, true);
            if !run.tick(p, false) {
                run.cl.dbs[c].rollback_txn(TxnId(id));
                run.aborted += 1;
                return;
            }
            run.work(p, id, true);
            // Participant votes NO: aborts locally without preparing.
            if !run.tick(p, false) {
                run.cl.dbs[c].rollback_txn(TxnId(id));
                run.aborted += 1;
                return;
            }
            run.cl.dbs[p].rollback_txn(TxnId(id));
            // Coordinator learns NO and aborts its branch.
            if run.tick(c, true) {
                run.cl.dbs[c].rollback_txn(TxnId(id));
            }
            run.aborted += 1;
        }
    }
}

/// Commits provable from a shard's durable WAL: local `Commit` records
/// plus `CoordCommit` decisions (the coordinator's branch commits at the
/// decision force even if its local `Commit` record was lost).
fn shard_commit_set(scan: &LogScan) -> BTreeSet<u64> {
    scan.records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } | WalRecord::CoordCommit { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect()
}

/// Runs one distributed kill point end to end. Deterministic in
/// `(seed, point)`.
fn run_dist_point(cfg: &DistVerifyConfig, point: u64, kill_step: u64) -> DistPointResult {
    let mut rng =
        SimRng::new(cfg.seed ^ DIST_SALT ^ point.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    let mid_recovery = point % 3 == 2;
    let script = dist_script(cfg.nodes, cfg.txns, cfg.seed);
    let mut run = DistRun {
        cl: build_cluster(cfg.nodes, cfg.txns.max(16) as usize),
        step: 0,
        kill_at: Some(kill_step),
        torn_seed: (cfg.seed, point),
        victim: None,
        victim_is_coord: false,
        kill_step: 0,
        crash_img: None,
        deferred: Vec::new(),
        acked: Vec::new(),
        committed: 0,
        aborted: 0,
        skipped_down: 0,
    };
    for (k, flow) in script.iter().enumerate() {
        run_dist_txn(&mut run, k as u64, *flow);
    }

    let mut violations = Vec::new();
    let victim = run.victim.unwrap_or(0);
    if run.victim.is_none() {
        violations.push(format!(
            "kill step {kill_step} never reached (script executed {} steps)",
            run.step
        ));
    }

    // Victim restart: ARIES rounds (re-killed mid-undo on mid-recovery
    // points), then in-doubt resolution against each coordinator's
    // durable decision.
    let mut rounds = 0u64;
    let mut indoubt_commits = 0u64;
    let mut indoubt_aborts = 0u64;
    if let Some(mut img) = run.crash_img.take() {
        let (recovered, in_doubt) = loop {
            let budget = if mid_recovery && rounds < 64 {
                Some(1 + rng.next_below(3) as usize)
            } else {
                None
            };
            let (mut d, r) = recover(img, budget);
            rounds += 1;
            if r.completed {
                break (d, r.in_doubt);
            }
            img = CrashImage::extract(&mut d, |_| 0);
        };
        run.cl.dbs[victim] = recovered;
        run.cl.up[victim] = true;
        for InDoubt { txn, coordinator } in in_doubt {
            let cw = coordinator as usize;
            let commit = shard_commit_set(&scan_log(run.cl.dbs[cw].wal.image())).contains(&txn);
            resolve_indoubt(&mut run.cl.dbs[victim], txn, commit);
            if commit {
                indoubt_commits += 1;
                run.committed += 1;
            } else {
                indoubt_aborts += 1;
                run.aborted += 1;
            }
        }
    }
    // Live prepared branches whose coordinator just recovered: cooperative
    // termination — the recovered WAL answers the decision query.
    for (txn, p, c) in run.deferred.clone() {
        let commit = shard_commit_set(&scan_log(run.cl.dbs[c].wal.image())).contains(&txn);
        if commit {
            run.cl.dbs[p].commit_txn_logged(TxnId(txn));
            run.cl.dbs[p].wal.force_durable();
            indoubt_commits += 1;
            run.committed += 1;
        } else {
            run.cl.dbs[p].rollback_txn(TxnId(txn));
            indoubt_aborts += 1;
            run.aborted += 1;
        }
    }

    // Per-shard durability: every shard must match its committed-only
    // oracle (Commit ∪ CoordCommit), with intact indexes and WAL chain.
    let mut commit_sets: Vec<BTreeSet<u64>> = Vec::new();
    for (s, db) in run.cl.dbs.iter().enumerate() {
        let scan = scan_log(db.wal.image());
        commit_sets.push(shard_commit_set(&scan));
        let oracle = replay_committed(&run.cl.initial[s], &scan, &commit_sets[s]);
        let mut local = Vec::new();
        check_invariants(&run.cl.dbs[s], &oracle, &mut local);
        violations.extend(local.into_iter().map(|v| format!("shard {s}: {v}")));
    }
    // Cross-shard atomicity: all-or-none per multisite transaction.
    for (k, flow) in script.iter().enumerate() {
        let id = k as u64 + 1;
        match *flow {
            Flow::Commit { coord, part } => {
                let on_c = commit_sets[coord].contains(&id);
                let on_p = commit_sets[part].contains(&id);
                if on_c != on_p {
                    violations.push(format!(
                        "txn {id}: atomicity violated — committed on \
                         {} but not on {}",
                        if on_c { coord } else { part },
                        if on_c { part } else { coord },
                    ));
                }
            }
            Flow::VoteNo { coord, part } => {
                if commit_sets[coord].contains(&id) || commit_sets[part].contains(&id) {
                    violations.push(format!(
                        "txn {id}: NO-voted transaction has durable commit evidence"
                    ));
                }
            }
            Flow::Single { .. } => {}
        }
    }
    // Acked durability: a commit acknowledged to the client must survive
    // every crash and recovery on every shard that acked it.
    for (id, shards) in &run.acked {
        for &s in shards {
            if !commit_sets[s].contains(id) {
                violations.push(format!("txn {id}: acked commit lost on shard {s}"));
            }
        }
    }

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (s, db) in run.cl.dbs.iter().enumerate() {
        digest = fnv(digest, &(s as u64).to_le_bytes());
        for t in db.tables() {
            for row in sorted_rows(t) {
                digest = fnv(digest, row.as_bytes());
            }
        }
        for id in &commit_sets[s] {
            digest = fnv(digest, &id.to_le_bytes());
        }
    }

    DistPointResult {
        point,
        kill_step: run.kill_step,
        victim,
        victim_was_coordinator: run.victim_is_coord,
        mid_recovery,
        recovery_rounds: rounds,
        committed: run.committed,
        aborted: run.aborted,
        skipped_down: run.skipped_down,
        indoubt_commits,
        indoubt_aborts,
        violations,
        digest: format!("{digest:016x}"),
    }
}

/// Runs the distributed chaos verifier: a healthy probe counts protocol
/// steps, then each point kills one node at a seeded step and verifies
/// per-shard durability plus cross-shard atomicity.
pub fn verify_distributed(cfg: &DistVerifyConfig) -> DistReport {
    assert!(cfg.nodes >= 2, "distributed verification needs >= 2 shards");
    let script = dist_script(cfg.nodes, cfg.txns, cfg.seed);
    let mut probe = DistRun {
        cl: build_cluster(cfg.nodes, cfg.txns.max(16) as usize),
        step: 0,
        kill_at: None,
        torn_seed: (cfg.seed, 0),
        victim: None,
        victim_is_coord: false,
        kill_step: 0,
        crash_img: None,
        deferred: Vec::new(),
        acked: Vec::new(),
        committed: 0,
        aborted: 0,
        skipped_down: 0,
    };
    for (k, flow) in script.iter().enumerate() {
        run_dist_txn(&mut probe, k as u64, *flow);
    }
    let probe_steps = probe.step;
    assert!(
        probe_steps >= 20,
        "probe run executed only {probe_steps} steps"
    );
    let lo = (probe_steps / 10).max(1);

    let step_at = |i: u64| {
        let mut rng = SimRng::new(cfg.seed ^ DIST_SALT ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        lo + rng.next_below(probe_steps - lo)
    };
    let run_guarded = |i: u64, kill: u64| {
        catch_unwind(AssertUnwindSafe(|| run_dist_point(cfg, i, kill))).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic".to_string());
            DistPointResult {
                point: i,
                kill_step: kill,
                victim: 0,
                victim_was_coordinator: false,
                mid_recovery: i % 3 == 2,
                recovery_rounds: 0,
                committed: 0,
                aborted: 0,
                skipped_down: 0,
                indoubt_commits: 0,
                indoubt_aborts: 0,
                violations: vec![format!("panic: {msg}")],
                digest: String::new(),
            }
        })
    };

    let points: Vec<DistPointResult> = (0..cfg.points)
        .map(|i| run_guarded(i, step_at(i)))
        .collect();
    let determinism_ok = match points.first() {
        Some(first) => {
            let again = run_guarded(0, step_at(0));
            again.digest == first.digest && again.violations == first.violations
        }
        None => true,
    };

    DistReport {
        nodes: cfg.nodes,
        probe_steps,
        points,
        determinism_ok,
    }
}

/// Renders the distributed chaos verifier report.
pub fn render_dist_report(r: &DistReport) -> String {
    let mut out = String::new();
    out.push_str("Distributed chaos verification\n");
    out.push_str("==============================\n");
    let pass = r.points.iter().filter(|p| p.passed()).count();
    out.push_str(&format!(
        "{} shards, {} kill points ({} pass): {} coordinator kills, \
         {} participant kills, {} mid-recovery re-kills\n",
        r.nodes,
        r.points.len(),
        pass,
        r.coordinator_kills(),
        r.participant_kills(),
        r.mid_recovery_count(),
    ));
    let committed: u64 = r.points.iter().map(|p| p.committed).sum();
    let aborted: u64 = r.points.iter().map(|p| p.aborted).sum();
    out.push_str(&format!(
        "committed {} / aborted {} across points; {} in-doubt branches \
         resolved ({} commit, {} abort); determinism {}\n",
        committed,
        aborted,
        r.indoubt_total(),
        r.points.iter().map(|p| p.indoubt_commits).sum::<u64>(),
        r.points.iter().map(|p| p.indoubt_aborts).sum::<u64>(),
        if r.determinism_ok { "yes" } else { "NO" },
    ));
    for p in r.failures() {
        out.push_str(&format!(
            "  FAIL point {} (step {}, victim n{}):\n",
            p.point, p.kill_step, p.victim
        ));
        for v in &p.violations {
            out.push_str(&format!("    - {v}\n"));
        }
    }
    out.push_str(if r.passed() {
        "result: PASS — every kill preserved cross-shard atomicity\n"
    } else {
        "result: FAIL — distributed atomicity violations found\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(class: CrashClass, points: u64) -> ClassReport {
        verify_class(&CrashVerifyConfig {
            class,
            points,
            seed: 42,
        })
    }

    #[test]
    fn oltp_kill_points_recover_consistently() {
        let r = verify(CrashClass::Oltp, 4);
        assert!(r.passed(), "{}", render_report(&[r]));
        assert!(
            r.committed_total() > 0,
            "kills too early: no committed txns verified"
        );
        assert!(r.mid_recovery_count() > 0);
    }

    #[test]
    fn olap_kill_points_recover_consistently() {
        let r = verify(CrashClass::Olap, 3);
        assert!(r.passed(), "{}", render_report(&[r]));
    }

    #[test]
    fn htap_kill_points_recover_consistently() {
        let r = verify(CrashClass::Htap, 3);
        assert!(r.passed(), "{}", render_report(&[r]));
        assert!(r.committed_total() > 0);
    }

    #[test]
    fn points_are_deterministic_in_seed_and_index() {
        let a = verify(CrashClass::Oltp, 1);
        let b = verify(CrashClass::Oltp, 1);
        assert_eq!(a.points[0].digest, b.points[0].digest);
        assert_eq!(a.points[0].kill_event, b.points[0].kill_event);
        let c = verify_class(&CrashVerifyConfig {
            class: CrashClass::Oltp,
            points: 1,
            seed: 7,
        });
        assert_ne!(
            (a.points[0].kill_event, a.points[0].digest),
            (c.points[0].kill_event, c.points[0].digest),
            "different seeds must pick different kills"
        );
    }

    #[test]
    fn class_parsing_round_trips() {
        for c in CrashClass::ALL {
            assert_eq!(CrashClass::parse(c.name()), Some(c));
        }
        assert_eq!(CrashClass::parse("htab"), None);
    }

    #[test]
    fn distributed_kills_preserve_cross_shard_atomicity() {
        let r = verify_distributed(&DistVerifyConfig {
            nodes: 3,
            txns: 40,
            points: 12,
            seed: 42,
        });
        assert!(r.passed(), "{}", render_dist_report(&r));
        assert!(
            r.coordinator_kills() > 0 && r.participant_kills() > 0,
            "12 points must hit both roles: {} coord / {} part",
            r.coordinator_kills(),
            r.participant_kills()
        );
        assert!(r.mid_recovery_count() > 0);
        let committed: u64 = r.points.iter().map(|p| p.committed).sum();
        assert!(committed > 0, "kills too early: nothing ever committed");
    }

    #[test]
    fn distributed_points_are_deterministic() {
        let cfg = DistVerifyConfig {
            nodes: 2,
            txns: 24,
            points: 2,
            seed: 42,
        };
        let a = verify_distributed(&cfg);
        let b = verify_distributed(&cfg);
        assert!(a.determinism_ok);
        assert_eq!(a.points[0].digest, b.points[0].digest);
        assert_eq!(a.points[1].kill_step, b.points[1].kill_step);
    }

    #[test]
    fn distributed_resolves_in_doubt_branches() {
        // Enough points that some kill lands between Prepare and the
        // participant learning the decision.
        let r = verify_distributed(&DistVerifyConfig {
            nodes: 3,
            txns: 48,
            points: 25,
            seed: 42,
        });
        assert!(r.passed(), "{}", render_dist_report(&r));
        assert!(
            r.indoubt_total() > 0,
            "no kill point ever left a branch in doubt"
        );
    }
}
