//! OLTP transactions: programs, generators, and the client task.
//!
//! Transactions are declarative programs of index-based operations. The
//! client task interprets one operation at a time against the logical data
//! while issuing the matching hardware demands: lock acquisition (blocking,
//! LOCK waits), page latches (busy-window backoff, PAGELATCH waits), buffer
//! pool access (misses become device reads with PAGEIOLATCH waits plus
//! free-list LATCH contention), B-tree probe compute, WAL append, and a
//! group-commit log flush (WRITELOG) guarded by the log-buffer latch.
//!
//! **Deadlock discipline**: generators must emit lock-taking operations in
//! ascending `(table, key)` order within each transaction; the FIFO lock
//! queues then cannot deadlock.

use crate::db::{Database, TableId};
use crate::metrics::RunMetrics;
use dbsens_hwsim::mem::MemProfile;
use dbsens_hwsim::rng::SimRng;
use dbsens_hwsim::task::{Demand, SimTask, Step, TaskCtx, WaitClass};
use dbsens_hwsim::time::{SimDuration, SimTime};
use dbsens_storage::btree::RowId;
use dbsens_storage::bufferpool::PAGE_BYTES;
use dbsens_storage::lock::{LatchKey, LockKey, LockMode, LockReq, TxnId};
use dbsens_storage::value::{Key, Row, Value};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Internal latch ids.
const LOG_BUFFER_LATCH: u32 = 0;
const FREELIST_LATCH: u32 = 1;

/// A declarative column mutation.
#[derive(Debug, Clone)]
pub enum MutOp {
    /// Set an integer column.
    SetInt(i64),
    /// Add to an integer column.
    AddInt(i64),
    /// Set a float column.
    SetFloat(f64),
    /// Add to a float column.
    AddFloat(f64),
    /// Set a string column (shared: applying it copies no bytes).
    SetStr(Arc<str>),
}

/// A mutation of one column.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Column position.
    pub col: usize,
    /// Operation.
    pub op: MutOp,
}

impl Mutation {
    /// Applies the mutation to a row.
    pub fn apply(&self, row: &mut Row) {
        let v = &mut row[self.col];
        match &self.op {
            MutOp::SetInt(x) => *v = Value::Int(*x),
            MutOp::AddInt(x) => {
                if let Value::Int(cur) = v {
                    *cur += x;
                } else {
                    *v = Value::Int(*x);
                }
            }
            MutOp::SetFloat(x) => *v = Value::Float(*x),
            MutOp::AddFloat(x) => {
                if let Value::Float(cur) = v {
                    *cur += x;
                } else {
                    *v = Value::Float(*x);
                }
            }
            MutOp::SetStr(s) => *v = Value::Str(s.clone()),
        }
    }
}

/// How an operation's lock (and page) resource is chosen. Logical rows
/// each stand for `row_scale` real rows, so the spec controls whether
/// contention reflects a genuinely hot entity or a random key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LockSpec {
    /// Random-key access: diffuse the lock within the row's modeled block
    /// so conflict probability matches the paper-scale database.
    Diffuse,
    /// The logical row itself is hot (small fixed tables).
    ExactRow,
    /// A hot entity sampled from the real (paper-scale) id space; the id is
    /// used directly as the modeled row, so the number of distinct
    /// contended resources matches the real system (e.g. one LAST_TRADE row
    /// per security).
    Resource(u64),
}

/// One operation in a transaction program.
#[derive(Debug, Clone)]
pub enum TxOp {
    /// Point read through an index (S lock).
    Read {
        /// Table.
        table: TableId,
        /// Index position on the table.
        index: usize,
        /// Key to read.
        key: Key,
        /// Lock resource choice.
        lock: LockSpec,
        /// Take a `U` (update) lock instead of `S`: required when the same
        /// transaction later writes this key (deadlock-free upgrade).
        for_update: bool,
    },
    /// Range read through an index (no row locks; read-committed scan).
    ReadRange {
        /// Table.
        table: TableId,
        /// Index position.
        index: usize,
        /// Lower bound (inclusive).
        lo: Key,
        /// Upper bound (exclusive).
        hi: Key,
        /// Max logical rows to read.
        limit: usize,
        /// Real (paper-scale) rows this range represents; drives the
        /// modeled CPU/cache cost. OLTP ranges are usually far smaller than
        /// one logical row's block.
        model_rows: u64,
    },
    /// Point update through an index (X lock, page latch, WAL).
    Update {
        /// Table.
        table: TableId,
        /// Index position.
        index: usize,
        /// Key to update.
        key: Key,
        /// Mutations to apply.
        muts: Vec<Mutation>,
        /// Lock resource choice.
        lock: LockSpec,
    },
    /// Insert a new row (X lock on the new row, insert-hotspot page latch,
    /// WAL).
    Insert {
        /// Table.
        table: TableId,
        /// The row.
        row: Row,
    },
    /// Delete through an index (X lock, page latch, WAL).
    Delete {
        /// Table.
        table: TableId,
        /// Index position.
        index: usize,
        /// Key to delete.
        key: Key,
        /// Lock resource choice.
        lock: LockSpec,
    },
    /// Pure application logic between database calls.
    Compute {
        /// Instructions.
        instructions: u64,
    },
}

/// A transaction: a name (for per-type metrics) and its operations.
#[derive(Debug, Clone)]
pub struct TxnProgram {
    /// Transaction type name (e.g. "TradeOrder").
    pub name: &'static str,
    /// Operations, executed in order, then committed.
    pub ops: Vec<TxOp>,
}

/// Produces the next transaction for a client; implemented by each
/// workload.
pub trait TxnGenerator: fmt::Debug {
    /// Generates the next transaction program.
    fn next_txn(&mut self, rng: &mut SimRng) -> TxnProgram;

    /// Generates the next program, handing back the previous (fully
    /// executed) one so the generator can recycle its storage. The default
    /// simply drops `spent`; allocation-conscious generators dismantle it
    /// into a [`ProgramPool`] and build the new program from the parts.
    fn next_txn_reusing(&mut self, rng: &mut SimRng, spent: TxnProgram) -> TxnProgram {
        drop(spent);
        self.next_txn(rng)
    }
}

/// Recycled storage for transaction-program parts.
///
/// The OLTP hot loop retires a whole [`TxnProgram`] per transaction — an
/// op vector holding keys, mutation lists and row images — and
/// immediately builds the next one. [`ProgramPool::reclaim`] dismantles a
/// spent program into per-kind free lists, and the builder helpers
/// ([`ProgramPool::key1`], [`ProgramPool::values`], ...) reissue the
/// buffers, so a generator that routes its allocations through the pool
/// reaches a steady state where transaction generation touches the heap
/// allocator not at all.
///
/// Pools are bounded; overflow is simply dropped, so a pathological
/// program mix degrades to plain allocation rather than hoarding memory.
#[derive(Debug, Default)]
pub struct ProgramPool {
    ops: Vec<Vec<TxOp>>,
    values: Vec<Vec<Value>>,
    muts: Vec<Vec<Mutation>>,
}

/// Free-list bounds: `ops` is one-per-program; the others are per-op.
const POOL_OPS_CAP: usize = 8;
const POOL_PARTS_CAP: usize = 256;

impl ProgramPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ProgramPool::default()
    }

    /// Dismantles a spent program into the pool's free lists.
    pub fn reclaim(&mut self, prog: TxnProgram) {
        let mut ops = prog.ops;
        for op in ops.drain(..) {
            match op {
                TxOp::Read { key, .. } | TxOp::Delete { key, .. } => self.reclaim_key(key),
                TxOp::ReadRange { lo, hi, .. } => {
                    self.reclaim_key(lo);
                    self.reclaim_key(hi);
                }
                TxOp::Update { key, muts, .. } => {
                    self.reclaim_key(key);
                    self.reclaim_muts(muts);
                }
                TxOp::Insert { row, .. } => self.reclaim_values(row),
                TxOp::Compute { .. } => {}
            }
        }
        if ops.capacity() > 0 && self.ops.len() < POOL_OPS_CAP {
            self.ops.push(ops);
        }
    }

    fn reclaim_key(&mut self, key: Key) {
        self.reclaim_values(key.into_values());
    }

    fn reclaim_values(&mut self, mut values: Vec<Value>) {
        values.clear();
        if values.capacity() > 0 && self.values.len() < POOL_PARTS_CAP {
            self.values.push(values);
        }
    }

    /// Returns a mutation list to the pool (e.g. from a dismantled op).
    pub fn reclaim_muts(&mut self, mut muts: Vec<Mutation>) {
        muts.clear();
        if muts.capacity() > 0 && self.muts.len() < POOL_PARTS_CAP {
            self.muts.push(muts);
        }
    }

    /// An empty op vector for a program body.
    pub fn ops(&mut self) -> Vec<TxOp> {
        self.ops.pop().unwrap_or_default()
    }

    /// An empty value vector (row image or key storage).
    pub fn values(&mut self) -> Vec<Value> {
        self.values.pop().unwrap_or_default()
    }

    /// An empty mutation list.
    pub fn muts(&mut self) -> Vec<Mutation> {
        self.muts.pop().unwrap_or_default()
    }

    /// A single-integer key.
    pub fn key1(&mut self, v: i64) -> Key {
        let mut values = self.values();
        values.push(Value::Int(v));
        Key::from_values(values)
    }

    /// A two-integer key.
    pub fn key2(&mut self, a: i64, b: i64) -> Key {
        let mut values = self.values();
        values.push(Value::Int(a));
        values.push(Value::Int(b));
        Key::from_values(values)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Resolve and lock the op's row.
    Lock,
    /// Acquire the page latch (writes); `row` is the modeled row chosen at
    /// lock time, reused for the page so latching, dirtying, and locking
    /// all target the same physical location.
    Latch { row: u64 },
    /// Buffer-pool page access; may need the free-list latch first.
    PageIo { row: u64 },
    /// Issue the device read for missed pages.
    ReadMissed { row: u64, miss_bytes: u64 },
    /// Main compute burst (probe + row work); logical effects applied when
    /// the burst is issued.
    Compute { row: u64 },
}

#[derive(Debug)]
enum ClientState {
    /// Generate the next transaction.
    Start,
    /// Executing op `op` of the current program.
    InTxn { op: usize, phase: Phase },
    /// Commit-time CPU work (session/commit processing).
    CommitWork,
    /// Log flush issued; wait for durability.
    CommitFlush,
    /// Waiting for the log-buffer latch.
    CommitLatch,
    /// Post-commit think time.
    Think,
    /// Aborted under fault injection; backing off before re-running the
    /// same program under a fresh transaction id.
    RetryBackoff,
    /// The commit log write failed; backing off before reissuing it.
    CommitFlushRetry,
}

/// A simulated OLTP client connection: runs transactions from its
/// generator forever (the experiment decides when to stop the clock).
pub struct TxnClientTask {
    db: Rc<RefCell<Database>>,
    metrics: Rc<RefCell<RunMetrics>>,
    generator: Box<dyn TxnGenerator>,
    think: SimDuration,
    state: ClientState,
    program: Option<TxnProgram>,
    txn: Option<TxnId>,
    started: SimTime,
    label: String,
    /// Abort/retry budget per transaction (0 disables fault recovery).
    txn_retry_attempts: u32,
    /// Aborts already spent on the current program.
    txn_attempt: u32,
    /// Reissues already spent on the current commit flush.
    flush_attempt: u32,
    /// Bytes of the in-flight commit flush, kept for reissue.
    commit_bytes: u64,
    /// Whether the in-flight commit flush has been acknowledged durable
    /// (crash-consistency mode; guards latch-retry re-entry).
    flush_acked: bool,
}

impl fmt::Debug for TxnClientTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnClientTask")
            .field("label", &self.label)
            .field("state", &self.state)
            .finish()
    }
}

impl TxnClientTask {
    /// Creates a client.
    pub fn new(
        db: Rc<RefCell<Database>>,
        metrics: Rc<RefCell<RunMetrics>>,
        generator: Box<dyn TxnGenerator>,
        think: SimDuration,
        label: impl Into<String>,
    ) -> Self {
        TxnClientTask {
            db,
            metrics,
            generator,
            think,
            state: ClientState::Start,
            program: None,
            txn: None,
            started: SimTime::ZERO,
            label: label.into(),
            txn_retry_attempts: 0,
            txn_attempt: 0,
            flush_attempt: 0,
            commit_bytes: 0,
            flush_acked: false,
        }
    }

    /// Enables graceful degradation under fault injection: transactions hit
    /// by injected I/O errors (or victimized by the lock monitor) abort and
    /// re-run under jittered backoff, up to `attempts` times before the
    /// client gives the transaction up.
    pub fn with_fault_recovery(mut self, attempts: u32) -> Self {
        self.txn_retry_attempts = attempts;
        self
    }

    /// Resolves the row id an op refers to (logical lookup, free).
    fn resolve(&self, table: TableId, index: usize, key: &Key) -> Option<RowId> {
        let db = self.db.borrow();
        let rid = db.table(table).indexes[index].btree.get(key).next();
        rid
    }

    /// Lock resource for a row per its [`LockSpec`].
    fn lock_row(&self, table: TableId, rid: RowId, lock: LockSpec, rng: &mut SimRng) -> u64 {
        let db = self.db.borrow();
        // Crash-consistency mode needs writers serialized per *physical*
        // row: diffuse keys let two clients update the same row under
        // different lock resources, and resource keys distinguish modeled
        // rows that share one physical heap row (e.g. the one-row hot
        // tables), either of which would interleave before-image chains
        // and invalidate undo. Keying every lock by the physical row
        // restores strict 2PL at the grain recovery operates on.
        if db.crash_consistency() {
            return db.modeled_row(table, rid);
        }
        match lock {
            LockSpec::ExactRow => db.modeled_row(table, rid),
            LockSpec::Diffuse => {
                db.modeled_row(table, rid) + rng.next_below(db.row_scale.max(1.0) as u64)
            }
            LockSpec::Resource(id) => {
                id.min(db.table(table).layout.modeled_rows().saturating_sub(1))
            }
        }
    }

    /// Advances to the next op (or commit). `len` is the program's op
    /// count, passed explicitly because the program is moved out of `self`
    /// while an op executes.
    fn advance_with(&mut self, op: usize, len: usize) -> Step {
        if op + 1 < len {
            self.state = ClientState::InTxn {
                op: op + 1,
                phase: Phase::Lock,
            };
        } else {
            self.state = ClientState::CommitWork;
        }
        Step::Demand(Demand::Yield)
    }
}

impl SimTask for TxnClientTask {
    fn poll(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if self.txn_retry_attempts > 0 {
            // Victimized by the lock monitor while stalled: our locks are
            // already gone; abort and re-run.
            if let Some(txn) = self.txn {
                if self.db.borrow_mut().take_victim(txn) {
                    return self.abort_txn(ctx);
                }
            }
            if ctx.io_failed() {
                match self.state {
                    // The group-commit flush failed: retry just the write,
                    // still holding locks (the lock monitor may victimize
                    // us if waiters pile up behind them).
                    ClientState::CommitLatch => return self.retry_commit_flush(ctx),
                    // Mid-transaction page read failed: abort and re-run.
                    ClientState::InTxn { .. } => return self.abort_txn(ctx),
                    _ => {}
                }
            }
        }
        loop {
            match self.state {
                ClientState::Start => {
                    // Hand the previous program's storage back to the
                    // generator for recycling before drawing the next one.
                    let program = match self.program.take() {
                        Some(spent) => self.generator.next_txn_reusing(ctx.rng(), spent),
                        None => self.generator.next_txn(ctx.rng()),
                    };
                    let txn = {
                        let mut db = self.db.borrow_mut();
                        let txn = db.begin_txn();
                        if db.crash_consistency() {
                            db.begin_txn_logged(txn);
                        }
                        txn
                    };
                    self.txn = Some(txn);
                    self.started = ctx.now();
                    self.txn_attempt = 0;
                    if program.ops.is_empty() {
                        self.program = Some(program);
                        self.state = ClientState::CommitWork;
                        continue;
                    }
                    self.program = Some(program);
                    self.state = ClientState::InTxn {
                        op: 0,
                        phase: Phase::Lock,
                    };
                }
                ClientState::InTxn { op, phase } => {
                    return self.exec_op(op, phase, ctx);
                }
                ClientState::CommitWork => {
                    let instructions = self.db.borrow().cost.txn_overhead;
                    self.state = ClientState::CommitFlush;
                    return Step::Demand(Demand::Compute {
                        instructions,
                        mem: MemProfile::new(),
                    });
                }
                ClientState::CommitFlush => {
                    let bytes = {
                        let mut db = self.db.borrow_mut();
                        if db.crash_consistency() {
                            if let Some(txn) = self.txn {
                                db.commit_txn_logged(txn);
                            }
                        }
                        db.wal.flush_for_commit()
                    };
                    self.commit_bytes = bytes;
                    self.flush_acked = false;
                    self.state = ClientState::CommitLatch;
                    return Step::Demand(Demand::DeviceWrite {
                        bytes,
                        class: WaitClass::WriteLog,
                    });
                }
                ClientState::CommitLatch => {
                    // The device write completed: the flushed log range is
                    // durable (only acknowledged once — this arm re-enters
                    // on latch conflicts).
                    if !self.flush_acked {
                        let mut db = self.db.borrow_mut();
                        if db.crash_consistency() {
                            db.wal.flush_durable();
                        }
                        self.flush_acked = true;
                    }
                    let now = ctx.now();
                    let (latch, hold_ns) = {
                        let db = self.db.borrow();
                        (
                            LatchKey::Internal(LOG_BUFFER_LATCH),
                            db.cost.internal_latch_ns,
                        )
                    };
                    let res = self.db.borrow_mut().latches.acquire(
                        latch,
                        now,
                        SimDuration::from_nanos(hold_ns),
                    );
                    if let Err(until) = res {
                        return Step::Demand(Demand::Sleep {
                            dur: until.saturating_since(now),
                            class: WaitClass::Latch,
                        });
                    }
                    // Release locks and credit the commit.
                    if let Some(txn) = self.txn.take() {
                        let woken = {
                            let mut db = self.db.borrow_mut();
                            if self.flush_attempt > 0 {
                                db.clear_stalled(txn);
                            }
                            db.locks.release_all(txn)
                        };
                        for t in woken {
                            ctx.wake(t);
                        }
                    }
                    self.flush_attempt = 0;
                    self.commit_bytes = 0;
                    let name = self.program.as_ref().map_or("txn", |p| p.name);
                    self.metrics
                        .borrow_mut()
                        .record_txn(name, ctx.now().saturating_since(self.started));
                    self.state = ClientState::Think;
                    if self.think > SimDuration::ZERO {
                        return Step::Demand(Demand::Sleep {
                            dur: self.think,
                            class: WaitClass::Think,
                        });
                    }
                }
                ClientState::Think => {
                    self.state = ClientState::Start;
                }
                ClientState::RetryBackoff => {
                    // Backoff elapsed: re-run the same program under a
                    // fresh transaction id. `started` is kept so the
                    // latency sample covers the aborted attempts too.
                    let txn = {
                        let mut db = self.db.borrow_mut();
                        let txn = db.begin_txn();
                        if db.crash_consistency() {
                            db.begin_txn_logged(txn);
                        }
                        txn
                    };
                    self.txn = Some(txn);
                    let len = self.program.as_ref().map_or(0, |p| p.ops.len());
                    self.state = if len == 0 {
                        ClientState::CommitWork
                    } else {
                        ClientState::InTxn {
                            op: 0,
                            phase: Phase::Lock,
                        }
                    };
                }
                ClientState::CommitFlushRetry => {
                    // Backoff elapsed: reissue the commit log write.
                    self.state = ClientState::CommitLatch;
                    return Step::Demand(Demand::DeviceWrite {
                        bytes: self.commit_bytes.max(512),
                        class: WaitClass::WriteLog,
                    });
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

impl TxnClientTask {
    /// Aborts the current transaction (releasing everything it holds or
    /// waits for) and either schedules a jittered-backoff re-run or — once
    /// the retry budget is spent — gives the transaction up.
    fn abort_txn(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        if let Some(txn) = self.txn.take() {
            let woken = {
                let mut db = self.db.borrow_mut();
                if db.crash_consistency() {
                    // Reverse the transaction's effects (CLRs + Abort) while
                    // still holding its locks.
                    db.rollback_txn(txn);
                }
                db.clear_stalled(txn);
                let mut w = db.locks.cancel_wait(txn, ctx.self_id());
                w.extend(db.locks.release_all(txn));
                w
            };
            for t in woken {
                ctx.wake(t);
            }
        }
        self.flush_attempt = 0;
        self.commit_bytes = 0;
        self.txn_attempt += 1;
        if self.txn_attempt > self.txn_retry_attempts {
            self.metrics.borrow_mut().record_gave_up();
            self.txn_attempt = 0;
            self.program = None;
            self.state = ClientState::Think;
            if self.think > SimDuration::ZERO {
                return Step::Demand(Demand::Sleep {
                    dur: self.think,
                    class: WaitClass::Think,
                });
            }
            return Step::Demand(Demand::Yield);
        }
        self.metrics.borrow_mut().record_retry();
        self.state = ClientState::RetryBackoff;
        // Jittered capped exponential backoff. The extra RNG draw happens
        // only on this fault path, so healthy runs see an untouched stream.
        let base_us = 200u64 << (self.txn_attempt - 1).min(6);
        let jitter_us = ctx.rng().next_below(base_us.max(1));
        Step::Demand(Demand::Sleep {
            dur: SimDuration::from_micros(base_us + jitter_us),
            class: WaitClass::Lock,
        })
    }

    /// Handles a failed commit log write: back off and reissue it, marking
    /// the transaction as stalled so the lock monitor can victimize it if
    /// waiters pile up behind its locks.
    fn retry_commit_flush(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        self.flush_attempt += 1;
        if self.flush_attempt > self.txn_retry_attempts {
            self.flush_attempt = 0;
            return self.abort_txn(ctx);
        }
        if let Some(txn) = self.txn {
            self.db.borrow_mut().mark_stalled(txn);
        }
        self.metrics.borrow_mut().record_retry();
        self.state = ClientState::CommitFlushRetry;
        let base_us = 100u64 << (self.flush_attempt - 1).min(6);
        let jitter_us = ctx.rng().next_below(base_us.max(1));
        Step::Demand(Demand::Sleep {
            dur: SimDuration::from_micros(base_us + jitter_us),
            class: WaitClass::WriteLog,
        })
    }

    fn exec_op(&mut self, op: usize, phase: Phase, ctx: &mut TaskCtx<'_>) -> Step {
        // Move the program out of `self` for the duration of the op so its
        // spec can be *borrowed* instead of deep-cloned on every phase poll
        // (the clone was the single largest allocation source in the OLTP
        // hot loop). The program is put back before returning — aborts
        // re-run the same program, so it must survive the op.
        let program = self.program.take().expect("in txn");
        let step = match program.ops.get(op).expect("op index valid") {
            TxOp::Compute { instructions } => {
                let instructions = *instructions;
                let _ = self.advance_with(op, program.ops.len());
                self.program = Some(program);
                return Step::Demand(Demand::Compute {
                    instructions,
                    mem: MemProfile::new(),
                });
            }
            TxOp::ReadRange {
                table,
                index,
                lo,
                hi,
                limit,
                model_rows,
            } => self.exec_read_range(
                op,
                phase,
                *table,
                *index,
                lo,
                hi,
                *limit,
                *model_rows,
                program.ops.len(),
                ctx,
            ),
            TxOp::Read {
                table,
                index,
                key,
                lock,
                for_update,
            } => {
                let kind = if *for_update {
                    RowOpKind::ReadForUpdate
                } else {
                    RowOpKind::Read
                };
                self.exec_rowop(
                    OpCtx {
                        op,
                        phase,
                        table: *table,
                        index: *index,
                        key: Some(key),
                        lock: *lock,
                        kind,
                        muts: &[],
                        insert_row: None,
                        ops_len: program.ops.len(),
                    },
                    ctx,
                )
            }
            TxOp::Update {
                table,
                index,
                key,
                muts,
                lock,
            } => self.exec_rowop(
                OpCtx {
                    op,
                    phase,
                    table: *table,
                    index: *index,
                    key: Some(key),
                    lock: *lock,
                    kind: RowOpKind::Update,
                    muts,
                    insert_row: None,
                    ops_len: program.ops.len(),
                },
                ctx,
            ),
            TxOp::Delete {
                table,
                index,
                key,
                lock,
            } => self.exec_rowop(
                OpCtx {
                    op,
                    phase,
                    table: *table,
                    index: *index,
                    key: Some(key),
                    lock: *lock,
                    kind: RowOpKind::Delete,
                    muts: &[],
                    insert_row: None,
                    ops_len: program.ops.len(),
                },
                ctx,
            ),
            TxOp::Insert { table, row } => self.exec_rowop(
                OpCtx {
                    op,
                    phase,
                    table: *table,
                    index: 0,
                    key: None,
                    lock: LockSpec::Diffuse,
                    kind: RowOpKind::Insert,
                    muts: &[],
                    insert_row: Some(row),
                    ops_len: program.ops.len(),
                },
                ctx,
            ),
        };
        self.program = Some(program);
        step
    }

    fn exec_rowop(&mut self, o: OpCtx<'_>, ctx: &mut TaskCtx<'_>) -> Step {
        let OpCtx {
            op,
            phase,
            table,
            index,
            key,
            lock,
            kind,
            muts,
            insert_row,
            ops_len,
        } = o;
        let is_write = !matches!(kind, RowOpKind::Read | RowOpKind::ReadForUpdate);
        match phase {
            Phase::Lock => {
                // Resolve the target row (inserts have none yet).
                let rid = match key {
                    Some(k) => match self.resolve(table, index, k) {
                        Some(r) => Some(r),
                        None => return self.advance_with(op, ops_len), // missing key: no-op
                    },
                    None => None,
                };
                if let Some(rid) = rid {
                    let row = self.lock_row(table, rid, lock, ctx.rng());
                    let table_u32 = self.db.borrow().table(table).id;
                    let mode = match kind {
                        RowOpKind::Read => LockMode::S,
                        RowOpKind::ReadForUpdate => LockMode::U,
                        _ => LockMode::X,
                    };
                    let txn = self.txn.expect("txn open");
                    let req = self.db.borrow_mut().locks.acquire(
                        txn,
                        ctx.self_id(),
                        LockKey {
                            table: table_u32,
                            row,
                        },
                        mode,
                    );
                    let next_phase = if is_write {
                        Phase::Latch { row }
                    } else {
                        Phase::PageIo { row }
                    };
                    self.state = ClientState::InTxn {
                        op,
                        phase: next_phase,
                    };
                    if req == LockReq::Wait {
                        // Re-enter at the next phase once the releaser hands
                        // us the lock.
                        return Step::Demand(Demand::Block {
                            class: WaitClass::Lock,
                        });
                    }
                    return Step::Demand(Demand::Yield);
                }
                // Insert path: no pre-existing row to lock; it lands on the
                // table's tail.
                let row = {
                    let db = self.db.borrow();
                    db.table(table).layout.modeled_rows().saturating_sub(1)
                };
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::Latch { row },
                };
                Step::Demand(Demand::Yield)
            }
            Phase::Latch { row } => {
                let now = ctx.now();
                let (page, hold) = {
                    let db = self.db.borrow();
                    let t = db.table(table);
                    (
                        t.layout.page_of_row(row),
                        SimDuration::from_nanos(db.cost.page_latch_ns),
                    )
                };
                let res = self
                    .db
                    .borrow_mut()
                    .latches
                    .acquire(LatchKey::Page(page), now, hold);
                if let Err(until) = res {
                    return Step::Demand(Demand::Sleep {
                        dur: until.saturating_since(now),
                        class: WaitClass::PageLatch,
                    });
                }
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::PageIo { row },
                };
                Step::Demand(Demand::Yield)
            }
            Phase::PageIo { row } => {
                // Touch the index leaf and the row's data page.
                let (miss_bytes, dirty_bytes) = {
                    let mut db = self.db.borrow_mut();
                    let t = db.table(table);
                    let frac = row as f64 / t.layout.modeled_rows().max(1) as f64;
                    let leaf_page = t
                        .indexes
                        .get(index)
                        .or_else(|| t.indexes.first())
                        .map(|i| i.layout.leaf_page_of_fraction(frac.clamp(0.0, 1.0)))
                        .unwrap_or_else(|| t.layout.start_page());
                    let data_page = t.layout.page_of_row(row);
                    let a = db.bufferpool.access(leaf_page, 1, false);
                    let b = db.bufferpool.access(data_page, 1, is_write);
                    if is_write {
                        db.mark_dirty(data_page);
                    }
                    (
                        (a.miss_pages + b.miss_pages) * PAGE_BYTES,
                        (a.evicted_dirty_pages + b.evicted_dirty_pages) * PAGE_BYTES,
                    )
                };
                if dirty_bytes > 0 {
                    self.state = ClientState::InTxn {
                        op,
                        phase: Phase::ReadMissed { row, miss_bytes },
                    };
                    return Step::Demand(Demand::DeviceWriteAsync { bytes: dirty_bytes });
                }
                if miss_bytes > 0 {
                    // Page miss: the I/O path takes the buffer free-list
                    // latch, then reads.
                    let now = ctx.now();
                    let hold = SimDuration::from_nanos(self.db.borrow().cost.internal_latch_ns);
                    let res = self.db.borrow_mut().latches.acquire(
                        LatchKey::Internal(FREELIST_LATCH),
                        now,
                        hold,
                    );
                    if let Err(until) = res {
                        self.state = ClientState::InTxn {
                            op,
                            phase: Phase::ReadMissed { row, miss_bytes },
                        };
                        return Step::Demand(Demand::Sleep {
                            dur: until.saturating_since(now),
                            class: WaitClass::Latch,
                        });
                    }
                    self.state = ClientState::InTxn {
                        op,
                        phase: Phase::Compute { row },
                    };
                    return Step::Demand(Demand::DeviceRead {
                        bytes: miss_bytes,
                        class: WaitClass::PageIoLatch,
                    });
                }
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::Compute { row },
                };
                Step::Demand(Demand::Yield)
            }
            Phase::ReadMissed { row, miss_bytes } => {
                if miss_bytes > 0 {
                    self.state = ClientState::InTxn {
                        op,
                        phase: Phase::Compute { row },
                    };
                    return Step::Demand(Demand::DeviceRead {
                        bytes: miss_bytes,
                        class: WaitClass::PageIoLatch,
                    });
                }
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::Compute { row },
                };
                Step::Demand(Demand::Yield)
            }
            Phase::Compute { .. } => {
                // Apply the logical effect and charge the CPU work.
                let (instructions, mem) = {
                    let mut db = self.db.borrow_mut();
                    let mut mem = ctx.take_profile();
                    // Shared session state / plan cache / metadata.
                    mem.random(
                        db.session_region(),
                        db.cost.session_footprint_bytes,
                        db.cost.session_accesses_per_stmt,
                    );
                    let t = db.table(table);
                    let idx = &t.indexes[index.min(t.indexes.len().saturating_sub(1))];
                    idx.layout.probe_mem(&mut mem, 1);
                    // The row's cache lines.
                    let row_lines = (t.heap.schema().avg_row_bytes() / 64).max(1);
                    t.layout.random_rows_mem(&mut mem, row_lines);
                    let levels = idx.layout.levels() as u64;
                    let n_indexes = t.indexes.len() as u64;
                    let cost = db.cost.clone();
                    let mut instructions =
                        cost.stmt_overhead + levels * cost.btree_level + cost.scan_row;
                    // In crash-consistency mode the logged variants write
                    // the typed WAL record themselves (with the same
                    // modeled byte count); otherwise the plain append below
                    // keeps the byte accounting identical.
                    let capture = db.crash_consistency();
                    let mut logged = false;
                    match kind {
                        RowOpKind::Read | RowOpKind::ReadForUpdate => {}
                        RowOpKind::Update => {
                            instructions += cost.dml_row;
                            if let Some(k) = key {
                                let rid = db.table(table).indexes[index].btree.get(k).next();
                                if let Some(rid) = rid {
                                    let apply = |r: &mut Row| {
                                        for m in muts {
                                            m.apply(r);
                                        }
                                    };
                                    if capture {
                                        let txn = self.txn.expect("txn open");
                                        db.update_row_logged(txn, table, rid, apply);
                                        logged = true;
                                    } else {
                                        db.update_row(table, rid, apply);
                                    }
                                }
                            }
                            if !logged {
                                db.wal.append(cost.log_bytes_per_row);
                            }
                        }
                        RowOpKind::Delete => {
                            instructions += cost.dml_row * (1 + n_indexes);
                            if let Some(k) = key {
                                let rid = db.table(table).indexes[index].btree.get(k).next();
                                if let Some(rid) = rid {
                                    if capture {
                                        let txn = self.txn.expect("txn open");
                                        db.delete_row_logged(txn, table, rid);
                                        logged = true;
                                    } else {
                                        db.delete_row(table, rid);
                                    }
                                }
                            }
                            if !logged {
                                db.wal.append(cost.log_bytes_per_row);
                            }
                        }
                        RowOpKind::Insert => {
                            instructions += cost.dml_row * (1 + n_indexes);
                            if let Some(row) = insert_row {
                                // The program survives for abort re-runs, so
                                // the stored row is cloned once here — at the
                                // actual insertion — instead of on every
                                // phase poll.
                                if capture {
                                    let txn = self.txn.expect("txn open");
                                    db.insert_row_logged(txn, table, row.clone());
                                    logged = true;
                                } else {
                                    db.insert_row(table, row.clone());
                                }
                            }
                            if !logged {
                                db.wal.append(cost.log_bytes_per_row);
                            }
                        }
                    }
                    (instructions, mem)
                };
                let _ = self.advance_with(op, ops_len);
                Step::Demand(Demand::Compute { instructions, mem })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_read_range(
        &mut self,
        op: usize,
        phase: Phase,
        table: TableId,
        index: usize,
        lo: &Key,
        hi: &Key,
        limit: usize,
        model_rows: u64,
        ops_len: usize,
        ctx: &mut TaskCtx<'_>,
    ) -> Step {
        match phase {
            Phase::Lock => {
                // Range reads take no row locks; go straight to I/O.
                let (miss_bytes, rows) = {
                    let mut db = self.db.borrow_mut();
                    let t = db.table(table);
                    let idx = &t.indexes[index];
                    let mut rows = 0usize;
                    let mut first: Option<RowId> = None;
                    for (_, rid) in idx.btree.range(lo, hi).take(limit) {
                        if first.is_none() {
                            first = Some(rid);
                        }
                        rows += 1;
                    }
                    let total = idx.btree.len().max(1);
                    let frac = (rows as f64 / total as f64).clamp(0.0, 1.0);
                    let start_frac = first
                        .map(|r| (r.0 as f64 / t.heap.slot_count().max(1) as f64).clamp(0.0, 1.0))
                        .unwrap_or(0.0);
                    let (lstart, lpages) = idx.layout.leaf_scan_run(start_frac, frac.max(1e-9));
                    let a = db.bufferpool.access(lstart, lpages.max(1), false);
                    (a.miss_pages * PAGE_BYTES, rows)
                };
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::Compute { row: 0 },
                };
                if miss_bytes > 0 {
                    // Stash the row count via a compute right after the
                    // read; approximate by folding row work into Compute
                    // phase below using the same logic (re-resolved).
                    let _ = rows;
                    return Step::Demand(Demand::DeviceRead {
                        bytes: miss_bytes,
                        class: WaitClass::PageIoLatch,
                    });
                }
                Step::Demand(Demand::Yield)
            }
            Phase::Compute { .. } => {
                let (instructions, mem) = {
                    let db = self.db.borrow();
                    let t = db.table(table);
                    let idx = &t.indexes[index];
                    let mut mem = ctx.take_profile();
                    mem.random(
                        db.session_region(),
                        db.cost.session_footprint_bytes,
                        db.cost.session_accesses_per_stmt,
                    );
                    idx.layout.probe_mem(&mut mem, 1);
                    t.layout.random_rows_mem(&mut mem, model_rows.min(256));
                    (
                        db.cost.stmt_overhead
                            + idx.layout.levels() as u64 * db.cost.btree_level
                            + model_rows * db.cost.scan_row,
                        mem,
                    )
                };
                let _ = self.advance_with(op, ops_len);
                Step::Demand(Demand::Compute { instructions, mem })
            }
            _ => {
                // Other phases are unreachable for range reads.
                self.state = ClientState::InTxn {
                    op,
                    phase: Phase::Compute { row: 0 },
                };
                Step::Demand(Demand::Yield)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOpKind {
    Read,
    ReadForUpdate,
    Update,
    Delete,
    Insert,
}

/// Per-op execution context: the op's spec fields, borrowed from the
/// program (which is moved out of `self` while the op executes) so no
/// phase poll ever clones the spec.
struct OpCtx<'a> {
    op: usize,
    phase: Phase,
    table: TableId,
    index: usize,
    key: Option<&'a Key>,
    lock: LockSpec,
    kind: RowOpKind,
    muts: &'a [Mutation],
    insert_row: Option<&'a Row>,
    ops_len: usize,
}
