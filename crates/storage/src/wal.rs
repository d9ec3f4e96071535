//! Write-ahead log with group commit and an optional logical record log.
//!
//! Transactions append log records to an in-memory log buffer; a commit
//! hardens everything appended since the last flush in one sequential device
//! write (group commit). The WAL itself only does the bookkeeping — the
//! committing task issues the actual `DeviceWrite` demand with the byte
//! count this module reports, which is what makes transactional workloads
//! sensitive to write-bandwidth limits (paper §6).
//!
//! ## Logical capture (crash-consistency mode)
//!
//! When [`Wal::enable_capture`] is set, appends additionally serialize typed
//! [`WalRecord`]s into an in-memory *log image*: a byte stream of
//! LSN-stamped, checksum-chained, sector-framed records. The image models
//! exactly what would sit on the log device:
//!
//! - [`Wal::flush_for_commit`] closes the pending region of the image into a
//!   sector-padded *flush range* and marks it submitted (in flight).
//! - [`Wal::flush_durable`] (called when the device write completes) marks
//!   the oldest in-flight range durable; the log device is FIFO, so ranges
//!   become durable in submission order.
//! - [`Wal::crash_image`] renders what survives a crash: all durable bytes,
//!   plus a caller-chosen prefix of the sectors of the oldest in-flight
//!   flush (a torn tail write); later in-flight ranges and never-flushed
//!   bytes are lost.
//!
//! [`scan_log`] walks an image, validating the checksum chain, and stops at
//! the first torn or corrupt frame — recovery sees exactly the records that
//! made it to stable storage.
//!
//! Capture is off by default and costs nothing when disabled, so healthy
//! (non-crash) experiments are bit-for-bit unaffected.

use crate::value::{Row, Value};
use std::collections::VecDeque;

/// Log sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Device sector size log writes are rounded up to.
pub const SECTOR: u64 = 512;

/// Frame magic marking the start of a serialized record.
const FRAME_MAGIC: u16 = 0xD857;
/// Fixed frame header size: magic (2) + payload len (4) + lsn (8) + chain (8).
const FRAME_HEADER: usize = 2 + 4 + 8 + 8;
/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A typed logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// Row insert (redo: insert `row` at `rid`).
    Insert {
        /// Transaction id.
        txn: u64,
        /// Table id.
        table: u32,
        /// Row id the insert landed on.
        rid: u64,
        /// The inserted row.
        row: Row,
    },
    /// Row update with full before and after images.
    Update {
        /// Transaction id.
        txn: u64,
        /// Table id.
        table: u32,
        /// Row id.
        rid: u64,
        /// Row image before the update (undo).
        before: Row,
        /// Row image after the update (redo).
        after: Row,
    },
    /// Row delete (undo: reinsert `row` at `rid`).
    Delete {
        /// Transaction id.
        txn: u64,
        /// Table id.
        table: u32,
        /// Row id.
        rid: u64,
        /// The deleted row.
        row: Row,
    },
    /// Transaction commit; durable once its flush completes.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction fully rolled back (written after all its CLRs).
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Compensation log record: the redo-form of one undone operation.
    Clr {
        /// Transaction being rolled back.
        txn: u64,
        /// LSN of the operation this CLR compensates.
        undo_of: u64,
        /// Table id.
        table: u32,
        /// Row id.
        rid: u64,
        /// The state-restoring action (re-applied on recovery redo).
        action: ClrAction,
    },
    /// Fuzzy checkpoint: the active-transaction table and dirty page table
    /// (page → recLSN) at checkpoint time.
    Checkpoint {
        /// Transactions active at the checkpoint.
        active_txns: Vec<u64>,
        /// Dirty pages and the LSN that first dirtied each.
        dirty_pages: Vec<(u64, u64)>,
    },
    /// Participant vote in two-phase commit: force-logged before the YES
    /// vote leaves the node. A transaction whose last disposition record is
    /// a `Prepare` is *in doubt* after a crash — recovery keeps its effects
    /// and asks `coordinator` for the outcome (presumed abort: no durable
    /// decision there means abort).
    Prepare {
        /// Transaction id (globally unique across the cluster).
        txn: u64,
        /// Node id of the coordinator to consult for in-doubt resolution.
        coordinator: u32,
    },
    /// Coordinator commit decision: force-logged before any COMMIT message
    /// is sent. Its presence makes the global commit durable; its absence
    /// (presumed abort) means the transaction aborted.
    CoordCommit {
        /// Transaction id.
        txn: u64,
        /// Participant node ids that voted and must learn the outcome.
        participants: Vec<u32>,
    },
    /// Coordinator forget record: all participants acknowledged the
    /// decision, so the coordinator may drop the transaction from its
    /// in-memory outcome table. Lazily written; never forced.
    CoordEnd {
        /// Transaction id.
        txn: u64,
    },
}

/// The redo-side action of a compensation record.
#[derive(Debug, Clone, PartialEq)]
pub enum ClrAction {
    /// Undo of an insert: remove the row.
    Remove,
    /// Undo of a delete: reinsert the row at its original id.
    Reinsert {
        /// The row to restore.
        row: Row,
    },
    /// Undo of an update: restore the before image.
    SetTo {
        /// The before image to restore.
        row: Row,
    },
}

impl WalRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Commit { txn }
            | WalRecord::Abort { txn }
            | WalRecord::Clr { txn, .. }
            | WalRecord::Prepare { txn, .. }
            | WalRecord::CoordCommit { txn, .. }
            | WalRecord::CoordEnd { txn } => Some(*txn),
            WalRecord::Checkpoint { .. } => None,
        }
    }
}

/// The write-ahead log.
///
/// # Examples
///
/// ```
/// use dbsens_storage::wal::Wal;
///
/// let mut wal = Wal::new();
/// wal.append(200);
/// wal.append(300);
/// assert_eq!(wal.flush_for_commit(), 512); // rounded to sectors
/// assert_eq!(wal.flush_for_commit(), 512); // empty flush still writes one sector
/// ```
#[derive(Debug, Clone, Default)]
pub struct Wal {
    next_lsn: u64,
    pending_bytes: u64,
    flushed_bytes: u64,
    flushes: u64,
    appends: u64,
    // Logical capture state; all empty/zero unless capture is enabled.
    capture: bool,
    image: Vec<u8>,
    chain: u64,
    /// Image bytes covered by a submitted (or completed) flush.
    submitted: usize,
    /// Submitted flush ranges not yet durable, oldest first, with the
    /// highest LSN each hardens.
    inflight: VecDeque<(usize, usize, u64)>,
    /// Durable image prefix length.
    durable: usize,
    /// Highest LSN known durable.
    durable_lsn: u64,
    /// Highest LSN submitted for flush (covers in-flight ranges).
    submitted_lsn: u64,
    /// Reusable record-encoding buffer for [`Wal::append_record`]; always
    /// left empty-capacity-retained between appends.
    encode_scratch: Vec<u8>,
}

impl Wal {
    /// Creates an empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Rebuilds a log from a durable image (recovery): the image's records
    /// become the history, capture stays on, and everything present is
    /// already durable.
    pub fn from_image(image: Vec<u8>) -> Self {
        let scan = scan_log(&image);
        Wal::from_scanned(image, &scan)
    }

    /// [`Wal::from_image`] for a caller that already holds `scan =
    /// scan_log(&image)`: the image is truncated to the scan's valid
    /// prefix (keeping its capacity) and never decoded again.
    pub fn from_scanned(mut image: Vec<u8>, scan: &LogScan) -> Self {
        image.truncate(scan.valid_bytes);
        let next_lsn = scan.records.last().map_or(0, |(lsn, _)| lsn.0);
        let len = image.len();
        Wal {
            next_lsn,
            capture: true,
            chain: scan.end_chain,
            submitted: len,
            durable: len,
            durable_lsn: next_lsn,
            submitted_lsn: next_lsn,
            image,
            ..Wal::default()
        }
    }

    /// Turns on logical record capture (crash-consistency mode).
    pub fn enable_capture(&mut self) {
        self.capture = true;
    }

    /// Whether logical record capture is on.
    pub fn capture_enabled(&self) -> bool {
        self.capture
    }

    /// Appends a record of `bytes`; returns its LSN. The record is not
    /// durable until a subsequent [`Wal::flush_for_commit`].
    pub fn append(&mut self, bytes: u64) -> Lsn {
        self.next_lsn += 1;
        self.pending_bytes += bytes;
        self.appends += 1;
        Lsn(self.next_lsn)
    }

    /// Appends a typed record, with `modeled_bytes` of modeled log traffic
    /// (same accounting as [`Wal::append`]). Requires capture.
    ///
    /// # Panics
    ///
    /// Panics if capture is not enabled.
    pub fn append_record(&mut self, rec: &WalRecord, modeled_bytes: u64) -> Lsn {
        assert!(self.capture, "append_record requires capture mode");
        let lsn = self.append(modeled_bytes);
        let mut payload = std::mem::take(&mut self.encode_scratch);
        encode_record_into(rec, &mut payload);
        self.chain = chain_checksum(self.chain, lsn.0, &payload);
        self.image.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        self.image
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.image.extend_from_slice(&lsn.0.to_le_bytes());
        self.image.extend_from_slice(&self.chain.to_le_bytes());
        self.image.extend_from_slice(&payload);
        self.encode_scratch = payload;
        lsn
    }

    /// Hardens all pending records; returns the bytes the committing task
    /// must write to the device (sector-aligned, minimum one sector — an
    /// empty transaction still writes its commit record).
    pub fn flush_for_commit(&mut self) -> u64 {
        let bytes = self.pending_bytes.div_ceil(SECTOR).max(1) * SECTOR;
        self.pending_bytes = 0;
        self.flushed_bytes += bytes;
        self.flushes += 1;
        if self.capture {
            // Close the pending image region into a sector-padded flush
            // range and mark it in flight.
            let pad = (SECTOR as usize - self.image.len() % SECTOR as usize) % SECTOR as usize;
            self.image.extend(std::iter::repeat_n(0u8, pad));
            let start = self.submitted;
            let end = self.image.len();
            self.submitted = end;
            self.submitted_lsn = self.next_lsn;
            self.inflight.push_back((start, end, self.next_lsn));
        }
        bytes
    }

    /// Marks the oldest in-flight flush durable (its device write
    /// completed). No-op without capture or in-flight flushes.
    pub fn flush_durable(&mut self) {
        if let Some((_, end, lsn)) = self.inflight.pop_front() {
            self.durable = self.durable.max(end);
            self.durable_lsn = self.durable_lsn.max(lsn);
        }
    }

    /// Marks everything appended so far durable (recovery writes its CLRs
    /// synchronously — there is no buffering to tear).
    pub fn force_durable(&mut self) {
        let pad = (SECTOR as usize - self.image.len() % SECTOR as usize) % SECTOR as usize;
        self.image.extend(std::iter::repeat_n(0u8, pad));
        self.inflight.clear();
        self.submitted = self.image.len();
        self.durable = self.image.len();
        self.durable_lsn = self.next_lsn;
        self.submitted_lsn = self.next_lsn;
    }

    /// Highest LSN whose flush has completed (the WAL rule horizon: a page
    /// whose recLSN is above this must not be written back yet).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn)
    }

    /// The next LSN that will be assigned.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.next_lsn + 1)
    }

    /// Whether a submitted flush is still in flight.
    pub fn has_inflight_flush(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// The full serialized log image (durable + in flight + unflushed).
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Renders the log image that survives a crash at this instant: every
    /// durable byte, plus a torn tail of the oldest in-flight flush —
    /// `keep_sectors(n)` chooses how many of its `n` sectors persisted.
    /// Later in-flight flushes and unflushed bytes are lost.
    pub fn crash_image(&self, keep_sectors: impl FnOnce(u64) -> u64) -> Vec<u8> {
        self.image[..self.crash_cut(keep_sectors)].to_vec()
    }

    /// [`Wal::crash_image`] without the copy, for a log whose process has
    /// died: the image moves out, cut to the same length, and keeps its
    /// capacity so the recovered log can append without reallocating. The
    /// log is left with no bytes and nothing in flight; its counters and
    /// LSNs stay as they were, but it must not be appended to again.
    pub fn take_crash_image(&mut self, keep_sectors: impl FnOnce(u64) -> u64) -> Vec<u8> {
        let end = self.crash_cut(keep_sectors);
        let mut image = std::mem::take(&mut self.image);
        image.truncate(end);
        self.inflight.clear();
        self.submitted = 0;
        self.durable = 0;
        image
    }

    /// Length of the image prefix that survives a crash (see
    /// [`Wal::crash_image`]).
    fn crash_cut(&self, keep_sectors: impl FnOnce(u64) -> u64) -> usize {
        let mut end = self.durable;
        if let Some(&(start, range_end, _)) = self.inflight.front() {
            let start = start.max(self.durable);
            let sectors = ((range_end - start) as u64) / SECTOR;
            let kept = keep_sectors(sectors).min(sectors);
            end = start + (kept * SECTOR) as usize;
        }
        end.min(self.image.len())
    }

    /// Bytes appended but not yet flushed.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Total bytes flushed to the device.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Number of flushes (group commits).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Number of appended records.
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

/// Result of scanning a log image.
#[derive(Debug, Clone, Default)]
pub struct LogScan {
    /// Records recovered, in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Bytes of the image covered by valid frames (and padding).
    pub valid_bytes: usize,
    /// `true` if the scan stopped before the end of the image (torn tail or
    /// corruption).
    pub torn: bool,
    /// Checksum chain value after the last valid record.
    pub end_chain: u64,
}

/// Scans a log image, validating frame structure and the checksum chain.
/// Stops at the first torn or corrupt frame; everything before it is
/// returned. Zero-filled sector padding between flush ranges is skipped.
pub fn scan_log(image: &[u8]) -> LogScan {
    let mut out = LogScan::default();
    let mut pos = 0usize;
    let mut chain = 0u64;
    while pos < image.len() {
        // Sector padding: zero bytes up to the next sector boundary.
        if image[pos] == 0 {
            let boundary = ((pos / SECTOR as usize) + 1) * SECTOR as usize;
            let end = boundary.min(image.len());
            if image[pos..end].iter().all(|&b| b == 0) {
                pos = end;
                out.valid_bytes = pos;
                continue;
            }
            out.torn = true;
            break;
        }
        if pos + FRAME_HEADER > image.len() {
            out.torn = true;
            break;
        }
        let magic = u16::from_le_bytes([image[pos], image[pos + 1]]);
        if magic != FRAME_MAGIC {
            out.torn = true;
            break;
        }
        let len = u32::from_le_bytes(image[pos + 2..pos + 6].try_into().unwrap()) as usize;
        let lsn = u64::from_le_bytes(image[pos + 6..pos + 14].try_into().unwrap());
        let stored_chain = u64::from_le_bytes(image[pos + 14..pos + 22].try_into().unwrap());
        let payload_start = pos + FRAME_HEADER;
        let Some(payload_end) = payload_start.checked_add(len) else {
            out.torn = true;
            break;
        };
        if payload_end > image.len() {
            out.torn = true;
            break;
        }
        let payload = &image[payload_start..payload_end];
        let expect = chain_checksum(chain, lsn, payload);
        if expect != stored_chain {
            out.torn = true;
            break;
        }
        let Some(rec) = decode_record(payload) else {
            out.torn = true;
            break;
        };
        chain = expect;
        out.records.push((Lsn(lsn), rec));
        pos = payload_end;
        out.valid_bytes = pos;
        out.end_chain = chain;
    }
    out
}

/// FNV-1a over the previous chain value, the LSN, and the payload: each
/// record's checksum commits to the entire log prefix, so corruption
/// anywhere invalidates everything after it.
fn chain_checksum(prev: u64, lsn: u64, payload: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in prev.to_le_bytes().into_iter().chain(lsn.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for &b in payload {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

// --- record payload encoding ---------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for v in row {
        match v {
            Value::Int(x) => {
                out.push(0);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(2);
                put_u32(out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Null => out.push(3),
        }
    }
}

/// Encodes `rec` into a fresh buffer: the reference encoding. Equivalent
/// to [`encode_record_into`] on an empty buffer (a property test holds the
/// two to byte identity).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_record_into(rec, &mut out);
    out
}

/// Encodes `rec` into `out`, replacing its contents. [`Wal::append_record`]
/// funnels every record through one such buffer per log, so steady-state
/// encoding costs no allocations once the buffer has grown to the largest
/// record seen.
pub fn encode_record_into(rec: &WalRecord, out: &mut Vec<u8>) {
    out.clear();
    match rec {
        WalRecord::Begin { txn } => {
            out.push(0);
            put_u64(out, *txn);
        }
        WalRecord::Insert {
            txn,
            table,
            rid,
            row,
        } => {
            out.push(1);
            put_u64(out, *txn);
            put_u32(out, *table);
            put_u64(out, *rid);
            put_row(out, row);
        }
        WalRecord::Update {
            txn,
            table,
            rid,
            before,
            after,
        } => {
            out.push(2);
            put_u64(out, *txn);
            put_u32(out, *table);
            put_u64(out, *rid);
            put_row(out, before);
            put_row(out, after);
        }
        WalRecord::Delete {
            txn,
            table,
            rid,
            row,
        } => {
            out.push(3);
            put_u64(out, *txn);
            put_u32(out, *table);
            put_u64(out, *rid);
            put_row(out, row);
        }
        WalRecord::Commit { txn } => {
            out.push(4);
            put_u64(out, *txn);
        }
        WalRecord::Abort { txn } => {
            out.push(5);
            put_u64(out, *txn);
        }
        WalRecord::Clr {
            txn,
            undo_of,
            table,
            rid,
            action,
        } => {
            out.push(6);
            put_u64(out, *txn);
            put_u64(out, *undo_of);
            put_u32(out, *table);
            put_u64(out, *rid);
            match action {
                ClrAction::Remove => out.push(0),
                ClrAction::Reinsert { row } => {
                    out.push(1);
                    put_row(out, row);
                }
                ClrAction::SetTo { row } => {
                    out.push(2);
                    put_row(out, row);
                }
            }
        }
        WalRecord::Checkpoint {
            active_txns,
            dirty_pages,
        } => {
            out.push(7);
            put_u32(out, active_txns.len() as u32);
            for t in active_txns {
                put_u64(out, *t);
            }
            put_u32(out, dirty_pages.len() as u32);
            for (p, l) in dirty_pages {
                put_u64(out, *p);
                put_u64(out, *l);
            }
        }
        WalRecord::Prepare { txn, coordinator } => {
            out.push(8);
            put_u64(out, *txn);
            put_u32(out, *coordinator);
        }
        WalRecord::CoordCommit { txn, participants } => {
            out.push(9);
            put_u64(out, *txn);
            put_u32(out, participants.len() as u32);
            for p in participants {
                put_u32(out, *p);
            }
        }
        WalRecord::CoordEnd { txn } => {
            out.push(10);
            put_u64(out, *txn);
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return None;
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(match self.u8()? {
                0 => Value::Int(self.u64()? as i64),
                1 => Value::Float(f64::from_bits(self.u64()?)),
                2 => {
                    let len = self.u32()? as usize;
                    let b = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
                    self.pos += len;
                    Value::Str(std::str::from_utf8(b).ok()?.into())
                }
                3 => Value::Null,
                _ => return None,
            });
        }
        Some(row)
    }
}

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let rec = match c.u8()? {
        0 => WalRecord::Begin { txn: c.u64()? },
        1 => WalRecord::Insert {
            txn: c.u64()?,
            table: c.u32()?,
            rid: c.u64()?,
            row: c.row()?,
        },
        2 => WalRecord::Update {
            txn: c.u64()?,
            table: c.u32()?,
            rid: c.u64()?,
            before: c.row()?,
            after: c.row()?,
        },
        3 => WalRecord::Delete {
            txn: c.u64()?,
            table: c.u32()?,
            rid: c.u64()?,
            row: c.row()?,
        },
        4 => WalRecord::Commit { txn: c.u64()? },
        5 => WalRecord::Abort { txn: c.u64()? },
        6 => WalRecord::Clr {
            txn: c.u64()?,
            undo_of: c.u64()?,
            table: c.u32()?,
            rid: c.u64()?,
            action: match c.u8()? {
                0 => ClrAction::Remove,
                1 => ClrAction::Reinsert { row: c.row()? },
                2 => ClrAction::SetTo { row: c.row()? },
                _ => return None,
            },
        },
        7 => {
            let n = c.u32()? as usize;
            if n > payload.len() {
                return None;
            }
            let mut active_txns = Vec::with_capacity(n);
            for _ in 0..n {
                active_txns.push(c.u64()?);
            }
            let m = c.u32()? as usize;
            if m > payload.len() {
                return None;
            }
            let mut dirty_pages = Vec::with_capacity(m);
            for _ in 0..m {
                dirty_pages.push((c.u64()?, c.u64()?));
            }
            WalRecord::Checkpoint {
                active_txns,
                dirty_pages,
            }
        }
        8 => WalRecord::Prepare {
            txn: c.u64()?,
            coordinator: c.u32()?,
        },
        9 => {
            let txn = c.u64()?;
            let n = c.u32()? as usize;
            if n > payload.len() {
                return None;
            }
            let mut participants = Vec::with_capacity(n);
            for _ in 0..n {
                participants.push(c.u32()?);
            }
            WalRecord::CoordCommit { txn, participants }
        }
        10 => WalRecord::CoordEnd { txn: c.u64()? },
        _ => return None,
    };
    if c.pos != payload.len() {
        return None;
    }
    Some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_increase() {
        let mut w = Wal::new();
        let a = w.append(10);
        let b = w.append(10);
        assert!(b > a);
    }

    #[test]
    fn group_commit_batches_pending() {
        let mut w = Wal::new();
        w.append(100);
        w.append(100);
        w.append(100);
        let flushed = w.flush_for_commit();
        assert_eq!(flushed, 512);
        assert_eq!(w.pending_bytes(), 0);
        // A larger batch spans sectors.
        for _ in 0..10 {
            w.append(400);
        }
        assert_eq!(w.flush_for_commit(), 4096);
        assert_eq!(w.flushes(), 2);
    }

    #[test]
    fn interleaved_appends_and_flushes_account_exactly() {
        // Appends land between group commits; every flush hardens exactly
        // what was pending at that instant, and pending never leaks across.
        let mut w = Wal::new();
        w.append(300);
        assert_eq!(w.pending_bytes(), 300);
        w.append(300);
        assert_eq!(w.pending_bytes(), 600);
        assert_eq!(w.flush_for_commit(), 1024); // 600 -> two sectors
        assert_eq!(w.pending_bytes(), 0);
        // New appends after the flush start a fresh batch.
        w.append(10);
        assert_eq!(w.pending_bytes(), 10);
        let lsn_before = w.append(512);
        assert_eq!(w.pending_bytes(), 522);
        assert_eq!(w.flush_for_commit(), 1024); // 522 -> two sectors
                                                // LSNs keep increasing across flush boundaries.
        let lsn_after = w.append(1);
        assert!(lsn_after > lsn_before);
        assert_eq!(w.flush_for_commit(), 512);
        assert_eq!(w.flushed_bytes(), 1024 + 1024 + 512);
        assert_eq!(w.flushes(), 3);
        assert_eq!(w.appends(), 5);
    }

    #[test]
    fn empty_commit_still_writes_a_sector() {
        let mut w = Wal::new();
        assert_eq!(w.flush_for_commit(), SECTOR);
    }

    #[test]
    fn totals_accumulate() {
        let mut w = Wal::new();
        w.append(1000);
        w.flush_for_commit();
        w.append(1000);
        w.flush_for_commit();
        assert_eq!(w.flushed_bytes(), 2 * 1024);
        assert_eq!(w.appends(), 2);
    }

    #[test]
    fn capture_off_keeps_image_empty() {
        let mut w = Wal::new();
        w.append(100);
        w.flush_for_commit();
        assert!(w.image().is_empty());
        assert!(!w.capture_enabled());
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Insert {
                txn: 1,
                table: 2,
                rid: 7,
                row: vec![Value::Int(9), Value::Str("hi".into()), Value::Null],
            },
            WalRecord::Update {
                txn: 1,
                table: 2,
                rid: 7,
                before: vec![Value::Int(9)],
                after: vec![Value::Float(2.5)],
            },
            WalRecord::Delete {
                txn: 1,
                table: 2,
                rid: 7,
                row: vec![Value::Int(9)],
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::Clr {
                txn: 3,
                undo_of: 2,
                table: 2,
                rid: 8,
                action: ClrAction::Reinsert {
                    row: vec![Value::Int(1)],
                },
            },
            WalRecord::Abort { txn: 3 },
            WalRecord::Checkpoint {
                active_txns: vec![4, 5],
                dirty_pages: vec![(10, 2), (11, 3)],
            },
            WalRecord::Prepare {
                txn: 6,
                coordinator: 2,
            },
            WalRecord::CoordCommit {
                txn: 6,
                participants: vec![0, 1, 3],
            },
            WalRecord::CoordEnd { txn: 6 },
        ]
    }

    #[test]
    fn records_round_trip_through_image() {
        let mut w = Wal::new();
        w.enable_capture();
        let recs = sample_records();
        for r in &recs {
            w.append_record(r, 100);
        }
        w.flush_for_commit();
        w.flush_durable();
        let scan = scan_log(w.image());
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), recs.len());
        for ((lsn, got), (i, want)) in scan.records.iter().zip(recs.iter().enumerate()) {
            assert_eq!(lsn.0, i as u64 + 1);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn crash_keeps_durable_flushes_and_torn_prefix_of_inflight() {
        let mut w = Wal::new();
        w.enable_capture();
        w.append_record(&WalRecord::Begin { txn: 1 }, 50);
        w.append_record(&WalRecord::Commit { txn: 1 }, 50);
        w.flush_for_commit();
        w.flush_durable(); // flush 1 completed
        w.append_record(&WalRecord::Begin { txn: 2 }, 50);
        w.append_record(&WalRecord::Commit { txn: 2 }, 50);
        w.flush_for_commit(); // flush 2 in flight
        w.append_record(&WalRecord::Begin { txn: 3 }, 50); // never flushed

        // Torn tail keeps zero sectors of the in-flight flush.
        let img = w.crash_image(|_| 0);
        let scan = scan_log(&img);
        assert_eq!(scan.records.len(), 2, "only the durable flush survives");

        // Torn tail keeps all sectors of the in-flight flush; txn 3's
        // unflushed record is still lost.
        let img = w.crash_image(|n| n);
        let scan = scan_log(&img);
        assert_eq!(scan.records.len(), 4);
        assert!(scan.records.iter().all(|(_, r)| r.txn() != Some(3)));
    }

    #[test]
    fn torn_mid_record_is_detected_and_truncated() {
        let mut w = Wal::new();
        w.enable_capture();
        w.append_record(&WalRecord::Begin { txn: 1 }, 50);
        w.append_record(
            &WalRecord::Insert {
                txn: 1,
                table: 0,
                rid: 0,
                row: vec![Value::from("x".repeat(600))],
            },
            600,
        );
        // Cut inside the second record (pre-padding image).
        let cut = w.image().len() - 300;
        let img = w.image()[..cut].to_vec();
        let scan = scan_log(&img);
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn corrupted_sector_breaks_the_chain() {
        let mut w = Wal::new();
        w.enable_capture();
        for i in 0..8 {
            w.append_record(&WalRecord::Begin { txn: i }, 100);
        }
        let clean = scan_log(w.image());
        assert_eq!(clean.records.len(), 8);
        let mut img = w.image().to_vec();
        // Flip a byte in the middle of the (unpadded) record region.
        let mid = img.len() / 2;
        img[mid] ^= 0x40;
        let scan = scan_log(&img);
        assert!(scan.torn, "corruption must be detected");
        assert!(scan.records.len() < 8);
        // Every surviving record matches the clean scan prefix.
        for (got, want) in scan.records.iter().zip(clean.records.iter()) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn from_image_resumes_the_chain() {
        let mut w = Wal::new();
        w.enable_capture();
        w.append_record(&WalRecord::Begin { txn: 1 }, 50);
        w.flush_for_commit();
        w.force_durable();
        let mut r = Wal::from_image(w.image().to_vec());
        assert_eq!(r.next_lsn(), Lsn(2));
        r.append_record(&WalRecord::Commit { txn: 1 }, 50);
        r.force_durable();
        let scan = scan_log(r.image());
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn durable_lsn_tracks_completed_flushes() {
        let mut w = Wal::new();
        w.enable_capture();
        w.append_record(&WalRecord::Begin { txn: 1 }, 50);
        w.flush_for_commit();
        assert_eq!(w.durable_lsn(), Lsn(0));
        assert!(w.has_inflight_flush());
        w.flush_durable();
        assert_eq!(w.durable_lsn(), Lsn(1));
        assert!(!w.has_inflight_flush());
    }
}
