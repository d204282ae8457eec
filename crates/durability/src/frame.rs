//! Length-prefixed, CRC-checked journal frames and the append-only [`Journal`].
//!
//! A journal is a flat file of frames, each laid out as
//!
//! ```text
//! [payload length: u32 LE][CRC-32 of payload: u32 LE][payload bytes]
//! ```
//!
//! Appends are written through to the file immediately (one `write(2)` per
//! frame), so a killed process never loses a frame it finished writing; only
//! the `fsync` is batched (group commit).  Recovery scans the file front to
//! back and stops at the first frame that is torn (fewer bytes on disk than
//! the header promises) or fails its CRC — everything before that point is
//! the durable prefix.

use crate::inject::{FaultInjector, IoPoint};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::Path;

/// Upper bound on a single frame payload.  A corrupted length prefix must not
/// make the scanner attempt a multi-gigabyte allocation.
const MAX_FRAME_LEN: u32 = 1 << 26;

/// Bytes of framing overhead per record (length prefix + CRC).
const FRAME_HEADER_LEN: u64 = 8;

/// Compute the IEEE CRC-32 checksum of `data` (the polynomial used by zip,
/// PNG, and ethernet), via the classic byte-at-a-time table.
fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Why a journal scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// The file ends mid-frame: fewer bytes remain than the header promises
    /// (or the header itself is incomplete).  The usual aftermath of a crash
    /// mid-`write`.
    TornFrame {
        /// Byte offset of the torn frame's header.
        offset: u64,
    },
    /// A complete frame whose payload does not match its recorded CRC.
    BadCrc {
        /// Byte offset of the corrupt frame's header.
        offset: u64,
        /// Zero-based index of the corrupt record.
        index: usize,
    },
    /// A length prefix larger than the 64 MiB frame cap — treated as garbage
    /// rather than trusted.
    OversizedFrame {
        /// Byte offset of the frame's header.
        offset: u64,
        /// The implausible length the header claimed.
        len: u32,
    },
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Corruption::TornFrame { offset } => {
                write!(f, "torn frame at byte {offset} (file ends mid-record)")
            }
            Corruption::BadCrc { offset, index } => {
                write!(f, "CRC mismatch in record {index} at byte {offset}")
            }
            Corruption::OversizedFrame { offset, len } => {
                write!(f, "implausible frame length {len} at byte {offset}")
            }
        }
    }
}

/// The result of scanning a journal file front to back.
#[derive(Debug)]
pub(crate) struct JournalScan {
    /// Every intact record payload, in append order.
    pub(crate) records: Vec<Vec<u8>>,
    /// Length of the valid prefix in bytes; the file is trustworthy up to
    /// here and garbage past it.
    pub(crate) valid_bytes: u64,
    /// What stopped the scan, if anything did.
    pub(crate) corruption: Option<Corruption>,
}

/// Scan a journal file without modifying it.  Missing files scan as empty —
/// a tenant that never logged an event has an empty durable prefix, not an
/// error.
pub(crate) fn scan_journal(path: &Path) -> io::Result<JournalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut corruption = None;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < FRAME_HEADER_LEN as usize {
            corruption = Some(Corruption::TornFrame {
                offset: offset as u64,
            });
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            corruption = Some(Corruption::OversizedFrame {
                offset: offset as u64,
                len,
            });
            break;
        }
        let body_start = offset + FRAME_HEADER_LEN as usize;
        if remaining < FRAME_HEADER_LEN as usize + len as usize {
            corruption = Some(Corruption::TornFrame {
                offset: offset as u64,
            });
            break;
        }
        let payload = &bytes[body_start..body_start + len as usize];
        if crc32(payload) != crc {
            corruption = Some(Corruption::BadCrc {
                offset: offset as u64,
                index: records.len(),
            });
            break;
        }
        records.push(payload.to_vec());
        offset = body_start + len as usize;
    }
    Ok(JournalScan {
        records,
        valid_bytes: offset as u64,
        corruption,
    })
}

/// An append-only journal open for writing, with fsync-batched group commit.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    fsync_batch: usize,
    pending: usize,
    records: u64,
    bytes: u64,
    /// Reused frame-assembly buffer: `append` runs on a shard's hot path, so
    /// each record must not cost a fresh allocation.
    scratch: Vec<u8>,
    /// Chaos hook consulted before each write/fsync; `None` in production.
    injector: Option<FaultInjector>,
}

impl Journal {
    /// Create (or truncate) a journal at `path`.
    pub(crate) fn create(path: &Path, fsync_batch: usize) -> io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            file,
            fsync_batch: fsync_batch.max(1),
            pending: 0,
            records: 0,
            bytes: 0,
            scratch: Vec::new(),
            injector: None,
        })
    }

    /// Reopen a scanned journal for appending at the end of its intact prefix:
    /// `records` frames in `valid_bytes` bytes, as [`scan_journal`] found them.
    /// Anything past the prefix is truncated away (and the truncation synced), so
    /// a torn tail never poisons later appends.  The file is not scanned again.
    pub(crate) fn reopen(
        path: &Path,
        fsync_batch: usize,
        records: u64,
        valid_bytes: u64,
    ) -> io::Result<Journal> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() > valid_bytes {
            file.set_len(valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(io::SeekFrom::Start(valid_bytes))?;
        Ok(Journal {
            file,
            fsync_batch: fsync_batch.max(1),
            pending: 0,
            records,
            bytes: valid_bytes,
            scratch: Vec::new(),
            injector: None,
        })
    }

    /// Install (or clear) the chaos hook consulted before each write/fsync.
    pub(crate) fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Append one record.  The frame is handed to the kernel immediately
    /// (surviving a `SIGKILL` of this process); `fsync` runs once every
    /// `fsync_batch` appends.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() as u64 <= MAX_FRAME_LEN as u64,
            "journal record exceeds MAX_FRAME_LEN"
        );
        if let Some(injector) = &self.injector {
            injector.check(IoPoint::Append)?;
        }
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        self.file.write_all(&self.scratch)?;
        self.records += 1;
        self.bytes += self.scratch.len() as u64;
        self.pending += 1;
        if self.pending >= self.fsync_batch {
            self.sync()?;
        }
        Ok(())
    }

    /// Force any batched appends down to stable storage now.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            if let Some(injector) = &self.injector {
                injector.check(IoPoint::Sync)?;
            }
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Number of records in the journal (recovered + appended).
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Size of the journal in bytes, including framing overhead.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends not yet covered by an `fsync`.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::path::PathBuf;

    /// A fresh temporary directory for one test's journal, removed when the
    /// guard drops, so a failing test cleans up too.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "busytime-durability-frame-{}-{name}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn journal(&self) -> PathBuf {
            self.0.join("journal.log")
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = TempDir::new("round-trip");
        let path = dir.journal();
        let mut journal = Journal::create(&path, 2).unwrap();
        journal.append(b"alpha").unwrap();
        journal.append(b"beta").unwrap();
        journal.append(b"gamma").unwrap();
        journal.sync().unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.corruption.is_none());
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        assert_eq!(scan.valid_bytes, journal.bytes());
    }

    #[test]
    fn torn_tail_recovers_prefix_and_truncates() {
        let dir = TempDir::new("torn");
        let path = dir.journal();
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.append(b"keep-me").unwrap();
        journal.append(b"lose-me").unwrap();
        drop(journal);
        // Tear the final frame: drop its last byte.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 1).unwrap();
        drop(file);

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, vec![b"keep-me".to_vec()]);
        assert!(matches!(
            scan.corruption,
            Some(Corruption::TornFrame { .. })
        ));
        let mut journal =
            Journal::reopen(&path, 1, scan.records.len() as u64, scan.valid_bytes).unwrap();
        // The file was truncated to the valid prefix and appends resume cleanly.
        journal.append(b"after-repair").unwrap();
        drop(journal);
        let rescan = scan_journal(&path).unwrap();
        assert!(rescan.corruption.is_none());
        assert_eq!(
            rescan.records,
            vec![b"keep-me".to_vec(), b"after-repair".to_vec()]
        );
    }

    #[test]
    fn bit_flip_stops_scan_at_corrupt_record() {
        let dir = TempDir::new("flip");
        let path = dir.journal();
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.append(b"first").unwrap();
        journal.append(b"second").unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit inside the second record.
        let target = bytes.len() - 2;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert!(matches!(
            scan.corruption,
            Some(Corruption::BadCrc { index: 1, .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_trusted() {
        let dir = TempDir::new("oversized");
        let path = dir.journal();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &frame).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.corruption,
            Some(Corruption::OversizedFrame { .. })
        ));
    }

    #[test]
    fn missing_journal_scans_as_empty() {
        let dir = TempDir::new("missing");
        let path = dir.0.join("never-created.log");
        let scan = scan_journal(&path).unwrap();
        assert!(scan.corruption.is_none());
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
    }

    #[test]
    fn fsync_batching_counts_pending_appends() {
        let dir = TempDir::new("pending");
        let path = dir.journal();
        let mut journal = Journal::create(&path, 4).unwrap();
        journal.append(b"a").unwrap();
        journal.append(b"b").unwrap();
        assert_eq!(journal.pending(), 2);
        journal.append(b"c").unwrap();
        journal.append(b"d").unwrap();
        // The fourth append crossed the batch boundary and synced.
        assert_eq!(journal.pending(), 0);
    }
}
