//! Generation-based per-tenant persistence on top of the journal.
//!
//! Each tenant owns one directory under the store root (its name
//! percent-encoded to stay filesystem-safe), holding exactly one live
//! *generation*: a `snapshot.<gen>.json` baseline plus a `journal.<gen>.log`
//! tail of events applied since that baseline.  Compaction writes the next
//! generation's snapshot atomically (temp file + rename), starts an empty
//! journal, and deletes the superseded generation.  Recovery is two steps: a
//! read ([`Store::read_tenant`]) picks the highest generation whose snapshot
//! restores and scans its journal, writing nothing, and a commit
//! ([`Store::commit_tenant`]) truncates that journal to its intact prefix,
//! deletes the other generations and reopens the log.

use std::fmt::Display;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::frame::{scan_journal, Corruption, Journal};
use crate::inject::FaultInjector;

/// Encode a tenant name into a filesystem-safe directory name.  ASCII
/// alphanumerics, `-` and `_` pass through; every other byte becomes `%XX`.
fn encode_tenant_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Decode a directory name produced by [`encode_tenant_name`].  Returns
/// `None` for names that are not valid encodings (stray files in the data
/// directory are skipped, not fatal).
fn decode_tenant_name(encoded: &str) -> Option<String> {
    let bytes = encoded.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

/// Path of a generation's snapshot file inside a tenant directory.
fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.json"))
}

/// Path of a generation's journal file inside a tenant directory.
fn journal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("journal.{generation}.log"))
}

/// Every generation with a snapshot file present in `dir`, sorted descending
/// (newest first).  A missing directory lists as empty.
fn list_generations(dir: &Path) -> io::Result<Vec<u64>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut generations = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("snapshot.")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|gen| gen.parse::<u64>().ok())
        {
            generations.push(gen);
        }
    }
    generations.sort_unstable_by(|a, b| b.cmp(a));
    Ok(generations)
}

/// Stage `contents` for an atomic write: the bytes land fsynced in a temp
/// file next to `path`, to be committed later by [`commit_staged`].
fn stage_write(path: &Path, contents: &[u8]) -> io::Result<PathBuf> {
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_data()?;
    Ok(tmp)
}

/// Commit a staged write: rename the temp file over the destination, so a
/// crash leaves either the old file or the new one, never a torn hybrid.
fn commit_staged(tmp: &Path, path: &Path) -> io::Result<()> {
    fs::rename(tmp, path)?;
    // Persist the rename itself; failures here are ignored on filesystems
    // that refuse to fsync a directory handle.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Delete every snapshot/journal/temp file in `dir` that does not belong to
/// generation `keep`.  Best effort: removal errors are ignored (a leftover
/// stale file is harmless once the live generation is newer).
fn remove_other_generations(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_snapshot = name
            .strip_prefix("snapshot.")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|gen| gen.parse::<u64>().ok())
            .is_some_and(|gen| gen != keep);
        let stale_journal = name
            .strip_prefix("journal.")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|gen| gen.parse::<u64>().ok())
            .is_some_and(|gen| gen != keep);
        let temp = name.ends_with(".tmp");
        if stale_snapshot || stale_journal || temp {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Live write-ahead state for one tenant: the current generation's snapshot
/// baseline plus its append-only journal.
#[derive(Debug)]
pub struct TenantLog {
    dir: PathBuf,
    generation: u64,
    snapshot_bytes: u64,
    journal: Journal,
    fsync_batch: usize,
    /// Chaos hook the journal (and every journal compaction replaces it with)
    /// consults before disk I/O; `None` in production.
    injector: Option<FaultInjector>,
}

/// Counters describing a tenant's on-disk write-ahead state, as reported by
/// the `wal_stats` server operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// The live generation number (bumped by every snapshot/compaction).
    pub generation: u64,
    /// Records in the journal tail since the last snapshot.
    pub log_records: u64,
    /// Journal size in bytes, framing included.
    pub log_bytes: u64,
    /// Size of the baseline snapshot in bytes.
    pub snapshot_bytes: u64,
}

impl TenantLog {
    /// Start a generation: atomically write its snapshot, create an empty
    /// journal, and delete superseded generations.  Used for tenant creation
    /// (`open`/`restore`) and as the back half of compaction.
    ///
    /// The snapshot rename is the commit point and runs *last*: any earlier
    /// failure (or a crash) leaves at most stray `.tmp`/journal files while
    /// the previous generation stays canonical, so a failed `begin` never
    /// strands events appended to the previous generation's journal.  The
    /// chaos hook, if any, is installed on the new journal and inherited by
    /// every later compaction.
    fn begin(
        dir: impl Into<PathBuf>,
        generation: u64,
        snapshot_json: &str,
        fsync_batch: usize,
        injector: Option<FaultInjector>,
    ) -> io::Result<TenantLog> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let destination = snapshot_path(&dir, generation);
        let staged = stage_write(&destination, snapshot_json.as_bytes())?;
        let mut journal = Journal::create(&journal_path(&dir, generation), fsync_batch)?;
        journal.set_injector(injector.clone());
        commit_staged(&staged, &destination)?;
        remove_other_generations(&dir, generation);
        Ok(TenantLog {
            dir,
            generation,
            snapshot_bytes: snapshot_json.len() as u64,
            journal,
            fsync_batch,
            injector,
        })
    }

    /// Append one event record to the journal (group-committed).
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.journal.append(record)
    }

    /// Flush batched appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// Compact: make `snapshot_json` the next generation's baseline and start
    /// an empty journal, retiring the current journal tail.  O(snapshot), not
    /// O(journal length).
    pub fn compact(&mut self, snapshot_json: &str) -> io::Result<()> {
        *self = TenantLog::begin(
            self.dir.clone(),
            self.generation + 1,
            snapshot_json,
            self.fsync_batch,
            self.injector.clone(),
        )?;
        Ok(())
    }

    /// Current on-disk counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            generation: self.generation,
            log_records: self.journal.records(),
            log_bytes: self.journal.bytes(),
            snapshot_bytes: self.snapshot_bytes,
        }
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Journal appends not yet covered by an `fsync` (the tenant's WAL
    /// backlog, surfaced by the server's `health` operation).
    pub fn pending(&self) -> usize {
        self.journal.pending()
    }
}

/// A tenant as [`Store::read_tenant`] found it on disk: the newest generation
/// whose snapshot restores, and the intact records of that generation's journal.
#[derive(Debug)]
pub struct TenantRead<T> {
    /// The value the caller's `restore` closure produced from the chosen
    /// snapshot.
    pub value: T,
    /// The generation the tenant recovers from.
    pub generation: u64,
    /// Journal records appended after that snapshot, in order, up to the first
    /// damaged frame; the caller replays these through its normal apply path.
    pub records: Vec<Vec<u8>>,
    /// Journal corruption found past those records, if any.
    pub corruption: Option<Corruption>,
    /// What the read found wrong, one line each: newer generations whose
    /// snapshot was unreadable or rejected, and a damaged journal tail.
    pub notes: Vec<String>,
    /// The writes that make this generation live, for [`Store::commit_tenant`].
    pub commit: Commit,
}

/// The writes [`Store::read_tenant`] leaves to [`Store::commit_tenant`]: where the
/// chosen generation's journal stands, so committing needs no second scan.
#[derive(Debug)]
pub struct Commit {
    dir: PathBuf,
    generation: u64,
    snapshot_bytes: u64,
    records: u64,
    valid_bytes: u64,
}

/// Handle on a data directory holding one subdirectory per tenant.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    fsync_batch: usize,
    /// Chaos hook every tenant log opened through this store inherits.
    injector: Option<FaultInjector>,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.  `fsync_batch` is
    /// the group-commit size every tenant journal uses: 1 = fsync per event,
    /// larger values amortize the flush over that many appends.
    pub fn open(root: impl Into<PathBuf>, fsync_batch: usize) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store {
            root,
            fsync_batch: fsync_batch.max(1),
            injector: None,
        })
    }

    /// Install a chaos hook on every tenant log this store opens from now on
    /// (already-open logs are unaffected).
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// The directory a tenant's generations live in.
    pub fn tenant_dir(&self, name: &str) -> PathBuf {
        self.root.join(encode_tenant_name(name))
    }

    /// Every tenant with a directory in the store, sorted by name.  Entries
    /// that do not decode as tenant names are skipped.
    pub fn tenant_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let encoded = entry.file_name();
            if let Some(name) = encoded.to_str().and_then(decode_tenant_name) {
                names.push(name);
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Begin durable state for a tenant with `snapshot_json` as its baseline.
    /// If generations already exist (an `open` racing a crashed `close`, or a
    /// `restore` over live state) the new generation supersedes them.
    pub fn begin_tenant(&self, name: &str, snapshot_json: &str) -> io::Result<TenantLog> {
        let dir = self.tenant_dir(name);
        let next = list_generations(&dir)?.first().map_or(0, |gen| gen + 1);
        TenantLog::begin(
            dir,
            next,
            snapshot_json,
            self.fsync_batch,
            self.injector.clone(),
        )
    }

    /// Remove a tenant's durable state entirely (the `close` operation).
    /// Missing directories are fine — removal is idempotent.
    pub fn remove_tenant(&self, name: &str) -> io::Result<()> {
        match fs::remove_dir_all(self.tenant_dir(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Read a tenant back from disk, writing nothing.  Tries generations
    /// newest-first; the first snapshot the `restore` closure accepts wins and
    /// its journal is scanned up to the first torn or corrupt frame.  Fails with
    /// `InvalidData` when no generation restores — the caller decides whether
    /// that aborts startup (it should not; skip the tenant and keep serving the
    /// rest).
    pub fn read_tenant<T, E: Display>(
        &self,
        name: &str,
        mut restore: impl FnMut(&str) -> Result<T, E>,
    ) -> io::Result<TenantRead<T>> {
        let dir = self.tenant_dir(name);
        let generations = list_generations(&dir)?;
        if generations.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tenant '{name}' has no snapshot on disk"),
            ));
        }
        let mut notes = Vec::new();
        for generation in generations {
            let snapshot_json = match fs::read_to_string(snapshot_path(&dir, generation)) {
                Ok(json) => json,
                Err(e) => {
                    notes.push(format!("generation {generation}: unreadable snapshot: {e}"));
                    continue;
                }
            };
            let value = match restore(&snapshot_json) {
                Ok(value) => value,
                Err(e) => {
                    notes.push(format!("generation {generation}: snapshot rejected: {e}"));
                    continue;
                }
            };
            let scan = scan_journal(&journal_path(&dir, generation))?;
            if let Some(corruption) = &scan.corruption {
                notes.push(format!(
                    "generation {generation}: {corruption}; {} intact record(s) precede it",
                    scan.records.len()
                ));
            }
            return Ok(TenantRead {
                value,
                generation,
                commit: Commit {
                    dir,
                    generation,
                    snapshot_bytes: snapshot_json.len() as u64,
                    records: scan.records.len() as u64,
                    valid_bytes: scan.valid_bytes,
                },
                records: scan.records,
                corruption: scan.corruption,
                notes,
            });
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "tenant '{name}': no generation restores ({})",
                notes.join("; ")
            ),
        ))
    }

    /// Make a read generation the tenant's live state: truncate its journal to
    /// the intact prefix the read found, delete every other generation, and open
    /// the log for appends.  The journal is not scanned again.
    pub fn commit_tenant(&self, commit: &Commit) -> io::Result<TenantLog> {
        let mut journal = Journal::reopen(
            &journal_path(&commit.dir, commit.generation),
            self.fsync_batch,
            commit.records,
            commit.valid_bytes,
        )?;
        journal.set_injector(self.injector.clone());
        // The chosen generation is now canonical: stale newer generations
        // with rejected snapshots must not shadow it on the next boot.
        remove_other_generations(&commit.dir, commit.generation);
        Ok(TenantLog {
            dir: commit.dir.clone(),
            generation: commit.generation,
            snapshot_bytes: commit.snapshot_bytes,
            journal,
            fsync_batch: self.fsync_batch,
            injector: self.injector.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> Store {
        let root = std::env::temp_dir().join(format!(
            "busytime-durability-store-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        Store::open(root, 1).unwrap()
    }

    fn cleanup(store: Store) {
        let _ = fs::remove_dir_all(store.root);
    }

    /// Startup recovery's two steps: read the tenant, then commit the read.
    fn load(
        store: &Store,
        name: &str,
        restore: fn(&str) -> Result<String, String>,
    ) -> TenantRead<String> {
        let read = store.read_tenant(name, restore).unwrap();
        store.commit_tenant(&read.commit).unwrap();
        read
    }

    fn accept(json: &str) -> Result<String, String> {
        Ok(json.to_string())
    }

    #[test]
    fn tenant_name_encoding_round_trips() {
        for name in [
            "plain",
            "has space",
            "sl/ash",
            "dots.and%percent",
            "ünïcode",
            "",
        ] {
            let encoded = encode_tenant_name(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "encoding of {name:?} is not filesystem-safe: {encoded}"
            );
            assert_eq!(decode_tenant_name(&encoded).as_deref(), Some(name));
        }
        assert_eq!(decode_tenant_name("not!encoded"), None);
        assert_eq!(decode_tenant_name("trailing%4"), None);
    }

    #[test]
    fn begin_append_load_round_trips() {
        let store = temp_store("round-trip");
        let mut log = store.begin_tenant("acme", "{\"state\":0}").unwrap();
        log.append(b"event-1").unwrap();
        log.append(b"event-2").unwrap();
        log.sync().unwrap();
        drop(log);

        let recovered = load(&store, "acme", accept);
        assert_eq!(recovered.value, "{\"state\":0}");
        assert_eq!(recovered.generation, 0);
        assert_eq!(
            recovered.records,
            vec![b"event-1".to_vec(), b"event-2".to_vec()]
        );
        assert!(recovered.corruption.is_none());
        cleanup(store);
    }

    #[test]
    fn compaction_bumps_generation_and_drops_tail() {
        let store = temp_store("compact");
        let mut log = store.begin_tenant("acme", "base-0").unwrap();
        log.append(b"one").unwrap();
        log.compact("base-1").unwrap();
        assert_eq!(log.generation(), 1);
        assert_eq!(log.stats().log_records, 0);
        log.append(b"two").unwrap();
        log.sync().unwrap();
        drop(log);

        // Only the new generation survives on disk.
        let dir = store.tenant_dir("acme");
        assert_eq!(list_generations(&dir).unwrap(), vec![1]);
        let recovered = load(&store, "acme", accept);
        assert_eq!(recovered.value, "base-1");
        assert_eq!(recovered.records, vec![b"two".to_vec()]);
        cleanup(store);
    }

    #[test]
    fn rejected_newest_snapshot_falls_back_to_older_generation() {
        let store = temp_store("fallback");
        let mut log = store.begin_tenant("acme", "good").unwrap();
        log.append(b"tail").unwrap();
        log.sync().unwrap();
        // Fake a newer generation with a snapshot the restorer rejects,
        // mimicking a crash that left a corrupt compaction output.
        let dir = store.tenant_dir("acme");
        fs::write(snapshot_path(&dir, 1), "corrupt").unwrap();
        drop(log);

        let recovered = load(&store, "acme", |json| {
            if json == "good" {
                Ok(json.to_string())
            } else {
                Err("unparseable".to_string())
            }
        });
        assert_eq!(recovered.value, "good");
        assert_eq!(recovered.generation, 0);
        assert_eq!(recovered.records, vec![b"tail".to_vec()]);
        assert!(recovered.notes.iter().any(|n| n.contains("generation 1")));
        // The corrupt newer generation was cleaned up.
        assert_eq!(list_generations(&dir).unwrap(), vec![0]);
        cleanup(store);
    }

    #[test]
    fn load_truncates_torn_journal_tail() {
        let store = temp_store("torn");
        let mut log = store.begin_tenant("acme", "base").unwrap();
        log.append(b"whole").unwrap();
        log.append(b"torn!").unwrap();
        log.sync().unwrap();
        let journal_file = journal_path(&store.tenant_dir("acme"), 0);
        drop(log);
        let len = fs::metadata(&journal_file).unwrap().len();
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&journal_file)
            .unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let recovered = load(&store, "acme", accept);
        assert_eq!(recovered.records, vec![b"whole".to_vec()]);
        assert!(recovered.corruption.is_some());
        // Truncation is persisted: a second load sees a clean journal.
        let again = load(&store, "acme", accept);
        assert!(again.corruption.is_none());
        assert_eq!(again.records, vec![b"whole".to_vec()]);
        cleanup(store);
    }

    #[test]
    fn remove_tenant_is_idempotent_and_listing_skips_strays() {
        let store = temp_store("remove");
        store.begin_tenant("keep", "s").unwrap();
        store.begin_tenant("drop", "s").unwrap();
        fs::create_dir_all(store.root.join("not!a!tenant")).unwrap();
        fs::write(store.root.join("stray-file"), "x").unwrap();
        store.remove_tenant("drop").unwrap();
        store.remove_tenant("drop").unwrap();
        assert_eq!(store.tenant_names().unwrap(), vec!["keep".to_string()]);
        cleanup(store);
    }

    #[test]
    fn begin_tenant_over_existing_state_supersedes_it() {
        let store = temp_store("supersede");
        let mut log = store.begin_tenant("acme", "old").unwrap();
        log.append(b"stale").unwrap();
        log.sync().unwrap();
        drop(log);
        // A restore over live state starts a fresh generation.
        let log = store.begin_tenant("acme", "new").unwrap();
        assert_eq!(log.generation(), 1);
        drop(log);
        let recovered = load(&store, "acme", accept);
        assert_eq!(recovered.value, "new");
        assert!(recovered.records.is_empty());
        cleanup(store);
    }

    #[test]
    fn read_writes_nothing_until_commit() {
        let store = temp_store("read-only");
        store.begin_tenant("acme", "old").unwrap();
        let old_snapshot = fs::read(snapshot_path(&store.tenant_dir("acme"), 0)).unwrap();
        let mut log = store.begin_tenant("acme", "base").unwrap();
        log.append(b"whole").unwrap();
        log.append(b"torn!").unwrap();
        log.sync().unwrap();
        drop(log);
        // A torn tail on the live generation 1, a stale generation 0 beside it,
        // and a newer generation 2 whose snapshot the restorer rejects.
        let dir = store.tenant_dir("acme");
        let journal_file = journal_path(&dir, 1);
        let torn = fs::metadata(&journal_file).unwrap().len() - 3;
        fs::OpenOptions::new()
            .write(true)
            .open(&journal_file)
            .unwrap()
            .set_len(torn)
            .unwrap();
        fs::write(snapshot_path(&dir, 0), &old_snapshot).unwrap();
        fs::write(journal_path(&dir, 0), b"stale").unwrap();
        fs::write(snapshot_path(&dir, 2), "corrupt").unwrap();
        let sizes = |dir: &Path| -> Vec<(String, u64)> {
            let mut sizes: Vec<_> = fs::read_dir(dir)
                .unwrap()
                .map(|entry| {
                    let entry = entry.unwrap();
                    let name = entry.file_name().into_string().unwrap();
                    (name, entry.metadata().unwrap().len())
                })
                .collect();
            sizes.sort();
            sizes
        };
        let before = sizes(&dir);

        let read = store
            .read_tenant("acme", |json| {
                if json == "corrupt" {
                    Err("unparseable".to_string())
                } else {
                    Ok(json.to_string())
                }
            })
            .unwrap();
        assert_eq!(read.value, "base");
        assert_eq!(read.generation, 1);
        assert_eq!(read.records, vec![b"whole".to_vec()]);
        assert!(read.corruption.is_some());
        assert_eq!(read.notes.len(), 2, "{:?}", read.notes);
        assert!(read.notes[0].starts_with("generation 2: snapshot rejected"));
        assert!(read.notes[1].ends_with("1 intact record(s) precede it"));
        assert_eq!(sizes(&dir), before, "the read wrote nothing");
        assert_eq!(list_generations(&dir).unwrap(), vec![2, 1, 0]);

        // The commit truncates the torn tail and deletes the other generations.
        let mut log = store.commit_tenant(&read.commit).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![1]);
        assert!(fs::metadata(&journal_file).unwrap().len() < torn);
        assert_eq!(log.stats().log_records, 1);
        log.append(b"after").unwrap();
        log.sync().unwrap();
        drop(log);
        let again = load(&store, "acme", accept);
        assert!(again.corruption.is_none());
        assert_eq!(again.records, vec![b"whole".to_vec(), b"after".to_vec()]);
        cleanup(store);
    }
}
