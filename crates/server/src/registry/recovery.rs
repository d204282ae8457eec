//! What a tenant looks like on disk, and how a shard reads it back: the
//! journal record format ([`JournalRecord`]), the snapshot format, and the one
//! read-and-replay ([`replay_tenant`]) behind both the rebuild of a shard's
//! tenants at startup and on respawn, and the offline audit `busytime fsck`
//! runs ([`audit_data_dir`]).

use std::io;
use std::path::Path;

use busytime::online::{Event, OnlineScheduler, OnlineSnapshot};
use busytime_durability::{Commit, Store};

use super::apply::{apply_event, checked_window};
use super::shard::{ShardState, Tenant};
use super::shard_index;
use crate::protocol::{Request, Response};

/// Serialize a scheduler's snapshot for the durable store.
pub(super) fn snapshot_json(scheduler: &OnlineScheduler) -> String {
    serde_json::to_string(&scheduler.snapshot()).expect("snapshots always serialize")
}

/// Rebuild this shard's tenants from the data directory: for every stored
/// tenant that hashes here, [`replay_tenant`], then commit what it read.
/// Tenants that fail to recover are skipped with a diagnostic; recovery never
/// aborts the shard.
pub(super) fn recover_shard(state: &mut ShardState, shard: usize, shards: usize) {
    let Some(shard_store) = state.store.clone() else {
        return;
    };
    let names = match shard_store.store.tenant_names() {
        Ok(names) => names,
        Err(error) => {
            eprintln!("busytime-server: shard {shard}: cannot scan the data directory: {error}");
            return;
        }
    };
    for name in names {
        if shard_index(&name, shards) != shard {
            continue;
        }
        match recover_tenant(&shard_store.store, &name) {
            Ok((tenant, notes)) => {
                for note in notes {
                    eprintln!("busytime-server: tenant '{name}': {note}");
                }
                state.tenants.insert(name, tenant);
            }
            Err(error) => {
                eprintln!("busytime-server: skipping unrecoverable tenant '{name}': {error}");
            }
        }
    }
}

/// Recover one tenant: read and replay it, commit the read (truncating a
/// damaged journal tail and deleting the other generations), and after a
/// record that does not replay compact the repaired state to disk, so the
/// unreplayable tail cannot strand later appends.  Returns the tenant and the
/// notes: what the read found, then what recovery did about it.
fn recover_tenant(store: &Store, name: &str) -> io::Result<(Tenant, Vec<String>)> {
    let mut replay = replay_tenant(store, name)?;
    let mut log = store.commit_tenant(&replay.commit)?;
    if replay.damaged {
        replay.notes.push(format!(
            "truncated the journal to its {} intact record(s)",
            replay.intact
        ));
    }
    if replay.replayed < replay.intact {
        // A fresh snapshot supersedes the whole journal including its
        // unreplayable tail.  If even that fails, skip the tenant rather than
        // appending after a tail we could not replay.
        log.compact(&snapshot_json(&replay.tenant.scheduler))?;
        replay.notes.push(format!(
            "compacted the replayed state into generation {}",
            log.generation()
        ));
    }
    replay.tenant.log = Some(log);
    Ok((replay.tenant, replay.notes))
}

/// A tenant as [`replay_tenant`] rebuilt it, before anything is written.
struct Replay {
    /// The rebuilt tenant, without a log.
    tenant: Tenant,
    /// The generation it was read from.
    generation: u64,
    /// Journal records replayed onto that generation's snapshot.
    replayed: usize,
    /// Intact journal records the read found (`replayed` stops short of them
    /// at a record that does not replay).
    intact: usize,
    /// Whether the journal is damaged past its intact records.
    damaged: bool,
    /// What the read and the replay found, one line each.
    notes: Vec<String>,
    /// The writes that make the read generation live.
    commit: Commit,
}

/// Read one tenant through [`Store::read_tenant`] and replay its journal
/// through [`apply_event`] and `compact` — the same path live requests take, so
/// the rebuilt scheduler is the one an uninterrupted run would hold — stopping
/// at the first record that cannot be decoded or applied.  Writes nothing:
/// startup recovery commits the result, and [`audit_data_dir`] reports it.
fn replay_tenant(store: &Store, name: &str) -> io::Result<Replay> {
    let read = store.read_tenant(name, |json| -> Result<OnlineScheduler, String> {
        let snapshot: OnlineSnapshot =
            serde_json::from_str(json).map_err(|e| format!("snapshot does not parse: {e}"))?;
        OnlineScheduler::restore(&snapshot).map_err(|e| e.to_string())
    })?;
    let mut tenant = Tenant {
        scheduler: read.value,
        trajectory: Vec::new(),
        log: None,
    };
    let mut notes = read.notes;
    let mut replayed = 0;
    for record in &read.records {
        let failure = match JournalRecord::decode(name, record) {
            Ok(JournalRecord::Event(event)) => match apply_event(&mut tenant, &event) {
                Response::Error(error) => Some(error.message),
                _ => None,
            },
            // `compact` is a pure function of the placements it finds, and the
            // replayed scheduler holds exactly the placements the live one held
            // when the record was journaled — so replaying it commits the same
            // moves.  Journal appends are skipped here (there is no log yet).
            Ok(JournalRecord::Compact(budget)) => {
                let effect = tenant.scheduler.compact(budget);
                if let Some(last) = tenant.trajectory.last_mut() {
                    *last = effect.cost.ticks();
                }
                None
            }
            Err(error) => Some(error),
        };
        if let Some(failure) = failure {
            notes.push(format!(
                "journal record {replayed} does not replay ({failure}); {replayed} \
                 replayable record(s) precede it"
            ));
            break;
        }
        replayed += 1;
    }
    Ok(Replay {
        tenant,
        generation: read.generation,
        replayed,
        intact: read.records.len(),
        damaged: read.corruption.is_some(),
        notes,
        commit: read.commit,
    })
}

/// What a restart would make of one tenant, as [`audit_data_dir`] found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAudit {
    /// The generation a restart serves.
    pub generation: u64,
    /// Journal records a restart replays onto that generation's snapshot.
    pub replayed: usize,
    /// Jobs live after the replay.
    pub live_jobs: usize,
    /// What the read and the replay found wrong, one line each; empty for a
    /// clean tenant.
    pub notes: Vec<String>,
}

/// Audit a data directory offline, writing nothing: every tenant in it goes
/// through the read and replay startup recovery runs, so the verdict is
/// recovery's by construction.  Each tenant, in name order, maps to what a
/// restart would serve, or to why a restart would skip it.
pub fn audit_data_dir(data_dir: &Path) -> io::Result<Vec<(String, Result<TenantAudit, String>)>> {
    let store = Store::open(data_dir, 1)?;
    let names = store.tenant_names()?;
    Ok(names
        .into_iter()
        .map(|name| {
            let audit = replay_tenant(&store, &name)
                .map(|replay| TenantAudit {
                    generation: replay.generation,
                    replayed: replay.replayed,
                    live_jobs: replay.tenant.scheduler.live_count(),
                    notes: replay.notes,
                })
                .map_err(|e| e.to_string());
            (name, audit)
        })
        .collect())
}

/// One record of a tenant's journal, decoded under the wire bounds: an online event
/// or a journaled defrag pass.
///
/// The shards write every record through [`JournalRecord::encode`], and the one
/// read-and-replay behind server recovery and `busytime fsck` reads journals
/// through [`JournalRecord::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// An arrival or a departure.
    Event(Event),
    /// A `compact` pass with this move budget.
    Compact(usize),
}

impl JournalRecord {
    /// The journal bytes of this record in `tenant`'s log: the record's wire
    /// request as JSON, which [`JournalRecord::decode`] reads back.
    pub fn encode(&self, tenant: &str) -> String {
        match self {
            JournalRecord::Event(event) => Request::event_record_json(tenant, event),
            JournalRecord::Compact(budget) => Request::Compact {
                tenant: tenant.to_string(),
                budget: *budget,
            }
            .to_json(),
        }
    }

    /// Decode one record of `tenant`'s journal.  A record that is not UTF-8 wire
    /// JSON, that names another tenant or another operation, or whose job window is
    /// empty or outside [`MAX_ABS_TICK`](super::MAX_ABS_TICK) is an error
    /// describing why.
    pub fn decode(tenant: &str, record: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(record).map_err(|e| format!("record is not UTF-8: {e}"))?;
        match Request::from_json(text)? {
            Request::Arrive {
                tenant: owner,
                id,
                job,
            } if owner == tenant => checked_window(job.0, job.1)
                .map(|interval| JournalRecord::Event(Event::arrival(id, interval))),
            Request::Depart { tenant: owner, id } if owner == tenant => {
                Ok(JournalRecord::Event(Event::departure(id)))
            }
            Request::Compact {
                tenant: owner,
                budget,
            } if owner == tenant => Ok(JournalRecord::Compact(budget)),
            other => Err(format!("unexpected '{}' record", other.op())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime::Interval;

    #[test]
    fn journal_records_encode_as_their_wire_requests_and_decode_back() {
        let arrival = Event::arrival(7, Interval::from_ticks(-3, 12));
        let departure = Event::departure(i64::MAX as u64);
        let records = [
            JournalRecord::Event(arrival),
            JournalRecord::Event(departure),
            JournalRecord::Compact(4),
        ];
        for tenant in ["acme", "a \"quoted\" name"] {
            for event in [arrival, departure, Event::departure(u64::MAX)] {
                assert_eq!(
                    JournalRecord::Event(event).encode(tenant),
                    Request::event_record_json(tenant, &event)
                );
            }
            assert_eq!(
                JournalRecord::Compact(4).encode(tenant),
                Request::Compact {
                    tenant: tenant.to_string(),
                    budget: 4,
                }
                .to_json()
            );
            for record in records {
                let bytes = record.encode(tenant);
                assert_eq!(JournalRecord::decode(tenant, bytes.as_bytes()), Ok(record));
            }
        }
    }
}
