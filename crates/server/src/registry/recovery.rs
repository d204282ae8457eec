//! What a tenant looks like on disk, and how a shard reads it back: the
//! journal record format ([`JournalRecord`]), the snapshot format, and the
//! recovery that rebuilds a shard's tenants at startup and on respawn.

use busytime::online::{Event, OnlineScheduler, OnlineSnapshot};
use busytime_durability::Store;

use super::apply::{apply_event, checked_window};
use super::shard::{ShardState, Tenant};
use super::shard_index;
use crate::protocol::{Request, Response};

/// Serialize a scheduler's snapshot for the durable store.
pub(super) fn snapshot_json(scheduler: &OnlineScheduler) -> String {
    serde_json::to_string(&scheduler.snapshot()).expect("snapshots always serialize")
}

/// Rebuild this shard's tenants from the data directory: for every stored
/// tenant that hashes here, restore the newest snapshot and replay the journal
/// tail through [`apply_event`] — the same path live requests take, so the
/// recovered scheduler is the one an uninterrupted run would hold.  Tenants
/// that fail to recover are skipped with a diagnostic; recovery never aborts
/// the shard.
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

/// Rebuild one tenant: restore its newest parseable snapshot, then replay the
/// journal tail.  A record that cannot be parsed or applied ends the replay at
/// the last good event and the repaired state is compacted to disk, so the
/// broken tail cannot strand later appends; journal-frame corruption was
/// already truncated away by the store's scan.
fn recover_tenant(store: &Store, name: &str) -> std::io::Result<(Tenant, Vec<String>)> {
    let recovered = store.load_tenant(name, |json| -> Result<OnlineScheduler, String> {
        let snapshot: OnlineSnapshot =
            serde_json::from_str(json).map_err(|e| format!("snapshot does not parse: {e}"))?;
        OnlineScheduler::restore(&snapshot).map_err(|e| e.to_string())
    })?;
    let mut tenant = Tenant {
        scheduler: recovered.value,
        trajectory: Vec::new(),
        log: None,
    };
    let mut notes = recovered.notes;
    let mut log = recovered.log;
    let mut anomaly = None;
    for (index, record) in recovered.records.iter().enumerate() {
        let failure = match JournalRecord::decode(name, record) {
            Ok(JournalRecord::Event(event)) => match apply_event(&mut tenant, &event) {
                Response::Error(error) => Some(error.message),
                _ => None,
            },
            // `compact` is a pure function of the placements it finds, and the
            // replayed scheduler holds exactly the placements the live one held
            // when the record was journaled — so replaying it commits the same
            // moves.  Journal appends are skipped here (`log` is rebuilt below).
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
            anomaly = Some(format!(
                "journal record {index} does not replay ({failure}); keeping the {index} \
                 event(s) before it"
            ));
            break;
        }
    }
    if let Some(anomaly) = anomaly {
        // Persist the repaired state: a fresh snapshot supersedes the whole
        // journal including its unreplayable tail.  If even that fails, skip
        // the tenant rather than appending after a tail we could not replay.
        log.compact(&snapshot_json(&tenant.scheduler))?;
        notes.push(anomaly);
    }
    tenant.log = Some(log);
    Ok((tenant, notes))
}

/// One record of a tenant's journal, decoded under the wire bounds: an online event
/// or a journaled defrag pass.
///
/// The shards write every record through [`JournalRecord::encode`], and server
/// recovery and `busytime fsck` both read journals through
/// [`JournalRecord::decode`], so fsck passes exactly the records recovery replays.
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
