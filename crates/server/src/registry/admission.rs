//! Admission control: per-tenant token buckets and in-flight guards, checked
//! before a tenant-scoped request may queue on its shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use super::{AdmissionConfig, QUEUE_WAIT_MS};
use crate::protocol::{Response, TenantHealth};

/// A token bucket's live state: fractional tokens plus the last refill instant.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// One tenant's admission state.
#[derive(Debug)]
struct TenantGate {
    inflight: AtomicUsize,
    shed: AtomicU64,
    bucket: Mutex<Bucket>,
}

impl TenantGate {
    fn new(rate: Option<f64>) -> Self {
        TenantGate {
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            bucket: Mutex::new(Bucket {
                // A fresh tenant starts with a full bucket (one second's burst).
                tokens: rate.map_or(0.0, |r| r.max(1.0)),
                last: Instant::now(),
            }),
        }
    }
}

/// Decrements its tenant's in-flight count when the request's response is in
/// hand (or the request was dropped on the floor).
pub(super) struct InflightGuard {
    gate: Arc<TenantGate>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared admission state: the config plus one gate per tenant seen.
pub(super) struct Admission {
    config: AdmissionConfig,
    tenants: Mutex<HashMap<String, Arc<TenantGate>>>,
}

impl Admission {
    pub(super) fn new(config: AdmissionConfig) -> Self {
        Admission {
            config,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn gate(&self, tenant: &str) -> Arc<TenantGate> {
        let mut map = self.tenants.lock().expect("admission map lock");
        map.entry(tenant.to_string())
            .or_insert_with(|| Arc::new(TenantGate::new(self.config.tenant_rate)))
            .clone()
    }

    /// Admit one request for `tenant`: check the in-flight cap and the rate
    /// quota, or answer the `overloaded` response the caller should return.
    /// The `Err` carries the full `Response` by design — it travels straight
    /// back to the caller on the one path where size does not matter.
    #[allow(clippy::result_large_err)]
    pub(super) fn admit(&self, tenant: &str) -> Result<InflightGuard, Response> {
        let gate = self.gate(tenant);
        let previous = gate.inflight.fetch_add(1, Ordering::AcqRel);
        if previous >= self.config.max_inflight {
            gate.inflight.fetch_sub(1, Ordering::AcqRel);
            gate.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Response::overloaded(
                format!(
                    "tenant '{tenant}' already has {previous} request(s) in flight \
                     (cap {})",
                    self.config.max_inflight
                ),
                QUEUE_WAIT_MS,
            ));
        }
        let guard = InflightGuard { gate: gate.clone() };
        if let Some(rate) = self.config.tenant_rate {
            let mut bucket = gate.bucket.lock().expect("token bucket lock");
            let now = Instant::now();
            let elapsed = now.duration_since(bucket.last).as_secs_f64();
            bucket.last = now;
            bucket.tokens = (bucket.tokens + elapsed * rate).min(rate.max(1.0));
            if bucket.tokens >= 1.0 {
                bucket.tokens -= 1.0;
            } else {
                let wait_ms = (((1.0 - bucket.tokens) / rate) * 1000.0).ceil() as u64;
                drop(bucket);
                gate.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Response::overloaded(
                    format!("tenant '{tenant}' exceeded its quota of {rate} request(s)/s"),
                    wait_ms.max(1),
                ));
            }
        }
        Ok(guard)
    }

    /// Record a queue-full shed against `tenant` (the request was admitted but
    /// its shard's queue never drained).
    pub(super) fn note_shed(&self, tenant: &str) {
        self.gate(tenant).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Tenants that have been shed at least once, sorted by name.
    pub(super) fn degraded(&self) -> Vec<TenantHealth> {
        let map = self.tenants.lock().expect("admission map lock");
        let mut out: Vec<TenantHealth> = map
            .iter()
            .filter_map(|(name, gate)| {
                let shed = gate.shed.load(Ordering::Relaxed);
                (shed > 0).then(|| TenantHealth {
                    tenant: name.clone(),
                    shed,
                    inflight: gate.inflight.load(Ordering::Relaxed),
                })
            })
            .collect();
        out.sort_unstable_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}
