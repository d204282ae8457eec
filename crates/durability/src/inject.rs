//! Deterministic I/O fault injection for chaos testing.
//!
//! A [`FaultInjector`] is a hook consulted immediately before each real disk
//! operation on a journal.  Production servers never install one, so the hot
//! path pays a single `Option` check; chaos tests install a seeded schedule
//! and replay byte-identical failure sequences.  The hook *replaces* the I/O
//! with an error when it fires — the underlying write or fsync is never
//! issued, so an injected failure leaves the file exactly as it was.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Where in the journal's I/O path a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPoint {
    /// Before a record's `write(2)` in [`TenantLog::append`](crate::TenantLog::append).
    Append,
    /// Before the `fsync` in [`TenantLog::sync`](crate::TenantLog::sync) (only consulted when
    /// there are pending appends to sync).
    Sync,
}

/// A shared, injectable I/O fault hook: returns `Some(error)` to make the next
/// operation at `point` fail, `None` to let it through.
#[derive(Clone)]
pub struct FaultInjector(Arc<dyn Fn(IoPoint) -> Option<io::Error> + Send + Sync>);

impl FaultInjector {
    /// Wrap a decision function.  The function is called once per I/O
    /// operation and must be cheap and thread-safe.
    pub fn new(decide: impl Fn(IoPoint) -> Option<io::Error> + Send + Sync + 'static) -> Self {
        FaultInjector(Arc::new(decide))
    }

    /// Consult the hook: `Err` when a fault fires at this point.
    pub fn check(&self, point: IoPoint) -> io::Result<()> {
        match (self.0)(point) {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultInjector(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn the_hook_fires_where_its_decision_says() {
        let appends = Arc::new(AtomicU64::new(0));
        let seen = appends.clone();
        let injector = FaultInjector::new(move |point| {
            if point == IoPoint::Append && seen.fetch_add(1, Ordering::Relaxed) == 1 {
                Some(io::Error::other("injected"))
            } else {
                None
            }
        });
        assert!(injector.check(IoPoint::Append).is_ok());
        let err = injector.check(IoPoint::Append).unwrap_err();
        assert_eq!(err.to_string(), "injected");
        assert!(injector.check(IoPoint::Sync).is_ok());
    }
}
