//! The pending pool `R_p` that Assign, GAS and RTV carry across batches:
//! requests not served yet, retried until their pickup deadlines pass, plus
//! the pool's peak size (Fig. 14).  Every view comes back in ascending
//! request-id order, so no caller sorts.  SARD keeps its pool inside the
//! shareability-graph builder instead: that pool carries edges, and its
//! expiry (Alg. 3 line 17) lives in `structride_sharegraph`.

use crate::dispatcher::PendingSnapshot;
use std::collections::HashMap;
use structride_model::{Request, RequestId};

/// Requests carried from batch to batch, with the peak pool size.
#[derive(Debug, Default)]
pub struct PendingPool {
    requests: HashMap<RequestId, Request>,
    /// The largest pool size right after a batch's arrivals.
    peak: usize,
}

impl PendingPool {
    /// Inserts a batch released by `now`, updates the peak, then drops every
    /// pooled request whose pickup deadline has passed.
    pub fn admit(&mut self, batch: &[Request], now: f64) {
        for r in batch {
            self.requests.insert(r.id, r.clone());
        }
        self.peak = self.peak.max(self.requests.len());
        self.requests.retain(|_, r| !r.is_expired(now));
    }

    /// The pooled request ids, ascending.
    pub fn ids(&self) -> Vec<RequestId> {
        let mut ids: Vec<RequestId> = self.requests.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The pooled requests by id (what group enumeration reads).
    pub fn requests(&self) -> &HashMap<RequestId, Request> {
        &self.requests
    }

    /// Removes a served request.
    pub fn remove(&mut self, id: RequestId) -> Option<Request> {
        self.requests.remove(&id)
    }

    /// Number of pooled requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Fig. 14's estimate: the peak size times a request and its map entry.
    pub fn peak_bytes(&self) -> usize {
        self.peak * (std::mem::size_of::<Request>() + 16)
    }

    /// Drains the pool, ascending by id.
    pub fn take(&mut self) -> Vec<Request> {
        let mut pool: Vec<Request> = self.requests.drain().map(|(_, r)| r).collect();
        pool.sort_unstable_by_key(|r| r.id);
        pool
    }

    /// The pool as a checkpoint snapshot (ascending by id, no edges).
    pub fn snapshot(&self) -> PendingSnapshot {
        let mut pool: Vec<Request> = self.requests.values().cloned().collect();
        pool.sort_unstable_by_key(|r| r.id);
        PendingSnapshot {
            pool,
            ..PendingSnapshot::default()
        }
    }

    /// Pools a snapshot's requests as carried over from an earlier batch;
    /// the peak is left alone.
    pub fn restore(&mut self, snapshot: PendingSnapshot) {
        for r in snapshot.pool {
            self.requests.insert(r.id, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_counts_the_peak_before_expiry_and_views_are_sorted() {
        let req = |id, max_wait| Request::with_detour(id, 0, 1, 1, 0.0, 10.0, 2.0, max_wait);
        let mut pool = PendingPool::default();
        pool.admit(&[req(9, 300.0), req(3, 0.0), req(7, 300.0)], 5.0);
        assert_eq!(pool.ids(), vec![7, 9], "request 3 expired on admission");
        assert_eq!(pool.peak_bytes(), 3 * (std::mem::size_of::<Request>() + 16));
        assert_eq!(pool.remove(9).map(|r| r.id), Some(9));
        let mut restored = PendingPool::default();
        restored.restore(pool.snapshot());
        assert_eq!((restored.ids(), restored.peak_bytes()), (vec![7], 0));
        assert_eq!(restored.take()[0].id, 7);
        assert!(restored.is_empty());
    }
}
