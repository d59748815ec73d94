//! The dynamic micro-batcher: coalesces queued requests into batched
//! forward passes under a max-batch / max-delay policy.
//!
//! One batched forward computes the union of its requests' receptive
//! fields (`tcg_gnn::receptive`): every request against the same graph
//! shares a single pass, and neighbouring targets share the row windows
//! they both read. Requests against *different* graphs can never share a
//! pass, so the batcher keeps one open batch per graph.
//!
//! Batch formation is a pure function of the arrival trace: a batch closes
//! either when it reaches `max_batch` requests (closing at the triggering
//! arrival's timestamp) or when the virtual clock passes its oldest
//! request's age limit (closing at exactly `open_ms + max_delay_ms`).
//! Nothing about execution timing feeds back into formation, which is what
//! makes multi-stream serving schedules reproducible.

use crate::request::Request;

/// The coalescing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Close a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Close a batch this many simulated milliseconds after its first
    /// request arrived, full or not.
    pub max_delay_ms: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
        }
    }
}

/// A batch the policy has sealed, ready for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedBatch {
    /// Graph all member requests target.
    pub graph: usize,
    /// When the batch sealed on the simulated clock.
    pub close_ms: f64,
    /// Member requests, in arrival order.
    pub requests: Vec<Request>,
}

#[derive(Debug)]
struct OpenBatch {
    graph: usize,
    open_ms: f64,
    requests: Vec<Request>,
}

/// Per-graph open batches plus the policy that seals them.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    open: Vec<OpenBatch>,
}

impl Batcher {
    /// A batcher with no open batches.
    pub fn new(policy: BatchPolicy) -> Self {
        let policy = BatchPolicy {
            max_batch: policy.max_batch.max(1),
            max_delay_ms: policy.max_delay_ms.max(0.0),
        };
        Batcher {
            policy,
            open: Vec::new(),
        }
    }

    /// The (sanitized) policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Re-targets the size trigger (clamped to at least 1) — the brownout
    /// ladder's first rung shrinks batches to cut queueing delay. Open
    /// batches are not retroactively sealed; the new bound applies from the
    /// next [`Batcher::offer`] on.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.policy.max_batch = max_batch.max(1);
    }

    /// Requests currently queued in open batches — the admission queue's
    /// occupancy.
    pub fn pending(&self) -> usize {
        self.open.iter().map(|b| b.requests.len()).sum()
    }

    /// Seals every open batch whose age limit expires at or before
    /// `now_ms`, returning them ordered by close time (ties broken by batch
    /// open order).
    pub fn flush_due(&mut self, now_ms: f64) -> Vec<ClosedBatch> {
        let delay = self.policy.max_delay_ms;
        let mut due = Vec::new();
        self.open.retain_mut(|b| {
            if b.open_ms + delay <= now_ms {
                due.push(ClosedBatch {
                    graph: b.graph,
                    close_ms: b.open_ms + delay,
                    requests: std::mem::take(&mut b.requests),
                });
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| a.close_ms.partial_cmp(&b.close_ms).expect("finite times"));
        due
    }

    /// Adds an (already admitted) request to its graph's open batch,
    /// sealing and returning the batch if it reaches `max_batch`.
    ///
    /// Callers must first drain [`Batcher::flush_due`] at the request's
    /// arrival time so age-based closes happen before this size-based one.
    pub fn offer(&mut self, req: Request) -> Option<ClosedBatch> {
        let arrival = req.arrival_ms;
        let graph = req.graph;
        match self.open.iter_mut().find(|b| b.graph == graph) {
            Some(b) => b.requests.push(req),
            None => self.open.push(OpenBatch {
                graph,
                open_ms: arrival,
                requests: vec![req],
            }),
        }
        let pos = self
            .open
            .iter()
            .position(|b| b.graph == graph)
            .expect("just inserted");
        if self.open[pos].requests.len() >= self.policy.max_batch {
            let b = self.open.remove(pos);
            Some(ClosedBatch {
                graph: b.graph,
                close_ms: arrival,
                requests: b.requests,
            })
        } else {
            None
        }
    }

    /// Seals every remaining open batch at its age limit (end of trace:
    /// the delay timer is the only thing left that can fire). Ordered by
    /// close time, ties by open order.
    pub fn flush_all(&mut self) -> Vec<ClosedBatch> {
        let delay = self.policy.max_delay_ms;
        let mut rest: Vec<ClosedBatch> = self
            .open
            .drain(..)
            .map(|b| ClosedBatch {
                graph: b.graph,
                close_ms: b.open_ms + delay,
                requests: b.requests,
            })
            .collect();
        rest.sort_by(|a, b| a.close_ms.partial_cmp(&b.close_ms).expect("finite times"));
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival_ms: f64, graph: usize) -> Request {
        Request {
            id,
            arrival_ms,
            graph,
            node: id as usize,
            deadline_ms: None,
            priority: crate::request::Priority::Normal,
        }
    }

    #[test]
    fn set_max_batch_applies_to_subsequent_offers() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 4,
            max_delay_ms: 100.0,
        });
        assert!(b.offer(req(0, 0.0, 0)).is_none());
        b.set_max_batch(2);
        let closed = b.offer(req(1, 1.0, 0)).expect("shrunk bound seals at 2");
        assert_eq!(closed.requests.len(), 2);
        b.set_max_batch(0);
        assert_eq!(b.policy().max_batch, 1, "clamped to at least 1");
    }

    #[test]
    fn size_trigger_closes_at_arrival_time() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_delay_ms: 100.0,
        });
        assert!(b.offer(req(0, 1.0, 0)).is_none());
        assert_eq!(b.pending(), 1);
        let closed = b.offer(req(1, 3.0, 0)).expect("full batch closes");
        assert_eq!(closed.close_ms, 3.0);
        assert_eq!(closed.requests.len(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn delay_trigger_closes_at_age_limit_not_at_probe_time() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 10,
            max_delay_ms: 2.0,
        });
        b.offer(req(0, 1.0, 0));
        assert!(b.flush_due(2.9).is_empty());
        let due = b.flush_due(50.0);
        assert_eq!(due.len(), 1);
        // Sealed when the timer expired (t=3), not when we noticed (t=50).
        assert_eq!(due[0].close_ms, 3.0);
    }

    #[test]
    fn batches_never_mix_graphs() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_delay_ms: 10.0,
        });
        assert!(b.offer(req(0, 0.0, 0)).is_none());
        assert!(b.offer(req(1, 0.5, 1)).is_none());
        let closed = b.offer(req(2, 1.0, 0)).expect("graph 0 fills");
        assert!(closed.requests.iter().all(|r| r.graph == 0));
        assert_eq!(b.pending(), 1);
        let rest = b.flush_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].graph, 1);
        assert_eq!(rest[0].close_ms, 10.5);
    }

    #[test]
    fn flush_orders_by_close_time() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 10,
            max_delay_ms: 1.0,
        });
        b.offer(req(0, 5.0, 1));
        b.offer(req(1, 2.0, 0));
        let due = b.flush_due(100.0);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].graph, 0);
        assert_eq!(due[0].close_ms, 3.0);
        assert_eq!(due[1].close_ms, 6.0);
    }
}
