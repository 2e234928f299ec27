//! The queue service (paper §3.3, Fig 3; §5.2 retry semantics).
//!
//! "The main purpose of the queue storage service in Windows Azure is to
//! provide a communication facility between web roles and worker roles."
//!
//! Semantics modelled faithfully because ModisAzure depends on them:
//! * **Add** appends a message (synchronous 3-replica write);
//! * **Peek** reads the head without changing state (fastest op — no
//!   replication synchronization, any replica can answer);
//! * **Receive** (Get) makes the head invisible for a visibility timeout
//!   and hands back a pop receipt; "a queue message that is not
//!   explicitly removed after a specified time-period will re-appear in
//!   the queue automatically" (§5.2);
//! * **Delete-message** requires a matching pop receipt; if the message
//!   re-appeared and was re-received, the stale receipt fails — exactly
//!   the corruption hazard §5.2 describes;
//! * visibility timeout is capped at 2 h (§5.2).
//!
//! Performance: Add/Receive commit through a queue-head latch whose hold
//! inflates with contention (aggregate peaks at ~64 clients: 569 and
//! 424 ops/s), Peek rides a load-dependent station (still rising at 192
//! clients: 3392 → 3878 ops/s). Queue *length* does not appear in any
//! cost term — "there is not much variation in performance as the queue
//! grows in size from 200,000 messages to 2 million messages".

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use simcore::prelude::*;

use simfault::RetryPolicy;
use simtrace::Layer;

use crate::calib;
use crate::error::{Result, StorageError};
use crate::stamp::StampConfig;
use crate::station::{ContendedLatch, LoadedStation};
use crate::trace_outcome;

/// A queued message (payload modelled by size plus an opaque body tag the
/// application uses to identify work items).
#[derive(Debug, Clone)]
pub struct Message {
    /// Server-assigned id.
    pub id: u64,
    /// Application payload tag (e.g. a task id).
    pub body: String,
    /// Payload size in bytes (drives the per-kB cost term).
    pub size: f64,
    /// Enqueue time.
    pub inserted: SimTime,
    /// Times this message has been received (re-deliveries increment it).
    pub dequeue_count: u32,
}

/// Receipt proving a specific receive; required to delete the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopReceipt {
    id: u64,
    visible_at: SimTime,
}

/// A received message plus its receipt.
#[derive(Debug, Clone)]
pub struct ReceivedMessage {
    /// The message content.
    pub message: Message,
    /// Receipt for the follow-up delete.
    pub receipt: PopReceipt,
}

#[derive(Default)]
struct QueueData {
    // Ordered by (visible_at, id): the first entry is the next deliverable
    // message once its visibility time has passed. Fresh messages enter
    // with visible_at = now, so FIFO order is (time, id).
    messages: BTreeMap<(SimTime, u64), Message>,
}

/// Per-queue performance state: each queue maps to one partition server,
/// so both the mutation latches and the load-dependent stations are
/// per-queue — which is why §6.1 recommends sharding hot workloads
/// across multiple queues.
struct QueuePerf {
    add_latch: Rc<ContendedLatch>,
    recv_latch: Rc<ContendedLatch>,
    peek_station: Rc<LoadedStation>,
    add_station: Rc<LoadedStation>,
    recv_station: Rc<LoadedStation>,
}

/// The named queue, created empty on first use. Looks up before it
/// inserts, so the name is copied only the first time.
fn queue_mut<'a>(queues: &'a mut HashMap<String, QueueData>, queue: &str) -> &'a mut QueueData {
    if !queues.contains_key(queue) {
        queues.insert(queue.to_string(), QueueData::default());
    }
    queues.get_mut(queue).expect("inserted above")
}

/// Server-side queue service.
pub struct QueueService {
    sim: Sim,
    cfg: StampConfig,
    queues: RefCell<HashMap<String, QueueData>>,
    perf: RefCell<HashMap<String, Rc<QueuePerf>>>,
    next_id: Cell<u64>,
    rng: RefCell<SimRng>,
    ops: Cell<u64>,
    door: Option<Rc<crate::admit::FrontDoor>>,
}

impl QueueService {
    pub(crate) fn new(sim: &Sim, cfg: &StampConfig) -> Rc<Self> {
        Rc::new(QueueService {
            sim: sim.clone(),
            cfg: cfg.clone(),
            queues: RefCell::new(HashMap::new()),
            perf: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            rng: RefCell::new(sim.rng(&cfg.scoped("queue.service"))),
            ops: Cell::new(0),
            door: crate::admit::FrontDoor::build(sim, &cfg.admission),
        })
    }

    /// The service's admission gate, when one is configured.
    pub fn front_door(&self) -> Option<&Rc<crate::admit::FrontDoor>> {
        self.door.as_ref()
    }

    /// Total `ContendedLatch` sheds across every queue's add/recv latch.
    pub fn latch_shed_total(&self) -> u64 {
        self.perf
            .borrow()
            .values()
            .map(|p| p.add_latch.shed_total() + p.recv_latch.shed_total())
            .sum()
    }

    /// Front-door admission check (no-op `Ok(None)` when admission is
    /// off). Runs synchronously at op entry, before any await.
    fn admit(&self) -> Result<Option<crate::admit::AdmitPermit>> {
        match &self.door {
            Some(d) => d.admit().map(Some),
            None => Ok(None),
        }
    }

    /// Total operations served.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Current message count of a queue (including invisible ones).
    pub fn len(&self, queue: &str) -> usize {
        self.queues
            .borrow()
            .get(queue)
            .map_or(0, |q| q.messages.len())
    }

    /// True if the queue holds no messages at all.
    pub fn is_empty(&self, queue: &str) -> bool {
        self.len(queue) == 0
    }

    /// Seed `n` messages instantly (fixture for the queue-length
    /// invariance experiment: 200 k vs 2 M messages).
    pub fn seed_messages(&self, queue: &str, n: usize, size: f64) {
        let now = self.sim.now();
        let mut queues = self.queues.borrow_mut();
        let q = queue_mut(&mut queues, queue);
        for _ in 0..n {
            let id = self.next_id.get();
            self.next_id.set(id + 1);
            q.messages.insert(
                (now, id),
                Message {
                    id,
                    body: String::new(),
                    size,
                    inserted: now,
                    dequeue_count: 0,
                },
            );
        }
    }

    fn perf_of(&self, queue: &str) -> Rc<QueuePerf> {
        if let Some(perf) = self.perf.borrow().get(queue) {
            return Rc::clone(perf);
        }
        let perf = Rc::new(self.new_perf());
        self.perf
            .borrow_mut()
            .insert(queue.to_string(), Rc::clone(&perf));
        perf
    }

    /// The stations and latches of one queue's partition server.
    fn new_perf(&self) -> QueuePerf {
        let j = self.cfg.jitter_sigma;
        let nscale = |n: f64| {
            if self.cfg.ablate_no_latch_inflation {
                f64::INFINITY
            } else {
                n
            }
        };
        let cap = &self.cfg.capacity;
        QueuePerf {
            add_latch: Rc::new(
                ContendedLatch::new(
                    &self.sim,
                    calib::QUEUE_ADD_HOLD_S,
                    nscale(calib::QUEUE_ADD_HOLD_NSCALE),
                    j,
                    calib::TABLE_BUSY_QUEUE_LIMIT,
                )
                .with_capacity(cap.clone()),
            ),
            recv_latch: Rc::new(
                ContendedLatch::new(
                    &self.sim,
                    calib::QUEUE_RECV_HOLD_S,
                    nscale(calib::QUEUE_RECV_HOLD_NSCALE),
                    j,
                    calib::TABLE_BUSY_QUEUE_LIMIT,
                )
                .with_capacity(cap.clone()),
            ),
            peek_station: Rc::new(
                LoadedStation::new(
                    &self.sim,
                    calib::QUEUE_PEEK_BASE_S,
                    calib::QUEUE_PEEK_LOAD_S,
                    j,
                )
                .with_capacity(cap.clone()),
            ),
            add_station: Rc::new(
                LoadedStation::new(
                    &self.sim,
                    calib::QUEUE_ADD_BASE_S,
                    calib::QUEUE_ADD_LOAD_S,
                    j,
                )
                .with_capacity(cap.clone()),
            ),
            recv_station: Rc::new(
                LoadedStation::new(
                    &self.sim,
                    calib::QUEUE_RECV_BASE_S,
                    calib::QUEUE_RECV_LOAD_S,
                    j,
                )
                .with_capacity(cap.clone()),
            ),
        }
    }

    fn bump(&self) {
        self.ops.set(self.ops.get() + 1);
    }

    fn fault(&self, p: f64) -> bool {
        self.cfg.faults.enabled && self.rng.borrow_mut().chance(p)
    }

    /// Connection-level fault draw, in `RetryPolicy` precheck form.
    fn connection_precheck(&self) -> Option<StorageError> {
        if self.fault(self.cfg.faults.connection_fail_p) {
            Some(StorageError::ConnectionFailed)
        } else {
            None
        }
    }

    /// The 2009 queue SDK ran each op under the client timeout with no
    /// automatic retry (re-delivery via visibility timeout is the
    /// recovery mechanism, §5.2).
    fn op_policy(&self) -> RetryPolicy {
        RetryPolicy::none().with_timeout(self.cfg.op_timeout)
    }
}

/// Per-VM queue client.
pub struct QueueClient {
    svc: Rc<QueueService>,
    rng: RefCell<SimRng>,
}

impl QueueClient {
    pub(crate) fn new(svc: &Rc<QueueService>, client_id: u64) -> Self {
        QueueClient {
            svc: Rc::clone(svc),
            rng: RefCell::new(
                svc.sim
                    .rng(&svc.cfg.scoped(&format!("queue.client.{client_id}"))),
            ),
        }
    }

    /// Enqueue a message of `size` bytes with an application body tag.
    pub async fn add(&self, queue: &str, body: impl Into<String>, size: f64) -> Result<u64> {
        let sp = simtrace::span(Layer::Store, "queue.add", || format!("queue:{queue}"));
        let svc = &self.svc;
        let body = body.into();
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("add");
            let kb = size / calib::KB;
            let perf = svc.perf_of(queue);
            let fe = sp.child("frontend", || "add_station".into());
            perf.add_station
                .serve(kb * calib::QUEUE_PAYLOAD_S_PER_KB, &mut rng)
                .await;
            fe.end();
            crate::injected_commit_stall(&svc.sim).await;
            let cm = sp.child("partition.commit", || "queue_head_latch".into());
            perf.add_latch.commit(1.0, &mut rng).await?;
            cm.end();
            let id = svc.next_id.get();
            svc.next_id.set(id + 1);
            let now = svc.sim.now();
            queue_mut(&mut svc.queues.borrow_mut(), queue)
                .messages
                .insert(
                    (now, id),
                    Message {
                        id,
                        body,
                        size,
                        inserted: now,
                        dequeue_count: 0,
                    },
                );
            svc.bump();
            Ok(id)
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }

    /// Read the head message without changing queue state.
    pub async fn peek(&self, queue: &str) -> Result<Option<Message>> {
        let sp = simtrace::span(Layer::Store, "queue.peek", || format!("queue:{queue}"));
        let svc = &self.svc;
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("peek");
            let perf = svc.perf_of(queue);
            let fe = sp.child("frontend", || "peek_station".into());
            perf.peek_station.serve(0.0, &mut rng).await;
            fe.end();
            let now = svc.sim.now();
            let head = svc.queues.borrow().get(queue).and_then(|q| {
                q.messages
                    .iter()
                    .next()
                    .filter(|((vis, _), _)| *vis <= now)
                    .map(|(_, m)| m.clone())
            });
            svc.bump();
            Ok(head)
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }

    /// Receive the head message, making it invisible for `visibility`
    /// (clamped to the 2 h maximum). `None` if nothing is deliverable.
    pub async fn receive(
        &self,
        queue: &str,
        visibility: SimDuration,
    ) -> Result<Option<ReceivedMessage>> {
        let sp = simtrace::span(Layer::Store, "queue.receive", || format!("queue:{queue}"));
        let svc = &self.svc;
        let visibility = visibility.min(SimDuration::from_secs_f64(calib::QUEUE_MAX_VISIBILITY_S));
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("recv");
            let perf = svc.perf_of(queue);
            let fe = sp.child("frontend", || "recv_station".into());
            perf.recv_station.serve(0.0, &mut rng).await;
            fe.end();
            crate::injected_commit_stall(&svc.sim).await;
            let cm = sp.child("partition.commit", || "queue_head_latch".into());
            perf.recv_latch.commit(1.0, &mut rng).await?;
            cm.end();
            let now = svc.sim.now();
            let mut queues = svc.queues.borrow_mut();
            let q = match queues.get_mut(queue) {
                Some(q) => q,
                None => {
                    svc.bump();
                    return Ok(None);
                }
            };
            let key = q
                .messages
                .iter()
                .next()
                .filter(|((vis, _), _)| *vis <= now)
                .map(|(k, _)| *k);
            svc.bump();
            match key {
                Some(k) => {
                    let mut m = q.messages.remove(&k).expect("key just observed");
                    m.dequeue_count += 1;
                    let visible_at = now + visibility;
                    let receipt = PopReceipt {
                        id: m.id,
                        visible_at,
                    };
                    q.messages.insert((visible_at, m.id), m.clone());
                    Ok(Some(ReceivedMessage {
                        message: m,
                        receipt,
                    }))
                }
                None => Ok(None),
            }
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }

    /// Receive with the API's default 30 s visibility timeout.
    pub async fn receive_default(&self, queue: &str) -> Result<Option<ReceivedMessage>> {
        self.receive(
            queue,
            SimDuration::from_secs_f64(calib::QUEUE_DEFAULT_VISIBILITY_S),
        )
        .await
    }

    /// Batch receive: up to `max` messages (the 2009 GetMessages API
    /// capped batches at 32) in one latch acquisition — cheaper per
    /// message than repeated single receives, which is how high-volume
    /// consumers amortized the replica-sync cost.
    pub async fn receive_batch(
        &self,
        queue: &str,
        max: usize,
        visibility: SimDuration,
    ) -> Result<Vec<ReceivedMessage>> {
        let sp = simtrace::span(Layer::Store, "queue.receive_batch", || {
            format!("queue:{queue}")
        });
        let svc = &self.svc;
        let max = max.clamp(1, 32);
        if sp.is_recording() {
            sp.attr("max", max);
        }
        let visibility = visibility.min(SimDuration::from_secs_f64(calib::QUEUE_MAX_VISIBILITY_S));
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("recvb");
            let perf = svc.perf_of(queue);
            let fe = sp.child("frontend", || "recv_station".into());
            perf.recv_station.serve(0.0, &mut rng).await;
            fe.end();
            // One synchronization commit covers the whole batch, plus a
            // small per-extra-message cost.
            crate::injected_commit_stall(&svc.sim).await;
            let cm = sp.child("partition.commit", || "queue_head_latch".into());
            perf.recv_latch
                .commit(1.0 + 0.15 * (max as f64 - 1.0), &mut rng)
                .await?;
            cm.end();
            let now = svc.sim.now();
            let mut queues = svc.queues.borrow_mut();
            let q = match queues.get_mut(queue) {
                Some(q) => q,
                None => {
                    svc.bump();
                    return Ok(Vec::new());
                }
            };
            let mut out = Vec::new();
            for _ in 0..max {
                let key = q
                    .messages
                    .iter()
                    .next()
                    .filter(|((vis, _), _)| *vis <= now)
                    .map(|(k, _)| *k);
                let Some(k) = key else { break };
                let mut m = q.messages.remove(&k).expect("key just observed");
                m.dequeue_count += 1;
                let visible_at = now + visibility;
                let receipt = PopReceipt {
                    id: m.id,
                    visible_at,
                };
                q.messages.insert((visible_at, m.id), m.clone());
                out.push(ReceivedMessage {
                    message: m,
                    receipt,
                });
            }
            svc.bump();
            Ok(out)
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }

    /// Approximate message count (the real API exposed this on queue
    /// metadata; includes currently-invisible messages).
    pub async fn approximate_count(&self, queue: &str) -> Result<usize> {
        let svc = &self.svc;
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("count");
            svc.perf_of(queue).peek_station.serve(0.0, &mut rng).await;
            svc.bump();
            Ok(svc.len(queue))
        };
        svc.op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await
    }

    /// Delete a received message. Fails with `NotFound` if the receipt is
    /// stale — the message's visibility expired and another worker
    /// received it (the §5.2 duplicate-execution hazard).
    pub async fn delete_message(&self, queue: &str, receipt: PopReceipt) -> Result<()> {
        let sp = simtrace::span(Layer::Store, "queue.delete_message", || {
            format!("queue:{queue}")
        });
        let svc = &self.svc;
        let op = async {
            let _admit = svc.admit()?;
            crate::injected_frontend_fault(&svc.sim).await?;
            let mut rng = self.rng.borrow_mut().fork("delmsg");
            let fe = sp.child("frontend", || "recv_station".into());
            svc.perf_of(queue).recv_station.serve(0.0, &mut rng).await;
            fe.end();
            let removed = svc
                .queues
                .borrow_mut()
                .get_mut(queue)
                .and_then(|q| q.messages.remove(&(receipt.visible_at, receipt.id)));
            svc.bump();
            match removed {
                Some(_) => Ok(()),
                None => Err(StorageError::NotFound),
            }
        };
        let res = svc
            .op_policy()
            .run_once(
                &svc.sim,
                || svc.connection_precheck(),
                op,
                || StorageError::Timeout,
            )
            .await;
        trace_outcome(&sp, &res);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::{StampConfig, StorageStamp};

    fn setup(seed: u64) -> (Sim, Rc<StorageStamp>) {
        let sim = Sim::new(seed);
        let stamp = StorageStamp::standalone(&sim, StampConfig::default());
        (sim, stamp)
    }

    #[test]
    fn add_peek_receive_delete_roundtrip() {
        let (sim, stamp) = setup(1);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.queue.add("q", "task-1", 512.0).await.unwrap();
            let peeked = c.queue.peek("q").await.unwrap().unwrap();
            assert_eq!(peeked.body, "task-1");
            let got = c.queue.receive_default("q").await.unwrap().unwrap();
            assert_eq!(got.message.body, "task-1");
            assert_eq!(got.message.dequeue_count, 1);
            // Invisible now: peek sees nothing.
            assert!(c.queue.peek("q").await.unwrap().is_none());
            c.queue.delete_message("q", got.receipt).await.unwrap();
            assert!(c.queue.receive_default("q").await.unwrap().is_none())
        });
        sim.run();
        h.try_take().unwrap();
    }

    #[test]
    fn fifo_delivery_order() {
        let (sim, stamp) = setup(2);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            for i in 0..5 {
                c.queue.add("q", format!("m{i}"), 512.0).await.unwrap();
            }
            let mut seen = Vec::new();
            while let Some(m) = c.queue.receive_default("q").await.unwrap() {
                seen.push(m.message.body.clone());
                c.queue.delete_message("q", m.receipt).await.unwrap();
            }
            seen
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec!["m0", "m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn message_reappears_after_visibility_timeout() {
        let (sim, stamp) = setup(3);
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.queue.add("q", "flaky", 512.0).await.unwrap();
            let first = c
                .queue
                .receive("q", SimDuration::from_secs(10))
                .await
                .unwrap()
                .unwrap();
            // Don't delete; let visibility lapse.
            s.delay(SimDuration::from_secs(11)).await;
            let second = c.queue.receive_default("q").await.unwrap().unwrap();
            (first.message.dequeue_count, second.message.dequeue_count)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (1, 2));
    }

    #[test]
    fn stale_receipt_fails_after_redelivery() {
        // §5.2's hazard: slow worker's delete must fail once the message
        // was re-received by someone else.
        let (sim, stamp) = setup(4);
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.queue.add("q", "x", 512.0).await.unwrap();
            let slow = c
                .queue
                .receive("q", SimDuration::from_secs(5))
                .await
                .unwrap()
                .unwrap();
            s.delay(SimDuration::from_secs(6)).await;
            let fast = c.queue.receive_default("q").await.unwrap().unwrap();
            let stale = c.queue.delete_message("q", slow.receipt).await;
            let fresh = c.queue.delete_message("q", fast.receipt).await;
            (stale, fresh)
        });
        sim.run();
        let (stale, fresh) = h.try_take().unwrap();
        assert_eq!(stale.unwrap_err(), StorageError::NotFound);
        assert!(fresh.is_ok());
    }

    #[test]
    fn visibility_clamped_to_two_hours() {
        let (sim, stamp) = setup(5);
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            c.queue.add("q", "long", 512.0).await.unwrap();
            c.queue
                .receive("q", SimDuration::from_hours(50))
                .await
                .unwrap()
                .unwrap();
            // After 2h + slack the message must be deliverable again.
            s.delay(SimDuration::from_hours(2) + SimDuration::from_secs(60))
                .await;
            c.queue.receive_default("q").await.unwrap()
        });
        sim.run();
        assert!(h.try_take().unwrap().is_some(), "2 h cap not enforced");
    }

    #[test]
    fn queue_length_does_not_change_op_latency() {
        // §3.3: no performance variation between 200 k and 2 M messages.
        // (Scaled counts; the mechanism is length-free by construction,
        // this guards against regressions introducing O(len) costs.)
        let timing = |seed: u64, seeded: usize| {
            let (sim, stamp) = setup(seed);
            stamp.queue_service().seed_messages("big", seeded, 512.0);
            let c = stamp.attach_small_client();
            let s = sim.clone();
            let h = sim.spawn(async move {
                let t0 = s.now();
                for _ in 0..50 {
                    let m = c.queue.receive_default("big").await.unwrap().unwrap();
                    c.queue.delete_message("big", m.receipt).await.unwrap();
                    c.queue.add("big", "new", 512.0).await.unwrap();
                }
                (s.now() - t0).as_secs_f64()
            });
            sim.run();
            h.try_take().unwrap()
        };
        let small = timing(6, 20_000);
        let large = timing(6, 200_000);
        let ratio = large / small;
        assert!((0.8..1.25).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn batch_receive_drains_in_order_and_amortizes() {
        let (sim, stamp) = setup(8);
        stamp.queue_service().seed_messages("q", 100, 512.0);
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            // Time 32 singles vs one batch of 32.
            let t0 = s.now();
            let batch = c
                .queue
                .receive_batch("q", 32, SimDuration::from_secs(60))
                .await
                .unwrap();
            let batch_time = (s.now() - t0).as_secs_f64();
            let t0 = s.now();
            for _ in 0..32 {
                c.queue.receive_default("q").await.unwrap().unwrap();
            }
            let singles_time = (s.now() - t0).as_secs_f64();
            (batch, batch_time, singles_time)
        });
        sim.run();
        let (batch, batch_time, singles_time) = h.try_take().unwrap();
        assert_eq!(batch.len(), 32);
        // FIFO within the batch.
        assert!(batch.windows(2).all(|w| w[0].message.id < w[1].message.id));
        assert!(
            batch_time < singles_time / 4.0,
            "batch {batch_time}s vs singles {singles_time}s"
        );
    }

    #[test]
    fn batch_receive_caps_at_32_and_handles_short_queues() {
        let (sim, stamp) = setup(9);
        stamp.queue_service().seed_messages("q", 5, 512.0);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            let got = c
                .queue
                .receive_batch("q", 100, SimDuration::from_secs(60))
                .await
                .unwrap();
            let empty = c
                .queue
                .receive_batch("q", 8, SimDuration::from_secs(60))
                .await
                .unwrap();
            (got.len(), empty.len())
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (5, 0));
    }

    #[test]
    fn approximate_count_includes_invisible() {
        let (sim, stamp) = setup(10);
        let c = stamp.attach_small_client();
        let h = sim.spawn(async move {
            c.queue.add("q", "a", 512.0).await.unwrap();
            c.queue.add("q", "b", 512.0).await.unwrap();
            let before = c.queue.approximate_count("q").await.unwrap();
            let _leased = c.queue.receive_default("q").await.unwrap().unwrap();
            let during = c.queue.approximate_count("q").await.unwrap();
            (before, during)
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (2, 2));
    }

    #[test]
    fn single_writer_add_rate_matches_paper_band() {
        // §6.1: "With 16 or fewer writers each client obtained 15–20
        // ops/s" — a lone writer sits at the top of that band.
        let (sim, stamp) = setup(7);
        let c = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let n = 100;
            let t0 = s.now();
            for i in 0..n {
                c.queue.add("q", format!("m{i}"), 512.0).await.unwrap();
            }
            n as f64 / (s.now() - t0).as_secs_f64()
        });
        sim.run();
        let rate = h.try_take().unwrap();
        assert!((13.0..22.0).contains(&rate), "add rate={rate}/s");
    }
}
